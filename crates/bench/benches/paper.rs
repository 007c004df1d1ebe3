//! Paper bench: times the operation behind each table and figure —
//! classification (Figure 6), adaptation (Figure 7), transfer embedding
//! (Figure 8), the accuracy metrics (Figures 9–11, Table II), the update
//! paths Table III contrasts, the padding defenses (Figures 12–13) and
//! the tensorization variants the ablations compare.
//!
//! One model per pipeline preset is provisioned once, at smoke scale.
//! No figure is regenerated here; `repro --smoke` does that.

use criterion::{criterion_group, criterion_main, Criterion};
use tlsfp_baselines::df::{DeepFingerprinting, DfConfig};
use tlsfp_baselines::kfp::{KFingerprinting, KfpConfig};
use tlsfp_bench::experiments::{Scale, CDF_MAX_GUESSES};
use tlsfp_core::defense::{AnonymitySetDefense, FixedLengthDefense, RandomPaddingDefense};
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::{ScaleMode, TensorConfig};
use tlsfp_web::corpus::{CorpusSpec, SyntheticCorpus};

fn bench_paper(c: &mut Criterion) {
    let scale = Scale::smoke();
    let dataset = |spec: CorpusSpec, tensor: TensorConfig| {
        Dataset::generate(&spec, &tensor, scale.seed).unwrap().1
    };

    // The 3-sequence model (`small`), on a Figure 5 split: it trains on
    // Set A and keeps it as the known-class reference; Set B tests the
    // known classes, Sets C/D are the unseen ones.
    let wiki = dataset(CorpusSpec::wiki_like(12, 12), TensorConfig::wiki());
    let split = wiki.figure5(6, 0.2, 0).unwrap();
    let fp = AdaptiveFingerprinter::provision(&split.set_a, &scale.pipeline, scale.seed).unwrap();
    let report = fp.evaluate(&split.set_b);
    let swap_reference = |reference: &Dataset| {
        let mut clone = fp.clone();
        clone.set_reference(reference).unwrap();
        clone.reference().len()
    };

    // The 2-sequence model (`small_two_seq`), trained on wiki traffic.
    let wiki2 = dataset(CorpusSpec::wiki_like(6, 12), TensorConfig::two_seq());
    let fp2 =
        AdaptiveFingerprinter::provision(&wiki2, &scale.pipeline_two_seq, scale.seed).unwrap();
    let github = dataset(CorpusSpec::github_like(6, 6), TensorConfig::two_seq());

    // Raw captures for the defenses and the tensorization variants.
    let corpus = SyntheticCorpus::generate(&CorpusSpec::wiki_like(8, 8), 3).unwrap();
    let seqs: Vec<IpSequences> = corpus
        .traces
        .iter()
        .map(|lc| IpSequences::extract(&lc.capture))
        .collect();

    let trace = &split.set_b.seqs()[0];
    c.bench_function("fig6/fingerprint_one_trace", |b| {
        b.iter(|| fp.fingerprint(trace))
    });
    c.bench_function("fig6/evaluate_test_set", |b| {
        b.iter(|| fp.evaluate(&split.set_b).top_n_accuracy(1))
    });

    c.bench_function("fig7/set_reference_unseen_classes", |b| {
        b.iter(|| swap_reference(&split.set_c))
    });
    let fresh = &split.set_d.seqs()[..4.min(split.set_d.len())];
    c.bench_function("fig7/update_single_class", |b| {
        b.iter(|| fp.clone().update_class(0, fresh).unwrap())
    });

    c.bench_function("fig8/embed_github_corpus_with_wiki_model", |b| {
        b.iter(|| fp2.embed_all(github.seqs()).len())
    });

    c.bench_function("fig9_to_11/guess_cdf", |b| {
        b.iter(|| report.guess_cdf(CDF_MAX_GUESSES))
    });
    c.bench_function("fig9_to_11/per_class_mean_guesses", |b| {
        b.iter(|| report.per_class_mean_guesses())
    });

    c.bench_function("table2/smallest_n_search", |b| {
        b.iter(|| report.smallest_n_for(0.89))
    });

    // Table III's two update paths: a reference swap (ours) against
    // classifier refits (the baselines).
    c.bench_function("table3/adaptive_update_reference_swap", |b| {
        b.iter(|| swap_reference(&split.set_a))
    });
    c.bench_function("table3/kfp_refit", |b| {
        b.iter(|| KFingerprinting::fit(&split.set_a, KfpConfig::default(), 1))
    });
    let df = DfConfig {
        epochs: 2,
        ..DfConfig::default()
    };
    c.bench_function("table3/df_retrain_2_epochs", |b| {
        b.iter(|| DeepFingerprinting::fit(&wiki2, df.clone(), 1))
    });

    // The defender's cost: applying each defense to a corpus.
    c.bench_function("defense/fixed_length_apply", |b| {
        b.iter(|| FixedLengthDefense::default().apply(&mut corpus.traces.clone(), 0))
    });
    let anonymity = AnonymitySetDefense {
        set_size: 4,
        record_quantum: 16_384,
    };
    c.bench_function("defense/anonymity_sets_apply", |b| {
        b.iter(|| anonymity.apply(&mut corpus.traces.clone(), 0))
    });
    c.bench_function("defense/random_padding_apply", |b| {
        b.iter(|| RandomPaddingDefense { max_pad: 1024 }.apply(&mut corpus.traces.clone(), 0))
    });

    for (name, cfg) in [
        ("3seq_log", TensorConfig::wiki()),
        ("2seq_log", TensorConfig::two_seq()),
        (
            "3seq_linear",
            TensorConfig {
                scale: ScaleMode::Linear { cap: 1_000_000 },
                ..TensorConfig::wiki()
            },
        ),
        (
            "3seq_no_quant",
            TensorConfig {
                quantize_bin: 1,
                ..TensorConfig::wiki()
            },
        ),
    ] {
        c.bench_function(&format!("ablations/tensorize_{name}"), |b| {
            b.iter(|| {
                for s in &seqs {
                    std::hint::black_box(cfg.tensorize(s));
                }
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_paper
}
criterion_main!(benches);
