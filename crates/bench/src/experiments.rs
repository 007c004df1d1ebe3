//! Experiment runners: one function per table/figure of the paper.
//!
//! Each runner is deterministic in its seed, returns a serializable
//! result struct, and has a `print` companion that emits the same
//! rows/series the paper reports. The `repro` binary dispatches to
//! these. Every wall-clock column is measured through
//! [`crate::measure`].

use serde::{Deserialize, Serialize};

use tlsfp_baselines::cost::{table3_systems, CostModel, MeasuredCosts};
use tlsfp_baselines::df::{DeepFingerprinting, DfConfig};
use tlsfp_baselines::kfp::{KFingerprinting, KfpConfig};
use tlsfp_core::defense::FixedLengthDefense;
use tlsfp_core::metrics::EvalReport;
use tlsfp_core::open_world::{roc_auc, RocPoint};
use tlsfp_core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp_index::sharded::ShardedStore;
use tlsfp_index::{IndexConfig, Metric, PqParams, Rows};
use tlsfp_trace::dataset::Dataset;
use tlsfp_trace::sequence::IpSequences;
use tlsfp_trace::tensorize::TensorConfig;
use tlsfp_web::corpus::{open_world_split, CorpusSpec, SyntheticCorpus};
use tlsfp_web::crawler::LabeledCapture;

use crate::measure;

/// Scale knobs shared by all experiments.
///
/// The paper's corpora (19,000 classes × 100 traces) exceed a laptop
/// budget for a from-scratch CPU stack; the default scale keeps every
/// *sweep shape* while shrinking the axes. `full()` grows toward the
/// paper's axes for long runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scale {
    /// Class counts swept in Exp. 1 (paper: 500/1000/3000/6000).
    pub known_sweep: Vec<usize>,
    /// Class counts swept in Exp. 2 (paper: 500..13000).
    pub unseen_sweep: Vec<usize>,
    /// Traces per class (paper: 100 for Wiki).
    pub traces_per_class: usize,
    /// Fraction of samples held out as the test side (paper: 10/100).
    pub test_fraction: f64,
    /// Pipeline preset used for 3-sequence experiments.
    pub pipeline: PipelineConfig,
    /// Pipeline preset for 2-sequence experiments.
    pub pipeline_two_seq: PipelineConfig,
    /// Github-like class counts for Exp. 3 (paper: 100/250/500).
    pub github_sweep: Vec<usize>,
    /// Monitored classes per profile in the open-world experiment.
    pub open_world_monitored: usize,
    /// Unmonitored classes per profile in the open-world experiment.
    pub open_world_unmonitored: usize,
    /// Percentile of held-out monitored scores used to calibrate the
    /// open-world rejection threshold.
    pub calibration_percentile: f64,
    /// Class counts swept by the `fig_shard` store-scaling experiment
    /// (paper regime: up to 13,000 classes).
    pub shard_sweep: Vec<usize>,
    /// Class count for the `fig_concurrent` worker-scaling experiment
    /// (paper regime: 13,000 classes).
    pub concurrent_classes: usize,
    /// Class counts swept by the `fig_quant` product-quantization
    /// experiment (target regime: 10⁵ classes — the scale "Towards
    /// Fine-Grained Webpage Fingerprinting at Scale" reaches).
    pub quant_sweep: Vec<usize>,
    /// Class counts (store sizes) swept by the `fig_batchscan`
    /// blocked-kernel experiment.
    pub batchscan_sweep: Vec<usize>,
    /// Trace fractions swept by the `fig_early` streaming experiment
    /// (each prefix decision consumes this share of the records; the
    /// runner always appends 1.0 for the full-trace anchor).
    pub early_fractions: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Scale {
    /// Laptop-scale defaults (minutes, not days).
    pub fn default_scale() -> Self {
        // k = 25 keeps the vote list wide enough for the top-10/top-20
        // tails at ~19 reference traces per class (the paper's k = 250
        // assumes ~90 per class).
        let mut pipeline = PipelineConfig::small();
        pipeline.k = 25;
        let mut pipeline_two_seq = PipelineConfig::small_two_seq();
        pipeline_two_seq.k = 25;
        Scale {
            known_sweep: vec![10, 25, 50, 100],
            unseen_sweep: vec![10, 25, 50, 100],
            traces_per_class: 24,
            test_fraction: 0.2,
            pipeline,
            pipeline_two_seq,
            github_sweep: vec![10, 25, 50],
            open_world_monitored: 12,
            open_world_unmonitored: 12,
            calibration_percentile: 95.0,
            shard_sweep: vec![200, 800, 3200],
            concurrent_classes: 3200,
            quant_sweep: vec![10_000, 40_000, 100_000],
            batchscan_sweep: vec![800, 3200],
            early_fractions: vec![0.1, 0.25, 0.5, 0.75, 1.0],
            seed: 7,
        }
    }

    /// A larger run, closer to the paper's axes (hours on a laptop).
    pub fn full() -> Self {
        let mut s = Scale::default_scale();
        s.known_sweep = vec![50, 100, 300, 600];
        s.unseen_sweep = vec![50, 100, 300, 600, 1300];
        s.github_sweep = vec![100, 250, 500];
        s.open_world_monitored = 50;
        s.open_world_unmonitored = 100;
        s.traces_per_class = 40;
        s.shard_sweep = vec![1_000, 4_000, 13_000];
        s.concurrent_classes = 13_000;
        s.quant_sweep = vec![40_000, 100_000, 200_000];
        s.batchscan_sweep = vec![4_000, 13_000];
        s.early_fractions = vec![0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0];
        s.pipeline.epochs = 60;
        s.pipeline.pairs_per_epoch = 4096;
        s.pipeline_two_seq.epochs = 60;
        s.pipeline_two_seq.pairs_per_epoch = 4096;
        s
    }

    /// A tiny smoke-test scale for CI and criterion.
    pub fn smoke() -> Self {
        let mut s = Scale::default_scale();
        s.known_sweep = vec![6, 10];
        s.unseen_sweep = vec![6, 10];
        s.github_sweep = vec![6];
        s.open_world_monitored = 5;
        s.open_world_unmonitored = 3;
        s.traces_per_class = 12;
        s.shard_sweep = vec![40, 120];
        s.concurrent_classes = 200;
        s.quant_sweep = vec![60, 200];
        s.batchscan_sweep = vec![40, 120];
        s.pipeline.epochs = 10;
        s.pipeline.pairs_per_epoch = 1024;
        s.pipeline_two_seq.epochs = 10;
        s.pipeline_two_seq.pairs_per_epoch = 1024;
        s
    }
}

/// One top-N accuracy series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySeries {
    /// Series label (e.g. "500 classes", "TLS 1.3").
    pub label: String,
    /// Number of classes in the pool.
    pub n_classes: usize,
    /// `(n, top-n accuracy)` points.
    pub points: Vec<(usize, f64)>,
}

impl AccuracySeries {
    fn from_report(label: String, n_classes: usize, report: &EvalReport, ns: &[usize]) -> Self {
        AccuracySeries {
            label,
            n_classes,
            points: ns.iter().map(|&n| (n, report.top_n_accuracy(n))).collect(),
        }
    }
}

/// The `n` values reported in the accuracy figures.
pub const FIG_NS: [usize; 7] = [1, 2, 3, 4, 5, 10, 20];

fn wiki_dataset(classes: usize, traces: usize, seed: u64) -> Dataset {
    let (_, ds) = Dataset::generate(
        &CorpusSpec::wiki_like(classes, traces),
        &TensorConfig::wiki(),
        seed,
    )
    .expect("valid corpus spec");
    ds
}

/// Every site profile's name and dataset at `classes` classes, profile
/// `i` generated at seed `seed + i`.
fn profile_datasets(
    scale: &Scale,
    classes: usize,
    seed: u64,
) -> impl Iterator<Item = (String, Dataset)> {
    let specs = CorpusSpec::all_profiles(classes, scale.traces_per_class).into_iter();
    specs.enumerate().map(move |(i, spec)| {
        let (_, ds) =
            Dataset::generate(&spec, &TensorConfig::wiki(), seed + i as u64).expect("valid corpus");
        (spec.site.name, ds)
    })
}

// ---------------------------------------------------------------------
// Figure 6 — Exp. 1: static webpage classification (known classes).
// ---------------------------------------------------------------------

/// Result of the Figure 6 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Result {
    /// One series per class-count slice (TLS 1.2).
    pub series: Vec<AccuracySeries>,
    /// The TLS 1.3 evaluation of the same model (smallest slice size).
    pub tls13: AccuracySeries,
    /// Seconds the (single) provisioning run took.
    pub train_seconds: f64,
}

/// Runs Exp. 1: trains one model on the largest slice's classes, then
/// evaluates known-class recognition on each slice, plus a TLS 1.3
/// variant of the smallest slice.
pub fn run_fig6(scale: &Scale) -> Fig6Result {
    let max_classes = *scale.known_sweep.iter().max().expect("non-empty sweep");
    let ds = wiki_dataset(max_classes, scale.traces_per_class, scale.seed);
    let (reference, test) = ds.split_per_class(scale.test_fraction, scale.seed);

    let adversary = AdaptiveFingerprinter::provision(&reference, &scale.pipeline, scale.seed)
        .expect("provisioning succeeds");

    let mut series = Vec::new();
    for &classes in &scale.known_sweep {
        let class_ids: Vec<usize> = (0..classes).collect();
        let ref_slice = reference.subset_classes(&class_ids).expect("subset");
        let test_slice = test.subset_classes(&class_ids).expect("subset");
        let mut fp = adversary.clone();
        fp.set_reference(&ref_slice).expect("reference");
        let report = fp.evaluate(&test_slice);
        series.push(AccuracySeries::from_report(
            format!("{classes} classes (TLS 1.2)"),
            classes,
            &report,
            &FIG_NS,
        ));
    }

    // TLS 1.3 evaluation: the *same* site and pages (same generation
    // seed), re-crawled over TLS 1.3 — only the protocol framing,
    // handshake shape and record overheads change, mirroring the
    // paper's "seen during training but only through TLS 1.2" setup.
    let tls13_classes = *scale.known_sweep.iter().min().expect("non-empty");
    let mut spec13 = CorpusSpec::wiki_like(tls13_classes, scale.traces_per_class);
    spec13.site.version = tlsfp_net::record::TlsVersion::V1_3;
    let (_, ds13) =
        Dataset::generate(&spec13, &TensorConfig::wiki(), scale.seed).expect("valid corpus");
    let (ref13, test13) = ds13.split_per_class(scale.test_fraction, scale.seed);
    let mut fp13 = adversary.clone();
    fp13.set_reference(&ref13).expect("reference");
    let report13 = fp13.evaluate(&test13);
    let tls13 = AccuracySeries::from_report(
        format!("{tls13_classes} classes (TLS 1.3)"),
        tls13_classes,
        &report13,
        &FIG_NS,
    );

    Fig6Result {
        series,
        tls13,
        train_seconds: adversary.training_log().train_seconds,
    }
}

// ---------------------------------------------------------------------
// Figure 7 + Table II — Exp. 2: classes never seen during training.
// ---------------------------------------------------------------------

/// Result of the Figure 7 / Table II run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Result {
    /// Classes the model was trained on.
    pub train_classes: usize,
    /// One series per unseen-class-count slice.
    pub series: Vec<AccuracySeries>,
    /// Table II rows: `(classes, n, top-n accuracy, n/classes %)` with
    /// the smallest n reaching ~0.89.
    pub table2: Vec<(usize, usize, f64, f64)>,
}

/// Runs Exp. 2: the model trains on one class partition and classifies
/// a completely disjoint partition (reference = Set C, test = Set D).
pub fn run_fig7(scale: &Scale) -> Fig7Result {
    let train_classes = *scale.known_sweep.iter().max().expect("non-empty");
    let unseen_max = *scale.unseen_sweep.iter().max().expect("non-empty");
    let total = train_classes + unseen_max;

    let ds = wiki_dataset(total, scale.traces_per_class, scale.seed + 1);
    let split = ds
        .figure5(train_classes, scale.test_fraction, scale.seed)
        .expect("figure 5 split");

    let adversary = AdaptiveFingerprinter::provision(&split.set_a, &scale.pipeline, scale.seed)
        .expect("provisioning succeeds");

    let mut series = Vec::new();
    let mut table2 = Vec::new();
    for &classes in &scale.unseen_sweep {
        let class_ids: Vec<usize> = (0..classes).collect();
        let ref_slice = split.set_c.subset_classes(&class_ids).expect("subset");
        let test_slice = split.set_d.subset_classes(&class_ids).expect("subset");
        let mut fp = adversary.clone();
        fp.set_reference(&ref_slice).expect("reference");
        let report = fp.evaluate(&test_slice);
        series.push(AccuracySeries::from_report(
            format!("{classes} unseen classes"),
            classes,
            &report,
            &FIG_NS,
        ));
        if let Some(n) = report.smallest_n_for(0.89) {
            table2.push((
                classes,
                n,
                report.top_n_accuracy(n),
                100.0 * n as f64 / classes as f64,
            ));
        }
    }

    Fig7Result {
        train_classes,
        series,
        table2,
    }
}

// ---------------------------------------------------------------------
// Figure 8 — Exp. 3: TLS version & theme sensitivity.
// ---------------------------------------------------------------------

/// Result of the Figure 8 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Result {
    /// Two-sequence Wikipedia baseline (training distribution).
    pub wiki_baseline: AccuracySeries,
    /// Github-like evaluations of the same model at several sizes.
    pub github: Vec<AccuracySeries>,
}

/// Runs Exp. 3: a two-sequence model trained on Wiki TLS 1.2 traffic is
/// evaluated unchanged on Github-like TLS 1.3 corpora.
pub fn run_fig8(scale: &Scale) -> Fig8Result {
    let wiki_classes = *scale.github_sweep.iter().max().expect("non-empty");
    let tensor = TensorConfig::two_seq();
    let (_, wiki) = Dataset::generate(
        &CorpusSpec::wiki_like(wiki_classes, scale.traces_per_class),
        &tensor,
        scale.seed + 2,
    )
    .expect("valid corpus");
    let (wiki_ref, wiki_test) = wiki.split_per_class(scale.test_fraction, scale.seed);
    let adversary =
        AdaptiveFingerprinter::provision(&wiki_ref, &scale.pipeline_two_seq, scale.seed)
            .expect("provisioning succeeds");
    let wiki_report = adversary.evaluate(&wiki_test);
    let wiki_baseline = AccuracySeries::from_report(
        format!("wiki {wiki_classes} (baseline, 2-seq)"),
        wiki_classes,
        &wiki_report,
        &FIG_NS,
    );

    let mut github = Vec::new();
    for &classes in &scale.github_sweep {
        let (_, gh) = Dataset::generate(
            &CorpusSpec::github_like(classes, scale.traces_per_class),
            &tensor,
            scale.seed + 3,
        )
        .expect("valid corpus");
        let (gh_ref, gh_test) = gh.split_per_class(scale.test_fraction, scale.seed);
        let mut fp = adversary.clone();
        fp.set_reference(&gh_ref).expect("reference");
        let report = fp.evaluate(&gh_test);
        github.push(AccuracySeries::from_report(
            format!("github {classes} (transfer)"),
            classes,
            &report,
            &FIG_NS,
        ));
    }

    Fig8Result {
        wiki_baseline,
        github,
    }
}

// ---------------------------------------------------------------------
// Figures 9-11 — Exp. 4: per-class distinguishability CDFs.
// ---------------------------------------------------------------------

/// One CDF curve: `(guesses, fraction of classes)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CdfCurve {
    /// Curve label.
    pub label: String,
    /// `(g, fraction of classes with mean guesses ≤ g)`.
    pub points: Vec<(usize, f64)>,
}

/// Result of the Figures 9-11 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9To11Result {
    /// Figure 9: known classes, two sizes.
    pub fig9: Vec<CdfCurve>,
    /// Figure 10: unseen classes, two sizes.
    pub fig10: Vec<CdfCurve>,
    /// Figure 11: FL-padded traces, known and unseen.
    pub fig11: Vec<CdfCurve>,
}

/// Maximum guess count plotted in the CDFs.
pub const CDF_MAX_GUESSES: usize = 25;

/// Runs Exp. 4: cumulative distributions of the mean number of guesses
/// needed per class, for known classes, unseen classes, and FL-padded
/// traffic.
pub fn run_fig9_to_11(scale: &Scale) -> Fig9To11Result {
    let sizes: Vec<usize> = scale.known_sweep.iter().copied().take(2).collect();
    let max_classes = *sizes.iter().max().expect("non-empty");

    // Known classes (Figure 9) — reuse the Exp. 1 structure.
    let ds = wiki_dataset(max_classes * 2, scale.traces_per_class, scale.seed + 4);
    let split = ds
        .figure5(max_classes, scale.test_fraction, scale.seed)
        .expect("figure 5 split");
    let adversary = AdaptiveFingerprinter::provision(&split.set_a, &scale.pipeline, scale.seed)
        .expect("provisioning succeeds");

    let mut fig9 = Vec::new();
    let mut fig10 = Vec::new();
    for &classes in &sizes {
        let ids: Vec<usize> = (0..classes).collect();
        // Known: reference = train slice, test = Set B slice.
        let mut fp = adversary.clone();
        fp.set_reference(&split.set_a.subset_classes(&ids).expect("subset"))
            .expect("reference");
        let report = fp.evaluate(&split.set_b.subset_classes(&ids).expect("subset"));
        fig9.push(CdfCurve {
            label: format!("wiki-{classes} known"),
            points: report.guess_cdf(CDF_MAX_GUESSES),
        });
        // Unseen: reference = Set C slice, test = Set D slice.
        let mut fp = adversary.clone();
        fp.set_reference(&split.set_c.subset_classes(&ids).expect("subset"))
            .expect("reference");
        let report = fp.evaluate(&split.set_d.subset_classes(&ids).expect("subset"));
        fig10.push(CdfCurve {
            label: format!("wiki-{classes} unseen"),
            points: report.guess_cdf(CDF_MAX_GUESSES),
        });
    }

    // Figure 11: FL-padded corpus, known + unseen, smallest size.
    let classes = sizes[0];
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec::wiki_like(classes * 2, scale.traces_per_class),
        scale.seed + 5,
    )
    .expect("valid corpus");
    let mut padded: Vec<LabeledCapture> = corpus.traces.clone();
    FixedLengthDefense::default().apply(&mut padded, scale.seed);
    let tensor = TensorConfig::wiki();
    let mut padded_ds = Dataset::new(classes * 2, tensor.channels, tensor.max_steps);
    for lc in &padded {
        padded_ds
            .push_capture(lc, &tensor)
            .expect("labels in range");
    }
    let psplit = padded_ds
        .figure5(classes, scale.test_fraction, scale.seed)
        .expect("figure 5 split");
    let padded_adversary =
        AdaptiveFingerprinter::provision(&psplit.set_a, &scale.pipeline, scale.seed)
            .expect("provisioning succeeds");
    let mut fig11 = Vec::new();
    {
        // Provision leaves the reference set pointed at Set A, so the
        // known-class evaluation runs directly against Set B.
        let report = padded_adversary.evaluate(&psplit.set_b);
        fig11.push(CdfCurve {
            label: format!("wiki-{classes} known, FL-padded"),
            points: report.guess_cdf(CDF_MAX_GUESSES),
        });
        let mut fp = padded_adversary.clone();
        fp.set_reference(&psplit.set_c).expect("reference");
        let report2 = fp.evaluate(&psplit.set_d);
        fig11.push(CdfCurve {
            label: format!("wiki-{classes} unseen, FL-padded"),
            points: report2.guess_cdf(CDF_MAX_GUESSES),
        });
    }

    Fig9To11Result { fig9, fig10, fig11 }
}

// ---------------------------------------------------------------------
// Figures 12-13 — fixed-length padding vs the adversary.
// ---------------------------------------------------------------------

/// Result of the Figures 12/13 run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig12And13Result {
    /// Figure 12: known classes — unpadded vs FL-padded series.
    pub fig12: Vec<AccuracySeries>,
    /// Figure 13: unseen classes — unpadded vs FL-padded series.
    pub fig13: Vec<AccuracySeries>,
    /// Bandwidth overhead factor the FL defense cost.
    pub overhead_factor: f64,
}

/// Runs the §VII defense evaluation at two class counts.
pub fn run_fig12_13(scale: &Scale) -> Fig12And13Result {
    let sizes: Vec<usize> = scale.known_sweep.iter().copied().take(2).collect();
    let max_classes = *sizes.iter().max().expect("non-empty");
    let tensor = TensorConfig::wiki();

    // One corpus; padded copy made once.
    let corpus = SyntheticCorpus::generate(
        &CorpusSpec::wiki_like(max_classes * 2, scale.traces_per_class),
        scale.seed + 6,
    )
    .expect("valid corpus");
    let mut padded_traces = corpus.traces.clone();
    let overhead = FixedLengthDefense::default().apply(&mut padded_traces, scale.seed);

    let build = |traces: &[LabeledCapture]| {
        let mut ds = Dataset::new(max_classes * 2, tensor.channels, tensor.max_steps);
        for lc in traces {
            ds.push_capture(lc, &tensor).expect("labels in range");
        }
        ds
    };
    let plain_ds = build(&corpus.traces);
    let padded_ds = build(&padded_traces);

    let run_side = |ds: &Dataset, label: &str| -> (Vec<AccuracySeries>, Vec<AccuracySeries>) {
        let split = ds
            .figure5(max_classes, scale.test_fraction, scale.seed)
            .expect("figure 5 split");
        let adversary = AdaptiveFingerprinter::provision(&split.set_a, &scale.pipeline, scale.seed)
            .expect("provisioning succeeds");
        let mut known = Vec::new();
        let mut unseen = Vec::new();
        for &classes in &sizes {
            let ids: Vec<usize> = (0..classes).collect();
            let mut fp = adversary.clone();
            fp.set_reference(&split.set_a.subset_classes(&ids).expect("subset"))
                .expect("reference");
            let report = fp.evaluate(&split.set_b.subset_classes(&ids).expect("subset"));
            known.push(AccuracySeries::from_report(
                format!("{classes} known, {label}"),
                classes,
                &report,
                &FIG_NS,
            ));
            let mut fp = adversary.clone();
            fp.set_reference(&split.set_c.subset_classes(&ids).expect("subset"))
                .expect("reference");
            let report = fp.evaluate(&split.set_d.subset_classes(&ids).expect("subset"));
            unseen.push(AccuracySeries::from_report(
                format!("{classes} unseen, {label}"),
                classes,
                &report,
                &FIG_NS,
            ));
        }
        (known, unseen)
    };

    let (plain_known, plain_unseen) = run_side(&plain_ds, "no padding");
    let (pad_known, pad_unseen) = run_side(&padded_ds, "FL padding");

    let mut fig12 = plain_known;
    fig12.extend(pad_known);
    let mut fig13 = plain_unseen;
    fig13.extend(pad_unseen);

    Fig12And13Result {
        fig12,
        fig13,
        overhead_factor: overhead.factor(),
    }
}

// ---------------------------------------------------------------------
// Table III — operational costs, static profiles + measured numbers.
// ---------------------------------------------------------------------

/// Result of the Table III run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table3Result {
    /// Measured costs of the three locally-implemented systems.
    pub measured: Vec<MeasuredCosts>,
    /// Analytic lifetime update costs (seconds) per Table III system,
    /// under the paper's crawl economics.
    pub lifetime_updates: Vec<(String, f64)>,
    /// Top-1 accuracies of the three implemented systems on the same
    /// split, for context.
    pub accuracies: Vec<(String, f64)>,
}

/// Runs the cost comparison: provisions/updates each implemented system
/// on the same corpus and measures wall-clock; then applies the Juarez
/// cost framework to the full Table III roster.
pub fn run_table3(scale: &Scale) -> Table3Result {
    let classes = scale.known_sweep[scale.known_sweep.len() / 2];
    let ds = wiki_dataset(classes, scale.traces_per_class, scale.seed + 7);
    let (train, test) = ds.split_per_class(scale.test_fraction, scale.seed);

    let mut measured = Vec::new();
    let mut accuracies = Vec::new();

    // Ours: adaptive fingerprinting.
    let (mut adaptive, adaptive_train) = measure::time(|| {
        AdaptiveFingerprinter::provision(&train, &scale.pipeline, scale.seed)
            .expect("provisioning succeeds")
    });
    let adaptive_infer = measure::time(|| adaptive.evaluate(&test)).1 / test.len().max(1) as f64;
    // Update: re-embed the reference corpus (no retraining).
    let adaptive_update = measure::time(|| adaptive.set_reference(&train).expect("reference")).1;
    accuracies.push((
        "Adaptive Fingerprinting".into(),
        adaptive.evaluate(&test).top_n_accuracy(1),
    ));
    measured.push(MeasuredCosts {
        name: "Adaptive Fingerprinting (ours)".into(),
        train_seconds: adaptive_train,
        infer_seconds_per_trace: adaptive_infer,
        update_compute_seconds: adaptive_update,
        retrained: false,
    });

    // k-fingerprinting: forest refit on update (cheap, but a refit).
    let (kfp, kfp_train) =
        measure::time(|| KFingerprinting::fit(&train, KfpConfig::default(), scale.seed));
    let kfp_infer = measure::time(|| kfp.evaluate(&test)).1 / test.len().max(1) as f64;
    let (kfp2, kfp_update) =
        measure::time(|| KFingerprinting::fit(&train, KfpConfig::default(), scale.seed + 1));
    accuracies.push((
        "k-fingerprinting".into(),
        kfp2.evaluate(&test).top_n_accuracy(1),
    ));
    measured.push(MeasuredCosts {
        name: "k-fingerprinting".into(),
        train_seconds: kfp_train,
        infer_seconds_per_trace: kfp_infer,
        update_compute_seconds: kfp_update,
        retrained: true,
    });

    // DF-lite: full CNN retraining on update.
    let two = TensorConfig::two_seq();
    let (_, ds2) = Dataset::generate(
        &CorpusSpec::wiki_like(classes, scale.traces_per_class),
        &two,
        scale.seed + 7,
    )
    .expect("valid corpus");
    let (train2, test2) = ds2.split_per_class(scale.test_fraction, scale.seed);
    let df_config = DfConfig::default();
    let (df, df_train) =
        measure::time(|| DeepFingerprinting::fit(&train2, df_config.clone(), scale.seed));
    let df_infer = measure::time(|| df.evaluate(&test2)).1 / test2.len().max(1) as f64;
    let (df2, df_update) =
        measure::time(|| DeepFingerprinting::fit(&train2, df_config, scale.seed + 1));
    accuracies.push((
        "Deep Fingerprinting (lite)".into(),
        df2.evaluate(&test2).top_n_accuracy(1),
    ));
    measured.push(MeasuredCosts {
        name: "Deep Fingerprinting (lite)".into(),
        train_seconds: df_train,
        infer_seconds_per_trace: df_infer,
        update_compute_seconds: df_update,
        retrained: true,
    });

    // Analytic lifetime update costs over the Table III roster.
    let model = CostModel::paper_crawl(classes as u64, 4);
    let lifetime_updates = table3_systems()
        .iter()
        .map(|profile| {
            // Use our measured numbers as the compute proxies for the
            // corresponding complexity tier.
            let (train_s, embed_s) = match profile.complexity {
                tlsfp_baselines::cost::Complexity::High => {
                    (adaptive_train.max(df_train), adaptive_update)
                }
                tlsfp_baselines::cost::Complexity::Moderate => (kfp_train, kfp_update),
                tlsfp_baselines::cost::Complexity::Low => (1.0, 1.0),
            };
            (
                profile.name.to_string(),
                model.lifetime_update_seconds(profile, train_s, embed_s),
            )
        })
        .collect();

    Table3Result {
        measured,
        lifetime_updates,
        accuracies,
    }
}

// ---------------------------------------------------------------------
// fig_open_world — §VI-C: open-world detection across all profiles.
// ---------------------------------------------------------------------

/// Parameters for one profile's open-world run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenWorldParams {
    /// Classes the adversary monitors (the rest are unmonitored).
    pub n_monitored: usize,
    /// Per-class fraction of monitored samples held out from training.
    pub test_fraction: f64,
    /// Percentile of held-out monitored scores used as the threshold.
    pub calibration_percentile: f64,
    /// Pipeline preset.
    pub pipeline: PipelineConfig,
    /// Seed for the split, provisioning and calibration.
    pub seed: u64,
}

impl OpenWorldParams {
    /// The open-world parameters a [`Scale`] implies.
    pub fn from_scale(scale: &Scale) -> Self {
        OpenWorldParams {
            n_monitored: scale.open_world_monitored,
            test_fraction: scale.test_fraction,
            calibration_percentile: scale.calibration_percentile,
            pipeline: scale.pipeline.clone(),
            seed: scale.seed,
        }
    }
}

/// Result of one profile's open-world run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenWorldProfileResult {
    /// Site-profile name.
    pub profile: String,
    /// Monitored class count.
    pub n_monitored: usize,
    /// Unmonitored class count.
    pub n_unmonitored: usize,
    /// Calibrated rejection threshold (the global rule's shared radius).
    pub threshold: f32,
    /// True-positive rate at the calibrated threshold.
    pub tpr: f64,
    /// False-positive rate at the calibrated threshold.
    pub fpr: f64,
    /// Precision at the calibrated threshold.
    pub precision: f64,
    /// Recall at the calibrated threshold.
    pub recall: f64,
    /// Top-1 accuracy among accepted monitored loads.
    pub accepted_top1: f64,
    /// Area under the ROC curve.
    pub auc: f64,
    /// The full ROC sweep; each point's threshold is an offset from the
    /// calibrated radius.
    pub roc: Vec<RocPoint>,
}

/// Result of the fig_open_world run: one entry per site profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigOpenWorldResult {
    /// Per-profile open-world evaluations.
    pub profiles: Vec<OpenWorldProfileResult>,
}

/// Runs the open-world protocol on one profile's dataset: partition
/// classes into monitored/unmonitored, train on monitored training
/// samples only, calibrate the rejection threshold on one half of the
/// monitored hold-out, and evaluate detection + classification on the
/// other half against every unmonitored load.
pub fn run_open_world_profile(
    name: &str,
    ds: &Dataset,
    params: &OpenWorldParams,
) -> OpenWorldProfileResult {
    let split =
        open_world_split(ds.n_classes(), params.n_monitored, params.seed).expect("valid split");
    let monitored = ds.subset_classes(&split.monitored).expect("subset");
    let unmonitored = ds.subset_classes(&split.unmonitored).expect("subset");
    let (train, heldout) = monitored.split_per_class(params.test_fraction, params.seed);
    // Calibration and evaluation must not share samples: the threshold
    // comes from one half of the hold-out, the metrics from the other.
    let (eval, calib) = heldout.split_per_class(0.5, params.seed.wrapping_add(1));

    let adversary = AdaptiveFingerprinter::provision(&train, &params.pipeline, params.seed)
        .expect("provisioning succeeds");
    let rule = adversary
        .calibrate_rejection_threshold(&calib, params.calibration_percentile)
        .expect("non-empty calibration set");
    let report = adversary.evaluate_open_world(&eval, &unmonitored, &rule);
    OpenWorldProfileResult {
        profile: name.to_string(),
        n_monitored: monitored.n_classes(),
        n_unmonitored: unmonitored.n_classes(),
        threshold: rule.fallback,
        tpr: report.counts.tpr(),
        fpr: report.counts.fpr(),
        precision: report.counts.precision(),
        recall: report.counts.recall(),
        accepted_top1: report.accepted_top1,
        auc: roc_auc(&report.roc),
        roc: report.roc,
    }
}

/// Runs the open-world evaluation over all five site profiles.
pub fn run_fig_open_world(scale: &Scale) -> FigOpenWorldResult {
    let total = scale.open_world_monitored + scale.open_world_unmonitored;
    let params = OpenWorldParams::from_scale(scale);
    let profiles = profile_datasets(scale, total, scale.seed + 8)
        .map(|(name, ds)| run_open_world_profile(&name, &ds, &params))
        .collect();
    FigOpenWorldResult { profiles }
}

// ---------------------------------------------------------------------
// fig_index — IVF candidate pruning vs the exact flat scan.
// ---------------------------------------------------------------------

/// One profile's index comparison: the IVF backend measured against
/// the exact flat scan on identical embeddings and queries, and both
/// against scoring every row. The flat store prunes exactly from
/// `tlsfp_index::flat::LIST_MIN_ROWS` rows on, so IVF's saving over it
/// is what approximation buys beyond exact pruning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IndexProfileResult {
    /// Site-profile name.
    pub profile: String,
    /// Reference embeddings indexed.
    pub n_reference: usize,
    /// Query embeddings searched.
    pub n_queries: usize,
    /// Neighbours retrieved per query.
    pub k: usize,
    /// Inverted lists the IVF backend resolved to.
    pub n_lists: usize,
    /// Lists probed per query.
    pub n_probe: usize,
    /// Fraction of queries whose true (flat) nearest neighbour the IVF
    /// search retrieved at rank 1.
    pub recall_at_1: f64,
    /// Mean fraction of the true k-nearest set the IVF search
    /// retrieved.
    pub recall_at_k: f64,
    /// Fraction of queries where both backends vote the same top-1
    /// label — the decision-level agreement the serving path cares
    /// about.
    pub top1_agreement: f64,
    /// Total distance evaluations the exact flat scan spent (its
    /// pruning lists' centroids included).
    pub flat_distance_evals: u64,
    /// Pruning lists the exact flat store keeps (`1`: every row scored).
    pub flat_lists: usize,
    /// Distance evaluations scoring every row for every query costs:
    /// `n_reference × n_queries`.
    pub exhaustive_distance_evals: u64,
    /// Total distance evaluations the IVF search spent (centroids
    /// included).
    pub ivf_distance_evals: u64,
    /// `ivf_distance_evals / flat_distance_evals`.
    pub evals_fraction: f64,
    /// Wall-clock seconds for the flat batch.
    pub flat_seconds: f64,
    /// Wall-clock seconds for the IVF batch.
    pub ivf_seconds: f64,
    /// `flat_seconds / ivf_seconds`.
    pub speedup: f64,
}

/// Result of the fig_index run: one entry per site profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigIndexResult {
    /// Per-profile comparisons.
    pub profiles: Vec<IndexProfileResult>,
}

/// Compares the IVF backend against the exact flat scan on one set of
/// labeled reference embeddings and queries. Both indexes are built
/// from the same rows in the same order, so vector ids coincide and
/// recall is measured by id.
pub fn run_index_profile(
    name: &str,
    reference: &[Vec<f32>],
    labels: &[usize],
    queries: &[Vec<f32>],
    k: usize,
    params: tlsfp_index::IvfParams,
    threads: usize,
) -> IndexProfileResult {
    use tlsfp_index::{FlatIndex, IvfIndex, VectorIndex};
    assert_eq!(reference.len(), labels.len(), "one label per embedding");
    assert!(!reference.is_empty(), "empty reference");
    let dim = reference[0].len();
    let rows_flat: Vec<f32> = reference.iter().flatten().copied().collect();
    let rows = Rows::new(dim, &rows_flat);

    let flat = FlatIndex::from_rows(Metric::Euclidean, rows, labels);
    let ivf = IvfIndex::build(params, Metric::Euclidean, rows, labels);

    let (flat_results, flat_seconds) = measure::time(|| flat.search_batch(queries, k, threads));
    let (ivf_results, ivf_seconds) = measure::time(|| ivf.search_batch(queries, k, threads));

    let cmp = measure::compare(&flat_results, &ivf_results, |t, got| t.id == got.id);
    let mut recall_k_sum = 0.0f64;
    for (rf, ri) in flat_results.iter().zip(&ivf_results) {
        let truth: std::collections::HashSet<u64> = rf.neighbors.iter().map(|n| n.id).collect();
        let retrieved: std::collections::HashSet<u64> = ri.neighbors.iter().map(|n| n.id).collect();
        if !truth.is_empty() {
            recall_k_sum += truth.intersection(&retrieved).count() as f64 / truth.len() as f64;
        }
    }
    let (flat_evals, ivf_evals) = (cmp.exact_evals, cmp.candidate_evals);
    IndexProfileResult {
        profile: name.to_string(),
        n_reference: reference.len(),
        n_queries: queries.len(),
        k,
        n_lists: ivf.n_lists(),
        n_probe: ivf.n_probe(),
        recall_at_1: cmp.recall_at_1,
        recall_at_k: recall_k_sum / queries.len().max(1) as f64,
        top1_agreement: cmp.top1_agreement,
        flat_distance_evals: flat_evals,
        flat_lists: flat.n_lists(),
        exhaustive_distance_evals: (reference.len() * queries.len()) as u64,
        ivf_distance_evals: ivf_evals,
        evals_fraction: if flat_evals == 0 {
            0.0
        } else {
            ivf_evals as f64 / flat_evals as f64
        },
        flat_seconds,
        ivf_seconds,
        speedup: if ivf_seconds > 0.0 {
            flat_seconds / ivf_seconds
        } else {
            0.0
        },
    }
}

/// Runs the index comparison over all five site profiles: one embedder
/// is provisioned on a wiki-like corpus, then each profile's corpus is
/// embedded with it (the model is class-agnostic) and the IVF backend
/// is measured against the flat scan on those embeddings.
pub fn run_fig_index(scale: &Scale) -> FigIndexResult {
    let classes = scale.open_world_monitored + scale.open_world_unmonitored;
    let train = wiki_dataset(classes, scale.traces_per_class, scale.seed);
    let (train_ref, _) = train.split_per_class(scale.test_fraction, scale.seed);
    let adversary = AdaptiveFingerprinter::provision(&train_ref, &scale.pipeline, scale.seed)
        .expect("provisioning succeeds");

    let profiles = profile_datasets(scale, classes, scale.seed + 20)
        .map(|(name, ds)| {
            let (reference, test) = ds.split_per_class(scale.test_fraction, scale.seed);
            let ref_embs = adversary.embed_all(reference.seqs());
            let query_embs = adversary.embed_all(test.seqs());
            run_index_profile(
                &name,
                &ref_embs,
                reference.labels(),
                &query_embs,
                scale.pipeline.k,
                tlsfp_index::IvfParams::auto(),
                scale.pipeline.threads,
            )
        })
        .collect();
    FigIndexResult { profiles }
}

// ---------------------------------------------------------------------
// fig_embed — batched embedding engine vs the per-query loop.
// ---------------------------------------------------------------------

/// Batch sizes swept by the fig_embed experiment.
pub const FIG_EMBED_BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// Throughput of `embed_batch` at one batch size.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbedBatchPoint {
    /// Traces per `embed_batch` call.
    pub batch_size: usize,
    /// Embedding throughput at this batch size.
    pub traces_per_sec: f64,
    /// `traces_per_sec / loop_traces_per_sec`.
    pub speedup: f64,
}

/// One profile's loop-vs-batch embedding throughput comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EmbedProfileResult {
    /// Site-profile name.
    pub profile: String,
    /// Traces embedded per measured pass.
    pub n_traces: usize,
    /// Mean trace length (timesteps).
    pub mean_steps: f64,
    /// Throughput of the pre-batching per-query path
    /// (`SequenceEmbedder::embed_looped`, one trace at a time).
    pub loop_traces_per_sec: f64,
    /// `embed_batch` throughput at each of
    /// [`FIG_EMBED_BATCH_SIZES`].
    pub batch: Vec<EmbedBatchPoint>,
    /// Largest absolute difference between batched and looped
    /// embeddings (the fast-activation tolerance; ~1e-7 in practice).
    pub max_abs_dev_vs_loop: f64,
    /// Whether `embed_batch` output was bit-identical to per-trace
    /// `embed` calls on every trace (it must be).
    pub batch_matches_embed: bool,
}

/// Result of the fig_embed run: one entry per site profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigEmbedResult {
    /// Embedder architecture measured (the paper-dim network).
    pub embedder: String,
    /// Per-profile throughput comparisons.
    pub profiles: Vec<EmbedProfileResult>,
}

/// Measures loop-vs-batch embedding throughput on one set of traces.
///
/// The loop baseline embeds one trace at a time through the
/// pre-batching reference path; the batch side drives
/// `SequenceEmbedder::embed_batch` in `batch_size` chunks, reusing one
/// scratch so transposed weights amortize across the whole pass. Each
/// side reports its best of `passes` timed passes (after one warm-up),
/// which filters scheduler noise without hiding systematic cost.
pub fn run_embed_profile(
    name: &str,
    seqs: &[tlsfp_nn::seq::SeqInput],
    embedder: &tlsfp_nn::embedding::SequenceEmbedder,
    threads: usize,
    passes: usize,
) -> EmbedProfileResult {
    use tlsfp_nn::embedding::EmbedScratch;
    assert!(!seqs.is_empty(), "empty trace set");
    let n = seqs.len();
    let mean_steps = seqs.iter().map(|s| s.steps()).sum::<usize>() as f64 / n as f64;

    let (_, loop_secs) = measure::best_of(1, passes, || {
        for s in seqs {
            std::hint::black_box(embedder.embed_looped(s));
        }
    });
    let loop_tps = n as f64 / loop_secs;

    let mut scratch = EmbedScratch::with_threads(threads);
    let batch = FIG_EMBED_BATCH_SIZES
        .iter()
        .map(|&bs| {
            let (_, secs) = measure::best_of(1, passes, || {
                for chunk in seqs.chunks(bs) {
                    std::hint::black_box(embedder.embed_batch(chunk, &mut scratch).len());
                }
            });
            let tps = n as f64 / secs;
            EmbedBatchPoint {
                batch_size: bs,
                traces_per_sec: tps,
                speedup: tps / loop_tps,
            }
        })
        .collect();

    // Correctness alongside the timing: batched output must be
    // bit-identical to per-trace `embed` and within the fast-activation
    // tolerance of the looped reference path.
    let rows = embedder.embed_batch(seqs, &mut scratch);
    let mut max_dev = 0.0f32;
    let mut identical = true;
    for (i, s) in seqs.iter().enumerate() {
        identical &= rows.row(i) == embedder.embed(s).as_slice();
        for (a, b) in rows.row(i).iter().zip(embedder.embed_looped(s)) {
            max_dev = max_dev.max((a - b).abs());
        }
    }

    EmbedProfileResult {
        profile: name.to_string(),
        n_traces: n,
        mean_steps,
        loop_traces_per_sec: loop_tps,
        batch,
        max_abs_dev_vs_loop: max_dev as f64,
        batch_matches_embed: identical,
    }
}

/// Runs the embedding-throughput comparison over all five site
/// profiles with the paper-dim embedder (Table I architecture, three
/// IP sequences). Weights are freshly initialized — embedding
/// throughput does not depend on the parameter values, so no training
/// run is spent here.
pub fn run_fig_embed(scale: &Scale) -> FigEmbedResult {
    let embedder = tlsfp_nn::embedding::SequenceEmbedder::new(
        tlsfp_nn::embedding::EmbedderConfig::paper(3),
        scale.seed,
    )
    .expect("paper config is valid");
    let classes = scale.open_world_monitored + scale.open_world_unmonitored;
    let profiles = profile_datasets(scale, classes, scale.seed + 40)
        .map(|(name, ds)| run_embed_profile(&name, ds.seqs(), &embedder, scale.pipeline.threads, 3))
        .collect();
    FigEmbedResult {
        embedder: "paper(3): LSTM-30 -> 4x200 -> 32".to_string(),
        profiles,
    }
}

// ---------------------------------------------------------------------
// fig_shard — the sharded reference store vs the flat monolith.
// ---------------------------------------------------------------------

/// Embedding dimensionality the fig_shard store experiment uses (the
/// paper embedder's output size).
pub const FIG_SHARD_DIM: usize = 32;

/// Reference points per class in the fig_shard synthetic corpus.
pub const FIG_SHARD_REFS_PER_CLASS: usize = 4;

/// Neighbours retrieved per fig_shard query.
pub const FIG_SHARD_K: usize = 5;

/// Queries per fig_shard point (capped so the exact ground-truth scan
/// stays tractable at 13k classes).
pub const FIG_SHARD_MAX_QUERIES: usize = 400;

/// One class-count point of the fig_shard sweep: the auto-sharded
/// store (per-shard IVF) measured against the unsharded flat monolith
/// on identical synthetic embeddings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardScalePoint {
    /// Monitored classes at this point.
    pub n_classes: usize,
    /// Reference points per class.
    pub refs_per_class: usize,
    /// Total reference vectors stored.
    pub n_reference: usize,
    /// Queries measured.
    pub n_queries: usize,
    /// Shards the auto knob (`shards = 0`) resolved to (≈ √classes).
    pub n_shards: usize,
    /// Build-peak proxy of the unsharded store: bytes of embedding
    /// rows materialized in one provisioning batch (the whole corpus).
    pub unsharded_peak_bytes: usize,
    /// Build-peak proxy of the sharded store: bytes of the **largest
    /// shard's** rows — the most any one provisioning batch holds.
    pub sharded_peak_bytes: usize,
    /// `sharded_peak_bytes / unsharded_peak_bytes`.
    pub peak_fraction: f64,
    /// Seconds to build the unsharded flat store.
    pub unsharded_build_seconds: f64,
    /// Seconds to build the sharded store (per-shard IVF quantizers
    /// included).
    pub sharded_build_seconds: f64,
    /// Query throughput of the unsharded flat store.
    pub flat_queries_per_sec: f64,
    /// Query throughput of the sharded store.
    pub sharded_queries_per_sec: f64,
    /// Fraction of queries whose true nearest neighbour (by distance
    /// bits, from the exact flat scan) the sharded store returned at
    /// rank 1.
    pub recall_at_1: f64,
    /// Fraction of queries where both stores vote the same top-1 label
    /// through the kNN rank path.
    pub top1_agreement: f64,
    /// Total distance evaluations the flat store spent on the batch.
    pub flat_distance_evals: u64,
    /// Total distance evaluations the sharded store spent (per-shard
    /// centroids included).
    pub sharded_distance_evals: u64,
}

/// Result of the fig_shard run: one entry per swept class count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigShardResult {
    /// Per-class-count comparisons, in sweep order.
    pub points: Vec<ShardScalePoint>,
}

/// Deterministic synthetic reference embeddings for the store-layer
/// figures: `n_classes` clusters of [`FIG_SHARD_REFS_PER_CLASS`]
/// points in [`FIG_SHARD_DIM`] dims, plus up to
/// [`FIG_SHARD_MAX_QUERIES`] held-out same-cluster queries. No model is
/// trained, so the sweeps reach class counts far beyond what trace
/// generation could.
struct SyntheticStore {
    n_classes: usize,
    data: Vec<f32>,
    labels: Vec<usize>,
    queries: Vec<Vec<f32>>,
}

impl SyntheticStore {
    fn generate(n_classes: usize, seed: u64) -> Self {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let (dim, per_class) = (FIG_SHARD_DIM, FIG_SHARD_REFS_PER_CLASS);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n_classes * per_class * dim);
        let mut labels = Vec::with_capacity(n_classes * per_class);
        let mut centers = Vec::with_capacity(n_classes);
        for c in 0..n_classes {
            let center: Vec<f32> = (0..dim).map(|_| rng.random_range(-10.0f32..10.0)).collect();
            for _ in 0..per_class {
                for &v in &center {
                    data.push(v + rng.random_range(-0.35f32..0.35));
                }
                labels.push(c);
            }
            centers.push(center);
        }
        let queries = (0..n_classes.min(FIG_SHARD_MAX_QUERIES))
            .map(|i| {
                let center = &centers[i % n_classes];
                center
                    .iter()
                    .map(|&v| v + rng.random_range(-0.35f32..0.35))
                    .collect()
            })
            .collect();
        SyntheticStore {
            n_classes,
            data,
            labels,
            queries,
        }
    }

    /// A `shards`-shard store (`0` = auto) of these rows on `config`.
    fn build(&self, config: &IndexConfig, shards: usize) -> ShardedStore {
        let rows = Rows::new(FIG_SHARD_DIM, &self.data);
        ShardedStore::build(
            config,
            Metric::Euclidean,
            rows,
            &self.labels,
            self.n_classes,
            shards,
        )
    }
}

/// One store-scaling measurement: the exact flat monolith and a
/// candidate store built from the same synthetic rows and served the
/// same query batch.
struct StorePoint {
    n_reference: usize,
    n_queries: usize,
    flat_build_seconds: f64,
    candidate_build_seconds: f64,
    flat_queries_per_sec: f64,
    candidate_queries_per_sec: f64,
    /// Recall@1 matches by distance bits: the stores' ids differ, but
    /// every backend scores its final candidates exactly on the raw
    /// row, so a recovered true neighbour has the exact scan's bits.
    cmp: measure::Comparison,
    candidate: ShardedStore,
}

/// Builds the unsharded flat monolith and the auto-sharded `candidate`
/// store (`shards = 0`) from one synthetic corpus, times both builds
/// and the best of two batch passes per store (after one warm-up), and
/// compares the candidate's results against the monolith's.
fn run_store_point(
    candidate: &IndexConfig,
    n_classes: usize,
    threads: usize,
    seed: u64,
) -> StorePoint {
    let corpus = SyntheticStore::generate(n_classes, seed);
    let queries = &corpus.queries;
    let (flat, flat_build_seconds) = measure::time(|| corpus.build(&IndexConfig::Flat, 1));
    let (store, candidate_build_seconds) = measure::time(|| corpus.build(candidate, 0));
    let serve = |store: &ShardedStore| {
        measure::best_of(1, 2, || {
            store.search_batch_concurrent(queries, FIG_SHARD_K, threads)
        })
    };
    let (flat_results, flat_secs) = serve(&flat);
    let (candidate_results, candidate_secs) = serve(&store);
    let nq = queries.len().max(1) as f64;
    StorePoint {
        n_reference: flat.len(),
        n_queries: queries.len(),
        flat_build_seconds,
        candidate_build_seconds,
        flat_queries_per_sec: nq / flat_secs.max(1e-12),
        candidate_queries_per_sec: nq / candidate_secs.max(1e-12),
        cmp: measure::compare(&flat_results, &candidate_results, |t, got| {
            t.dist.to_bits() == got.dist.to_bits()
        }),
        candidate: store,
    }
}

/// Measures one class count: the auto-sharded store with per-shard IVF
/// at auto parameters against the unsharded flat monolith — build
/// peak-memory proxies, query throughput, distance evaluations and
/// recall@1.
pub fn run_shard_point(n_classes: usize, threads: usize, seed: u64) -> ShardScalePoint {
    let p = run_store_point(&IndexConfig::ivf_default(), n_classes, threads, seed);
    let sharded = &p.candidate;
    let largest_shard = (0..sharded.n_shards())
        .map(|s| sharded.shard_len(s))
        .max()
        .unwrap_or(0);
    let unsharded_peak_bytes = p.n_reference * FIG_SHARD_DIM * std::mem::size_of::<f32>();
    let sharded_peak_bytes = largest_shard * FIG_SHARD_DIM * std::mem::size_of::<f32>();
    ShardScalePoint {
        n_classes,
        refs_per_class: FIG_SHARD_REFS_PER_CLASS,
        n_reference: p.n_reference,
        n_queries: p.n_queries,
        n_shards: sharded.n_shards(),
        unsharded_peak_bytes,
        sharded_peak_bytes,
        peak_fraction: sharded_peak_bytes as f64 / unsharded_peak_bytes.max(1) as f64,
        unsharded_build_seconds: p.flat_build_seconds,
        sharded_build_seconds: p.candidate_build_seconds,
        flat_queries_per_sec: p.flat_queries_per_sec,
        sharded_queries_per_sec: p.candidate_queries_per_sec,
        recall_at_1: p.cmp.recall_at_1,
        top1_agreement: p.cmp.top1_agreement,
        flat_distance_evals: p.cmp.exact_evals,
        sharded_distance_evals: p.cmp.candidate_evals,
    }
}

/// Runs the store-scaling sweep over `Scale::shard_sweep` — the
/// artifact trail for the 13k-class claim: peak provisioning memory
/// bounded by the largest shard, query cost dropping with per-shard
/// IVF pruning, recall@1 held against the exact monolith.
pub fn run_fig_shard(scale: &Scale) -> FigShardResult {
    let points = scale
        .shard_sweep
        .iter()
        .map(|&n| run_shard_point(n, scale.pipeline.threads, scale.seed + 60))
        .collect();
    FigShardResult { points }
}

// ---------------------------------------------------------------------
// fig_quant — product-quantized store vs full-precision rows.
// ---------------------------------------------------------------------

/// One class-count point of the fig_quant sweep: the auto-sharded
/// PQ-backed store (per-shard codebooks, ADC scan, exact re-rank)
/// measured against the exact flat monolith on identical synthetic
/// embeddings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantScalePoint {
    /// Monitored classes at this point.
    pub n_classes: usize,
    /// Reference points per class.
    pub refs_per_class: usize,
    /// Total reference vectors stored.
    pub n_reference: usize,
    /// Queries measured.
    pub n_queries: usize,
    /// Shards the auto knob (`shards = 0`) resolved to (≈ √classes).
    pub n_shards: usize,
    /// Sub-quantizers per embedding — also the code bytes each stored
    /// vector occupies in the scan working set.
    pub m: usize,
    /// ADC candidates re-ranked exactly per query (per shard).
    pub rerank: usize,
    /// Bytes per embedding in a full-precision row (`dim × 4`).
    pub full_bytes_per_embedding: usize,
    /// Bytes per embedding in the PQ scan working set (`m` codes).
    pub code_bytes_per_embedding: usize,
    /// `full_bytes_per_embedding / code_bytes_per_embedding` — the
    /// scan-memory compression the codes buy. The retained re-rank
    /// rows are cold storage the scan never touches.
    pub memory_reduction: f64,
    /// Seconds to build the exact flat monolith.
    pub flat_build_seconds: f64,
    /// Seconds to build the PQ store (per-shard codebook training
    /// included — the expensive step).
    pub pq_build_seconds: f64,
    /// Query throughput of the exact flat monolith.
    pub flat_queries_per_sec: f64,
    /// Query throughput of the PQ store.
    pub pq_queries_per_sec: f64,
    /// Fraction of queries whose true nearest neighbour (by distance
    /// bits, from the exact flat scan) the PQ store returned at rank 1
    /// after re-rank.
    pub recall_at_1: f64,
    /// Fraction of queries where both stores vote the same top-1 label
    /// through the kNN rank path.
    pub top1_agreement: f64,
    /// Total distance evaluations the flat store spent on the batch.
    pub flat_distance_evals: u64,
    /// Total distance evaluations the PQ store spent (per-query lookup
    /// tables and exact re-ranks; the ADC code scan itself is
    /// table adds, not metric evaluations).
    pub pq_distance_evals: u64,
}

/// Result of the fig_quant run: one entry per swept class count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigQuantResult {
    /// Per-class-count comparisons, in sweep order.
    pub points: Vec<QuantScalePoint>,
}

/// Measures one class count: the auto-sharded PQ store (per-shard
/// sub-quantizer codebooks at auto parameters) against the exact flat
/// monolith — bytes/embedding, build time, query throughput and
/// recall@1 after re-rank.
pub fn run_quant_point(n_classes: usize, threads: usize, seed: u64) -> QuantScalePoint {
    let params = PqParams::auto();
    let p = run_store_point(&IndexConfig::Pq(params), n_classes, threads, seed);
    let m = params.resolved_m(FIG_SHARD_DIM);
    let full_bytes = FIG_SHARD_DIM * std::mem::size_of::<f32>();
    QuantScalePoint {
        n_classes,
        refs_per_class: FIG_SHARD_REFS_PER_CLASS,
        n_reference: p.n_reference,
        n_queries: p.n_queries,
        n_shards: p.candidate.n_shards(),
        m,
        rerank: params.resolved_rerank(),
        full_bytes_per_embedding: full_bytes,
        code_bytes_per_embedding: m,
        memory_reduction: full_bytes as f64 / m.max(1) as f64,
        flat_build_seconds: p.flat_build_seconds,
        pq_build_seconds: p.candidate_build_seconds,
        flat_queries_per_sec: p.flat_queries_per_sec,
        pq_queries_per_sec: p.candidate_queries_per_sec,
        recall_at_1: p.cmp.recall_at_1,
        top1_agreement: p.cmp.top1_agreement,
        flat_distance_evals: p.cmp.exact_evals,
        pq_distance_evals: p.cmp.candidate_evals,
    }
}

/// Runs the quantization sweep over `Scale::quant_sweep` — the
/// artifact trail for the 10⁵-class claim: bytes/embedding cut by the
/// code compression, recall@1 after exact re-rank held against the
/// exact monolith, queries/sec reported per point.
pub fn run_fig_quant(scale: &Scale) -> FigQuantResult {
    let points = scale
        .quant_sweep
        .iter()
        .map(|&n| run_quant_point(n, scale.pipeline.threads, scale.seed + 80))
        .collect();
    FigQuantResult { points }
}

// ---------------------------------------------------------------------
// fig_concurrent — shard-parallel query throughput vs worker count.
// ---------------------------------------------------------------------

/// Worker counts swept by fig_concurrent.
pub const FIG_CONCURRENT_WORKERS: [usize; 4] = [1, 2, 4, 8];

/// Shard counts swept by fig_concurrent.
pub const FIG_CONCURRENT_SHARDS: [usize; 2] = [4, 16];

/// One `(shards, workers)` cell of the fig_concurrent sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConcurrentPoint {
    /// Shards the store was partitioned into.
    pub n_shards: usize,
    /// Worker threads given to `search_batch_concurrent`.
    pub workers: usize,
    /// Best-of-3 batch query throughput.
    pub queries_per_sec: f64,
    /// Throughput relative to the 1-worker cell at the same shard
    /// count. On a single-core host this hovers near 1.0; the
    /// determinism columns must hold regardless.
    pub speedup_vs_1: f64,
    /// Top-1 decisions (through the kNN rank path) identical to the
    /// 1-worker run.
    pub decisions_identical: bool,
    /// Every neighbor list, distance bit and eval count identical to
    /// the 1-worker run.
    pub score_bits_identical: bool,
}

/// Result of the fig_concurrent run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigConcurrentResult {
    /// Monitored classes in the synthetic store.
    pub n_classes: usize,
    /// Reference points per class.
    pub refs_per_class: usize,
    /// Total reference vectors stored.
    pub n_reference: usize,
    /// Queries in the timed batch.
    pub n_queries: usize,
    /// Neighbours retrieved per query.
    pub k: usize,
    /// Cores the host reported — scaling claims are only meaningful
    /// when this is at least the worker count.
    pub available_cores: usize,
    /// One entry per `(shards, workers)` cell, shard-major.
    pub points: Vec<ConcurrentPoint>,
}

/// Runs the concurrent-serving sweep: a flat-backend sharded store at
/// each shard count, queried through `search_batch_concurrent` at each
/// worker count. The flat backend keeps per-query work constant, so
/// the sweep isolates fan-out overhead and lock contention; every cell
/// is checked bit-identical to its 1-worker column.
pub fn run_fig_concurrent(scale: &Scale) -> FigConcurrentResult {
    let n_classes = scale.concurrent_classes;
    let corpus = SyntheticStore::generate(n_classes, scale.seed + 70);
    let queries = &corpus.queries;

    let mut points = Vec::new();
    for &shards in &FIG_CONCURRENT_SHARDS {
        let store = corpus.build(&IndexConfig::Flat, shards);
        let baseline = store.search_batch_concurrent(queries, FIG_SHARD_K, 1);
        let baseline_top = measure::top1_labels(&baseline);
        let mut qps_at_1 = 0.0;
        for &workers in &FIG_CONCURRENT_WORKERS {
            let (results, best) = measure::best_of(1, 3, || {
                store.search_batch_concurrent(queries, FIG_SHARD_K, workers)
            });
            let top = measure::top1_labels(&results);
            let queries_per_sec = queries.len() as f64 / best.max(1e-12);
            if workers == 1 {
                qps_at_1 = queries_per_sec;
            }
            points.push(ConcurrentPoint {
                n_shards: shards,
                workers,
                queries_per_sec,
                speedup_vs_1: queries_per_sec / qps_at_1.max(1e-12),
                decisions_identical: top == baseline_top,
                score_bits_identical: results == baseline,
            });
        }
    }
    FigConcurrentResult {
        n_classes,
        refs_per_class: FIG_SHARD_REFS_PER_CLASS,
        n_reference: n_classes * FIG_SHARD_REFS_PER_CLASS,
        n_queries: queries.len(),
        k: FIG_SHARD_K,
        available_cores: measure::available_cores(),
        points,
    }
}

// ---------------------------------------------------------------------
// fig_telemetry — overhead and stage latency of the observability
// layer on the full serving path.
// ---------------------------------------------------------------------

/// Traces per serving batch in the fig_telemetry sweep.
pub const FIG_TELEMETRY_BATCH: usize = 64;

/// Timed off/on chunk pairs. The two modes run back-to-back within
/// each pair (which mode leads alternates pair to pair), so both
/// members of a pair share the same frequency-scaling and scheduler
/// environment, and the overhead ratio is the **median of the
/// per-pair on/off time ratios** — load bursts and thermal drift hit
/// whole pairs and cancel out of the ratio instead of biasing it.
pub const FIG_TELEMETRY_PAIRS: usize = 33;

/// Shards the fig_telemetry store serves from (multi-shard, so the
/// fan-out/scan/merge spans are exercised).
pub const FIG_TELEMETRY_SHARDS: usize = 4;

/// Minimum traces served per mode across the timed chunk pairs. Each
/// chunk sweeps the test split enough times that the pair total
/// reaches this floor, so per-chunk timer cost is negligible while
/// chunks stay short (single-digit milliseconds) — short enough that
/// frequency drift cannot move within one pair. A fixed trace-count
/// target keeps the recorded span counts deterministic.
pub const FIG_TELEMETRY_MIN_TIMED_TRACES: usize = 4096;

/// One stage's latency percentiles from the
/// `tlsfp_stage_duration_ns{stage=...}` histogram. Buckets are log₂,
/// so each percentile reports the upper edge of its nearest-rank
/// bucket — within 2x of the true latency, which is the resolution the
/// lock-free fixed-bucket design buys its near-zero recording cost
/// with.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageLatency {
    /// Stage name (embed / fanout / shard_scan / merge / decide /
    /// calibrate).
    pub stage: String,
    /// Spans recorded during the telemetry-on serving passes.
    pub count: u64,
    /// Median span duration (ns, bucket upper edge).
    pub p50_ns: f64,
    /// 95th-percentile span duration (ns, bucket upper edge).
    pub p95_ns: f64,
    /// 99th-percentile span duration (ns, bucket upper edge).
    pub p99_ns: f64,
}

/// Result of the fig_telemetry run: the zero-perturbation contract
/// (bit-identical outputs) and the overhead ratio of recording, plus
/// the per-stage latency profile the registry collected.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigTelemetryResult {
    /// Monitored classes in the synthetic corpus.
    pub n_classes: usize,
    /// Reference traces embedded into the store.
    pub n_reference: usize,
    /// Test traces served per pass.
    pub n_queries: usize,
    /// Traces per serving batch.
    pub batch_size: usize,
    /// Shards the store served from.
    pub n_shards: usize,
    /// Cores the host reported.
    pub available_cores: usize,
    /// Median timed-chunk seconds with recording disabled (the two
    /// modes run back-to-back in [`FIG_TELEMETRY_PAIRS`] pairs whose
    /// totals cover at least [`FIG_TELEMETRY_MIN_TIMED_TRACES`]
    /// traces per mode).
    pub off_seconds: f64,
    /// Median timed-chunk seconds with recording enabled.
    pub on_seconds: f64,
    /// Median of the per-pair `on / off` time ratios (robust to load
    /// bursts and frequency drift, which hit both members of a pair
    /// equally) — the acceptance gate is ≤ 1.02.
    pub overhead_ratio: f64,
    /// Top-1 labels identical between the on and off passes.
    pub decisions_identical: bool,
    /// Outlier-score bits identical between the on and off passes.
    pub score_bits_identical: bool,
    /// Per-stage latency percentiles recorded while enabled.
    pub stages: Vec<StageLatency>,
}

/// Measures the observability layer on the full pipeline serving path:
/// corpus traces → batched embedding → sharded fan-out → merge → kNN
/// rank, served in [`FIG_TELEMETRY_BATCH`]-trace batches with
/// recording off, then on. Serving cost does not depend on the weight
/// values, so the embedder is freshly initialized — no training run is
/// spent here. Leaves telemetry enabled (the process default) on
/// return.
pub fn run_fig_telemetry(scale: &Scale) -> FigTelemetryResult {
    let classes = scale.open_world_monitored + scale.open_world_unmonitored;
    let spec = CorpusSpec::wiki_like(classes, scale.traces_per_class);
    let (_, ds) = Dataset::generate(&spec, &TensorConfig::wiki(), scale.seed + 90)
        .expect("valid synthetic corpus");
    let (reference, test) = ds.split_per_class(scale.test_fraction, scale.seed);

    let embedder =
        tlsfp_nn::embedding::SequenceEmbedder::new(scale.pipeline.embedder.clone(), scale.seed)
            .expect("pipeline embedder config is valid");
    let mut fp =
        AdaptiveFingerprinter::from_trained(embedder, scale.pipeline.k, scale.pipeline.threads)
            .expect("pipeline k is positive");
    fp.set_shards(FIG_TELEMETRY_SHARDS);
    fp.set_reference(&reference).expect("reference fits");

    // The test set sliced into fixed serving batches.
    let mut batches: Vec<Dataset> = Vec::new();
    let mut current = Dataset::new(ds.n_classes(), ds.channels(), ds.steps());
    for (seq, &label) in test.seqs().iter().zip(test.labels()) {
        if current.len() == FIG_TELEMETRY_BATCH {
            batches.push(std::mem::replace(
                &mut current,
                Dataset::new(ds.n_classes(), ds.channels(), ds.steps()),
            ));
        }
        current.push(label, seq.clone()).expect("label in range");
    }
    if !current.is_empty() {
        batches.push(current);
    }

    let serve = |fp: &AdaptiveFingerprinter| -> Vec<(Option<usize>, u32)> {
        batches
            .iter()
            .flat_map(|b| fp.fingerprint_with_score_all(b))
            .map(|sp| (sp.prediction.top(), sp.score.to_bits()))
            .collect()
    };
    let chunk_rounds = FIG_TELEMETRY_MIN_TIMED_TRACES
        .div_ceil(FIG_TELEMETRY_PAIRS.max(1) * test.len().max(1))
        .max(1);

    tlsfp_telemetry::set_enabled(false);
    let off_outputs = serve(&fp); // doubles as the warm-up pass
    tlsfp_telemetry::set_enabled(true);
    tlsfp_telemetry::reset();
    let on_outputs = serve(&fp);

    let timed = measure::paired(FIG_TELEMETRY_PAIRS, tlsfp_telemetry::set_enabled, || {
        for _ in 0..chunk_rounds {
            for b in &batches {
                std::hint::black_box(fp.fingerprint_with_score_all(b).len());
            }
        }
    });

    // Stage percentiles over everything the enabled passes recorded.
    let snap = tlsfp_telemetry::global().snapshot();
    let stages = [
        "embed",
        "fanout",
        "shard_scan",
        "merge",
        "decide",
        "calibrate",
    ]
    .iter()
    .filter_map(|&stage| {
        let h = snap.histogram(tlsfp_telemetry::STAGE_HISTOGRAM, &[("stage", stage)])?;
        (h.count > 0).then(|| StageLatency {
            stage: stage.to_string(),
            count: h.count,
            p50_ns: h.percentile(50.0),
            p95_ns: h.percentile(95.0),
            p99_ns: h.percentile(99.0),
        })
    })
    .collect();

    FigTelemetryResult {
        n_classes: classes,
        n_reference: reference.len(),
        n_queries: test.len(),
        batch_size: FIG_TELEMETRY_BATCH,
        n_shards: FIG_TELEMETRY_SHARDS,
        available_cores: measure::available_cores(),
        off_seconds: timed.off_seconds,
        on_seconds: timed.on_seconds,
        overhead_ratio: timed.ratio,
        decisions_identical: off_outputs.iter().zip(&on_outputs).all(|(a, b)| a.0 == b.0),
        score_bits_identical: off_outputs == on_outputs,
        stages,
    }
}

// ---------------------------------------------------------------------
// fig_batchscan — query-blocked distance kernels vs the per-query
// scan, on every index backend.
// ---------------------------------------------------------------------

/// Batch sizes swept by the fig_batchscan experiment.
pub const FIG_BATCHSCAN_BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

/// Backend names swept by fig_batchscan, in sweep order.
pub const FIG_BATCHSCAN_BACKENDS: [&str; 3] = ["flat", "ivf", "pq"];

/// One `(backend, store size, batch size)` cell of the fig_batchscan
/// sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchScanPoint {
    /// Index backend the store serves from.
    pub backend: String,
    /// Monitored classes in the synthetic store.
    pub n_classes: usize,
    /// Total reference vectors stored.
    pub n_reference: usize,
    /// Queries served per measured pass.
    pub n_queries: usize,
    /// Queries per `search_batch_concurrent` call.
    pub batch_size: usize,
    /// Throughput of single queries (`search_concurrent`, each a block
    /// of one through the same kernel) — the unamortized baseline.
    pub per_query_qps: f64,
    /// Throughput of the blocked batch path at auto workers.
    pub batched_qps: f64,
    /// Throughput of the blocked batch path pinned to one worker —
    /// isolates the cache-blocking gain from thread-level parallelism.
    pub blocked_1worker_qps: f64,
    /// `batched_qps / per_query_qps`.
    pub batched_speedup: f64,
    /// `blocked_1worker_qps / per_query_qps`.
    pub blocked_1worker_speedup: f64,
    /// Top-1 decisions (through the kNN rank path) identical to single
    /// queries.
    pub decisions_identical: bool,
    /// Every neighbor list, distance bit and eval count identical to
    /// single queries.
    pub score_bits_identical: bool,
}

/// Result of the fig_batchscan run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigBatchScanResult {
    /// Neighbours retrieved per query.
    pub k: usize,
    /// Reference points per class.
    pub refs_per_class: usize,
    /// Cores the host reported — throughput ratios at auto workers are
    /// only meaningful relative to this.
    pub available_cores: usize,
    /// One entry per `(store size, backend, batch size)` cell.
    pub points: Vec<BatchScanPoint>,
}

/// Measures one backend at one store size: a single-shard store (so
/// the batch front door's one task per query block runs the backend's
/// blocked kernel over the whole store) served as single queries
/// (blocks of one) and through `search_batch_concurrent` in
/// `batch_size` chunks at auto workers and at one worker. Every
/// batched pass is checked bit-identical to the single queries.
pub fn run_batchscan_backend(
    backend: &str,
    config: &IndexConfig,
    n_classes: usize,
    seed: u64,
) -> Vec<BatchScanPoint> {
    let corpus = SyntheticStore::generate(n_classes, seed);
    let queries = &corpus.queries;
    let store = corpus.build(config, 1);

    // Every timed pass's own output feeds the identity flags.
    let (serial, serial_secs) = measure::best_of(1, 3, || {
        queries
            .iter()
            .map(|q| store.search_concurrent(q, FIG_SHARD_K, 1))
            .collect::<Vec<_>>()
    });
    let serial_top = measure::top1_labels(&serial);
    let nq = queries.len().max(1) as f64;
    let per_query_qps = nq / serial_secs.max(1e-12);

    FIG_BATCHSCAN_BATCH_SIZES
        .iter()
        .map(|&bs| {
            let run_chunked = |workers: usize| {
                measure::best_of(1, 3, || {
                    queries
                        .chunks(bs)
                        .flat_map(|c| store.search_batch_concurrent(c, FIG_SHARD_K, workers))
                        .collect::<Vec<_>>()
                })
            };
            let (batched, batched_secs) = run_chunked(0);
            let (blocked_1worker, blocked_1worker_secs) = run_chunked(1);
            let batched_top = measure::top1_labels(&batched);
            let batched_qps = nq / batched_secs.max(1e-12);
            let blocked_1worker_qps = nq / blocked_1worker_secs.max(1e-12);
            BatchScanPoint {
                backend: backend.to_string(),
                n_classes,
                n_reference: store.len(),
                n_queries: queries.len(),
                batch_size: bs,
                per_query_qps,
                batched_qps,
                blocked_1worker_qps,
                batched_speedup: batched_qps / per_query_qps.max(1e-12),
                blocked_1worker_speedup: blocked_1worker_qps / per_query_qps.max(1e-12),
                decisions_identical: batched_top == serial_top,
                score_bits_identical: batched == serial && blocked_1worker == serial,
            }
        })
        .collect()
}

/// Runs the blocked-kernel sweep over `Scale::batchscan_sweep` ×
/// [`FIG_BATCHSCAN_BACKENDS`] × [`FIG_BATCHSCAN_BATCH_SIZES`] — the
/// artifact trail for the batch-serving claim: one store scan
/// amortized across the whole query block on every backend, with
/// bit-identity to single queries checked per cell.
pub fn run_fig_batchscan(scale: &Scale) -> FigBatchScanResult {
    let mut points = Vec::new();
    for &n_classes in &scale.batchscan_sweep {
        let configs = [
            ("flat", IndexConfig::Flat),
            ("ivf", IndexConfig::ivf_default()),
            ("pq", IndexConfig::Pq(PqParams::auto())),
        ];
        for (name, config) in &configs {
            points.extend(run_batchscan_backend(
                name,
                config,
                n_classes,
                scale.seed + 100,
            ));
        }
    }
    FigBatchScanResult {
        k: FIG_SHARD_K,
        refs_per_class: FIG_SHARD_REFS_PER_CLASS,
        available_cores: measure::available_cores(),
        points,
    }
}

// ---------------------------------------------------------------------
// fig_early — streaming early classification: accuracy and TPR/FPR vs
// fraction of the trace consumed, plus time-to-decision under the
// calibrated early-stop policy.
// ---------------------------------------------------------------------

/// Chunks the early-stop run feeds between policy checks: each session
/// is fed in `records / FIG_EARLY_CHECKPOINTS` record chunks and the
/// policy is consulted after every chunk.
pub const FIG_EARLY_CHECKPOINTS: usize = 16;

/// Parameters for one profile's streaming early-classification run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyParams {
    /// Classes the adversary monitors (the rest play the open world).
    pub n_monitored: usize,
    /// Per-class monitored loads held out to calibrate the radii.
    pub calib_per_class: usize,
    /// Per-class monitored loads held out for the prefix evaluation.
    pub eval_per_class: usize,
    /// Percentile of held-out scores used for the per-class radii.
    pub calibration_percentile: f64,
    /// Extra slack the early-stop policy subtracts from each radius.
    pub margin: f32,
    /// Minimum prefix length (tensor steps) before the policy accepts.
    pub min_steps: usize,
    /// Trace fractions the prefix sweep decides at (1.0 is always
    /// appended as the full-trace anchor).
    pub fractions: Vec<f64>,
    /// Pipeline preset.
    pub pipeline: PipelineConfig,
    /// Seed for the split, provisioning and calibration.
    pub seed: u64,
}

impl EarlyParams {
    /// The early-classification parameters a [`Scale`] implies.
    pub fn from_scale(scale: &Scale) -> Self {
        let holdout =
            ((scale.traces_per_class as f64 * scale.test_fraction / 2.0).round() as usize).max(2);
        EarlyParams {
            n_monitored: scale.open_world_monitored,
            calib_per_class: holdout,
            eval_per_class: holdout,
            calibration_percentile: scale.calibration_percentile,
            margin: 0.0,
            min_steps: 2,
            fractions: scale.early_fractions.clone(),
            pipeline: scale.pipeline.clone(),
            seed: scale.seed,
        }
    }
}

/// One fraction of the prefix sweep: how well decisions made after
/// consuming this share of each trace's records hold up.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyFractionPoint {
    /// Share of each trace's records consumed before deciding.
    pub fraction: f64,
    /// Top-1 accuracy over the monitored evaluation traces.
    pub accuracy: f64,
    /// Monitored traces accepted by the calibrated radii (TPR).
    pub tpr: f64,
    /// Unmonitored traces accepted by the calibrated radii (FPR).
    pub fpr: f64,
}

/// One profile's streaming early-classification result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EarlyProfileResult {
    /// Site-profile name.
    pub profile: String,
    /// Monitored class count.
    pub n_monitored: usize,
    /// Unmonitored class count.
    pub n_unmonitored: usize,
    /// Monitored evaluation traces streamed.
    pub n_eval: usize,
    /// Unmonitored traces streamed (the FPR denominator).
    pub n_open: usize,
    /// The prefix sweep, in ascending fraction order (last is 1.0).
    pub points: Vec<EarlyFractionPoint>,
    /// Top-1 accuracy at the full trace (the fraction-1.0 anchor).
    pub full_accuracy: f64,
    /// Top-1 accuracy of the early-stop run's committed decisions.
    pub early_accuracy: f64,
    /// Share of evaluation sessions the policy latched before the
    /// trace ended.
    pub early_stop_rate: f64,
    /// Mean share of the trace's records consumed at decision time
    /// (1.0 for sessions that never latched).
    pub mean_decision_fraction: f64,
    /// Mean simulated time-to-decision: capture time from the first
    /// record to the record that latched (full duration when the
    /// session never latched), in microseconds of trace time.
    pub mean_time_to_decision_us: f64,
    /// Mean full-trace duration, in microseconds of trace time.
    pub mean_trace_duration_us: f64,
    /// `mean_trace_duration_us / mean_time_to_decision_us` — how much
    /// sooner the early-stop decision lands than waiting for the full
    /// trace.
    pub trace_time_speedup: f64,
    /// Compute seconds to batch-classify every evaluation trace.
    pub full_latency_seconds: f64,
    /// Compute seconds for the early-stop streaming run (feeding,
    /// checkpoint decisions, early exit).
    pub early_latency_seconds: f64,
    /// Every fraction-1.0 streaming decision was bit-identical
    /// (ranked labels, votes, score bits) to the batch path.
    pub streaming_matches_batch: bool,
}

/// Result of the fig_early run: one entry per site profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigEarlyResult {
    /// Per-profile streaming early-classification evaluations.
    pub profiles: Vec<EarlyProfileResult>,
}

/// Runs the streaming protocol on one profile's raw captures: partition
/// classes open-world style, provision on monitored training loads,
/// calibrate per-class radii on one hold-out slice, then stream every
/// evaluation trace — deciding at each prefix fraction (no policy) and
/// once more under the calibrated [`tlsfp_core::EarlyStopPolicy`],
/// which stops feeding at its first accepted prefix.
pub fn run_early_profile(
    name: &str,
    traces: &[LabeledCapture],
    params: &EarlyParams,
) -> EarlyProfileResult {
    use tlsfp_core::EarlyStopPolicy;
    use tlsfp_net::capture::Capture;

    let tensor = TensorConfig::wiki();
    let n_total = traces.iter().map(|lc| lc.page + 1).max().unwrap_or(0);
    let split = open_world_split(n_total, params.n_monitored, params.seed).expect("valid split");
    // Relabel monitored classes by their position in the split, exactly
    // like `Dataset::subset_classes`.
    let mut relabel: Vec<Option<usize>> = vec![None; n_total];
    for (new, &old) in split.monitored.iter().enumerate() {
        relabel[old] = Some(new);
    }
    let m = split.monitored.len();
    let mut per_class: Vec<Vec<&Capture>> = vec![Vec::new(); m];
    let mut open_captures: Vec<&Capture> = Vec::new();
    for lc in traces {
        match relabel[lc.page] {
            Some(class) => per_class[class].push(&lc.capture),
            None => open_captures.push(&lc.capture),
        }
    }

    // Per class: train on the front of the visit order, calibrate and
    // evaluate on the tail — deterministic, no shared samples.
    let mut train = Dataset::new(m, tensor.channels, tensor.max_steps);
    let mut calib = Dataset::new(m, tensor.channels, tensor.max_steps);
    let mut eval: Vec<(usize, &Capture)> = Vec::new();
    for (class, caps) in per_class.iter().enumerate() {
        let holdout = (params.calib_per_class + params.eval_per_class).min(caps.len() - 1);
        let calib_n = params.calib_per_class.min(holdout.saturating_sub(1));
        let (train_caps, rest) = caps.split_at(caps.len() - holdout);
        let (calib_caps, eval_caps) = rest.split_at(calib_n);
        for &c in train_caps {
            train
                .push(class, tensor.tensorize(&IpSequences::extract(c)))
                .expect("label in range");
        }
        for &c in calib_caps {
            calib
                .push(class, tensor.tensorize(&IpSequences::extract(c)))
                .expect("label in range");
        }
        eval.extend(eval_caps.iter().map(|&c| (class, c)));
    }

    let adversary = AdaptiveFingerprinter::provision(&train, &params.pipeline, params.seed)
        .expect("provisioning succeeds");
    let radii = adversary
        .calibrate_rejection_radii(&calib, params.calibration_percentile, 2)
        .expect("non-empty calibration set");
    let policy = EarlyStopPolicy::new(radii.clone(), params.margin, params.min_steps);

    let mut fractions = params.fractions.clone();
    fractions.retain(|f| (0.0..1.0).contains(f));
    fractions.push(1.0);
    fractions.sort_by(f64::total_cmp);
    fractions.dedup();

    // Batch anchors (and the full-trace latency measurement).
    let (batch, full_latency_seconds) = measure::time(|| {
        eval.iter()
            .map(|(_, c)| {
                adversary.fingerprint_with_score(&tensor.tensorize(&IpSequences::extract(c)))
            })
            .collect::<Vec<_>>()
    });

    // The prefix sweep: stream each trace once, deciding (without a
    // policy) at every fraction boundary. Monitored traces feed the
    // accuracy and TPR columns; unmonitored traces feed the FPR column.
    let mut correct = vec![0usize; fractions.len()];
    let mut accepted_mon = vec![0usize; fractions.len()];
    let mut accepted_open = vec![0usize; fractions.len()];
    let mut matches_batch = true;
    let mut sweep = |capture: &Capture,
                     label: Option<usize>,
                     batch_anchor: Option<&tlsfp_core::knn::ScoredPrediction>| {
        let mut session = adversary.start_session(tensor, capture.client);
        let mut fed = 0usize;
        for (i, &f) in fractions.iter().enumerate() {
            let upto =
                ((capture.packets.len() as f64 * f).ceil() as usize).min(capture.packets.len());
            adversary.feed_chunk(&mut session, &capture.packets[fed..upto]);
            fed = upto;
            let d = adversary.decide_now(&mut session, None);
            let top = d.scored.prediction.top();
            if let Some(label) = label {
                if top == Some(label) {
                    correct[i] += 1;
                }
                if radii.accepts(d.scored.score, top, 0.0) {
                    accepted_mon[i] += 1;
                }
            } else if radii.accepts(d.scored.score, top, 0.0) {
                accepted_open[i] += 1;
            }
            if f >= 1.0 {
                if let Some(anchor) = batch_anchor {
                    matches_batch &= &d.scored == anchor;
                }
            }
        }
    };
    for ((label, capture), anchor) in eval.iter().zip(&batch) {
        sweep(capture, Some(*label), Some(anchor));
    }
    for capture in &open_captures {
        sweep(capture, None, None);
    }

    // The early-stop run: feed in checkpoint-sized chunks, consult the
    // policy at each checkpoint, stop feeding once it latches.
    let mut early_correct = 0usize;
    let mut latched = 0usize;
    let mut decision_fractions = Vec::with_capacity(eval.len());
    let mut ttd_us = Vec::with_capacity(eval.len());
    let mut durations_us = Vec::with_capacity(eval.len());
    let ((), early_latency_seconds) = measure::time(|| {
        for (label, capture) in &eval {
            let records = capture.packets.len();
            let chunk = records.div_ceil(FIG_EARLY_CHECKPOINTS).max(1);
            let mut session = adversary.start_session(tensor, capture.client);
            let mut decision = None;
            for window in capture.packets.chunks(chunk) {
                adversary.feed_chunk(&mut session, window);
                let d = adversary.decide_now(&mut session, Some(&policy));
                decision = d.decision;
                if d.accepted {
                    break;
                }
            }
            let start_us = capture.packets.first().map_or(0, |p| p.timestamp_us);
            let duration_us = capture.duration_us().max(1);
            let (consumed, decided_us) = match session.early_decision() {
                Some(e) => {
                    latched += 1;
                    let at = capture.packets[e.records.min(records) - 1].timestamp_us;
                    (e.records, at.saturating_sub(start_us))
                }
                None => (records, duration_us),
            };
            decision_fractions.push(consumed as f64 / records.max(1) as f64);
            ttd_us.push(decided_us as f64);
            durations_us.push(duration_us as f64);
            if decision == Some(*label) {
                early_correct += 1;
            }
        }
    });

    let n_eval = eval.len().max(1) as f64;
    let n_open = open_captures.len().max(1) as f64;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let points: Vec<EarlyFractionPoint> = fractions
        .iter()
        .enumerate()
        .map(|(i, &fraction)| EarlyFractionPoint {
            fraction,
            accuracy: correct[i] as f64 / n_eval,
            tpr: accepted_mon[i] as f64 / n_eval,
            fpr: accepted_open[i] as f64 / n_open,
        })
        .collect();
    let full_accuracy = points.last().map_or(0.0, |p| p.accuracy);
    let mean_ttd = mean(&ttd_us);
    let mean_duration = mean(&durations_us);
    EarlyProfileResult {
        profile: name.to_string(),
        n_monitored: m,
        n_unmonitored: split.unmonitored.len(),
        n_eval: eval.len(),
        n_open: open_captures.len(),
        points,
        full_accuracy,
        early_accuracy: early_correct as f64 / n_eval,
        early_stop_rate: latched as f64 / n_eval,
        mean_decision_fraction: mean(&decision_fractions),
        mean_time_to_decision_us: mean_ttd,
        mean_trace_duration_us: mean_duration,
        trace_time_speedup: mean_duration / mean_ttd.max(1e-9),
        full_latency_seconds,
        early_latency_seconds,
        streaming_matches_batch: matches_batch,
    }
}

/// Runs the streaming early-classification evaluation over all five
/// site profiles.
pub fn run_fig_early(scale: &Scale) -> FigEarlyResult {
    let total = scale.open_world_monitored + scale.open_world_unmonitored;
    let params = EarlyParams::from_scale(scale);
    let profiles = CorpusSpec::all_profiles(total, scale.traces_per_class)
        .into_iter()
        .enumerate()
        .map(|(i, spec)| {
            let name = spec.site.name.clone();
            let corpus =
                SyntheticCorpus::generate(&spec, scale.seed + 8 + i as u64).expect("valid corpus");
            run_early_profile(&name, &corpus.traces, &params)
        })
        .collect();
    FigEarlyResult { profiles }
}

// ---------------------------------------------------------------------
// Printing helpers.
// ---------------------------------------------------------------------

/// Prints one profile's open-world summary row.
pub fn print_open_world(r: &OpenWorldProfileResult) {
    println!(
        "  {:<14} {}+{} classes  thr={:<9.4} TPR={:.3} FPR={:.3} prec={:.3} AUC={:.3} top1|acc={:.3}",
        r.profile,
        r.n_monitored,
        r.n_unmonitored,
        r.threshold,
        r.tpr,
        r.fpr,
        r.precision,
        r.auc,
        r.accepted_top1,
    );
}

/// Prints one profile's streaming early-classification summary.
pub fn print_fig_early(r: &EarlyProfileResult) {
    print!(
        "  {:<14} {}+{} classes eval={} open={}",
        r.profile, r.n_monitored, r.n_unmonitored, r.n_eval, r.n_open
    );
    for p in &r.points {
        print!(
            " | f={:.2} acc={:.2} tpr={:.2} fpr={:.2}",
            p.fraction, p.accuracy, p.tpr, p.fpr
        );
    }
    println!();
    println!(
        "  {:<14} early-stop: rate={:.2} acc={:.3} (full {:.3})  consumed={:.0}% of records  \
         ttd {:.0}ms vs {:.0}ms trace ({:.2}x sooner)  compute {:.3}s/{:.3}s  exact={}",
        "",
        r.early_stop_rate,
        r.early_accuracy,
        r.full_accuracy,
        100.0 * r.mean_decision_fraction,
        r.mean_time_to_decision_us / 1e3,
        r.mean_trace_duration_us / 1e3,
        r.trace_time_speedup,
        r.full_latency_seconds,
        r.early_latency_seconds,
        r.streaming_matches_batch,
    );
}

/// Prints one profile's index-comparison summary row.
pub fn print_fig_index(r: &IndexProfileResult) {
    println!(
        "  {:<14} n={:<5} q={:<4} lists={:<3} probe={:<2} recall@1={:.3} recall@k={:.3} top1-agree={:.3} \
         evals={:.0}%/flat flat={:.0}%/all flat-lists={} speedup={:.2}x",
        r.profile,
        r.n_reference,
        r.n_queries,
        r.n_lists,
        r.n_probe,
        r.recall_at_1,
        r.recall_at_k,
        r.top1_agreement,
        100.0 * r.evals_fraction,
        100.0 * r.flat_distance_evals as f64 / r.exhaustive_distance_evals.max(1) as f64,
        r.flat_lists,
        r.speedup,
    );
}

/// Prints one profile's embedding-throughput summary row.
pub fn print_fig_embed(r: &EmbedProfileResult) {
    print!(
        "  {:<14} n={:<4} steps={:<5.1} loop={:>8.0}/s",
        r.profile, r.n_traces, r.mean_steps, r.loop_traces_per_sec,
    );
    for p in &r.batch {
        print!(" b{}={:.2}x", p.batch_size, p.speedup);
    }
    println!(
        " dev={:.1e} exact={}",
        r.max_abs_dev_vs_loop, r.batch_matches_embed
    );
}

/// Prints one fig_shard sweep point's summary row.
pub fn print_fig_shard(p: &ShardScalePoint) {
    println!(
        "  classes={:<6} n={:<6} shards={:<4} peak={:>5.1}% of flat  build {:.2}s/{:.2}s  \
         qps {:>9.0}/{:>9.0}  recall@1={:.3} top1-agree={:.3} evals={:.0}%/flat",
        p.n_classes,
        p.n_reference,
        p.n_shards,
        100.0 * p.peak_fraction,
        p.unsharded_build_seconds,
        p.sharded_build_seconds,
        p.flat_queries_per_sec,
        p.sharded_queries_per_sec,
        p.recall_at_1,
        p.top1_agreement,
        100.0 * p.sharded_distance_evals as f64 / p.flat_distance_evals.max(1) as f64,
    );
}

/// Prints one fig_quant sweep point's summary row.
pub fn print_fig_quant(p: &QuantScalePoint) {
    println!(
        "  classes={:<6} n={:<6} shards={:<4} {}B -> {}B/embedding ({:>4.1}x)  build {:.2}s/{:.2}s  \
         qps {:>9.0}/{:>9.0}  recall@1={:.3} top1-agree={:.3}",
        p.n_classes,
        p.n_reference,
        p.n_shards,
        p.full_bytes_per_embedding,
        p.code_bytes_per_embedding,
        p.memory_reduction,
        p.flat_build_seconds,
        p.pq_build_seconds,
        p.flat_queries_per_sec,
        p.pq_queries_per_sec,
        p.recall_at_1,
        p.top1_agreement,
    );
}

/// Prints one fig_concurrent sweep cell's summary row.
pub fn print_fig_concurrent(p: &ConcurrentPoint) {
    println!(
        "  shards={:<3} workers={:<2} qps={:>9.0}  speedup={:>5.2}x  decisions-identical={} score-bits-identical={}",
        p.n_shards,
        p.workers,
        p.queries_per_sec,
        p.speedup_vs_1,
        p.decisions_identical,
        p.score_bits_identical,
    );
}

/// Prints one fig_batchscan sweep cell's summary row.
pub fn print_fig_batchscan(p: &BatchScanPoint) {
    println!(
        "  {:<5} classes={:<6} n={:<6} batch={:<4} qps loop={:>9.0} blocked(w1)={:>9.0} batched={:>9.0}  \
         speedup {:>5.2}x/{:>5.2}x  decisions-identical={} score-bits-identical={}",
        p.backend,
        p.n_classes,
        p.n_reference,
        p.batch_size,
        p.per_query_qps,
        p.blocked_1worker_qps,
        p.batched_qps,
        p.blocked_1worker_speedup,
        p.batched_speedup,
        p.decisions_identical,
        p.score_bits_identical,
    );
}

/// Prints the fig_telemetry summary block.
pub fn print_fig_telemetry(r: &FigTelemetryResult) {
    println!(
        "  classes={} n={} q={} batch={} shards={} cores={}",
        r.n_classes, r.n_reference, r.n_queries, r.batch_size, r.n_shards, r.available_cores,
    );
    println!(
        "  serving chunks: off={:.4}s on={:.4}s overhead={:.3}x decisions-identical={} score-bits-identical={}",
        r.off_seconds,
        r.on_seconds,
        r.overhead_ratio,
        r.decisions_identical,
        r.score_bits_identical,
    );
    for s in &r.stages {
        println!(
            "  stage {:<10} count={:<8} p50={:>10.0}ns p95={:>10.0}ns p99={:>10.0}ns",
            s.stage, s.count, s.p50_ns, s.p95_ns, s.p99_ns,
        );
    }
}

/// Prints one accuracy series as a table row block.
pub fn print_series(series: &AccuracySeries) {
    print!("  {:<28}", series.label);
    for (n, acc) in &series.points {
        print!(" top{n:<2}={acc:.3}");
    }
    println!();
}

/// Prints a CDF curve compactly (every few guesses).
pub fn print_cdf(curve: &CdfCurve) {
    print!("  {:<30}", curve.label);
    for (g, frac) in curve
        .points
        .iter()
        .filter(|(g, _)| [1, 2, 3, 5, 10, 20, 25].contains(g))
    {
        print!(" g{g:<2}={frac:.2}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that toggle the process-global telemetry
    /// flag: a concurrent toggle mid-sweep would corrupt the other
    /// test's timed passes (and its on/off identity comparison).
    static TELEMETRY_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn smoke_scale_is_small() {
        let s = Scale::smoke();
        assert!(s.known_sweep.iter().max().unwrap() <= &10);
        assert!(s.traces_per_class <= 12);
    }

    #[test]
    fn full_scale_grows_axes() {
        let d = Scale::default_scale();
        let f = Scale::full();
        assert!(f.known_sweep.iter().max() > d.known_sweep.iter().max());
        assert!(f.unseen_sweep.iter().max() > d.unseen_sweep.iter().max());
    }

    #[test]
    fn fig6_smoke_produces_monotone_series() {
        let result = run_fig6(&Scale::smoke());
        assert_eq!(result.series.len(), 2);
        for s in &result.series {
            // Accuracy is monotone in n.
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1, "{}: {:?}", s.label, s.points);
            }
            // Better than chance at top-1.
            let chance = 1.0 / s.n_classes as f64;
            assert!(s.points[0].1 > chance, "{}: {:?}", s.label, s.points);
        }
        assert!(result.train_seconds > 0.0);
    }

    /// Tier-1 open-world smoke: the same experiment `repro
    /// fig_open_world` runs, at reduced scale on the process-cached
    /// testkit fixtures, across all five site profiles.
    #[test]
    fn open_world_smoke_separates_monitored_from_unmonitored() {
        let params = OpenWorldParams {
            n_monitored: tlsfp_testkit::OPEN_WORLD_MONITORED,
            test_fraction: 0.3,
            calibration_percentile: 90.0,
            pipeline: tlsfp_testkit::open_world_pipeline(),
            seed: tlsfp_testkit::SEED,
        };
        let mut inseparable = Vec::new();
        for profile in tlsfp_testkit::Profile::ALL {
            let ds = tlsfp_testkit::open_world_profile_dataset(profile);
            let r = run_open_world_profile(profile.name(), &ds, &params);
            assert_eq!(r.profile, profile.name());
            // Detection beats chance at the calibrated threshold.
            if r.tpr <= r.fpr {
                inseparable.push(format!(
                    "{}: TPR {:.3} <= FPR {:.3} at threshold {}",
                    r.profile, r.tpr, r.fpr, r.threshold
                ));
            }
            // The ROC sweep is monotone and spans reject-all to
            // accept-all.
            for w in r.roc.windows(2) {
                assert!(w[1].fpr >= w[0].fpr, "{}: FPR not monotone", r.profile);
                assert!(w[1].tpr >= w[0].tpr, "{}: TPR not monotone", r.profile);
            }
            assert_eq!(r.roc.first().map(|p| (p.tpr, p.fpr)), Some((0.0, 0.0)));
            assert_eq!(r.roc.last().map(|p| (p.tpr, p.fpr)), Some((1.0, 1.0)));
        }
        assert!(
            inseparable.is_empty(),
            "profiles without separation: {inseparable:?}"
        );
    }

    #[test]
    #[ignore = "tier-2: trains one model per site profile (~1 min); run with cargo test -- --ignored"]
    fn fig_open_world_emits_roc_for_all_profiles() {
        let result = run_fig_open_world(&Scale::smoke());
        assert_eq!(result.profiles.len(), 5);
        let names: Vec<&str> = result.profiles.iter().map(|p| p.profile.as_str()).collect();
        assert_eq!(
            names,
            [
                "wiki-like",
                "github-like",
                "spa-like",
                "video-like",
                "cdn-sharded"
            ]
        );
        for p in &result.profiles {
            assert!(!p.roc.is_empty(), "{}: empty ROC", p.profile);
            assert!(p.threshold.is_finite(), "{}", p.profile);
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        assert!(json.contains("\"roc\""));
        let back: FigOpenWorldResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 streaming smoke: the same experiment `repro fig_early`
    /// runs, on one profile's raw captures at testkit scale. Pins the
    /// full-prefix bit-identity flag and the shape of the artifact.
    #[test]
    fn fig_early_smoke_prefix_sweep_and_exactness() {
        let corpus = SyntheticCorpus::generate(
            &tlsfp_testkit::Profile::Wiki.open_world_spec(),
            tlsfp_testkit::SEED,
        )
        .expect("wiki open-world corpus generates");
        let params = EarlyParams {
            n_monitored: tlsfp_testkit::OPEN_WORLD_MONITORED,
            calib_per_class: 2,
            eval_per_class: 2,
            calibration_percentile: 90.0,
            margin: 0.0,
            min_steps: 2,
            fractions: vec![0.25, 0.5, 1.0],
            pipeline: tlsfp_testkit::open_world_pipeline(),
            seed: tlsfp_testkit::SEED,
        };
        let r = run_early_profile("wiki-like", &corpus.traces, &params);
        assert_eq!(r.profile, "wiki-like");
        assert_eq!(r.n_monitored, tlsfp_testkit::OPEN_WORLD_MONITORED);
        assert_eq!(
            r.n_eval,
            params.eval_per_class * tlsfp_testkit::OPEN_WORLD_MONITORED
        );
        assert!(r.n_open > 0, "unmonitored world must not be empty");
        // The sweep covers every requested fraction and anchors at 1.0.
        let fs: Vec<f64> = r.points.iter().map(|p| p.fraction).collect();
        assert_eq!(fs, vec![0.25, 0.5, 1.0]);
        // The acceptance-criteria pin: full-prefix streaming decisions
        // are identical to the batch path on every evaluation trace.
        assert!(r.streaming_matches_batch, "streaming diverged from batch");
        assert_eq!(r.full_accuracy, r.points.last().unwrap().accuracy);
        // Full-trace accuracy beats chance; all rates are rates.
        assert!(r.full_accuracy > 1.0 / r.n_monitored as f64);
        for p in &r.points {
            assert!((0.0..=1.0).contains(&p.accuracy), "{p:?}");
            assert!((0.0..=1.0).contains(&p.tpr), "{p:?}");
            assert!((0.0..=1.0).contains(&p.fpr), "{p:?}");
        }
        assert!(r.mean_decision_fraction > 0.0 && r.mean_decision_fraction <= 1.0);
        assert!(r.trace_time_speedup >= 1.0);
        assert!(r.mean_time_to_decision_us <= r.mean_trace_duration_us);
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&r).expect("serializable");
        let back: EarlyProfileResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, r);
    }

    #[test]
    #[ignore = "tier-2: trains one model per site profile (~1 min); run with cargo test -- --ignored"]
    fn fig_early_reaches_full_accuracy_before_full_trace() {
        let result = run_fig_early(&Scale::smoke());
        assert_eq!(result.profiles.len(), 5);
        for p in &result.profiles {
            assert!(
                p.streaming_matches_batch,
                "{}: streaming diverged from batch",
                p.profile
            );
            assert!(p.points.last().is_some_and(|pt| pt.fraction == 1.0));
        }
        // The acceptance bar: on at least one profile, some prefix
        // short of the full trace already reaches >= 95% of the
        // full-trace accuracy — the early-classification claim.
        let early_enough = result.profiles.iter().any(|p| {
            p.full_accuracy > 0.0
                && p.points
                    .iter()
                    .any(|pt| pt.fraction < 1.0 && pt.accuracy >= 0.95 * p.full_accuracy)
        });
        assert!(
            early_enough,
            "no profile reached 95% of full-trace accuracy early: {:?}",
            result
                .profiles
                .iter()
                .map(|p| (&p.profile, p.full_accuracy, &p.points))
                .collect::<Vec<_>>()
        );
        // And the early-stop policy buys trace time on some profile.
        assert!(
            result.profiles.iter().any(|p| p.trace_time_speedup > 1.0),
            "no time-to-decision win reported"
        );
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigEarlyResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 index smoke: on every testkit profile's embeddings, the
    /// IVF backend at *default* (auto) parameters must keep recall@1 at
    /// 0.95+ against the exact flat scan while spending less than half
    /// its distance computations — the acceptance bar for serving
    /// through the pruned index.
    #[test]
    fn fig_index_smoke_recall_and_pruning_on_all_profiles() {
        for profile in tlsfp_testkit::Profile::ALL {
            let (ref_e, ref_l, query_e, _) = tlsfp_testkit::profile_embedding_split(profile);
            let r = run_index_profile(
                profile.name(),
                &ref_e,
                &ref_l,
                &query_e,
                5,
                tlsfp_index::IvfParams::auto(),
                0,
            );
            assert!(
                r.recall_at_1 >= 0.95,
                "{}: recall@1 {:.3} below 0.95 (lists={}, probe={})",
                r.profile,
                r.recall_at_1,
                r.n_lists,
                r.n_probe
            );
            assert!(
                (r.ivf_distance_evals as f64) < 0.5 * r.flat_distance_evals as f64,
                "{}: IVF spent {} of {} flat distance evals",
                r.profile,
                r.ivf_distance_evals,
                r.flat_distance_evals
            );
            // The flat side scanned everything for every query.
            assert_eq!(
                r.flat_distance_evals,
                (r.n_reference * r.n_queries) as u64,
                "{}",
                r.profile
            );
            assert!(
                r.recall_at_k > 0.8,
                "{}: recall@k {:.3}",
                r.profile,
                r.recall_at_k
            );
        }
    }

    #[test]
    #[ignore = "tier-2: trains a model then embeds five profile corpora (~1 min); run with cargo test -- --ignored"]
    fn fig_index_emits_comparison_for_all_profiles() {
        let result = run_fig_index(&Scale::smoke());
        assert_eq!(result.profiles.len(), 5);
        for p in &result.profiles {
            assert!(p.n_lists > 0 && p.n_probe <= p.n_lists, "{}", p.profile);
            assert!(
                p.ivf_distance_evals < p.flat_distance_evals,
                "{}",
                p.profile
            );
            assert!(
                p.recall_at_1 > 0.8,
                "{}: recall@1 {:.3}",
                p.profile,
                p.recall_at_1
            );
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigIndexResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 embedding-throughput smoke on the testkit fixtures: the
    /// batched engine must be bit-identical to per-trace `embed` on
    /// every site profile, track the pre-batching loop path within the
    /// fast-activation tolerance, and beat it soundly at batch 64.
    ///
    /// The acceptance target is ≥ 3x at batch 64 on the paper-dim
    /// embedder (measured ~3.7x on the pinned profile — exact numbers
    /// live in the `fig_embed` artifact and BENCH_baseline.json); the
    /// assertion here is deliberately loose (≥ 2x) so contended or
    /// pre-AVX CI hosts don't flake a correctness tier on a timing
    /// margin.
    #[test]
    fn fig_embed_smoke_batch_beats_loop_and_is_exact() {
        let embedder = tlsfp_nn::embedding::SequenceEmbedder::new(
            tlsfp_nn::embedding::EmbedderConfig::paper(3),
            tlsfp_testkit::SEED,
        )
        .expect("paper config");
        // Bit-identity on every testkit profile's traces.
        for profile in tlsfp_testkit::Profile::ALL {
            let ds = tlsfp_testkit::open_world_profile_dataset(profile);
            let mut scratch = tlsfp_nn::embedding::EmbedScratch::new();
            let rows = embedder.embed_batch(ds.seqs(), &mut scratch);
            for (i, s) in ds.seqs().iter().enumerate() {
                assert_eq!(
                    rows.row(i),
                    embedder.embed(s).as_slice(),
                    "{}: trace {i} diverged from embed",
                    profile.name()
                );
            }
        }
        // Throughput on the tiny fixture corpus, single worker for
        // stability under parallel test execution.
        let ds = tlsfp_testkit::tiny_dataset();
        let r = run_embed_profile("tiny-wiki", ds.seqs(), &embedder, 1, 5);
        assert!(r.batch_matches_embed, "batched != embed");
        assert!(
            r.max_abs_dev_vs_loop < 1e-4,
            "fused engine drifted from the looped path: {:.3e}",
            r.max_abs_dev_vs_loop
        );
        let b64 = r
            .batch
            .iter()
            .find(|p| p.batch_size == 64)
            .expect("64 in sweep");
        assert!(
            b64.speedup >= 2.0,
            "batch-64 speedup {:.2}x below the loose 2x floor (loop {:.0}/s, batch {:.0}/s)",
            b64.speedup,
            r.loop_traces_per_sec,
            b64.traces_per_sec
        );
        // Larger batches never collapse below the batch-8 point.
        let b8 = r.batch.iter().find(|p| p.batch_size == 8).unwrap();
        assert!(
            b64.traces_per_sec > 0.5 * b8.traces_per_sec,
            "batch-64 fell off a cliff vs batch-8"
        );
    }

    #[test]
    #[ignore = "tier-2: embeds five full profile corpora through the paper-dim engine (~1 min); run with cargo test -- --ignored"]
    fn fig_embed_emits_throughput_for_all_profiles() {
        let result = run_fig_embed(&Scale::smoke());
        assert_eq!(result.profiles.len(), 5);
        for p in &result.profiles {
            assert!(p.batch_matches_embed, "{}", p.profile);
            assert!(p.max_abs_dev_vs_loop < 1e-4, "{}", p.profile);
            assert_eq!(p.batch.len(), FIG_EMBED_BATCH_SIZES.len());
            for pt in &p.batch {
                assert!(pt.traces_per_sec > 0.0, "{}", p.profile);
            }
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigEmbedResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 shard smoke: the experiment `repro fig_shard` runs, at
    /// smoke scale — pure store-layer work, no model training. The
    /// acceptance bar: multi-shard recall@1 ≥ 0.95 against the exact
    /// monolith, with the provisioning peak-memory proxy bounded by
    /// the largest shard (a strict fraction of the corpus).
    #[test]
    fn fig_shard_smoke_recall_and_peak_memory() {
        let result = run_fig_shard(&Scale::smoke());
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(p.n_shards > 1, "{} classes resolved 1 shard", p.n_classes);
            assert_eq!(p.n_reference, p.n_classes * p.refs_per_class);
            assert!(
                p.recall_at_1 >= 0.95,
                "{} classes: recall@1 {:.3} below 0.95 ({} shards)",
                p.n_classes,
                p.recall_at_1,
                p.n_shards
            );
            assert!(
                p.top1_agreement >= 0.95,
                "{} classes: top-1 agreement {:.3}",
                p.n_classes,
                p.top1_agreement
            );
            assert!(
                p.sharded_peak_bytes < p.unsharded_peak_bytes,
                "{} classes: sharded peak {} not below unsharded {}",
                p.n_classes,
                p.sharded_peak_bytes,
                p.unsharded_peak_bytes
            );
            assert!((p.peak_fraction - 1.0 / p.n_shards as f64).abs() < 0.25);
        }
        // Peak fraction shrinks as the sweep grows (more shards).
        let first = &result.points[0];
        let last = &result.points[result.points.len() - 1];
        assert!(last.peak_fraction < first.peak_fraction);
        // Determinism: the same scale reproduces the same sweep
        // (timings differ; compare the seeded measurements).
        let again = run_fig_shard(&Scale::smoke());
        for (a, b) in result.points.iter().zip(&again.points) {
            assert_eq!(a.recall_at_1, b.recall_at_1);
            assert_eq!(a.flat_distance_evals, b.flat_distance_evals);
            assert_eq!(a.sharded_distance_evals, b.sharded_distance_evals);
        }
    }

    #[test]
    #[ignore = "tier-2: builds sharded stores at the default sweep's class counts (~1 min); run with cargo test -- --ignored"]
    fn fig_shard_emits_sweep_at_default_scale() {
        let result = run_fig_shard(&Scale::default_scale());
        assert_eq!(result.points.len(), 3);
        for p in &result.points {
            assert!(
                p.recall_at_1 >= 0.95,
                "{}: {:.3}",
                p.n_classes,
                p.recall_at_1
            );
            assert!(
                p.sharded_distance_evals < p.flat_distance_evals,
                "{}: per-shard IVF did not prune",
                p.n_classes
            );
            assert!(
                p.peak_fraction < 0.2,
                "{}: {:.3}",
                p.n_classes,
                p.peak_fraction
            );
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigShardResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 quantization smoke: the experiment `repro fig_quant`
    /// runs at smoke scale. The acceptance bars: ≥ 8x scan-memory
    /// reduction at ≤ 8 code bytes per embedding, recall@1 ≥ 0.95
    /// against the exact monolith after re-rank, and a deterministic
    /// re-run.
    #[test]
    fn fig_quant_smoke_recall_memory_reduction_and_determinism() {
        let result = run_fig_quant(&Scale::smoke());
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert_eq!(p.n_reference, p.n_classes * p.refs_per_class);
            assert!(p.n_shards > 1, "{} classes resolved 1 shard", p.n_classes);
            assert!(
                p.code_bytes_per_embedding <= 8,
                "{} classes: {} code bytes per embedding",
                p.n_classes,
                p.code_bytes_per_embedding
            );
            assert!(
                p.memory_reduction >= 8.0,
                "{} classes: {:.1}x reduction below 8x",
                p.n_classes,
                p.memory_reduction
            );
            assert!(
                p.recall_at_1 >= 0.95,
                "{} classes: recall@1 {:.3} below 0.95",
                p.n_classes,
                p.recall_at_1
            );
            assert!(
                p.top1_agreement >= 0.95,
                "{} classes: top-1 agreement {:.3}",
                p.n_classes,
                p.top1_agreement
            );
        }
        // The committed default scale must reach the 10⁵-class regime
        // the CI artifact documents.
        assert!(Scale::default_scale().quant_sweep.iter().max().unwrap() >= &100_000);
        // Determinism: the same scale reproduces the same sweep
        // (timings differ; compare the seeded measurements).
        let again = run_fig_quant(&Scale::smoke());
        for (a, b) in result.points.iter().zip(&again.points) {
            assert_eq!(a.recall_at_1, b.recall_at_1);
            assert_eq!(a.flat_distance_evals, b.flat_distance_evals);
            assert_eq!(a.pq_distance_evals, b.pq_distance_evals);
        }
    }

    /// Tier-1 PQ gate on real embeddings: on every testkit profile,
    /// the PQ backend at auto parameters must compress to at most 8
    /// code bytes per embedding while holding recall@1 ≥ 0.9 against
    /// the exact flat scan.
    #[test]
    fn fig_quant_profile_smoke_recall_and_code_bytes_on_all_profiles() {
        use tlsfp_index::pq::{PqIndex, PqParams};
        use tlsfp_index::{FlatIndex, Metric, Rows, VectorIndex};
        for profile in tlsfp_testkit::Profile::ALL {
            let (ref_e, ref_l, query_e, _) = tlsfp_testkit::profile_embedding_split(profile);
            let dim = ref_e[0].len();
            let data: Vec<f32> = ref_e.iter().flatten().copied().collect();
            let rows = Rows::new(dim, &data);
            let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &ref_l);
            let pq = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &ref_l);
            assert!(
                pq.code_bytes_per_vector() <= 8,
                "{}: {} code bytes per embedding",
                profile.name(),
                pq.code_bytes_per_vector()
            );
            let recall = measure::compare(
                &flat.search_batch(&query_e, 1, 1),
                &pq.search_batch(&query_e, 1, 1),
                |t, got| t.dist.to_bits() == got.dist.to_bits(),
            )
            .recall_at_1;
            assert!(
                recall >= 0.9,
                "{}: recall@1 {:.3} below 0.9 (m={}, ksub={})",
                profile.name(),
                recall,
                pq.m(),
                pq.ksub()
            );
        }
    }

    #[test]
    #[ignore = "tier-2: trains per-shard PQ codebooks at thousands of classes (~1 min); run with cargo test -- --ignored"]
    fn fig_quant_emits_sweep_toward_the_large_class_regime() {
        // A reduced sweep keeps the debug-build codebook training
        // inside the tier-2 minute budget; the 10⁵-class artifact
        // itself comes from the release-mode `repro fig_quant --json`
        // CI step at the default scale.
        let mut scale = Scale::default_scale();
        scale.quant_sweep = vec![2_000, 8_000];
        let result = run_fig_quant(&scale);
        assert_eq!(result.points.len(), 2);
        for p in &result.points {
            assert!(
                p.recall_at_1 >= 0.95,
                "{}: {:.3}",
                p.n_classes,
                p.recall_at_1
            );
            assert!(
                p.memory_reduction >= 8.0,
                "{}: {:.1}x",
                p.n_classes,
                p.memory_reduction
            );
            assert!(p.pq_build_seconds > 0.0 && p.pq_distance_evals > 0);
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigQuantResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 concurrent-serving smoke: the experiment `repro
    /// fig_concurrent` runs at smoke scale. Determinism columns must
    /// hold unconditionally — every worker count bit-identical to the
    /// 1-worker column. Throughput scaling is asserted only when the
    /// host actually has the cores for it (CI containers are often
    /// single-core, where the honest measurement is ~1.0x).
    #[test]
    fn fig_concurrent_smoke_is_bit_identical_across_workers() {
        let result = run_fig_concurrent(&Scale::smoke());
        assert_eq!(
            result.points.len(),
            FIG_CONCURRENT_WORKERS.len() * FIG_CONCURRENT_SHARDS.len()
        );
        for p in &result.points {
            assert!(
                p.decisions_identical,
                "shards={} workers={}: decisions diverged from 1 worker",
                p.n_shards, p.workers
            );
            assert!(
                p.score_bits_identical,
                "shards={} workers={}: score bits diverged from 1 worker",
                p.n_shards, p.workers
            );
            assert!(p.queries_per_sec > 0.0);
        }
        let at = |shards: usize, workers: usize| {
            result
                .points
                .iter()
                .find(|p| p.n_shards == shards && p.workers == workers)
                .expect("cell in sweep")
        };
        assert!((at(4, 1).speedup_vs_1 - 1.0).abs() < 1e-9);
        if result.available_cores >= 4 {
            assert!(
                at(16, 4).speedup_vs_1 >= 1.5,
                "16 shards: 4 workers only {:.2}x over 1 on a {}-core host",
                at(16, 4).speedup_vs_1,
                result.available_cores
            );
        }
    }

    #[test]
    #[ignore = "tier-2: times the default-scale concurrent sweep (~1 min); run with cargo test -- --ignored"]
    fn fig_concurrent_emits_sweep_at_default_scale() {
        let result = run_fig_concurrent(&Scale::default_scale());
        assert_eq!(result.n_classes, 3200);
        for p in &result.points {
            assert!(
                p.decisions_identical && p.score_bits_identical,
                "shards={} workers={}",
                p.n_shards,
                p.workers
            );
        }
        // The acceptance scaling bar (>= 2.5x from 1 to 4 workers at
        // 16 shards) only binds where the silicon can express it.
        if result.available_cores >= 4 {
            let s4 = result
                .points
                .iter()
                .find(|p| p.n_shards == 16 && p.workers == 4)
                .expect("cell in sweep");
            assert!(s4.speedup_vs_1 >= 2.5, "got {:.2}x", s4.speedup_vs_1);
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigConcurrentResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    /// Tier-1 telemetry smoke: the experiment `repro fig_telemetry`
    /// runs at smoke scale. The zero-perturbation contract binds
    /// unconditionally — decisions and score bits identical with
    /// recording on and off — and the enabled passes must have
    /// populated the serving-stage spans. The ≤ 1.02 overhead gate is
    /// asserted only in the tier-2 variant: at smoke scale one serving
    /// pass is short enough that scheduler noise dominates the ratio.
    #[test]
    fn fig_telemetry_smoke_is_bit_identical_on_and_off() {
        let _serial = TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let result = run_fig_telemetry(&Scale::smoke());
        assert!(
            result.decisions_identical,
            "decisions changed with telemetry on"
        );
        assert!(
            result.score_bits_identical,
            "score bits changed with telemetry on"
        );
        assert!(result.off_seconds > 0.0 && result.on_seconds > 0.0);
        assert_eq!(result.batch_size, FIG_TELEMETRY_BATCH);
        assert_eq!(result.n_shards, FIG_TELEMETRY_SHARDS);
        // The serving path exercises embed, the shard fan-out and the
        // decide span; each must have recorded while enabled.
        for stage in ["embed", "fanout", "shard_scan", "merge", "decide"] {
            let s = result
                .stages
                .iter()
                .find(|s| s.stage == stage)
                .unwrap_or_else(|| panic!("stage {stage} missing from the profile"));
            assert!(s.count > 0, "stage {stage} recorded no spans");
            assert!(s.p50_ns <= s.p95_ns && s.p95_ns <= s.p99_ns, "{stage}");
        }
        // The runner leaves recording enabled (the process default).
        assert!(tlsfp_telemetry::enabled());
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigTelemetryResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    #[test]
    #[ignore = "tier-2: times the default-scale serving sweep twice (~1 min); run with cargo test -- --ignored"]
    fn fig_telemetry_overhead_within_two_percent_at_default_scale() {
        let _serial = TELEMETRY_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let result = run_fig_telemetry(&Scale::default_scale());
        assert!(result.decisions_identical && result.score_bits_identical);
        assert!(
            result.overhead_ratio <= 1.02,
            "telemetry overhead {:.4}x exceeds the 1.02x acceptance gate \
             (off {:.4}s, on {:.4}s)",
            result.overhead_ratio,
            result.off_seconds,
            result.on_seconds
        );
    }

    /// Tier-1 batched-scan smoke: the experiment `repro fig_batchscan`
    /// runs at smoke scale and covers the full backend × batch grid.
    /// The bit-identity columns bind unconditionally — every batched
    /// cell identical to single queries at auto workers *and* one
    /// worker. Throughput gates live in the tier-2 variant; at smoke
    /// scale the stores are cache-resident and timing is noise.
    #[test]
    fn fig_batchscan_smoke_is_bit_identical_across_the_grid() {
        let scale = Scale::smoke();
        let result = run_fig_batchscan(&scale);
        assert_eq!(
            result.points.len(),
            scale.batchscan_sweep.len()
                * FIG_BATCHSCAN_BACKENDS.len()
                * FIG_BATCHSCAN_BATCH_SIZES.len()
        );
        for (i, p) in result.points.iter().enumerate() {
            let expected_backend =
                FIG_BATCHSCAN_BACKENDS[(i / FIG_BATCHSCAN_BATCH_SIZES.len()) % 3];
            assert_eq!(p.backend, expected_backend, "sweep order");
            assert!(
                p.decisions_identical,
                "{} classes={} batch={}: decisions diverged from single queries",
                p.backend, p.n_classes, p.batch_size
            );
            assert!(
                p.score_bits_identical,
                "{} classes={} batch={}: score bits diverged from single queries",
                p.backend, p.n_classes, p.batch_size
            );
            assert!(p.per_query_qps > 0.0 && p.batched_qps > 0.0 && p.blocked_1worker_qps > 0.0);
        }
    }

    #[test]
    #[ignore = "tier-2: times the default-scale batched-scan sweep (~1 min); run with cargo test -- --ignored"]
    fn fig_batchscan_gate_batch64_amortizes_at_default_scale() {
        let result = run_fig_batchscan(&Scale::default_scale());
        for p in &result.points {
            assert!(
                p.decisions_identical && p.score_bits_identical,
                "{} classes={} batch={}",
                p.backend,
                p.n_classes,
                p.batch_size
            );
        }
        // The acceptance bar: flat at batch 64 on the largest store
        // serves ≥ 1.5x single queries. Only binds where the
        // silicon can express it — single-core hosts still prove the
        // identity columns above.
        if result.available_cores >= 4 {
            let biggest = result
                .points
                .iter()
                .map(|p| p.n_classes)
                .max()
                .expect("non-empty sweep");
            let p = result
                .points
                .iter()
                .find(|p| p.backend == "flat" && p.batch_size == 64 && p.n_classes == biggest)
                .expect("flat batch-64 cell in sweep");
            assert!(
                p.batched_speedup >= 1.5,
                "flat batch-64 only {:.2}x over single queries on a {}-core host \
                 (loop {:.0} qps, batched {:.0} qps)",
                p.batched_speedup,
                result.available_cores,
                p.per_query_qps,
                p.batched_qps
            );
        }
        // The repro --json artifact round-trips.
        let json = serde_json::to_string(&result).expect("serializable");
        let back: FigBatchScanResult = serde_json::from_str(&json).expect("deserializable");
        assert_eq!(back, result);
    }

    #[test]
    fn table3_smoke_orders_update_costs() {
        let result = run_table3(&Scale::smoke());
        assert_eq!(result.measured.len(), 3);
        let ours = &result.measured[0];
        let df = &result.measured[2];
        assert!(!ours.retrained);
        assert!(df.retrained);
        // Adaptation must be far cheaper than our own training run.
        assert!(ours.update_compute_seconds < ours.train_seconds / 5.0);
        assert_eq!(result.lifetime_updates.len(), 7);
    }
}
