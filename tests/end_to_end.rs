//! End-to-end integration: website synthesis → crawling → sequence
//! extraction → provisioning → fingerprinting, across crate boundaries.
//!
//! Two tiers (see the root README): the un-ignored tests run on the
//! shared `tlsfp-testkit` fixtures and finish in seconds; the
//! `#[ignore]`d tests regenerate paper-scale corpora and train full
//! models — run them with `cargo test -- --ignored`.

use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::index::{IndexConfig, Metric, Rows, ServingIndex, ShardedStore};
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::sequence::IpSequences;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::{CorpusSpec, SyntheticCorpus};

// ---------------------------------------------------------------------
// Tier 1: fast, fixture-backed tests
// ---------------------------------------------------------------------

#[test]
fn tiny_pipeline_beats_chance() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let (_, test) = tlsfp_testkit::tiny_split();
    let report = adversary.evaluate(&test);
    let top1 = report.top_n_accuracy(1);
    // 8 classes: chance top-1 is 0.125.
    assert!(top1 > 0.3, "top-1 {top1} barely beats chance");
    // The accuracy curve is monotone in n and dominates top-1.
    let curve = report.accuracy_curve(8);
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1);
    }
    assert!(curve.last().unwrap().1 >= top1);
}

#[test]
fn provisioning_is_deterministic_in_seeds() {
    let (reference, _) = tlsfp_testkit::tiny_split();
    let mut cfg = tlsfp_testkit::tiny_pipeline();
    cfg.epochs = 4;
    cfg.threads = 1; // single-thread for bit-exact training
    let a = AdaptiveFingerprinter::provision(&reference, &cfg, 9).unwrap();
    let b = AdaptiveFingerprinter::provision(&reference, &cfg, 9).unwrap();
    let t = &reference.seqs()[0];
    assert_eq!(a.fingerprint(t), b.fingerprint(t));
}

#[test]
fn deployment_survives_serialization() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let ds = tlsfp_testkit::tiny_dataset();
    let json = adversary.to_json().unwrap();
    let restored = AdaptiveFingerprinter::from_json(&json).unwrap();
    for t in ds.seqs().iter().take(5) {
        assert_eq!(adversary.fingerprint(t), restored.fingerprint(t));
    }
}

/// Euclidean is the one metric: a backend, a sharded store or a whole
/// deployment whose snapshot names another metric is refused on load,
/// never turned into a store that silently serves Euclidean.
#[test]
fn snapshots_naming_another_metric_are_refused() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let store = adversary.reference();
    let (labels, data) = store.shard_snapshot(0);
    let backend =
        IndexConfig::Flat.build(Metric::Euclidean, Rows::new(store.dim(), &data), &labels);
    let renamed = |json: String| {
        assert!(json.contains(r#""metric":"Euclidean""#), "no metric key");
        json.replace(r#""metric":"Euclidean""#, r#""metric":"Cosine""#)
    };
    let backend_json = renamed(serde_json::to_string(&backend).unwrap());
    assert!(serde_json::from_str::<ServingIndex>(&backend_json).is_err());
    let store_json = renamed(serde_json::to_string(store).unwrap());
    assert!(serde_json::from_str::<ShardedStore>(&store_json).is_err());
    let deployment_json = renamed(adversary.to_json().unwrap());
    assert!(AdaptiveFingerprinter::from_json(&deployment_json).is_err());
}

#[test]
fn pcap_export_feeds_back_into_the_pipeline() {
    // A capture written to pcap and parsed back yields identical
    // sequences — the adversary can work from on-disk pcaps.
    let corpus = SyntheticCorpus::generate(&CorpusSpec::wiki_like(3, 2), 61).unwrap();
    for lc in &corpus.traces {
        let bytes = lc.capture.to_pcap();
        let parsed = tlsfp::net::Capture::from_pcap(&bytes, lc.capture.client).unwrap();
        assert_eq!(
            IpSequences::extract(&lc.capture),
            IpSequences::extract(&parsed)
        );
    }
}

// ---------------------------------------------------------------------
// Tier 2: paper-scale experiments (cargo test -- --ignored)
// ---------------------------------------------------------------------

fn fast_config() -> PipelineConfig {
    let mut cfg = PipelineConfig::small();
    cfg.epochs = 20;
    cfg.pairs_per_epoch = 1024;
    cfg.k = 8;
    cfg
}

#[test]
#[ignore = "tier-2: trains a full model on a 10x15 corpus (~15 s); run with cargo test -- --ignored"]
fn full_pipeline_beats_chance_by_a_wide_margin() {
    let (_, ds) =
        Dataset::generate(&CorpusSpec::wiki_like(10, 15), &TensorConfig::wiki(), 101).unwrap();
    let (train, test) = ds.split_per_class(0.2, 0);
    let adversary = AdaptiveFingerprinter::provision(&train, &fast_config(), 5).unwrap();
    let report = adversary.evaluate(&test);
    let top1 = report.top_n_accuracy(1);
    let top3 = report.top_n_accuracy(3);
    // Chance: 0.1 top-1, 0.3 top-3.
    assert!(top1 > 0.35, "top-1 {top1}");
    assert!(top3 > 0.6, "top-3 {top3}");
    // The accuracy curve is monotone in n.
    let curve = report.accuracy_curve(10);
    for w in curve.windows(2) {
        assert!(w[1].1 >= w[0].1);
    }
}

#[test]
#[ignore = "tier-2: trains on a github-like two-sequence corpus (~15 s); run with cargo test -- --ignored"]
fn github_corpus_flows_through_two_seq_pipeline() {
    let (_, ds) = Dataset::generate(
        &CorpusSpec::github_like(6, 12),
        &TensorConfig::two_seq(),
        71,
    )
    .unwrap();
    assert_eq!(ds.channels(), 2);
    let (train, test) = ds.split_per_class(0.25, 0);
    let mut cfg = PipelineConfig::small_two_seq();
    cfg.epochs = 20;
    cfg.k = 8;
    let adversary = AdaptiveFingerprinter::provision(&train, &cfg, 5).unwrap();
    let report = adversary.evaluate(&test);
    // Github-like corpora are intentionally harder; still beat chance.
    assert!(
        report.top_n_accuracy(3) > 0.4,
        "top-3 {}",
        report.top_n_accuracy(3)
    );
}
