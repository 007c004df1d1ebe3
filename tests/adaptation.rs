//! Integration tests of the paper's core claim: adaptation to
//! distributional shift via reference-set updates, never retraining.
//!
//! Two tiers (see the root README): the un-ignored tests run on the
//! shared `tlsfp-testkit` fixtures and finish in seconds; the
//! `#[ignore]`d tests regenerate paper-scale corpora and train full
//! models — run them with `cargo test -- --ignored`.

use tlsfp::core::pipeline::{AdaptiveFingerprinter, PipelineConfig};
use tlsfp::trace::dataset::Dataset;
use tlsfp::trace::tensorize::TensorConfig;
use tlsfp::web::corpus::CorpusSpec;
use tlsfp::web::crawler::Crawler;
use tlsfp::web::drift::DriftConfig;
use tlsfp::web::site::{SiteSpec, Website};

fn crawl_to_dataset(site: &Website, visits: usize, seed: u64) -> Dataset {
    let tensor = TensorConfig::wiki();
    let crawler = Crawler::new(visits);
    let caps = crawler.crawl(site, seed).unwrap();
    let mut ds = Dataset::new(site.n_pages(), tensor.channels, tensor.max_steps);
    for lc in &caps {
        ds.push_capture(&lc.clone(), &tensor).unwrap();
    }
    ds
}

// ---------------------------------------------------------------------
// Tier 1: fast, fixture-backed tests
// ---------------------------------------------------------------------

#[test]
fn reference_swap_never_touches_the_embedder() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let site = tlsfp_testkit::tiny_website();

    // The site drifts; the adversary re-crawls and swaps the reference.
    let drifted_site = site.drifted(DriftConfig::heavy(), 31);
    let fresh = crawl_to_dataset(&drifted_site, 6, 32);
    let mut adapted = adversary.clone();
    adapted.set_reference(&fresh).unwrap();

    // Same classes, same weights object — adaptation is a data swap.
    assert_eq!(
        adapted.reference().n_classes(),
        adversary.reference().n_classes()
    );
    assert_eq!(
        adversary.embedder().to_json().unwrap(),
        adapted.embedder().to_json().unwrap()
    );
    // And the reference content actually changed.
    assert!(
        adversary.reference() != adapted.reference(),
        "the swap left the reference store unchanged"
    );
}

#[test]
fn add_class_allocates_the_next_id_and_only_that_class() {
    let mut adversary = tlsfp_testkit::tiny_adversary();
    let n0 = adversary.reference().n_classes();
    let before: Vec<usize> = (0..n0)
        .map(|c| adversary.reference().class_count(c))
        .collect();

    let (_, extra) =
        Dataset::generate(&CorpusSpec::wiki_like(1, 4), &TensorConfig::wiki(), 999).unwrap();
    let new_id = adversary.add_class(extra.seqs()).unwrap();
    assert_eq!(new_id, n0);
    assert_eq!(adversary.reference().class_count(new_id), extra.len());
    for (c, &count) in before.iter().enumerate() {
        assert_eq!(adversary.reference().class_count(c), count);
    }
}

#[test]
fn partial_update_touches_only_target_class() {
    let ds = tlsfp_testkit::tiny_dataset();
    let mut adversary = tlsfp_testkit::tiny_adversary();
    let n = ds.n_classes();

    let before: Vec<usize> = (0..n)
        .map(|c| adversary.reference().class_count(c))
        .collect();
    let fresh: Vec<_> = ds.seqs()[..3].to_vec();
    adversary.update_class(2, &fresh).unwrap();
    for c in 0..n {
        let count = adversary.reference().class_count(c);
        if c == 2 {
            assert_eq!(count, 3);
        } else {
            assert_eq!(count, before[c], "class {c} should be untouched");
        }
    }
}

// ---------------------------------------------------------------------
// Tier 2: paper-scale experiments (cargo test -- --ignored)
// ---------------------------------------------------------------------

#[test]
#[ignore = "tier-2: trains a full model on a drifting corpus (~30 s); run with cargo test -- --ignored"]
fn adaptation_recovers_accuracy_after_heavy_drift() {
    let mut cfg = PipelineConfig::small();
    cfg.k = 8;
    let site = Website::generate(SiteSpec::wiki_like(8), 201).unwrap();
    let day0 = crawl_to_dataset(&site, 20, 301);
    let adversary = AdaptiveFingerprinter::provision(&day0, &cfg, 11).unwrap();

    // Heavy drift: most content replaced.
    let drifted_site = site.drifted(DriftConfig::heavy(), 401);
    let drifted = crawl_to_dataset(&drifted_site, 24, 501);
    let (fresh_ref, test) = drifted.split_per_class(0.5, 0);

    let stale = adversary.evaluate(&test).top_n_accuracy(1);
    let mut adapted = adversary.clone();
    adapted.set_reference(&fresh_ref).unwrap();
    let recovered = adapted.evaluate(&test).top_n_accuracy(1);

    assert!(
        recovered > stale + 0.1,
        "adaptation should recover accuracy: stale {stale}, adapted {recovered}"
    );
    // The embedder itself is untouched: same weights object.
    assert_eq!(
        adversary.embedder().to_json().unwrap(),
        adapted.embedder().to_json().unwrap()
    );
}

#[test]
#[ignore = "tier-2: Figure 5 partition experiment (~20 s); run with cargo test -- --ignored"]
fn unseen_classes_are_classifiable_without_retraining() {
    // Figure 5 structure: train on one partition, classify a disjoint one.
    let (_, ds) =
        Dataset::generate(&CorpusSpec::wiki_like(14, 14), &TensorConfig::wiki(), 601).unwrap();
    let split = ds.figure5(8, 0.25, 0).unwrap();
    let mut cfg = PipelineConfig::small();
    cfg.epochs = 20;
    cfg.pairs_per_epoch = 1024;
    cfg.k = 8;
    let mut adversary = AdaptiveFingerprinter::provision(&split.set_a, &cfg, 5).unwrap();
    adversary.set_reference(&split.set_c).unwrap();
    let report = adversary.evaluate(&split.set_d);
    let top3 = report.top_n_accuracy(3);
    // 6 unseen classes; chance top-3 = 0.5.
    assert!(top3 > 0.65, "unseen top-3 {top3}");
}

#[test]
#[ignore = "tier-2: trains a full model then monitors a new page (~15 s); run with cargo test -- --ignored"]
fn new_pages_can_be_monitored_on_the_fly() {
    let (_, ds) =
        Dataset::generate(&CorpusSpec::wiki_like(6, 10), &TensorConfig::wiki(), 701).unwrap();
    let mut cfg = PipelineConfig::small();
    cfg.epochs = 16;
    cfg.k = 8;
    let mut adversary = AdaptiveFingerprinter::provision(&ds, &cfg, 5).unwrap();
    let n0 = adversary.reference().n_classes();

    // A brand-new page appears; the adversary adds it with a few traces.
    let (_, extra) =
        Dataset::generate(&CorpusSpec::wiki_like(1, 8), &TensorConfig::wiki(), 999).unwrap();
    let new_id = adversary.add_class(extra.seqs()).unwrap();
    assert_eq!(new_id, n0);

    // Its traces are now recognized as the new class more than chance.
    let hits = extra
        .seqs()
        .iter()
        .filter(|t| adversary.fingerprint(t).top() == Some(new_id))
        .count();
    assert!(hits >= extra.len() / 2, "{hits}/{} recognized", extra.len());
}
