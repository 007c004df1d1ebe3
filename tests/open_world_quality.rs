//! Open-world quality regressions: per-class calibrated rejection radii
//! must never detect *worse* than the single global percentile
//! threshold they refine (ROADMAP "open-world quality" item).
//!
//! Protocol, per testkit profile: the cached tiny adversary's embedder
//! is pointed at the profile's monitored classes (reference = 40% of
//! monitored loads), and both detectors are calibrated at the same
//! percentile on the same held-out monitored loads, then evaluated on
//! those loads against every unmonitored load. Identical data, identical
//! percentile — the only difference is one radius versus one per class.
//!
//! Both detectors run through the one accept rule; the global one is
//! also checked against the raw-score global detector it replaced.

use tlsfp::core::open_world::{roc_auc, OpenWorldReport, PerClassThresholds};
use tlsfp::web::corpus::open_world_split;
use tlsfp_testkit::{
    open_world_profile_dataset, tiny_adversary, Profile, OPEN_WORLD_MONITORED, SEED,
};

const PERCENTILE: f64 = 95.0;
const HELDOUT_FRACTION: f64 = 0.6;
const MIN_SAMPLES: usize = 2;

#[test]
fn per_class_radii_never_lower_tpr_minus_fpr_on_any_profile() {
    let mut improved_somewhere = false;
    for profile in Profile::ALL {
        let ds = open_world_profile_dataset(profile);
        let split = open_world_split(ds.n_classes(), OPEN_WORLD_MONITORED, SEED).unwrap();
        let monitored = ds.subset_classes(&split.monitored).unwrap();
        let unmonitored = ds.subset_classes(&split.unmonitored).unwrap();
        let (train, heldout) = monitored.split_per_class(HELDOUT_FRACTION, SEED);
        let mut fp = tiny_adversary();
        fp.set_reference(&train).unwrap();

        let global = fp
            .calibrate_rejection_threshold(&heldout, PERCENTILE)
            .unwrap();
        let g = fp.evaluate_open_world(&heldout, &unmonitored, &global);
        let radii = fp
            .calibrate_rejection_radii(&heldout, PERCENTILE, MIN_SAMPLES)
            .unwrap();
        let p = fp.evaluate_open_world(&heldout, &unmonitored, &radii);

        // The global rule is the old raw-score global detector at the
        // calibrated threshold `t`: per-trace accepts are `score <= t`,
        // and the report's counts, accepted top-1 and AUC match the
        // score-table report at `t`.
        let t = global.fallback;
        let monitored_scored = fp.fingerprint_with_score_all(&heldout);
        let unmonitored_scored = fp.fingerprint_with_score_all(&unmonitored);
        let traces = heldout.seqs().iter().chain(unmonitored.seqs());
        for (trace, sp) in traces.zip(monitored_scored.iter().chain(&unmonitored_scored)) {
            assert_eq!(
                fp.fingerprint_open_world(trace, &global).is_some(),
                sp.score <= t,
                "{}: global-rule accept differs from score <= t",
                profile.name()
            );
        }
        let raw = |scored: &[tlsfp::core::ScoredPrediction]| -> Vec<f32> {
            scored.iter().map(|sp| sp.score).collect()
        };
        let top1_correct: Vec<bool> = monitored_scored
            .iter()
            .zip(heldout.labels())
            .map(|(sp, &label)| sp.prediction.top() == Some(label))
            .collect();
        let old = OpenWorldReport::evaluate(
            &raw(&monitored_scored),
            &top1_correct,
            &raw(&unmonitored_scored),
            t,
        );
        assert_eq!(g.counts, old.counts, "{}", profile.name());
        assert_eq!(g.accepted_top1, old.accepted_top1, "{}", profile.name());
        assert!(
            (roc_auc(&g.roc) - roc_auc(&old.roc)).abs() < 1e-6,
            "{}: AUC {} vs raw-score {}",
            profile.name(),
            roc_auc(&g.roc),
            roc_auc(&old.roc)
        );

        let g_sep = g.counts.tpr() - g.counts.fpr();
        let p_sep = p.counts.tpr() - p.counts.fpr();
        assert!(
            p_sep >= g_sep - 1e-12,
            "{}: per-class TPR-FPR {:.3} below global {:.3}",
            profile.name(),
            p_sep,
            g_sep
        );
        if p_sep > g_sep + 1e-12 {
            improved_somewhere = true;
        }
        // Both reports account for every sample exactly once.
        assert_eq!(
            p.counts.total(),
            heldout.len() + unmonitored.len(),
            "{}",
            profile.name()
        );
        // Per-class detection still beats chance.
        assert!(
            p.counts.tpr() > p.counts.fpr(),
            "{}: per-class TPR {:.3} <= FPR {:.3}",
            profile.name(),
            p.counts.tpr(),
            p.counts.fpr()
        );
    }
    assert!(
        improved_somewhere,
        "per-class radii improved separation on no profile — calibration is degenerate"
    );
}

#[test]
fn per_class_decisions_agree_with_report_counts() {
    let profile = Profile::Wiki;
    let ds = open_world_profile_dataset(profile);
    let split = open_world_split(ds.n_classes(), OPEN_WORLD_MONITORED, SEED).unwrap();
    let monitored = ds.subset_classes(&split.monitored).unwrap();
    let unmonitored = ds.subset_classes(&split.unmonitored).unwrap();
    let (train, heldout) = monitored.split_per_class(HELDOUT_FRACTION, SEED);
    let mut fp = tiny_adversary();
    fp.set_reference(&train).unwrap();
    let radii = fp
        .calibrate_rejection_radii(&heldout, PERCENTILE, MIN_SAMPLES)
        .unwrap();

    // The per-trace API and the batch report count the same accepts.
    let report = fp.evaluate_open_world(&heldout, &unmonitored, &radii);
    let accepted: usize = heldout
        .seqs()
        .iter()
        .filter(|t| fp.fingerprint_open_world(t, &radii).is_some())
        .count();
    assert_eq!(report.counts.true_positives, accepted);

    // Radii cover the whole label space and serialize round-trip.
    assert_eq!(radii.radii.len(), fp.reference().n_classes());
    let json = serde_json::to_string(&radii).unwrap();
    let back: PerClassThresholds = serde_json::from_str(&json).unwrap();
    assert_eq!(back, radii);
}
