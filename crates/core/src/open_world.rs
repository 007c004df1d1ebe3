//! Open-world evaluation metrics (§VI-C): detection of page loads
//! outside the monitored set.
//!
//! In the open-world setting the adversary monitors a set of pages and
//! must *reject* every other load instead of force-matching it to a
//! monitored class. Rejection is score-based: a query whose nearest
//! reference point lies outside its predicted class's calibrated radius
//! is an outlier. [`PerClassThresholds::accepts`] is the one accept rule
//! every decision path uses — a global threshold is the same rule with
//! one shared radius ([`PerClassThresholds::global`]). This module also
//! turns score tables into the metrics the open-world literature
//! reports — TPR/FPR/precision/recall at one threshold, full ROC sweeps
//! over thresholds, and percentile calibration from a held-out
//! monitored set (the k-fingerprinting evaluation protocol).
//!
//! Conventions: *positive* means "predicted monitored" (accepted, i.e.
//! `score <= threshold`); monitored samples are the positive ground
//! truth. Ratios with an empty denominator are reported as 0.

use serde::{Deserialize, Serialize};

use crate::knn::ScoredPrediction;

/// Accept/reject confusion counts at one threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ConfusionCounts {
    /// Monitored samples accepted.
    pub true_positives: usize,
    /// Unmonitored samples accepted (the open-world failure mode).
    pub false_positives: usize,
    /// Unmonitored samples rejected.
    pub true_negatives: usize,
    /// Monitored samples rejected.
    pub false_negatives: usize,
}

impl ConfusionCounts {
    /// Tallies accept/reject outcomes for monitored and unmonitored
    /// outlier scores at `threshold` (accept = `score <= threshold`).
    pub fn at_threshold(monitored: &[f32], unmonitored: &[f32], threshold: f32) -> Self {
        let tp = monitored.iter().filter(|&&s| s <= threshold).count();
        let fp = unmonitored.iter().filter(|&&s| s <= threshold).count();
        ConfusionCounts::tally(tp, monitored.len(), fp, unmonitored.len())
    }

    /// Counts from `tp` of `n_monitored` and `fp` of `n_unmonitored`
    /// samples accepted.
    fn tally(tp: usize, n_monitored: usize, fp: usize, n_unmonitored: usize) -> Self {
        ConfusionCounts {
            true_positives: tp,
            false_positives: fp,
            true_negatives: n_unmonitored - fp,
            false_negatives: n_monitored - tp,
        }
    }

    /// True-positive rate: accepted fraction of monitored samples.
    pub fn tpr(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_negatives,
        )
    }

    /// False-positive rate: accepted fraction of unmonitored samples.
    pub fn fpr(&self) -> f64 {
        ratio(
            self.false_positives,
            self.false_positives + self.true_negatives,
        )
    }

    /// Precision: fraction of accepted samples that were monitored.
    pub fn precision(&self) -> f64 {
        ratio(
            self.true_positives,
            self.true_positives + self.false_positives,
        )
    }

    /// Recall (synonym of [`ConfusionCounts::tpr`]).
    pub fn recall(&self) -> f64 {
        self.tpr()
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// Total samples tallied.
    pub fn total(&self) -> usize {
        self.true_positives + self.false_positives + self.true_negatives + self.false_negatives
    }
}

fn ratio(num: usize, denom: usize) -> f64 {
    if denom == 0 {
        0.0
    } else {
        num as f64 / denom as f64
    }
}

/// One point of an ROC sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// The rejection threshold this point was evaluated at (for
    /// [`OpenWorldReport::for_rule`], an offset from the radius, rounded
    /// to `f32`).
    pub threshold: f32,
    /// True-positive rate at this threshold.
    pub tpr: f64,
    /// False-positive rate at this threshold.
    pub fpr: f64,
    /// Precision at this threshold.
    pub precision: f64,
}

/// Sweeps the rejection threshold over every distinct observed score
/// (plus a reject-everything point below the minimum) and reports
/// TPR/FPR/precision at each. Points are ordered by ascending
/// threshold, so TPR and FPR are non-decreasing along the curve.
pub fn roc_sweep(monitored: &[f32], unmonitored: &[f32]) -> Vec<RocPoint> {
    let widen = |scores: &[f32]| -> Vec<f64> { scores.iter().map(|&s| f64::from(s)).collect() };
    sweep(&widen(monitored), &widen(unmonitored))
}

/// [`roc_sweep`] over `f64` values. Rule offsets (`score − radius`) are
/// taken in `f64`, where the difference of two `f32`s is exact at any
/// realistic magnitude: in `f32`, scores far below the radius round to
/// one offset and merge ROC points, which moves the AUC.
fn sweep(monitored: &[f64], unmonitored: &[f64]) -> Vec<RocPoint> {
    let mut thresholds: Vec<f64> = monitored
        .iter()
        .chain(unmonitored)
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    thresholds.sort_by(f64::total_cmp);
    thresholds.dedup();
    // A reject-everything anchor so curves always start at (0, 0).
    let below = thresholds
        .first()
        .map_or(0.0, |&t| f64::from(strictly_below(t as f32)));
    thresholds.insert(0, below);
    let accepted = |scores: &[f64], t: f64| scores.iter().filter(|&&s| s <= t).count();
    thresholds
        .into_iter()
        .map(|t| {
            let c = ConfusionCounts::tally(
                accepted(monitored, t),
                monitored.len(),
                accepted(unmonitored, t),
                unmonitored.len(),
            );
            RocPoint {
                threshold: t as f32,
                tpr: c.tpr(),
                fpr: c.fpr(),
                precision: c.precision(),
            }
        })
        .collect()
}

/// The largest finite f32 strictly below `t`. `t - 1.0` alone rounds
/// back to `t` once |t| outgrows f32's integer precision (~2^24) —
/// squared-distance scores get there easily — which would duplicate
/// the anchor threshold and break the (0, 0) curve start.
fn strictly_below(t: f32) -> f32 {
    let cand = t - 1.0;
    if cand < t {
        cand
    } else {
        let bits = t.to_bits();
        f32::from_bits(if t > 0.0 { bits - 1 } else { bits + 1 })
    }
}

/// Area under the ROC curve via trapezoidal integration (0.5 =
/// chance-level separation, 1.0 = perfect).
pub fn roc_auc(points: &[RocPoint]) -> f64 {
    let mut auc = 0.0;
    for w in points.windows(2) {
        auc += (w[1].fpr - w[0].fpr) * (w[1].tpr + w[0].tpr) / 2.0;
    }
    // Close the curve to (1, 1) if the sweep stopped short.
    if let Some(last) = points.last() {
        auc += (1.0 - last.fpr) * (1.0 + last.tpr) / 2.0;
    }
    auc
}

/// Calibrates a rejection threshold as the `percentile` (0–100) of
/// held-out *monitored* outlier scores: a 95th-percentile threshold
/// accepts ~95% of monitored loads by construction, leaving the FPR to
/// the evaluation.
///
/// Non-finite scores are discarded before ranking. A NaN outlier score
/// (e.g. from a degenerate embedding) sorts *after* every finite value
/// under `total_cmp`, so without the filter a single NaN at a high
/// percentile would become the threshold itself — and since every
/// comparison against NaN is false, that threshold silently rejects
/// all traffic. `+inf` (the empty-index score) would do the same at
/// p=100. Returns `None` when no finite score remains.
///
/// **Percentile convention (pinned):** nearest-rank over the sorted
/// finite scores — `idx = round((p/100)·(n−1))`, with [`f64::round`]'s
/// half-away-from-zero tie handling, then the score at `idx`. The
/// returned threshold is therefore always one of the observed scores
/// (no interpolation); with `n = 2`, `p = 50` rounds *up* to the
/// larger score. The boundary tests in this module freeze these
/// semantics.
pub fn calibrate_threshold(monitored_scores: &[f32], percentile: f64) -> Option<f32> {
    let mut scores: Vec<f32> = monitored_scores
        .iter()
        .copied()
        .filter(|s| s.is_finite())
        .collect();
    if scores.is_empty() {
        return None;
    }
    scores.sort_by(f32::total_cmp);
    let idx = ((percentile.clamp(0.0, 100.0) / 100.0) * (scores.len() - 1) as f64).round() as usize;
    Some(scores[idx])
}

/// The open-world accept rule: an acceptance radius per monitored
/// class, calibrated from that class's held-out outlier scores, with a
/// global-percentile fallback for classes the calibration set
/// under-covers. A global threshold is the same rule with one shared
/// radius ([`PerClassThresholds::global`]).
///
/// Classes whose reference embeddings are tight can then reject
/// impostors that a single global threshold (sized for the loosest
/// class) would wave through. Decisions reduce to the global machinery
/// via *normalized scores*: `score - radius[predicted class]`, accepted
/// at `<= 0`, so ROC sweeps and confusion counts apply unchanged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PerClassThresholds {
    /// Acceptance radius per class id (fallback pre-substituted for
    /// under-covered classes).
    pub radii: Vec<f32>,
    /// The global-percentile radius used where per-class calibration
    /// had too few samples, and for queries with no prediction.
    pub fallback: f32,
}

impl PerClassThresholds {
    /// The global-threshold rule: every class, and every query, shares
    /// one acceptance radius.
    ///
    /// ```
    /// use tlsfp_core::open_world::PerClassThresholds;
    /// let rule = PerClassThresholds::global(2.0);
    /// assert!(rule.accepts(2.0, Some(7), 0.0));
    /// assert!(!rule.accepts(2.5, Some(0), 0.0));
    /// ```
    pub fn global(radius: f32) -> Self {
        PerClassThresholds {
            radii: Vec::new(),
            fallback: radius,
        }
    }

    /// The acceptance radius for a query predicted as `class`
    /// (`None` = empty prediction → fallback).
    pub fn radius_for(&self, class: Option<usize>) -> f32 {
        class
            .and_then(|c| self.radii.get(c))
            .copied()
            .unwrap_or(self.fallback)
    }

    /// The query's score normalized by its predicted class's radius:
    /// `<= 0` means accept. Feeding normalized scores to
    /// [`ConfusionCounts::at_threshold`] / [`roc_sweep`] at threshold 0
    /// evaluates the per-class detector with the global machinery.
    pub fn normalized(&self, score: f32, predicted: Option<usize>) -> f32 {
        score - self.radius_for(predicted)
    }

    /// The one accept rule: a query is accepted when some class was
    /// predicted, its score is finite, and the score clears the
    /// predicted class's radius with `margin` to spare
    /// (`score <= radius - margin`). Open-world fingerprinting and
    /// evaluation use `margin = 0`; the streaming early-stop policy
    /// passes its own.
    ///
    /// Non-finite scores never accept (NaN/∞ comparisons are false —
    /// the same convention calibration uses to filter poisoned scores),
    /// and neither does an empty prediction.
    pub fn accepts(&self, score: f32, predicted: Option<usize>, margin: f32) -> bool {
        // `normalized <= -margin` is false for NaN radii too.
        predicted.is_some() && score.is_finite() && self.normalized(score, predicted) <= -margin
    }
}

/// Calibrates per-class rejection radii from held-out *monitored*
/// scores labeled with their true class. A class's radius is the
/// `percentile` of its own scores when it has at least `min_samples`
/// of them; otherwise the global percentile over all scores. Returns
/// `None` when no finite score remains (non-finite scores are
/// discarded, exactly as in [`calibrate_threshold`], and do not count
/// toward a class's `min_samples` coverage — a class whose scores are
/// all NaN falls back to the global radius instead of adopting a
/// NaN-poisoned one).
///
/// # Panics
///
/// Panics if `scores` and `labels` lengths differ.
pub fn calibrate_per_class(
    scores: &[f32],
    labels: &[usize],
    n_classes: usize,
    percentile: f64,
    min_samples: usize,
) -> Option<PerClassThresholds> {
    assert_eq!(scores.len(), labels.len(), "score/label count");
    let fallback = calibrate_threshold(scores, percentile)?;
    let mut per_class: Vec<Vec<f32>> = vec![Vec::new(); n_classes];
    for (&s, &l) in scores.iter().zip(labels) {
        if l < n_classes && s.is_finite() {
            per_class[l].push(s);
        }
    }
    let radii = per_class
        .into_iter()
        .map(|class_scores| {
            if class_scores.len() >= min_samples.max(1) {
                calibrate_threshold(&class_scores, percentile).unwrap_or(fallback)
            } else {
                fallback
            }
        })
        .collect();
    Some(PerClassThresholds { radii, fallback })
}

/// The full open-world evaluation at one calibrated threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OpenWorldReport {
    /// The rejection threshold evaluated: the raw score threshold for
    /// [`OpenWorldReport::evaluate`], the rule's shared (fallback)
    /// radius for [`OpenWorldReport::for_rule`].
    pub threshold: f32,
    /// Accept/reject confusion counts at that threshold.
    pub counts: ConfusionCounts,
    /// Top-1 accuracy among *accepted monitored* samples (the
    /// closed-world question, asked only where the detector said
    /// "monitored"). 0 when nothing was accepted.
    pub accepted_top1: f64,
    /// The ROC sweep over all observed scores (for
    /// [`OpenWorldReport::for_rule`], over normalized scores, so each
    /// point's threshold is an offset from the calibrated radius).
    pub roc: Vec<RocPoint>,
}

impl OpenWorldReport {
    /// Builds a report from monitored scores (paired with whether the
    /// top-ranked prediction was correct) and unmonitored scores.
    ///
    /// # Panics
    ///
    /// Panics if `monitored` scores and `monitored_top1_correct`
    /// lengths differ.
    pub fn evaluate(
        monitored_scores: &[f32],
        monitored_top1_correct: &[bool],
        unmonitored_scores: &[f32],
        threshold: f32,
    ) -> Self {
        assert_eq!(
            monitored_scores.len(),
            monitored_top1_correct.len(),
            "score/correctness count"
        );
        let counts = ConfusionCounts::at_threshold(monitored_scores, unmonitored_scores, threshold);
        // Accepted monitored count is exactly `counts.true_positives`.
        let correct = monitored_scores
            .iter()
            .zip(monitored_top1_correct)
            .filter(|(&s, &c)| s <= threshold && c)
            .count();
        OpenWorldReport {
            threshold,
            counts,
            accepted_top1: ratio(correct, counts.true_positives),
            roc: roc_sweep(monitored_scores, unmonitored_scores),
        }
    }

    /// Evaluates an accept rule on scored predictions: `monitored`
    /// (with their true `labels`) and `unmonitored` loads, each
    /// accepted or rejected by [`PerClassThresholds::accepts`] at zero
    /// margin. The ROC sweeps each query's offset from its radius
    /// (`score − radius`, as [`PerClassThresholds::normalized`] but in
    /// `f64`), so a global rule's curve is the raw-score curve.
    ///
    /// # Panics
    ///
    /// Panics if `monitored` and `labels` lengths differ.
    pub fn for_rule(
        rule: &PerClassThresholds,
        monitored: &[ScoredPrediction],
        labels: &[usize],
        unmonitored: &[ScoredPrediction],
    ) -> Self {
        assert_eq!(monitored.len(), labels.len(), "prediction/label count");
        let accepted = |sp: &ScoredPrediction| rule.accepts(sp.score, sp.prediction.top(), 0.0);
        let tp = monitored.iter().filter(|sp| accepted(sp)).count();
        let fp = unmonitored.iter().filter(|sp| accepted(sp)).count();
        let correct = monitored
            .iter()
            .zip(labels)
            .filter(|&(sp, &label)| accepted(sp) && sp.prediction.top() == Some(label))
            .count();
        let offsets = |scored: &[ScoredPrediction]| -> Vec<f64> {
            scored
                .iter()
                .map(|sp| f64::from(sp.score) - f64::from(rule.radius_for(sp.prediction.top())))
                .collect()
        };
        OpenWorldReport {
            threshold: rule.fallback,
            counts: ConfusionCounts::tally(tp, monitored.len(), fp, unmonitored.len()),
            accepted_top1: ratio(correct, tp),
            roc: sweep(&offsets(monitored), &offsets(unmonitored)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-computed table: monitored scores {1, 2, 3, 10}, unmonitored
    // {4, 5, 20}. At threshold 4: TP = 3 (1,2,3), FN = 1 (10),
    // FP = 1 (4), TN = 2 (5,20).
    const MONITORED: [f32; 4] = [1.0, 2.0, 3.0, 10.0];
    const UNMONITORED: [f32; 3] = [4.0, 5.0, 20.0];

    #[test]
    fn confusion_counts_hand_computed() {
        let c = ConfusionCounts::at_threshold(&MONITORED, &UNMONITORED, 4.0);
        assert_eq!(c.true_positives, 3);
        assert_eq!(c.false_negatives, 1);
        assert_eq!(c.false_positives, 1);
        assert_eq!(c.true_negatives, 2);
        assert_eq!(c.total(), 7);
        assert!((c.tpr() - 0.75).abs() < 1e-12);
        assert!((c.fpr() - 1.0 / 3.0).abs() < 1e-12);
        assert!((c.precision() - 0.75).abs() < 1e-12);
        assert_eq!(c.recall(), c.tpr());
        let f1 = 2.0 * 0.75 * 0.75 / 1.5;
        assert!((c.f1() - f1).abs() < 1e-12);
    }

    #[test]
    fn threshold_extremes() {
        // Below every score: reject everything.
        let c = ConfusionCounts::at_threshold(&MONITORED, &UNMONITORED, 0.0);
        assert_eq!((c.true_positives, c.false_positives), (0, 0));
        assert_eq!(c.tpr(), 0.0);
        assert_eq!(c.fpr(), 0.0);
        assert_eq!(c.precision(), 0.0); // 0/0 convention
                                        // Above every score: accept everything.
        let c = ConfusionCounts::at_threshold(&MONITORED, &UNMONITORED, 100.0);
        assert_eq!(c.tpr(), 1.0);
        assert_eq!(c.fpr(), 1.0);
    }

    #[test]
    fn degenerate_all_monitored() {
        let c = ConfusionCounts::at_threshold(&MONITORED, &[], 4.0);
        assert_eq!(c.fpr(), 0.0); // no negatives: defined as 0
        assert!((c.tpr() - 0.75).abs() < 1e-12);
        assert_eq!(c.precision(), 1.0);
        let roc = roc_sweep(&MONITORED, &[]);
        assert!(roc.iter().all(|p| p.fpr == 0.0));
    }

    #[test]
    fn degenerate_all_unmonitored() {
        let c = ConfusionCounts::at_threshold(&[], &UNMONITORED, 4.0);
        assert_eq!(c.tpr(), 0.0);
        assert!((c.fpr() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.precision(), 0.0);
    }

    #[test]
    fn empty_reference_scores_reject_everything() {
        // An empty reference set yields infinite outlier scores; no
        // finite threshold accepts anything.
        let inf = [f32::INFINITY; 3];
        let c = ConfusionCounts::at_threshold(&inf, &inf, 1e30);
        assert_eq!(c.true_positives, 0);
        assert_eq!(c.false_positives, 0);
        assert_eq!(c.false_negatives, 3);
        assert_eq!(c.true_negatives, 3);
        // And the sweep has no finite-score points beyond the anchor.
        let roc = roc_sweep(&inf, &inf);
        assert_eq!(roc.len(), 1);
        assert_eq!(roc[0].tpr, 0.0);
    }

    #[test]
    fn roc_is_monotone_in_threshold() {
        let roc = roc_sweep(&MONITORED, &UNMONITORED);
        // One anchor + 7 distinct scores.
        assert_eq!(roc.len(), 8);
        for w in roc.windows(2) {
            assert!(w[1].threshold > w[0].threshold);
            assert!(w[1].tpr >= w[0].tpr, "TPR decreased: {roc:?}");
            assert!(w[1].fpr >= w[0].fpr, "FPR decreased: {roc:?}");
        }
        // Ends at accept-everything.
        let last = roc.last().unwrap();
        assert_eq!(last.tpr, 1.0);
        assert_eq!(last.fpr, 1.0);
        assert_eq!(roc[0].tpr, 0.0);
        assert_eq!(roc[0].fpr, 0.0);
    }

    #[test]
    fn roc_anchor_survives_large_score_magnitudes() {
        // Above ~2^24, `t - 1.0` rounds back to `t` in f32; the anchor
        // must still sit strictly below the smallest score so the
        // curve starts at (0, 0) with strictly increasing thresholds.
        let roc = roc_sweep(&[2.0e7, 6.0e7], &[4.0e7]);
        assert_eq!(roc.len(), 4);
        assert_eq!((roc[0].tpr, roc[0].fpr), (0.0, 0.0));
        for w in roc.windows(2) {
            assert!(w[1].threshold > w[0].threshold, "{roc:?}");
        }
    }

    #[test]
    fn auc_of_separable_scores_is_one() {
        // Monitored strictly below unmonitored: perfect separation.
        let roc = roc_sweep(&[1.0, 2.0], &[5.0, 6.0]);
        assert!((roc_auc(&roc) - 1.0).abs() < 1e-12);
        // Identical distributions: chance level.
        let roc = roc_sweep(&[1.0, 2.0], &[1.0, 2.0]);
        assert!((roc_auc(&roc) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn calibration_percentiles() {
        let scores = [1.0f32, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(calibrate_threshold(&scores, 0.0), Some(1.0));
        assert_eq!(calibrate_threshold(&scores, 50.0), Some(3.0));
        assert_eq!(calibrate_threshold(&scores, 100.0), Some(5.0));
        // Out-of-range percentiles clamp.
        assert_eq!(calibrate_threshold(&scores, 150.0), Some(5.0));
        assert_eq!(calibrate_threshold(&[], 95.0), None);
        // Unsorted input is handled.
        assert_eq!(calibrate_threshold(&[5.0, 1.0, 3.0], 100.0), Some(5.0));
    }

    #[test]
    fn calibration_filters_non_finite_scores() {
        // Regression: `total_cmp` orders NaN after every finite value,
        // so a single NaN outlier used to *become* any high-percentile
        // threshold — and since comparisons against NaN are all false,
        // that threshold rejected every trace.
        let scores = [1.0f32, 2.0, 3.0, 4.0, f32::NAN];
        let t = calibrate_threshold(&scores, 100.0).unwrap();
        assert!(t.is_finite());
        assert_eq!(t, 4.0);
        // +inf (the empty-index outlier score) and -inf are discarded
        // too.
        assert_eq!(calibrate_threshold(&[1.0, f32::INFINITY], 100.0), Some(1.0));
        assert_eq!(
            calibrate_threshold(&[2.0, f32::NEG_INFINITY], 0.0),
            Some(2.0)
        );
        // Nothing finite left → no calibration, not a NaN threshold.
        assert_eq!(calibrate_threshold(&[f32::NAN, f32::INFINITY], 95.0), None);
    }

    #[test]
    fn per_class_calibration_ignores_non_finite_scores() {
        // Class 0 carries a NaN tail (its finite scores still clear
        // min_samples); class 1 is all-NaN and must fall back to the
        // global radius instead of adopting a NaN-poisoned one.
        let scores = [1.0f32, 1.5, f32::NAN, f32::NAN, f32::NAN, 7.0, 8.0];
        let labels = [0usize, 0, 0, 1, 1, 2, 2];
        let t = calibrate_per_class(&scores, &labels, 3, 100.0, 2).unwrap();
        assert!(t.radii.iter().all(|r| r.is_finite()));
        assert_eq!(t.radii[0], 1.5);
        assert_eq!(t.radii[1], t.fallback);
        assert_eq!(t.radii[2], 8.0);
        assert_eq!(t.fallback, 8.0);
        // No finite score anywhere → no calibration.
        assert!(calibrate_per_class(&[f32::NAN], &[0], 1, 95.0, 1).is_none());
    }

    #[test]
    fn calibration_nearest_rank_boundaries() {
        // n = 1: every percentile returns the only score.
        for p in [0.0, 50.0, 95.0, 100.0] {
            assert_eq!(calibrate_threshold(&[3.5], p), Some(3.5));
        }
        // n = 2: idx = round(p/100), half-away-from-zero — p = 50
        // lands on the *upper* score.
        assert_eq!(calibrate_threshold(&[1.0, 2.0], 0.0), Some(1.0));
        assert_eq!(calibrate_threshold(&[1.0, 2.0], 49.9), Some(1.0));
        assert_eq!(calibrate_threshold(&[1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(calibrate_threshold(&[1.0, 2.0], 95.0), Some(2.0));
        assert_eq!(calibrate_threshold(&[1.0, 2.0], 100.0), Some(2.0));
        // Nearest-rank, never interpolation: the threshold is always an
        // observed score. p = 95 over n = 21: round(0.95·20) = 19.
        let scores: Vec<f32> = (0..21).map(|i| i as f32).collect();
        assert_eq!(calibrate_threshold(&scores, 95.0), Some(19.0));
        assert_eq!(
            calibrate_threshold(&[1.0, 2.0, 3.0, 4.0, 5.0], 95.0),
            Some(5.0)
        );
    }

    #[test]
    fn per_class_radii_calibrate_and_fall_back() {
        // Class 0 is tight (scores ~1), class 1 loose (scores ~10),
        // class 2 under-covered (one sample).
        let scores = [1.0f32, 1.1, 1.2, 9.0, 10.0, 11.0, 4.0];
        let labels = [0usize, 0, 0, 1, 1, 1, 2];
        let t = calibrate_per_class(&scores, &labels, 3, 100.0, 2).unwrap();
        assert_eq!(t.radii[0], 1.2);
        assert_eq!(t.radii[1], 11.0);
        // Class 2 has one sample < min_samples → global fallback.
        assert_eq!(t.radii[2], t.fallback);
        assert_eq!(t.fallback, 11.0);
        // An unlisted/empty prediction also falls back.
        assert_eq!(t.radius_for(None), t.fallback);
        assert_eq!(t.radius_for(Some(9)), t.fallback);
        // Normalization: a score of 2.0 predicted as the tight class 0
        // is rejected (> radius), as class 1 accepted.
        assert!(t.normalized(2.0, Some(0)) > 0.0);
        assert!(t.normalized(2.0, Some(1)) <= 0.0);
        // Empty table: no calibration.
        assert!(calibrate_per_class(&[], &[], 3, 95.0, 1).is_none());
    }

    #[test]
    fn per_class_radii_match_global_when_uniform() {
        // One class: per-class percentile == global percentile, so the
        // per-class detector degenerates to the global one exactly.
        let scores = [1.0f32, 2.0, 3.0, 4.0];
        let labels = [0usize; 4];
        let t = calibrate_per_class(&scores, &labels, 1, 50.0, 1).unwrap();
        let global = calibrate_threshold(&scores, 50.0).unwrap();
        assert_eq!(t.radii[0], global);
        for (&s, &l) in scores.iter().zip(&labels) {
            let accept_global = s <= global;
            let accept_per_class = t.accepts(s, Some(l), 0.0);
            assert_eq!(accept_global, accept_per_class);
        }
    }

    #[test]
    fn report_combines_detection_and_classification() {
        let correct = [true, true, false, true];
        let report = OpenWorldReport::evaluate(&MONITORED, &correct, &UNMONITORED, 4.0);
        assert_eq!(report.counts.true_positives, 3);
        // Accepted monitored: scores 1,2,3 → correct true,true,false.
        assert!((report.accepted_top1 - 2.0 / 3.0).abs() < 1e-12);
        assert!(!report.roc.is_empty());
        // Nothing accepted → accepted_top1 is 0, not NaN.
        let report = OpenWorldReport::evaluate(&MONITORED, &correct, &UNMONITORED, 0.0);
        assert_eq!(report.accepted_top1, 0.0);
    }
}
