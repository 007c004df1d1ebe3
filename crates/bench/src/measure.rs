//! The one measurement harness every timed runner in
//! [`crate::experiments`] goes through: run-once timing, warm-up plus
//! best-of-N, off/on paired alternation with medians, the host's core
//! count, top-1 labels through the kNN rank path (what the identity
//! flags compare), and the exact-vs-candidate search comparison.
//!
//! The warm-up and pass counts are each figure's own; the harness
//! takes them as arguments and adds no pass of its own.

use std::hint::black_box;
use std::time::Instant;

use tlsfp_core::knn::rank_search;
use tlsfp_index::{Neighbor, SearchResult};

/// Runs `f` once and returns its output with the seconds it took.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Runs `f` `warmup` times untimed, then `passes` (at least one) timed
/// times, and returns the last call's output with the fastest timed
/// pass in seconds — the minimum filters scheduler noise without
/// hiding systematic cost.
pub fn best_of<R>(warmup: usize, passes: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    for _ in 0..warmup {
        black_box(f());
    }
    let (mut out, mut best) = time(&mut f);
    for _ in 1..passes {
        let (next, secs) = time(&mut f);
        out = next;
        best = best.min(secs);
    }
    (out, best)
}

/// Medians of an off/on paired alternation ([`paired`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median seconds of the `off` runs.
    pub off_seconds: f64,
    /// Median seconds of the `on` runs.
    pub on_seconds: f64,
    /// Median of the per-pair `on / off` time ratios.
    pub ratio: f64,
}

/// Times `work` in `pairs` (at least one) back-to-back off/on pairs,
/// calling `set_mode(on)` untimed before each run; which mode leads
/// alternates pair to pair, off first. Both members of a pair share
/// the same frequency-scaling and scheduler environment, so load
/// bursts and thermal drift hit whole pairs and cancel out of the
/// per-pair ratio, and the median across pairs discards the pairs a
/// burst did split. Leaves the mode `on`. Runs `work` exactly
/// `2 × pairs` times — no warm-up of its own.
pub fn paired(pairs: usize, mut set_mode: impl FnMut(bool), mut work: impl FnMut()) -> Paired {
    let pairs = pairs.max(1);
    let mut off = Vec::with_capacity(pairs);
    let mut on = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let mut secs = [0.0f64; 2]; // indexed by mode
        for mode in [i % 2 == 1, i % 2 == 0] {
            set_mode(mode);
            secs[usize::from(mode)] = time(&mut work).1;
        }
        off.push(secs[0]);
        on.push(secs[1]);
        ratios.push(secs[1] / secs[0].max(1e-12));
    }
    set_mode(true);
    Paired {
        off_seconds: median(off),
        on_seconds: median(on),
        ratio: median(ratios),
    }
}

/// The upper median (`v[len / 2]` after sorting).
fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

/// Cores the host reports — throughput ratios across worker counts
/// only mean something relative to this.
pub fn available_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Each result's top-1 label through the kNN rank path
/// ([`rank_search`]) — the decisions the identity flags compare.
pub fn top1_labels(results: &[SearchResult]) -> Vec<Option<usize>> {
    results.iter().map(top1).collect()
}

fn top1(result: &SearchResult) -> Option<usize> {
    rank_search(result.clone()).prediction.top()
}

/// How a candidate search compares with the exact scan on the same
/// queries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Fraction of queries whose exact nearest neighbour the candidate
    /// returned at rank 1, under the caller's match rule.
    pub recall_at_1: f64,
    /// Fraction of queries where both searches vote the same top-1
    /// label through the kNN rank path.
    pub top1_agreement: f64,
    /// Total distance evaluations the exact scan spent.
    pub exact_evals: u64,
    /// Total distance evaluations the candidate spent.
    pub candidate_evals: u64,
}

/// Compares per-query `candidate` results against the `exact` ones.
/// `same_nearest(truth, got)` is the recall@1 rule: by id where both
/// searches share an id space, by distance bits where they do not.
pub fn compare(
    exact: &[SearchResult],
    candidate: &[SearchResult],
    same_nearest: impl Fn(&Neighbor, &Neighbor) -> bool,
) -> Comparison {
    let (mut hits, mut agree) = (0usize, 0usize);
    let (mut exact_evals, mut candidate_evals) = (0u64, 0u64);
    for (re, rc) in exact.iter().zip(candidate) {
        exact_evals += re.distance_evals;
        candidate_evals += rc.distance_evals;
        if let (Some(truth), Some(got)) = (re.top(), rc.top()) {
            hits += usize::from(same_nearest(&truth, &got));
        }
        agree += usize::from(top1(re) == top1(rc));
    }
    let n = exact.len().max(1) as f64;
    Comparison {
        recall_at_1: hits as f64 / n,
        top1_agreement: agree as f64 / n,
        exact_evals,
        candidate_evals,
    }
}
