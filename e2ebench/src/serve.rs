//! What every workload shares: the tally one pass over the traffic
//! produces, the accept rule, the split update path, the bit-identity
//! checks and the registry counters read around a pass.

use std::time::Instant;

use tlsfp_core::knn::ScoredPrediction;
use tlsfp_core::open_world::PerClassThresholds;
use tlsfp_core::pipeline::AdaptiveFingerprinter;
use tlsfp_nn::tensor::Rows;

use crate::setup::{Update, THREADS};
use crate::spans::Tracer;

/// Everything one pass over a workload's traffic measured. Quality
/// tallies and counts are exact; times are wall-clock.
#[derive(Default)]
pub struct Pass {
    /// Seconds of serving work throughput is measured over (idle waits
    /// excluded).
    pub busy_s: f64,
    /// Seconds of all timed work, reads and updates; the traced and
    /// untraced passes are compared on it.
    pub work_s: f64,
    /// Page loads that reached a decision.
    pub decided: usize,
    /// Per-decision latency, µs.
    pub latency_us: Vec<f64>,
    /// Per-`update_class` latency, µs.
    pub update_us: Vec<f64>,
    /// How late the generator started each request, µs (open loop only).
    pub lag_us: Vec<f64>,
    pub attempted: usize,
    pub failed: usize,
    /// Malformed pcaps injected, and how many the parser refused.
    pub injected: usize,
    pub refused: usize,
    /// Monitored loads decided; of them, top-1 correct and accepted.
    pub monitored: usize,
    pub correct: usize,
    pub accepted_monitored: usize,
    /// Unmonitored loads decided; of them, accepted.
    pub unmonitored: usize,
    pub accepted_unmonitored: usize,
    /// Σ over decided loads of the share of records consumed.
    pub consumed_share: f64,
    /// Pcaps parsed, their bytes and the tensor steps they produced.
    pub parsed: usize,
    pub pcap_bytes: usize,
    pub steps: usize,
    /// Loads through batch embedding and the batch search, outside
    /// updates.
    pub batched: usize,
    /// Traces embedded by updates.
    pub update_traces: usize,
    /// Streaming: sessions, records fed, `decide_now` calls, sessions
    /// that latched early and sessions settled by `finish_all`.
    pub sessions: usize,
    pub records_fed: usize,
    pub decides: usize,
    pub latched: usize,
    pub finished: usize,
    /// One entry per decided load, compared across passes.
    pub decisions: Vec<Decision>,
}

impl Pass {
    /// Tallies one decided load.
    pub fn decide(&mut self, label: Option<usize>, top: Option<usize>, accepted: bool, share: f64) {
        self.decided += 1;
        self.consumed_share += share;
        match label {
            Some(class) => {
                self.monitored += 1;
                self.correct += usize::from(top == Some(class));
                self.accepted_monitored += usize::from(accepted);
            }
            None => {
                self.unmonitored += 1;
                self.accepted_unmonitored += usize::from(accepted);
            }
        }
    }
}

/// A decision reduced to comparable bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    pub ranked: Vec<usize>,
    pub votes: Vec<usize>,
    pub score_bits: u32,
    pub accepted: bool,
    /// Records consumed (streaming), else 0.
    pub records: usize,
}

impl Decision {
    pub fn of(scored: &ScoredPrediction, accepted: bool) -> Self {
        Decision {
            ranked: scored.prediction.ranked.clone(),
            votes: scored.prediction.votes.clone(),
            score_bits: scored.score.to_bits(),
            accepted,
            records: 0,
        }
    }
}

/// Ranked labels, votes and score bits all equal.
pub fn same(a: &ScoredPrediction, b: &ScoredPrediction) -> bool {
    a.prediction.ranked == b.prediction.ranked
        && a.prediction.votes == b.prediction.votes
        && a.score.to_bits() == b.score.to_bits()
}

/// Stops the run: a failed check is never reported as a metric.
pub fn check_failed(what: &str) -> ! {
    eprintln!("correctness check failed: {what}");
    std::process::exit(1);
}

/// Runs `f` with telemetry off, so a check's calls never reach the
/// counters the pass is measured by.
pub fn unobserved<R>(f: impl FnOnce() -> R) -> R {
    tlsfp_telemetry::set_enabled(false);
    let out = f();
    tlsfp_telemetry::set_enabled(true);
    out
}

/// The per-class-radius accept rule.
pub fn accept(radii: &PerClassThresholds, scored: &ScoredPrediction) -> bool {
    radii.normalized(scored.score, scored.prediction.top()) <= 0.0
}

/// One adaptation through the front door (`update_class`) or, traced,
/// split into its layers: embed, then the store's `swap_class`.
/// Returns its time in seconds.
pub fn update(fp: &mut AdaptiveFingerprinter, u: &Update, t: &mut Tracer, pass: &mut Pass) -> f64 {
    let start = Instant::now();
    if t.is_on() {
        t.enter("update");
        let dim = fp.embedder().output_size();
        let rows = t.span("nn.embed_batch", || {
            fp.embedder()
                .embed_batch_with(&u.fresh, THREADS, |rows| rows.data().to_vec())
        });
        t.span("index.swap", || {
            fp.reference().swap_class(u.class, Rows::new(dim, &rows))
        });
        t.exit();
    } else if let Err(e) = fp.update_class(u.class, &u.fresh) {
        eprintln!("update_class({}) failed: {e}", u.class);
        pass.failed += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    pass.work_s += secs;
    pass.update_us.push(secs * 1e6);
    pass.update_traces += u.fresh.len();
    pass.attempted += 1;
    secs
}

/// The registry counters a pass is measured by.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub distance_evals: u64,
    pub sharded_queries: u64,
    pub embedded: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub read_locks: u64,
}

impl Counters {
    /// The current totals.
    pub fn now() -> Self {
        let snap = tlsfp_telemetry::global().snapshot();
        let get = |name: &str, labels: &[(&str, &str)]| snap.counter(name, labels).unwrap_or(0);
        let sharded = [("backend", "sharded")];
        Counters {
            distance_evals: get("tlsfp_distance_evals_total", &sharded),
            sharded_queries: get("tlsfp_queries_total", &sharded),
            embedded: get("tlsfp_embed_traces_total", &[]),
            cache_hits: get("tlsfp_embed_weight_cache_hits_total", &[]),
            cache_misses: get("tlsfp_embed_weight_cache_misses_total", &[]),
            read_locks: get("tlsfp_store_lock_acquisitions_total", &[("kind", "read")]),
        }
    }

    /// What accrued since `before`.
    pub fn since(self, before: Counters) -> Counters {
        Counters {
            distance_evals: self.distance_evals - before.distance_evals,
            sharded_queries: self.sharded_queries - before.sharded_queries,
            embedded: self.embedded - before.embedded,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
            read_locks: self.read_locks - before.read_locks,
        }
    }
}

/// The share of shard neighbours the merge keeps:
/// `k / Σₛ min(k, shard_len)` — 1 when one shard serves every query.
pub fn merge_keep_ratio(k: usize, shard_sizes: &[usize]) -> f64 {
    let gathered: usize = shard_sizes.iter().map(|&n| n.min(k)).sum();
    crate::stats::ratio(k.min(gathered) as f64, gathered as f64)
}

#[cfg(test)]
mod tests {
    use tlsfp_index::{IndexConfig, Metric, ShardedStore};

    use super::*;

    #[test]
    fn merge_keep_ratio_on_a_hand_built_layout() {
        // Four classes over two shards: class % 2 routes classes 0 and
        // 2 to shard 0 (5 rows) and classes 1 and 3 to shard 1 (2 rows).
        let labels = [0, 0, 2, 2, 2, 1, 3];
        let data: Vec<f32> = (0..labels.len()).map(|i| i as f32).collect();
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(1, &data),
            &labels,
            4,
            2,
        );
        let sizes = store.shard_sizes();
        assert_eq!(sizes, vec![5, 2]);
        // k = 3 gathers min(3,5) + min(3,2) = 5 neighbours, keeps 3.
        assert_eq!(merge_keep_ratio(3, &sizes), 0.6);
        // k = 250 gathers every row and keeps every row.
        assert_eq!(merge_keep_ratio(250, &sizes), 1.0);
        assert_eq!(merge_keep_ratio(250, &[1000]), 1.0);
        // 45 full shards at k = 250 keep one neighbour in 45.
        assert!((merge_keep_ratio(250, &[400; 45]) - 1.0 / 45.0).abs() < 1e-12);
        assert_eq!(merge_keep_ratio(5, &[]), 0.0);
    }
}
