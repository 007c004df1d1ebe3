//! Telemetry regression tests: the observability layer must be a pure
//! observer. Decisions, score bits and open-world reports are
//! bit-identical with recording on or off, at every worker count; the
//! gauges/counters themselves track store state and churn faithfully.
//!
//! The enabled flag and the registry are process-wide, so every test
//! here serializes on one mutex — fixtures included, since building one
//! serves queries that would land in another test's counters — and
//! restores recording on exit (other test binaries never toggle the
//! flag).

use std::sync::{Mutex, MutexGuard, PoisonError};

use tlsfp::index::sharded::ShardedStore;
use tlsfp::index::{IndexConfig, Metric, Rows};

static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

/// Holds the telemetry lock and restores recording on drop — a panic
/// mid-test cannot leak a disabled flag into later tests.
struct FlagGuard<'a> {
    _lock: MutexGuard<'a, ()>,
}

impl FlagGuard<'_> {
    fn acquire() -> Self {
        FlagGuard {
            _lock: TELEMETRY_LOCK
                .lock()
                .unwrap_or_else(PoisonError::into_inner),
        }
    }
}

impl Drop for FlagGuard<'_> {
    fn drop(&mut self) {
        tlsfp::telemetry::set_enabled(true);
    }
}

/// Clustered labeled rows: `classes` groups of `per_class` points.
fn clustered(classes: usize, per_class: usize, dim: usize) -> (Vec<f32>, Vec<usize>) {
    let mut data = Vec::new();
    let mut labels = Vec::new();
    for c in 0..classes {
        for j in 0..per_class {
            for d in 0..dim {
                data.push(c as f32 * 3.0 + j as f32 * 0.01 + d as f32 * 0.001);
            }
            labels.push(c);
        }
    }
    (data, labels)
}

/// The acceptance-criteria pin: the full serving path — calibration,
/// closed-world ranking, score bits, open-world accept/reject and the
/// evaluation report — produces the same bits with telemetry on and
/// off, at query workers 1, 4 and 0 (auto).
#[test]
fn decisions_and_scores_bit_identical_with_telemetry_on_and_off() {
    let _guard = FlagGuard::acquire();
    let adversary = tlsfp_testkit::tiny_adversary();
    let profiles = tlsfp_testkit::Profile::ALL;
    let ds = tlsfp_testkit::open_world_profile_dataset(profiles[0]);
    let (reference, test) = ds.split_per_class(0.25, tlsfp_testkit::SEED);
    let unmonitored = tlsfp_testkit::open_world_profile_dataset(profiles[1])
        .split_per_class(0.25, tlsfp_testkit::SEED)
        .1;

    let mut fp = adversary.clone();
    fp.set_shards(4);
    fp.set_reference(&reference)
        .expect("profile reference fits");

    let mut outcomes = Vec::new();
    for telemetry_on in [true, false] {
        tlsfp::telemetry::set_enabled(telemetry_on);
        let threshold = fp
            .calibrate_rejection_threshold(&test, 90.0)
            .expect("calibration on non-empty test split");
        for workers in [1usize, 4, 0] {
            let mut fp_w = fp.clone();
            fp_w.set_query_workers(workers);
            let decisions = fp_w.fingerprint_all(&test);
            let scored = fp_w.fingerprint_with_score_all(&test);
            let score_bits: Vec<u32> = scored.iter().map(|sp| sp.score.to_bits()).collect();
            let accepts: Vec<bool> = scored
                .iter()
                .map(|sp| threshold.accepts(sp.score, sp.prediction.top(), 0.0))
                .collect();
            let report = fp_w.evaluate_open_world(&test, &unmonitored, &threshold);
            outcomes.push((
                telemetry_on,
                workers,
                threshold.fallback.to_bits(),
                decisions,
                score_bits,
                accepts,
                report,
            ));
        }
    }
    let baseline = &outcomes[0];
    for (on, workers, threshold_bits, decisions, score_bits, accepts, report) in &outcomes[1..] {
        let at = format!("telemetry={on} workers={workers}");
        assert_eq!(
            threshold_bits, &baseline.2,
            "{at}: calibrated threshold bits changed"
        );
        assert_eq!(
            decisions, &baseline.3,
            "{at}: closed-world decisions changed"
        );
        assert_eq!(score_bits, &baseline.4, "{at}: score bits changed");
        assert_eq!(
            accepts, &baseline.5,
            "{at}: open-world accept/reject changed"
        );
        assert_eq!(report, &baseline.6, "{at}: open-world report changed");
    }
}

/// Per-shard row gauges, the store-level balance gauges and the
/// mutation counter all move with churn, and both exporters carry
/// them.
#[test]
fn shard_gauges_track_churn_and_export() {
    let _guard = FlagGuard::acquire();
    tlsfp::telemetry::set_enabled(true);

    let (data, labels) = clustered(6, 4, 2);
    let store = ShardedStore::build(
        &IndexConfig::Flat,
        Metric::Euclidean,
        Rows::new(2, &data),
        &labels,
        6,
        3,
    );
    let snap = tlsfp::telemetry::global().snapshot();
    for s in 0..3 {
        assert_eq!(
            snap.gauge("tlsfp_shard_rows", &[("shard", &s.to_string())]),
            Some(store.shard_len(s) as f64),
            "shard {s} row gauge after build"
        );
    }
    assert_eq!(
        snap.gauge("tlsfp_store_rows", &[]),
        Some(store.len() as f64)
    );
    assert_eq!(snap.gauge("tlsfp_store_shards", &[]), Some(3.0));

    // Class 4 lives on shard 1 (4 % 3); removing it drains 4 rows from
    // that shard's gauge and bumps the mutation counter.
    let mutations_before = snap
        .counter("tlsfp_store_mutations_total", &[])
        .unwrap_or(0);
    assert_eq!(store.remove_class(4), 4);
    let snap = tlsfp::telemetry::global().snapshot();
    assert_eq!(
        snap.gauge("tlsfp_shard_rows", &[("shard", "1")]),
        Some(store.shard_len(1) as f64),
        "shard 1 gauge follows remove_class"
    );
    assert_eq!(
        snap.gauge("tlsfp_store_rows", &[]),
        Some(store.len() as f64)
    );
    assert!(
        snap.counter("tlsfp_store_mutations_total", &[])
            .unwrap_or(0)
            > mutations_before,
        "mutation counter did not advance"
    );
    assert!(
        snap.gauge("tlsfp_store_shard_skew", &[]).unwrap_or(0.0) >= 1.0,
        "skew gauge should report >= 1.0 on a populated store"
    );

    // Serving through the concurrent front door records the sharded
    // backend counters and the fan-out stage spans.
    let queries: Vec<Vec<f32>> = (0..6).map(|c| vec![c as f32 * 3.0 + 0.004; 2]).collect();
    let before = tlsfp::telemetry::global().snapshot();
    let sharded_before = before
        .counter("tlsfp_queries_total", &[("backend", "sharded")])
        .unwrap_or(0);
    let results = store.search_batch_concurrent(&queries, 3, 2);
    assert_eq!(results.len(), queries.len());
    let after = tlsfp::telemetry::global().snapshot();
    assert_eq!(
        after
            .counter("tlsfp_queries_total", &[("backend", "sharded")])
            .unwrap_or(0),
        sharded_before + queries.len() as u64,
        "one merged sharded query per trace"
    );
    let fanout = after
        .histogram("tlsfp_stage_duration_ns", &[("stage", "fanout")])
        .expect("fan-out stage span recorded");
    assert!(fanout.count > 0);

    // Both exporters carry the gauges.
    let text = after.prometheus();
    assert!(text.contains("# TYPE tlsfp_shard_rows gauge"));
    assert!(text.contains("tlsfp_store_shard_skew"));
    let json = serde_json::to_string(&after).expect("snapshot serializes");
    assert!(json.contains("tlsfp_shard_rows"));
}

/// Every front door — `search_concurrent` at one and two workers and
/// the batch fan-out — takes the one fan-out and merge path at every shard
/// count, so the `backend="sharded"` query/eval counters advance by
/// exactly the same amount on an S=1 store as on an S=4 store over the
/// same rows (a flat backend scans every row either way, so the eval
/// totals match too). A single query runs each shard's scan kernel as a
/// block of one.
#[test]
fn sharded_counters_agree_between_one_and_four_shards() {
    let _guard = FlagGuard::acquire();
    tlsfp::telemetry::set_enabled(true);

    let (data, labels) = clustered(8, 5, 3);
    let queries: Vec<Vec<f32>> = (0..7).map(|c| vec![c as f32 * 3.0 + 0.004; 3]).collect();
    let mut deltas = Vec::new();
    for shards in [1usize, 4] {
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            Rows::new(3, &data),
            &labels,
            8,
            shards,
        );
        let flat_blocks = || {
            tlsfp::telemetry::global()
                .snapshot()
                .histogram("tlsfp_query_block_size", &[("backend", "flat")])
                .map_or((0, 0), |h| (h.count, h.sum))
        };
        let before = tlsfp::telemetry::global().snapshot();
        let q_before = before
            .counter("tlsfp_queries_total", &[("backend", "sharded")])
            .unwrap_or(0);
        let e_before = before
            .counter("tlsfp_distance_evals_total", &[("backend", "sharded")])
            .unwrap_or(0);
        let (blocks_before, block_sum_before) = flat_blocks();
        store.search_concurrent(&queries[0], 3, 1);
        store.search_concurrent(&queries[1], 3, 2);
        // A single query runs every shard's scan kernel as a block of
        // one: 2 × S observations of size 1.
        let (blocks, block_sum) = flat_blocks();
        let want = 2 * shards as u64;
        assert_eq!(blocks - blocks_before, want, "S={shards} block count");
        assert_eq!(block_sum - block_sum_before, want, "S={shards} block sizes");
        store.search_batch_concurrent(&queries, 3, 2);
        let after = tlsfp::telemetry::global().snapshot();
        deltas.push((
            shards,
            after
                .counter("tlsfp_queries_total", &[("backend", "sharded")])
                .unwrap_or(0)
                - q_before,
            after
                .counter("tlsfp_distance_evals_total", &[("backend", "sharded")])
                .unwrap_or(0)
                - e_before,
        ));
    }
    let (_, q1, e1) = deltas[0];
    let (_, q4, e4) = deltas[1];
    // 2 single queries + the 7-query batch, on every path.
    assert_eq!(q1, 2 + queries.len() as u64, "S=1 query counter delta");
    assert_eq!(q1, q4, "query counters diverge between S=1 and S=4");
    // Flat scans every stored row per query, merged or not.
    assert_eq!(
        e1,
        (2 + queries.len() as u64) * labels.len() as u64,
        "S=1 eval counter delta"
    );
    assert_eq!(e1, e4, "eval counters diverge between S=1 and S=4");

    // The blocked scan records its per-backend block-size histogram on
    // the inner (flat) backend for both shard counts.
    let snap = tlsfp::telemetry::global().snapshot();
    let blocks = snap
        .histogram("tlsfp_query_block_size", &[("backend", "flat")])
        .expect("block-size histogram recorded");
    assert!(blocks.count > 0, "no blocked-scan blocks observed");
}

/// `add_class` is one swap into a fresh class: the mutation counter
/// advances by exactly one, and the store equals adding the class's
/// embeddings row by row (same rows, ids and order — IVF lists too).
#[test]
fn add_class_is_one_mutation_equal_to_row_by_row_adds() {
    let _guard = FlagGuard::acquire();
    tlsfp::telemetry::set_enabled(true);
    let mut fp = tlsfp_testkit::tiny_adversary();
    fp.set_index(IndexConfig::ivf_default());
    let (_, test) = tlsfp_testkit::tiny_split();
    let traces = &test.seqs()[..3];
    let row_by_row = fp.reference().clone();
    let class = row_by_row.allocate_class();
    for e in fp.embed_all(traces) {
        row_by_row.add_row(class, &e);
    }
    let mutations = || {
        tlsfp::telemetry::global()
            .snapshot()
            .counter("tlsfp_store_mutations_total", &[])
            .unwrap_or(0)
    };
    let before = mutations();
    assert_eq!(fp.add_class(traces).unwrap(), class);
    assert_eq!(mutations() - before, 1, "one mutation per add_class");
    assert_eq!(*fp.reference(), row_by_row);
}

/// Streaming fixtures for the telemetry on/off comparisons: the cached
/// adversary, a calibrated early-stop policy, and two real captures.
/// Callers hold the flag lock while building it, like every fixture.
fn streaming_fixture() -> (
    tlsfp::core::AdaptiveFingerprinter,
    tlsfp::core::EarlyStopPolicy,
    Vec<tlsfp::net::capture::Capture>,
) {
    let fp = tlsfp_testkit::tiny_adversary();
    let (_, test) = tlsfp_testkit::tiny_split();
    let radii = fp
        .calibrate_rejection_radii(&test, 90.0, 2)
        .expect("calibration on non-empty test split");
    let policy = tlsfp::core::EarlyStopPolicy::new(radii, 0.0, 2);
    let captures = tlsfp::web::corpus::SyntheticCorpus::generate(
        &tlsfp_testkit::Profile::Wiki.spec(3, 2),
        tlsfp_testkit::SEED,
    )
    .expect("wiki corpus generates")
    .traces
    .into_iter()
    .take(2)
    .map(|lc| lc.capture)
    .collect();
    (fp, policy, captures)
}

/// The tentpole's observability pin: the whole streaming path — prefix
/// decisions, early-stop latches, score bits, finish — is bit-identical
/// with telemetry on and off, at query workers 1, 4 and 0 (auto). The
/// new time/fraction histograms must never perturb a decision.
#[test]
fn streaming_decisions_bit_identical_with_telemetry_on_and_off() {
    use tlsfp::trace::tensorize::TensorConfig;

    let _guard = FlagGuard::acquire();
    let (fp, policy, captures) = streaming_fixture();

    let mut outcomes = Vec::new();
    for telemetry_on in [true, false] {
        tlsfp::telemetry::set_enabled(telemetry_on);
        for workers in [1usize, 4, 0] {
            let mut fp_w = fp.clone();
            fp_w.set_query_workers(workers);
            let mut trail = Vec::new();
            for capture in &captures {
                let mut session = fp_w.start_session(TensorConfig::wiki(), capture.client);
                for chunk in capture.packets.chunks(4) {
                    fp_w.feed_chunk(&mut session, chunk);
                    let d = fp_w.decide_now(&mut session, Some(&policy));
                    trail.push((
                        d.scored.prediction.ranked.clone(),
                        d.scored.score.to_bits(),
                        d.prefix_steps,
                        d.accepted,
                        d.decision,
                    ));
                }
                let early = session
                    .early_decision()
                    .map(|e| (e.class, e.prefix_steps, e.records, e.score.to_bits()));
                let finished = fp_w.finish(session);
                trail.push((
                    finished.prediction.ranked.clone(),
                    finished.score.to_bits(),
                    early.map_or(0, |e| e.1),
                    early.is_some(),
                    early.map(|e| e.0),
                ));
            }
            outcomes.push((telemetry_on, workers, trail));
        }
    }
    let baseline = &outcomes[0].2;
    for (on, workers, trail) in &outcomes[1..] {
        assert_eq!(
            trail, baseline,
            "telemetry={on} workers={workers}: streaming outcomes changed"
        );
    }
}

/// The two streaming metrics land in the registry when recording is on
/// — time-to-decision for both latched and never-latched sessions, and
/// the consumed-prefix fraction in permille — and nothing lands when
/// recording is off.
#[test]
fn streaming_metrics_record_only_when_enabled() {
    use tlsfp::trace::tensorize::TensorConfig;

    let _guard = FlagGuard::acquire();
    let (fp, policy, captures) = streaming_fixture();
    let run = |fp: &tlsfp::core::AdaptiveFingerprinter, with_policy: bool| {
        for capture in &captures {
            let mut session = fp.start_session(TensorConfig::wiki(), capture.client);
            fp.feed_chunk(&mut session, &capture.packets);
            fp.decide_now(&mut session, with_policy.then_some(&policy));
            fp.finish(session);
        }
    };

    tlsfp::telemetry::set_enabled(true);
    tlsfp::telemetry::reset();
    run(&fp, true); // may latch (records time at the latch)
    run(&fp, false); // never latches (records time at finish)
    let snap = tlsfp::telemetry::global().snapshot();
    let ttd = snap
        .histogram("tlsfp_time_to_decision_ns", &[])
        .expect("time-to-decision histogram recorded");
    assert_eq!(
        ttd.count,
        2 * captures.len() as u64,
        "one time-to-decision observation per session"
    );
    let frac = snap
        .histogram("tlsfp_prefix_fraction", &[])
        .expect("prefix-fraction histogram recorded");
    assert_eq!(
        frac.count,
        2 * captures.len() as u64,
        "one prefix-fraction observation per finished session"
    );

    tlsfp::telemetry::set_enabled(false);
    tlsfp::telemetry::reset();
    run(&fp, true);
    run(&fp, false);
    let snap = tlsfp::telemetry::global().snapshot();
    if let Some(h) = snap.histogram("tlsfp_time_to_decision_ns", &[]) {
        assert_eq!(h.count, 0, "time-to-decision recorded while disabled");
    }
    if let Some(h) = snap.histogram("tlsfp_prefix_fraction", &[]) {
        assert_eq!(h.count, 0, "prefix fraction recorded while disabled");
    }
}

/// With recording off, the serving path still works but nothing lands
/// in the registry — values stay wherever they were (here: zero, after
/// a reset).
#[test]
fn disabled_telemetry_records_nothing() {
    let _guard = FlagGuard::acquire();
    tlsfp::telemetry::set_enabled(false);
    tlsfp::telemetry::reset();

    let (data, labels) = clustered(4, 3, 2);
    let store = ShardedStore::build(
        &IndexConfig::Flat,
        Metric::Euclidean,
        Rows::new(2, &data),
        &labels,
        4,
        2,
    );
    store.remove_class(3);
    let queries: Vec<Vec<f32>> = (0..4).map(|c| vec![c as f32 * 3.0; 2]).collect();
    let results = store.search_batch_concurrent(&queries, 2, 2);
    assert_eq!(results.len(), queries.len(), "serving path unaffected");

    let snap = tlsfp::telemetry::global().snapshot();
    assert_eq!(
        snap.counter("tlsfp_store_mutations_total", &[])
            .unwrap_or(0),
        0,
        "mutation counter recorded while disabled"
    );
    assert_eq!(
        snap.counter("tlsfp_queries_total", &[("backend", "sharded")])
            .unwrap_or(0),
        0,
        "query counter recorded while disabled"
    );
    assert_eq!(
        snap.gauge("tlsfp_shard_rows", &[("shard", "0")])
            .unwrap_or(0.0),
        0.0,
        "shard gauge recorded while disabled"
    );
    if let Some(h) = snap.histogram("tlsfp_stage_duration_ns", &[("stage", "fanout")]) {
        assert_eq!(h.count, 0, "stage span recorded while disabled");
    }
}

/// The on/off pin for a store whose shard keeps pruning lists (720 rows
/// at build): full results — neighbors, `nearest` bits and
/// `distance_evals` — are the same with recording on and off at every
/// worker count, and only recording observes
/// `tlsfp_flat_rows_scored_ratio`, once per query, in permille.
#[test]
fn multi_list_results_bit_identical_with_telemetry_on_and_off() {
    let _guard = FlagGuard::acquire();
    let (data, labels) = clustered(12, 60, 4);
    let store = ShardedStore::build(
        &IndexConfig::Flat,
        Metric::Euclidean,
        Rows::new(4, &data),
        &labels,
        12,
        1,
    );
    let queries: Vec<Vec<f32>> = (0..12).map(|c| vec![c as f32 * 3.0 + 0.3; 4]).collect();
    let scored = || {
        tlsfp::telemetry::global()
            .snapshot()
            .histogram("tlsfp_flat_rows_scored_ratio", &[])
            .map_or((0, 0), |h| (h.count, h.sum))
    };
    // Every result by bits: neighbors, `nearest`, evals.
    let bits = |rs: &[tlsfp::index::SearchResult]| {
        rs.iter()
            .map(|r| {
                let n = r.neighbors.iter();
                let n: Vec<_> = n.map(|n| (n.dist.to_bits(), n.id, n.label)).collect();
                (n, r.nearest.to_bits(), r.distance_evals)
            })
            .collect::<Vec<_>>()
    };
    let mut outcomes = Vec::new();
    for telemetry_on in [true, false] {
        tlsfp::telemetry::set_enabled(telemetry_on);
        for workers in [1usize, 2, 0] {
            let (count_before, sum_before) = scored();
            let results = store.search_batch_concurrent(&queries, 25, workers);
            let (count, sum) = scored();
            let observed = if telemetry_on {
                queries.len() as u64
            } else {
                0
            };
            assert_eq!(count - count_before, observed, "on={telemetry_on}");
            assert!(sum - sum_before <= 1000 * observed);
            outcomes.push(bits(&results));
        }
    }
    assert!(outcomes.iter().all(|o| *o == outcomes[0]));
    // The pruned scan skipped rows: fewer evals than rows on a query.
    assert!(outcomes[0]
        .iter()
        .any(|(_, _, evals)| *evals < labels.len() as u64));
}
