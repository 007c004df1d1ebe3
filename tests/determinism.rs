//! Determinism regression tests: parallelism must never change results,
//! and fixed seeds must reproduce them exactly.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use tlsfp::core::knn::{rank_search, ScoredPrediction};
use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::index::sharded::ShardedStore;
use tlsfp::index::{FlatIndex, IndexConfig, Metric, Rows, VectorIndex};

/// A seeded reference set of `n` embeddings over `classes` classes, as
/// `(row-major data, labels)`.
fn synthetic_reference(n: usize, classes: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<usize>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::with_capacity(n * dim);
    let mut labels = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % classes;
        // Class-dependent mean keeps the problem non-degenerate.
        let center = class as f32 / classes as f32;
        data.extend((0..dim).map(|_| center + rng.random_range(-0.1f32..0.1)));
        labels.push(class);
    }
    (data, labels)
}

#[test]
fn classify_all_is_identical_across_thread_counts() {
    let (data, labels) = synthetic_reference(200, 10, 16, 42);
    let rows = Rows::new(16, &data);
    let mut rng = StdRng::seed_from_u64(43);
    let queries: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..16).map(|_| rng.random_range(0f32..1.0)).collect())
        .collect();

    // The exact oracle's batch scan, and the serving store's fan-out
    // at one and several shards, all ranked by the one vote.
    let rank = |results: Vec<_>| -> Vec<ScoredPrediction> {
        results.into_iter().map(rank_search).collect()
    };
    let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
    let single = rank(flat.search_batch(&queries, 7, 1));
    assert_eq!(
        single,
        rank(flat.search_batch(&queries, 7, 8)),
        "kNN rankings must not depend on the thread count"
    );
    for shards in [1usize, 4] {
        let store = ShardedStore::build(
            &IndexConfig::Flat,
            Metric::Euclidean,
            rows,
            &labels,
            10,
            shards,
        );
        for workers in [1usize, 8] {
            assert_eq!(
                single,
                rank(store.search_batch_concurrent(&queries, 7, workers)),
                "store rankings diverged at shards={shards} workers={workers}"
            );
        }
    }
}

#[test]
fn evaluation_is_identical_across_thread_counts() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let (_, test) = tlsfp_testkit::tiny_split();

    let mut one = adversary.clone();
    one.set_threads(1);
    let mut eight = adversary.clone();
    eight.set_threads(8);

    let r1 = one.evaluate(&test);
    let r8 = eight.evaluate(&test);
    for n in 1..=test.n_classes() {
        assert_eq!(r1.top_n_accuracy(n), r8.top_n_accuracy(n), "top-{n}");
    }
}

#[test]
fn open_world_evaluation_is_identical_across_thread_counts() {
    let fx = tlsfp_testkit::tiny_open_world();
    let mut outcomes = Vec::new();
    for threads in [1usize, 4, 0] {
        let mut fp = fx.fingerprinter.clone();
        fp.set_threads(threads);
        // Batch accept/reject decisions on the scored path.
        let decisions: Vec<bool> = fp
            .fingerprint_with_score_all(&fx.monitored_test)
            .iter()
            .map(|sp| fx.threshold.accepts(sp.score, sp.prediction.top(), 0.0))
            .collect();
        // Full evaluation: counts, accepted-top-1 and every ROC point.
        let report = fp.evaluate_open_world(&fx.monitored_test, &fx.unmonitored, &fx.threshold);
        outcomes.push((threads, decisions, report));
    }
    for (threads, decisions, report) in &outcomes[1..] {
        assert_eq!(
            decisions, &outcomes[0].1,
            "accept/reject decisions changed with {threads} threads"
        );
        assert_eq!(
            report, &outcomes[0].2,
            "open-world report (incl. ROC points) changed with {threads} threads"
        );
    }
    // The fixture threshold itself recalibrates identically in parallel.
    let mut fp = fx.fingerprinter.clone();
    fp.set_threads(4);
    assert_eq!(
        fp.calibrate_rejection_threshold(&fx.monitored_test, 95.0)
            .unwrap(),
        fx.threshold
    );
}

/// Query-worker invariance across all five scenario profiles, closed-
/// and open-world: the concurrent shard fan-out (`fingerprint_all` /
/// `search_batch_concurrent`) must produce bit-identical decisions and
/// score bits at every worker count, including `0` (auto), which
/// resolves through `TLSFP_THREADS` / available cores.
#[test]
fn decisions_and_scores_identical_across_query_worker_counts() {
    let adversary = tlsfp_testkit::tiny_adversary();
    let profiles = tlsfp_testkit::Profile::ALL;
    for (pi, &profile) in profiles.iter().enumerate() {
        let ds = tlsfp_testkit::open_world_profile_dataset(profile);
        let (reference, test) = ds.split_per_class(0.25, tlsfp_testkit::SEED);
        // Traces from a different profile stand in for unmonitored
        // pages; only score distributions matter for the report.
        let unmonitored =
            tlsfp_testkit::open_world_profile_dataset(profiles[(pi + 1) % profiles.len()])
                .split_per_class(0.25, tlsfp_testkit::SEED)
                .1;

        let mut fp = adversary.clone();
        fp.set_shards(4);
        fp.set_reference(&reference)
            .expect("profile reference fits");
        let threshold = fp
            .calibrate_rejection_threshold(&test, 90.0)
            .expect("calibration on non-empty test split");

        let mut outcomes = Vec::new();
        for workers in [1usize, 4, 0] {
            let mut fp_w = fp.clone();
            fp_w.set_query_workers(workers);
            // Closed world: ranked decisions via the batch front door.
            let decisions = fp_w.fingerprint_all(&test);
            // Score bits on the scored path, plus open-world
            // accept/reject at the calibrated threshold.
            let scored = fp_w.fingerprint_with_score_all(&test);
            let score_bits: Vec<u32> = scored.iter().map(|sp| sp.score.to_bits()).collect();
            let accepts: Vec<bool> = scored
                .iter()
                .map(|sp| threshold.accepts(sp.score, sp.prediction.top(), 0.0))
                .collect();
            let report = fp_w.evaluate_open_world(&test, &unmonitored, &threshold);
            outcomes.push((workers, decisions, score_bits, accepts, report));
        }
        let baseline = &outcomes[0];
        for (workers, decisions, score_bits, accepts, report) in &outcomes[1..] {
            assert_eq!(
                decisions, &baseline.1,
                "{profile:?}: closed-world decisions changed at {workers} query workers"
            );
            assert_eq!(
                score_bits, &baseline.2,
                "{profile:?}: score bits changed at {workers} query workers"
            );
            assert_eq!(
                accepts, &baseline.3,
                "{profile:?}: open-world accept/reject changed at {workers} query workers"
            );
            assert_eq!(
                report, &baseline.4,
                "{profile:?}: open-world report changed at {workers} query workers"
            );
        }
    }
}

/// The same query-worker invariance holds when every shard serves
/// from a product-quantized index: the ADC scan, candidate selection
/// and exact re-rank are all deterministic, so decisions, score bits
/// and the open-world report must stay bit-identical at every worker
/// count — including `0` (auto).
#[test]
fn pq_backed_decisions_and_scores_identical_across_query_worker_counts() {
    use tlsfp::index::IndexConfig;

    let adversary = tlsfp_testkit::tiny_adversary();
    // One profile keeps the codebook training inside tier-1 budget;
    // the all-profile sweep above already covers the default backend.
    let profile = tlsfp_testkit::Profile::ALL[0];
    let ds = tlsfp_testkit::open_world_profile_dataset(profile);
    let (reference, test) = ds.split_per_class(0.25, tlsfp_testkit::SEED);
    let unmonitored = tlsfp_testkit::open_world_profile_dataset(tlsfp_testkit::Profile::ALL[1])
        .split_per_class(0.25, tlsfp_testkit::SEED)
        .1;

    let mut fp = adversary.clone();
    fp.set_shards(4);
    fp.set_index(IndexConfig::pq_default());
    fp.set_reference(&reference)
        .expect("profile reference fits");
    let threshold = fp
        .calibrate_rejection_threshold(&test, 90.0)
        .expect("calibration on non-empty test split");

    let mut outcomes = Vec::new();
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
        outcomes.push((workers, decisions, score_bits, accepts, report));
    }
    let baseline = &outcomes[0];
    for (workers, decisions, score_bits, accepts, report) in &outcomes[1..] {
        assert_eq!(
            decisions, &baseline.1,
            "PQ store: closed-world decisions changed at {workers} query workers"
        );
        assert_eq!(
            score_bits, &baseline.2,
            "PQ store: score bits changed at {workers} query workers"
        );
        assert_eq!(
            accepts, &baseline.3,
            "PQ store: open-world accept/reject changed at {workers} query workers"
        );
        assert_eq!(
            report, &baseline.4,
            "PQ store: open-world report changed at {workers} query workers"
        );
    }
}

#[test]
fn seeded_provisioning_reproduces_top1_accuracy() {
    let (reference, test) = tlsfp_testkit::tiny_split();
    let cfg = tlsfp_testkit::tiny_pipeline();

    let a = AdaptiveFingerprinter::provision(&reference, &cfg, tlsfp_testkit::SEED).unwrap();
    let b = AdaptiveFingerprinter::provision(&reference, &cfg, tlsfp_testkit::SEED).unwrap();
    assert_eq!(
        a.evaluate(&test).top_n_accuracy(1),
        b.evaluate(&test).top_n_accuracy(1),
        "same seed, same data => same top-1 accuracy"
    );

    // The training logs prove two fresh, identical runs happened.
    assert_eq!(a.training_log().epoch_losses.len(), cfg.epochs);
    assert_eq!(a.training_log().epoch_losses, b.training_log().epoch_losses);

    // The trained model is the same bits at every training thread count,
    // `0` (auto) included. The deployment JSON is not compared: it
    // carries the wall-clock `train_seconds`.
    let model = a.embedder().to_json().unwrap();
    let loss_bits = |fp: &AdaptiveFingerprinter| -> Vec<u32> {
        fp.training_log()
            .epoch_losses
            .iter()
            .map(|l| l.to_bits())
            .collect()
    };
    for threads in [1usize, 2, 4, 0] {
        let mut at = cfg.clone();
        at.threads = threads;
        let fp = AdaptiveFingerprinter::provision(&reference, &at, tlsfp_testkit::SEED).unwrap();
        assert!(
            fp.embedder().to_json().unwrap() == model,
            "embedder weights changed at {threads} training threads"
        );
        assert_eq!(
            loss_bits(&fp),
            loss_bits(&a),
            "epoch losses changed at {threads} training threads"
        );
    }
}
