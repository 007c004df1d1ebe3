//! Serving-path regressions for the sharded reference store.
//!
//! The contract this file holds, on every testkit site profile:
//!
//! - `shards = 1` (the default) serves the same decisions as an
//!   exhaustive flat scan of the reference set in dataset order — same
//!   score bits, same ranking and votes.
//! - Every shard count takes the same fan-out and merge, so shards
//!   {1, 4, 0 (auto)} serve **identical decisions**: identical ranked
//!   labels and votes, identical open-world accepts/rejects, identical
//!   score bits (the same distances exist at every layout).
//! - Churn that cycles add/update/remove through **every** shard keeps
//!   recall@1 ≥ 0.95 at default per-shard IVF probes, and the sharded
//!   deployment survives serialization and thread-count changes.

use tlsfp::core::knn::rank_search;
use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::IndexConfig;
use tlsfp::index::{FlatIndex, Metric, Rows, VectorIndex};
use tlsfp::nn::seq::SeqInput;
use tlsfp::trace::dataset::Dataset;
use tlsfp_testkit::{open_world_profile_dataset, tiny_adversary, tiny_split, Profile, SEED};

/// Per-profile reference/test split used throughout this file.
fn profile_split(profile: Profile) -> (Dataset, Dataset) {
    open_world_profile_dataset(profile).split_per_class(0.25, SEED)
}

#[test]
fn single_shard_is_bit_identical_to_classic_reference_scan_on_all_profiles() {
    let adversary = tiny_adversary();
    for profile in Profile::ALL {
        let (reference, test) = profile_split(profile);
        let mut fp = adversary.clone();
        fp.set_reference(&reference).unwrap();
        assert_eq!(fp.n_shards(), 1, "{}: default is one shard", profile.name());

        // The exact oracle: a flat index over the same embeddings in
        // dataset order, scanned exhaustively.
        let dim = fp.reference().dim();
        let embeddings: Vec<f32> = fp.embed_all(reference.seqs()).concat();
        let classic = FlatIndex::from_rows(
            Metric::Euclidean,
            Rows::new(dim, &embeddings),
            reference.labels(),
        );

        for trace in test.seqs() {
            let emb = fp.embedder().embed(trace);
            let oracle = rank_search(classic.search(&emb, fp.k()));
            let served = fp.fingerprint_with_score(trace);
            assert_eq!(
                oracle.score.to_bits(),
                served.score.to_bits(),
                "{}: outlier score bits diverged",
                profile.name()
            );
            assert_eq!(
                oracle.prediction,
                served.prediction,
                "{}: ranking diverged",
                profile.name()
            );
        }
    }
}

#[test]
fn four_shards_serve_identical_decisions_to_one_on_all_profiles() {
    let adversary = tiny_adversary();
    for profile in Profile::ALL {
        let (reference, test) = profile_split(profile);
        let mut fp1 = adversary.clone();
        fp1.set_reference(&reference).unwrap();
        let threshold = fp1
            .calibrate_rejection_threshold(&test, 90.0)
            .expect("non-empty calibration set");
        let r1 = fp1.evaluate(&test);

        for shards in [4usize, 0] {
            let mut fp_s = adversary.clone();
            fp_s.set_shards(shards);
            fp_s.set_reference(&reference).unwrap();
            assert!(fp_s.n_shards() > 1, "{}", profile.name());
            assert_eq!(fp_s.reference().len(), fp1.reference().len());
            let at = format!("{} shards={shards}", profile.name());

            for trace in test.seqs() {
                let s1 = fp1.fingerprint_with_score(trace);
                let ss = fp_s.fingerprint_with_score(trace);
                // Same distances exist in both layouts: score bits match.
                assert_eq!(
                    s1.score.to_bits(),
                    ss.score.to_bits(),
                    "{at}: outlier score diverged across shard counts"
                );
                // Same fingerprint decision: ranked labels and votes.
                assert_eq!(
                    s1.prediction, ss.prediction,
                    "{at}: fingerprint diverged across shard counts"
                );
                // Same open-world decision at the calibrated threshold.
                assert_eq!(
                    fp1.fingerprint_open_world(trace, &threshold),
                    fp_s.fingerprint_open_world(trace, &threshold),
                    "{at}: open-world decision diverged across shard counts"
                );
            }

            // Whole-report agreement, through the batch paths.
            let rs = fp_s.evaluate(&test);
            for n in 1..=test.n_classes() {
                assert_eq!(
                    r1.top_n_accuracy(n),
                    rs.top_n_accuracy(n),
                    "{at}: top-{n} accuracy diverged"
                );
            }
        }
    }
}

#[test]
fn resharding_in_place_preserves_decisions() {
    let fp1 = tiny_adversary();
    let (_, test) = tiny_split();
    let mut fp = fp1.clone();
    fp.set_shards(3);
    assert_eq!(fp.n_shards(), 3);
    // Shard-major re-partitioning moves rows but never changes the
    // distances an exact backend serves.
    for trace in test.seqs() {
        let a = fp1.fingerprint_with_score(trace);
        let b = fp.fingerprint_with_score(trace);
        assert_eq!(a.score.to_bits(), b.score.to_bits());
        assert_eq!(a.prediction, b.prediction);
    }
    // And back to one shard.
    fp.set_shards(1);
    for trace in test.seqs().iter().take(10) {
        assert_eq!(
            fp1.fingerprint_with_score(trace),
            fp.fingerprint_with_score(trace)
        );
    }
}

/// Churn cycling through every shard: per-class swaps (classes 0..8
/// land on shards 0..3 twice over), brand-new classes, and removals.
/// After the storm, the sharded per-shard-IVF deployment must still
/// find the true nearest neighbor for ≥ 95% of queries at default
/// probes.
#[test]
fn churn_across_all_shards_keeps_recall_with_per_shard_ivf() {
    let mut fp = tiny_adversary();
    fp.set_shards(4);
    fp.set_index(IndexConfig::ivf_default());
    assert_eq!(fp.n_shards(), 4);
    let (_, test) = tiny_split();
    let classes = fp.reference().n_classes();

    let mut touched = vec![false; 4];
    let mut added: Vec<usize> = Vec::new();
    for round in 0..8 {
        let class = round % classes;
        touched[fp.reference().shard_of(class)] = true;
        // Swap the class's reference points with fresh traces.
        let fresh: Vec<SeqInput> = test
            .iter()
            .filter(|(l, _)| *l == class)
            .map(|(_, s)| s.clone())
            .collect();
        fp.update_class(class, &fresh).unwrap();
        // Every other round, monitor a brand-new page...
        if round % 2 == 0 {
            let id = fp.add_class(&test.seqs()[..3]).unwrap();
            touched[fp.reference().shard_of(id)] = true;
            added.push(id);
        }
        // ...and eventually retire an earlier addition.
        if round >= 4 && !added.is_empty() {
            let gone = added.remove(0);
            assert!(fp.remove_class(gone).unwrap() > 0);
            assert_eq!(fp.reference().class_count(gone), 0);
        }
    }
    assert!(
        touched.iter().all(|&t| t),
        "churn did not cycle through every shard: {touched:?}"
    );

    // Ground truth: the same store contents served exactly (per-shard
    // flat rebuild).
    let mut exact = fp.clone();
    exact.set_index(IndexConfig::Flat);
    let queries = fp.embed_all(test.seqs());
    let mut hits = 0usize;
    for q in &queries {
        let truth = exact
            .reference()
            .search_concurrent(q, 1, 1)
            .top()
            .expect("non-empty store");
        let got = fp
            .reference()
            .search_concurrent(q, 1, 1)
            .top()
            .expect("non-empty store");
        if got.dist.to_bits() == truth.dist.to_bits() {
            hits += 1;
        }
    }
    let recall = hits as f64 / queries.len() as f64;
    assert!(
        recall >= 0.95,
        "recall@1 {recall:.3} after cross-shard churn"
    );

    // Balance diagnostics aggregate across shards and stay coherent.
    let balance = fp.reference().balance_stats();
    assert_eq!(balance.n_shards, 4);
    assert_eq!(
        balance.max_shard,
        *fp.reference().shard_sizes().iter().max().unwrap()
    );
    let lists = balance.ivf_lists.expect("per-shard IVF reports lists");
    assert!(lists.n_lists >= 4, "at least one list per shard");
    assert!(lists.skew >= 1.0);
}

#[test]
fn sharded_deployment_survives_serde_and_thread_counts() {
    let mut fp = tiny_adversary();
    fp.set_shards(4);
    fp.set_index(IndexConfig::ivf_default());
    let (_, test) = tiny_split();

    // Serde round-trips the sharded store with every decision intact.
    let json = fp.to_json().unwrap();
    let back = AdaptiveFingerprinter::from_json(&json).unwrap();
    assert_eq!(back.n_shards(), 4);
    assert_eq!(back.index_config(), fp.index_config());
    for trace in test.seqs().iter().take(20) {
        assert_eq!(
            fp.fingerprint_with_score(trace),
            back.fingerprint_with_score(trace)
        );
    }

    // Thread counts change wall-clock only, never a decision.
    let mut scores = Vec::new();
    for threads in [1usize, 4, 0] {
        let mut fp_t = fp.clone();
        fp_t.set_threads(threads);
        scores.push(fp_t.outlier_scores(&test));
    }
    assert_eq!(scores[0], scores[1]);
    assert_eq!(scores[0], scores[2]);
}
