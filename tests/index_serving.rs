//! Serving-path regressions for the index subsystem.
//!
//! The contract this file holds: with the default `Flat` backend every
//! classification and open-world decision is **bit-identical** to the
//! pre-index implementation (reimplemented here as the oracle), and an
//! IVF deployment stays consistent through adaptation, serialization
//! and thread-count changes.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tlsfp::core::knn::{RankedPrediction, ScoredPrediction};
use tlsfp::core::open_world::PerClassThresholds;
use tlsfp::core::pipeline::AdaptiveFingerprinter;
use tlsfp::core::IndexConfig;
use tlsfp::index::{FlatIndex, Metric, Rows, VectorIndex};
use tlsfp::nn::seq::SeqInput;
use tlsfp_testkit::{tiny_adversary, tiny_split, SEED};

/// The pre-index serving path, verbatim: a dist-keyed bounded max-heap
/// over the reference embeddings in insertion order, votes tallied in
/// heap-iteration order, stable-sorted by (votes desc, best dist asc).
fn oracle_classify_with_score(k: usize, query: &[f32], reference: &FlatIndex) -> ScoredPrediction {
    struct Entry {
        dist: f32,
        label: usize,
    }
    impl PartialEq for Entry {
        fn eq(&self, other: &Self) -> bool {
            self.dist == other.dist && self.label == other.label
        }
    }
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> Ordering {
            self.dist.total_cmp(&other.dist)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    fn euclidean_sq(a: &[f32], b: &[f32]) -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    }

    let k = k.min(reference.len()).max(1);
    let mut heap: BinaryHeap<Entry> = BinaryHeap::with_capacity(k + 1);
    let mut nearest = f32::INFINITY;
    for (emb, &label) in reference.rows().iter().zip(reference.labels()) {
        let dist = euclidean_sq(query, emb);
        nearest = nearest.min(dist);
        if heap.len() < k {
            heap.push(Entry { dist, label });
        } else if let Some(worst) = heap.peek() {
            if dist < worst.dist {
                heap.pop();
                heap.push(Entry { dist, label });
            }
        }
    }
    let mut votes: Vec<(usize, usize, f32)> = Vec::new();
    for e in heap.into_iter() {
        match votes.iter_mut().find(|(l, _, _)| *l == e.label) {
            Some((_, v, d)) => {
                *v += 1;
                if e.dist < *d {
                    *d = e.dist;
                }
            }
            None => votes.push((e.label, 1, e.dist)),
        }
    }
    votes.sort_by(|a, b| b.1.cmp(&a.1).then(a.2.total_cmp(&b.2)));
    ScoredPrediction {
        prediction: RankedPrediction {
            ranked: votes.iter().map(|(l, _, _)| *l).collect(),
            votes: votes.iter().map(|(_, v, _)| *v).collect(),
        },
        score: nearest,
    }
}

#[test]
fn default_flat_backend_is_bit_identical_to_pre_index_oracle() {
    let fp = tiny_adversary();
    assert_eq!(fp.index_config(), IndexConfig::Flat);
    assert_eq!(fp.n_shards(), 1, "default serving store is unsharded");
    // The default store has one shard, whose rows are the reference
    // set in insertion order — rebuild the historical flat set.
    let (labels0, rows0) = fp.reference().shard_snapshot(0);
    let reference = FlatIndex::from_rows(
        Metric::Euclidean,
        Rows::new(fp.reference().dim(), &rows0),
        &labels0,
    );
    let (_, test) = tiny_split();
    let embeddings = fp.embed_all(test.seqs());
    for (trace, emb) in test.seqs().iter().zip(&embeddings) {
        let oracle = oracle_classify_with_score(fp.k(), emb, &reference);
        let served = fp.fingerprint_with_score(trace);
        // Bit-identical: same score bits, same ranking, same votes.
        assert_eq!(oracle.score.to_bits(), served.score.to_bits());
        assert_eq!(oracle.prediction, served.prediction);
        assert_eq!(served.prediction, fp.fingerprint(trace));
        // Open-world decisions follow bit-identically at any threshold.
        for threshold in [0.0f32, oracle.score, oracle.score * 2.0, 1e9] {
            assert_eq!(
                (oracle.score <= threshold).then(|| oracle.prediction.clone()),
                fp.fingerprint_open_world(trace, &PerClassThresholds::global(threshold))
            );
        }
    }
}

#[test]
fn ivf_deployment_agrees_with_flat_on_nearly_all_decisions() {
    let flat = tiny_adversary();
    let mut ivf = tiny_adversary();
    ivf.set_index(IndexConfig::ivf_default());
    assert_eq!(ivf.reference().len(), flat.reference().len());
    let (_, test) = tiny_split();
    let agree = test
        .seqs()
        .iter()
        .filter(|t| flat.fingerprint(t).top() == ivf.fingerprint(t).top())
        .count();
    assert!(
        agree as f64 >= 0.9 * test.len() as f64,
        "only {agree}/{} IVF top-1 decisions matched flat",
        test.len()
    );
}

#[test]
fn ivf_deployment_survives_adaptation_and_serde() {
    let mut fp = tiny_adversary();
    fp.set_index(IndexConfig::ivf_default());
    let (_, test) = tiny_split();

    // Adapt class 2 from test traces; the index follows incrementally.
    let fresh: Vec<SeqInput> = test
        .iter()
        .filter(|(l, _)| *l == 2)
        .map(|(_, s)| s.clone())
        .collect();
    let before = fp.reference().len();
    let removed = fp.update_class(2, &fresh).unwrap();
    assert_eq!(fp.reference().class_count(2), fresh.len());
    assert_eq!(fp.reference().len(), before - removed + fresh.len());

    // Add a brand-new class; the store grows by exactly its traces.
    let new_traces: Vec<SeqInput> = test.seqs()[..3].to_vec();
    let id = fp.add_class(&new_traces).unwrap();
    assert_eq!(fp.reference().class_count(id), new_traces.len());
    // The new class is findable.
    let found = new_traces
        .iter()
        .filter(|t| fp.fingerprint(t).top() == Some(id))
        .count();
    assert!(found >= 2, "only {found}/3 new-class traces classified");

    // The incrementally-mutated index serves the same decisions as a
    // fresh rebuild from the same reference set.
    let mut rebuilt = fp.clone();
    rebuilt.set_index(rebuilt.index_config());
    // Sanity: quantizers differ (frozen vs re-trained), so compare
    // decisions, not structure.
    let agree = test
        .seqs()
        .iter()
        .filter(|t| fp.fingerprint(t).top() == rebuilt.fingerprint(t).top())
        .count();
    assert!(
        agree as f64 >= 0.9 * test.len() as f64,
        "mutated index diverged from rebuild on {} of {}",
        test.len() - agree,
        test.len()
    );

    // Serde round-trips the whole deployment including the IVF index,
    // preserving every decision bit-for-bit.
    let json = fp.to_json().unwrap();
    let back = AdaptiveFingerprinter::from_json(&json).unwrap();
    assert_eq!(back.index_config(), fp.index_config());
    for trace in test.seqs().iter().take(20) {
        assert_eq!(
            fp.fingerprint_with_score(trace),
            back.fingerprint_with_score(trace)
        );
    }
}

#[test]
fn ivf_decisions_are_invariant_across_thread_counts() {
    let mut fp = tiny_adversary();
    fp.set_index(IndexConfig::ivf_default());
    let (_, test) = tiny_split();
    let mut reports = Vec::new();
    let mut scores = Vec::new();
    for threads in [1usize, 4, 0] {
        let mut fp_t = fp.clone();
        fp_t.set_threads(threads);
        reports.push(fp_t.evaluate(&test));
        scores.push(fp_t.outlier_scores(&test));
    }
    for n in 1..=test.n_classes() {
        assert_eq!(reports[0].top_n_accuracy(n), reports[1].top_n_accuracy(n));
        assert_eq!(reports[0].top_n_accuracy(n), reports[2].top_n_accuracy(n));
    }
    assert_eq!(scores[0], scores[1]);
    assert_eq!(scores[0], scores[2]);
}

#[test]
fn seeded_reprovision_with_ivf_is_reproducible() {
    // Same dataset + config + seed → identical models, references and
    // decisions, IVF quantizer included (only the wall-clock
    // `train_seconds` diagnostic may differ between runs).
    let (reference, test) = tiny_split();
    let mut cfg = tlsfp_testkit::tiny_pipeline();
    cfg.index = IndexConfig::ivf_default();
    let a = AdaptiveFingerprinter::provision(&reference, &cfg, SEED).unwrap();
    let b = AdaptiveFingerprinter::provision(&reference, &cfg, SEED).unwrap();
    assert_eq!(
        a.embedder().to_json().unwrap(),
        b.embedder().to_json().unwrap()
    );
    assert_eq!(a.reference(), b.reference());
    for trace in test.seqs() {
        assert_eq!(
            a.fingerprint_with_score(trace),
            b.fingerprint_with_score(trace)
        );
    }
}
