//! k-nearest-neighbour classification in the embedding space (step 4 of
//! Figure 2, k = 250 in the paper).
//!
//! For each query the classifier reports a ranked list of candidate
//! labels: labels of the k nearest reference points, ordered by vote
//! count (ties broken by the closest member). That ranked list is what
//! the top-N adversary metric consumes.
//!
//! The neighbor *search* lives in `tlsfp-index`. Every query takes one
//! path: the pipeline's sharded reference store
//! (`tlsfp_index::sharded::ShardedStore`) fans it out across its
//! per-shard indexes and merges the results into `(dist, id)` order,
//! and [`rank_search`] turns that one [`SearchResult`] into the voted
//! ranking plus the outlier score. The accept/reject decision on top is
//! [`PerClassThresholds::accepts`](crate::open_world::PerClassThresholds::accepts).

use serde::{Deserialize, Serialize};

use tlsfp_index::SearchResult;

pub use tlsfp_index::Metric;

/// A ranked classification outcome for one query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedPrediction {
    /// Candidate labels, most probable first. Only labels that appeared
    /// among the k nearest neighbours are listed.
    pub ranked: Vec<usize>,
    /// Votes received by each ranked label (aligned with `ranked`).
    pub votes: Vec<usize>,
}

impl RankedPrediction {
    /// 1-based rank of `label`, or `None` if it received no votes.
    pub fn rank_of(&self, label: usize) -> Option<usize> {
        self.ranked.iter().position(|&l| l == label).map(|p| p + 1)
    }

    /// Whether `label` is among the top `n` candidates.
    pub fn hits_within(&self, label: usize, n: usize) -> bool {
        self.ranked.iter().take(n).any(|&l| l == label)
    }

    /// The single most probable label (`None` on an empty reference set).
    pub fn top(&self) -> Option<usize> {
        self.ranked.first().copied()
    }
}

/// A ranked prediction paired with the query's outlier score — the
/// distance to its nearest reference point — produced by a *single*
/// search of the reference store. This is the open-world primitive: the
/// score decides accept/reject, the prediction answers "which page"
/// for accepted queries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoredPrediction {
    /// The ranked candidate labels.
    pub prediction: RankedPrediction,
    /// Distance to the nearest reference point (`f32::INFINITY` for an
    /// empty reference set). Squared under [`Metric::Euclidean`].
    pub score: f32,
}

/// Turns a neighbor search outcome into the voted, ranked prediction —
/// the one vote/rank path every serving call shares. Exposed so
/// callers holding a [`SearchResult`] (the experiments, the benchmark)
/// can rank it without re-running the search.
///
/// Votes are tallied in neighbor order — `(dist, id)` ascending from
/// every backend and the store — then stably sorted by (votes desc,
/// best distance asc), so a full tie keeps the label whose nearest
/// neighbor came first.
pub fn rank_search(result: SearchResult) -> ScoredPrediction {
    // Vote count and best (smallest) distance per label.
    let mut votes: Vec<(usize, usize, f32)> = Vec::new(); // (label, votes, best_dist)
    for e in result.neighbors {
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
        score: result.nearest,
    }
}

#[cfg(test)]
mod tests {
    use tlsfp_index::{FlatIndex, IvfIndex, IvfParams, Rows, VectorIndex};

    use super::*;

    /// Rows for `(label, embedding)` pairs, all of one dimension.
    fn flat(metric: Metric, points: &[(usize, Vec<f32>)]) -> FlatIndex {
        let dim = points.first().map_or(1, |(_, e)| e.len());
        let data: Vec<f32> = points.iter().flat_map(|(_, e)| e.iter().copied()).collect();
        let labels: Vec<usize> = points.iter().map(|&(l, _)| l).collect();
        FlatIndex::from_rows(metric, Rows::new(dim, &data), &labels)
    }

    /// Class 0 clustered at 0, class 1 at 10, class 2 at 20.
    fn reference() -> FlatIndex {
        let mut points = Vec::new();
        for i in 0..4 {
            points.push((0, vec![0.0 + i as f32 * 0.1]));
            points.push((1, vec![10.0 + i as f32 * 0.1]));
            points.push((2, vec![20.0 + i as f32 * 0.1]));
        }
        flat(Metric::Euclidean, &points)
    }

    fn classify(index: &dyn VectorIndex, query: &[f32], k: usize) -> RankedPrediction {
        rank_search(index.search(query, k)).prediction
    }

    #[test]
    fn nearest_cluster_wins() {
        let r = reference();
        let pred = classify(&r, &[0.05], 4);
        assert_eq!(pred.top(), Some(0));
        assert_eq!(pred.votes[0], 4);
        assert_eq!(classify(&r, &[19.0], 4).top(), Some(2));
    }

    #[test]
    fn ranked_order_reflects_proximity() {
        let r = reference();
        // Query between class 0 and 1, nearer 1.
        let pred = classify(&r, &[7.0], 8);
        assert_eq!(pred.ranked[0], 1);
        assert_eq!(pred.rank_of(1), Some(1));
        assert_eq!(pred.rank_of(0), Some(2));
        assert!(pred.hits_within(0, 2));
        assert!(!pred.hits_within(2, 2));
    }

    #[test]
    fn k_larger_than_reference_is_capped() {
        let pred = classify(&reference(), &[0.0], 10_000);
        // All 12 points voted; class 0 has the closest members.
        assert_eq!(pred.votes.iter().sum::<usize>(), 12);
        assert_eq!(pred.top(), Some(0));
    }

    #[test]
    fn tie_break_prefers_closer_class() {
        let r = flat(Metric::Euclidean, &[(0, vec![1.0]), (1, vec![2.0])]);
        // Both classes get 1 vote; class 0 is closer to 1.2.
        assert_eq!(classify(&r, &[1.2], 2).ranked, vec![0, 1]);
    }

    #[test]
    fn score_is_the_nearest_reference_distance() {
        let r = reference();
        let near = rank_search(r.search(&[0.05], 4));
        let far = rank_search(r.search(&[1000.0], 4));
        assert!(near.score < 1.0);
        assert!(far.score > 100.0);
        let naive = r
            .rows()
            .iter()
            .map(|e| Metric::Euclidean.eval(&[1000.0], e))
            .fold(f32::INFINITY, f32::min);
        assert_eq!(far.score.to_bits(), naive.to_bits());
    }

    #[test]
    fn empty_reference_yields_empty_prediction_and_infinite_score() {
        let sp = rank_search(FlatIndex::new(1, Metric::Euclidean).search(&[0.0], 3));
        assert!(sp.prediction.ranked.is_empty());
        assert_eq!(sp.prediction.top(), None);
        assert_eq!(sp.score, f32::INFINITY);
    }

    #[test]
    fn ivf_agrees_with_flat_at_full_probe() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(33);
        let dim = 8;
        let points: Vec<(usize, Vec<f32>)> = (0..120)
            .map(|i| {
                let center = (i % 6) as f32 * 3.0;
                let e = (0..dim)
                    .map(|_| center + rng.random_range(-0.5f32..0.5))
                    .collect();
                (i % 6, e)
            })
            .collect();
        let exact = flat(Metric::Euclidean, &points);
        let (labels, data) = exact.export();
        let mut ivf = IvfIndex::build(
            IvfParams::new(6, 0),
            Metric::Euclidean,
            Rows::new(dim, &data),
            &labels,
        );
        ivf.set_n_probe(ivf.n_lists());
        for _ in 0..40 {
            let center = rng.random_range(-5.0f32..25.0);
            let q: Vec<f32> = (0..dim)
                .map(|_| center + rng.random_range(-0.5f32..0.5))
                .collect();
            let want = rank_search(exact.search(&q, 9));
            let got = rank_search(ivf.search(&q, 9));
            assert_eq!(want.score, got.score);
            assert_eq!(want.prediction, got.prediction);
        }
    }
}
