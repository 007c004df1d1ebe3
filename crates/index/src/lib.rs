//! # tlsfp-index — nearest-neighbor indexes for the serving path
//!
//! The paper's classifier answers every query with a k-nearest-neighbor
//! search over the reference set (k = 250 over ~10⁵ embeddings). This
//! crate owns that search: a [`VectorIndex`] trait with three
//! single-store backends, closed in the [`ServingIndex`] enum and
//! selected per deployment by [`IndexConfig`], and a class-sharded
//! store that composes them for the large-class regime.
//!
//! - [`FlatIndex`] — the exact scan, over column-major storage scored
//!   16 rows per step by a lane kernel that keeps `euclidean_sq`'s
//!   arithmetic and order. From [`flat::LIST_MIN_ROWS`] rows at build it
//!   keeps k-means lists with radii and skips every list a triangle-
//!   inequality bound rules out of the top-k. Results are
//!   **bit-identical** to a naive scan of the reference set sorted by
//!   `(dist, id)`, so the default serving path never changes a decision.
//! - [`IvfIndex`] — an inverted-file (IVF) index: a seeded k-means
//!   coarse quantizer partitions the vectors into lists, and each query
//!   scans only the `n_probe` lists whose centroids are nearest. An
//!   order-of-magnitude fewer distance computations at a small recall
//!   cost; exact (identical to flat) when `n_probe == n_lists`.
//! - [`PqIndex`] ([`pq`]) — a product-quantized index: per-sub-space
//!   codebooks compress each embedding to `m` one-byte codes, queries
//!   scan through a per-query lookup table (asymmetric distance), and
//!   the top `rerank` candidates are re-ranked exactly against retained
//!   full-precision rows. An order-of-magnitude less scan memory — the
//!   10⁵-class regime's backend; exact when `rerank >= len()`.
//! - [`ShardedStore`] ([`sharded`]) — partitions *classes* across `S`
//!   shards, each one [`ServingIndex`] backend that holds its rows
//!   once; provisioning peaks at one shard's embeddings, mutations
//!   touch one shard, and every query — at every `S`, one included —
//!   fans out over groups of shards and merges deterministically.
//!
//! One top-k rule serves all of them: every kernel scans into
//! [`TopK`] accumulators, which keep a query's `k` smallest candidates
//! under `(dist, id)` — a total order, so a result never depends on scan
//! order, on block composition or on how shards were grouped.
//!
//! Every backend is **mutable** — [`VectorIndex::add`],
//! [`VectorIndex::remove_label`] and [`VectorIndex::swap_label`]
//! reassign vectors to lists incrementally without a rebuild — because
//! the paper's whole design is that adapting to webpage drift is a
//! reference-set swap, and the index must keep up without re-clustering.
//! The closed [`ServingIndex`] enum serializes whichever backend it
//! holds, so a provisioned deployment round-trips to JSON with its
//! index intact.
//!
//! Every [`SearchResult`] carries the number of distance evaluations it
//! cost, so callers can measure candidate pruning directly (the
//! `fig_index` experiment and the tier-1 recall tests do).

#![warn(missing_docs)]

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use tlsfp_nn::parallel::map_elems;
use tlsfp_nn::tensor::euclidean_sq;

/// Records queries served into the per-backend registry counters
/// (`tlsfp_queries_total` / `tlsfp_distance_evals_total`, labeled
/// `backend=...`): `$queries` queries that cost `$evals` distance
/// evaluations in all — the aggregate of `SearchResult::distance_evals`.
/// `$backend` must be a literal: the handle cache behind the macro is
/// per call site. Observation only.
macro_rules! record_backend_search {
    ($backend:literal, $queries:expr, $evals:expr) => {
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_queries_total",
                "Queries served, by index backend",
                "backend" => $backend
            )
            .add($queries as u64);
            tlsfp_telemetry::counter!(
                "tlsfp_distance_evals_total",
                "Distance evaluations spent answering queries, by index backend",
                "backend" => $backend
            )
            .add($evals as u64);
        }
    };
}
pub(crate) use record_backend_search;

pub mod flat;
pub mod ivf;
pub mod kernels;
pub mod pq;
mod rowset;
pub mod sharded;

pub use flat::FlatIndex;
pub use ivf::{BalanceStats, IvfIndex, IvfParams};
pub use kernels::{auto_query_block, IdMap, TopK, MAX_QUERY_BLOCK};
pub use pq::{PqIndex, PqParams};
pub use sharded::{resolve_shards, shard_of, ShardedStore, StoreBalance};

/// Distance metric between embeddings: Euclidean, the paper's choice
/// (Table I) and the only one. It stays a one-variant enum so
/// constructors, [`VectorIndex::metric`] and snapshots (`"metric":
/// "Euclidean"`) keep their shape; a snapshot naming any other metric
/// is refused on load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Euclidean distance, evaluated as the *squared* distance, which
    /// preserves ordering and skips the square root.
    Euclidean,
}

impl Metric {
    /// Evaluates the metric between two equal-length vectors.
    ///
    /// Accumulation order matches the reference kernels in `tlsfp-nn`
    /// exactly, so scores are bit-identical to a naive per-row scan —
    /// a requirement for the flat backend's regression guarantees.
    ///
    /// ```
    /// use tlsfp_index::Metric;
    /// // Euclidean is the *squared* distance (ordering-preserving).
    /// assert_eq!(Metric::Euclidean.eval(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
    /// ```
    #[inline]
    pub fn eval(self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => euclidean_sq(a, b),
        }
    }
}

/// Contiguous row-major vector view — the interchange type between the
/// batched embedder, the reference store and the index backends.
///
/// Re-exported from `tlsfp_nn::tensor` so `SequenceEmbedder::embed_batch`
/// output flows into index builds and reference swaps without copying
/// through `Vec<Vec<f32>>`.
pub use tlsfp_nn::tensor::Rows;

/// One retrieved neighbor.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Stable per-vector id: insertion order at build/add time. Flat
    /// ids are row positions; IVF ids survive list reassignment.
    pub id: u64,
    /// The neighbor's class label.
    pub label: usize,
    /// Distance to the query (squared under [`Metric::Euclidean`]).
    pub dist: f32,
}

/// The outcome of one index query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchResult {
    /// Up to `k` nearest neighbors in `(dist, id)` ascending order, on
    /// every backend and through [`ShardedStore`].
    pub neighbors: Vec<Neighbor>,
    /// Distance to the nearest *scanned* vector (`f32::INFINITY` when
    /// nothing was scanned) — the open-world outlier score. Exact for
    /// flat (a list it skips holds no row nearer than one it kept);
    /// over the probed lists only for IVF.
    pub nearest: f32,
    /// Number of metric evaluations this query cost (IVF and a flat
    /// store in lists include their centroid comparisons). The pruning
    /// measurements in `fig_index` and the tier-1 recall tests read
    /// this.
    pub distance_evals: u64,
}

impl SearchResult {
    /// An empty result (empty index).
    pub fn empty() -> Self {
        SearchResult {
            neighbors: Vec::new(),
            nearest: f32::INFINITY,
            distance_evals: 0,
        }
    }

    /// The single nearest neighbor by `(dist, id)`, if any.
    ///
    /// ```
    /// use tlsfp_index::{FlatIndex, Metric, VectorIndex};
    /// let mut ix = FlatIndex::new(1, Metric::Euclidean);
    /// ix.add(0, &[0.0]);
    /// ix.add(1, &[2.0]);
    /// let top = ix.search(&[0.4], 2).top().unwrap();
    /// assert_eq!((top.label, top.id), (0, 0));
    /// ```
    pub fn top(&self) -> Option<Neighbor> {
        self.neighbors.iter().copied().min_by(by_dist_id)
    }
}

/// A mutable nearest-neighbor index over labeled vectors.
///
/// Implementations must be deterministic: the same build inputs and
/// mutation sequence yield the same search results, independent of
/// thread count ([`VectorIndex::search_batch`] shards *queries*, never
/// a single query's scan).
///
/// The backends share this mutation contract (the paper's adaptation
/// economics — no rebuilds on churn):
///
/// ```
/// use tlsfp_index::{IndexConfig, Metric, Rows, VectorIndex};
/// let data = [0.0f32, 1.0, 2.0];
/// let mut ix = IndexConfig::Flat.build(Metric::Euclidean, Rows::new(1, &data), &[0, 1, 2]);
/// // Swap label 1's vectors in place; ids of survivors are stable.
/// ix.swap_label(1, Rows::new(1, &[10.0]));
/// assert_eq!(ix.len(), 3);
/// assert_eq!(ix.search(&[10.1], 1).top().unwrap().label, 1);
/// assert_eq!(ix.remove_label(0), 1);
/// ```
pub trait VectorIndex: Send + Sync + std::fmt::Debug {
    /// Vector dimensionality.
    fn dim(&self) -> usize;

    /// Number of stored vectors.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The distance metric in use.
    fn metric(&self) -> Metric;

    /// The one scan each backend implements: serves one contiguous
    /// *block* of queries in a single cache-blocked pass (see
    /// [`kernels`]) and pushes every candidate into that query's
    /// accumulator in `accs`, under the id `ids` maps its local id to.
    /// The accumulators may already hold other shards' candidates.
    /// Runs on the calling thread. No query's candidates depend on the
    /// block it arrives in: the kernel preserves per-(query, row)
    /// accumulation order, and selection is per query.
    ///
    /// # Panics
    ///
    /// Panics if `accs.len() != queries.len()` or any query's length
    /// differs from `dim()`, empty index included.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]);

    /// Serves one block of queries: [`VectorIndex::scan_block`] into
    /// fresh `k`-accumulators, each finished into its `(dist, id)`-sorted
    /// result.
    ///
    /// # Panics
    ///
    /// As [`VectorIndex::scan_block`].
    fn search_block(&self, queries: &[Vec<f32>], k: usize) -> Vec<SearchResult> {
        let mut accs = vec![TopK::new(k); queries.len()];
        self.scan_block(queries, IdMap::IDENTITY, &mut accs);
        accs.into_iter().map(TopK::finish).collect()
    }

    /// Finds the `k` nearest stored vectors to `query`: a block of one
    /// through [`VectorIndex::search_block`].
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != dim()`.
    fn search(&self, query: &[f32], k: usize) -> SearchResult {
        self.search_block(&[query.to_vec()], k)
            .pop()
            .expect("one result per query")
    }

    /// Query-blocked batch search: splits `queries` into contiguous
    /// blocks of [`kernels::auto_query_block`] queries, fans the blocks
    /// across `threads` workers (`0` = all cores), and serves each block
    /// through one [`VectorIndex::search_block`] scan pass. Each query's
    /// result is bit-identical to [`VectorIndex::search`] at every
    /// worker count: blocks are contiguous and order-preserving, and a
    /// single query's scan never splits across threads.
    fn search_batch(&self, queries: &[Vec<f32>], k: usize, threads: usize) -> Vec<SearchResult> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = tlsfp_nn::parallel::resolve_threads(threads);
        let block = kernels::auto_query_block(queries.len(), threads);
        let blocks: Vec<&[Vec<f32>]> = queries.chunks(block).collect();
        map_elems(&blocks, threads, |b| self.search_block(b, k))
            .into_iter()
            .flatten()
            .collect()
    }

    /// Adds one labeled vector, assigning it the next insertion id.
    ///
    /// # Panics
    ///
    /// Panics if `vector.len() != dim()`.
    fn add(&mut self, label: usize, vector: &[f32]);

    /// Removes every vector carrying `label`; returns how many were
    /// dropped. Incremental: no rebuild, other vectors keep their ids
    /// and (for IVF) their lists.
    fn remove_label(&mut self, label: usize) -> usize;

    /// Replaces every vector of `label` with fresh rows (the paper's
    /// §IV-C adaptation swap); returns how many were dropped.
    fn swap_label(&mut self, label: usize, rows: Rows<'_>) -> usize {
        let removed = self.remove_label(label);
        for row in rows.iter() {
            self.add(label, row);
        }
        removed
    }

    /// Every stored vector as `(labels, row_data)` in insertion (id)
    /// order, `row_data` row-major — the rows a rebuild on another
    /// backend starts from. Survivors of `remove_label` keep their
    /// relative order and `add` appends, so the export is the same for
    /// every backend that saw the same build and mutation sequence.
    fn export(&self) -> (Vec<usize>, Vec<f32>);
}

/// Which backend a deployment should serve from.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub enum IndexConfig {
    /// Exact scan, list-pruned from [`flat::LIST_MIN_ROWS`] rows (the
    /// default, and the oracle every other backend's recall is
    /// measured against).
    #[default]
    Flat,
    /// Inverted-file index with the given parameters.
    Ivf(IvfParams),
    /// Product-quantized index with the given parameters.
    Pq(PqParams),
}

impl IndexConfig {
    /// The IVF backend at auto-tuned parameters (`n_lists ≈ √n`,
    /// `n_probe ≈ n_lists / 4`, both resolved at build time).
    pub fn ivf_default() -> Self {
        IndexConfig::Ivf(IvfParams::auto())
    }

    /// The PQ backend at auto-tuned parameters (`m` = largest divisor
    /// of `dim` at most [`pq::AUTO_CODE_BYTES`] code bytes,
    /// `rerank` = [`pq::AUTO_RERANK`], resolved at build time).
    pub fn pq_default() -> Self {
        IndexConfig::Pq(PqParams::auto())
    }

    /// Builds an index of this kind from labeled rows.
    ///
    /// ```
    /// use tlsfp_index::{IndexConfig, Metric, Rows};
    /// let data = [0.0f32, 0.0, 5.0, 5.0];
    /// let rows = Rows::new(2, &data);
    /// let flat = IndexConfig::Flat.build(Metric::Euclidean, rows, &[0, 1]);
    /// let ivf = IndexConfig::ivf_default().build(Metric::Euclidean, rows, &[0, 1]);
    /// assert_eq!(flat.search(&[0.1, 0.1], 1).top().unwrap().label, 0);
    /// assert_eq!(ivf.search(&[4.9, 5.0], 1).top().unwrap().label, 1);
    /// ```
    pub fn build(&self, metric: Metric, rows: Rows<'_>, labels: &[usize]) -> ServingIndex {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        match self {
            IndexConfig::Flat => ServingIndex::Flat(FlatIndex::from_rows(metric, rows, labels)),
            IndexConfig::Ivf(params) => {
                ServingIndex::Ivf(IvfIndex::build(*params, metric, rows, labels))
            }
            IndexConfig::Pq(params) => {
                ServingIndex::Pq(PqIndex::build(*params, metric, rows, labels))
            }
        }
    }
}

/// One backend, owned — what each [`ShardedStore`] shard is, so a
/// deployment can switch backends by configuration. Derefs to
/// [`VectorIndex`]; clones, compares and serializes as the backend it
/// holds (`{"Flat": {...}}`, `{"Ivf": {...}}` or `{"Pq": {...}}`).
///
/// ```
/// use tlsfp_index::{IndexConfig, Metric, Rows, ServingIndex};
/// let data = [1.0f32, 2.0];
/// let ix = IndexConfig::Flat.build(Metric::Euclidean, Rows::new(1, &data), &[0, 1]);
/// // Deref to the trait, clone, and serde round-trip all work.
/// assert_eq!(ix.len(), 2);
/// let json = serde_json::to_string(&ix).unwrap();
/// let back: ServingIndex = serde_json::from_str(&json).unwrap();
/// assert_eq!(back, ix);
/// assert_eq!(back.search(&[1.9], 1), ix.search(&[1.9], 1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ServingIndex {
    /// A flat exact index.
    Flat(FlatIndex),
    /// An IVF index.
    Ivf(IvfIndex),
    /// A product-quantized index.
    Pq(PqIndex),
}

impl std::ops::Deref for ServingIndex {
    type Target = dyn VectorIndex;

    fn deref(&self) -> &Self::Target {
        match self {
            ServingIndex::Flat(ix) => ix,
            ServingIndex::Ivf(ix) => ix,
            ServingIndex::Pq(ix) => ix,
        }
    }
}

impl std::ops::DerefMut for ServingIndex {
    fn deref_mut(&mut self) -> &mut Self::Target {
        match self {
            ServingIndex::Flat(ix) => ix,
            ServingIndex::Ivf(ix) => ix,
            ServingIndex::Pq(ix) => ix,
        }
    }
}

/// Every query entry's dimension check. The distance kernels zip rows
/// against the query, so a wrong-length query would otherwise be
/// served silently (or index out of bounds) in release builds.
pub(crate) fn assert_query_dims(queries: &[Vec<f32>], dim: usize) {
    for query in queries {
        assert_eq!(query.len(), dim, "query dim mismatch");
    }
}

/// A scan kernel's entry checks: one accumulator per query, and every
/// query of the index's dimension.
pub(crate) fn assert_scan_inputs(queries: &[Vec<f32>], accs: &[TopK], dim: usize) {
    assert_eq!(accs.len(), queries.len(), "one accumulator per query");
    assert_query_dims(queries, dim);
}

/// The canonical neighbor order: `(dist, id)` ascending, distances
/// under `total_cmp` — total, so it never depends on scan order.
pub(crate) fn by_dist_id(a: &Neighbor, b: &Neighbor) -> Ordering {
    a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_view_is_reexported_from_nn() {
        // The type moved to tlsfp_nn::tensor with the batched embedding
        // engine; the index-side path must keep resolving.
        let data = [1.0f32, 2.0, 3.0, 4.0, 5.0, 6.0];
        let rows: tlsfp_nn::tensor::Rows<'_> = Rows::new(2, &data);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn metric_eval_matches_reference_kernels() {
        let a = [1.0f32, 2.0, -3.0];
        let b = [0.5f32, 2.0, 1.0];
        assert_eq!(Metric::Euclidean.eval(&a, &b), euclidean_sq(&a, &b));
    }

    #[test]
    fn search_result_top_breaks_ties_by_id() {
        let r = SearchResult {
            neighbors: vec![
                Neighbor {
                    id: 5,
                    label: 1,
                    dist: 1.0,
                },
                Neighbor {
                    id: 2,
                    label: 0,
                    dist: 1.0,
                },
            ],
            nearest: 1.0,
            distance_evals: 2,
        };
        assert_eq!(r.top().unwrap().id, 2);
        assert_eq!(SearchResult::empty().top(), None);
    }

    #[test]
    fn index_config_default_is_flat() {
        assert_eq!(IndexConfig::default(), IndexConfig::Flat);
        // And the knob round-trips through serde with its parameters.
        let cfg = IndexConfig::ivf_default();
        let v = cfg.to_value();
        let back = IndexConfig::from_value(&v).unwrap();
        assert_eq!(back, cfg);
    }
}
