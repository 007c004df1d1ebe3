//! The exact backend: a brute-force scan over contiguous row-major
//! storage, and the test oracle every other backend and the serving
//! path are measured against.
//!
//! - Vectors live in one flat `Vec<f32>` (row-major), so a scan walks
//!   memory linearly with no pointer chasing.
//! - The scan processes candidate rows in cache-sized chunks
//!   ([`SCAN_CHUNK_ROWS`] at a time), keeping the query vector hot
//!   while each block streams through.
//! - Per-distance accumulation uses the `tlsfp-nn` kernels, and the
//!   k-selection heap is keyed on distance alone, so the scan kernel
//!   ([`crate::kernels::flat_search_block`]; a single query is a block
//!   of one) reproduces a naive insertion-order scan bit for bit —
//!   scores, selected neighbors and the heap's output order. The
//!   `tests/index_serving.rs` oracle holds this line.
//!
//! Results come back in heap order; the sharded store's merge sorts
//! them by `(dist, id)` like every other backend's.

use std::cmp::Ordering;

use serde::{Deserialize, Serialize};

use crate::{Metric, Neighbor, Rows, SearchResult, VectorIndex};

/// Rows scanned per block: 64 rows × 32 dims × 4 bytes = 8 KiB per
/// block, comfortably inside L1 alongside the query.
pub const SCAN_CHUNK_ROWS: usize = 64;

/// The exact nearest-neighbor index: contiguous storage, chunked scan.
///
/// ```
/// use tlsfp_index::{FlatIndex, Metric, Rows, VectorIndex};
/// let data = [0.0f32, 0.0, 1.0, 1.0, 2.0, 2.0];
/// let ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(2, &data), &[0, 1, 2]);
/// let r = ix.search(&[0.9, 1.0], 2);
/// assert_eq!(r.top().unwrap().label, 1);
/// assert_eq!(r.distance_evals, 3); // exact: every row scanned
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlatIndex {
    dim: usize,
    metric: Metric,
    data: Vec<f32>,
    labels: Vec<usize>,
}

/// Heap entry ordered by distance only — the historical eviction rule
/// (boundary ties keep the earlier-scanned row). The `id`/`label`
/// payload never participates in comparisons, so heap layout and
/// iteration order replay the pre-index implementation exactly.
/// Crate-visible for the scan kernel ([`crate::kernels`]).
#[derive(PartialEq)]
pub(crate) struct FlatHeapEntry(pub(crate) Neighbor);

impl Eq for FlatHeapEntry {}

impl Ord for FlatHeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.dist.total_cmp(&other.0.dist)
    }
}

impl PartialOrd for FlatHeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FlatIndex {
    /// An empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        FlatIndex {
            dim,
            metric,
            data: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Builds from labeled rows (copied into contiguous storage).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub fn from_rows(metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        FlatIndex {
            dim: rows.dim(),
            metric,
            data: rows.data().to_vec(),
            labels: labels.to_vec(),
        }
    }

    /// The stored rows as a contiguous view.
    pub fn rows(&self) -> Rows<'_> {
        Rows::new(self.dim, &self.data)
    }

    /// Stored labels, aligned with [`FlatIndex::rows`].
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// The blocked exact scan ([`crate::kernels::flat_search_block`]):
    /// each row tile is loaded once per block and evaluated against
    /// every query while hot in cache, every query's heap fed its rows
    /// in ascending row order.
    fn search_block(&self, queries: &[Vec<f32>], k: usize) -> Vec<SearchResult> {
        crate::assert_query_dims(queries, self.dim);
        let results =
            crate::kernels::flat_search_block(self.rows(), &self.labels, self.metric, queries, k);
        crate::kernels::record_block_size!("flat", queries.len());
        for result in &results {
            crate::record_backend_search!("flat", result);
        }
        results
    }

    fn add(&mut self, label: usize, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        self.data.extend_from_slice(vector);
        self.labels.push(label);
    }

    fn remove_label(&mut self, label: usize) -> usize {
        crate::compact_remove_label(self.dim, label, &mut self.labels, &mut self.data, None)
    }

    fn export(&self) -> (Vec<usize>, Vec<f32>) {
        (self.labels.clone(), self.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FlatIndex {
        let mut ix = FlatIndex::new(2, Metric::Euclidean);
        ix.add(0, &[0.0, 0.0]);
        ix.add(0, &[0.1, 0.0]);
        ix.add(1, &[1.0, 1.0]);
        ix.add(2, &[2.0, 2.0]);
        ix
    }

    #[test]
    fn search_finds_nearest_and_counts_evals() {
        let ix = sample();
        let r = ix.search(&[0.05, 0.0], 2);
        assert_eq!(r.distance_evals, 4);
        assert_eq!(r.neighbors.len(), 2);
        assert!(r.neighbors.iter().all(|n| n.label == 0));
        // (0, 0) and (0.1, 0) tie at 0.05² from the query; ties break
        // toward the lower id.
        assert_eq!(r.top().unwrap().id, 0);
        assert!((r.nearest - 0.05f32 * 0.05).abs() < 1e-9);
    }

    #[test]
    fn empty_index_returns_empty_result() {
        let ix = FlatIndex::new(3, Metric::Euclidean);
        let r = ix.search(&[0.0, 0.0, 0.0], 5);
        assert!(r.neighbors.is_empty());
        assert_eq!(r.nearest, f32::INFINITY);
        assert_eq!(r.distance_evals, 0);
    }

    #[test]
    fn remove_label_compacts_in_order() {
        let mut ix = sample();
        assert_eq!(ix.remove_label(0), 2);
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.labels(), &[1, 2]);
        assert_eq!(ix.rows().row(0), &[1.0, 1.0]);
        assert_eq!(ix.rows().row(1), &[2.0, 2.0]);
        assert_eq!(ix.remove_label(7), 0);
    }

    #[test]
    fn swap_label_replaces_only_that_label() {
        let mut ix = sample();
        let fresh = [9.0f32, 9.0, 8.0, 8.0];
        let removed = ix.swap_label(0, Rows::new(2, &fresh));
        assert_eq!(removed, 2);
        assert_eq!(ix.len(), 4);
        assert_eq!(ix.labels(), &[1, 2, 0, 0]);
        assert_eq!(ix.rows().row(2), &[9.0, 9.0]);
    }

    #[test]
    fn chunked_scan_matches_unchunked_reference() {
        // More rows than one scan block, random-ish values.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let dim = 7;
        let mut ix = FlatIndex::new(dim, Metric::Euclidean);
        let mut rows = Vec::new();
        for i in 0..3 * SCAN_CHUNK_ROWS + 5 {
            let v: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
            ix.add(i % 9, &v);
            rows.push(v);
        }
        let query: Vec<f32> = (0..dim).map(|_| rng.random_range(-1.0f32..1.0)).collect();
        let r = ix.search(&query, 10);
        // Reference: naive argmin over all rows.
        let naive_nearest = rows
            .iter()
            .map(|v| Metric::Euclidean.eval(&query, v))
            .fold(f32::INFINITY, f32::min);
        assert_eq!(r.nearest, naive_nearest);
        assert_eq!(r.distance_evals, rows.len() as u64);
        assert_eq!(r.neighbors.len(), 10);
    }

    #[test]
    fn serde_round_trip() {
        let ix = sample();
        let json = serde_json::to_string(&ix).unwrap();
        let back: FlatIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ix);
    }
}
