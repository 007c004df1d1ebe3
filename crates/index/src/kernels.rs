//! Query-blocked scan kernels — each backend's one scan
//! ([`crate::VectorIndex::search_block`]); a single query is a block of
//! one. Scanning query by query would stream every stored row through
//! memory once *per query*: a 64-trace batch reads the store 64 times,
//! and at serving scale the scan is memory-bandwidth-bound (the PQ
//! experiments showed this first). The fix is the register/cache
//! blocking `tlsfp-nn`'s `matmul_t` applies on the training side: walk
//! the store in [`crate::flat::SCAN_CHUNK_ROWS`]-row tiles × Q-query
//! blocks, so each row tile is loaded once per block and evaluated
//! against every query in the block while it is hot in L1.
//!
//! # Block composition never changes a result
//!
//! Blocking reorders *which (query, row) pair is evaluated when* — it
//! never reorders the arithmetic inside a pair. Each pair keeps a
//! single accumulator evaluated by the same [`crate::Metric::eval`]
//! call in the same row order per query, and selection state is
//! per-query (heap, `nearest` fold, eval counter):
//!
//! - **flat** ([`flat_search_block`]): rows are fed to each query's
//!   dist-only heap in ascending row order — the comparison sequence of
//!   a naive insertion-order scan — so even the heap's *iteration
//!   order* is independent of the block.
//! - **IVF/PQ** (in their own modules): candidates go through a
//!   `SelectEntry` heap whose `(dist, id)` total order makes the
//!   selected set insertion-order-independent, and results are emitted
//!   via `into_sorted_vec` — canonical whatever order lists or tiles
//!   were visited in.
//!
//! Every batch path scans at [`auto_query_block`]. Unit tests hold each
//! kernel against a naive reference (untiled, one query at a time,
//! without telemetry), and the proptests in `tests/batch_scan_props.rs`
//! pin results across block sizes and thread counts bit for bit
//! (distances, ids, labels, neighbor order, eval counts). Backends keep
//! their own neighbor order; the sharded store's merge is what puts
//! every query's neighbors in `(dist, id)` order.

use std::collections::BinaryHeap;

use crate::flat::{FlatHeapEntry, SCAN_CHUNK_ROWS};
use crate::{Metric, Neighbor, Rows, SearchResult};

/// Upper bound on the query block: 64 queries × 32 dims × 4 bytes =
/// 8 KiB of query vectors, which fits in L1 alongside one row tile.
pub const MAX_QUERY_BLOCK: usize = 64;

/// The block size every batch path scans with, for a batch of `batch`
/// queries served by `workers` threads: the batch split evenly across
/// the worker pool (so blocking never costs thread utilization), capped
/// at [`MAX_QUERY_BLOCK`] and floored at 1.
///
/// Results are bit-identical at *every* block size — blocking only
/// moves the amortization/parallelism trade-off.
///
/// ```
/// use tlsfp_index::kernels::auto_query_block;
/// assert_eq!(auto_query_block(64, 4), 16);  // 64/4
/// assert_eq!(auto_query_block(256, 1), 64); // capped at 64
/// assert_eq!(auto_query_block(3, 8), 1);    // never zero
/// ```
pub fn auto_query_block(batch: usize, workers: usize) -> usize {
    batch.div_ceil(workers.max(1)).clamp(1, MAX_QUERY_BLOCK)
}

/// Records one blocked-scan block into the per-backend block-size
/// histogram (`tlsfp_query_block_size{backend=...}`). `$backend` must
/// be a literal (the handle cache is per call site). Observation only.
macro_rules! record_block_size {
    ($backend:literal, $len:expr) => {
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::histogram!(
                "tlsfp_query_block_size",
                "Queries per blocked-scan block, by index backend",
                "backend" => $backend
            )
            .observe($len as u64);
        }
    };
}
pub(crate) use record_block_size;

/// The blocked exact scan: one pass over `rows` in
/// [`SCAN_CHUNK_ROWS`]-row tiles, each tile evaluated against every
/// query in the block while hot in cache. Per query, a bounded max-heap
/// keyed on distance alone is fed rows in ascending row order, so the
/// result — heap iteration order included — is **bit-identical** to a
/// naive insertion-order scan; `nearest` is the minimum over all rows.
pub fn flat_search_block(
    rows: Rows<'_>,
    labels: &[usize],
    metric: Metric,
    queries: &[Vec<f32>],
    k: usize,
) -> Vec<SearchResult> {
    debug_assert_eq!(rows.len(), labels.len(), "one label per row");
    if rows.is_empty() {
        return vec![SearchResult::empty(); queries.len()];
    }
    if queries.is_empty() {
        return Vec::new();
    }
    let k = k.min(rows.len()).max(1);
    let nq = queries.len();
    let mut heaps: Vec<BinaryHeap<FlatHeapEntry>> =
        (0..nq).map(|_| BinaryHeap::with_capacity(k + 1)).collect();
    let mut nearest = vec![f32::INFINITY; nq];
    let dim = rows.dim().max(1);
    let tile = SCAN_CHUNK_ROWS * dim;
    let mut base = 0u64;
    for chunk in rows.data().chunks(tile) {
        for (qi, query) in queries.iter().enumerate() {
            let heap = &mut heaps[qi];
            for (id, row) in (base..).zip(chunk.chunks_exact(dim)) {
                let dist = metric.eval(query, row);
                nearest[qi] = nearest[qi].min(dist);
                let entry = FlatHeapEntry(Neighbor {
                    dist,
                    id,
                    label: labels[id as usize],
                });
                if heap.len() < k {
                    heap.push(entry);
                } else if let Some(worst) = heap.peek() {
                    if dist < worst.0.dist {
                        heap.pop();
                        heap.push(entry);
                    }
                }
            }
        }
        base += (chunk.len() / dim) as u64;
    }
    heaps
        .into_iter()
        .zip(nearest)
        .map(|(heap, nearest)| SearchResult {
            neighbors: heap.into_iter().map(|e| e.0).collect(),
            nearest,
            distance_evals: rows.len() as u64,
        })
        .collect()
}

/// A kernel test corpus with planted exact duplicates: row `i` repeats
/// row `i % (n / 2)` on a coarse grid, so distance ties between
/// distinct ids are certain, labeled `i % classes`; plus `n_queries`
/// queries on the same grid.
#[cfg(test)]
pub(crate) fn planted_duplicates(
    n: usize,
    dim: usize,
    classes: usize,
    n_queries: usize,
    seed: u64,
) -> (Vec<f32>, Vec<usize>, Vec<Vec<f32>>) {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let grid = |rng: &mut StdRng| rng.random_range(0u32..4) as f32 * 0.5;
    let mut data = Vec::with_capacity(n * dim);
    for i in 0..n {
        let mut row_rng = StdRng::seed_from_u64(seed ^ (i % (n / 2).max(1)) as u64);
        data.extend((0..dim).map(|_| grid(&mut row_rng)));
    }
    let labels = (0..n).map(|i| i % classes).collect();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0x5EED));
    let queries = (0..n_queries)
        .map(|_| (0..dim).map(|_| grid(&mut rng)).collect())
        .collect();
    (data, labels, queries)
}

/// Asserts `index`'s scan kernel equals `reference` (a naive
/// one-query scan) for every query, at block sizes {1, 3, all} and `k`
/// from 1 to past the index size.
#[cfg(test)]
pub(crate) fn assert_kernel_matches(
    index: &dyn crate::VectorIndex,
    queries: &[Vec<f32>],
    reference: impl Fn(&[f32], usize) -> SearchResult,
) {
    for k in [1usize, 3, 10, index.len() + 5] {
        for block in [1usize, 3, queries.len()] {
            let got = queries.chunks(block).flat_map(|b| index.search_block(b, k));
            for (q, got) in queries.iter().zip(got) {
                assert_eq!(got, reference(q, k), "k={k} block={block}");
            }
        }
    }
}

/// A naive reference's result from every candidate it scanned: the
/// candidates in `(dist, id)` order cut to `k`, and the nearest one's
/// distance.
#[cfg(test)]
pub(crate) fn sorted_result(mut candidates: Vec<Neighbor>, k: usize, evals: usize) -> SearchResult {
    candidates.sort_by(crate::by_dist_id);
    let nearest = candidates.first().map_or(f32::INFINITY, |n| n.dist);
    candidates.truncate(k.max(1));
    SearchResult {
        neighbors: candidates,
        nearest,
        distance_evals: evals as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatIndex;

    /// The naive reference: one query, rows in insertion order with no
    /// tiling, into the same dist-only heap rule.
    fn naive_flat(rows: Rows<'_>, labels: &[usize], query: &[f32], k: usize) -> SearchResult {
        let mut heap = BinaryHeap::new();
        let mut nearest = f32::INFINITY;
        for (i, row) in rows.iter().enumerate() {
            let dist = Metric::Euclidean.eval(query, row);
            nearest = nearest.min(dist);
            let entry = FlatHeapEntry(Neighbor {
                dist,
                id: i as u64,
                label: labels[i],
            });
            if heap.len() < k.max(1) {
                heap.push(entry);
            } else if heap.peek().is_some_and(|w: &FlatHeapEntry| dist < w.0.dist) {
                heap.pop();
                heap.push(entry);
            }
        }
        SearchResult {
            neighbors: heap.into_iter().map(|e| e.0).collect(),
            nearest,
            distance_evals: rows.len() as u64,
        }
    }

    #[test]
    fn auto_query_block_splits_across_workers() {
        assert_eq!(auto_query_block(1, 1), 1);
        assert_eq!(auto_query_block(64, 1), 64);
        assert_eq!(auto_query_block(64, 4), 16);
        assert_eq!(auto_query_block(65, 4), 17);
        assert_eq!(auto_query_block(1_000, 2), MAX_QUERY_BLOCK);
        assert_eq!(auto_query_block(0, 4), 1);
        assert_eq!(auto_query_block(8, 0), 8, "0 workers clamps to 1");
        assert_eq!(auto_query_block(64, 100), 1);
    }

    #[test]
    fn flat_kernel_matches_the_naive_reference() {
        // Several tiles' worth of rows, so ties straddle tile edges.
        let (data, labels, queries) = planted_duplicates(2 * SCAN_CHUNK_ROWS + 17, 5, 7, 9, 42);
        let rows = Rows::new(5, &data);
        let ix = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        assert_kernel_matches(&ix, &queries, |q, k| naive_flat(rows, &labels, q, k));
    }

    #[test]
    fn blocked_flat_scan_handles_empty_inputs() {
        let rows = Rows::new(3, &[]);
        let out = flat_search_block(rows, &[], Metric::Euclidean, &[vec![0.0; 3]], 4);
        assert_eq!(out, vec![SearchResult::empty()]);
        let data = [1.0f32, 2.0, 3.0];
        let out = flat_search_block(Rows::new(3, &data), &[0], Metric::Euclidean, &[], 4);
        assert!(out.is_empty());
    }
}
