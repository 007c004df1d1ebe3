//! Query-blocked batch scan kernels: amortize the store scan across a
//! whole block of queries.
//!
//! A per-query scan streams every stored row through memory once *per
//! query*: a 64-trace batch reads the store 64 times, and at serving
//! scale the scan is memory-bandwidth-bound, not arithmetic-bound (the
//! PQ experiments showed this first). The fix is the same register/
//! cache blocking `tlsfp-nn`'s `matmul_t` applies on the training side:
//! walk the store in [`crate::flat::SCAN_CHUNK_ROWS`]-row tiles × Q-query
//! blocks, so each row tile is loaded once per block and evaluated
//! against every query in the block while it is hot in L1.
//!
//! # The bit-identity contract
//!
//! Blocking reorders *which (query, row) pair is evaluated when* — it
//! never reorders the arithmetic inside a pair. Each pair keeps a
//! single accumulator evaluated by the same [`crate::Metric::eval`]
//! call in the same row order per query, so every distance comes out
//! bit-identical to the serial path. Selection state is per-query
//! (heap, `nearest` fold, eval counter), and each backend's kernel
//! replays its serial selection rule exactly:
//!
//! - **flat** ([`flat_search_block`]): rows are fed to each query's
//!   dist-only heap in ascending row order — the identical comparison
//!   sequence — so even the heap's *iteration order* is preserved.
//! - **IVF/PQ** (overrides in their own modules): candidates go through
//!   a `SelectEntry` heap whose `(dist, id)` total order makes
//!   the selected set insertion-order-independent, and results are
//!   emitted via `into_sorted_vec` — canonical whatever order lists or
//!   tiles were visited in.
//!
//! Every batch path scans at [`auto_query_block`]; the block size never
//! changes a result. The proptests in `tests/batch_scan_props.rs` pin
//! blocked results to the per-query loop bit-for-bit (distances, ids,
//! labels, neighbor order, eval counts) across backends, block sizes
//! and thread counts. Backends keep their own neighbor order; the
//! sharded store's merge is what puts every query's neighbors in
//! `(dist, id)` order.

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
/// query in the block while hot in cache. Per query, the result is
/// **bit-identical** to [`crate::flat::flat_search`] — same distances,
/// same bounded dist-only heap replaying the same comparison sequence
/// (rows arrive in ascending row order per query), same heap iteration
/// order in the output.
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
                let entry = FlatHeapEntry {
                    dist,
                    id,
                    label: labels[id as usize],
                };
                if heap.len() < k {
                    heap.push(entry);
                } else if let Some(worst) = heap.peek() {
                    if dist < worst.dist {
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
            neighbors: heap
                .into_iter()
                .map(|e| Neighbor {
                    id: e.id,
                    label: e.label,
                    dist: e.dist,
                })
                .collect(),
            nearest,
            distance_evals: rows.len() as u64,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::flat::flat_search;

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
    fn blocked_flat_scan_is_bit_identical_to_serial() {
        let mut rng = StdRng::seed_from_u64(42);
        let dim = 5;
        // Several tiles' worth of rows, with exact duplicates so
        // boundary distance ties actually occur.
        let n = 2 * SCAN_CHUNK_ROWS + 17;
        let mut data = Vec::with_capacity(n * dim);
        for i in 0..n {
            let src = i % (n / 2);
            let mut row_rng = StdRng::seed_from_u64(src as u64);
            for _ in 0..dim {
                data.push((row_rng.random_range(0u32..4) as f32) * 0.5);
            }
        }
        let labels: Vec<usize> = (0..n).map(|i| i % 7).collect();
        let rows = Rows::new(dim, &data);
        let queries: Vec<Vec<f32>> = (0..9)
            .map(|_| {
                (0..dim)
                    .map(|_| (rng.random_range(0u32..4) as f32) * 0.5)
                    .collect()
            })
            .collect();
        for k in [1usize, 3, 10, n + 5] {
            let blocked = flat_search_block(rows, &labels, Metric::Euclidean, &queries, k);
            for (q, got) in queries.iter().zip(&blocked) {
                let want = flat_search(rows, &labels, Metric::Euclidean, q, k);
                assert_eq!(got, &want, "blocked flat scan diverged at k={k}");
            }
        }
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
