//! Query-blocked scan kernels, the lane kernel the exact scans share,
//! and the one top-k rule they select through. Each backend's one scan
//! ([`crate::VectorIndex::scan_block`]) serves a block of queries; a
//! single query is a block of one. Scanning query by query would stream
//! every stored row through memory once *per query*: a 64-trace batch
//! reads the store 64 times, and at serving scale the scan is
//! memory-bandwidth-bound (the PQ experiments showed this first). The
//! fix is the register/cache blocking `tlsfp-nn`'s `matmul_t` applies
//! on the training side: walk the store in tiles × Q-query blocks, so
//! each tile is loaded once per block and evaluated against every query
//! in the block while it is hot in L1.
//!
//! # Columns and lanes
//!
//! The flat backend and every IVF list store their rows column-major
//! (dimension `d` of every row contiguous), and one lane kernel,
//! `scan_lanes`, scores 16 rows per step: lane `l` accumulates
//! `(q[d] − x[d][l])²` for row `l` in ascending `d` from `-0.0`. That
//! is `tlsfp_nn::tensor::euclidean_sq`'s arithmetic in its order —
//! `euclidean_sq` is a sequential sum that cannot be vectorized across
//! dims without reassociating it, so the kernel vectorizes across rows
//! instead. Their scans walk the columns in tiles of four lane blocks
//! (64 rows). PQ scans its u8 codes in
//! [`crate::pq::SCAN_CHUNK_ROWS`]-vector tiles.
//!
//! # One selection rule
//!
//! Every kernel pushes its candidates into caller-supplied [`TopK`]
//! accumulators, one per query, under ids an [`IdMap`] translates into
//! the caller's id space. A `TopK` keeps the `k` smallest candidates
//! under `(dist, id)` — a total order over distinct ids — so the kept
//! set never depends on the order candidates arrive in, nor on how
//! they were split across accumulators before a [`TopK::merge`]. Flat
//! pushes every row, IVF the rows of each query's probed lists, and PQ
//! only its exact re-ranked rows, after cutting its ADC candidates
//! through a `TopK` of its own; the sharded store merges one
//! accumulator per group of shards. A padding lane of a partly filled
//! last block is never pushed, so `distance_evals` counts rows.
//!
//! # Block composition never changes a result
//!
//! Blocking reorders *which (query, row) pair is evaluated when* — it
//! never reorders the arithmetic inside a pair. Each pair's distance is
//! one lane's own sum, bit-identical to [`crate::Metric::eval`] on the
//! same pair (lanes run side by side but never mix), and selection
//! state is per query (kept set, `nearest` fold, eval counter).
//!
//! Every batch path scans at [`auto_query_block`]. Unit tests hold each
//! kernel against a naive reference (untiled, row-major, one query at a
//! time through [`crate::Metric::eval`], every candidate sorted,
//! without telemetry) and the lanes against `euclidean_sq` on special
//! values (±0, ±inf, NaN, subnormals, ±1e30); the proptests in
//! `tests/batch_scan_props.rs` pin results across block sizes and
//! thread counts bit for bit (distances, ids, labels, neighbor order,
//! eval counts), and `tests/rowset_churn.rs` holds the row store to a
//! row-major model through random churn.

use std::ops::Range;

use crate::rowset::RowSet;
use crate::{by_dist_id, Neighbor, SearchResult};

/// Rows the lane kernel scores per step: lane `l` of a step holds row
/// `16·b + l` of a [`RowSet`] block `b`. A constant of the layout, not a
/// tuning knob — no result depends on it.
pub(crate) const LANES: usize = 16;

/// Lane blocks per tile of a blocked scan: 4 × 16 rows × 32 dims × 4
/// bytes = 8 KiB of columns, scored against every query of the block
/// while it is hot in L1.
const TILE_BLOCKS: usize = 4;

/// `rows`' lane blocks in tiles of [`TILE_BLOCKS`], in row order.
pub(crate) fn tiles(rows: &RowSet) -> impl Iterator<Item = Range<usize>> {
    let blocks = rows.len().div_ceil(LANES);
    (0..blocks)
        .step_by(TILE_BLOCKS)
        .map(move |b| b..(b + TILE_BLOCKS).min(blocks))
}

/// The lane kernel: scores `query` against the rows of `rows`' lane
/// blocks `blocks` and pushes every row — padding lanes excluded — into
/// `acc` as `(dist, id_of(row), label)`.
///
/// Lane `l` accumulates `(q[d] − x[d][l])²` in ascending `d`, starting
/// from `-0.0` (where `f32: Sum` starts), with the square rounded
/// before the add (Rust never contracts the two into an FMA). That is
/// [`tlsfp_nn::tensor::euclidean_sq`]`(query, row)`'s arithmetic in its
/// order, so every distance is bit-identical to it; only the lanes run
/// side by side.
#[inline]
pub(crate) fn scan_lanes(
    rows: &RowSet,
    blocks: Range<usize>,
    query: &[f32],
    acc: &mut TopK,
    id_of: impl Fn(usize) -> u64,
) {
    let labels = rows.labels();
    for block in blocks {
        let base = block * LANES;
        let mut dist = [-0.0f32; LANES];
        for (col, &q) in rows.columns().zip(query) {
            let x: &[f32; LANES] = col[base..base + LANES].try_into().expect("one lane block");
            for (s, &v) in dist.iter_mut().zip(x) {
                let t = q - v;
                *s += t * t;
            }
        }
        let live = (labels.len() - base).min(LANES);
        for (row, &dist) in (base..).zip(&dist[..live]) {
            acc.push(Neighbor {
                dist,
                id: id_of(row),
                label: labels[row],
            });
        }
    }
}

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

/// Translates a backend's local ids into the id space of the
/// accumulators it scans into: `local * stride + offset`. The sharded
/// store scans shard `s` of `S` at `{ stride: S, offset: s }`, which is
/// order-preserving within a shard and unique across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdMap {
    /// Multiplies every local id.
    pub stride: u64,
    /// Added after the multiply.
    pub offset: u64,
}

impl IdMap {
    /// Local ids unchanged: a standalone search.
    pub const IDENTITY: IdMap = IdMap {
        stride: 1,
        offset: 0,
    };

    /// The id `local` maps to.
    #[inline]
    pub fn map(self, local: u64) -> u64 {
        local * self.stride + self.offset
    }
}

/// The most candidates a [`TopK`] reserves room for up front; past it
/// the reservoir grows on demand, so a huge `k` allocates nothing early.
const RESERVOIR_RESERVE_MAX: usize = 4096;

/// One query's top-k accumulator — the one selection rule of the crate.
///
/// Keeps the `k` smallest candidates pushed or merged in so far under
/// `(dist, id)` (distances by `total_cmp`), folds `nearest` (the
/// smallest pushed distance, by `f32::min`) and counts distance
/// evaluations. Ids must be distinct, which makes the order total: the
/// kept set is the same whatever order candidates arrive in and however
/// they are split across accumulators before [`TopK::merge`].
///
/// Memory is bounded at `2k` candidates: a reservoir that, whenever it
/// fills, is cut back to its `k` smallest with `select_nth_unstable_by`.
/// After the first cut, a candidate that does not order below the
/// largest one kept is rejected without being stored.
///
/// ```
/// use tlsfp_index::{Neighbor, TopK};
/// let mut a = TopK::new(2);
/// let mut b = TopK::new(2);
/// for (id, dist) in [(0u64, 3.0f32), (1, 1.0), (2, 1.0)] {
///     a.push(Neighbor { id, label: 0, dist });
/// }
/// b.push(Neighbor { id: 3, label: 1, dist: 0.5 });
/// a.merge(b);
/// let r = a.finish();
/// let ids: Vec<u64> = r.neighbors.iter().map(|n| n.id).collect();
/// assert_eq!(ids, [3, 1]); // the 1.0 tie keeps the lower id
/// assert_eq!((r.nearest, r.distance_evals), (0.5, 4));
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    kept: Vec<Neighbor>,
    /// The largest kept candidate as of the last cut: every later
    /// candidate must order below it.
    bar: Option<Neighbor>,
    nearest: f32,
    distance_evals: u64,
}

impl TopK {
    /// An empty accumulator that keeps `k.max(1)` candidates.
    pub fn new(k: usize) -> Self {
        TopK {
            k: k.max(1),
            kept: Vec::new(),
            bar: None,
            nearest: f32::INFINITY,
            distance_evals: 0,
        }
    }

    /// How many candidates it keeps.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Scans one candidate: one distance evaluation, folded into
    /// `nearest`, and kept while it is among the `k` smallest.
    #[inline]
    pub fn push(&mut self, candidate: Neighbor) {
        self.distance_evals += 1;
        self.nearest = self.nearest.min(candidate.dist);
        self.keep(candidate);
    }

    /// Counts `n` distance evaluations that yield no candidate (IVF's
    /// centroid ranking, PQ's lookup tables).
    pub fn add_evals(&mut self, n: u64) {
        self.distance_evals += n;
    }

    /// Folds `other` in: the `k` smallest of both kept sets, the smaller
    /// `nearest`, and the summed eval counts.
    pub fn merge(&mut self, other: TopK) {
        self.distance_evals += other.distance_evals;
        self.nearest = self.nearest.min(other.nearest);
        for candidate in other.kept {
            self.keep(candidate);
        }
    }

    /// Cuts to the `k` smallest and moves them to an exact-size copy, for
    /// an accumulator held until a merge: `2k` room per held query would
    /// double a batch's memory, and freeing the reservoir whole lets the
    /// next one reuse it, where an in-place shrink leaves a hole.
    pub(crate) fn compact(&mut self) {
        self.cut();
        if self.kept.capacity() > self.kept.len() {
            self.kept = self.kept.to_vec();
        }
    }

    /// The result: the `k` smallest candidates in `(dist, id)` order.
    pub fn finish(mut self) -> SearchResult {
        self.compact();
        self.kept.sort_by(by_dist_id);
        SearchResult {
            neighbors: self.kept,
            nearest: self.nearest,
            distance_evals: self.distance_evals,
        }
    }

    #[inline]
    fn keep(&mut self, candidate: Neighbor) {
        if self
            .bar
            .is_some_and(|bar| by_dist_id(&candidate, &bar).is_ge())
        {
            return;
        }
        if self.kept.capacity() == 0 {
            // One reservation instead of a doubling chain: a block's
            // reservoirs grow side by side, and the smaller buffers a
            // chain discards fragment the heap.
            let room = self.k.saturating_mul(2).min(RESERVOIR_RESERVE_MAX);
            self.kept.reserve_exact(room);
        }
        self.kept.push(candidate);
        if self.kept.len() >= self.k.saturating_mul(2) {
            self.cut();
        }
    }

    /// Cuts the reservoir back to its `k` smallest and raises the bar.
    fn cut(&mut self) {
        if self.kept.len() > self.k {
            self.kept.select_nth_unstable_by(self.k - 1, by_dist_id);
            self.kept.truncate(self.k);
            self.bar = Some(self.kept[self.k - 1]);
        }
    }
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
    use proptest::prelude::*;

    use tlsfp_nn::tensor::euclidean_sq;

    use super::*;
    use crate::{FlatIndex, Metric, Rows, VectorIndex};

    /// The naive reference: one query, every row in insertion order
    /// with no tiling, sorted by `(dist, id)`.
    fn naive_flat(rows: Rows<'_>, labels: &[usize], query: &[f32], k: usize) -> SearchResult {
        let candidates = rows
            .iter()
            .zip(labels)
            .enumerate()
            .map(|(i, (row, &label))| Neighbor {
                id: i as u64,
                label,
                dist: Metric::Euclidean.eval(query, row),
            })
            .collect();
        sorted_result(candidates, k, rows.len())
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
        // Several tiles' worth of rows, so ties straddle tile edges, and
        // a last lane block with one live lane.
        let (data, labels, queries) = planted_duplicates(9 * LANES + 1, 5, 7, 9, 42);
        let rows = Rows::new(5, &data);
        let ix = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        assert_kernel_matches(&ix, &queries, |q, k| naive_flat(rows, &labels, q, k));
    }

    #[test]
    fn lanes_match_euclidean_sq_on_special_values() {
        // ±0, ±inf, NaN, subnormals, ±1e30 and ordinary values in both
        // rows and queries; 7 rows short of a whole lane block.
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::from_bits(1),
            -f32::MIN_POSITIVE / 4.0,
            1e30,
            -1e30,
            1.5,
            -2.25,
        ];
        let dim = 3;
        let n = 8 * LANES + 9;
        let pick = |i: usize, d: usize| specials[(i * 7 + d * 5 + i / 11) % specials.len()];
        let data: Vec<f32> = (0..n)
            .flat_map(|i| (0..dim).map(move |d| pick(i, d)))
            .collect();
        let labels: Vec<usize> = (0..n).map(|i| i % 4).collect();
        let rows = Rows::new(dim, &data);
        let set = RowSet::from_rows(rows, &labels);
        for qi in 0..40 {
            let query: Vec<f32> = (0..dim).map(|d| pick(qi * 3 + 1, d + qi)).collect();
            let mut acc = TopK::new(n + LANES);
            let blocks = n.div_ceil(LANES);
            scan_lanes(&set, 0..blocks, &query, &mut acc, |row| row as u64);
            let r = acc.finish();
            // Every row reached the accumulator once; no padding lane did.
            assert_eq!(r.distance_evals, n as u64);
            let mut seen: Vec<u64> = r.neighbors.iter().map(|c| c.id).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n as u64).collect::<Vec<_>>());
            for c in &r.neighbors {
                let want = euclidean_sq(&query, rows.row(c.id as usize));
                assert_eq!(c.label, labels[c.id as usize]);
                if want.is_nan() {
                    assert!(c.dist.is_nan(), "query {qi} row {}", c.id);
                } else {
                    assert_eq!(c.dist.to_bits(), want.to_bits(), "query {qi} row {}", c.id);
                }
            }
        }
    }

    #[test]
    fn blocked_flat_scan_handles_empty_inputs() {
        let empty = FlatIndex::new(3, Metric::Euclidean);
        assert_eq!(
            empty.search_block(&[vec![0.0; 3]], 4),
            vec![SearchResult::empty()]
        );
        let one = FlatIndex::from_rows(Metric::Euclidean, Rows::new(3, &[1.0, 2.0, 3.0]), &[0]);
        assert!(one.search_block(&[], 4).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Candidates with planted ties and `+inf`/NaN/`-NaN` distances,
        /// split into any number of groups, each scanned into its own
        /// accumulator and merged in any order: the one sort of every
        /// candidate under `(dist, id)` cut to `k`, with `nearest` and
        /// the eval count folded over all of them. No reservoir ever
        /// holds more than `2k` candidates.
        #[test]
        fn merged_groups_equal_one_sort(
            codes in prop::collection::vec(0u8..12, 0..120),
            k in 0usize..20,
            n_groups in 1usize..7,
            salt in 0u64..1_000_000,
        ) {
            let hash = |v: u64| v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17);
            let candidates: Vec<Neighbor> = (0u64..)
                .zip(&codes)
                .map(|(i, &c)| Neighbor {
                    id: hash(salt ^ i) << 8 | i, // distinct, scrambled
                    label: (hash(salt + i) % 5) as usize,
                    dist: [f32::INFINITY, f32::NAN, -f32::NAN]
                        .get(c as usize)
                        .map_or((c % 5) as f32 * 0.25, |&d| d),
                })
                .collect();
            let mut groups = vec![TopK::new(k); n_groups];
            for (i, &n) in (0u64..).zip(&candidates) {
                let group = &mut groups[(hash(salt ^ !i) % n_groups as u64) as usize];
                group.push(n);
                prop_assert!(group.kept.len() <= 2 * group.k);
            }
            groups[0].add_evals(salt % 3);
            let mut merged = groups.swap_remove((salt % n_groups as u64) as usize);
            for group in groups.into_iter().rev() {
                merged.merge(group);
                prop_assert!(merged.kept.len() <= 2 * merged.k);
            }
            let got = merged.finish();

            let nearest = candidates.iter().fold(f32::INFINITY, |m, n| m.min(n.dist));
            let want = sorted_result(candidates.clone(), k, candidates.len());
            let bits = |r: &SearchResult| -> Vec<(u32, u64, usize)> {
                r.neighbors.iter().map(|n| (n.dist.to_bits(), n.id, n.label)).collect()
            };
            prop_assert_eq!(bits(&got), bits(&want));
            prop_assert_eq!(got.nearest.to_bits(), nearest.to_bits());
            prop_assert_eq!(got.distance_evals, want.distance_evals + salt % 3);
        }
    }
}
