//! The product-quantization (PQ) backend: embeddings compressed to a
//! few bytes each, scanned through per-query lookup tables, with an
//! exact re-rank of the best candidates.
//!
//! The embedding is split into [`PqIndex::m`] contiguous sub-vectors;
//! each sub-space gets its own codebook of up to [`KSUB_MAX`] centroids
//! trained with the same deterministic k-means as the IVF coarse
//! quantizer ([`crate::ivf`]). A stored vector is then scanned as just
//! `m` one-byte centroid codes — 8 bytes instead of 128 at the default
//! 32-dim embedding — which keeps the scan working set small at 10⁵+
//! classes.
//!
//! Queries use **asymmetric distance computation** (ADC): the query
//! stays full-precision, and a per-query lookup table of
//! `m × ksub` sub-distances turns each stored vector's distance into
//! `m` table adds. The top [`PqParams::rerank`] candidates by ADC
//! distance are then **re-ranked exactly** against retained
//! full-precision rows, so the final top-k distances (and the
//! open-world `nearest` score) are exact under the configured metric —
//! quantization can only cost recall, never corrupt a reported
//! distance. With `rerank >= len()` the backend is exact and matches
//! [`crate::FlatIndex`] result-for-result.
//!
//! The retained rows are cold storage: a scan touches only the codes
//! and the lookup table, and the re-rank reads `rerank` rows. Memory
//! *bandwidth* during the scan therefore drops by the same factor as
//! the code compression (`dim × 4` bytes → `m` bytes per vector).
//! Resident memory does not: each vector keeps its `dim × 4`-byte row
//! beside its `m` codes, and those rows are also what
//! [`VectorIndex::export`] hands a rebuild.
//!
//! Codebooks are trained and scanned under squared Euclidean distance,
//! the one [`Metric`], which decomposes over sub-spaces; the re-rank
//! evaluates the same metric on the full rows.
//!
//! Like IVF, the quantizer is **frozen at build time**: `add` encodes
//! against the existing codebooks, `remove_label` compacts in place,
//! and nothing re-clusters on churn (the paper's adaptation economics).
//! Heavy drift degrades code fidelity instead of list balance; rebuild
//! through the same lifecycle (`AdaptiveFingerprinter::set_index` /
//! `ShardedStore::set_index`) when recall sags.

use serde::{Deserialize, Serialize};

use tlsfp_nn::tensor::euclidean_sq;

use crate::kernels::{record_block_size, IdMap, TopK};
use crate::{Metric, Neighbor, Rows, VectorIndex};

/// Vectors per code tile of the ADC scan: 64 vectors × 8 code bytes is
/// 512 bytes per tile, loaded once per query block and scored against
/// every query's lookup table while hot in L1.
pub const SCAN_CHUNK_ROWS: usize = 64;

/// Maximum centroids per sub-quantizer — one `u8` code per sub-space.
/// The effective count is `min(KSUB_MAX, n)` at build time.
pub const KSUB_MAX: usize = 256;

/// Code bytes per vector the auto parameterization targets: `m` becomes
/// the largest divisor of `dim` that is `<= AUTO_CODE_BYTES`.
pub const AUTO_CODE_BYTES: usize = 8;

/// Re-rank depth under auto parameters: how many ADC candidates get
/// exact distances (floored at `k` per query at search time).
pub const AUTO_RERANK: usize = 32;

/// PQ build parameters. Zero means "resolve automatically at build
/// time": `m` = largest divisor of `dim` at most [`AUTO_CODE_BYTES`],
/// `rerank` = [`AUTO_RERANK`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PqParams {
    /// Number of sub-quantizers (code bytes per vector). `0` = auto.
    /// Explicit values are clamped to `[1, dim]` and lowered to the
    /// nearest divisor of `dim`.
    pub m: usize,
    /// ADC candidates re-ranked exactly per query. `0` = auto.
    pub rerank: usize,
}

impl PqParams {
    /// Fully automatic parameters.
    pub fn auto() -> Self {
        PqParams { m: 0, rerank: 0 }
    }

    /// Explicit parameters.
    pub fn new(m: usize, rerank: usize) -> Self {
        PqParams { m, rerank }
    }

    /// The sub-quantizer count (code bytes per vector) these
    /// parameters resolve to for `dim`-dimensional embeddings.
    pub fn resolved_m(&self, dim: usize) -> usize {
        resolve_m(self.m, dim)
    }

    /// The re-rank depth these parameters resolve to.
    pub fn resolved_rerank(&self) -> usize {
        if self.rerank == 0 {
            AUTO_RERANK
        } else {
            self.rerank
        }
    }
}

/// Resolves the sub-quantizer count: clamp into `[1, dim]`, then lower
/// to the nearest divisor of `dim` so sub-vectors tile the embedding
/// exactly. `0` targets [`AUTO_CODE_BYTES`] code bytes.
fn resolve_m(m: usize, dim: usize) -> usize {
    let d = dim.max(1);
    let mut m = if m == 0 {
        AUTO_CODE_BYTES.min(d)
    } else {
        m.min(d)
    }
    .max(1);
    while d % m != 0 {
        m -= 1;
    }
    m
}

/// The product-quantized index.
///
/// ```
/// use tlsfp_index::{Metric, PqIndex, PqParams, Rows, VectorIndex};
/// // Two well-separated clusters in 4-d; m = 2 sub-quantizers.
/// let data: Vec<f32> = (0..8).flat_map(|i| vec![(i / 4) as f32 * 10.0 + (i % 4) as f32 * 0.1; 4]).collect();
/// let labels: Vec<usize> = (0..8).map(|i| i / 4).collect();
/// let ix = PqIndex::build(PqParams::new(2, 4), Metric::Euclidean, Rows::new(4, &data), &labels);
/// assert_eq!(ix.code_bytes_per_vector(), 2); // vs 16 bytes of f32
/// let r = ix.search(&[10.05; 4], 1);
/// assert_eq!(r.top().unwrap().label, 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PqIndex {
    dim: usize,
    metric: Metric,
    /// Sub-quantizers (code bytes per vector); divides `dim`.
    m: usize,
    /// `dim / m`.
    sub_dim: usize,
    /// Centroids per sub-quantizer, resolved at build time.
    ksub: usize,
    /// ADC candidates re-ranked exactly per query.
    rerank: usize,
    /// Sub-quantizer centroids, row-major `m × ksub × sub_dim`.
    codebooks: Vec<f32>,
    /// Centroid codes, row-major `n × m` — the scan working set.
    codes: Vec<u8>,
    /// Stable insertion ids, ascending (compaction preserves order).
    ids: Vec<u64>,
    labels: Vec<usize>,
    /// Retained full-precision rows (`n × dim`) — cold storage read
    /// only by the re-rank, never by the ADC scan.
    data: Vec<f32>,
    next_id: u64,
}

impl PqIndex {
    /// Builds the index: trains one codebook per sub-space on `rows`
    /// with the deterministic k-means, then encodes every row.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub fn build(params: PqParams, metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let n = rows.len();
        let dim = rows.dim();
        let m = resolve_m(params.m, dim);
        let sub_dim = dim / m;
        let ksub = KSUB_MAX.min(n.max(1));
        let rerank = if params.rerank == 0 {
            AUTO_RERANK
        } else {
            params.rerank
        };

        // Train per-sub-space codebooks: gather each sub-vector column
        // into contiguous rows and run the shared deterministic k-means.
        let mut codebooks = vec![0.0f32; m * ksub * sub_dim];
        if sub_dim > 0 {
            let mut sub = vec![0.0f32; n * sub_dim];
            for (j, cb) in codebooks.chunks_exact_mut(ksub * sub_dim).enumerate() {
                for (i, row) in rows.iter().enumerate() {
                    sub[i * sub_dim..(i + 1) * sub_dim]
                        .copy_from_slice(&row[j * sub_dim..(j + 1) * sub_dim]);
                }
                cb.copy_from_slice(
                    &crate::ivf::kmeans(Rows::new(sub_dim, &sub), ksub, Metric::Euclidean).0,
                );
            }
        }

        let mut index = PqIndex {
            dim,
            metric,
            m,
            sub_dim,
            ksub,
            rerank,
            codebooks,
            codes: Vec::with_capacity(n * m),
            ids: Vec::with_capacity(n),
            labels: labels.to_vec(),
            data: rows.data().to_vec(),
            next_id: 0,
        };
        for row in rows.iter() {
            index.encode_into(row);
            index.ids.push(index.next_id);
            index.next_id += 1;
        }
        index
    }

    /// Sub-quantizer count — also the code bytes per stored vector.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Centroids per sub-quantizer (resolved at build time).
    pub fn ksub(&self) -> usize {
        self.ksub
    }

    /// Bytes each vector contributes to the scan working set: `m` code
    /// bytes, vs `dim × 4` for a full-precision row. The retained
    /// re-rank rows are excluded — they are cold storage the scan
    /// never touches.
    pub fn code_bytes_per_vector(&self) -> usize {
        self.m
    }

    /// Stored labels, in row order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// Appends `row`'s `m` centroid codes (nearest sub-centroid per
    /// sub-space; ties break toward the lower code) to `self.codes`.
    fn encode_into(&mut self, row: &[f32]) {
        let (m, ksub, sub_dim) = (self.m, self.ksub, self.sub_dim);
        for j in 0..m {
            let cb = &self.codebooks[j * ksub * sub_dim..(j + 1) * ksub * sub_dim];
            let sv = &row[j * sub_dim..(j + 1) * sub_dim];
            let code = crate::ivf::nearest_centroid(cb, sub_dim, Metric::Euclidean, sv);
            self.codes.push(code as u8);
        }
    }
}

impl VectorIndex for PqIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.labels.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Blocked ADC scan — the PQ backend's one scan: all Q lookup
    /// tables are built up front, then one pass over the code array
    /// serves every query in the block — each [`SCAN_CHUNK_ROWS`]-vector
    /// code tile (the u8 codes are the smallest, most reusable payload
    /// in the store) is loaded once per block instead of once per
    /// query. Per query, the LUT is filled in sub-space order, each
    /// vector's ADC distance adds its `m` table entries in fixed
    /// sub-space order, a [`TopK`] keyed on `(approx dist, position)`
    /// keeps the best `max(rerank, k)` candidates, and only their exact
    /// re-ranked distances enter the caller's accumulator.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]) {
        crate::assert_scan_inputs(queries, accs, self.dim);
        let n = self.len();
        let nq = queries.len();
        if n == 0 || nq == 0 {
            return;
        }
        let depth = self.rerank.max(accs[0].k()).min(n);

        // Phase 1: every query's ADC lookup table: m × ksub
        // sub-distances between its sub-vectors and every sub-centroid.
        let lut_len = self.m * self.ksub;
        let lut_evals = if self.sub_dim > 0 { lut_len } else { 0 };
        let mut luts = vec![0.0f32; nq * lut_len];
        if self.sub_dim > 0 {
            for (lut, query) in luts.chunks_exact_mut(lut_len).zip(queries) {
                for (j, lut_j) in lut.chunks_exact_mut(self.ksub).enumerate() {
                    let sv = &query[j * self.sub_dim..(j + 1) * self.sub_dim];
                    let cb = &self.codebooks
                        [j * self.ksub * self.sub_dim..(j + 1) * self.ksub * self.sub_dim];
                    for (cell, centroid) in lut_j.iter_mut().zip(cb.chunks_exact(self.sub_dim)) {
                        *cell = euclidean_sq(sv, centroid);
                    }
                }
            }
        }

        // Phase 2: one tiled pass over the codes serving all queries.
        // Candidates key on (approx dist, row position).
        let mut candidates = vec![TopK::new(depth); nq];
        for (ti, tile) in self.codes.chunks(SCAN_CHUNK_ROWS * self.m).enumerate() {
            let base = ti * SCAN_CHUNK_ROWS;
            for (lut, cand) in luts.chunks_exact(lut_len).zip(&mut candidates) {
                for (pos, code) in (base..).zip(tile.chunks_exact(self.m)) {
                    let mut approx = 0.0f32;
                    for (j, &c) in code.iter().enumerate() {
                        approx += lut[j * self.ksub + c as usize];
                    }
                    cand.push(Neighbor {
                        dist: approx,
                        id: pos as u64,
                        label: self.labels[pos],
                    });
                }
            }
        }

        // Phase 3: per-query exact re-rank of the selected candidates
        // against the retained full-precision rows, under the configured
        // metric. `nearest` folds over the re-ranked candidates only —
        // the ADC scan itself never produces a reported distance.
        for ((query, acc), cand) in queries.iter().zip(accs.iter_mut()).zip(candidates) {
            acc.add_evals(lut_evals as u64);
            for c in cand.finish().neighbors {
                let pos = c.id as usize;
                acc.push(Neighbor {
                    dist: self
                        .metric
                        .eval(query, &self.data[pos * self.dim..(pos + 1) * self.dim]),
                    id: ids.map(self.ids[pos]),
                    label: c.label,
                });
            }
        }

        record_block_size!("pq", nq);
        crate::record_backend_search!("pq", nq, nq * (lut_evals + depth));
        if tlsfp_telemetry::enabled() {
            tlsfp_telemetry::counter!(
                "tlsfp_pq_adc_table_builds_total",
                "Per-query ADC lookup tables built"
            )
            .add(nq as u64);
            let depths = tlsfp_telemetry::histogram!(
                "tlsfp_pq_rerank_depth",
                "Exact re-rank candidates per PQ query"
            );
            for _ in 0..nq {
                depths.observe(depth as u64);
            }
        }
    }

    fn add(&mut self, label: usize, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        self.encode_into(vector);
        self.data.extend_from_slice(vector);
        self.labels.push(label);
        self.ids.push(self.next_id);
        self.next_id += 1;
    }

    fn remove_label(&mut self, label: usize) -> usize {
        // One single-pass compaction over all four aligned tiers:
        // labels, ids, the retained rows and the (u8, stride-m) codes.
        let (dim, m) = (self.dim, self.m);
        let mut kept = 0usize;
        let mut removed = 0usize;
        for i in 0..self.labels.len() {
            if self.labels[i] == label {
                removed += 1;
            } else {
                if kept != i {
                    self.labels[kept] = self.labels[i];
                    self.ids[kept] = self.ids[i];
                    self.data.copy_within(i * dim..(i + 1) * dim, kept * dim);
                    self.codes.copy_within(i * m..(i + 1) * m, kept * m);
                }
                kept += 1;
            }
        }
        self.labels.truncate(kept);
        self.ids.truncate(kept);
        self.data.truncate(kept * dim);
        self.codes.truncate(kept * m);
        removed
    }

    fn export(&self) -> (Vec<usize>, Vec<f32>) {
        (self.labels.clone(), self.data.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlatIndex, SearchResult};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Clustered synthetic rows: `classes` well-separated centers,
    /// `per_class` jittered members each.
    fn clustered(
        classes: usize,
        per_class: usize,
        dim: usize,
        seed: u64,
    ) -> (Vec<f32>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<Vec<f32>> = (0..classes)
            .map(|_| (0..dim).map(|_| rng.random_range(-10.0f32..10.0)).collect())
            .collect();
        let mut data = Vec::with_capacity(classes * per_class * dim);
        let mut labels = Vec::with_capacity(classes * per_class);
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per_class {
                for &x in center {
                    data.push(x + rng.random_range(-0.3f32..0.3));
                }
                labels.push(c);
            }
        }
        (data, labels)
    }

    /// The naive reference: one query's lookup table, every vector's
    /// ADC distance, the best `max(rerank, k)` by `(approx, position)`
    /// from a full sort, then the exact re-rank — no accumulator, no
    /// tiling, no telemetry.
    fn naive_pq(pq: &PqIndex, query: &[f32], k: usize) -> SearchResult {
        let (ksub, sub_dim) = (pq.ksub, pq.sub_dim);
        let lut: Vec<f32> = (0..pq.m)
            .flat_map(|j| {
                let sv = &query[j * sub_dim..(j + 1) * sub_dim];
                let cb = &pq.codebooks[j * ksub * sub_dim..(j + 1) * ksub * sub_dim];
                cb.chunks_exact(sub_dim).map(move |c| euclidean_sq(sv, c))
            })
            .collect();
        let mut approx: Vec<(f32, usize)> = pq
            .codes
            .chunks_exact(pq.m)
            .map(|code| (0..pq.m).fold(0.0f32, |acc, j| acc + lut[j * ksub + code[j] as usize]))
            .zip(0..)
            .collect();
        approx.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        approx.truncate(pq.rerank.max(k).min(pq.len()));
        let reranked = approx
            .iter()
            .map(|&(_, pos)| Neighbor {
                id: pq.ids[pos],
                label: pq.labels[pos],
                dist: pq
                    .metric
                    .eval(query, &pq.data[pos * pq.dim..(pos + 1) * pq.dim]),
            })
            .collect();
        crate::kernels::sorted_result(reranked, k, lut.len() + approx.len())
    }

    #[test]
    fn kernel_matches_the_naive_reference() {
        let (data, labels, queries) = crate::kernels::planted_duplicates(150, 4, 7, 9, 5);
        let rows = Rows::new(4, &data);
        let mut pq = PqIndex::build(PqParams::new(2, 6), Metric::Euclidean, rows, &labels);
        crate::kernels::assert_kernel_matches(&pq, &queries, |q, k| naive_pq(&pq, q, k));
        // After churn ids no longer follow row positions.
        pq.swap_label(3, Rows::new(4, &data[..40]));
        crate::kernels::assert_kernel_matches(&pq, &queries, |q, k| naive_pq(&pq, q, k));
    }

    #[test]
    fn auto_params_resolve_to_divisors_under_the_byte_budget() {
        assert_eq!(resolve_m(0, 32), 8);
        assert_eq!(resolve_m(0, 12), 6);
        assert_eq!(resolve_m(0, 7), 7);
        assert_eq!(resolve_m(0, 9), 3);
        assert_eq!(resolve_m(0, 1), 1);
        // Explicit values clamp and lower to a divisor.
        assert_eq!(resolve_m(5, 32), 4);
        assert_eq!(resolve_m(100, 32), 32);
        for dim in 1..=64usize {
            let m = resolve_m(0, dim);
            assert_eq!(dim % m, 0, "m must divide dim={dim}");
            assert!(m <= AUTO_CODE_BYTES);
        }
    }

    #[test]
    fn recall_on_clustered_data_and_code_compression() {
        let dim = 16;
        let (data, labels) = clustered(40, 4, dim, 3);
        let rows = Rows::new(dim, &data);
        let pq = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &labels);
        assert_eq!(pq.code_bytes_per_vector(), 8);
        assert!(pq.ksub() <= KSUB_MAX);
        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let mut rng = StdRng::seed_from_u64(4);
        let mut hits = 0usize;
        let n_queries = 60;
        for _ in 0..n_queries {
            let q: Vec<f32> = (0..dim).map(|_| rng.random_range(-10.0f32..10.0)).collect();
            let truth = flat.search(&q, 1).top().unwrap();
            let got = pq.search(&q, 1).top().unwrap();
            if got.id == truth.id {
                // Exact re-rank: the distance of a recovered neighbor
                // is bit-identical to the flat scan's.
                assert_eq!(got.dist.to_bits(), truth.dist.to_bits());
                hits += 1;
            }
        }
        assert!(
            hits as f64 / n_queries as f64 >= 0.9,
            "recall@1 {hits}/{n_queries}"
        );
    }

    #[test]
    fn full_rerank_matches_flat_exactly() {
        let dim = 8;
        let (data, labels) = clustered(10, 5, dim, 9);
        let rows = Rows::new(dim, &data);
        let pq = PqIndex::build(
            PqParams::new(4, labels.len()),
            Metric::Euclidean,
            rows,
            &labels,
        );
        let flat = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let mut rng = StdRng::seed_from_u64(10);
        for _ in 0..20 {
            let q: Vec<f32> = (0..dim).map(|_| rng.random_range(-10.0f32..10.0)).collect();
            let exact = pq.search(&q, 5);
            let truth = flat.search(&q, 5);
            assert_eq!(exact.neighbors, truth.neighbors);
            assert_eq!(exact.nearest.to_bits(), truth.nearest.to_bits());
        }
    }

    #[test]
    fn add_remove_swap_keep_codes_aligned() {
        let dim = 4;
        let (data, labels) = clustered(5, 3, dim, 6);
        let rows = Rows::new(dim, &data);
        let mut pq = PqIndex::build(PqParams::new(2, 8), Metric::Euclidean, rows, &labels);
        assert_eq!(pq.len(), 15);
        assert_eq!(pq.remove_label(2), 3);
        assert_eq!(pq.len(), 12);
        assert_eq!(pq.codes.len(), 12 * 2);
        assert_eq!(pq.data.len(), 12 * dim);
        // Survivor ids are stable and still ascending.
        assert!(pq.ids.windows(2).all(|w| w[0] < w[1]));
        // Swap a label; fresh rows land near their own cluster.
        let fresh = vec![42.0f32; 2 * dim];
        assert_eq!(pq.swap_label(0, Rows::new(dim, &fresh)), 3);
        assert_eq!(pq.len(), 11);
        let got = pq.search(&vec![42.0f32; dim], 1).top().unwrap();
        assert_eq!(got.label, 0);
        assert_eq!(pq.remove_label(99), 0);
    }

    #[test]
    fn empty_and_tiny_indexes_are_well_defined() {
        let empty = PqIndex::build(PqParams::auto(), Metric::Euclidean, Rows::new(4, &[]), &[]);
        let r = empty.search(&[0.0; 4], 3);
        assert!(r.neighbors.is_empty());
        assert_eq!(r.nearest, f32::INFINITY);
        // A single row: ksub collapses to 1 and search still works.
        let one = PqIndex::build(
            PqParams::auto(),
            Metric::Euclidean,
            Rows::new(4, &[1.0, 2.0, 3.0, 4.0]),
            &[7],
        );
        assert_eq!(one.ksub(), 1);
        let top = one.search(&[0.0; 4], 1).top().unwrap();
        assert_eq!(top.label, 7);
        assert_eq!(
            top.dist,
            Metric::Euclidean.eval(&[0.0; 4], &[1.0, 2.0, 3.0, 4.0])
        );
    }

    #[test]
    fn build_is_deterministic_and_serde_round_trips() {
        let dim = 8;
        let (data, labels) = clustered(12, 4, dim, 17);
        let rows = Rows::new(dim, &data);
        let a = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &labels);
        let b = PqIndex::build(PqParams::auto(), Metric::Euclidean, rows, &labels);
        assert_eq!(a, b, "same inputs must train identical codebooks");
        let json = serde_json::to_string(&a).unwrap();
        let back: PqIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        // And through the backend enum, as the sharded store stores it.
        let wrapped = crate::ServingIndex::Pq(a.clone());
        let back: crate::ServingIndex =
            serde_json::from_str(&serde_json::to_string(&wrapped).unwrap()).unwrap();
        assert_eq!(back, wrapped);
        let q = vec![0.0f32; dim];
        assert_eq!(back.search(&q, 3), a.search(&q, 3));
    }

    #[test]
    fn distance_evals_count_lut_and_rerank() {
        let dim = 8;
        let (data, labels) = clustered(10, 4, dim, 5);
        let pq = PqIndex::build(
            PqParams::new(4, 6),
            Metric::Euclidean,
            Rows::new(dim, &data),
            &labels,
        );
        let r = pq.search(&vec![0.0f32; dim], 2);
        // LUT: m × ksub sub-distances; re-rank: `rerank` full rows.
        assert_eq!(r.distance_evals, (pq.m() * pq.ksub()) as u64 + 6);
    }
}
