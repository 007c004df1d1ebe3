//! The inverted-file (IVF) backend: a k-means coarse quantizer shards
//! the vectors into lists; each query scans only the `n_probe` lists
//! whose centroids are nearest.
//!
//! The quantizer is trained once at build time with a seeded,
//! deterministic Lloyd's iteration; mutations afterwards are
//! *incremental* — a new vector is appended to its nearest centroid's
//! list, removal compacts lists in place, and nothing is re-clustered.
//! This is exactly the paper's adaptation economics: swapping one
//! webpage's reference embeddings touches a handful of lists, never the
//! whole index.
//!
//! Each list stores its vectors in a column-major row store, the one
//! the flat backend scans, so probing a list runs the same lane kernel
//! — just over a fraction of the data.
//!
//! With `n_probe == n_lists` every list is probed and results match
//! [`crate::FlatIndex`] exactly (the crate's property tests assert it);
//! smaller `n_probe` trades recall for distance computations.

use serde::json::{field, Error, Value};
use serde::{Deserialize, Serialize};

use crate::kernels::{record_block_size, scan_lanes, tiles, IdMap, TopK};
use crate::rowset::RowSet;
use crate::{Metric, Rows, VectorIndex};

/// Lloyd iterations the coarse quantizer runs at build time.
pub const KMEANS_ITERS: usize = 10;

/// IVF build parameters. Zero means "resolve automatically at build
/// time": `n_lists ≈ √n` and `n_probe ≈ n_lists / 4`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IvfParams {
    /// Number of inverted lists (coarse centroids). `0` = auto.
    pub n_lists: usize,
    /// Lists probed per query. `0` = auto.
    pub n_probe: usize,
}

impl IvfParams {
    /// Fully automatic parameters.
    pub fn auto() -> Self {
        IvfParams {
            n_lists: 0,
            n_probe: 0,
        }
    }

    /// Explicit parameters.
    pub fn new(n_lists: usize, n_probe: usize) -> Self {
        IvfParams { n_lists, n_probe }
    }
}

/// One inverted list: stable ids aligned with the rows (and labels) of
/// its column store. Ids survive compaction, moving with their rows.
#[derive(Debug, Clone, PartialEq)]
struct IvfList {
    ids: Vec<u64>,
    rows: RowSet,
}

impl IvfList {
    fn new(dim: usize) -> Self {
        IvfList {
            ids: Vec::new(),
            rows: RowSet::with_capacity(dim, 0),
        }
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn push(&mut self, id: u64, label: usize, row: &[f32]) {
        self.rows.push(label, row);
        self.ids.push(id);
    }

    fn remove_label(&mut self, label: usize) -> usize {
        // Most lists hold none of a class's rows: one scan says so.
        if !self.rows.labels().contains(&label) {
            return 0;
        }
        // `retain` visits each id once, in order, beside its label.
        let mut labels = self.rows.labels().iter();
        self.ids.retain(|_| labels.next() != Some(&label));
        self.rows.remove_label(label)
    }

    /// A list from its snapshot form (`{"ids", "labels", "data"}`,
    /// `data` row-major) for `dim`-dimensional rows.
    fn from_value(v: &Value, dim: usize) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object for an IVF list"))?;
        let ids: Vec<u64> = field(pairs, "ids")?;
        let labels: Vec<usize> = field(pairs, "labels")?;
        let data: Vec<f32> = field(pairs, "data")?;
        if ids.len() != labels.len() {
            return Err(Error::custom("IVF list ids and labels differ in length"));
        }
        Ok(IvfList {
            ids,
            rows: RowSet::from_parts(dim, &labels, &data)?,
        })
    }
}

/// The snapshot keeps the row-major form: `{"ids", "labels", "data"}`.
impl Serialize for IvfList {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("ids".into(), self.ids.to_value()),
            ("labels".into(), self.rows.labels().to_value()),
            ("data".into(), self.rows.data_value()),
        ])
    }
}

/// List-occupancy summary from [`IvfIndex::balance_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BalanceStats {
    /// Number of inverted lists.
    pub n_lists: usize,
    /// Occupancy of the fullest list.
    pub max_list: usize,
    /// Mean list occupancy.
    pub mean_list: f64,
    /// `max_list / mean_list` — 1.0 is perfectly balanced; the probe
    /// cost of a query grows with the skew of the lists it hits.
    pub skew: f64,
}

/// The inverted-file index.
///
/// ```
/// use tlsfp_index::{IvfIndex, IvfParams, Metric, Rows, VectorIndex};
/// // 4 clusters of 2 points; 4 lists, probe 2.
/// let data: Vec<f32> = (0..8).map(|i| (i / 2) as f32 * 10.0 + (i % 2) as f32).collect();
/// let labels: Vec<usize> = (0..8).map(|i| i / 2).collect();
/// let ix = IvfIndex::build(IvfParams::new(4, 2), Metric::Euclidean, Rows::new(1, &data), &labels);
/// let r = ix.search(&[20.4], 2);
/// assert_eq!(r.top().unwrap().label, 2);
/// // Probing 2 of 4 lists scans fewer rows than the 8-row corpus
/// // (plus one eval per centroid).
/// assert!(r.distance_evals < 8 + 4);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    n_probe: usize,
    /// Coarse centroids, row-major (`n_lists × dim`).
    centroids: Vec<f32>,
    lists: Vec<IvfList>,
    /// Next insertion id; build assigns `0..n` in row order, so fresh
    /// ids coincide with flat row positions.
    next_id: u64,
}

impl IvfIndex {
    /// Builds the index: trains the coarse quantizer on `rows` with a
    /// deterministic k-means, then assigns every row to its nearest
    /// centroid's list.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub fn build(params: IvfParams, metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let n = rows.len();
        let dim = rows.dim();
        let n_lists = if n == 0 {
            1
        } else if params.n_lists == 0 {
            (n as f64).sqrt().ceil() as usize
        } else {
            params.n_lists.clamp(1, n)
        };
        let n_probe = if params.n_probe == 0 {
            n_lists.div_ceil(4).max(1)
        } else {
            params.n_probe.min(n_lists).max(1)
        };
        let centroids = kmeans(rows, n_lists, metric);
        let mut lists: Vec<IvfList> = (0..n_lists).map(|_| IvfList::new(dim)).collect();
        for (id, (row, &label)) in (0u64..).zip(rows.iter().zip(labels)) {
            let li = nearest_centroid(&centroids, dim, metric, row);
            lists[li].push(id, label, row);
        }
        IvfIndex {
            dim,
            metric,
            n_probe,
            centroids,
            lists,
            next_id: n as u64,
        }
    }

    /// Number of inverted lists.
    pub fn n_lists(&self) -> usize {
        self.lists.len()
    }

    /// Lists probed per query.
    pub fn n_probe(&self) -> usize {
        self.n_probe
    }

    /// Adjusts how many lists each query probes (clamped to
    /// `[1, n_lists]`). `n_probe == n_lists` makes the index exact.
    pub fn set_n_probe(&mut self, n_probe: usize) {
        self.n_probe = n_probe.clamp(1, self.lists.len());
    }

    /// Per-list occupancy, for shard-balance diagnostics.
    pub fn list_sizes(&self) -> Vec<usize> {
        self.lists.iter().map(IvfList::len).collect()
    }

    /// Aggregate list-balance diagnostics: max/mean occupancy and their
    /// ratio (the skew).
    ///
    /// The coarse quantizer is frozen at build time, so heavy
    /// add/swap/remove churn can slowly unbalance the lists — a skew
    /// creeping past ~3 means one list is absorbing a growing share of
    /// every probe and the index should be rebuilt
    /// (`AdaptiveFingerprinter::set_index` re-trains the quantizer).
    pub fn balance_stats(&self) -> BalanceStats {
        let n_lists = self.lists.len();
        let total: usize = self.lists.iter().map(IvfList::len).sum();
        let max = self.lists.iter().map(IvfList::len).max().unwrap_or(0);
        let mean = if n_lists == 0 {
            0.0
        } else {
            total as f64 / n_lists as f64
        };
        BalanceStats {
            n_lists,
            max_list: max,
            mean_list: mean,
            skew: if mean > 0.0 { max as f64 / mean } else { 0.0 },
        }
    }
}

/// Index of the centroid (a `dim`-wide row of `centroids`) nearest to
/// `row`; ties break low. The one assignment rule for IVF list
/// placement, Lloyd's iteration and PQ encoding.
pub(crate) fn nearest_centroid(
    centroids: &[f32],
    dim: usize,
    metric: Metric,
    row: &[f32],
) -> usize {
    let mut best = (0usize, f32::INFINITY);
    for (ci, centroid) in centroids.chunks_exact(dim.max(1)).enumerate() {
        let d = metric.eval(row, centroid);
        if d < best.1 {
            best = (ci, d);
        }
    }
    best.0
}

/// Balance-repair rounds run after the main Lloyd loop.
const REPAIR_ROUNDS: usize = 4;

/// Deterministic k-means: centroids seeded from evenly-spaced rows
/// (reference corpora are class-grouped, so the spread covers the label
/// space), refined by [`KMEANS_ITERS`] Lloyd iterations with sequential
/// accumulation — byte-stable across runs and thread counts. A cluster
/// that loses all members keeps its previous centroid.
///
/// Lloyd alone can leave one list holding a large share of the data
/// (probing it then erases most of the pruning win), so a few repair
/// rounds follow: while the heaviest cluster exceeds twice the mean
/// occupancy, the lightest cluster's centroid is reseeded at the
/// heaviest cluster's farthest member and Lloyd briefly re-runs —
/// splitting dense blobs instead of serving them whole.
///
/// Shared with the product-quantization backend ([`crate::PqIndex`]),
/// which trains one such quantizer per sub-vector space.
pub(crate) fn kmeans(rows: Rows<'_>, n_lists: usize, metric: Metric) -> Vec<f32> {
    let dim = rows.dim();
    let n = rows.len();
    if n == 0 {
        return vec![0.0; n_lists * dim];
    }
    let mut centroids = Vec::with_capacity(n_lists * dim);
    for ci in 0..n_lists {
        centroids.extend_from_slice(rows.row(ci * n / n_lists));
    }
    let mut assignment = vec![0usize; n];
    lloyd(rows, metric, &mut centroids, &mut assignment, KMEANS_ITERS);

    for _ in 0..REPAIR_ROUNDS {
        let mut counts = vec![0usize; n_lists];
        for &a in &assignment {
            counts[a] += 1;
        }
        let heavy = (0..n_lists).max_by_key(|&c| counts[c]).unwrap_or(0);
        let light = (0..n_lists).min_by_key(|&c| counts[c]).unwrap_or(0);
        if counts[heavy] <= 2 * n.div_ceil(n_lists) || heavy == light {
            break;
        }
        // Reseed the lightest centroid at the heaviest cluster's
        // farthest member (ties break toward the lowest row index).
        let heavy_centroid: Vec<f32> = centroids[heavy * dim..(heavy + 1) * dim].to_vec();
        let mut far = None;
        let mut far_dist = f32::NEG_INFINITY;
        for (i, row) in rows.iter().enumerate() {
            if assignment[i] == heavy {
                let d = metric.eval(row, &heavy_centroid);
                if d > far_dist {
                    far_dist = d;
                    far = Some(i);
                }
            }
        }
        let Some(far) = far else { break };
        centroids[light * dim..(light + 1) * dim].copy_from_slice(rows.row(far));
        lloyd(rows, metric, &mut centroids, &mut assignment, 3);
    }
    centroids
}

/// Lloyd's iteration: assign each row to its nearest centroid (ties
/// break low), then move every non-empty centroid to its members' mean.
/// Stops early once an assignment pass changes nothing.
fn lloyd(
    rows: Rows<'_>,
    metric: Metric,
    centroids: &mut [f32],
    assignment: &mut [usize],
    iters: usize,
) {
    let dim = rows.dim();
    let n_lists = centroids.len().checked_div(dim).unwrap_or(1);
    for _ in 0..iters {
        // Assign.
        let mut changed = false;
        for (i, row) in rows.iter().enumerate() {
            let best = nearest_centroid(centroids, dim, metric, row);
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        // Update.
        let mut sums = vec![0.0f32; centroids.len()];
        let mut counts = vec![0usize; n_lists];
        for (i, row) in rows.iter().enumerate() {
            let c = assignment[i];
            counts[c] += 1;
            for (s, v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                *s += v;
            }
        }
        for c in 0..n_lists {
            if counts[c] > 0 {
                let inv = 1.0 / counts[c] as f32;
                for (dst, s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *dst = s * inv;
                }
            }
        }
        if !changed {
            break;
        }
    }
}

impl VectorIndex for IvfIndex {
    fn dim(&self) -> usize {
        self.dim
    }

    fn len(&self) -> usize {
        self.lists.iter().map(IvfList::len).sum()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Shared-probe blocked scan — the IVF backend's one scan. Each
    /// query ranks the centroids by `(distance, index)` and probes its
    /// `n_probe` nearest lists; queries subscribing to the same list
    /// scan it *together*, tile by tile, so a hot list's rows are
    /// loaded once per block instead of once per subscriber. Lists are
    /// visited in first-probe order (nearest first for a block of one),
    /// and every probed row is pushed into its query's accumulator. A
    /// query costs one eval per centroid plus one per row of its probed
    /// lists.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]) {
        crate::assert_scan_inputs(queries, accs, self.dim);
        let nq = queries.len();
        if self.is_empty() || nq == 0 {
            return;
        }
        let dim = self.dim.max(1);
        let n_centroids = self.centroids.len() / dim;
        let probe = self.n_probe.min(n_centroids);

        // Every query's probed lists as `(list, query)` pairs in one
        // buffer, then grouped by list in first-probe order; the stable
        // sort keeps each list's subscribers in ascending query order.
        let mut ranked: Vec<(f32, usize)> = Vec::with_capacity(n_centroids);
        let mut probes: Vec<(usize, usize)> = Vec::with_capacity(nq * probe);
        for (qi, (query, acc)) in queries.iter().zip(accs.iter_mut()).enumerate() {
            ranked.clear();
            ranked.extend(
                self.centroids
                    .chunks_exact(dim)
                    .enumerate()
                    .map(|(ci, centroid)| (self.metric.eval(query, centroid), ci)),
            );
            ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            probes.extend(ranked[..probe].iter().map(|&(_, li)| (li, qi)));
            acc.add_evals(n_centroids as u64);
        }
        let mut first = vec![usize::MAX; n_centroids];
        for (at, &(li, _)) in probes.iter().enumerate() {
            first[li] = first[li].min(at);
        }
        probes.sort_by_key(|&(li, _)| first[li]);

        let mut scanned = 0usize;
        let mut rest = &probes[..];
        while let Some(&(li, _)) = rest.first() {
            let (subs, tail) = rest.split_at(rest.partition_point(|p| p.0 == li));
            rest = tail;
            let list = &self.lists[li];
            scanned += subs.len() * list.len();
            for tile in tiles(&list.rows) {
                for &(_, qi) in subs {
                    scan_lanes(&list.rows, tile.clone(), &queries[qi], &mut accs[qi], |j| {
                        ids.map(list.ids[j])
                    });
                }
            }
        }

        record_block_size!("ivf", nq);
        crate::record_backend_search!("ivf", nq, nq * n_centroids + scanned);
        if tlsfp_telemetry::enabled() {
            let probes = tlsfp_telemetry::histogram!(
                "tlsfp_ivf_probes",
                "Inverted lists probed per IVF query"
            );
            for _ in 0..nq {
                probes.observe(probe as u64);
            }
        }
    }

    fn add(&mut self, label: usize, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        let li = nearest_centroid(&self.centroids, self.dim, self.metric, vector);
        self.lists[li].push(self.next_id, label, vector);
        self.next_id += 1;
    }

    fn remove_label(&mut self, label: usize) -> usize {
        self.lists
            .iter_mut()
            .map(|list| list.remove_label(label))
            .sum()
    }

    /// Gathers the lists by id: ids are assigned in insertion order
    /// and survive compaction, so sorting every row by id restores the
    /// insertion order.
    fn export(&self) -> (Vec<usize>, Vec<f32>) {
        let mut order: Vec<(u64, &IvfList, usize)> = self
            .lists
            .iter()
            .flat_map(|list| {
                list.ids
                    .iter()
                    .enumerate()
                    .map(move |(j, &id)| (id, list, j))
            })
            .collect();
        order.sort_unstable_by_key(|&(id, _, _)| id);
        let labels = order
            .iter()
            .map(|&(_, list, j)| list.rows.labels()[j])
            .collect();
        let mut data = Vec::with_capacity(order.len() * self.dim);
        for &(_, list, j) in &order {
            list.rows.extend_row(j, &mut data);
        }
        (labels, data)
    }
}

/// By hand because each list's rows load at the index's `dim`, which a
/// list's snapshot form does not repeat.
impl Deserialize for IvfIndex {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object for struct IvfIndex"))?;
        let dim = field(pairs, "dim")?;
        let lists = v
            .get("lists")
            .and_then(Value::as_array)
            .ok_or_else(|| Error::custom("expected array field `lists`"))?
            .iter()
            .map(|list| IvfList::from_value(list, dim))
            .collect::<Result<_, _>>()?;
        Ok(IvfIndex {
            dim,
            metric: field(pairs, "metric")?,
            n_probe: field(pairs, "n_probe")?,
            centroids: field(pairs, "centroids")?,
            lists,
            next_id: field(pairs, "next_id")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    use super::*;
    use crate::{Neighbor, SearchResult};

    /// Clustered synthetic rows: `classes` groups of `per_class` points
    /// around distinct centers.
    fn clustered(
        classes: usize,
        per_class: usize,
        dim: usize,
        seed: u64,
    ) -> (Vec<f32>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for c in 0..classes {
            let center = c as f32 * 4.0;
            for _ in 0..per_class {
                for _ in 0..dim {
                    data.push(center + rng.random_range(-0.4f32..0.4));
                }
                labels.push(c);
            }
        }
        (data, labels)
    }

    /// The naive reference: one query, the `n_probe` nearest lists by
    /// `(distance, index)`, every candidate sorted — no accumulator, no
    /// tiling, no telemetry.
    fn naive_ivf(ix: &IvfIndex, query: &[f32], k: usize) -> SearchResult {
        let mut ranked: Vec<(f32, usize)> = ix
            .centroids
            .chunks_exact(ix.dim)
            .map(|centroid| ix.metric.eval(query, centroid))
            .zip(0..)
            .collect();
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut candidates = Vec::new();
        for &(_, li) in &ranked[..ix.n_probe] {
            let list = &ix.lists[li];
            for (j, row) in list.rows.to_row_major().chunks_exact(ix.dim).enumerate() {
                let dist = ix.metric.eval(query, row);
                let (id, label) = (list.ids[j], list.rows.labels()[j]);
                candidates.push(Neighbor { id, label, dist });
            }
        }
        let evals = ranked.len() + candidates.len();
        crate::kernels::sorted_result(candidates, k, evals)
    }

    #[test]
    fn kernel_matches_the_naive_reference() {
        let (data, labels, queries) = crate::kernels::planted_duplicates(150, 4, 7, 9, 5);
        let rows = Rows::new(4, &data);
        let mut ix = IvfIndex::build(IvfParams::new(6, 2), Metric::Euclidean, rows, &labels);
        crate::kernels::assert_kernel_matches(&ix, &queries, |q, k| naive_ivf(&ix, q, k));
        // After churn ids no longer follow list positions.
        ix.swap_label(3, Rows::new(4, &data[..40]));
        crate::kernels::assert_kernel_matches(&ix, &queries, |q, k| naive_ivf(&ix, q, k));
        ix.set_n_probe(ix.n_lists());
        crate::kernels::assert_kernel_matches(&ix, &queries, |q, k| naive_ivf(&ix, q, k));
    }

    #[test]
    fn build_shards_and_auto_params() {
        let (data, labels) = clustered(6, 12, 5, 3);
        let ix = IvfIndex::build(
            IvfParams::auto(),
            Metric::Euclidean,
            Rows::new(5, &data),
            &labels,
        );
        assert_eq!(ix.len(), 72);
        // auto: ceil(sqrt(72)) = 9 lists, ceil(9/4) = 3 probed.
        assert_eq!(ix.n_lists(), 9);
        assert_eq!(ix.n_probe(), 3);
        assert_eq!(ix.list_sizes().iter().sum::<usize>(), 72);
    }

    #[test]
    fn probed_search_finds_cluster_members() {
        let (data, labels) = clustered(6, 12, 5, 4);
        let ix = IvfIndex::build(
            IvfParams::auto(),
            Metric::Euclidean,
            Rows::new(5, &data),
            &labels,
        );
        // A query on top of cluster 2 must retrieve label-2 neighbors
        // while scanning far fewer than all 72 vectors (+ centroids).
        let query = vec![8.0f32; 5];
        let r = ix.search(&query, 5);
        assert_eq!(r.neighbors.len(), 5);
        assert!(
            r.neighbors.iter().all(|n| n.label == 2),
            "{:?}",
            r.neighbors
        );
        assert!(
            r.distance_evals < 72 / 2,
            "probed scan cost {} evals",
            r.distance_evals
        );
        // Neighbors come back sorted by (dist, id).
        for w in r.neighbors.windows(2) {
            assert!(w[0].dist <= w[1].dist);
        }
    }

    #[test]
    fn full_probe_is_exact() {
        let (data, labels) = clustered(4, 10, 3, 5);
        let rows = Rows::new(3, &data);
        let mut ix = IvfIndex::build(IvfParams::new(5, 0), Metric::Euclidean, rows, &labels);
        ix.set_n_probe(ix.n_lists());
        let flat = crate::FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..20 {
            let q: Vec<f32> = (0..3).map(|_| rng.random_range(-2.0f32..18.0)).collect();
            let ri = ix.search(&q, 7);
            let rf = flat.search(&q, 7);
            assert_eq!(ri.nearest, rf.nearest);
            // Build ids are row positions, and both sort by (dist, id).
            assert_eq!(ri.neighbors, rf.neighbors);
        }
    }

    #[test]
    fn incremental_mutation_reassigns_lists() {
        let (data, labels) = clustered(4, 8, 3, 7);
        let mut ix = IvfIndex::build(
            IvfParams::new(4, 4),
            Metric::Euclidean,
            Rows::new(3, &data),
            &labels,
        );
        let before = ix.len();
        // New far-out class lands in whichever list owns that region.
        ix.add(9, &[100.0, 100.0, 100.0]);
        assert_eq!(ix.len(), before + 1);
        assert_eq!(ix.search(&[100.0, 100.0, 100.0], 1).top().unwrap().label, 9);
        // Remove a whole class; its members disappear from every list.
        let removed = ix.remove_label(1);
        assert_eq!(removed, 8);
        assert_eq!(ix.len(), before + 1 - 8);
        let r = ix.search(&[4.0, 4.0, 4.0], before);
        assert!(r.neighbors.iter().all(|n| n.label != 1));
    }

    #[test]
    fn empty_and_degenerate_builds() {
        let ix = IvfIndex::build(IvfParams::auto(), Metric::Euclidean, Rows::new(4, &[]), &[]);
        assert_eq!(ix.len(), 0);
        assert!(ix.search(&[0.0; 4], 3).neighbors.is_empty());
        // One point: one list, probe 1.
        let data = [1.0f32, 2.0];
        let ix = IvfIndex::build(
            IvfParams::auto(),
            Metric::Euclidean,
            Rows::new(2, &data),
            &[0],
        );
        assert_eq!(ix.n_lists(), 1);
        assert_eq!(ix.search(&[1.0, 2.0], 5).neighbors.len(), 1);
    }

    #[test]
    fn serde_round_trip_preserves_structure() {
        let (data, labels) = clustered(3, 6, 4, 9);
        let ix = IvfIndex::build(
            IvfParams::auto(),
            Metric::Euclidean,
            Rows::new(4, &data),
            &labels,
        );
        let json = serde_json::to_string(&ix).unwrap();
        let back: IvfIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ix);
        let q = vec![0.1f32; 4];
        assert_eq!(back.search(&q, 4), ix.search(&q, 4));
    }
}
