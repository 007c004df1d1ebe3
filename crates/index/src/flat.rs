//! The exact backend, and the test oracle every other backend and the
//! serving path are measured against.
//!
//! - Vectors live in column-major row stores — dimension `d` of every
//!   row contiguous — and the lane kernel ([`crate::kernels`]) scores 16
//!   rows per step with `euclidean_sq`'s arithmetic in its order.
//! - A store built with fewer than [`LIST_MIN_ROWS`] rows keeps them in
//!   one row store and scores every row: the scan walks the rows in
//!   tiles of lane blocks, each tile scored against every query of the
//!   block while hot in cache.
//! - A store built with more keeps them in k-means lists (one per
//!   [`ROWS_PER_LIST`] rows, trained by the IVF backend's quantizer),
//!   each with its radius: the largest distance from its centroid to a
//!   member. A query visits its lists nearest centroid first and skips
//!   every list whose triangle-inequality lower bound, less a rounding
//!   slack, exceeds the query's current `k`-th distance — no row of it
//!   could be kept, not even on a tie. The layout follows the row count
//!   alone; no result depends on it, only `distance_evals` and the time.
//! - Either way every row scored is pushed into the query's
//!   [`crate::TopK`], so the scan kernel ([`FlatIndex::scan_block`]; a
//!   single query is a block of one) returns exactly a naive scan's rows
//!   sorted by `(dist, id)` and cut to `k` — scores, selected neighbors,
//!   their order and `nearest`. Ids are row positions, which compaction
//!   keeps dense. The `tests/index_serving.rs` oracle holds its decisions
//!   to the pre-index implementation's.

use serde::json::{field, Error, Value};
use serde::{Deserialize, Serialize};

use crate::ivf::{kmeans, nearest_centroid};
use crate::kernels::{record_block_size, scan_lanes, tiles, IdMap, TopK, LANES};
use crate::rowset::{IvfList, RowSet};
use crate::{Metric, Rows, VectorIndex};

/// Stores built with at least this many rows keep them in pruning lists.
/// Below it a store must keep most of its rows for a large `k`, so lists
/// could skip little. A constant of the layout, like the lane width: no
/// result depends on it.
pub const LIST_MIN_ROWS: usize = 512;

/// Rows per pruning list at build time: a store of `n` rows gets
/// `n / ROWS_PER_LIST` lists.
pub const ROWS_PER_LIST: usize = 256;

/// The exact nearest-neighbor index: column-major storage, lane scan,
/// and — from [`LIST_MIN_ROWS`] rows at build — exact list pruning.
/// Ids are row positions, which compaction keeps dense.
///
/// ```
/// use tlsfp_index::{FlatIndex, Metric, Rows, VectorIndex};
/// let data = [0.0f32, 0.0, 1.0, 1.0, 2.0, 2.0];
/// let ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(2, &data), &[0, 1, 2]);
/// let r = ix.search(&[0.9, 1.0], 2);
/// assert_eq!(r.top().unwrap().label, 1);
/// assert_eq!(r.distance_evals, 3); // one list: every row scanned
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatIndex {
    metric: Metric,
    layout: Layout,
}

/// How a flat store holds its rows, chosen from the row count at build.
#[derive(Debug, Clone, PartialEq)]
enum Layout {
    /// One row store; ids are row positions in it.
    One(RowSet),
    /// K-means lists with radii.
    Lists(Lists),
}

impl FlatIndex {
    /// An empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        FlatIndex {
            metric,
            layout: Layout::One(RowSet::with_capacity(dim, 0)),
        }
    }

    /// Builds from labeled rows (copied into the column stores); from
    /// [`LIST_MIN_ROWS`] rows on, into pruning lists.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub fn from_rows(metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let layout = if labels.len() >= LIST_MIN_ROWS && rows.dim() > 0 {
            Layout::Lists(Lists::build(metric, rows, labels))
        } else {
            Layout::One(RowSet::from_rows(rows, labels))
        };
        FlatIndex { metric, layout }
    }

    /// An owned row-major copy of the stored rows, one `Vec` per row,
    /// aligned with [`FlatIndex::labels`] — for oracles and tests; the
    /// serving path never copies its rows out.
    pub fn rows(&self) -> Vec<Vec<f32>> {
        match &self.layout {
            Layout::One(rows) => (0..rows.len())
                .map(|i| {
                    let mut row = Vec::with_capacity(rows.dim());
                    rows.extend_row(i, &mut row);
                    row
                })
                .collect(),
            Layout::Lists(lists) => lists
                .to_row_major()
                .chunks_exact(lists.dim)
                .map(<[f32]>::to_vec)
                .collect(),
        }
    }

    /// Stored labels in id order, aligned with [`FlatIndex::rows`].
    pub fn labels(&self) -> &[usize] {
        match &self.layout {
            Layout::One(rows) => rows.labels(),
            Layout::Lists(lists) => &lists.labels,
        }
    }

    /// Pruning lists the store keeps: `1` below [`LIST_MIN_ROWS`] rows
    /// at build.
    pub fn n_lists(&self) -> usize {
        match &self.layout {
            Layout::One(_) => 1,
            Layout::Lists(lists) => lists.lists.len(),
        }
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        match &self.layout {
            Layout::One(rows) => rows.dim(),
            Layout::Lists(lists) => lists.dim,
        }
    }

    fn len(&self) -> usize {
        self.labels().len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// The blocked exact scan. One list: one pass over the rows in tiles
    /// of lane blocks, each tile scored against every query in the block
    /// while hot in cache, every row pushed into the query's accumulator.
    /// Lists: each query ranks the centroids and scores the rows of every
    /// list it cannot rule out, at one eval per centroid plus one per row
    /// scored.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]) {
        crate::assert_scan_inputs(queries, accs, self.dim());
        let evals = match &self.layout {
            Layout::One(rows) => {
                for tile in tiles(rows) {
                    for (query, acc) in queries.iter().zip(accs.iter_mut()) {
                        scan_lanes(rows, tile.clone(), query, acc, |row| ids.map(row as u64));
                    }
                }
                queries.len() * rows.len()
            }
            Layout::Lists(lists) => lists.scan_block(queries, ids, accs),
        };
        record_block_size!("flat", queries.len());
        crate::record_backend_search!("flat", queries.len(), evals);
    }

    fn add(&mut self, label: usize, vector: &[f32]) {
        match &mut self.layout {
            Layout::One(rows) => rows.push(label, vector),
            Layout::Lists(lists) => lists.add(self.metric, label, vector),
        }
    }

    fn remove_label(&mut self, label: usize) -> usize {
        match &mut self.layout {
            Layout::One(rows) => rows.remove_label(label),
            Layout::Lists(lists) => lists.remove_label(label),
        }
    }

    fn export(&self) -> (Vec<usize>, Vec<f32>) {
        let data = match &self.layout {
            Layout::One(rows) => rows.to_row_major(),
            Layout::Lists(lists) => lists.to_row_major(),
        };
        (self.labels().to_vec(), data)
    }
}

/// A store's rows in k-means lists, each with the radius that bounds
/// them. Each list's ids ascend: a build or snapshot load files rows in
/// id order, `add` appends the next id, and compaction and renumbering
/// keep order — `renumber` relies on it.
#[derive(Debug, Clone)]
struct Lists {
    dim: usize,
    /// Centroids, row-major (`n_lists × dim`).
    centroids: Vec<f32>,
    /// Per list, at least the largest distance from its centroid to any
    /// member it holds (`‖x − c‖`, in f64): grown by `add`, kept by
    /// removals (still a bound), and NaN for good once a member's
    /// distance was NaN.
    radii: Vec<f64>,
    lists: Vec<IvfList>,
    /// Labels in id order.
    labels: Vec<usize>,
}

/// `‖a − b‖` in f64.
fn norm(a: &[f32], b: &[f32]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let t = f64::from(x) - f64::from(y);
            t * t
        })
        .sum::<f64>()
        .sqrt()
}

/// `radius` grown to cover a member at distance `d`; NaN once either is
/// (`f64::max` would drop the NaN, and with it the member).
fn grow(radius: f64, d: f64) -> f64 {
    if radius.is_nan() || d.is_nan() {
        f64::NAN
    } else {
        radius.max(d)
    }
}

/// The rounding allowances of the skip rule for `dim`-dimensional rows.
#[derive(Debug, Clone, Copy)]
struct Slack {
    /// Relative error of an f64 norm of `dim` terms, far above its
    /// actual `(dim + 2)·2⁻⁵³`.
    norm: f64,
    /// `1 −` the relative error of the lane kernel's f32 sum of `dim`
    /// rounded squares of rounded differences, ~`(dim + 2)·2⁻²⁴`.
    shrink: f64,
    /// What underflow can take off a sum of `dim` squares: `dim·2⁻¹²⁶`.
    floor: f64,
}

impl Slack {
    fn new(dim: usize) -> Self {
        let dim = dim as f64;
        Slack {
            norm: (dim + 4.0) * f64::EPSILON,
            shrink: 1.0 - f64::max(1e-4, (dim + 2.0) * f64::from(f32::EPSILON)),
            floor: dim * f64::from(f32::MIN_POSITIVE),
        }
    }

    /// Whether every row of a list whose centroid lies `to_centroid` from
    /// the query and whose members lie within `radius` of it scores above
    /// `kth`, so none can be kept, not even on a `(dist, id)` tie. By the
    /// triangle inequality each member lies at least `to_centroid −
    /// radius` from the query; the gap shrinks by both norms' rounding
    /// before it is squared, and the square by the kernel's rounding.
    /// A NaN anywhere, or an infinite radius, never skips.
    fn out_of_reach(self, to_centroid: f64, radius: f64, kth: f32) -> bool {
        let gap = to_centroid - radius - (to_centroid + radius) * self.norm;
        let bound = if gap > 0.0 { gap * gap } else { 0.0 };
        bound * self.shrink - self.floor > f64::from(kth)
    }
}

impl Lists {
    /// Trains `labels.len() / ROWS_PER_LIST` k-means lists on `rows` and
    /// files every row, id = row position, into its nearest centroid's
    /// list — each list at exact capacity.
    fn build(metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        let n_lists = labels.len() / ROWS_PER_LIST;
        let (centroids, assignment) = kmeans(rows, n_lists, metric);
        let (lists, radii) = Lists::file(rows, labels, &centroids, &assignment, n_lists);
        Lists {
            dim: rows.dim(),
            centroids,
            radii,
            lists,
            labels: labels.to_vec(),
        }
    }

    /// Files row `i` into list `assignment[i]` under id `i`; returns the
    /// lists, each at exact capacity, and their members' largest
    /// distances to their centroids.
    fn file(
        rows: Rows<'_>,
        labels: &[usize],
        centroids: &[f32],
        assignment: &[usize],
        n_lists: usize,
    ) -> (Vec<IvfList>, Vec<f64>) {
        let dim = rows.dim();
        let mut counts = vec![0usize; n_lists];
        for &li in assignment {
            counts[li] += 1;
        }
        let mut lists: Vec<IvfList> = counts
            .iter()
            .map(|&n| IvfList::with_capacity(dim, n))
            .collect();
        let mut radii = vec![0.0f64; n_lists];
        for (id, ((row, &label), &li)) in (0u64..).zip(rows.iter().zip(labels).zip(assignment)) {
            let centroid = &centroids[li * dim..(li + 1) * dim];
            radii[li] = grow(radii[li], norm(row, centroid));
            lists[li].push(id, label, row);
        }
        (lists, radii)
    }

    fn centroid(&self, li: usize) -> &[f32] {
        &self.centroids[li * self.dim..(li + 1) * self.dim]
    }

    /// Scans each query alone, so what it scores never depends on the
    /// block. A query whose accumulator already holds another shard's
    /// candidates scans into a fresh one and merges it, so what it skips
    /// depends on the query and this store alone. Returns the evals
    /// spent.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]) -> usize {
        let n = self.labels.len();
        if n == 0 {
            return 0;
        }
        let slack = Slack::new(self.dim);
        let mut order: Vec<(f64, usize)> = Vec::with_capacity(self.lists.len());
        let mut scored = 0;
        for (query, acc) in queries.iter().zip(accs.iter_mut()) {
            let rows = if acc.holds_no_candidates() {
                self.scan_query(query, ids, slack, &mut order, acc)
            } else {
                let mut own = TopK::new(acc.k());
                let rows = self.scan_query(query, ids, slack, &mut order, &mut own);
                acc.merge(own);
                rows
            };
            scored += rows;
            if tlsfp_telemetry::enabled() {
                tlsfp_telemetry::histogram!(
                    "tlsfp_flat_rows_scored_ratio",
                    "Rows a list-pruned flat query scored per thousand stored"
                )
                .observe((rows * 1000 / n) as u64);
            }
        }
        scored + queries.len() * self.lists.len()
    }

    /// One query: its lists by `(‖q − c‖, index)`, each scored unless
    /// [`Slack::out_of_reach`] of `acc`'s current `k`-th distance.
    /// Returns the rows scored.
    fn scan_query(
        &self,
        query: &[f32],
        ids: IdMap,
        slack: Slack,
        order: &mut Vec<(f64, usize)>,
        acc: &mut TopK,
    ) -> usize {
        order.clear();
        order.extend((0..self.lists.len()).map(|li| (norm(query, self.centroid(li)), li)));
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        acc.add_evals(order.len() as u64);
        let mut scored = 0;
        for &(to_centroid, li) in order.iter() {
            let list = &self.lists[li];
            if list.len() == 0 || slack.out_of_reach(to_centroid, self.radii[li], acc.kth_dist()) {
                continue;
            }
            scored += list.len();
            let blocks = list.len().div_ceil(LANES);
            scan_lanes(&list.rows, 0..blocks, query, acc, |j| ids.map(list.ids[j]));
        }
        scored
    }

    /// Appends one row, id = the row count, to its nearest centroid's
    /// list, whose radius grows to cover it.
    fn add(&mut self, metric: Metric, label: usize, vector: &[f32]) {
        assert_eq!(vector.len(), self.dim, "vector dim mismatch");
        let li = nearest_centroid(&self.centroids, self.dim, metric, vector);
        self.radii[li] = grow(self.radii[li], norm(vector, self.centroid(li)));
        self.lists[li].push(self.labels.len() as u64, label, vector);
        self.labels.push(label);
    }

    /// Drops `label`'s rows from the lists holding any, whose radii stay
    /// (still bounds), and renumbers every later id down past them.
    fn remove_label(&mut self, label: usize) -> usize {
        let gone: Vec<u64> = (0u64..)
            .zip(&self.labels)
            .filter_map(|(id, &l)| (l == label).then_some(id))
            .collect();
        if gone.is_empty() {
            return 0;
        }
        self.labels.retain(|&l| l != label);
        for list in &mut self.lists {
            list.remove_label(label);
            renumber(&mut list.ids, &gone);
        }
        gone.len()
    }

    /// Every row, row-major, in id order.
    fn to_row_major(&self) -> Vec<f32> {
        let dim = self.dim;
        let mut data = vec![0.0f32; self.labels.len() * dim];
        for list in &self.lists {
            for (d, col) in list.rows.columns().enumerate() {
                for (&id, &v) in list.ids.iter().zip(col) {
                    data[id as usize * dim + d] = v;
                }
            }
        }
        data
    }

    /// Each row's list, in id order.
    fn list_of(&self) -> Vec<usize> {
        let mut of = vec![0usize; self.labels.len()];
        for (li, list) in self.lists.iter().enumerate() {
            for &id in &list.ids {
                of[id as usize] = li;
            }
        }
        of
    }

    /// The layout from its snapshot parts, refusing any that could make
    /// a scan inexact or panic: wrong lengths, a list index out of range,
    /// or a radius below its members' largest distance.
    fn from_parts(
        dim: usize,
        labels: Vec<usize>,
        data: &[f32],
        centroids: Vec<f32>,
        list_of: &[usize],
        radii: Vec<f64>,
    ) -> Result<Self, Error> {
        let n_lists = radii.len();
        if dim == 0 || n_lists == 0 {
            return Err(Error::custom("a list layout needs a dimension and a list"));
        }
        if data.len() != labels.len().saturating_mul(dim) || list_of.len() != labels.len() {
            return Err(Error::custom(format!(
                "{} labels need {} row values and {0} list indices, not {} and {}",
                labels.len(),
                labels.len().saturating_mul(dim),
                data.len(),
                list_of.len()
            )));
        }
        if centroids.len() != n_lists.saturating_mul(dim) {
            return Err(Error::custom(format!(
                "{n_lists} radii need {} centroid values, not {}",
                n_lists.saturating_mul(dim),
                centroids.len()
            )));
        }
        if let Some(&li) = list_of.iter().find(|&&li| li >= n_lists) {
            return Err(Error::custom(format!(
                "list index {li} out of range for {n_lists} lists"
            )));
        }
        let rows = Rows::new(dim, data);
        let (lists, need) = Lists::file(rows, &labels, &centroids, list_of, n_lists);
        for (li, (&radius, &need)) in radii.iter().zip(&need).enumerate() {
            // A NaN radius never skips; any other must cover its members.
            if !(radius.is_nan() || need <= radius) {
                return Err(Error::custom(format!(
                    "list {li}'s radius {radius} is below its members' {need}"
                )));
            }
        }
        Ok(Lists {
            dim,
            centroids,
            radii,
            lists,
            labels,
        })
    }
}

/// Moves each id down past the removed ids below it, so ids stay dense
/// row positions. Both `ids` (one list's) and `gone` ascend.
fn renumber(ids: &mut [u64], gone: &[u64]) {
    let start = ids.partition_point(|&id| id < gone[0]);
    let mut below = 0;
    for id in &mut ids[start..] {
        while below < gone.len() && gone[below] < *id {
            below += 1;
        }
        *id -= below as u64;
    }
}

/// Equal when everything that decides a result is: the rows in id
/// order, and the list layout — centroids and radii by bits. Never
/// capacity or padding.
impl PartialEq for Lists {
    fn eq(&self, other: &Self) -> bool {
        let bits32 = |a: &[f32], b: &[f32]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        let bits64 = |a: &[f64], b: &[f64]| {
            a.iter()
                .map(|x| x.to_bits())
                .eq(b.iter().map(|x| x.to_bits()))
        };
        self.dim == other.dim
            && self.labels == other.labels
            && bits32(&self.centroids, &other.centroids)
            && bits64(&self.radii, &other.radii)
            && self.lists == other.lists
    }
}

/// The snapshot keeps the row-major form: `{"dim", "metric", "data",
/// "labels"}`, `data` one row after another in id order. A store in
/// lists adds `"centroids"` (row-major), `"lists"` (each row's list, in
/// id order) and `"radii"`.
impl Serialize for FlatIndex {
    fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("dim".into(), self.dim().to_value()),
            ("metric".into(), self.metric.to_value()),
        ];
        match &self.layout {
            Layout::One(rows) => {
                pairs.push(("data".into(), rows.data_value()));
                pairs.push(("labels".into(), rows.labels().to_value()));
            }
            Layout::Lists(lists) => {
                pairs.push(("data".into(), lists.to_row_major().to_value()));
                pairs.push(("labels".into(), lists.labels.to_value()));
                pairs.push(("centroids".into(), lists.centroids.to_value()));
                pairs.push(("lists".into(), lists.list_of().to_value()));
                pairs.push(("radii".into(), lists.radii.to_value()));
            }
        }
        Value::Object(pairs)
    }
}

impl Deserialize for FlatIndex {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object for struct FlatIndex"))?;
        let dim = field(pairs, "dim")?;
        let labels: Vec<usize> = field(pairs, "labels")?;
        let data: Vec<f32> = field(pairs, "data")?;
        let layout = if v.get("centroids").is_some() {
            let list_of: Vec<usize> = field(pairs, "lists")?;
            Layout::Lists(Lists::from_parts(
                dim,
                labels,
                &data,
                field(pairs, "centroids")?,
                &list_of,
                field(pairs, "radii")?,
            )?)
        } else {
            Layout::One(RowSet::from_parts(dim, &labels, &data)?)
        };
        Ok(FlatIndex {
            metric: field(pairs, "metric")?,
            layout,
        })
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

    /// `n` rows of `dim` values in tight groups of eight, 32 groups
    /// around each of spread-out centers, labeled by group modulo 13.
    fn grouped(n: usize, dim: usize, seed: u64) -> (Vec<f32>, Vec<usize>) {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Vec::with_capacity(n * dim);
        let mut blob = vec![0.0f32; dim];
        let mut group = vec![0.0f32; dim];
        for i in 0..n {
            if i % 256 == 0 {
                blob.iter_mut()
                    .for_each(|c| *c = rng.random_range(-20.0f32..20.0));
            }
            if i % 8 == 0 {
                for (g, &b) in group.iter_mut().zip(&blob) {
                    *g = b + rng.random_range(-1.0f32..1.0);
                }
            }
            data.extend(group.iter().map(|&c| c + rng.random_range(-0.05f32..0.05)));
        }
        let labels = (0..n).map(|i| (i / 8) % 13).collect();
        (data, labels)
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
        assert_eq!(ix.rows(), [[1.0, 1.0], [2.0, 2.0]]);
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
        assert_eq!(ix.rows()[2], [9.0, 9.0]);
    }

    #[test]
    fn chunked_scan_matches_unchunked_reference() {
        // More rows than one tile of lane blocks, random-ish values.
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let dim = 7;
        let mut ix = FlatIndex::new(dim, Metric::Euclidean);
        let mut rows = Vec::new();
        for i in 0..197 {
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

    #[test]
    fn row_count_at_build_selects_the_layout() {
        let (data, labels) = grouped(LIST_MIN_ROWS, 3, 1);
        let last = LIST_MIN_ROWS - 1;
        let below = Rows::new(3, &data[..last * 3]);
        let mut grown = FlatIndex::from_rows(Metric::Euclidean, below, &labels[..last]);
        assert_eq!(grown.n_lists(), 1);
        let lists = FlatIndex::from_rows(Metric::Euclidean, Rows::new(3, &data), &labels);
        assert_eq!(lists.n_lists(), LIST_MIN_ROWS / ROWS_PER_LIST);
        // Adds never change the layout.
        grown.add(labels[last], &data[last * 3..]);
        assert_eq!(grown.n_lists(), 1);
        assert_eq!(grown.export(), lists.export());
        assert_ne!(grown, lists);
    }

    #[test]
    fn pruned_scan_equals_the_one_list_scan_and_skips_rows() {
        let (data, labels) = grouped(2_048, 6, 2);
        let rows = Rows::new(6, &data);
        let lists = FlatIndex::from_rows(Metric::Euclidean, rows, &labels);
        let mut one = FlatIndex::new(6, Metric::Euclidean);
        for (row, &label) in rows.iter().zip(&labels) {
            one.add(label, row);
        }
        assert_eq!(lists.n_lists(), 8);
        let mut evals = 0;
        for (qi, q) in rows.iter().step_by(97).enumerate() {
            let q: Vec<f32> = q.iter().map(|v| v + 0.01).collect();
            for k in [1, 15, 250] {
                let (got, want) = (lists.search(&q, k), one.search(&q, k));
                assert_eq!(got.neighbors, want.neighbors, "query {qi} k {k}");
                assert_eq!(got.nearest.to_bits(), want.nearest.to_bits());
                assert!(got.distance_evals <= 2_048 + 8);
                evals += got.distance_evals;
            }
        }
        assert!(
            evals < 22 * 3 * 2_048 / 2,
            "pruning skipped little: {evals}"
        );
    }

    #[test]
    fn churn_keeps_ids_dense_and_radii_covering() {
        let (data, labels) = grouped(1_100, 4, 3);
        let mut ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(4, &data), &labels);
        ix.swap_label(5, Rows::new(4, &data[..40]));
        ix.add(99, &[40.0, -40.0, 40.0, -40.0]);
        assert_eq!(ix.remove_label(2), 88);
        let Layout::Lists(lists) = &ix.layout else {
            panic!("a 1,100-row build keeps lists");
        };
        let mut ids: Vec<u64> = lists.lists.iter().flat_map(|l| l.ids.clone()).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..ix.len() as u64).collect::<Vec<_>>());
        for (li, list) in lists.lists.iter().enumerate() {
            assert!(list.ids.windows(2).all(|w| w[0] < w[1]));
            for row in list.rows.to_row_major().chunks_exact(4) {
                assert!(norm(row, lists.centroid(li)) <= lists.radii[li]);
            }
        }
        let (got_labels, got_data) = ix.export();
        assert_eq!(got_labels.last(), Some(&99));
        assert_eq!(&got_data[got_data.len() - 4..], [40.0, -40.0, 40.0, -40.0]);
    }

    #[test]
    fn a_nan_member_makes_its_radius_nan_for_good() {
        let (data, labels) = grouped(600, 2, 4);
        let mut ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(2, &data), &labels);
        ix.add(7, &[f32::NAN, 0.0]);
        ix.add(7, &[f32::INFINITY, 0.0]);
        let radii = |ix: &FlatIndex| match &ix.layout {
            Layout::Lists(lists) => lists.radii.clone(),
            Layout::One(_) => unreachable!(),
        };
        assert!(radii(&ix).iter().any(|r| r.is_nan()));
        let nan_lists = radii(&ix).iter().filter(|r| r.is_nan()).count();
        ix.remove_label(7);
        ix.add(8, &[1.0, 1.0]);
        assert_eq!(radii(&ix).iter().filter(|r| r.is_nan()).count(), nan_lists);
    }

    #[test]
    fn skip_rule_is_conservative_on_special_values() {
        let s = Slack::new(24);
        assert!(s.out_of_reach(10.0, 1.0, 80.0));
        // A member could sit at distance 9 exactly: (10 − 1)² = 81.
        assert!(!s.out_of_reach(10.0, 1.0, 81.0));
        for (c, r, kth) in [
            (f64::NAN, 1.0, 0.0),
            (10.0, f64::NAN, 0.0),
            (10.0, f64::INFINITY, 0.0),
            (f64::INFINITY, 1.0, 0.0),
            (10.0, 1.0, f32::NAN),
            (10.0, 1.0, f32::INFINITY),
            (1.0, 10.0, -0.0),
            (0.0, 0.0, -0.0),
        ] {
            assert!(!s.out_of_reach(c, r, kth), "{c} {r} {kth}");
        }
        // Underflow: a bound below the floor never beats a zero k-th.
        assert!(!Slack::new(3).out_of_reach(1e-19, 0.0, 0.0));
    }

    #[test]
    fn list_snapshot_round_trips_and_refuses_bad_parts() {
        let (data, labels) = grouped(700, 3, 5);
        let mut ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(3, &data), &labels);
        ix.swap_label(1, Rows::new(3, &data[..30]));
        let json = serde_json::to_string(&ix).unwrap();
        let back: FlatIndex = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ix);
        let q = [0.5f32, -1.0, 2.0];
        assert_eq!(back.search(&q, 40), ix.search(&q, 40));

        let edit = |key: &str, f: &dyn Fn(&mut Vec<Value>)| {
            let mut v = ix.to_value();
            let Value::Object(pairs) = &mut v else {
                unreachable!()
            };
            let (_, Value::Array(items)) = pairs.iter_mut().find(|(k, _)| k == key).unwrap() else {
                unreachable!()
            };
            f(items);
            FlatIndex::from_value(&v)
        };
        assert!(edit("radii", &|r| r.truncate(1)).is_err());
        assert!(edit("lists", &|l| l[3] = Value::Int(99)).is_err());
        assert!(edit("lists", &|l| l.pop().map(drop).unwrap_or(())).is_err());
        assert!(edit("radii", &|r| r[0] = Value::Float(0.0)).is_err());
        assert!(edit("centroids", &|c| c.push(Value::Float(0.0))).is_err());
        // A null (NaN) radius never skips, so it is a valid bound.
        assert!(edit("radii", &|r| r[0] = Value::Null).is_ok());
    }
}
