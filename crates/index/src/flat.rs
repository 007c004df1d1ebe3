//! The exact backend: a brute-force scan over the rows, and the test
//! oracle every other backend and the serving path are measured
//! against.
//!
//! - Vectors live in one column-major row store — dimension `d` of
//!   every row contiguous — so the scan streams each column linearly.
//! - The scan walks the rows in tiles of lane blocks, each tile scored
//!   against every query of the block while hot in cache; the lane
//!   kernel ([`crate::kernels`]) scores 16 rows per step with
//!   `euclidean_sq`'s arithmetic in its order.
//! - Every row is pushed into the query's [`crate::TopK`], so the scan
//!   kernel ([`FlatIndex::scan_block`]; a single query is a block of
//!   one) returns exactly a naive scan's rows sorted by `(dist, id)` and
//!   cut to `k` — scores, selected neighbors and their order. The
//!   `tests/index_serving.rs` oracle holds its decisions to the
//!   pre-index implementation's.

use serde::json::{field, Error, Value};
use serde::{Deserialize, Serialize};

use crate::kernels::{record_block_size, scan_lanes, tiles, IdMap, TopK};
use crate::rowset::RowSet;
use crate::{Metric, Rows, VectorIndex};

/// The exact nearest-neighbor index: column-major storage, lane scan.
/// Ids are row positions, which compaction keeps dense.
///
/// ```
/// use tlsfp_index::{FlatIndex, Metric, Rows, VectorIndex};
/// let data = [0.0f32, 0.0, 1.0, 1.0, 2.0, 2.0];
/// let ix = FlatIndex::from_rows(Metric::Euclidean, Rows::new(2, &data), &[0, 1, 2]);
/// let r = ix.search(&[0.9, 1.0], 2);
/// assert_eq!(r.top().unwrap().label, 1);
/// assert_eq!(r.distance_evals, 3); // exact: every row scanned
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatIndex {
    metric: Metric,
    rows: RowSet,
}

impl FlatIndex {
    /// An empty index for `dim`-dimensional vectors.
    pub fn new(dim: usize, metric: Metric) -> Self {
        FlatIndex {
            metric,
            rows: RowSet::with_capacity(dim, 0),
        }
    }

    /// Builds from labeled rows (copied into the column store).
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub fn from_rows(metric: Metric, rows: Rows<'_>, labels: &[usize]) -> Self {
        FlatIndex {
            metric,
            rows: RowSet::from_rows(rows, labels),
        }
    }

    /// An owned row-major copy of the stored rows, one `Vec` per row,
    /// aligned with [`FlatIndex::labels`] — for oracles and tests; the
    /// serving path never copies its rows out.
    pub fn rows(&self) -> Vec<Vec<f32>> {
        (0..self.len())
            .map(|i| {
                let mut row = Vec::with_capacity(self.dim());
                self.rows.extend_row(i, &mut row);
                row
            })
            .collect()
    }

    /// Stored labels, aligned with [`FlatIndex::rows`].
    pub fn labels(&self) -> &[usize] {
        self.rows.labels()
    }
}

impl VectorIndex for FlatIndex {
    fn dim(&self) -> usize {
        self.rows.dim()
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// The blocked exact scan: one pass over the rows in tiles of lane
    /// blocks, each tile scored against every query in the block while
    /// hot in cache, every row pushed into the query's accumulator.
    fn scan_block(&self, queries: &[Vec<f32>], ids: IdMap, accs: &mut [TopK]) {
        crate::assert_scan_inputs(queries, accs, self.dim());
        for tile in tiles(&self.rows) {
            for (query, acc) in queries.iter().zip(accs.iter_mut()) {
                scan_lanes(&self.rows, tile.clone(), query, acc, |row| {
                    ids.map(row as u64)
                });
            }
        }
        record_block_size!("flat", queries.len());
        crate::record_backend_search!("flat", queries.len(), queries.len() * self.len());
    }

    fn add(&mut self, label: usize, vector: &[f32]) {
        self.rows.push(label, vector);
    }

    fn remove_label(&mut self, label: usize) -> usize {
        self.rows.remove_label(label)
    }

    fn export(&self) -> (Vec<usize>, Vec<f32>) {
        (self.labels().to_vec(), self.rows.to_row_major())
    }
}

/// The snapshot keeps the row-major form: `{"dim", "metric", "data",
/// "labels"}`, `data` one row after another.
impl Serialize for FlatIndex {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("dim".into(), self.dim().to_value()),
            ("metric".into(), self.metric.to_value()),
            ("data".into(), self.rows.data_value()),
            ("labels".into(), self.labels().to_value()),
        ])
    }
}

impl Deserialize for FlatIndex {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| Error::custom("expected object for struct FlatIndex"))?;
        let labels: Vec<usize> = field(pairs, "labels")?;
        let data: Vec<f32> = field(pairs, "data")?;
        Ok(FlatIndex {
            metric: field(pairs, "metric")?,
            rows: RowSet::from_parts(field(pairs, "dim")?, &labels, &data)?,
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
}
