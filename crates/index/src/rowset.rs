//! The one row store the exact scans read: the rows of a
//! [`crate::FlatIndex`] and of every IVF list, stored column-major so
//! the lane kernel ([`crate::kernels::scan_lanes`]) scores
//! [`LANES`] rows per step.
//!
//! Column `d` holds dimension `d` of every row, contiguously, with room
//! for `cap` rows, a multiple of [`LANES`]; row `i` of column `d` sits
//! at `d * cap + i`. Every value past the last row is `0.0`, so the
//! padding lanes of a partly filled last block compute on zeros (never
//! on a removed row's subnormals) and are never pushed.
//!
//! Column 0 starts on a 64-byte boundary, so every lane block is
//! exactly one cache line. The allocator only promises `f32` alignment,
//! and where it puts a buffer depends on the heap's history, which
//! differs from one process or clone to the next; a lane kernel reading
//! blocks that straddle two lines took up to twice as long, so an
//! unaligned store made the cost of the same scan vary between runs.
//!
//! Mutations stay as cheap as in a row-major buffer: `push` writes one
//! value per column, `remove_label` moves each run of survivors with one
//! `copy_within` per column, and the capacity grows geometrically.
//! Equality and the JSON form are on the logical rows only — `dim`,
//! labels and row-major values — never on capacity or padding.
//!
//! An [`IvfList`] is a row store with an id beside each row: one list
//! of the IVF backend, and one of a large flat store's pruning lists.

use std::mem::size_of;

use serde::json::{field, Error, Value};
use serde::Serialize;

use crate::kernels::LANES;
use crate::Rows;

/// Bytes one lane block spans: one cache line.
const BLOCK_BYTES: usize = LANES * size_of::<f32>();

/// A zeroed buffer with room for `len` values from a 64-byte boundary
/// on, and the index of that boundary: fewer than [`LANES`] values of
/// slack go in front.
fn aligned_zeros(len: usize) -> (Vec<f32>, usize) {
    let buf = vec![0.0f32; len + LANES - 1];
    let start = (buf.as_ptr() as usize).wrapping_neg() % BLOCK_BYTES / size_of::<f32>();
    (buf, start)
}

/// `dim`-dimensional labeled rows in column-major lane storage.
#[derive(Debug)]
pub(crate) struct RowSet {
    dim: usize,
    /// Rows of room per column: a multiple of [`LANES`].
    cap: usize,
    /// `dim` columns of `cap` values each, from `cols[start]` on.
    cols: Vec<f32>,
    /// Where column 0 starts in `cols`: its first 64-byte boundary.
    start: usize,
    /// One label per row, in row order.
    labels: Vec<usize>,
}

impl RowSet {
    /// An empty store with room for `rows` rows.
    pub(crate) fn with_capacity(dim: usize, rows: usize) -> Self {
        let cap = rows.next_multiple_of(LANES);
        let (cols, start) = aligned_zeros(dim * cap);
        RowSet {
            dim,
            cap,
            cols,
            start,
            labels: Vec::with_capacity(rows),
        }
    }

    /// A store holding `rows` with their `labels`, at exact capacity.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len() != labels.len()`.
    pub(crate) fn from_rows(rows: Rows<'_>, labels: &[usize]) -> Self {
        assert_eq!(rows.len(), labels.len(), "one label per row");
        let mut set = RowSet::with_capacity(rows.dim(), labels.len());
        for (row, &label) in rows.iter().zip(labels) {
            set.push(label, row);
        }
        set
    }

    /// A store from its JSON parts: `labels` and their row-major `data`.
    ///
    /// # Errors
    ///
    /// Fails when `data` does not hold exactly one `dim`-wide row per
    /// label.
    pub(crate) fn from_parts(dim: usize, labels: &[usize], data: &[f32]) -> Result<Self, Error> {
        if data.len() != labels.len().saturating_mul(dim) {
            return Err(Error::custom(format!(
                "row data holds {} values, not {} rows of dim {dim}",
                data.len(),
                labels.len()
            )));
        }
        let mut set = RowSet::with_capacity(dim, labels.len());
        for (i, &label) in labels.iter().enumerate() {
            set.push(label, &data[i * dim..(i + 1) * dim]);
        }
        Ok(set)
    }

    /// Row dimensionality.
    pub(crate) fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub(crate) fn len(&self) -> usize {
        self.labels.len()
    }

    /// Labels, in row order.
    pub(crate) fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// The `dim` columns back to back (padding included).
    fn values(&self) -> &[f32] {
        &self.cols[self.start..self.start + self.dim * self.cap]
    }

    /// The `dim` columns, each `cap` values long (padding included).
    pub(crate) fn columns(&self) -> impl Iterator<Item = &[f32]> + '_ {
        // `max(1)`: with no capacity there are no values to chunk.
        self.values().chunks_exact(self.cap.max(1))
    }

    /// Appends one labeled row: one write per column.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim`.
    pub(crate) fn push(&mut self, label: usize, row: &[f32]) {
        assert_eq!(row.len(), self.dim, "vector dim mismatch");
        let i = self.len();
        if i == self.cap {
            self.grow();
        }
        for (d, &v) in row.iter().enumerate() {
            self.cols[self.start + d * self.cap + i] = v;
        }
        self.labels.push(label);
    }

    /// Doubles the room (at least one lane block), moving each column to
    /// its new stride.
    fn grow(&mut self) {
        let cap = (2 * self.cap).max(LANES);
        let (mut cols, start) = aligned_zeros(self.dim * cap);
        for (d, col) in self.columns().enumerate() {
            let to = start + d * cap;
            cols[to..to + self.len()].copy_from_slice(&col[..self.len()]);
        }
        self.cols = cols;
        self.start = start;
        self.cap = cap;
    }

    /// Removes every row carrying `label`, keeping the survivors' order;
    /// returns how many were dropped. Each run of survivors moves with
    /// one `copy_within` per column, and the freed tail is zeroed.
    pub(crate) fn remove_label(&mut self, label: usize) -> usize {
        let n = self.len();
        // Survivor runs that move, as (from, len, to).
        let mut moves: Vec<(usize, usize, usize)> = Vec::new();
        let mut kept = 0;
        let mut i = 0;
        while i < n {
            if self.labels[i] == label {
                i += 1;
                continue;
            }
            let start = i;
            while i < n && self.labels[i] != label {
                i += 1;
            }
            if kept != start {
                moves.push((start, i - start, kept));
            }
            kept += i - start;
        }
        if kept == n {
            return 0;
        }
        let (cap, start) = (self.cap, self.start);
        for col in self.cols[start..start + self.dim * cap].chunks_exact_mut(cap) {
            for &(from, len, to) in &moves {
                col.copy_within(from..from + len, to);
            }
            col[kept..n].fill(0.0);
        }
        self.labels.retain(|&l| l != label);
        n - kept
    }

    /// Appends row `i`, row-major, to `out`.
    pub(crate) fn extend_row(&self, i: usize, out: &mut Vec<f32>) {
        out.extend(self.columns().map(|col| col[i]));
    }

    /// Every row, row-major.
    pub(crate) fn to_row_major(&self) -> Vec<f32> {
        let mut data = Vec::with_capacity(self.len() * self.dim);
        for i in 0..self.len() {
            self.extend_row(i, &mut data);
        }
        data
    }

    /// The rows as the JSON snapshot's row-major `data` array, written
    /// value by value with no intermediate copy of the store.
    pub(crate) fn data_value(&self) -> Value {
        Value::Array(
            (0..self.len())
                .flat_map(|i| self.columns().map(move |col| col[i].to_value()))
                .collect(),
        )
    }
}

/// A clone gets a buffer of its own, aligned afresh: the allocator may
/// place it differently from the original's, so `start` is recomputed
/// rather than copied.
impl Clone for RowSet {
    fn clone(&self) -> Self {
        let (mut cols, start) = aligned_zeros(self.dim * self.cap);
        cols[start..start + self.dim * self.cap].copy_from_slice(self.values());
        RowSet {
            dim: self.dim,
            cap: self.cap,
            cols,
            start,
            labels: self.labels.clone(),
        }
    }
}

/// Equal when the logical rows are: same `dim`, labels and values
/// (compared as `f32`, like the row-major buffer this replaced),
/// whatever either store's capacity.
impl PartialEq for RowSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.len();
        self.dim == other.dim
            && self.labels == other.labels
            && self
                .columns()
                .zip(other.columns())
                .all(|(a, b)| a[..n] == b[..n])
    }
}

/// One inverted list: ids aligned with the rows (and labels) of its
/// column store, moving with their rows on compaction, which keeps their
/// order.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IvfList {
    pub(crate) ids: Vec<u64>,
    pub(crate) rows: RowSet,
}

impl IvfList {
    /// An empty list with room for `rows` rows.
    pub(crate) fn with_capacity(dim: usize, rows: usize) -> Self {
        IvfList {
            ids: Vec::with_capacity(rows),
            rows: RowSet::with_capacity(dim, rows),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }

    pub(crate) fn push(&mut self, id: u64, label: usize, row: &[f32]) {
        self.rows.push(label, row);
        self.ids.push(id);
    }

    /// Removes every row carrying `label` with its id; returns how many
    /// were dropped.
    pub(crate) fn remove_label(&mut self, label: usize) -> usize {
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
    pub(crate) fn from_value(v: &Value, dim: usize) -> Result<Self, Error> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(dim: usize, n: usize) -> (Vec<f32>, Vec<usize>) {
        let data = (0..n * dim).map(|v| v as f32 * 0.5 - 3.0).collect();
        let labels = (0..n).map(|i| i % 3).collect();
        (data, labels)
    }

    /// Every value past the last row is zero.
    fn padding_is_zero(set: &RowSet) -> bool {
        set.columns()
            .all(|col| col[set.len()..].iter().all(|&v| v == 0.0))
    }

    /// Every column starts on a 64-byte boundary.
    fn columns_are_aligned(set: &RowSet) -> bool {
        set.columns()
            .all(|col| col.as_ptr() as usize % BLOCK_BYTES == 0)
    }

    #[test]
    fn every_lane_block_is_one_cache_line() {
        for dim in [1, 3, 24] {
            let (data, labels) = sample(dim, 37);
            let mut set = RowSet::with_capacity(dim, 0);
            for (row, &label) in data.chunks_exact(dim).zip(&labels) {
                set.push(label, row);
                assert!(columns_are_aligned(&set), "dim {dim}, {} rows", set.len());
            }
            assert!(columns_are_aligned(&RowSet::from_rows(
                Rows::new(dim, &data),
                &labels
            )));
            // Odd-sized allocations in between move where each clone lands.
            let mut spacers = Vec::new();
            for n in 1..16 {
                spacers.push(vec![0u8; 4 * n]);
                let copy = set.clone();
                assert!(columns_are_aligned(&copy), "dim {dim}, clone {n}");
                assert!(padding_is_zero(&copy));
                assert_eq!(copy, set);
            }
            set.remove_label(1);
            assert!(columns_are_aligned(&set));
        }
    }

    #[test]
    fn push_grows_geometrically_and_keeps_rows() {
        let (data, labels) = sample(3, 40);
        let mut set = RowSet::with_capacity(3, 0);
        let mut caps = Vec::new();
        for (row, &label) in data.chunks_exact(3).zip(&labels) {
            set.push(label, row);
            if caps.last() != Some(&set.cap) {
                caps.push(set.cap);
            }
        }
        assert_eq!(caps, [LANES, 2 * LANES, 4 * LANES]);
        assert_eq!(set.to_row_major(), data);
        assert_eq!(set.labels(), labels);
        assert!(padding_is_zero(&set));
    }

    #[test]
    fn remove_label_compacts_every_column_and_zeroes_the_tail() {
        let (data, labels) = sample(5, 37);
        let mut set = RowSet::from_rows(Rows::new(5, &data), &labels);
        assert_eq!(set.cap, 48);
        assert_eq!(set.remove_label(1), 12);
        assert_eq!(set.remove_label(7), 0);
        let (want_labels, want_data): (Vec<usize>, Vec<&[f32]>) = labels
            .iter()
            .zip(data.chunks_exact(5))
            .filter(|(&l, _)| l != 1)
            .unzip();
        assert_eq!(set.labels(), want_labels);
        assert_eq!(set.to_row_major(), want_data.concat());
        assert!(padding_is_zero(&set));
        assert_eq!(set.remove_label(0) + set.remove_label(2), 25);
        assert_eq!(set.len(), 0);
        assert!(padding_is_zero(&set));
    }

    #[test]
    fn equality_ignores_capacity() {
        let (data, labels) = sample(2, 40);
        let exact = RowSet::from_rows(Rows::new(2, &data), &labels);
        let mut grown = RowSet::with_capacity(2, 0);
        for (row, &label) in data.chunks_exact(2).zip(&labels).take(33) {
            grown.push(label, row);
        }
        assert_ne!(grown, exact);
        for (row, &label) in data.chunks_exact(2).zip(&labels).skip(33) {
            grown.push(label, row);
        }
        assert_ne!(grown.cap, exact.cap);
        assert_eq!(grown, exact);
    }

    #[test]
    fn json_parts_round_trip_and_refuse_ragged_data() {
        let (data, labels) = sample(4, 9);
        let set = RowSet::from_parts(4, &labels, &data).unwrap();
        let values = <Vec<f32> as serde::Deserialize>::from_value(&set.data_value()).unwrap();
        assert_eq!(values, data);
        assert!(RowSet::from_parts(4, &labels, &data[1..]).is_err());
        assert!(RowSet::from_parts(0, &[3, 4], &[]).is_ok());
        assert!(RowSet::from_parts(0, &[3], &[1.0]).is_err());
    }
}
