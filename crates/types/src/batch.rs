//! Columnar row batches: the unit of exchange in the vectorized engine.
//!
//! A [`RowBatch`] holds up to `capacity` rows in column-major order — one
//! `Vec<Value>` per column — so operators touch values without per-row
//! allocation, and per-tuple bookkeeping (governor checkpoints, metrics,
//! failpoints, trace publication) amortizes to batch boundaries. The gnm
//! progress model counts `K_i` *deltas*, so summing them per batch is
//! exact: published fractions, bounds, and converged estimates are
//! unchanged from tuple-at-a-time execution.
//!
//! It is the one container rows live in between storage and the API edge:
//! table blocks, pipeline edges and every operator buffer (join partitions,
//! sort and merge runs, group keys, the nested-loops inner side) are
//! `RowBatch`es; [`Row`]s exist only where rows leave the engine.
//!
//! Batches are reused: the driver allocates one batch per pipeline edge and
//! operators [`clear`](RowBatch::clear) + refill it, so the steady state
//! performs no heap allocation at all for fixed-width columns.

use crate::row::Row;
use crate::value::Value;

/// Default rows per batch (`PhysicalOptions::batch_rows`): large enough to
/// amortize per-batch overhead to noise, small enough to stay cache
/// resident. `1` selects the strict legacy-equivalent mode reproducing
/// tuple-at-a-time traces byte-for-byte.
pub const DEFAULT_BATCH_ROWS: usize = 1024;

/// The row index that stands for "no row" in a
/// [`gather_pairs_from`](RowBatch::gather_pairs_from) pair list.
pub const NO_ROW: u32 = u32::MAX;

/// What a `next_batch` call (`qprog_exec::ops::Operator`) promises about
/// future output.
///
/// `Exhausted` may still deliver rows (the operator's final, partial
/// batch); a driver consumes `out` *then* stops. Operators are fused:
/// calling `next_batch` again after `Exhausted` returns an empty
/// `Exhausted` without side effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// More output may follow; call again.
    HasMore,
    /// The operator is exhausted; `out` holds its final rows (possibly
    /// zero).
    Exhausted,
}

impl BatchStatus {
    /// True iff this is [`BatchStatus::Exhausted`].
    pub fn is_exhausted(self) -> bool {
        matches!(self, BatchStatus::Exhausted)
    }
}

/// A reusable, fixed-capacity, column-major batch of rows.
#[derive(Debug, Clone)]
pub struct RowBatch {
    /// Column-major storage: `cols[c][r]` is row `r`'s value in column `c`.
    cols: Vec<Vec<Value>>,
    /// Rows currently stored (every column vector has exactly this length).
    len: usize,
    /// Maximum rows before [`is_full`](Self::is_full).
    capacity: usize,
}

impl RowBatch {
    /// An empty batch of `arity` columns holding up to `capacity` rows
    /// (clamped to at least 1).
    pub fn with_capacity(arity: usize, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        RowBatch {
            cols: (0..arity).map(|_| Vec::with_capacity(capacity)).collect(),
            len: 0,
            capacity,
        }
    }

    /// An unbounded accumulator batch: no capacity bound, no
    /// pre-allocation. Blocking operators use these as columnar buffers
    /// (join partitions, sort runs, stashes) that grow with their input.
    pub fn accumulator(arity: usize) -> Self {
        RowBatch {
            cols: (0..arity).map(|_| Vec::new()).collect(),
            len: 0,
            capacity: usize::MAX,
        }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.cols.len()
    }

    /// Rows currently stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff no rows are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// True iff the batch is at capacity.
    pub fn is_full(&self) -> bool {
        self.len >= self.capacity
    }

    /// Maximum rows per fill. Operators size their internal scratch
    /// batches from the output batch's capacity, so the configured
    /// `batch_rows` propagates down a plan without constructor plumbing.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Rows still accepted before the batch is full.
    pub fn remaining(&self) -> usize {
        self.capacity - self.len
    }

    /// Re-bound an empty batch's capacity (clamped to at least 1).
    /// Operators that must not over-pull their input — LIMIT, or a filter
    /// whose output already holds rows — shrink their scratch batch with
    /// this before each refill so a child can never produce more rows than
    /// the parent can accept.
    pub fn set_capacity(&mut self, capacity: usize) {
        debug_assert!(self.is_empty(), "set_capacity on non-empty batch");
        self.capacity = capacity.max(1);
    }

    /// Drop all rows, keeping the column allocations for reuse.
    pub fn clear(&mut self) {
        for col in &mut self.cols {
            col.clear();
        }
        self.len = 0;
    }

    /// Borrow column `c` (its `self.len()` values).
    pub fn col(&self, c: usize) -> &[Value] {
        &self.cols[c]
    }

    /// Borrow all columns (column-major; each has `self.len()` values).
    pub fn cols(&self) -> &[Vec<Value>] {
        &self.cols
    }

    /// Borrow the value at (`row`, `col`).
    pub fn value(&self, row: usize, col: usize) -> &Value {
        &self.cols[col][row]
    }

    /// Append one row, moving its values out of `values` (left empty,
    /// its allocation kept for the caller's next row).
    pub fn push_drain(&mut self, values: &mut Vec<Value>) {
        debug_assert_eq!(values.len(), self.cols.len());
        debug_assert!(!self.is_full());
        for (col, v) in self.cols.iter_mut().zip(values.drain(..)) {
            col.push(v);
        }
        self.len += 1;
    }

    /// Append the selected rows of `src` column-wise, in `sel` order — the
    /// selection-vector gather of partitioning drains and of emission
    /// through a sort permutation. `sel` indexes rows of `src`; the caller
    /// guarantees the result fits.
    pub fn gather_from(&mut self, src: &RowBatch, sel: &[u32]) {
        debug_assert_eq!(src.arity(), self.arity());
        debug_assert!(self.len + sel.len() <= self.capacity);
        for (dst, s) in self.cols.iter_mut().zip(&src.cols) {
            dst.extend(sel.iter().map(|&r| s[r as usize].clone()));
        }
        self.len += sel.len();
    }

    /// Append, for every `(l, r)` pair, the columns `cols` of the row
    /// `left[l] ++ right[r]` (`cols` index that concatenation), column-wise:
    /// each output column is filled in one tight loop over the pair list,
    /// so a join emits a whole batch of matches without materializing any
    /// row. A left index of [`NO_ROW`] reads NULL in every left column —
    /// an outer join's padding. The caller guarantees the pairs fit.
    pub fn gather_pairs_from(
        &mut self,
        left: &RowBatch,
        right: &RowBatch,
        pairs: &[(u32, u32)],
        cols: &[usize],
    ) {
        debug_assert_eq!(cols.len(), self.arity());
        debug_assert!(self.len + pairs.len() <= self.capacity);
        let split = left.arity();
        for (dst, &c) in self.cols.iter_mut().zip(cols) {
            if c < split {
                let s = &left.cols[c];
                dst.extend(
                    pairs
                        .iter()
                        .map(|&(l, _)| s.get(l as usize).cloned().unwrap_or(Value::Null)),
                );
            } else {
                let s = &right.cols[c - split];
                dst.extend(pairs.iter().map(|&(_, r)| s[r as usize].clone()));
            }
        }
        self.len += pairs.len();
    }

    /// Move every row of `src` onto the end of this batch, leaving `src`
    /// empty (arities must match; the caller guarantees the rows fit).
    /// Used to merge per-worker columnar partition fragments in worker
    /// order without cloning any value.
    pub fn append_batch(&mut self, src: &mut RowBatch) {
        debug_assert_eq!(src.arity(), self.arity());
        debug_assert!(self.len + src.len <= self.capacity);
        self.len += src.len;
        src.len = 0;
        for (dst, s) in self.cols.iter_mut().zip(&mut src.cols) {
            dst.append(s);
        }
    }

    /// Append columns `cols` of rows `range` of `src`, one contiguous slice
    /// copy per column (the table scan's path out of a storage block). The
    /// caller guarantees the range is in bounds and the rows fit.
    pub fn extend_from(&mut self, src: &RowBatch, range: std::ops::Range<usize>, cols: &[usize]) {
        debug_assert_eq!(cols.len(), self.arity());
        debug_assert!(range.end <= src.len);
        debug_assert!(self.len + range.len() <= self.capacity);
        self.len += range.len();
        for (dst, &c) in self.cols.iter_mut().zip(cols) {
            dst.extend_from_slice(&src.cols[c][range.clone()]);
        }
    }

    /// Drop every row from `len` on (no-op when the batch is shorter).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len {
            for col in &mut self.cols {
                col.truncate(len);
            }
            self.len = len;
        }
    }

    /// Materialize row `r` as an owned [`Row`].
    pub fn row(&self, r: usize) -> Row {
        Row::new(self.cols.iter().map(|c| c[r].clone()).collect())
    }

    /// Materialize every row, appending to `out` (the result-row edge:
    /// `runtime::collect` hands clients `Row`s).
    pub fn append_rows_to(&self, out: &mut Vec<Row>) {
        out.reserve(self.len);
        for r in 0..self.len {
            out.push(self.row(r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn push_and_read_column_major() {
        let mut b = RowBatch::with_capacity(2, 4);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
        b.push_drain(&mut vec![Value::Int64(1), Value::str("a")]);
        b.push_drain(&mut vec![Value::Int64(2), Value::str("b")]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.col(0), &[Value::Int64(1), Value::Int64(2)]);
        assert_eq!(b.value(1, 1), &Value::str("b"));
        assert_eq!(b.row(0), row![1i64, "a"]);
        assert!(!b.is_full());
        assert_eq!(b.remaining(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = RowBatch::with_capacity(1, 2);
        b.push_drain(&mut row![1i64].into_values());
        b.push_drain(&mut row![2i64].into_values());
        assert!(b.is_full());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
        assert_eq!(b.arity(), 1);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let b = RowBatch::with_capacity(1, 0);
        assert_eq!(b.capacity(), 1);
    }

    #[test]
    fn set_capacity_rebounds_empty_batch() {
        let mut b = RowBatch::with_capacity(1, 8);
        b.set_capacity(2);
        b.push_drain(&mut row![1i64].into_values());
        b.push_drain(&mut row![2i64].into_values());
        assert!(b.is_full());
        b.clear();
        b.set_capacity(0);
        assert_eq!(b.capacity(), 1);
    }

    #[test]
    fn gather_applies_selection() {
        let mut src = RowBatch::with_capacity(1, 4);
        for i in 0..4i64 {
            src.push_drain(&mut row![i].into_values());
        }
        let mut dst = RowBatch::with_capacity(1, 4);
        dst.gather_from(&src, &[3, 0, 2]);
        assert_eq!(
            dst.col(0),
            &[Value::Int64(3), Value::Int64(0), Value::Int64(2)]
        );
    }

    #[test]
    fn pair_gather_selects_columns_and_pads() {
        let mut left = RowBatch::with_capacity(2, 2);
        left.push_drain(&mut row![1i64, "l"].into_values());
        let mut right = RowBatch::with_capacity(2, 2);
        right.push_drain(&mut row![2i64, "x"].into_values());
        right.push_drain(&mut row![3i64, "y"].into_values());
        let mut b = RowBatch::with_capacity(3, 4);
        b.gather_pairs_from(&left, &right, &[(0, 1), (NO_ROW, 0)], &[3, 0, 2]);
        assert_eq!(b.row(0), row![Value::str("y"), 1i64, 3i64]);
        assert_eq!(b.row(1), row![Value::str("x"), Value::Null, 2i64]);
        let mut none = RowBatch::with_capacity(0, 4);
        none.gather_pairs_from(&left, &right, &[(0, 0), (0, 1)], &[]);
        assert_eq!((none.len(), none.row(1)), (2, row![]));
        let mut c = RowBatch::with_capacity(3, 2);
        c.gather_from(&b, &[1]);
        assert_eq!(c.row(0), b.row(1));
    }

    #[test]
    fn extend_from_copies_slices_and_truncate_pops() {
        let mut src = RowBatch::with_capacity(2, 8);
        for r in [row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]] {
            src.push_drain(&mut r.into_values());
        }
        let mut b = RowBatch::with_capacity(2, 8);
        b.extend_from(&src, 1..3, &[0, 1]);
        assert_eq!(b.len(), 2);
        assert_eq!(b.row(0), row![2i64, "b"]);
        assert_eq!(b.row(1), row![3i64, "c"]);
        let mut narrow = RowBatch::with_capacity(1, 8);
        narrow.extend_from(&src, 0..3, &[1]);
        assert_eq!(
            narrow.col(0),
            &[Value::str("a"), Value::str("b"), Value::str("c")]
        );
        b.truncate(1);
        assert_eq!((b.len(), b.col(1)), (1, &[Value::str("b")][..]));
        b.truncate(5);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn row_materialization() {
        let mut b = RowBatch::with_capacity(2, 2);
        b.push_drain(&mut row![7i64, "k"].into_values());
        let mut rows = Vec::new();
        b.append_rows_to(&mut rows);
        assert_eq!(rows, vec![row![7i64, "k"]]);
    }

    #[test]
    fn status_helpers() {
        assert!(BatchStatus::Exhausted.is_exhausted());
        assert!(!BatchStatus::HasMore.is_exhausted());
    }
}
