//! Columnar row batches: the unit of exchange in the vectorized engine.
//!
//! A [`RowBatch`] holds up to `capacity` rows in column-major order — one
//! typed [`Column`] lane per column, built from the schema's types — so
//! operators copy cells as slices, without per-row allocation or per-cell
//! tags, and per-tuple bookkeeping (governor checkpoints, metrics,
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

use crate::column::Column;
use crate::error::QResult;
use crate::row::Row;
use crate::value::{DataType, Value};

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
    /// Column-major storage: row `r`'s cell of column `c` is `cols[c]`'s.
    cols: Vec<Column>,
    /// Rows currently stored (every column has exactly this length).
    len: usize,
    /// Maximum rows before [`is_full`](Self::is_full).
    capacity: usize,
}

impl RowBatch {
    /// An empty batch of one column per type in `types` holding up to
    /// `capacity` rows (clamped to at least 1). Its columns grow on the
    /// first fill and keep their allocation through every refill.
    pub fn with_capacity(types: impl IntoIterator<Item = DataType>, capacity: usize) -> Self {
        let cols = types.into_iter().map(|ty| Column::with_capacity(ty, 0));
        let (len, capacity) = (0, capacity.max(1));
        RowBatch {
            cols: cols.collect(),
            len,
            capacity,
        }
    }

    /// An unbounded batch: a join partition, sort run or stash that grows.
    pub fn accumulator(types: impl IntoIterator<Item = DataType>) -> Self {
        RowBatch::with_capacity(types, usize::MAX)
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
        self.truncate(0);
    }

    /// Borrow column `c`.
    pub fn col(&self, c: usize) -> &Column {
        &self.cols[c]
    }

    /// Borrow all columns.
    pub fn cols(&self) -> &[Column] {
        &self.cols
    }

    /// Append one row, moving its values out of `values` (left empty,
    /// its allocation kept for the caller's next row). A value its
    /// column's lane does not take is a type error, and appends nothing.
    pub fn push_drain(&mut self, values: &mut Vec<Value>) -> QResult<()> {
        debug_assert_eq!(values.len(), self.cols.len());
        debug_assert!(!self.is_full());
        let mut pushed = self.cols.iter_mut().zip(values.drain(..));
        if let Err(e) = pushed.try_for_each(|(col, v)| col.push(v)) {
            self.cols.iter_mut().for_each(|col| col.truncate(self.len));
            return Err(e);
        }
        self.len += 1;
        Ok(())
    }

    /// Append the selected rows of `src` column-wise, in `sel` order — the
    /// selection-vector gather of partitioning drains and of emission
    /// through a sort permutation. `sel` indexes rows of `src`; the caller
    /// guarantees the result fits.
    pub fn gather_from(&mut self, src: &RowBatch, sel: &[u32]) {
        debug_assert_eq!(src.arity(), self.arity());
        debug_assert!(self.len + sel.len() <= self.capacity);
        for (dst, s) in self.cols.iter_mut().zip(&src.cols) {
            dst.gather(s, sel.iter().map(|&r| Some(r as usize)));
        }
        self.len += sel.len();
    }

    /// Append, for every `(l, r)` pair, the columns `cols` of the row
    /// `left[l] ++ right[r]` (`cols` index that concatenation), column-wise:
    /// each output column is filled in one tight loop over the pair list,
    /// so a join emits a whole batch of matches without materializing any
    /// row. A left index of [`NO_ROW`] reads NULL in every left column —
    /// an outer join's padding; any other index past its side panics. The
    /// caller guarantees the pairs fit.
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
                let rows = pairs
                    .iter()
                    .map(|&(l, _)| (l != NO_ROW).then_some(l as usize));
                dst.gather(&left.cols[c], rows);
            } else {
                let rows = pairs.iter().map(|&(_, r)| Some(r as usize));
                dst.gather(&right.cols[c - split], rows);
            }
        }
        self.len += pairs.len();
    }

    /// Move every row of `src` onto the end of this batch, leaving `src`
    /// empty (arities must match; the caller guarantees the rows fit).
    /// Used to merge per-worker columnar partition fragments in worker
    /// order, one slice copy per column.
    pub fn append_batch(&mut self, src: &mut RowBatch) {
        debug_assert_eq!(src.arity(), self.arity());
        debug_assert!(self.len + src.len <= self.capacity);
        self.len += src.len;
        src.len = 0;
        for (dst, s) in self.cols.iter_mut().zip(&mut src.cols) {
            dst.gather(s, (0..s.len()).map(Some));
            s.truncate(0);
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
            dst.gather(&src.cols[c], range.clone().map(Some));
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
        Row::new(self.cols.iter().map(|c| c.value(r)).collect())
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

impl From<&Row> for RowBatch {
    /// `row` as a one-row batch, each column typed by its value.
    fn from(row: &Row) -> Self {
        let mut batch = RowBatch::with_capacity(row.values().iter().map(Value::data_type), 1);
        batch
            .push_drain(&mut row.values().to_vec())
            .expect("typed by its values");
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use DataType::*;

    /// A batch of `types` holding `rows`.
    fn batch_of(types: &[DataType], rows: &[Row]) -> RowBatch {
        let mut b = RowBatch::with_capacity(types.iter().copied(), rows.len().max(1));
        for r in rows {
            b.push_drain(&mut r.clone().into_values()).unwrap();
        }
        b
    }

    fn rows_of(b: &RowBatch) -> Vec<Row> {
        let mut rows = Vec::new();
        b.append_rows_to(&mut rows);
        rows
    }

    #[test]
    fn push_and_read_column_major() {
        let mut b = RowBatch::with_capacity([Int64, Utf8], 4);
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 4);
        b.push_drain(&mut vec![Value::Int64(1), Value::str("a")])
            .unwrap();
        b.push_drain(&mut vec![Value::Int64(2), Value::str("b")])
            .unwrap();
        assert_eq!(b.len(), 2);
        assert_eq!(b.col(0).ints(), Some(&[1, 2][..]));
        assert_eq!(b.col(1).value(1), Value::str("b"));
        assert_eq!(b.row(0), row![1i64, "a"]);
        assert!(!b.is_full());
        assert_eq!(b.remaining(), 2);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut b = batch_of(&[Int64], &[row![1i64], row![2i64]]);
        assert!(b.is_full());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.capacity(), 2);
        assert_eq!(b.arity(), 1);
    }

    #[test]
    fn capacity_clamps_to_one() {
        let b = RowBatch::with_capacity([Int64], 0);
        assert_eq!(b.capacity(), 1);
    }

    #[test]
    fn set_capacity_rebounds_empty_batch() {
        let mut b = RowBatch::with_capacity([Int64], 8);
        b.set_capacity(2);
        b.push_drain(&mut row![1i64].into_values()).unwrap();
        b.push_drain(&mut row![2i64].into_values()).unwrap();
        assert!(b.is_full());
        b.clear();
        b.set_capacity(0);
        assert_eq!(b.capacity(), 1);
    }

    #[test]
    fn gather_applies_selection() {
        let src = batch_of(&[Int64], &(0..4i64).map(|i| row![i]).collect::<Vec<_>>());
        let mut dst = RowBatch::with_capacity([Int64], 4);
        dst.gather_from(&src, &[3, 0, 2]);
        assert_eq!(rows_of(&dst), vec![row![3i64], row![0i64], row![2i64]]);
    }

    #[test]
    fn pair_gather_selects_columns_and_pads() {
        let left = batch_of(&[Int64, Utf8], &[row![1i64, "l"]]);
        let right = batch_of(&[Int64, Utf8], &[row![2i64, "x"], row![3i64, "y"]]);
        let mut b = RowBatch::with_capacity([Utf8, Int64, Int64, Utf8], 4);
        b.gather_pairs_from(&left, &right, &[(0, 1), (NO_ROW, 0)], &[3, 0, 2, 1]);
        assert_eq!(b.row(0), row![Value::str("y"), 1i64, 3i64, "l"]);
        assert_eq!(
            b.row(1),
            row![Value::str("x"), Value::Null, 2i64, Value::Null]
        );
        // Padding an empty side (the hash join's NULL-key stash) and a
        // padded cell gathered on keep their NULLs.
        let empty = RowBatch::with_capacity([Int64, Utf8], 1);
        let mut p = RowBatch::with_capacity([Int64, Int64], 2);
        p.gather_pairs_from(&empty, &right, &[(NO_ROW, 1), (NO_ROW, 0)], &[0, 2]);
        assert_eq!(
            rows_of(&p),
            vec![row![Value::Null, 3i64], row![Value::Null, 2i64]]
        );
        let mut none = RowBatch::with_capacity([], 4);
        none.gather_pairs_from(&left, &right, &[(0, 0), (0, 1)], &[]);
        assert_eq!((none.len(), none.row(1)), (2, row![]));
        let mut c = RowBatch::with_capacity([Utf8, Int64, Int64, Utf8], 2);
        c.gather_from(&b, &[1]);
        assert_eq!(c.row(0), b.row(1));
    }

    /// Only `NO_ROW` pads: any other build index past its side is a bug,
    /// not a LeftOuter miss.
    #[test]
    #[should_panic]
    fn pair_gather_panics_on_an_out_of_range_build_row() {
        let left = batch_of(&[Int64], &[row![1i64]]);
        let right = batch_of(&[Int64], &[row![2i64]]);
        let mut b = RowBatch::with_capacity([Int64, Int64], 2);
        b.gather_pairs_from(&left, &right, &[(1, 0)], &[0, 1]);
    }

    #[test]
    fn extend_from_copies_slices_and_truncate_pops() {
        let src = batch_of(
            &[Int64, Utf8],
            &[row![1i64, "a"], row![2i64, "b"], row![3i64, "c"]],
        );
        let mut b = RowBatch::with_capacity([Int64, Utf8], 8);
        b.extend_from(&src, 1..3, &[0, 1]);
        assert_eq!(rows_of(&b), vec![row![2i64, "b"], row![3i64, "c"]]);
        let mut narrow = RowBatch::with_capacity([Utf8], 8);
        narrow.extend_from(&src, 0..3, &[1]);
        assert_eq!(rows_of(&narrow), vec![row!["a"], row!["b"], row!["c"]]);
        b.truncate(1);
        assert_eq!(rows_of(&b), vec![row![2i64, "b"]]);
        b.truncate(5);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn row_materialization() {
        let b = batch_of(&[Int64, Utf8], &[row![7i64, "k"]]);
        assert_eq!(rows_of(&b), vec![row![7i64, "k"]]);
    }

    #[test]
    fn a_row_converts_to_a_batch_typed_by_its_values() {
        for r in [row![1i64, "a"], row![Value::Null, 2.5], row![3i64, "c"]] {
            let b = RowBatch::from(&r);
            assert_eq!((b.len(), b.row(0)), (1, r.clone()));
            let types: Vec<DataType> = b.cols().iter().map(Column::data_type).collect();
            assert_eq!(
                types,
                r.values().iter().map(Value::data_type).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn status_helpers() {
        assert!(BatchStatus::Exhausted.is_exhausted());
        assert!(!BatchStatus::HasMore.is_exhausted());
    }

    /// xorshift64*: the test's own dependency-free generator.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n.max(1)
        }

        /// A cell of type `ty`, NULL one time in four.
        fn cell(&mut self, ty: DataType) -> Value {
            if ty == Null || self.below(4) == 0 {
                return Value::Null;
            }
            let k = self.below(7) as i64 - 3;
            match ty {
                Bool => Value::Bool(k > 0),
                Int64 => Value::Int64(k),
                Float64 => Value::Float64(k as f64 / 2.0),
                _ => Value::str(format!("s{k}")),
            }
        }

        fn rows(&mut self, types: &[DataType], n: usize) -> Vec<Row> {
            (0..n)
                .map(|_| Row::new(types.iter().map(|&t| self.cell(t)).collect()))
                .collect()
        }
    }

    /// Random lanes of every type, NULLs included, through every batch op:
    /// each result equals the same op on a row-major reference model.
    #[test]
    fn lanes_match_a_value_model() {
        let all = [Null, Bool, Int64, Float64, Utf8];
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        for case in 0..200 {
            let types: Vec<DataType> = (0..1 + rng.below(4))
                .map(|_| all[rng.below(5) as usize])
                .collect();
            let (na, nb) = (rng.below(9) as usize, 1 + rng.below(9) as usize);
            let (a_rows, b_rows) = (rng.rows(&types, na), rng.rows(&types, nb));
            // Some cases have no NULL at all: masks that stay empty.
            let (a, b) = (batch_of(&types, &a_rows), batch_of(&types, &b_rows));
            assert_eq!(rows_of(&a), a_rows, "case {case}");
            let acc = || RowBatch::accumulator(types.iter().copied());

            let sel: Vec<u32> = (0..rng.below(12))
                .map(|_| rng.below(b_rows.len() as u64) as u32)
                .collect();
            let mut got = a.clone();
            got.capacity = usize::MAX;
            got.gather_from(&b, &sel);
            let mut want = a_rows.clone();
            want.extend(sel.iter().map(|&r| b_rows[r as usize].clone()));
            assert_eq!(rows_of(&got), want, "case {case} gather");

            let (lo, hi) = (rng.below(b_rows.len() as u64) as usize, b_rows.len());
            let cols: Vec<usize> = (0..types.len()).rev().collect();
            let mut got = acc();
            got.cols.reverse();
            got.extend_from(&b, lo..hi, &cols);
            let project = |r: &Row| Row::new(cols.iter().map(|&c| r.values()[c].clone()).collect());
            let want: Vec<Row> = b_rows[lo..hi].iter().map(project).collect();
            assert_eq!(rows_of(&got), want, "case {case} extend_from");

            let mut got = acc();
            let mut moved = a.clone();
            got.append_batch(&mut b.clone());
            got.append_batch(&mut moved);
            assert!(moved.is_empty() && moved.cols.iter().all(|c| c.len() == 0));
            let want: Vec<Row> = b_rows.iter().chain(&a_rows).cloned().collect();
            assert_eq!(rows_of(&got), want, "case {case} append");
            let keep = rng.below(want.len() as u64 + 1) as usize;
            got.truncate(keep);
            assert_eq!(rows_of(&got), want[..keep], "case {case} truncate");

            let pairs: Vec<(u32, u32)> = (0..rng.below(12))
                .map(|_| {
                    let l = rng.below(a_rows.len() as u64 + 1) as u32;
                    let l = if l as usize == a_rows.len() {
                        NO_ROW
                    } else {
                        l
                    };
                    (l, rng.below(b_rows.len() as u64) as u32)
                })
                .collect();
            let emit: Vec<usize> = (0..rng.below(5))
                .map(|_| rng.below(2 * types.len() as u64) as usize)
                .collect();
            let emit_types = emit.iter().map(|&c| types[c % types.len()]);
            let mut got = RowBatch::accumulator(emit_types);
            got.gather_pairs_from(&a, &b, &pairs, &emit);
            let want: Vec<Row> = pairs
                .iter()
                .map(|&(l, r)| {
                    let left = match l {
                        NO_ROW => Row::new(vec![Value::Null; types.len()]),
                        l => a_rows[l as usize].clone(),
                    };
                    let whole = left.concat(&b_rows[r as usize]);
                    Row::new(emit.iter().map(|&c| whole.values()[c].clone()).collect())
                })
                .collect();
            assert_eq!(rows_of(&got), want, "case {case} pairs");
        }
    }

    /// A value of another type is an error that appends nothing, never a
    /// cast; NULL fits every lane.
    #[test]
    fn a_wrongly_typed_push_is_an_error() {
        let mut b = RowBatch::with_capacity([Int64, Float64], 4);
        for bad in [
            row![1.5, 1.5],
            row![1i64, 1i64],
            row![1i64, "x"],
            row![true, 1.5],
        ] {
            let err = b.push_drain(&mut bad.into_values()).unwrap_err();
            assert!(matches!(err, crate::QError::Type(_)), "{err}");
            assert!(b.is_empty() && b.cols().iter().all(|c| c.len() == 0));
        }
        b.push_drain(&mut row![Value::Null, Value::Null].into_values())
            .unwrap();
        let mut null = Column::with_capacity(Null, 1);
        assert!(null.push(Value::Int64(1)).is_err());
        null.push(Value::Null).unwrap();
        assert_eq!((null.len(), null.value(0)), (1, Value::Null));
    }
}
