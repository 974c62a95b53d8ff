//! Physical operators.

pub mod agg;
pub(crate) mod chain;
pub mod filter;
pub mod hash_join;
pub mod join_estimation;
pub mod limit;
pub mod merge_join;
pub mod nl_join;
pub mod project;
pub mod scan;
pub mod sort;

use qprog_types::{BatchStatus, QResult, Row, RowBatch, Schema, SchemaRef};

pub use agg::{AggFunc, AggSpec, HashAggregate};
pub use filter::Filter;
pub use hash_join::HashJoin;
pub use join_estimation::JoinEstimation;
pub use limit::Limit;
pub use merge_join::MergeJoin;
pub use nl_join::NestedLoopsJoin;
pub use project::Project;
pub use scan::TableScan;
pub use sort::Sort;

/// The vectorized pull interface. One [`next_batch`](Operator::next_batch)
/// call refills the caller's [`RowBatch`] with up to `out.capacity()` rows;
/// every row appended is a `getnext()` event of the gnm progress model, and
/// each operator sums its `K_i` deltas per batch — exact, because the model
/// counts events, not call boundaries.
///
/// Contract:
/// - `next_batch` **clears** `out` before producing (callers never see
///   stale rows, operators never append to a predecessor's output).
/// - [`BatchStatus::Exhausted`] may accompany final rows; the caller
///   consumes `out` and then stops. Operators are *fused*: further calls
///   after exhaustion return an empty `Exhausted` with no side effects.
/// - With `out.capacity() == 1` (the strict legacy-equivalent mode) an
///   operator performs exactly the per-tuple bookkeeping the
///   tuple-at-a-time engine performed, in the same order, so traces are
///   byte-identical.
pub trait Operator: Send {
    /// Output schema.
    fn schema(&self) -> SchemaRef;

    /// Clear `out` and refill it with up to `out.capacity()` output rows.
    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus>;

    /// Operator name for plan display and metrics registration.
    fn name(&self) -> &str;

    /// Attempt to split this not-yet-started operator into `ways`
    /// independent sub-operators that partition its remaining output.
    /// Concatenating the sub-operators' streams in index order reproduces
    /// this operator's output order **exactly** — the invariant the
    /// partition-parallel hash join relies on for byte-identical results at
    /// any thread count.
    ///
    /// On `Some`, this operator is retired (its `next_batch` reports
    /// `Exhausted` without touching metrics) and the sub-operators share
    /// its metrics handle; the last sub-operator to exhaust marks it
    /// finished. Only partitionable leaves (table scans) support splitting;
    /// the default declines.
    fn try_split(&mut self, ways: usize) -> Option<Vec<BoxedOp>> {
        let _ = ways;
        None
    }
}

/// Boxed operator, the unit of plan composition.
pub type BoxedOp = Box<dyn Operator>;

/// A row-at-a-time read position over a refillable batch: the batch, the
/// next unread row, and whether the source has said it is exhausted. The
/// one cursor behind [`RowSource`], `CompiledQuery::step` and the
/// nested-loops join's outer side.
pub struct RowCursor {
    buf: RowBatch,
    pos: usize,
    exhausted: bool,
}

impl RowCursor {
    /// A cursor over batches of `schema`'s columns and up to `capacity`
    /// rows.
    pub fn new(schema: &Schema, capacity: usize) -> Self {
        RowCursor {
            buf: RowBatch::with_capacity(schema.types(), capacity),
            pos: 0,
            exhausted: false,
        }
    }

    /// Step to the next row and return its index in [`batch`](Self::batch)
    /// (valid until the next call), refilling the drained batch with `fill`
    /// — one `next_batch` call — as often as needed. `None` once a fill has
    /// reported [`BatchStatus::Exhausted`] and its rows are all handed out;
    /// `fill` is not called again after that.
    pub fn advance(
        &mut self,
        mut fill: impl FnMut(&mut RowBatch) -> QResult<BatchStatus>,
    ) -> QResult<Option<usize>> {
        loop {
            if self.pos < self.buf.len() {
                self.pos += 1;
                return Ok(Some(self.pos - 1));
            }
            if self.exhausted {
                return Ok(None);
            }
            self.pos = 0;
            self.exhausted = fill(&mut self.buf)?.is_exhausted();
        }
    }

    /// The batch the cursor reads.
    pub fn batch(&self) -> &RowBatch {
        &self.buf
    }
}

/// Row-at-a-time adapter over a batch [`Operator`] — the Volcano `next()`
/// the pre-vectorized engine exposed, for tests, examples, and stepping
/// monitors that want single-row granularity.
///
/// Pulls through a capacity-1 batch, so each `next_row()` performs the
/// strict-mode per-tuple bookkeeping and no per-call allocation.
pub struct RowSource<'a> {
    op: &'a mut dyn Operator,
    cursor: RowCursor,
}

impl<'a> RowSource<'a> {
    /// Wrap `op` for row-at-a-time consumption.
    pub fn new(op: &'a mut dyn Operator) -> Self {
        let cursor = RowCursor::new(&op.schema(), 1);
        RowSource { op, cursor }
    }

    /// Produce the next output row, or `None` when exhausted.
    pub fn next_row(&mut self) -> QResult<Option<Row>> {
        let op = &mut *self.op;
        let row = self.cursor.advance(|buf| op.next_batch(buf))?;
        Ok(row.map(|r| self.cursor.batch().row(r)))
    }
}

/// How many tuples pass between refreshed estimate publications during
/// tight preprocessing loops. Monitors poll at millisecond granularity;
/// publishing every tuple is pure overhead.
pub const PUBLISH_EVERY: u64 = 256;

#[cfg(test)]
pub(crate) mod test_util {
    use super::*;
    use crate::metrics::OpMetrics;
    use qprog_storage::Table;
    use qprog_types::{row, DataType, Field, Schema, Value};
    use rand::rngs::StdRng;
    use rand::RngExt;
    use std::sync::Arc;

    /// Metrics registered at `E_opt = optimizer_estimate` and bound to
    /// `rule`, armed with `driver_total` when it is known at compile, as a
    /// filter's or nested-loops join's is (a hash or merge join arms its
    /// rule at the end of its probe phase).
    pub fn bound(
        rule: qprog_core::baseline::Rule,
        driver_total: Option<u64>,
        optimizer_estimate: f64,
    ) -> Arc<OpMetrics> {
        let m = OpMetrics::with_initial_estimate(optimizer_estimate);
        m.bind_baseline(rule, optimizer_estimate);
        if let Some(n) = driver_total {
            m.arm_baseline(n);
        }
        m
    }

    /// Build a one-column BIGINT table from values.
    pub fn int_table(name: &str, col: &str, vals: &[i64]) -> Table {
        let mut t = Table::new(name, Schema::new(vec![Field::new(col, DataType::Int64)]));
        for &v in vals {
            t.push(row![v]).unwrap();
        }
        t
    }

    /// Build a two-column BIGINT table from (a, b) pairs.
    pub fn int2_table(name: &str, cols: (&str, &str), vals: &[(i64, i64)]) -> Table {
        let mut t = Table::new(
            name,
            Schema::new(vec![
                Field::new(cols.0, DataType::Int64),
                Field::new(cols.1, DataType::Int64),
            ]),
        );
        for &(a, b) in vals {
            t.push(row![a, b]).unwrap();
        }
        t
    }

    /// A scan of `(k, id)` rows: `k` the given keys (nullable, typed `ty`),
    /// `id` the row's scan position.
    pub fn keyed_scan(name: &str, ty: DataType, keys: &[Value]) -> (Vec<Row>, BoxedOp) {
        let schema = Schema::new(vec![
            Field::new("k", ty).with_nullable(true),
            Field::new("id", DataType::Int64),
        ]);
        let rows: Vec<Row> = (0i64..)
            .zip(keys)
            .map(|(id, k)| Row::new(vec![k.clone(), Value::Int64(id)]))
            .collect();
        let mut t = Table::new(name, schema);
        t.extend(rows.clone()).unwrap();
        let metrics = OpMetrics::with_initial_estimate(0.0);
        (rows, Box::new(TableScan::new(t.into_shared(), metrics)))
    }

    /// A DOUBLE key on either side of the join `make` builds is
    /// `Key::from_value`'s type error, estimating or not, and nothing is
    /// emitted.
    pub fn assert_double_keys_rejected(
        make: impl Fn(BoxedOp, BoxedOp, JoinEstimation, Arc<OpMetrics>) -> BoxedOp,
    ) {
        let doubles = [Value::Float64(1.5), Value::Float64(2.5)];
        let ints = [Value::Int64(1), Value::Int64(2)];
        let expect = qprog_types::Key::from_value(&doubles[0]).unwrap_err();
        for double_first in [true, false] {
            for once in [true, false] {
                let (_, d) = keyed_scan("d", DataType::Float64, &doubles);
                let (_, i) = keyed_scan("i", DataType::Int64, &ints);
                let (first, second) = if double_first { (d, i) } else { (i, d) };
                let m = OpMetrics::with_initial_estimate(0.0);
                let estimation = match once {
                    true => JoinEstimation::once(0, 0, 2, Arc::clone(&m)),
                    false => JoinEstimation::Off,
                };
                let mut j = make(first, second, estimation, Arc::clone(&m));
                let mut out = RowBatch::with_capacity(j.schema().types(), 8);
                assert_eq!(j.next_batch(&mut out), Err(expect.clone()));
                assert!(out.is_empty());
                assert_eq!(m.emitted(), 0);
            }
        }
    }

    /// `n` keys drawn from `2 × domain` values (heavy duplicates) with
    /// about one NULL in eight.
    pub fn random_keys(
        rng: &mut StdRng,
        n: usize,
        domain: i64,
        make: fn(i64) -> Value,
    ) -> Vec<Value> {
        (0..n)
            .map(|_| match rng.random_range(0..8) {
                0 => Value::Null,
                _ => make(rng.random_range(-domain..domain)),
            })
            .collect()
    }

    /// Drain an operator into a vector through capacity-1 batches (the
    /// strict mode), so stepping with [`RowSource`] and draining compose
    /// with identical per-tuple bookkeeping.
    pub fn drain(op: &mut dyn Operator) -> Vec<Row> {
        let mut src = RowSource::new(op);
        let mut out = Vec::new();
        while let Some(r) = src.next_row().unwrap() {
            out.push(r);
        }
        out
    }

    /// Drain an operator through batches of `cap` rows.
    pub fn drain_batched(op: &mut dyn Operator, cap: usize) -> Vec<Row> {
        let mut batch = qprog_types::RowBatch::with_capacity(op.schema().types(), cap);
        let mut out = Vec::new();
        loop {
            let status = op.next_batch(&mut batch).unwrap();
            batch.append_rows_to(&mut out);
            if status.is_exhausted() {
                return out;
            }
        }
    }

    /// Extract column `c` of every row as i64.
    pub fn col_i64(rows: &[Row], c: usize) -> Vec<i64> {
        rows.iter()
            .map(|r| r.get(c).unwrap().as_i64().unwrap())
            .collect()
    }
}
