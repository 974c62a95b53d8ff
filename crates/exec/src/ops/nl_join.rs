//! Block nested-loops join.
//!
//! Nested-loops joins have no preprocessing phase — the outer input is
//! joined as it is read — so per §4.1.3 the framework's estimation here
//! *is* the dne estimator (driver = outer input), which the compiler binds
//! to the join's metrics: they re-read it after every outer row taken and
//! every pair emitted.

use std::sync::Arc;

use qprog_types::{BatchStatus, QError, QResult, RowBatch, SchemaRef};

use crate::expr::Expr;
use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator, RowCursor};

/// Join condition for the nested-loops join.
pub enum NlCondition {
    /// Equi-join on single columns (outer col, inner col).
    Equi(usize, usize),
    /// Arbitrary theta predicate over the concatenated (outer ++ inner) row.
    Theta(Expr),
    /// Cross product.
    Cross,
}

/// Nested-loops join: the inner input is materialized once, the outer
/// streams.
pub struct NestedLoopsJoin {
    outer: BoxedOp,
    inner: Option<BoxedOp>,
    condition: NlCondition,
    schema: SchemaRef,
    /// Every output column: what a joining pair's gather copies.
    emit: Vec<usize>,
    metrics: Arc<OpMetrics>,
    /// The materialized inner input.
    inner_rows: RowBatch,
    /// The outer input, pulled a batch at a time and taken a row at a
    /// time. Driver accounting happens as a row is taken, so batching the
    /// pull changes nothing observable.
    outer_rows: RowCursor,
    /// Row of `outer_rows`' batch being matched against the inner rows.
    current_outer: Option<usize>,
    inner_pos: usize,
    /// The output batch filled up just as an inner scan completed: the next
    /// outer row (and its driver accounting) must wait for the next call.
    advance_pending: bool,
    started: bool,
    done: bool,
}

impl NestedLoopsJoin {
    /// New nested-loops join (schema: outer columns then inner columns).
    pub fn new(
        outer: BoxedOp,
        inner: BoxedOp,
        condition: NlCondition,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let schema = outer.schema().join(&inner.schema()).into_ref();
        NestedLoopsJoin {
            inner_rows: RowBatch::accumulator(inner.schema().types()),
            outer_rows: RowCursor::new(&outer.schema(), 1),
            outer,
            inner: Some(inner),
            condition,
            emit: (0..schema.arity()).collect(),
            schema,
            metrics,
            current_outer: None,
            inner_pos: 0,
            advance_pending: false,
            started: false,
            done: false,
        }
    }

    /// Materialize the inner input, after checking the equi-join columns
    /// against both arities (an out-of-range key is an error up front, as
    /// in the merge join, not a row-dependent one).
    fn start(&mut self, batch_cap: usize) -> QResult<()> {
        let mut inner = self
            .inner
            .take()
            .ok_or_else(|| QError::internal("nested-loops inner input consumed twice"))?;
        let outer = self.outer.schema();
        if let NlCondition::Equi(oc, ic) = self.condition {
            for (side, key, arity) in [
                ("outer", oc, outer.arity()),
                ("inner", ic, self.inner_rows.arity()),
            ] {
                if key >= arity {
                    return Err(QError::internal(format!(
                        "nested-loops join {side} key column {key} out of bounds for arity {arity}"
                    )));
                }
            }
        }
        let mut scratch = RowBatch::with_capacity(inner.schema().types(), batch_cap);
        loop {
            let status = inner.next_batch(&mut scratch)?;
            let n = scratch.len();
            if n > 0 {
                self.metrics.checkpoint(n as u64)?;
                self.inner_rows.append_batch(&mut scratch);
            }
            if status.is_exhausted() {
                break;
            }
        }
        // Pair indices are `u32`s, as in every join's output gather.
        u32::try_from(self.inner_rows.len().max(batch_cap))
            .map_err(|_| QError::internal("nested-loops join input exceeds 2^32 rows"))?;
        self.outer_rows = RowCursor::new(&outer, batch_cap);
        Ok(())
    }

    /// Append outer row `o` ++ inner row `i` to `out` if they join. A theta
    /// condition is evaluated on the appended row, whose column indices are
    /// the ones it is written against.
    fn join_pair(&self, o: usize, i: usize, out: &mut RowBatch) -> QResult<bool> {
        let outer = self.outer_rows.batch();
        if let NlCondition::Equi(oc, ic) = self.condition {
            let (l, r) = (outer.col(oc).value(o), self.inner_rows.col(ic).value(i));
            if l.sql_eq(&r) != Some(true) {
                return Ok(false);
            }
        }
        out.gather_pairs_from(outer, &self.inner_rows, &[(o as u32, i as u32)], &self.emit);
        if let NlCondition::Theta(pred) = &self.condition {
            if !pred.eval_predicate_at(out, out.len() - 1)? {
                out.truncate(out.len() - 1);
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Take the next outer row, with its driver accounting.
    fn advance_outer(&mut self) -> QResult<Option<usize>> {
        let outer = &mut self.outer;
        let row = self.outer_rows.advance(|buf| outer.next_batch(buf))?;
        if row.is_some() {
            self.metrics.record_driven(1, 0);
        }
        Ok(row)
    }
}

impl Operator for NestedLoopsJoin {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if self.done {
            return Ok(BatchStatus::Exhausted);
        }
        if !self.started {
            self.started = true;
            self.start(out.capacity())?;
            self.current_outer = self.advance_outer()?;
        }
        if self.advance_pending {
            self.advance_pending = false;
            self.current_outer = self.advance_outer()?;
        }
        loop {
            let Some(outer) = self.current_outer else {
                self.done = true;
                self.metrics.mark_finished();
                return Ok(BatchStatus::Exhausted);
            };
            while self.inner_pos < self.inner_rows.len() {
                if out.is_full() {
                    return Ok(BatchStatus::HasMore);
                }
                let i = self.inner_pos;
                self.inner_pos += 1;
                if self.join_pair(outer, i, out)? {
                    self.metrics.record_driven(0, 1);
                }
            }
            self.inner_pos = 0;
            if out.is_full() {
                self.advance_pending = true;
                return Ok(BatchStatus::HasMore);
            }
            self.current_outer = self.advance_outer()?;
        }
    }

    fn name(&self) -> &str {
        "nl_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::ops::test_util::{bound, drain, int_table};
    use crate::ops::TableScan;
    use qprog_core::baseline::Rule;

    fn scan1(name: &str, vals: &[i64]) -> BoxedOp {
        let t = int_table(name, "k", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    #[test]
    fn equi_join_matches_hash_join_semantics() {
        let r = [1i64, 1, 2, 3];
        let s = [1i64, 2, 2];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = NestedLoopsJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            NlCondition::Equi(0, 0),
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 4); // 1×1 twice + 2×2 twice
        assert_eq!(m.emitted(), 4);
        assert!(m.is_finished());
    }

    #[test]
    fn theta_join() {
        let r = [1i64, 5];
        let s = [2i64, 3];
        let m = OpMetrics::with_initial_estimate(0.0);
        // r.k < s.k: concatenated row cols are (outer=0, inner=1)
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::col(1));
        let mut j =
            NestedLoopsJoin::new(scan1("r", &r), scan1("s", &s), NlCondition::Theta(pred), m);
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 2); // (1,2), (1,3)
    }

    #[test]
    fn cross_product() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = NestedLoopsJoin::new(
            scan1("r", &[1, 2]),
            scan1("s", &[10, 20, 30]),
            NlCondition::Cross,
            m,
        );
        assert_eq!(drain(&mut j).len(), 6);
    }

    #[test]
    fn dne_tracks_outer_progress() {
        // uniform matching: each outer row matches exactly one inner row
        let r: Vec<i64> = (0..100).collect();
        let s: Vec<i64> = (0..100).collect();
        let m = bound(Rule::Dne, Some(100), 5.0);
        let mut j = NestedLoopsJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            NlCondition::Equi(0, 0),
            Arc::clone(&m),
        );
        let mut src = crate::ops::RowSource::new(&mut j);
        let mut seen = 0;
        while let Some(_row) = src.next_row().unwrap() {
            seen += 1;
            if seen == 50 {
                let e = m.estimated_total();
                assert!((80.0..=120.0).contains(&e), "mid estimate {e}");
            }
        }
        assert_eq!(seen, 100);
        assert_eq!(m.estimated_total(), 100.0);
    }

    #[test]
    fn null_keys_do_not_equi_join() {
        use qprog_types::{DataType, Field, Row, Schema, Value};
        let mut t = qprog_storage::Table::new(
            "n",
            Schema::new(vec![Field::new("k", DataType::Int64).with_nullable(true)]),
        );
        t.push(Row::new(vec![Value::Null])).unwrap();
        t.push(Row::new(vec![Value::Int64(3)])).unwrap();
        let t = t.into_shared();
        let outer: BoxedOp = Box::new(TableScan::new(
            Arc::clone(&t),
            OpMetrics::with_initial_estimate(0.0),
        ));
        let inner: BoxedOp = Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = NestedLoopsJoin::new(outer, inner, NlCondition::Equi(0, 0), m);
        assert_eq!(drain(&mut j).len(), 1);
    }

    #[test]
    fn equi_key_indices_are_checked_up_front() {
        // An empty inner side never compares a key: the check must not
        // depend on the data.
        for cond in [NlCondition::Equi(1, 0), NlCondition::Equi(0, 1)] {
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j = NestedLoopsJoin::new(scan1("r", &[1, 2]), scan1("s", &[]), cond, m);
            let mut out = RowBatch::with_capacity(j.schema().types(), 8);
            match j.next_batch(&mut out) {
                Err(QError::Internal(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
                other => panic!("expected an internal error, got {other:?}"),
            }
        }
    }

    #[test]
    fn empty_inner() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j =
            NestedLoopsJoin::new(scan1("r", &[1, 2]), scan1("s", &[]), NlCondition::Cross, m);
        assert!(crate::ops::RowSource::new(&mut j)
            .next_row()
            .unwrap()
            .is_none());
    }

    #[test]
    fn wide_batches_match_strict_mode() {
        let r: Vec<i64> = (0..200).collect();
        let s: Vec<i64> = (0..200).rev().collect();
        let run = |cap: usize| {
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j =
                NestedLoopsJoin::new(scan1("r", &r), scan1("s", &s), NlCondition::Equi(0, 0), m);
            crate::ops::test_util::drain_batched(&mut j, cap)
                .iter()
                .map(|row| row.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(1), run(64));
    }
}
