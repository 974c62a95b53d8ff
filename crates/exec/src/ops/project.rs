//! Projection (π): evaluate a list of expressions per row.

use std::sync::Arc;

use qprog_types::{BatchStatus, QResult, RowBatch, SchemaRef, Value};

use crate::expr::Expr;
use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator};

/// Projects each input row through a list of expressions.
///
/// The output schema is computed by the planner (it knows names and types)
/// and passed in.
pub struct Project {
    input: BoxedOp,
    exprs: Vec<Expr>,
    schema: SchemaRef,
    metrics: Arc<OpMetrics>,
    /// Reused input batch.
    scratch: RowBatch,
    /// Reused buffer of one output row's values, moved into the output.
    vals: Vec<Value>,
    done: bool,
}

impl Project {
    /// New projection.
    pub fn new(
        input: BoxedOp,
        exprs: Vec<Expr>,
        schema: SchemaRef,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        Project {
            scratch: RowBatch::with_capacity(input.schema().types(), 1),
            input,
            exprs,
            schema,
            metrics,
            vals: Vec::new(),
            done: false,
        }
    }
}

impl Operator for Project {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if self.done {
            return Ok(BatchStatus::Exhausted);
        }
        loop {
            let scratch = &mut self.scratch;
            scratch.clear();
            scratch.set_capacity(out.remaining());
            let status = self.input.next_batch(scratch)?;
            let n = scratch.len();
            for r in 0..n {
                self.vals.clear(); // a failed row leaves nothing behind
                for e in &self.exprs {
                    self.vals.push(e.eval_at(scratch, r)?);
                }
                out.push_drain(&mut self.vals)?;
            }
            self.metrics.record_emitted_n(n as u64);
            if status.is_exhausted() {
                self.done = true;
                self.metrics.mark_finished();
                return Ok(BatchStatus::Exhausted);
            }
            if out.is_full() {
                return Ok(BatchStatus::HasMore);
            }
        }
    }

    fn name(&self) -> &str {
        "project"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::ops::test_util::{col_i64, drain, drain_batched, int_table};
    use crate::ops::TableScan;
    use qprog_types::{DataType, Field, Schema};

    fn double_projection() -> (Project, Arc<OpMetrics>) {
        let t = int_table("t", "a", &[1, 2, 3]).into_shared();
        let scan = Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)));
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int64),
            Field::new("a2", DataType::Int64),
        ])
        .into_ref();
        let m = OpMetrics::with_initial_estimate(0.0);
        let p = Project::new(
            scan,
            vec![
                Expr::col(0),
                Expr::binary(BinOp::Mul, Expr::col(0), Expr::lit(2i64)),
            ],
            schema,
            Arc::clone(&m),
        );
        (p, m)
    }

    #[test]
    fn evaluates_expressions_per_row() {
        let (mut p, m) = double_projection();
        let rows = drain(&mut p);
        assert_eq!(col_i64(&rows, 0), vec![1, 2, 3]);
        assert_eq!(col_i64(&rows, 1), vec![2, 4, 6]);
        assert_eq!(m.emitted(), 3);
        assert!(m.is_finished());
        assert_eq!(p.schema().arity(), 2);
    }

    #[test]
    fn wide_batches_match_strict_mode() {
        let (mut strict, _) = double_projection();
        let (mut wide, _) = double_projection();
        assert_eq!(drain(&mut strict), drain_batched(&mut wide, 1024));
    }
}
