//! Selection (σ).
//!
//! Selections have no preprocessing phase, so per §4.3 the framework uses
//! the driver-node estimator here: on randomly ordered input it has zero
//! error in expectation. The compiler binds it to the filter's metrics
//! (driver = input rows), which re-read it after every batch.

use std::sync::Arc;

use qprog_types::{BatchStatus, QResult, RowBatch, SchemaRef};

use crate::expr::Expr;
use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator};

/// Filters rows by a boolean predicate.
pub struct Filter {
    input: BoxedOp,
    predicate: Expr,
    metrics: Arc<OpMetrics>,
    /// Reused input batch; bounded by the output's remaining room so a
    /// fully-selective batch can never overflow `out`.
    scratch: RowBatch,
    /// Reused selection: the scratch rows that pass.
    sel: Vec<u32>,
    done: bool,
}

impl Filter {
    /// New filter, counting into `metrics`.
    pub fn new(input: BoxedOp, predicate: Expr, metrics: Arc<OpMetrics>) -> Self {
        Filter {
            scratch: RowBatch::with_capacity(input.schema().types(), 1),
            input,
            predicate,
            metrics,
            sel: Vec::new(),
            done: false,
        }
    }
}

impl Operator for Filter {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
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
            self.sel.clear();
            for r in 0..n {
                if self.predicate.eval_predicate_at(scratch, r)? {
                    self.sel.push(r as u32);
                }
            }
            out.gather_from(scratch, &self.sel);
            if n > 0 {
                self.metrics.record_driven(n as u64, self.sel.len() as u64);
            }
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
        "filter"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::ops::test_util::{bound, col_i64, drain, int_table};
    use crate::ops::TableScan;
    use qprog_core::baseline::Rule;

    fn scan(vals: &[i64]) -> BoxedOp {
        let t = int_table("t", "a", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    #[test]
    fn filters_rows() {
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(5i64));
        let m = OpMetrics::with_initial_estimate(0.0);
        let vals: Vec<i64> = (0..10).collect();
        let mut f = Filter::new(scan(&vals), pred, Arc::clone(&m));
        let rows = drain(&mut f);
        assert_eq!(col_i64(&rows, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(m.emitted(), 5);
        assert_eq!(m.driver_consumed(), 10);
        assert!(m.is_finished());
    }

    #[test]
    fn dne_refines_selectivity_online() {
        // All matches cluster at the front of the input, so early dne
        // extrapolation overshoots, converging once the driver is drained.
        let vals: Vec<i64> = (0..1000).collect();
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(500i64));
        let m = bound(Rule::Dne, Some(1000), 123.0);
        let mut f = Filter::new(scan(&vals), pred, Arc::clone(&m));
        // consume 100 rows of output (first 100 input rows all match)
        let mut src = crate::ops::RowSource::new(&mut f);
        for _ in 0..100 {
            src.next_row().unwrap().unwrap();
        }
        drop(src);
        // driver has consumed 100, output 100 → dne extrapolates 1000
        assert!((m.estimated_total() - 1000.0).abs() < 1e-6);
        let rest = drain(&mut f);
        assert_eq!(rest.len(), 400);
        assert_eq!(m.estimated_total(), 500.0);
    }

    #[test]
    fn empty_input() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let pred = Expr::lit(true);
        let mut f = Filter::new(scan(&[]), pred, m);
        let mut src = crate::ops::RowSource::new(&mut f);
        assert!(src.next_row().unwrap().is_none());
        assert!(src.next_row().unwrap().is_none());
    }

    #[test]
    fn predicate_errors_propagate() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let pred = Expr::col(0); // BIGINT, not BOOLEAN
        let mut f = Filter::new(scan(&[1]), pred, m);
        assert!(crate::ops::RowSource::new(&mut f).next_row().is_err());
    }

    #[test]
    fn wide_batches_match_strict_mode() {
        let pred = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(500i64));
        let vals: Vec<i64> = (0..1000).rev().collect();
        let strict = {
            let m = bound(Rule::Dne, Some(1000), 0.0);
            let mut f = Filter::new(scan(&vals), pred.clone(), Arc::clone(&m));
            let rows = drain(&mut f);
            (col_i64(&rows, 0), m.estimated_total())
        };
        let wide = {
            let m = bound(Rule::Dne, Some(1000), 0.0);
            let mut f = Filter::new(scan(&vals), pred, Arc::clone(&m));
            let rows = crate::ops::test_util::drain_batched(&mut f, 64);
            (col_i64(&rows, 0), m.estimated_total())
        };
        assert_eq!(strict, wide);
    }
}
