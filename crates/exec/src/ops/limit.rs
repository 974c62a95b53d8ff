//! LIMIT operator.

use std::sync::Arc;

use qprog_types::{BatchStatus, QResult, RowBatch, SchemaRef};

use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator};

/// Emits at most `limit` rows from its input.
pub struct Limit {
    input: BoxedOp,
    limit: usize,
    emitted: usize,
    metrics: Arc<OpMetrics>,
    /// Reused input batch, shrunk to the remaining quota before every pull
    /// so the input is never over-driven past the limit.
    scratch: RowBatch,
    done: bool,
}

impl Limit {
    /// New limit.
    pub fn new(input: BoxedOp, limit: usize, metrics: Arc<OpMetrics>) -> Self {
        Limit {
            scratch: RowBatch::with_capacity(input.schema().types(), 1),
            input,
            limit,
            emitted: 0,
            metrics,
            done: false,
        }
    }
}

impl Operator for Limit {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if self.done || self.emitted >= self.limit {
            if !self.done {
                self.done = true;
                self.metrics.mark_finished();
            }
            return Ok(BatchStatus::Exhausted);
        }
        loop {
            let quota = (self.limit - self.emitted).min(out.remaining());
            let scratch = &mut self.scratch;
            scratch.clear();
            scratch.set_capacity(quota);
            let status = self.input.next_batch(scratch)?;
            let n = scratch.len();
            out.append_batch(scratch);
            self.emitted += n;
            self.metrics.record_emitted_n(n as u64);
            if status.is_exhausted() {
                self.done = true;
                self.metrics.mark_finished();
                return Ok(BatchStatus::Exhausted);
            }
            if out.is_full() || self.emitted >= self.limit {
                return Ok(BatchStatus::HasMore);
            }
        }
    }

    fn name(&self) -> &str {
        "limit"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{drain, int_table};
    use crate::ops::TableScan;

    fn scan(vals: &[i64]) -> BoxedOp {
        let t = int_table("t", "a", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    #[test]
    fn truncates() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut l = Limit::new(scan(&[1, 2, 3, 4, 5]), 3, Arc::clone(&m));
        assert_eq!(drain(&mut l).len(), 3);
        assert_eq!(m.emitted(), 3);
        assert!(m.is_finished());
        assert!(crate::ops::RowSource::new(&mut l)
            .next_row()
            .unwrap()
            .is_none());
    }

    #[test]
    fn shorter_input_than_limit() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut l = Limit::new(scan(&[1]), 10, m);
        assert_eq!(drain(&mut l).len(), 1);
    }

    #[test]
    fn zero_limit() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut l = Limit::new(scan(&[1, 2]), 0, Arc::clone(&m));
        assert!(crate::ops::RowSource::new(&mut l)
            .next_row()
            .unwrap()
            .is_none());
        assert!(m.is_finished());
    }

    #[test]
    fn wide_batches_never_over_pull_input() {
        let vals: Vec<i64> = (0..1000).collect();
        let t = int_table("t", "a", &vals).into_shared();
        let sm = OpMetrics::with_initial_estimate(0.0);
        let scan = Box::new(TableScan::new(t, Arc::clone(&sm)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut l = Limit::new(scan, 10, m);
        let rows = crate::ops::test_util::drain_batched(&mut l, 1024);
        assert_eq!(rows.len(), 10);
        assert_eq!(
            sm.emitted(),
            10,
            "limit must not drive its input past the quota"
        );
    }
}
