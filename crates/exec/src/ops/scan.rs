//! Table scans with sample-first block ordering.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use qprog_storage::{ScanOrder, Table};
use qprog_types::{BatchStatus, QError, QResult, RowBatch, SchemaRef};

use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator};

/// Scans a table block by block.
///
/// With a sampling [`ScanOrder`] the scan first delivers a block-level
/// random sample and then the remaining blocks in storage order — the
/// sample-first protocol of the paper's §3 that makes the leading prefix of
/// every base-table stream a genuine random sample.
pub struct TableScan {
    table: Arc<Table>,
    /// The block columns copied out, in output order.
    cols: Vec<usize>,
    schema: SchemaRef,
    order: ScanOrder,
    name: String,
    metrics: Arc<OpMetrics>,
    /// Simulated per-block I/O latency (see [`with_io_cost`](Self::with_io_cost)).
    io_cost: std::time::Duration,
    /// Position: index into `order.blocks()` and offset within the block.
    block_idx: usize,
    row_offset: usize,
    done: bool,
    /// For sub-scans created by [`Operator::try_split`]: remaining sibling
    /// count; the last sibling to exhaust marks the shared metrics finished.
    finish_latch: Option<Arc<AtomicUsize>>,
}

impl TableScan {
    /// Sequential (storage-order) scan.
    pub fn new(table: Arc<Table>, metrics: Arc<OpMetrics>) -> Self {
        let order = ScanOrder::sequential(table.num_blocks());
        TableScan::with_order(table, order, metrics)
    }

    /// Sample-first scan delivering a `fraction` block sample first.
    pub fn sampled(table: Arc<Table>, fraction: f64, seed: u64, metrics: Arc<OpMetrics>) -> Self {
        let order = ScanOrder::for_table(&table, fraction, seed);
        TableScan::with_order(table, order, metrics)
    }

    /// Scan with an explicit block order.
    pub fn with_order(table: Arc<Table>, order: ScanOrder, metrics: Arc<OpMetrics>) -> Self {
        TableScan {
            name: format!("scan({})", table.name()),
            cols: (0..table.schema().arity()).collect(),
            schema: Arc::clone(table.schema()),
            table,
            order,
            metrics,
            io_cost: std::time::Duration::ZERO,
            block_idx: 0,
            row_offset: 0,
            done: false,
            finish_latch: None,
        }
    }

    /// Attach a simulated per-block I/O latency (a true sleep: blocked-on-
    /// I/O time is idle, so parallel sub-scans overlap it the way concurrent
    /// disk reads would). Tables here live in memory; the paper's prototype
    /// read from disk, where a block costs a page read — this knob
    /// reproduces that cost model for the overhead and scaling experiments.
    pub fn with_io_cost(mut self, cost: std::time::Duration) -> Self {
        self.io_cost = cost;
        self
    }

    /// Emit only the table columns `cols`, in that order (default: every
    /// column): the rest are never copied out of a block.
    pub fn with_columns(mut self, cols: Vec<usize>) -> QResult<Self> {
        self.schema = self.table.schema().project(&cols)?.into_ref();
        self.cols = cols;
        Ok(self)
    }
}

impl Operator for TableScan {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if self.done {
            return Ok(BatchStatus::Exhausted);
        }
        loop {
            let Some(&block_id) = self.order.blocks().get(self.block_idx) else {
                self.done = true;
                match &self.finish_latch {
                    // Sub-scans share one metrics handle; only the last
                    // sibling to exhaust may pin N_i = K_i, otherwise the
                    // first finisher would mark the scan done early.
                    Some(latch) => {
                        if latch.fetch_sub(1, Ordering::AcqRel) == 1 {
                            self.metrics.mark_finished();
                        }
                    }
                    None => self.metrics.mark_finished(),
                }
                return Ok(BatchStatus::Exhausted);
            };
            let block = self
                .table
                .blocks()
                .get(block_id)
                .ok_or_else(|| QError::internal(format!("block {block_id} out of bounds")))?;
            if self.row_offset == 0 && !self.io_cost.is_zero() && !block.is_empty() {
                // A real sleep, not a spin: emulated I/O waits must be idle
                // time so that partition-parallel sub-scans overlap them the
                // way concurrent disk reads would, independent of core count.
                std::thread::sleep(self.io_cost);
            }
            let avail = block.len().saturating_sub(self.row_offset);
            if avail == 0 {
                self.block_idx += 1;
                self.row_offset = 0;
                continue;
            }
            // Copy a contiguous column-slice chunk straight out of the
            // block; checkpoint/failpoint/metrics amortize to the chunk.
            let take = avail.min(out.remaining());
            self.metrics.checkpoint(take as u64)?;
            qprog_fault::fail_point!("exec/scan/next");
            out.extend_from(block, self.row_offset..self.row_offset + take, &self.cols);
            self.row_offset += take;
            self.metrics.record_emitted_n(take as u64);
            if out.is_full() {
                return Ok(BatchStatus::HasMore);
            }
        }
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn try_split(&mut self, ways: usize) -> Option<Vec<BoxedOp>> {
        // Only a fresh, un-split scan can be partitioned: splitting
        // mid-stream would double-deliver rows, and splitting a sub-scan
        // would orphan its siblings' finish latch.
        if ways <= 1
            || self.done
            || self.block_idx != 0
            || self.row_offset != 0
            || self.finish_latch.is_some()
        {
            return None;
        }
        let latch = Arc::new(AtomicUsize::new(ways));
        let subs = self
            .order
            .split(ways)
            .into_iter()
            .map(|order| {
                Box::new(TableScan {
                    name: self.name.clone(),
                    table: Arc::clone(&self.table),
                    cols: self.cols.clone(),
                    schema: Arc::clone(&self.schema),
                    order,
                    metrics: Arc::clone(&self.metrics),
                    io_cost: self.io_cost,
                    block_idx: 0,
                    row_offset: 0,
                    done: false,
                    finish_latch: Some(Arc::clone(&latch)),
                }) as BoxedOp
            })
            .collect();
        // Retire the original: its next_batch() now reports Exhausted
        // without touching the (shared) metrics.
        self.done = true;
        Some(subs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{col_i64, drain, int_table};
    use std::collections::HashSet;

    /// The scanned column and how many leading rows are the block sample.
    fn scan_all(vals: &[i64], fraction: f64) -> (Vec<i64>, usize) {
        let t = int_table("t", "a", vals).into_shared();
        let m = OpMetrics::with_initial_estimate(vals.len() as f64);
        let order = ScanOrder::for_table(&t, fraction, 7);
        let sample = order.blocks()[..order.sample_blocks()]
            .iter()
            .map(|&b| t.blocks()[b].len())
            .sum();
        let mut s = TableScan::with_order(Arc::clone(&t), order, m);
        (col_i64(&drain(&mut s), 0), sample)
    }

    #[test]
    fn sequential_scan_preserves_order() {
        let vals: Vec<i64> = (0..1000).collect();
        let t = int_table("t", "a", &vals).into_shared();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut s = TableScan::new(t, Arc::clone(&m));
        let rows = drain(&mut s);
        assert_eq!(col_i64(&rows, 0), vals);
        assert_eq!(m.emitted(), 1000);
        assert!(m.is_finished());
        // idempotent end
        assert!(crate::ops::RowSource::new(&mut s)
            .next_row()
            .unwrap()
            .is_none());
    }

    #[test]
    fn sampled_scan_is_a_permutation() {
        let vals: Vec<i64> = (0..2000).collect();
        let (got, sample) = scan_all(&vals, 0.25);
        assert!(sample > 0);
        let set: HashSet<i64> = got.iter().copied().collect();
        assert_eq!(set.len(), 2000);
        assert_eq!(got.len(), 2000);
        // the sample prefix is not simply the table prefix
        assert_ne!(&got[..sample], &vals[..sample]);
    }

    #[test]
    fn empty_table_scan() {
        let (got, sample) = scan_all(&[], 0.5);
        assert!(got.is_empty());
        assert_eq!(sample, 0);
    }

    #[test]
    fn full_fraction_samples_everything() {
        let vals: Vec<i64> = (0..600).collect();
        let (got, sample) = scan_all(&vals, 1.0);
        assert_eq!(sample, 600);
        assert_eq!(got.len(), 600);
    }

    #[test]
    fn split_sub_scans_concatenate_to_serial_order() {
        let vals: Vec<i64> = (0..1500).collect();
        let t = int_table("t", "a", &vals).into_shared();
        let m = OpMetrics::with_initial_estimate(vals.len() as f64);
        let mut serial = TableScan::sampled(Arc::clone(&t), 0.2, 3, Arc::clone(&m));
        let expect = col_i64(&drain(&mut serial), 0);

        let m2 = OpMetrics::with_initial_estimate(vals.len() as f64);
        let mut whole = TableScan::sampled(Arc::clone(&t), 0.2, 3, Arc::clone(&m2));
        let subs = whole.try_split(4).expect("fresh scan splits");
        assert_eq!(subs.len(), 4);
        // The original is retired without touching metrics.
        assert!(crate::ops::RowSource::new(&mut whole)
            .next_row()
            .unwrap()
            .is_none());
        assert!(!m2.is_finished());
        let mut got = Vec::new();
        for mut sub in subs {
            got.extend(col_i64(&drain(sub.as_mut()), 0));
        }
        assert_eq!(got, expect);
        assert_eq!(m2.emitted(), 1500);
        assert!(m2.is_finished());
    }

    #[test]
    fn only_last_sub_scan_finishes_metrics() {
        let vals: Vec<i64> = (0..400).collect();
        let t = int_table("t", "a", &vals).into_shared();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut whole = TableScan::new(t, Arc::clone(&m));
        let mut subs = whole.try_split(2).unwrap();
        drain(subs[0].as_mut());
        assert!(!m.is_finished(), "first finisher must not pin the scan");
        drain(subs[1].as_mut());
        assert!(m.is_finished());
    }

    #[test]
    fn started_or_split_scans_refuse_to_split() {
        let vals: Vec<i64> = (0..100).collect();
        let t = int_table("t", "a", &vals).into_shared();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut started = TableScan::new(Arc::clone(&t), Arc::clone(&m));
        crate::ops::RowSource::new(&mut started).next_row().unwrap();
        assert!(started.try_split(2).is_none());
        let mut fresh = TableScan::new(t, m);
        assert!(fresh.try_split(1).is_none());
        let mut subs = fresh.try_split(2).unwrap();
        assert!(
            subs[0].try_split(2).is_none(),
            "sub-scans must not re-split"
        );
    }

    #[test]
    fn schema_comes_from_table() {
        let t = int_table("orders", "okey", &[1]).into_shared();
        let m = OpMetrics::with_initial_estimate(0.0);
        let s = TableScan::new(t, m);
        assert_eq!(s.schema().index_of("orders.okey").unwrap(), 0);
        assert_eq!(s.name(), "scan(orders)");
    }
}
