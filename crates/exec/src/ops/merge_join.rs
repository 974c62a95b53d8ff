//! Sort-merge join with estimation pushed into the sort phases (§4.1.2).
//!
//! Both inputs are sorted before any output: the left (first-sorted) input's
//! consume phase builds the exact join-key histogram; the right input's
//! consume phase probes it, so with `once` estimation the join cardinality
//! is exact by the time the second sort's input is drained — before the
//! merge emits anything. The merged output is necessarily key-clustered,
//! which is what makes the dne/byte baselines fluctuate here just as for
//! hash joins.
//!
//! Estimation runs through the same
//! [driver](crate::ops::join_estimation) as the hash join's: left = build,
//! right = probe (and, in a chain of sort-merge joins, §4.1.4.3, the lowest
//! join's right-sort pass drives the shared push-down estimator, so every
//! join of the chain is refined before any merge output exists).

use std::cmp::Ordering;
use std::sync::Arc;

use qprog_core::join_est::JoinKind;
use qprog_types::{BatchStatus, QError, QResult, Row, RowBatch, SchemaRef};

use crate::metrics::OpMetrics;
use crate::ops::join_estimation::{JoinEstimation, JoinEstimator};
use crate::ops::{BoxedOp, Operator, PUBLISH_EVERY};
use crate::trace::Phase;

enum MState {
    Init,
    Merging {
        li: usize,
        ri: usize,
        /// Cartesian emission state within an equal-key group:
        /// (l range, r range, cursor within the cross product).
        group: Option<(std::ops::Range<usize>, std::ops::Range<usize>, usize)>,
    },
    Done,
}

/// Sort-merge equi-join on single columns.
pub struct MergeJoin {
    left: Option<BoxedOp>,
    right: Option<BoxedOp>,
    left_key: usize,
    right_key: usize,
    schema: SchemaRef,
    metrics: Arc<OpMetrics>,
    est: JoinEstimator,
    left_rows: Vec<Row>,
    right_rows: Vec<Row>,
    state: MState,
}

impl MergeJoin {
    /// New sort-merge join.
    pub fn new(
        left: BoxedOp,
        right: BoxedOp,
        left_key: usize,
        right_key: usize,
        estimation: JoinEstimation,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let schema = left.schema().join(&right.schema()).into_ref();
        MergeJoin {
            left: Some(left),
            right: Some(right),
            left_key,
            right_key,
            schema,
            est: JoinEstimator::new(estimation, Arc::clone(&metrics)),
            metrics,
            left_rows: Vec::new(),
            right_rows: Vec::new(),
            state: MState::Init,
        }
    }

    /// Sort phases for both inputs, with estimation interleaved.
    fn preprocess(&mut self, batch_cap: usize) -> QResult<()> {
        let left = self
            .left
            .take()
            .ok_or_else(|| QError::internal("merge join left input consumed twice"))?;
        let right = self
            .right
            .take()
            .ok_or_else(|| QError::internal("merge join right input consumed twice"))?;
        let (left_key, right_key) = (self.left_key, self.right_key);
        let est = &mut self.est;

        // Sort left (R): every tuple is seen before output → histogram.
        self.metrics.trace_phase(Phase::Init, Phase::SortInput);
        est.begin_build()?;
        self.left_rows = drain_sorted(left, left_key, batch_cap, &self.metrics, |batch| {
            est.observe_build(batch, left_key)
        })?;
        est.end_build(JoinKind::Inner)?;

        // Sort right (S): probe the histogram while consuming. Estimates
        // are published in batches — per-tuple publication is measurable
        // overhead for a monitor that polls far less often anyway.
        let mut right_count: u64 = 0;
        self.right_rows = drain_sorted(right, right_key, batch_cap, &self.metrics, |batch| {
            // Cut the key column where the publication cadence falls, so
            // every PUBLISH_EVERY-th row publishes the state it would have
            // had tuple at a time.
            let mut keys = batch.col(right_key);
            while !keys.is_empty() {
                let due = (PUBLISH_EVERY - right_count % PUBLISH_EVERY) as usize;
                let (head, rest) = keys.split_at(due.min(keys.len()));
                est.observe_probe_keys(head)?;
                right_count += head.len() as u64;
                keys = rest;
                if right_count.is_multiple_of(PUBLISH_EVERY) {
                    est.publish();
                }
            }
            est.observe_probe_rows(batch)
        })?;
        est.end_probe(right_count);

        self.metrics.trace_phase(Phase::SortInput, Phase::Merge);
        self.state = MState::Merging {
            li: 0,
            ri: 0,
            group: None,
        };
        Ok(())
    }

    /// Length of the run of rows equal on `col` starting at `start`.
    fn run_len(rows: &[Row], start: usize, col: usize) -> usize {
        let head = rows[start].get(col).expect("validated column");
        rows[start..]
            .iter()
            .take_while(|r| {
                r.get(col)
                    .map(|v| v.total_cmp(head) == Ordering::Equal)
                    .unwrap_or(false)
            })
            .count()
    }
}

/// Drain `input` into its rows sorted on `key_col` (NULL keys never
/// equi-join and are dropped), calling `on_batch` on every non-empty batch
/// in scan order.
fn drain_sorted(
    mut input: BoxedOp,
    key_col: usize,
    batch_cap: usize,
    metrics: &OpMetrics,
    mut on_batch: impl FnMut(&RowBatch) -> QResult<()>,
) -> QResult<Vec<Row>> {
    let mut rows = Vec::new();
    let mut scratch = RowBatch::with_capacity(input.schema().arity(), batch_cap);
    loop {
        let status = input.next_batch(&mut scratch)?;
        let n = scratch.len();
        if n > 0 {
            metrics.checkpoint(n as u64)?;
            on_batch(&scratch)?;
        }
        for r in 0..n {
            if !scratch.key(r, key_col)?.is_null() {
                rows.push(scratch.row(r));
            }
        }
        if status.is_exhausted() {
            rows.sort_by(|a, b| key_cmp(a, b, key_col, key_col));
            return Ok(rows);
        }
    }
}

fn key_cmp(a: &Row, b: &Row, ca: usize, cb: usize) -> Ordering {
    match (a.get(ca), b.get(cb)) {
        (Ok(x), Ok(y)) => x.total_cmp(y),
        _ => Ordering::Equal,
    }
}

impl Operator for MergeJoin {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if matches!(self.state, MState::Init) {
            self.preprocess(out.capacity())?;
        }
        // Right (driver) rows consumed and rows emitted since the last
        // `observe_join_pass`. Flushed once per output batch, and — governor
        // granularity — once per output batch worth of right rows consumed
        // even when nothing matches.
        let (mut drv, mut emit) = (0u64, 0u64);
        let chunk = out.capacity().max(1) as u64;
        loop {
            if out.is_full() || drv >= chunk {
                self.est
                    .observe_join_pass(std::mem::take(&mut drv), std::mem::take(&mut emit))?;
                if out.is_full() {
                    return Ok(BatchStatus::HasMore);
                }
            }
            // Split borrows: copy indices out of the state.
            let (mut li, mut ri, group) = match &mut self.state {
                MState::Done => return Ok(BatchStatus::Exhausted),
                MState::Merging { li, ri, group } => (*li, *ri, group.take()),
                MState::Init => unreachable!("preprocessed above"),
            };

            // Emit remaining pairs of the current equal-key group.
            if let Some((lr, rr, cursor)) = group {
                let width = rr.len();
                if cursor < lr.len() * width {
                    let l = lr.start + cursor / width;
                    let r = rr.start + cursor % width;
                    out.push_concat(self.left_rows[l].values(), self.right_rows[r].values());
                    emit += 1;
                    self.state = MState::Merging {
                        li,
                        ri,
                        group: Some((lr, rr, cursor + 1)),
                    };
                    continue;
                }
                // group exhausted: advance past both runs
                drv += rr.len() as u64;
                self.state = MState::Merging {
                    li: lr.end,
                    ri: rr.end,
                    group: None,
                };
                continue;
            }

            // Advance the merge.
            if li >= self.left_rows.len() || ri >= self.right_rows.len() {
                // account for right rows never matched
                drv += (self.right_rows.len() - ri) as u64;
                self.est.observe_join_pass(drv, emit)?;
                self.state = MState::Done;
                self.metrics.mark_finished();
                return Ok(BatchStatus::Exhausted);
            }
            match key_cmp(
                &self.left_rows[li],
                &self.right_rows[ri],
                self.left_key,
                self.right_key,
            ) {
                Ordering::Less => li += 1,
                Ordering::Greater => {
                    ri += 1;
                    drv += 1;
                }
                Ordering::Equal => {
                    let lrun = Self::run_len(&self.left_rows, li, self.left_key);
                    let rrun = Self::run_len(&self.right_rows, ri, self.right_key);
                    self.state = MState::Merging {
                        li,
                        ri,
                        group: Some((li..li + lrun, ri..ri + rrun, 0)),
                    };
                    continue;
                }
            }
            self.state = MState::Merging {
                li,
                ri,
                group: None,
            };
        }
    }

    fn name(&self) -> &str {
        "merge_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{drain, int_table};
    use crate::ops::{PipelineHandle, PipelineShared, TableScan};
    use crate::sync::Mutex;
    use qprog_core::pipeline_est::PipelineEstimator;

    fn scan1(name: &str, vals: &[i64]) -> BoxedOp {
        let t = int_table(name, "k", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    fn exact_join(r: &[i64], s: &[i64]) -> usize {
        r.iter()
            .map(|a| s.iter().filter(|&&b| b == *a).count())
            .sum()
    }

    #[test]
    fn joins_with_duplicates() {
        let r = [3i64, 1, 1, 2, 2, 2];
        let s = [2i64, 2, 1, 9];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = MergeJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Off,
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), exact_join(&r, &s)); // 1×2·... = 2·1 + 3·2 = 8
        for row in &rows {
            assert_eq!(row.get(0).unwrap(), row.get(1).unwrap());
        }
        assert_eq!(m.emitted(), rows.len() as u64);
    }

    #[test]
    fn output_is_key_clustered() {
        let r = [2i64, 1, 2, 1];
        let s = [1i64, 2, 1, 2];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = MergeJoin::new(scan1("r", &r), scan1("s", &s), 0, 0, JoinEstimation::Off, m);
        let keys: Vec<i64> = drain(&mut j)
            .iter()
            .map(|row| row.get(0).unwrap().as_i64().unwrap())
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted, "merge output must be key-ordered");
    }

    #[test]
    fn once_converges_before_merge_output() {
        let r: Vec<i64> = (0..300).map(|i| i % 30).collect();
        let s: Vec<i64> = (0..400).map(|i| i % 40).collect();
        let truth = exact_join(&r, &s) as f64;
        let m = OpMetrics::with_initial_estimate(1.0);
        let mut j = MergeJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once {
                probe_size_hint: s.len() as u64,
            },
            Arc::clone(&m),
        );
        {
            let mut src = crate::ops::RowSource::new(&mut j);
            let first = src.next_row().unwrap();
            assert!(first.is_some());
        }
        assert_eq!(m.estimated_total(), truth);
        assert_eq!(drain(&mut j).len() + 1, truth as usize);
    }

    #[test]
    fn dne_converges_at_end() {
        let r: Vec<i64> = (0..50).collect();
        let s: Vec<i64> = (0..100).map(|i| i % 50).collect();
        let m = OpMetrics::with_initial_estimate(7.0);
        let mut j = MergeJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Dne {
                optimizer_estimate: 7.0,
            },
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 100);
        assert_eq!(m.estimated_total(), 100.0);
    }

    #[test]
    fn empty_sides() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = MergeJoin::new(
            scan1("r", &[]),
            scan1("s", &[1]),
            0,
            0,
            JoinEstimation::Off,
            m,
        );
        assert!(crate::ops::RowSource::new(&mut j)
            .next_row()
            .unwrap()
            .is_none());
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = MergeJoin::new(
            scan1("r", &[1]),
            scan1("s", &[]),
            0,
            0,
            JoinEstimation::Once { probe_size_hint: 0 },
            Arc::clone(&m),
        );
        assert!(crate::ops::RowSource::new(&mut j)
            .next_row()
            .unwrap()
            .is_none());
        assert_eq!(m.estimated_total(), 0.0);
    }

    #[test]
    fn pipeline_mode_two_merge_joins_same_attribute() {
        let a = [1i64, 1, 2];
        let b = [1i64, 2, 2];
        let c = [1i64, 2, 9];
        let m_lower = OpMetrics::with_initial_estimate(0.0);
        let m_upper = OpMetrics::with_initial_estimate(0.0);
        let shared: PipelineHandle = Arc::new(Mutex::new(PipelineShared {
            estimator: PipelineEstimator::same_attribute(2, 0, 0, c.len() as u64).unwrap(),
            metrics: vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        }));
        let lower = MergeJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 0,
                lowest: true,
            },
            Arc::clone(&m_lower),
        );
        let mut upper = MergeJoin::new(
            scan1("a", &a),
            Box::new(lower),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 1,
                lowest: false,
            },
            Arc::clone(&m_upper),
        );
        let rows = drain(&mut upper);
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows
        assert_eq!(rows.len(), 4);
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
    }

    /// Passes its child through, recording both joins' published estimates
    /// the first time the child hands over a batch.
    struct Tap {
        child: BoxedOp,
        watched: [Arc<OpMetrics>; 2],
        at_first_batch: Arc<std::sync::Mutex<Option<[f64; 2]>>>,
    }

    impl Operator for Tap {
        fn schema(&self) -> SchemaRef {
            self.child.schema()
        }

        fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
            let status = self.child.next_batch(out)?;
            self.at_first_batch
                .lock()
                .unwrap()
                .get_or_insert_with(|| self.watched.each_ref().map(|m| m.estimated_total()));
            Ok(status)
        }

        fn name(&self) -> &str {
            "tap"
        }
    }

    /// §4.1.4.3: the lowest merge join's right-sort pass drives the shared
    /// push-down estimator, so every join of the chain is exact before the
    /// lowest join emits its first row — not only once `mark_finished`
    /// overwrites the optimizer estimate.
    #[test]
    fn pipeline_mode_merge_chain_is_exact_before_first_output_row() {
        let a = [1i64, 1, 2];
        let b = [1i64, 2, 2];
        let c = [1i64, 2, 9];
        let m_lower = OpMetrics::with_initial_estimate(1.0);
        let m_upper = OpMetrics::with_initial_estimate(1.0);
        let shared: PipelineHandle = Arc::new(Mutex::new(PipelineShared {
            estimator: PipelineEstimator::same_attribute(2, 0, 0, c.len() as u64).unwrap(),
            metrics: vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        }));
        let lower = MergeJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 0,
                lowest: true,
            },
            Arc::clone(&m_lower),
        );
        let at_first_batch = Arc::new(std::sync::Mutex::new(None));
        let tap = Tap {
            child: Box::new(lower),
            watched: [Arc::clone(&m_lower), Arc::clone(&m_upper)],
            at_first_batch: Arc::clone(&at_first_batch),
        };
        let mut upper = MergeJoin::new(
            scan1("a", &a),
            Box::new(tap),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 1,
                lowest: false,
            },
            Arc::clone(&m_upper),
        );
        let mut src = crate::ops::RowSource::new(&mut upper);
        assert!(src.next_row().unwrap().is_some());
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows
        assert_eq!(*at_first_batch.lock().unwrap(), Some([3.0, 4.0]));
        assert!(!m_upper.is_finished());
        assert_eq!(m_upper.estimated_total(), 4.0);
        assert_eq!(shared.lock().estimator.probe_seen(), c.len() as u64);
    }

    #[test]
    fn byte_mode_runs() {
        let r = [1i64, 2, 3];
        let s = [2i64, 3, 4];
        let m = OpMetrics::with_initial_estimate(9.0);
        let mut j = MergeJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Byte {
                optimizer_estimate: 9.0,
                probe_row_bytes: 16,
            },
            Arc::clone(&m),
        );
        assert_eq!(drain(&mut j).len(), 2);
        assert_eq!(m.estimated_total(), 2.0);
    }
}
