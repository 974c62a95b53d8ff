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
//! join's right-sort pass drives the chain's push-down estimator, handed
//! down to it by the joins above, so every join of the chain is refined
//! before any merge output exists).

use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

use qprog_core::join_est::JoinKind;
use qprog_types::{BatchStatus, Key, QError, QResult, RowBatch, SchemaRef, Value};

use crate::metrics::OpMetrics;
use crate::ops::join_estimation::{JoinEstimation, JoinEstimator, ProbeFragment};
use crate::ops::{BoxedOp, Operator, PUBLISH_EVERY};
use crate::trace::Phase;

/// How a [`Run`]'s rows are ordered by key; the form is decided by the key
/// values the input actually delivered.
enum RunIndex {
    /// Every key was a BIGINT: `(key, row)` sorted, so ties fall in row —
    /// that is scan — order without a stable sort.
    Int(Vec<(i64, u32)>),
    /// Any other key type: row numbers, stably sorted by
    /// [`Value::total_cmp`] of their keys.
    Perm(Vec<u32>),
}

/// One sorted input: its non-NULL-key rows, columnar and in scan order,
/// plus the index that orders them. The rows themselves are never moved.
struct Run {
    rows: RowBatch,
    key_col: usize,
    index: RunIndex,
}

impl Run {
    /// Row number of the `i`-th row in key order.
    fn row(&self, i: usize) -> u32 {
        match &self.index {
            RunIndex::Int(keys) => keys[i].1,
            RunIndex::Perm(perm) => perm[i],
        }
    }

    /// Key of the `i`-th row in key order.
    fn key(&self, i: usize) -> &Value {
        self.rows.value(self.row(i) as usize, self.key_col)
    }

    /// Order this run's `i`-th key against `other`'s `j`-th.
    fn cmp_key(&self, i: usize, other: &Run, j: usize) -> Ordering {
        match (&self.index, &other.index) {
            (RunIndex::Int(a), RunIndex::Int(b)) => a[i].0.cmp(&b[j].0),
            _ => self.key(i).total_cmp(other.key(j)),
        }
    }

    /// The positions, from `start`, whose key equals the one at `start`.
    fn equal_range(&self, start: usize) -> Range<usize> {
        let len = (start..self.rows.len())
            .take_while(|&i| self.cmp_key(i, self, start) == Ordering::Equal)
            .count();
        start..start + len
    }
}

/// The merge of the two sorted runs, at positions `li`/`ri` in key order.
struct Merge {
    left: Run,
    right: Run,
    li: usize,
    ri: usize,
    /// The equal-key group being emitted: `(left range, right range, next
    /// pair)` of its left-major cross product.
    group: Option<(Range<usize>, Range<usize>, usize)>,
}

enum MState {
    Init,
    Merging(Box<Merge>),
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
    /// Reused `(left row, right row)` gather list of one output batch.
    pair_buf: Vec<(u32, u32)>,
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
            pair_buf: Vec::new(),
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
        for (side, input, key) in [("left", &left, left_key), ("right", &right, right_key)] {
            let arity = input.schema().arity();
            if key >= arity {
                return Err(QError::internal(format!(
                    "merge join {side} key column {key} out of bounds for arity {arity}"
                )));
            }
        }
        let est = &mut self.est;

        // Sort left (R): every tuple is seen before output → histogram.
        self.metrics.trace_phase(Phase::Init, Phase::SortInput);
        est.begin_build()?;
        let mut fragment = est.build_fragment()?;
        let left = drain_sorted(left, left_key, batch_cap, &self.metrics, |batch| {
            est.observe_build(&mut fragment, batch, left_key)
        })?;
        est.end_build(vec![fragment], JoinKind::Inner)?;

        // Sort right (S): probe the histogram while consuming. Estimates
        // are published in batches — per-tuple publication is measurable
        // overhead for a monitor that polls far less often anyway.
        let mut right_count: u64 = 0;
        let mut fragment = ProbeFragment::default();
        let right = drain_sorted(right, right_key, batch_cap, &self.metrics, |batch| {
            // Cut the key column where the publication cadence falls, so
            // every PUBLISH_EVERY-th row publishes the state it would have
            // had tuple at a time.
            let mut keys = batch.col(right_key);
            while !keys.is_empty() {
                let due = (PUBLISH_EVERY - right_count % PUBLISH_EVERY) as usize;
                let (head, rest) = keys.split_at(due.min(keys.len()));
                est.observe_probe_keys(&mut fragment, head)?;
                right_count += head.len() as u64;
                keys = rest;
                if right_count.is_multiple_of(PUBLISH_EVERY) {
                    est.publish(&mut fragment);
                }
            }
            est.observe_probe_rows(&mut fragment, batch)
        })?;
        est.end_probe(right_count, vec![fragment]);

        self.metrics.trace_phase(Phase::SortInput, Phase::Merge);
        self.state = MState::Merging(Box::new(Merge {
            left,
            right,
            li: 0,
            ri: 0,
            group: None,
        }));
        Ok(())
    }
}

/// Drain `input` into a [`Run`] sorted on `key_col` (NULL keys never
/// equi-join and are dropped), calling `on_batch` on every non-empty batch
/// in scan order. A DOUBLE key is the type error of [`Key::from_value`].
fn drain_sorted(
    mut input: BoxedOp,
    key_col: usize,
    batch_cap: usize,
    metrics: &OpMetrics,
    mut on_batch: impl FnMut(&RowBatch) -> QResult<()>,
) -> QResult<Run> {
    let arity = input.schema().arity();
    let mut rows = RowBatch::accumulator(arity);
    let mut all_ints = true;
    let mut scratch = RowBatch::with_capacity(arity, batch_cap);
    let mut sel: Vec<u32> = Vec::new();
    loop {
        let status = input.next_batch(&mut scratch)?;
        let n = scratch.len();
        if n > 0 {
            metrics.checkpoint(n as u64)?;
            on_batch(&scratch)?;
        }
        sel.clear();
        for (r, key) in (0u32..).zip(scratch.col(key_col)) {
            match key {
                Value::Null => continue,
                Value::Int64(_) => {}
                other => {
                    Key::from_value(other)?;
                    all_ints = false;
                }
            }
            sel.push(r);
        }
        rows.gather_from(&scratch, &sel);
        if status.is_exhausted() {
            break;
        }
    }
    // Row numbers are `u32`s, in the index and in the output gather lists.
    let len = u32::try_from(rows.len())
        .map_err(|_| QError::internal("merge join input exceeds 2^32 rows"))?;
    let keys = rows.col(key_col);
    // Either index is built once, at its exact size, after the drain.
    let index = if all_ints {
        let mut index = Vec::with_capacity(keys.len());
        for (row, key) in (0..len).zip(keys) {
            index.push((key.as_i64()?, row));
        }
        index.sort_unstable();
        RunIndex::Int(index)
    } else {
        let mut perm: Vec<u32> = (0..len).collect();
        perm.sort_by(|&a, &b| keys[a as usize].total_cmp(&keys[b as usize]));
        RunIndex::Perm(perm)
    };
    Ok(Run {
        rows,
        key_col,
        index,
    })
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
        let MState::Merging(merge) = &mut self.state else {
            return Ok(BatchStatus::Exhausted);
        };
        let m: &mut Merge = merge;
        let pairs = &mut self.pair_buf;
        pairs.clear();
        // Right (driver) rows consumed and pairs collected since the last
        // `observe_join_pass`. Flushed once per output batch, and — governor
        // granularity — once per output batch worth of right rows consumed
        // even when nothing matches.
        let (mut drv, mut emit) = (0u64, 0u64);
        let room = out.capacity();
        let status = loop {
            let full = pairs.len() >= room;
            if full || drv >= room as u64 {
                self.est
                    .observe_join_pass(std::mem::take(&mut drv), std::mem::take(&mut emit))?;
                if full {
                    break BatchStatus::HasMore;
                }
            }
            if let Some((lr, rr, next)) = &mut m.group {
                let width = rr.len();
                let remaining = lr.len() * width - *next;
                if remaining == 0 {
                    // group exhausted: advance past both runs
                    drv += width as u64;
                    (m.li, m.ri) = (lr.end, rr.end);
                    m.group = None;
                    continue;
                }
                // Collect the group's remaining pairs, as many as fit.
                let take = remaining.min(room - pairs.len());
                let (mut l, mut r) = (*next / width, *next % width);
                for _ in 0..take {
                    pairs.push((m.left.row(lr.start + l), m.right.row(rr.start + r)));
                    r += 1;
                    if r == width {
                        (l, r) = (l + 1, 0);
                    }
                }
                *next += take;
                emit += take as u64;
                continue;
            }
            if m.li >= m.left.rows.len() || m.ri >= m.right.rows.len() {
                // account for right rows never matched
                drv += (m.right.rows.len() - m.ri) as u64;
                self.est.observe_join_pass(drv, emit)?;
                break BatchStatus::Exhausted;
            }
            match m.left.cmp_key(m.li, &m.right, m.ri) {
                Ordering::Less => m.li += 1,
                Ordering::Greater => {
                    m.ri += 1;
                    drv += 1;
                }
                Ordering::Equal => {
                    m.group = Some((m.left.equal_range(m.li), m.right.equal_range(m.ri), 0));
                }
            }
        };
        out.gather_concat_from(&m.left.rows, &m.right.rows, pairs);
        if status.is_exhausted() {
            self.state = MState::Done;
            self.metrics.mark_finished();
        }
        Ok(status)
    }

    fn name(&self) -> &str {
        "merge_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{
        assert_double_keys_rejected, drain, drain_batched, int_table, keyed_scan, random_keys,
    };
    use crate::ops::TableScan;
    use qprog_core::baseline::Rule;
    use qprog_core::pipeline_est::PipelineEstimator;
    use qprog_types::{DataType, Row};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        for cap in [1, 7, 64, 1024] {
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
            // The first call sorts both inputs and returns the first rows.
            let mut first = RowBatch::with_capacity(2, cap);
            assert_eq!(j.next_batch(&mut first).unwrap(), BatchStatus::HasMore);
            assert_eq!(m.emitted(), cap as u64);
            assert_eq!(m.estimated_total(), truth, "cap {cap}");
            assert_eq!(m.estimated_bounds(), Some((truth, truth)), "cap {cap}");
            let rest = drain_batched(&mut j, cap);
            assert_eq!((first.len() + rest.len()) as f64, truth, "cap {cap}");
        }
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
            JoinEstimation::Baseline {
                rule: Rule::Dne,
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

    /// The modes of a two-join same-attribute chain on column 0, bottom-up.
    fn chain_modes(
        m_lower: &Arc<OpMetrics>,
        m_upper: &Arc<OpMetrics>,
        probe_rows: usize,
    ) -> [JoinEstimation; 2] {
        let estimator = PipelineEstimator::same_attribute(2, 0, 0, probe_rows as u64).unwrap();
        let metrics = vec![Arc::clone(m_lower), Arc::clone(m_upper)];
        let Ok(modes) = JoinEstimation::pipeline(estimator, metrics).try_into() else {
            unreachable!("one mode per join")
        };
        modes
    }

    #[test]
    fn pipeline_mode_two_merge_joins_same_attribute() {
        let a = [1i64, 1, 2];
        let b = [1i64, 2, 2];
        let c = [1i64, 2, 9];
        let m_lower = OpMetrics::with_initial_estimate(0.0);
        let m_upper = OpMetrics::with_initial_estimate(0.0);
        let [lower_mode, upper_mode] = chain_modes(&m_lower, &m_upper, c.len());
        let lower = MergeJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            lower_mode,
            Arc::clone(&m_lower),
        );
        let mut upper = MergeJoin::new(
            scan1("a", &a),
            Box::new(lower),
            0,
            0,
            upper_mode,
            Arc::clone(&m_upper),
        );
        let rows = drain(&mut upper);
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows
        assert_eq!(rows.len(), 4);
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
    }

    /// What [`Tap`] saw at the child's first batch: both joins' published
    /// estimates and the probe rows the child's pipeline estimator had seen.
    type FirstBatch = Option<([f64; 2], Option<u64>)>;

    /// Passes a merge join through, recording what it saw the first time the
    /// join hands over a batch.
    struct Tap {
        child: MergeJoin,
        watched: [Arc<OpMetrics>; 2],
        at_first_batch: Arc<std::sync::Mutex<FirstBatch>>,
    }

    impl Operator for Tap {
        fn schema(&self) -> SchemaRef {
            self.child.schema()
        }

        fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
            let status = self.child.next_batch(out)?;
            self.at_first_batch.lock().unwrap().get_or_insert_with(|| {
                let estimates = self.watched.each_ref().map(|m| m.estimated_total());
                (estimates, self.child.est.pipeline_probe_seen())
            });
            Ok(status)
        }

        fn name(&self) -> &str {
            "tap"
        }
    }

    /// §4.1.4.3: the lowest merge join's right-sort pass drives the chain's
    /// push-down estimator — handed to it through an operator between the
    /// two joins — so every join of the chain is exact before the
    /// lowest join emits its first row — not only once `mark_finished`
    /// overwrites the optimizer estimate.
    #[test]
    fn pipeline_mode_merge_chain_is_exact_before_first_output_row() {
        let a = [1i64, 1, 2];
        let b = [1i64, 2, 2];
        let c = [1i64, 2, 9];
        let m_lower = OpMetrics::with_initial_estimate(1.0);
        let m_upper = OpMetrics::with_initial_estimate(1.0);
        let [lower_mode, upper_mode] = chain_modes(&m_lower, &m_upper, c.len());
        let lower = MergeJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            lower_mode,
            Arc::clone(&m_lower),
        );
        let at_first_batch = Arc::new(std::sync::Mutex::new(None));
        let tap = Tap {
            child: lower,
            watched: [Arc::clone(&m_lower), Arc::clone(&m_upper)],
            at_first_batch: Arc::clone(&at_first_batch),
        };
        let mut upper = MergeJoin::new(
            scan1("a", &a),
            Box::new(tap),
            0,
            0,
            upper_mode,
            Arc::clone(&m_upper),
        );
        let mut src = crate::ops::RowSource::new(&mut upper);
        assert!(src.next_row().unwrap().is_some());
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows; the lower
        // join, which owns the estimator, has seen every probe row
        let probe_seen = Some(c.len() as u64);
        assert_eq!(
            *at_first_batch.lock().unwrap(),
            Some(([3.0, 4.0], probe_seen))
        );
        assert!(!m_upper.is_finished());
        assert_eq!(m_upper.estimated_total(), 4.0);
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
            JoinEstimation::Baseline {
                rule: Rule::Byte,
                optimizer_estimate: 9.0,
            },
            Arc::clone(&m),
        );
        assert_eq!(drain(&mut j).len(), 2);
        assert_eq!(m.estimated_total(), 2.0);
    }

    /// The reference: stable sort of the non-NULL-key rows by key, then the
    /// left-major cross product of every equal-key pair of runs.
    fn reference_join(left: &[Row], right: &[Row]) -> Vec<Row> {
        let key = |r: &Row| r.get(0).unwrap().clone();
        let sorted = |rows: &[Row]| {
            let mut rows: Vec<Row> = rows.iter().filter(|r| !key(r).is_null()).cloned().collect();
            rows.sort_by(|a, b| key(a).total_cmp(&key(b)));
            rows
        };
        let (left, right) = (sorted(left), sorted(right));
        let mut out = Vec::new();
        for l in &left {
            for r in right
                .iter()
                .filter(|r| key(l).total_cmp(&key(r)) == Ordering::Equal)
            {
                out.push(Row::new([l.values(), r.values()].concat()));
            }
        }
        out
    }

    #[test]
    fn matches_the_row_at_a_time_reference_on_every_key_type() {
        let int = |v: i64| Value::Int64(v * 1_000_003);
        let text = |v: i64| Value::str(format!("k{v}"));
        let boolean = |v: i64| Value::Bool(v % 2 == 0);
        type Make = fn(i64) -> Value;
        let sides: [(DataType, Make); 3] = [
            (DataType::Int64, int),
            (DataType::Utf8, text),
            (DataType::Bool, boolean),
        ];
        let mut rng = StdRng::seed_from_u64(0x5eed22);
        let mut matched = 0;
        for (lt, lmake) in sides {
            // Same-typed sides, and BIGINT against VARCHAR: nothing matches.
            for (rt, rmake) in [(lt, lmake), (DataType::Utf8, text)] {
                for (ln, rn) in [(0, 40), (40, 0), (1, 1), (150, 220)] {
                    let lkeys = random_keys(&mut rng, ln, 6, lmake);
                    let rkeys = random_keys(&mut rng, rn, 6, rmake);
                    for cap in [1, 7, 1024] {
                        let (lrows, lscan) = keyed_scan("l", lt, &lkeys);
                        let (rrows, rscan) = keyed_scan("r", rt, &rkeys);
                        let expect = reference_join(&lrows, &rrows);
                        let m = OpMetrics::with_initial_estimate(0.0);
                        let estimation = JoinEstimation::Once {
                            probe_size_hint: rn as u64,
                        };
                        let mut j = MergeJoin::new(lscan, rscan, 0, 0, estimation, Arc::clone(&m));
                        let got = drain_batched(&mut j, cap);
                        assert_eq!(got, expect, "{lt} x {rt}, {ln} x {rn} rows, cap {cap}");
                        assert_eq!(m.estimated_total(), expect.len() as f64);
                        let driver = rkeys.iter().filter(|k| !k.is_null()).count();
                        assert_eq!(m.driver_consumed(), driver as u64);
                        assert!(lt == rt || expect.is_empty());
                        matched += expect.len();
                    }
                }
            }
        }
        assert!(matched > 10_000, "the inputs must share keys: {matched}");
    }

    #[test]
    fn double_keys_are_a_type_error_on_either_side() {
        assert_double_keys_rejected(|l, r, estimation, m| {
            Box::new(MergeJoin::new(l, r, 0, 0, estimation, m))
        });
    }

    #[test]
    fn key_column_past_the_child_arity_is_an_error_not_a_cross_product() {
        for (left_key, right_key) in [(1, 0), (0, 1), (7, 7)] {
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j = MergeJoin::new(
                scan1("r", &[1, 2]),
                scan1("s", &[1, 2]),
                left_key,
                right_key,
                JoinEstimation::Off,
                Arc::clone(&m),
            );
            let mut out = RowBatch::with_capacity(2, 8);
            let err = j.next_batch(&mut out).unwrap_err();
            assert!(matches!(err, QError::Internal(_)), "{err}");
            assert!(err.to_string().contains("out of bounds"), "{err}");
            assert!(out.is_empty());
            assert_eq!(m.emitted(), 0);
        }
    }
}
