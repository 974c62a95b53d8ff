//! Hash aggregation (GROUP BY) with online group-count estimation (§4.2).
//!
//! The consume phase sees the entire input before any group is emitted —
//! the preprocessing window in which the paper's GEE/MLE estimators (with
//! the γ² chooser) refine the output cardinality. When the input is the
//! clustered output of a join on the grouping attribute, estimation is
//! instead *pushed down* into that join (see
//! [`HashJoin::with_agg_pushdown`](crate::ops::hash_join::HashJoin::with_agg_pushdown))
//! and this operator merely publishes the estimates of the tracker the join
//! sends up when its probe pass ends.

use std::cmp::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

use qprog_core::distinct::DistinctTracker;
use qprog_types::{BatchStatus, DataType, QError, QResult, RowBatch, SchemaRef, Value};

use crate::metrics::OpMetrics;
use crate::ops::chain::{key_hashes, ChainIndex, NIL};
use crate::ops::{BoxedOp, Operator};
use crate::trace::Phase;

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(col)` — non-null values.
    Count,
    /// `SUM(col)`.
    Sum,
    /// `MIN(col)`.
    Min,
    /// `MAX(col)`.
    Max,
    /// `AVG(col)`.
    Avg,
}

impl AggFunc {
    /// Output type given the input column type.
    pub fn output_type(self, input: Option<DataType>) -> DataType {
        match self {
            AggFunc::CountStar | AggFunc::Count => DataType::Int64,
            AggFunc::Avg => DataType::Float64,
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => input.unwrap_or(DataType::Int64),
        }
    }
}

/// One aggregate to compute: function plus input column (`None` only for
/// `COUNT(*)`).
#[derive(Debug, Clone, Copy)]
pub struct AggSpec {
    pub func: AggFunc,
    pub col: Option<usize>,
}

/// Group-count estimation strategy.
pub enum AggEstimation {
    /// No estimation.
    Off,
    /// Observe the grouping key online (input in random order);
    /// `input_size_hint` is the known or estimated input size.
    Track { input_size_hint: u64 },
    /// Publish estimates from a tracker fed by a join below (push-down),
    /// which arrives here by value once the join's probe pass has ended —
    /// before this operator's first input batch.
    Pushdown(Receiver<DistinctTracker>),
}

#[derive(Debug, Clone)]
enum Acc {
    Count(u64),
    SumI { sum: i128, seen: bool },
    SumF { sum: f64, seen: bool },
    Min(Option<Value>),
    Max(Option<Value>),
    Avg { sum: f64, n: u64 },
}

impl Acc {
    fn new(func: AggFunc, input_type: Option<DataType>) -> Acc {
        match func {
            AggFunc::CountStar | AggFunc::Count => Acc::Count(0),
            AggFunc::Sum => match input_type {
                Some(DataType::Float64) => Acc::SumF {
                    sum: 0.0,
                    seen: false,
                },
                _ => Acc::SumI {
                    sum: 0,
                    seen: false,
                },
            },
            AggFunc::Min => Acc::Min(None),
            AggFunc::Max => Acc::Max(None),
            AggFunc::Avg => Acc::Avg { sum: 0.0, n: 0 },
        }
    }

    /// One accumulator step over a value read in place from column-major
    /// storage.
    fn update_value(&mut self, func: AggFunc, value: Option<&Value>) -> QResult<()> {
        match (self, func) {
            (Acc::Count(n), AggFunc::Count) => {
                if value.is_some_and(|v| !v.is_null()) {
                    *n += 1;
                }
            }
            (Acc::SumI { sum, seen }, _) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    *sum += v.as_i64()? as i128;
                    *seen = true;
                }
            }
            (Acc::SumF { sum, seen }, _) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    *sum += v.as_f64()?;
                    *seen = true;
                }
            }
            (Acc::Min(cur), _) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let replace = cur
                        .as_ref()
                        .map(|c| v.total_cmp(c) == std::cmp::Ordering::Less)
                        .unwrap_or(true);
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            (Acc::Max(cur), _) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    let replace = cur
                        .as_ref()
                        .map(|c| v.total_cmp(c) == std::cmp::Ordering::Greater)
                        .unwrap_or(true);
                    if replace {
                        *cur = Some(v.clone());
                    }
                }
            }
            (Acc::Avg { sum, n }, _) => {
                if let Some(v) = value.filter(|v| !v.is_null()) {
                    *sum += v.as_f64()?;
                    *n += 1;
                }
            }
            (acc, f) => {
                return Err(QError::internal(format!(
                    "accumulator {acc:?} does not match function {f:?}"
                )))
            }
        }
        Ok(())
    }

    /// The aggregate's result. A BIGINT `SUM` that does not fit `i64` is the
    /// error the same overflow is in an expression, not a wrapped value.
    fn finalize(&self) -> QResult<Value> {
        Ok(match self {
            Acc::Count(n) => Value::Int64(*n as i64),
            Acc::SumI { seen: false, .. } | Acc::SumF { seen: false, .. } => Value::Null,
            Acc::SumI { sum, .. } => Value::Int64(
                i64::try_from(*sum).map_err(|_| QError::exec("integer overflow in SUM"))?,
            ),
            Acc::SumF { sum, .. } => Value::Float64(*sum),
            Acc::Min(v) | Acc::Max(v) => v.clone().unwrap_or(Value::Null),
            Acc::Avg { n: 0, .. } => Value::Null,
            Acc::Avg { sum, n } => Value::Float64(sum / *n as f64),
        })
    }
}

enum AState {
    Consuming,
    /// Emitting the groups, held column-major in first-seen order — group
    /// `g`'s key values are row `g` of `keys`, its row count `counts[g]`,
    /// its accumulators `accs[g * stride..][..stride]` — in `order` (sorted
    /// by key), from `order[pos]` on.
    Emitting {
        keys: RowBatch,
        counts: Vec<u64>,
        accs: Vec<Acc>,
        order: Vec<u32>,
        pos: usize,
    },
    Done,
}

/// Hash-based GROUP BY.
///
/// With no group columns, behaves as a global aggregation producing exactly
/// one row (even on empty input). Group rows are emitted in sorted group-key
/// order for determinism.
pub struct HashAggregate {
    input: BoxedOp,
    group_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    schema: SchemaRef,
    metrics: Arc<OpMetrics>,
    estimation: AggEstimation,
    tracker: Option<DistinctTracker>,
    state: AState,
}

impl HashAggregate {
    /// New aggregation; `schema` is the output schema (group columns then
    /// aggregate results) computed by the planner.
    pub fn new(
        input: BoxedOp,
        group_cols: Vec<usize>,
        aggs: Vec<AggSpec>,
        schema: SchemaRef,
        estimation: AggEstimation,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let tracker = match (&estimation, group_cols.len()) {
            (AggEstimation::Track { input_size_hint }, 1) => {
                Some(DistinctTracker::new(*input_size_hint))
            }
            _ => None,
        };
        HashAggregate {
            input,
            group_cols,
            aggs,
            schema,
            metrics,
            estimation,
            tracker,
            state: AState::Consuming,
        }
    }

    /// Replace the internal distinct tracker (e.g. to force a specific
    /// estimator or recomputation interval in experiments). Only meaningful
    /// with single-column grouping; ignored otherwise.
    pub fn with_tracker(mut self, tracker: DistinctTracker) -> Self {
        if self.group_cols.len() == 1 {
            self.tracker = Some(tracker);
        }
        self
    }

    /// Drain the input into its groups; returns the `Emitting` state.
    fn consume(&mut self, batch_cap: usize) -> QResult<AState> {
        self.metrics.trace_phase(Phase::Init, Phase::Accumulate);
        let input_schema = self.input.schema();
        for spec in &self.aggs {
            if let Some(c) = spec.col {
                if c >= input_schema.arity() {
                    return Err(QError::internal(format!(
                        "aggregate column {c} out of bounds for arity {}",
                        input_schema.arity()
                    )));
                }
            }
        }
        // `COUNT(*)` is finalized from `counts`; the other aggregates, in
        // order, each keep an accumulator per group.
        let accumulated: Vec<AggSpec> = self
            .aggs
            .iter()
            .filter(|a| a.func != AggFunc::CountStar)
            .copied()
            .collect();
        let new_accs: Vec<Acc> = accumulated
            .iter()
            .map(|a| {
                let input = a.col.and_then(|c| input_schema.field(c).ok());
                Acc::new(a.func, input.map(|f| f.data_type))
            })
            .collect();
        let (group_cols, stride) = (&self.group_cols, accumulated.len());
        let mut keys = RowBatch::accumulator(input_schema.project(group_cols)?.types());
        let mut accs: Vec<Acc> = Vec::new();
        // The groups chained by key hash, each group's hash, and each
        // group's input rows so far (the `N_i` of §4.2).
        let mut index = ChainIndex::default();
        let (mut group_hashes, mut hashes) = (Vec::new(), Vec::new());
        let mut counts: Vec<u64> = Vec::new();
        // Each row's group count before the row, in row order: what the
        // tracker is handed per batch (it keeps no table of its own).
        let mut priors: Vec<u64> = Vec::new();
        let track = self.tracker.is_some();
        let mut pushed: Option<DistinctTracker> = None;
        let mut scratch = RowBatch::with_capacity(input_schema.types(), batch_cap);
        loop {
            let status = self.input.next_batch(&mut scratch)?;
            let n = scratch.len();
            if n > 0 {
                self.metrics.checkpoint(n as u64)?;
                qprog_fault::fail_point!("exec/agg/accumulate");
                self.metrics.record_driver(n as u64);
            }
            priors.clear();
            let cells = group_cols.iter().map(|&c| scratch.col(c));
            key_hashes(cells.clone(), 0..n, &mut hashes)?;
            for (r, &hash) in hashes.iter().enumerate() {
                let same = |g: u32| {
                    cells
                        .clone()
                        .zip(keys.cols())
                        .all(|(c, k)| k.cell_cmp(g as usize, c, r).is_eq())
                };
                let mut g = index.first(hash);
                while g != NIL && !same(g) {
                    g = index.next(g);
                }
                if g == NIL {
                    if index.is_crowded() {
                        index.rebuild(&group_hashes);
                    }
                    g = index.push(hash);
                    group_hashes.push(hash);
                    keys.extend_from(&scratch, r..r + 1, group_cols);
                    counts.push(0);
                    accs.extend_from_slice(&new_accs);
                }
                let g = g as usize;
                if track {
                    priors.push(counts[g]);
                }
                counts[g] += 1;
                for (acc, spec) in accs[g * stride..][..stride].iter_mut().zip(&accumulated) {
                    let value = spec.col.map(|c| scratch.col(c).value(r));
                    acc.update_value(spec.func, value.as_ref())?;
                }
            }
            // Estimates are published once per batch, after K_i has been
            // advanced for the whole batch: a concurrent fraction sample
            // never sees N_i rise while K_i is stalled mid-batch (the
            // monotonicity contract). At batch_rows = 1 this is the exact
            // per-row publish sequence of the serial engine.
            if n > 0 {
                if let Some(tracker) = &mut self.tracker {
                    tracker.observe_transitions(&priors);
                    self.metrics.set_estimated_total(tracker.estimate(), None);
                } else if let AggEstimation::Pushdown(inbox) = &self.estimation {
                    if pushed.is_none() {
                        pushed = inbox.try_recv().ok();
                    }
                    if let Some(tracker) = &pushed {
                        self.metrics.set_estimated_total(tracker.estimate(), None);
                    }
                }
            }
            if status.is_exhausted() {
                break;
            }
        }
        // Global aggregation over an empty input still yields one row.
        if group_cols.is_empty() && keys.is_empty() {
            keys.push_drain(&mut Vec::new())?;
            counts.push(0);
            accs.extend_from_slice(&new_accs);
        }
        // The consume phase has enumerated the groups: exact cardinality.
        self.metrics.set_estimated_total(keys.len() as f64, None);

        // Groups are distinct, so no two compare equal and the order is
        // the same from any starting permutation.
        let mut order: Vec<u32> = (0..keys.len() as u32).collect();
        let cols = keys.cols();
        order.sort_unstable_by(|&a, &b| {
            let mut by_col = cols.iter().map(|k| k.cell_cmp(a as usize, k, b as usize));
            by_col.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        let pos = 0;
        Ok(AState::Emitting {
            keys,
            counts,
            accs,
            order,
            pos,
        })
    }

    /// The internal tracker (for tests and experiment harnesses).
    pub fn tracker(&self) -> Option<&DistinctTracker> {
        self.tracker.as_ref()
    }
}

impl Operator for HashAggregate {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        loop {
            match &mut self.state {
                AState::Consuming => {
                    let emitting = self.consume(out.capacity())?;
                    self.metrics.trace_phase(Phase::Accumulate, Phase::Emit);
                    self.state = emitting;
                }
                AState::Emitting {
                    keys,
                    counts,
                    accs,
                    order,
                    pos,
                } => {
                    let stride = accs.len() / keys.len().max(1);
                    let mut row: Vec<Value> = Vec::with_capacity(out.arity());
                    while !out.is_full() && *pos < order.len() {
                        let g = order[*pos] as usize;
                        *pos += 1;
                        row.extend(keys.cols().iter().map(|k| k.value(g)));
                        let mut group_accs = accs[g * stride..][..stride].iter();
                        for spec in &self.aggs {
                            row.push(match spec.func {
                                AggFunc::CountStar => Value::Int64(counts[g] as i64),
                                _ => group_accs.next().expect("one per aggregate").finalize()?,
                            });
                        }
                        out.push_drain(&mut row)?;
                    }
                    self.metrics.record_emitted_n(out.len() as u64);
                    if out.is_full() {
                        return Ok(BatchStatus::HasMore);
                    }
                    self.metrics.mark_finished();
                    self.state = AState::Done;
                    return Ok(BatchStatus::Exhausted);
                }
                AState::Done => return Ok(BatchStatus::Exhausted),
            }
        }
    }

    fn name(&self) -> &str {
        "hash_agg"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{col_i64, drain, drain_batched, int2_table};
    use crate::ops::TableScan;
    use qprog_storage::Table;
    use qprog_types::{Field, Row as TRow, Schema};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::collections::BTreeMap;

    fn scan2(vals: &[(i64, i64)]) -> BoxedOp {
        let t = int2_table("t", ("g", "v"), vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    fn out_schema(names: &[(&str, DataType)]) -> SchemaRef {
        Schema::new(
            names
                .iter()
                .map(|(n, t)| Field::new(*n, *t).with_nullable(true))
                .collect(),
        )
        .into_ref()
    }

    #[test]
    fn group_by_with_all_functions() {
        let data = [(1i64, 10i64), (1, 20), (2, 5), (2, 15), (2, 40)];
        let m = OpMetrics::with_initial_estimate(0.0);
        let schema = out_schema(&[
            ("g", DataType::Int64),
            ("cnt", DataType::Int64),
            ("sum", DataType::Int64),
            ("min", DataType::Int64),
            ("max", DataType::Int64),
            ("avg", DataType::Float64),
        ]);
        let mut agg = HashAggregate::new(
            scan2(&data),
            vec![0],
            vec![
                AggSpec {
                    func: AggFunc::CountStar,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Min,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Max,
                    col: Some(1),
                },
                AggSpec {
                    func: AggFunc::Avg,
                    col: Some(1),
                },
            ],
            schema,
            AggEstimation::Off,
            Arc::clone(&m),
        );
        let rows = drain(&mut agg);
        assert_eq!(rows.len(), 2);
        // sorted by group key: g=1 first
        assert_eq!(col_i64(&rows, 0), vec![1, 2]);
        assert_eq!(col_i64(&rows, 1), vec![2, 3]); // counts
        assert_eq!(col_i64(&rows, 2), vec![30, 60]); // sums
        assert_eq!(col_i64(&rows, 3), vec![10, 5]); // mins
        assert_eq!(col_i64(&rows, 4), vec![20, 40]); // maxs
        assert_eq!(rows[0].get(5).unwrap().as_f64().unwrap(), 15.0);
        assert_eq!(rows[1].get(5).unwrap().as_f64().unwrap(), 20.0);
        assert_eq!(m.emitted(), 2);
        assert_eq!(m.estimated_total(), 2.0);
    }

    #[test]
    fn global_aggregation_on_empty_input() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let schema = out_schema(&[("cnt", DataType::Int64), ("sum", DataType::Int64)]);
        let mut agg = HashAggregate::new(
            scan2(&[]),
            vec![],
            vec![
                AggSpec {
                    func: AggFunc::CountStar,
                    col: None,
                },
                AggSpec {
                    func: AggFunc::Sum,
                    col: Some(1),
                },
            ],
            schema,
            AggEstimation::Off,
            m,
        );
        let rows = drain(&mut agg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap().as_i64().unwrap(), 0);
        assert!(rows[0].get(1).unwrap().is_null());
    }

    #[test]
    fn count_ignores_nulls_sum_of_nothing_is_null() {
        let mut t = qprog_storage::Table::new(
            "t",
            Schema::new(vec![
                Field::new("g", DataType::Int64),
                Field::new("v", DataType::Int64).with_nullable(true),
            ]),
        );
        t.push(TRow::new(vec![Value::Int64(1), Value::Null]))
            .unwrap();
        t.push(TRow::new(vec![Value::Int64(1), Value::Int64(4)]))
            .unwrap();
        let scan: BoxedOp = Box::new(TableScan::new(
            t.into_shared(),
            OpMetrics::with_initial_estimate(0.0),
        ));
        let m = OpMetrics::with_initial_estimate(0.0);
        let schema = out_schema(&[("g", DataType::Int64), ("cnt", DataType::Int64)]);
        let mut agg = HashAggregate::new(
            scan,
            vec![0],
            vec![AggSpec {
                func: AggFunc::Count,
                col: Some(1),
            }],
            schema,
            AggEstimation::Off,
            m,
        );
        let rows = drain(&mut agg);
        assert_eq!(rows[0].get(1).unwrap().as_i64().unwrap(), 1);
    }

    #[test]
    fn tracking_estimation_publishes_and_finishes_exact() {
        let data: Vec<(i64, i64)> = (0..500).map(|i| (i % 20, i)).collect();
        let m = OpMetrics::with_initial_estimate(0.0);
        let schema = out_schema(&[("g", DataType::Int64), ("cnt", DataType::Int64)]);
        let mut agg = HashAggregate::new(
            scan2(&data),
            vec![0],
            vec![AggSpec {
                func: AggFunc::CountStar,
                col: None,
            }],
            schema,
            AggEstimation::Track {
                input_size_hint: 500,
            },
            Arc::clone(&m),
        );
        let rows = drain(&mut agg);
        assert_eq!(rows.len(), 20);
        assert_eq!(m.estimated_total(), 20.0);
        assert_eq!(agg.tracker().unwrap().groups_seen(), 20);
    }

    #[test]
    fn multi_column_grouping() {
        let t = int2_table("t", ("a", "b"), &[(1, 1), (1, 2), (1, 1), (2, 1)]).into_shared();
        let scan: BoxedOp = Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let schema = out_schema(&[
            ("a", DataType::Int64),
            ("b", DataType::Int64),
            ("cnt", DataType::Int64),
        ]);
        let mut agg = HashAggregate::new(
            scan,
            vec![0, 1],
            vec![AggSpec {
                func: AggFunc::CountStar,
                col: None,
            }],
            schema,
            AggEstimation::Track {
                input_size_hint: 4, // multi-column: tracker is disabled
            },
            m,
        );
        let rows = drain(&mut agg);
        assert_eq!(rows.len(), 3);
        assert!(agg.tracker().is_none());
        assert_eq!(col_i64(&rows, 2), vec![2, 1, 1]);
    }

    /// Group keys in `Value::total_cmp` order, column by column: the order
    /// groups are emitted in.
    #[derive(PartialEq, Eq)]
    struct GroupKey(Vec<Value>);

    impl Ord for GroupKey {
        fn cmp(&self, other: &Self) -> Ordering {
            let mut by_col = self.0.iter().zip(&other.0).map(|(a, b)| a.total_cmp(b));
            by_col.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        }
    }

    impl PartialOrd for GroupKey {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }

    /// The reference: a `BTreeMap` from group key to the group's rows in
    /// input order, each aggregate computed from that list.
    fn reference_aggregate(rows: &[TRow], group_cols: &[usize], aggs: &[AggSpec]) -> Vec<TRow> {
        let mut groups: BTreeMap<GroupKey, Vec<&TRow>> = BTreeMap::new();
        if group_cols.is_empty() {
            groups.insert(GroupKey(Vec::new()), Vec::new());
        }
        for r in rows {
            let key = GroupKey(r.project(group_cols).unwrap().into_values());
            groups.entry(key).or_default().push(r);
        }
        let finish = |(key, members): (GroupKey, Vec<&TRow>)| {
            let mut out = key.0;
            for spec in aggs {
                let all = spec.col.into_iter();
                let all = all.flat_map(|c| members.iter().map(move |r| r.get(c).unwrap()));
                let vals: Vec<&Value> = all.filter(|v| !v.is_null()).collect();
                let as_f64 = |v: &&Value| v.as_f64().unwrap();
                let float_sum = || vals.iter().map(as_f64).fold(0.0, |a, b| a + b);
                out.push(match spec.func {
                    AggFunc::CountStar => Value::Int64(members.len() as i64),
                    AggFunc::Count => Value::Int64(vals.len() as i64),
                    AggFunc::Sum | AggFunc::Avg if vals.is_empty() => Value::Null,
                    AggFunc::Sum if matches!(vals[0], Value::Float64(_)) => {
                        Value::Float64(float_sum())
                    }
                    AggFunc::Sum => Value::Int64(vals.iter().map(|v| v.as_i64().unwrap()).sum()),
                    AggFunc::Avg => Value::Float64(float_sum() / vals.len() as f64),
                    AggFunc::Min => {
                        let min = vals.iter().min_by(|a, b| a.total_cmp(b));
                        min.map_or(Value::Null, |v| (*v).clone())
                    }
                    AggFunc::Max => {
                        let max = vals.iter().max_by(|a, b| a.total_cmp(b));
                        max.map_or(Value::Null, |v| (*v).clone())
                    }
                });
            }
            TRow::new(out)
        };
        groups.into_iter().map(finish).collect()
    }

    /// `(g1 BIGINT, g2 VARCHAR, vi BIGINT, vf DOUBLE)`, every column
    /// nullable; about `groups` distinct `g1` values.
    fn mixed_table(rng: &mut StdRng, rows: usize, groups: i64) -> (Vec<TRow>, Arc<Table>) {
        fn nullable(rng: &mut StdRng, v: Value) -> Value {
            match rng.random_range(0..16) {
                0 => Value::Null,
                _ => v,
            }
        }
        let rows: Vec<TRow> = (0..rows)
            .map(|_| {
                let (g1, g2) = (rng.random_range(0..groups), rng.random_range(0..40));
                let (vi, vf) = (rng.random_range(-1000..1000), rng.random_range(-1000..1000));
                TRow::new(vec![
                    nullable(rng, Value::Int64(g1 * 1_000_003)),
                    nullable(rng, Value::str(format!("s{g2}"))),
                    nullable(rng, Value::Int64(vi)),
                    nullable(rng, Value::Float64(vf as f64 / 8.0)),
                ])
            })
            .collect();
        let types = [
            ("g1", DataType::Int64),
            ("g2", DataType::Utf8),
            ("vi", DataType::Int64),
            ("vf", DataType::Float64),
        ];
        let fields = types.map(|(n, t)| Field::new(n, t).with_nullable(true));
        let mut t = Table::new("t", Schema::new(fields.to_vec()));
        t.extend(rows.clone()).unwrap();
        (rows, t.into_shared())
    }

    fn spec(func: AggFunc, col: Option<usize>) -> AggSpec {
        AggSpec { func, col }
    }

    fn mixed_aggregate(
        table: &Arc<Table>,
        group_cols: &[usize],
        aggs: &[AggSpec],
        estimation: AggEstimation,
    ) -> (HashAggregate, Arc<OpMetrics>) {
        let scan = TableScan::new(Arc::clone(table), OpMetrics::with_initial_estimate(0.0));
        // The planner's output schema: the group columns, then each
        // aggregate's output type.
        let input = table.schema().types().collect::<Vec<_>>();
        let types = group_cols.iter().map(|&c| input[c]).chain(
            aggs.iter()
                .map(|a| a.func.output_type(a.col.map(|c| input[c]))),
        );
        let fields = types.map(|t| Field::new("c", t).with_nullable(true));
        let schema = Schema::new(fields.collect()).into_ref();
        let m = OpMetrics::with_initial_estimate(0.0);
        let (groups, aggs) = (group_cols.to_vec(), aggs.to_vec());
        let agg = HashAggregate::new(
            Box::new(scan),
            groups,
            aggs,
            schema,
            estimation,
            Arc::clone(&m),
        );
        (agg, m)
    }

    #[test]
    fn matches_the_btreemap_reference_row_for_row() {
        let mut rng = StdRng::seed_from_u64(0x5eed23);
        let every_func = [
            spec(AggFunc::CountStar, None),
            spec(AggFunc::Count, Some(2)),
            spec(AggFunc::Sum, Some(2)),
            spec(AggFunc::Sum, Some(3)),
            // COUNT(*) keeps no accumulator: one between two that do.
            spec(AggFunc::CountStar, None),
            spec(AggFunc::Min, Some(2)),
            spec(AggFunc::Max, Some(1)),
            spec(AggFunc::Avg, Some(2)),
            spec(AggFunc::Avg, Some(3)),
        ];
        // 5000 rows over ~2300 g1 values: the group index is relinked at
        // 16, 32, ... 2048 groups.
        for (n, domain) in [(0, 1), (1, 1), (300, 12), (5000, 3000)] {
            let (rows, table) = mixed_table(&mut rng, n, domain);
            for group_cols in [&[0][..], &[1], &[0, 1], &[1, 0], &[]] {
                let expect = reference_aggregate(&rows, group_cols, &every_func);
                assert_eq!(expect.is_empty(), n == 0 && !group_cols.is_empty());
                for cap in [1, 7, 1024] {
                    // Far more input promised than arrives: the tracker
                    // never falls back on "all seen, the count is exact".
                    let track = AggEstimation::Track {
                        input_size_hint: 1 << 20,
                    };
                    let (mut agg, m) = mixed_aggregate(&table, group_cols, &every_func, track);
                    let got = drain_batched(&mut agg, cap);
                    let what = format!("{n} rows, GROUP BY {group_cols:?}, cap {cap}");
                    assert!(got == expect, "{what}: rows or their order");
                    assert_eq!(m.emitted(), expect.len() as u64, "{what}");
                    assert_eq!(m.estimated_total(), expect.len() as f64, "{what}");
                    // Fed prior counts a batch at a time, the tracker is the
                    // tracker fed the keys one by one.
                    let &[col] = group_cols else {
                        assert!(agg.tracker().is_none());
                        continue;
                    };
                    let mut by_key = DistinctTracker::new(1 << 20);
                    for r in &rows {
                        by_key.observe(&r.key(col).unwrap());
                    }
                    let bits = |t: &DistinctTracker| {
                        let floats = [t.estimate(), t.gee_estimate(), t.gamma_squared()];
                        (floats.map(f64::to_bits), t.groups_seen(), t.seen())
                    };
                    assert_eq!(bits(agg.tracker().unwrap()), bits(&by_key), "{what}");
                }
            }
        }
    }

    #[test]
    fn double_group_column_is_a_type_error() {
        let (_, table) = mixed_table(&mut StdRng::seed_from_u64(1), 50, 5);
        let expect = qprog_types::Key::from_value(&Value::Float64(0.5)).unwrap_err();
        for group_cols in [&[3][..], &[0, 3]] {
            let count = [spec(AggFunc::CountStar, None)];
            let (mut agg, m) = mixed_aggregate(&table, group_cols, &count, AggEstimation::Off);
            let mut out = RowBatch::with_capacity(agg.schema().types(), 8);
            assert_eq!(agg.next_batch(&mut out), Err(expect.clone()));
            assert!(out.is_empty());
            assert_eq!(m.emitted(), 0);
        }
    }

    /// A BIGINT `SUM` is exact while it fits (the accumulator is wider than
    /// the result) and the overflow error of an expression when it does not.
    #[test]
    fn bigint_sum_past_i64_is_an_error_not_a_wrapped_value() {
        let sum_of = |vals: &[i64]| {
            let data: Vec<(i64, i64)> = vals.iter().map(|&v| (1, v)).collect();
            let schema = out_schema(&[("g", DataType::Int64), ("sum", DataType::Int64)]);
            let mut agg = HashAggregate::new(
                scan2(&data),
                vec![0],
                vec![spec(AggFunc::Sum, Some(1))],
                schema,
                AggEstimation::Off,
                OpMetrics::with_initial_estimate(0.0),
            );
            let mut out = RowBatch::with_capacity(agg.schema().types(), 8);
            agg.next_batch(&mut out).map(|_| out.col(1).value(0))
        };
        assert_eq!(sum_of(&[i64::MAX, -1]), Ok(Value::Int64(i64::MAX - 1)));
        assert_eq!(
            sum_of(&[i64::MAX, i64::MAX, i64::MIN]),
            Ok(Value::Int64(i64::MAX - 1))
        );
        for overflowing in [[i64::MAX, i64::MAX], [i64::MIN, -1]] {
            let err = sum_of(&overflowing).unwrap_err();
            assert_eq!(err, QError::exec("integer overflow in SUM"));
        }
    }
}
