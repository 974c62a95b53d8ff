//! Hash aggregation (GROUP BY) with online group-count estimation (§4.2).
//!
//! The consume phase sees the entire input before any group is emitted —
//! the preprocessing window in which the paper's GEE/MLE estimators (with
//! the γ² chooser) refine the output cardinality. When the input is the
//! clustered output of a join on the grouping attribute, estimation is
//! instead *pushed down* into that join (see
//! [`HashJoin::with_agg_pushdown`](crate::ops::hash_join::HashJoin::with_agg_pushdown))
//! and this operator merely publishes the shared tracker's estimates.

use std::sync::Arc;

use crate::sync::Mutex;
use qprog_core::distinct::DistinctTracker;
use qprog_core::fx::FxHashMap;
use qprog_types::{
    BatchStatus, CompositeKey, DataType, Key, QError, QResult, Row, RowBatch, SchemaRef, Value,
};

use crate::metrics::OpMetrics;
use crate::ops::sort::{compare_rows, SortKey};
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
    /// Publish estimates from a tracker fed by a join below (push-down).
    Pushdown(Arc<Mutex<DistinctTracker>>),
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

    fn update(&mut self, func: AggFunc, row: &Row, col: Option<usize>) -> QResult<()> {
        let value = match col {
            Some(c) => Some(row.get(c)?),
            None => None,
        };
        self.update_value(func, value)
    }

    /// Core accumulator step over an already-fetched value (the batch path
    /// reads column-major storage directly, without materializing rows).
    fn update_value(&mut self, func: AggFunc, value: Option<&Value>) -> QResult<()> {
        match (self, func) {
            (Acc::Count(n), AggFunc::CountStar) => *n += 1,
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

    fn finalize(self) -> Value {
        match self {
            Acc::Count(n) => Value::Int64(n as i64),
            Acc::SumI { sum, seen } => {
                if seen {
                    Value::Int64(sum as i64)
                } else {
                    Value::Null
                }
            }
            Acc::SumF { sum, seen } => {
                if seen {
                    Value::Float64(sum)
                } else {
                    Value::Null
                }
            }
            Acc::Min(v) | Acc::Max(v) => v.unwrap_or(Value::Null),
            Acc::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float64(sum / n as f64)
                }
            }
        }
    }
}

/// Fold a *group-sorted* row run into one output row per group (group
/// values then finalized aggregates). Shared by the sort-based aggregate;
/// a global aggregation (`group_cols` empty) over an empty input still
/// produces one row.
pub(crate) fn accumulate_sorted_groups(
    rows: &[Row],
    group_cols: &[usize],
    aggs: &[AggSpec],
    input_types: &[Option<DataType>],
) -> QResult<Vec<Row>> {
    let new_accs = || -> Vec<Acc> {
        aggs.iter()
            .zip(input_types)
            .map(|(a, t)| Acc::new(a.func, *t))
            .collect()
    };
    let finalize = |group_vals: Row, accs: Vec<Acc>| -> Row {
        let mut vals = group_vals.into_values();
        vals.extend(accs.into_iter().map(Acc::finalize));
        Row::new(vals)
    };
    let mut out = Vec::new();
    let mut current: Option<(CompositeKey, Row, Vec<Acc>)> = None;
    for row in rows {
        let key = row.composite_key(group_cols)?;
        let same_group = current.as_ref().is_some_and(|(k, _, _)| *k == key);
        if !same_group {
            if let Some((_, gv, accs)) = current.take() {
                out.push(finalize(gv, accs));
            }
            current = Some((key, row.project(group_cols)?, new_accs()));
        }
        let (_, _, accs) = current.as_mut().expect("group just ensured");
        for (i, spec) in aggs.iter().enumerate() {
            accs[i].update(spec.func, row, spec.col)?;
        }
    }
    if let Some((_, gv, accs)) = current.take() {
        out.push(finalize(gv, accs));
    }
    if group_cols.is_empty() && out.is_empty() {
        out.push(finalize(Row::default(), new_accs()));
    }
    Ok(out)
}

enum AState {
    Consuming,
    Emitting { rows: std::vec::IntoIter<Row> },
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

    fn consume(&mut self, batch_cap: usize) -> QResult<Vec<Row>> {
        self.metrics.trace_phase(Phase::Init, Phase::Accumulate);
        let input_schema = self.input.schema();
        let input_types: Vec<Option<DataType>> = self
            .aggs
            .iter()
            .map(|a| {
                a.col
                    .and_then(|c| input_schema.field(c).ok().map(|f| f.data_type))
            })
            .collect();
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
        let new_accs = || -> Vec<Acc> {
            let typed = self.aggs.iter().zip(&input_types);
            typed.map(|(a, t)| Acc::new(a.func, *t)).collect()
        };
        // Per group: its key values, the input rows it has absorbed, and
        // its accumulators. The row count is the `N_i` of §4.2: the tracker
        // is handed each row's prior count and keeps no table of its own.
        let mut groups: FxHashMap<CompositeKey, (Row, u64, Vec<Acc>)> = FxHashMap::default();
        // Reused per-row key scratch: hits resolve through a borrowed
        // `&[Key]` lookup (see `CompositeKey: Borrow<[Key]>`), so only the
        // first row of each group allocates a boxed key.
        let mut key_buf: Vec<Key> = Vec::with_capacity(self.group_cols.len());
        let mut scratch = RowBatch::with_capacity(input_schema.arity(), batch_cap);
        loop {
            let status = self.input.next_batch(&mut scratch)?;
            let n = scratch.len();
            if n > 0 {
                self.metrics.checkpoint(n as u64)?;
                qprog_fault::fail_point!("exec/agg/accumulate");
                self.metrics.record_driver(n as u64);
            }
            for r in 0..n {
                key_buf.clear();
                for &c in &self.group_cols {
                    key_buf.push(scratch.key(r, c)?);
                }
                let prior = if let Some((_, rows, accs)) = groups.get_mut(key_buf.as_slice()) {
                    for (i, spec) in self.aggs.iter().enumerate() {
                        let value = spec.col.map(|c| scratch.value(r, c));
                        accs[i].update_value(spec.func, value)?;
                    }
                    std::mem::replace(rows, *rows + 1)
                } else {
                    let group_vals = Row::new(
                        self.group_cols
                            .iter()
                            .map(|&c| scratch.value(r, c).clone())
                            .collect(),
                    );
                    let mut accs = new_accs();
                    for (i, spec) in self.aggs.iter().enumerate() {
                        let value = spec.col.map(|c| scratch.value(r, c));
                        accs[i].update_value(spec.func, value)?;
                    }
                    let key = CompositeKey(key_buf.as_slice().into());
                    groups.insert(key, (group_vals, 1, accs));
                    0
                };
                if let Some(tracker) = &mut self.tracker {
                    tracker.observe_transition(prior, 1);
                }
            }
            // Estimates are published once per batch, after K_i has been
            // advanced for the whole batch: a concurrent fraction sample
            // never sees N_i rise while K_i is stalled mid-batch (the
            // monotonicity contract). At batch_rows = 1 this is the exact
            // per-row publish sequence of the serial engine.
            if n > 0 {
                if let Some(tracker) = &self.tracker {
                    self.metrics.set_estimated_total(tracker.estimate());
                } else if let AggEstimation::Pushdown(shared) = &self.estimation {
                    self.metrics.set_estimated_total(shared.lock().estimate());
                }
            }
            if status.is_exhausted() {
                break;
            }
        }
        // Global aggregation over an empty input still yields one row.
        if self.group_cols.is_empty() && groups.is_empty() {
            groups.insert(CompositeKey(Box::new([])), (Row::default(), 0, new_accs()));
        }
        // The consume phase has enumerated the groups: exact cardinality.
        self.metrics.set_estimated_total(groups.len() as f64);

        let mut out: Vec<Row> = groups
            .into_values()
            .map(|(group_vals, _, accs)| {
                let mut vals = group_vals.into_values();
                vals.extend(accs.into_iter().map(Acc::finalize));
                Row::new(vals)
            })
            .collect();
        let sort_keys: Vec<SortKey> = (0..self.group_cols.len())
            .map(|col| SortKey {
                col,
                ascending: true,
            })
            .collect();
        out.sort_by(|a, b| compare_rows(a, b, &sort_keys));
        Ok(out)
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
                    let rows = self.consume(out.capacity())?;
                    self.metrics.trace_phase(Phase::Accumulate, Phase::Emit);
                    self.state = AState::Emitting {
                        rows: rows.into_iter(),
                    };
                }
                AState::Emitting { rows } => {
                    while !out.is_full() {
                        match rows.next() {
                            Some(r) => out.push_row(r),
                            None => {
                                self.metrics.record_emitted_n(out.len() as u64);
                                self.metrics.mark_finished();
                                self.state = AState::Done;
                                return Ok(BatchStatus::Exhausted);
                            }
                        }
                    }
                    self.metrics.record_emitted_n(out.len() as u64);
                    return Ok(BatchStatus::HasMore);
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
    use crate::ops::test_util::{col_i64, drain, int2_table};
    use crate::ops::TableScan;
    use qprog_types::{Field, Schema};

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
        use qprog_types::Row as TRow;
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
}
