//! Blocking sort operator.
//!
//! The sort's *consume* phase sees every input tuple before emitting any —
//! the preprocessing window the paper's sort-merge-join and sort-aggregate
//! estimators run in (the join/aggregate variants embed their own sorts;
//! this standalone operator serves ORDER BY and explicit blocking
//! boundaries in plans). The input is appended to one accumulator and never
//! moved: what gets sorted is a `u32` row permutation, and output batches
//! leave through one gather each.

use std::cmp::Ordering;
use std::sync::Arc;

use qprog_types::{BatchStatus, QError, QResult, RowBatch, SchemaRef};

use crate::metrics::OpMetrics;
use crate::ops::{BoxedOp, Operator};
use crate::trace::Phase;

/// Sort keys: column index and direction.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    pub col: usize,
    pub ascending: bool,
}

/// Sorts its entire input, then emits rows in order.
pub struct Sort {
    input: BoxedOp,
    keys: Vec<SortKey>,
    metrics: Arc<OpMetrics>,
    state: State,
}

enum State {
    Consuming,
    /// The drained input, its sorted permutation, and how much of it has
    /// been emitted.
    Emitting {
        rows: RowBatch,
        order: Vec<u32>,
        pos: usize,
    },
    Done,
}

impl Sort {
    /// Sort by the given keys (later keys break ties).
    pub fn new(input: BoxedOp, keys: Vec<SortKey>, metrics: Arc<OpMetrics>) -> Self {
        Sort {
            input,
            keys,
            metrics,
            state: State::Consuming,
        }
    }

    /// Drain the input into one accumulator and stably sort its row
    /// permutation by the keys, in the total order (NULLs first).
    fn consume(&mut self, batch_cap: usize) -> QResult<State> {
        let arity = self.input.schema().arity();
        if let Some(k) = self.keys.iter().find(|k| k.col >= arity) {
            return Err(QError::internal(format!(
                "sort key column {} out of bounds for arity {arity}",
                k.col
            )));
        }
        let schema = self.input.schema();
        let mut rows = RowBatch::accumulator(schema.types());
        let mut scratch = RowBatch::with_capacity(schema.types(), batch_cap);
        loop {
            let status = self.input.next_batch(&mut scratch)?;
            let n = scratch.len();
            if n > 0 {
                self.metrics.checkpoint(n as u64)?;
                qprog_fault::fail_point!("exec/sort/consume");
                self.metrics.record_driver(n as u64);
                rows.append_batch(&mut scratch);
            }
            if status.is_exhausted() {
                break;
            }
        }
        let len = u32::try_from(rows.len())
            .map_err(|_| QError::internal("sort input exceeds 2^32 rows"))?;
        // Stable: tied rows keep their input order.
        let mut order: Vec<u32> = (0..len).collect();
        order.sort_by(|&a, &b| {
            let mut by_key = self.keys.iter().map(|k| {
                let col = rows.col(k.col);
                let ord = col.cell_cmp(a as usize, col, b as usize);
                if k.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
            by_key.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        Ok(State::Emitting {
            rows,
            order,
            pos: 0,
        })
    }
}

impl Operator for Sort {
    fn schema(&self) -> SchemaRef {
        self.input.schema()
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        loop {
            match &mut self.state {
                State::Consuming => {
                    self.metrics.trace_phase(Phase::Init, Phase::SortInput);
                    self.state = self.consume(out.capacity())?;
                    self.metrics.trace_phase(Phase::SortInput, Phase::Emit);
                }
                State::Emitting { rows, order, pos } => {
                    let take = out.remaining().min(order.len() - *pos);
                    out.gather_from(rows, &order[*pos..*pos + take]);
                    *pos += take;
                    self.metrics.record_emitted_n(take as u64);
                    if out.is_full() {
                        return Ok(BatchStatus::HasMore);
                    }
                    self.metrics.mark_finished();
                    self.state = State::Done;
                    return Ok(BatchStatus::Exhausted);
                }
                State::Done => return Ok(BatchStatus::Exhausted),
            }
        }
    }

    fn name(&self) -> &str {
        "sort"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{col_i64, drain, int2_table, int_table};
    use crate::ops::TableScan;

    fn scan1(vals: &[i64]) -> BoxedOp {
        let t = int_table("t", "a", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    fn ascending(input: BoxedOp, col: usize, metrics: Arc<OpMetrics>) -> Sort {
        let key = SortKey {
            col,
            ascending: true,
        };
        Sort::new(input, vec![key], metrics)
    }

    #[test]
    fn sorts_ascending() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut s = ascending(scan1(&[3, 1, 2, 1]), 0, Arc::clone(&m));
        let rows = drain(&mut s);
        assert_eq!(col_i64(&rows, 0), vec![1, 1, 2, 3]);
        assert_eq!(m.emitted(), 4);
        assert_eq!(m.driver_consumed(), 4);
    }

    #[test]
    fn sorts_descending_and_multi_key() {
        let t = int2_table("t", ("a", "b"), &[(1, 9), (2, 1), (1, 3), (2, 5)]).into_shared();
        let scan = Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut s = Sort::new(
            scan,
            vec![
                SortKey {
                    col: 0,
                    ascending: false,
                },
                SortKey {
                    col: 1,
                    ascending: true,
                },
            ],
            m,
        );
        let rows = drain(&mut s);
        assert_eq!(col_i64(&rows, 0), vec![2, 2, 1, 1]);
        assert_eq!(col_i64(&rows, 1), vec![1, 5, 3, 9]);
    }

    /// Differential test: the columnar permutation sort against a stable
    /// `sort_by` over materialized rows. Rows are `(a BIGINT, b VARCHAR,
    /// id)`, `a` and `b` with NULLs and heavy duplicates, `id` the input
    /// position — so equal output means tied rows kept their input order.
    #[test]
    fn matches_a_stable_sort_of_rows_at_every_batch_size() {
        use crate::ops::test_util::{drain_batched, random_keys};
        use qprog_types::{DataType, Field, Row, Schema, Value};
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5047);
        let n = 3000;
        let a = random_keys(&mut rng, n, 4, Value::Int64);
        let b = random_keys(&mut rng, n, 3, |v| Value::str(format!("s{v}")));
        let rows: Vec<Row> = (0i64..)
            .zip(a.into_iter().zip(b))
            .map(|(id, (a, b))| Row::new(vec![a, b, Value::Int64(id)]))
            .collect();
        let mut t = qprog_storage::Table::new(
            "t",
            Schema::new(vec![
                Field::new("a", DataType::Int64).with_nullable(true),
                Field::new("b", DataType::Utf8).with_nullable(true),
                Field::new("id", DataType::Int64),
            ]),
        );
        t.extend(rows.clone()).unwrap();
        let t = t.into_shared();
        let key = |col, ascending| SortKey { col, ascending };
        for keys in [
            vec![key(0, true)],
            vec![key(1, false)],
            vec![key(0, false), key(1, true)],
            vec![key(1, true), key(0, false)],
            vec![],
        ] {
            let mut expect = rows.clone();
            expect.sort_by(|x, y| {
                let by_key = keys.iter().map(|k| {
                    let ord = x.get(k.col).unwrap().total_cmp(y.get(k.col).unwrap());
                    if k.ascending {
                        ord
                    } else {
                        ord.reverse()
                    }
                });
                by_key.fold(Ordering::Equal, Ordering::then)
            });
            for cap in [1, 7, 1024] {
                let scan = TableScan::new(Arc::clone(&t), OpMetrics::with_initial_estimate(0.0));
                let m = OpMetrics::with_initial_estimate(0.0);
                let mut s = Sort::new(Box::new(scan), keys.clone(), Arc::clone(&m));
                let got = drain_batched(&mut s, cap);
                assert!(
                    got == expect,
                    "keys {keys:?}, cap {cap}: rows or their order"
                );
                assert_eq!((m.emitted(), m.driver_consumed()), (n as u64, n as u64));
                assert!(m.is_finished());
            }
        }
    }

    #[test]
    fn key_past_the_input_arity_is_an_internal_error() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut s = ascending(scan1(&[3, 1, 2]), 1, Arc::clone(&m));
        let mut out = RowBatch::with_capacity(s.schema().types(), 8);
        match s.next_batch(&mut out) {
            Err(QError::Internal(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
            other => panic!("expected an internal error, got {other:?}"),
        }
        assert!(out.is_empty());
        assert_eq!(m.emitted(), 0);
    }

    #[test]
    fn empty_input() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut s = ascending(scan1(&[]), 0, m);
        let mut src = crate::ops::RowSource::new(&mut s);
        assert!(src.next_row().unwrap().is_none());
        assert!(src.next_row().unwrap().is_none());
    }
}
