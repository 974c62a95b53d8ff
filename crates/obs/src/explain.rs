//! EXPLAIN ANALYZE: post-execution plan rendering with actual vs estimated
//! cardinalities.
//!
//! [`explain_analyze`] walks a finished [`CompiledQuery`]'s operator tree
//! and renders, per operator:
//!
//! - actual rows emitted vs the optimizer's compile-time estimate, with the
//!   **q-error** `max(actual/est, est/actual)` between them,
//! - the final online estimate (`N_i` at query end — exact for operators
//!   that ran to completion),
//! - which estimator produced the online `N_i` (`pipeline`, `dne`,
//!   `byte`, `gee/mle`, `pushdown`, `exact`, or plain `optimizer`),
//! - `getnext()` and driver-tuple counts,
//! - phase wall-times and online-refinement counts recovered from the
//!   trace event stream, when one was captured.
//!
//! The event slice is optional in spirit: pass `&[]` and the report simply
//! omits phase timings and refinement counts.

use qprog_exec::trace::{EstimateSource, TraceEvent, TraceEventKind};
use qprog_plan::physical::CompiledQuery;

/// q-error between an actual and an estimated cardinality: `max(a/e, e/a)`,
/// `1.0` when both are zero, `+inf` when exactly one is zero.
pub fn q_error(actual: f64, estimate: f64) -> f64 {
    if actual <= 0.0 && estimate <= 0.0 {
        1.0
    } else if actual <= 0.0 || estimate <= 0.0 {
        f64::INFINITY
    } else {
        (actual / estimate).max(estimate / actual)
    }
}

fn fmt_qerr(q: f64) -> String {
    if q.is_finite() {
        format!("{q:.2}")
    } else {
        "inf".to_string()
    }
}

fn fmt_us(us: u64) -> String {
    if us < 1_000 {
        format!("{us}\u{b5}s")
    } else if us < 1_000_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{:.2}s", us as f64 / 1_000_000.0)
    }
}

fn fmt_card(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{}", x as i64)
    } else {
        format!("{x:.1}")
    }
}

/// Per-operator facts recovered from the event stream.
#[derive(Default)]
struct OpTrace {
    /// `(start_us, phase_name)` for each phase entered, in time order.
    phases: Vec<(u64, &'static str)>,
    /// When the operator finished, if traced.
    finished_at: Option<u64>,
    /// `EstimateRefined` events with `source == Online`.
    online_refinements: usize,
    /// The operator's observed active wall span (`OperatorWallTime`).
    wall_us: Option<u64>,
}

fn collect_traces(n_ops: usize, events: &[TraceEvent]) -> (Vec<OpTrace>, u64) {
    let mut traces: Vec<OpTrace> = (0..n_ops).map(|_| OpTrace::default()).collect();
    let mut end_us = 0u64;
    for e in events {
        end_us = end_us.max(e.at_us);
        match e.kind {
            TraceEventKind::PhaseTransition { op, to, .. } => {
                if let Some(t) = traces.get_mut(op as usize) {
                    t.phases.push((e.at_us, to.name()));
                }
            }
            TraceEventKind::OperatorFinished { op, .. } => {
                if let Some(t) = traces.get_mut(op as usize) {
                    t.finished_at.get_or_insert(e.at_us);
                }
            }
            TraceEventKind::OperatorWallTime { op, wall_us } => {
                if let Some(t) = traces.get_mut(op as usize) {
                    t.wall_us = Some(wall_us);
                }
            }
            TraceEventKind::EstimateRefined {
                op,
                source: EstimateSource::Online,
                ..
            } => {
                if let Some(t) = traces.get_mut(op as usize) {
                    t.online_refinements += 1;
                }
            }
            _ => {}
        }
    }
    (traces, end_us)
}

/// Wall-time per phase: each phase runs from its transition until the
/// operator's next transition, or (for the last phase) until the operator
/// finished / the trace ended.
fn phase_times(trace: &OpTrace, end_us: u64) -> Vec<(&'static str, u64)> {
    let mut out = Vec::with_capacity(trace.phases.len());
    for (i, &(start, name)) in trace.phases.iter().enumerate() {
        let close = match trace.phases.get(i + 1) {
            Some(&(next, _)) => next,
            None => trace.finished_at.unwrap_or(end_us).max(start),
        };
        out.push((name, close.saturating_sub(start)));
    }
    out
}

/// Render an EXPLAIN ANALYZE report for an executed query.
///
/// `events` is the captured trace (e.g. drained from a
/// [`RingSink`](crate::sinks::RingSink)); pass an empty slice when no trace
/// was recorded — the report then omits phase timings and refinement
/// counts. Call after the query has been driven to completion so the
/// "actual" column reflects final counts.
pub fn explain_analyze(query: &CompiledQuery, events: &[TraceEvent]) -> String {
    let registry = query.registry();
    let names: Vec<&str> = registry.iter().map(|(n, _)| n).collect();
    if names.is_empty() {
        return "EXPLAIN ANALYZE\n(empty plan)\n".to_string();
    }
    let (traces, end_us) = collect_traces(names.len(), events);

    let mut out = String::new();
    out.push_str("EXPLAIN ANALYZE\n");
    if !events.is_empty() {
        out.push_str(&format!(
            "trace: {} events over {}\n",
            events.len(),
            fmt_us(end_us)
        ));
    }

    render(query, &names, &traces, end_us, 0, 0, &mut out);
    out
}

#[allow(clippy::too_many_arguments)]
fn render(
    query: &CompiledQuery,
    names: &[&str],
    traces: &[OpTrace],
    end_us: u64,
    idx: usize,
    depth: usize,
    out: &mut String,
) {
    let pad = "   ".repeat(depth);
    let m = match query.registry().get(idx) {
        Some(m) => m,
        None => return,
    };
    let label = query.estimator_labels().get(idx).copied().unwrap_or("?");
    let opt_est = query.initial_estimates().get(idx).copied().unwrap_or(0.0);
    let actual = m.emitted() as f64;
    let final_est = m.estimated_total();

    out.push_str(&format!("{pad}-> {} [{label}]\n", names[idx]));
    out.push_str(&format!(
        "{pad}   actual: {} rows   optimizer est: {} (q-error {})   final est: {} (q-error {})\n",
        m.emitted(),
        fmt_card(opt_est),
        fmt_qerr(q_error(actual, opt_est)),
        fmt_card(final_est),
        fmt_qerr(q_error(actual, final_est)),
    ));
    out.push_str(&format!(
        "{pad}   getnext: {}   driver: {}{}\n",
        m.emitted(),
        m.driver_consumed(),
        if m.is_finished() {
            "   finished"
        } else {
            "   unfinished"
        },
    ));
    if let Some(t) = traces.get(idx) {
        // Wall-time attribution: the event stamped at operator finish, or
        // the live span still held by the metrics handle (e.g. when the
        // trace was truncated). Inclusive first-to-last-work span, so a
        // parent's time contains its children's.
        if let Some(wall) = t.wall_us.or_else(|| m.wall_us()) {
            let share = if end_us > 0 {
                format!(" ({:.1}% of trace)", 100.0 * wall as f64 / end_us as f64)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "{pad}   wall: {} active span{share}\n",
                fmt_us(wall)
            ));
        }
        if t.online_refinements > 0 {
            out.push_str(&format!(
                "{pad}   online refinements: {}\n",
                t.online_refinements
            ));
        }
        let times = phase_times(t, end_us);
        if !times.is_empty() {
            let parts: Vec<String> = times
                .iter()
                .map(|(name, us)| format!("{name} {}", fmt_us(*us)))
                .collect();
            out.push_str(&format!("{pad}   phases: {}\n", parts.join(", ")));
        }
    }
    if let Some(children) = query.op_inputs().get(idx) {
        for &child in children {
            render(query, names, traces, end_us, child, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sinks::RingSink;
    use qprog_core::EstimationMode;
    use qprog_exec::trace::EventBus;
    use qprog_plan::builder::PlanBuilder;
    use qprog_plan::physical::{compile_traced, PhysicalOptions};
    use qprog_storage::{Catalog, Table};
    use qprog_types::{row, DataType, Field, Schema};
    use std::sync::Arc;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("nationkey", DataType::Int64),
            ]),
        );
        for i in 0..500i64 {
            customer.push(row![i, i % 25]).unwrap();
        }
        let mut nation = Table::new(
            "nation",
            Schema::new(vec![Field::new("nationkey", DataType::Int64)]),
        );
        for i in 0..25i64 {
            nation.push(row![i]).unwrap();
        }
        c.register(customer).unwrap();
        c.register(nation).unwrap();
        c
    }

    #[test]
    fn q_error_handles_zeros() {
        assert_eq!(q_error(0.0, 0.0), 1.0);
        assert_eq!(q_error(10.0, 0.0), f64::INFINITY);
        assert_eq!(q_error(0.0, 10.0), f64::INFINITY);
        assert_eq!(q_error(100.0, 50.0), 2.0);
        assert_eq!(q_error(50.0, 100.0), 2.0);
    }

    #[test]
    fn report_renders_tree_with_actuals_and_phases() {
        let b = PlanBuilder::new(catalog());
        let plan = b
            .scan("customer")
            .unwrap()
            .hash_join(
                b.scan("nation").unwrap(),
                "nation.nationkey",
                "customer.nationkey",
            )
            .unwrap();
        let ring = Arc::new(RingSink::with_capacity(4096));
        let bus = EventBus::with_sink(Arc::clone(&ring) as _);
        let opts = PhysicalOptions {
            mode: EstimationMode::Once,
            ..PhysicalOptions::default()
        };
        let mut q = compile_traced(&plan, &opts, Some(bus)).unwrap();
        let rows = q.collect().unwrap();
        assert_eq!(rows.len(), 500);

        let events = ring.drain();
        assert!(!events.is_empty());
        let report = explain_analyze(&q, &events);

        // Tree: root join, two scan children (indented one level).
        assert!(report.starts_with("EXPLAIN ANALYZE\n"), "{report}");
        assert!(report.contains("-> hash_join"), "{report}");
        assert!(
            report.contains("   -> scan(nation)") || report.contains("   -> scan"),
            "{report}"
        );
        // The join emitted exactly 500 rows and its final estimate is exact.
        assert!(report.contains("actual: 500 rows"), "{report}");
        assert!(report.contains("final est: 500 (q-error 1.00)"), "{report}");
        // Per-operator wall-time attribution from OperatorWallTime events.
        assert!(report.contains("wall: "), "{report}");
        assert!(report.contains("active span"), "{report}");
        // Phase timings recovered from the trace.
        assert!(report.contains("phases: build"), "{report}");
        assert!(report.contains("probe"), "{report}");
        // Estimator attribution for the online mode.
        assert!(report.contains("[pipeline]"), "{report}");
        assert!(report.contains("[exact]"), "{report}");
    }

    #[test]
    fn report_without_events_omits_phase_lines() {
        let b = PlanBuilder::new(catalog());
        let plan = b.scan("nation").unwrap();
        let mut q = compile_traced(&plan, &PhysicalOptions::default(), None).unwrap();
        q.collect().unwrap();
        let report = explain_analyze(&q, &[]);
        assert!(report.contains("actual: 25 rows"), "{report}");
        assert!(!report.contains("phases:"), "{report}");
        assert!(!report.contains("trace:"), "{report}");
    }
}
