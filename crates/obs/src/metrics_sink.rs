//! A [`TraceSink`] that aggregates one query's trace events into a shared
//! [`qprog_metrics::Registry`].
//!
//! One `MetricsSink` is created **per query** (events carry operator
//! indices that are only meaningful within a query), but every sink writes
//! into the same registry, so counters and histograms aggregate *across*
//! queries: a fleet-wide view of tuple throughput, phase activity, and —
//! following König et al.'s argument that estimator accuracy must be
//! tracked across queries to know which estimator to trust — per-estimator
//! q-error histograms comparing each operator's last online estimate
//! against its exact final cardinality.
//!
//! All counter handles the sink touches on the publish path are resolved at
//! construction; a publish is a few relaxed atomic increments plus a short
//! mutex around the tiny per-operator estimate table (events are published
//! at phase boundaries and material refinements only — never per tuple).

use std::sync::Arc;

use qprog_exec::sync::Mutex;
use qprog_exec::trace::{
    AbortKind, DegradeReason, EstimateSource, Phase, TraceEvent, TraceEventKind, TraceSink,
};
use qprog_metrics::{Counter, Histogram, Registry};

use crate::explain::q_error;

/// q-error histogram bucket upper bounds: 1 is a perfect estimate; the
/// paper's evaluation sees errors from ~1 to a few orders of magnitude.
pub const Q_ERROR_BUCKETS: [f64; 10] = [1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 5.0, 10.0, 100.0, 1000.0];

/// The kinds whose `qprog_trace_events_total` series every sink registers
/// up front, so they read 0 before their first event. The other kinds
/// register on first sight, so a serial run without an analyzer or a
/// corpus never shows them: worker wall times exist only for parallel
/// drains, health transitions only with an analyzer, regressions only
/// with a corpus. Lifecycle spans are not counted; the service aggregates
/// its own SLO metrics from them.
const EAGER_EVENTS: [TraceEventKind; 10] = [
    TraceEventKind::PipelineStarted { pipeline: 0 },
    TraceEventKind::PipelineFinished { pipeline: 0 },
    TraceEventKind::PhaseTransition {
        op: 0,
        from: Phase::Init,
        to: Phase::Init,
    },
    TraceEventKind::EstimateRefined {
        op: 0,
        old: 0.0,
        new: 0.0,
        source: EstimateSource::Online,
        lo: 0.0,
        hi: 0.0,
    },
    TraceEventKind::OperatorFinished { op: 0, emitted: 0 },
    TraceEventKind::QueryFinished { rows: 0 },
    TraceEventKind::QueryAborted {
        reason: AbortKind::Error,
        rows: 0,
    },
    TraceEventKind::EstimatorDegraded {
        op: 0,
        reason: DegradeReason::HistogramMemory,
    },
    TraceEventKind::ProgressSampled {
        current: 0,
        total: 0.0,
        fraction: 0.0,
        lo: 0.0,
        hi: 0.0,
    },
    TraceEventKind::OperatorWallTime { op: 0, wall_us: 0 },
];

/// Per-operator aggregation state.
#[derive(Debug, Clone, Copy, Default)]
struct OpAgg {
    /// Last estimate published before the exact pin (NaN = none yet).
    last_estimate: f64,
    /// Whether at least one `Online` refinement arrived.
    refined_online: bool,
}

/// Event → metrics aggregator; see the module docs.
pub struct MetricsSink {
    registry: Arc<Registry>,
    estimator: String,
    /// `qprog_trace_events_total{event=...}` of the [`EAGER_EVENTS`], by
    /// kind name.
    events: [(&'static str, Arc<Counter>); 10],
    /// `qprog_phase_transitions_total{phase=...}`, by entered phase, in
    /// [`Phase::ALL`] order.
    phases: Vec<Arc<Counter>>,
    /// `qprog_estimate_refinements_total{source=...}`, in
    /// [`EstimateSource::ALL`] order.
    refinements: Vec<Arc<Counter>>,
    /// `qprog_operator_tuples_total{estimator=...}`: exact tuples emitted,
    /// accumulated at operator finish.
    tuples: Arc<Counter>,
    /// `qprog_queries_finished_total{estimator=...}`.
    queries_finished: Arc<Counter>,
    /// `qprog_query_rows_total{estimator=...}`.
    query_rows: Arc<Counter>,
    /// `qprog_estimate_q_error{estimator=...}`: final-estimate accuracy.
    q_error: Arc<Histogram>,
    /// Per-operator estimate state, grown on demand.
    ops: Mutex<Vec<OpAgg>>,
    /// Registry names per operator, set post-compile via
    /// [`set_op_names`](Self::set_op_names).
    op_names: Mutex<Vec<String>>,
}

impl MetricsSink {
    /// A sink for one query, aggregating into `registry` under the given
    /// estimator label (conventionally
    /// [`EstimationMode::label`](qprog_core::EstimationMode::label):
    /// `off`/`once`/`dne`/`byte`).
    pub fn new(registry: Arc<Registry>, estimator: &str) -> Self {
        let events = EAGER_EVENTS.map(|kind| (kind.name(), events_counter(&registry, kind.name())));
        let phases = Phase::ALL.iter().map(|p| {
            registry.counter(
                "qprog_phase_transitions_total",
                "Operator phase transitions, by entered phase",
                &[("phase", p.name())],
            )
        });
        let phases = phases.collect();
        let refinements = EstimateSource::ALL.iter().map(|s| {
            registry.counter(
                "qprog_estimate_refinements_total",
                "Cardinality estimate refinements, by source",
                &[("source", s.name())],
            )
        });
        let refinements = refinements.collect();
        let est = &[("estimator", estimator)][..];
        let tuples = registry.counter(
            "qprog_operator_tuples_total",
            "Exact tuples emitted by finished operators",
            est,
        );
        let queries_finished = registry.counter(
            "qprog_queries_finished_total",
            "Queries run to completion",
            est,
        );
        let query_rows = registry.counter(
            "qprog_query_rows_total",
            "Rows returned by finished queries",
            est,
        );
        let q_error = registry.histogram(
            "qprog_estimate_q_error",
            "q-error of each operator's last online estimate vs its exact \
             final cardinality, by estimator",
            est,
            &Q_ERROR_BUCKETS,
        );
        MetricsSink {
            registry,
            estimator: estimator.to_string(),
            events,
            phases,
            refinements,
            tuples,
            queries_finished,
            query_rows,
            q_error,
            ops: Mutex::new(Vec::new()),
            op_names: Mutex::new(Vec::new()),
        }
    }

    /// Attach operator registry names (post-compile) so per-operator tuple
    /// counts are labeled by operator name in addition to the aggregate.
    pub fn set_op_names(&self, names: Vec<String>) {
        *self.op_names.lock() = names;
    }

    /// The shared registry this sink aggregates into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The estimator label samples are recorded under.
    pub fn estimator(&self) -> &str {
        &self.estimator
    }

    fn with_op<R>(&self, op: u32, f: impl FnOnce(&mut OpAgg) -> R) -> R {
        let mut ops = self.ops.lock();
        let idx = op as usize;
        if ops.len() <= idx {
            ops.resize(
                idx + 1,
                OpAgg {
                    last_estimate: f64::NAN,
                    refined_online: false,
                },
            );
        }
        f(&mut ops[idx])
    }
}

/// The `qprog_trace_events_total` series of the kind named `event`.
fn events_counter(registry: &Registry, event: &str) -> Arc<Counter> {
    registry.counter(
        "qprog_trace_events_total",
        "Trace events published, by event kind",
        &[("event", event)],
    )
}

impl std::fmt::Debug for MetricsSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsSink")
            .field("estimator", &self.estimator)
            .finish()
    }
}

impl TraceSink for MetricsSink {
    fn publish(&self, event: &TraceEvent) {
        let name = event.kind.name();
        match self.events.iter().find(|(eager, _)| *eager == name) {
            Some((_, counter)) => counter.inc(),
            None if !matches!(
                event.kind,
                TraceEventKind::SpanStart { .. } | TraceEventKind::SpanEnd { .. }
            ) =>
            {
                events_counter(&self.registry, name).inc()
            }
            None => {}
        }
        match event.kind {
            TraceEventKind::PhaseTransition { to, .. } => {
                self.phases[to as usize].inc();
            }
            TraceEventKind::EstimateRefined {
                op, new, source, ..
            } => {
                self.refinements[source as usize].inc();
                match source {
                    EstimateSource::Exact => {
                        // Exact pin: score the last pre-exact estimate. Only
                        // operators that actually refined online contribute —
                        // scoring the raw optimizer guess would pollute the
                        // per-estimator histograms with compile-time error.
                        let prior =
                            self.with_op(op, |o| o.refined_online.then_some(o.last_estimate));
                        if let Some(prior) = prior {
                            if prior.is_finite() {
                                self.q_error.observe(q_error(new, prior));
                            }
                        }
                    }
                    _ => self.with_op(op, |o| {
                        o.last_estimate = new;
                        o.refined_online |= source == EstimateSource::Online;
                    }),
                }
            }
            TraceEventKind::OperatorFinished { op, emitted } => {
                self.tuples.add(emitted);
                let name = self.op_names.lock().get(op as usize).cloned();
                if let Some(name) = name {
                    self.registry
                        .counter(
                            "qprog_operator_emitted_total",
                            "Exact tuples emitted by finished operators, by operator",
                            &[("op", &name)],
                        )
                        .add(emitted);
                }
            }
            TraceEventKind::QueryFinished { rows } => {
                self.queries_finished.inc();
                self.query_rows.add(rows);
            }
            TraceEventKind::QueryAborted { reason, .. } => {
                // Terminal failures are rare; resolving the per-reason
                // counter lazily keeps the hot-path handle set small.
                self.registry
                    .counter(
                        "qprog_queries_failed_total",
                        "Queries terminated before completion, by abort reason",
                        &[("estimator", &self.estimator), ("reason", reason.name())],
                    )
                    .inc();
            }
            TraceEventKind::OperatorWallTime { op, wall_us } => {
                // Like operator_emitted: resolved lazily by operator name
                // (wall-time events fire once per operator per query).
                let name = self.op_names.lock().get(op as usize).cloned();
                if let Some(name) = name {
                    self.registry
                        .counter(
                            "qprog_op_wall_us",
                            "Observed active wall span of finished operators \
                             in microseconds, by operator",
                            &[("op", &name)],
                        )
                        .add(wall_us);
                }
            }
            TraceEventKind::WorkerWallTime {
                op,
                worker,
                busy_us,
            } => {
                // Worker attribution only exists for parallel drains, which
                // fire a handful of events per join — lazy resolution keeps
                // serial expositions free of parallel-only series.
                let name = self.op_names.lock().get(op as usize).cloned();
                if let Some(name) = name {
                    let worker = worker.to_string();
                    self.registry
                        .counter(
                            "qprog_worker_busy_us",
                            "Busy wall time of partition-parallel workers in \
                             microseconds, by operator and worker index",
                            &[("op", &name), ("worker", &worker)],
                        )
                        .add(busy_us);
                }
            }
            TraceEventKind::HealthTransition { to, reason, .. } => {
                self.registry
                    .counter(
                        "qprog_health_transitions_total",
                        "Progress-health verdict changes, by entered state \
                         and reason",
                        &[("state", to.name()), ("reason", reason.name())],
                    )
                    .inc();
            }
            TraceEventKind::RegressionDetected { kind, .. } => {
                self.registry
                    .counter(
                        "qprog_regressions_total",
                        "Progress-quality regressions flagged against corpus \
                         baselines, by regressed metric",
                        &[("kind", kind.name())],
                    )
                    .inc();
            }
            TraceEventKind::EstimatorDegraded { reason, .. } => {
                self.registry
                    .counter(
                        "qprog_estimator_degraded_total",
                        "Estimators that fell back to a cheaper baseline after \
                         a budget breach, by reason",
                        &[("estimator", &self.estimator), ("reason", reason.name())],
                    )
                    .inc();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::trace::EventBus;

    fn publish_all(sink: &MetricsSink, kinds: &[TraceEventKind]) {
        for (i, &kind) in kinds.iter().enumerate() {
            sink.publish(&TraceEvent {
                seq: i as u64,
                at_us: i as u64,
                kind,
            });
        }
    }

    #[test]
    fn events_phases_and_refinements_are_counted() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        publish_all(
            &sink,
            &[
                TraceEventKind::PipelineStarted { pipeline: 0 },
                TraceEventKind::PhaseTransition {
                    op: 0,
                    from: Phase::Init,
                    to: Phase::Build,
                },
                TraceEventKind::PhaseTransition {
                    op: 0,
                    from: Phase::Build,
                    to: Phase::Probe,
                },
                TraceEventKind::EstimateRefined {
                    op: 0,
                    old: f64::NAN,
                    new: 100.0,
                    source: EstimateSource::Optimizer,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
                TraceEventKind::QueryFinished { rows: 42 },
            ],
        );
        let text = registry.render();
        assert!(text.contains("qprog_trace_events_total{event=\"phase_transition\"} 2"));
        assert!(text.contains("qprog_phase_transitions_total{phase=\"build\"} 1"));
        assert!(text.contains("qprog_phase_transitions_total{phase=\"probe\"} 1"));
        assert!(text.contains("qprog_estimate_refinements_total{source=\"optimizer\"} 1"));
        assert!(text.contains("qprog_queries_finished_total{estimator=\"once\"} 1"));
        assert!(text.contains("qprog_query_rows_total{estimator=\"once\"} 42"));
    }

    #[test]
    fn q_error_scores_last_online_estimate_against_exact() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "dne");
        publish_all(
            &sink,
            &[
                TraceEventKind::EstimateRefined {
                    op: 0,
                    old: f64::NAN,
                    new: 1000.0,
                    source: EstimateSource::Optimizer,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
                TraceEventKind::EstimateRefined {
                    op: 0,
                    old: 1000.0,
                    new: 50.0,
                    source: EstimateSource::Online,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
                TraceEventKind::EstimateRefined {
                    op: 0,
                    old: 50.0,
                    new: 100.0,
                    source: EstimateSource::Exact,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
            ],
        );
        let hist = registry.histogram(
            "qprog_estimate_q_error",
            "",
            &[("estimator", "dne")],
            &Q_ERROR_BUCKETS,
        );
        assert_eq!(hist.count(), 1);
        assert_eq!(hist.sum(), 2.0, "q-error(100, 50) = 2");
    }

    #[test]
    fn operators_without_online_refinement_are_not_scored() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "off");
        publish_all(
            &sink,
            &[
                TraceEventKind::EstimateRefined {
                    op: 3,
                    old: f64::NAN,
                    new: 10.0,
                    source: EstimateSource::Optimizer,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
                TraceEventKind::EstimateRefined {
                    op: 3,
                    old: 10.0,
                    new: 7.0,
                    source: EstimateSource::Exact,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
            ],
        );
        let hist = registry.histogram(
            "qprog_estimate_q_error",
            "",
            &[("estimator", "off")],
            &Q_ERROR_BUCKETS,
        );
        assert_eq!(hist.count(), 0);
    }

    #[test]
    fn finished_operators_accumulate_tuple_counts() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        sink.set_op_names(vec!["scan(nation)".into(), "hash_join".into()]);
        publish_all(
            &sink,
            &[
                TraceEventKind::OperatorFinished { op: 0, emitted: 25 },
                TraceEventKind::OperatorFinished {
                    op: 1,
                    emitted: 500,
                },
            ],
        );
        let text = registry.render();
        assert!(text.contains("qprog_operator_tuples_total{estimator=\"once\"} 525"));
        assert!(text.contains("qprog_operator_emitted_total{op=\"hash_join\"} 500"));
        assert!(text.contains("qprog_operator_emitted_total{op=\"scan(nation)\"} 25"));
    }

    #[test]
    fn aborts_and_degradations_are_counted_by_reason() {
        use qprog_exec::trace::{AbortKind, DegradeReason};
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        publish_all(
            &sink,
            &[
                TraceEventKind::QueryAborted {
                    reason: AbortKind::Cancelled,
                    rows: 10,
                },
                TraceEventKind::QueryAborted {
                    reason: AbortKind::OperatorPanic,
                    rows: 0,
                },
                TraceEventKind::EstimatorDegraded {
                    op: 1,
                    reason: DegradeReason::HistogramMemory,
                },
            ],
        );
        let text = registry.render();
        assert!(
            text.contains("qprog_queries_failed_total{estimator=\"once\",reason=\"cancelled\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qprog_queries_failed_total{estimator=\"once\",reason=\"panic\"} 1"),
            "{text}"
        );
        assert!(
            text.contains(
                "qprog_estimator_degraded_total{estimator=\"once\",\
                 reason=\"histogram_memory\"} 1"
            ),
            "{text}"
        );
        assert!(text.contains("qprog_trace_events_total{event=\"query_aborted\"} 2"));
        // aborted queries are not "finished"
        assert!(!text.contains("qprog_queries_finished_total{estimator=\"once\"} 1"));
    }

    #[test]
    fn worker_wall_time_resolves_lazily() {
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        sink.set_op_names(vec!["hash_join".into()]);
        // A serial query publishes no worker events → no parallel series.
        let before = registry.render();
        assert!(!before.contains("worker"), "{before}");
        publish_all(
            &sink,
            &[
                TraceEventKind::WorkerWallTime {
                    op: 0,
                    worker: 0,
                    busy_us: 1500,
                },
                TraceEventKind::WorkerWallTime {
                    op: 0,
                    worker: 1,
                    busy_us: 2500,
                },
            ],
        );
        let text = registry.render();
        assert!(
            text.contains("qprog_trace_events_total{event=\"worker_wall_time\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qprog_worker_busy_us{op=\"hash_join\",worker=\"0\"} 1500"),
            "{text}"
        );
        assert!(
            text.contains("qprog_worker_busy_us{op=\"hash_join\",worker=\"1\"} 2500"),
            "{text}"
        );
    }

    #[test]
    fn health_transitions_resolve_lazily() {
        use qprog_exec::trace::{HealthReason, HealthState};
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        // No analyzer attached → no health series in the exposition.
        let before = registry.render();
        assert!(!before.contains("health"), "{before}");
        publish_all(
            &sink,
            &[
                TraceEventKind::HealthTransition {
                    from: HealthState::Healthy,
                    to: HealthState::Stalled,
                    reason: HealthReason::Stall,
                },
                TraceEventKind::HealthTransition {
                    from: HealthState::Stalled,
                    to: HealthState::Healthy,
                    reason: HealthReason::Recovered,
                },
            ],
        );
        let text = registry.render();
        assert!(
            text.contains("qprog_trace_events_total{event=\"health_transition\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qprog_health_transitions_total{reason=\"stall\",state=\"stalled\"} 1")
                || text.contains(
                    "qprog_health_transitions_total{state=\"stalled\",reason=\"stall\"} 1"
                ),
            "{text}"
        );
    }

    #[test]
    fn regressions_resolve_lazily() {
        use qprog_exec::trace::RegressionKind;
        let registry = Arc::new(Registry::new());
        let sink = MetricsSink::new(Arc::clone(&registry), "once");
        // No corpus attached → no regression series in the exposition.
        let before = registry.render();
        assert!(!before.contains("regression"), "{before}");
        publish_all(
            &sink,
            &[
                TraceEventKind::RegressionDetected {
                    kind: RegressionKind::MeanAbsErr,
                    observed: 0.3,
                    baseline: 0.02,
                    threshold: 0.05,
                },
                TraceEventKind::RegressionDetected {
                    kind: RegressionKind::WallTime,
                    observed: 9e6,
                    baseline: 1e6,
                    threshold: 2e6,
                },
            ],
        );
        let text = registry.render();
        assert!(
            text.contains("qprog_trace_events_total{event=\"regression_detected\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qprog_regressions_total{kind=\"mean_abs_err\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("qprog_regressions_total{kind=\"wall_time\"} 1"),
            "{text}"
        );
    }

    #[test]
    fn two_sinks_aggregate_into_one_registry() {
        let registry = Arc::new(Registry::new());
        let a = Arc::new(MetricsSink::new(Arc::clone(&registry), "once"));
        let b = Arc::new(MetricsSink::new(Arc::clone(&registry), "once"));
        let bus_a = EventBus::with_sink(Arc::clone(&a) as _);
        let bus_b = EventBus::with_sink(Arc::clone(&b) as _);
        bus_a.publish(TraceEventKind::QueryFinished { rows: 1 });
        bus_b.publish(TraceEventKind::QueryFinished { rows: 2 });
        let text = registry.render();
        assert!(text.contains("qprog_queries_finished_total{estimator=\"once\"} 2"));
        assert!(text.contains("qprog_query_rows_total{estimator=\"once\"} 3"));
    }
}
