//! Replay round-trip: a traced query serialized through the JSONL sink and
//! replayed into fresh sinks must reproduce the live run exactly.
//!
//! The live run drives a JSONL sink, a [`MetricsSink`] over its own
//! registry, and a ring buffer, with a bus-attached [`TimelineRecorder`]
//! subscribed to the query's progress publications, which embed
//! `progress_sampled` snapshots in the trace. The recorded JSONL
//! is then parsed back ([`ReplayedTrace`]) and replayed into a second
//! [`MetricsSink`] over a second registry — the two registries' full
//! Prometheus expositions must be identical, the replayed trace must pass
//! the [`ValidatorSink`] invariants, and the quality scores computed from
//! the live ring and the replayed stream must agree.

use std::io::Write;
use std::sync::{Arc, Mutex};

use qprog::obs::timeline::TimelineRecorder;
use qprog::obs::{score_events, ReplayedTrace};
use qprog::prelude::*;

/// A `Write` target the test can read back while the sink keeps ownership.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 8000, 1.5, 150, 3,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 150))
        .unwrap();
    c
}

const SQL: &str = "SELECT nation.nationkey, count(*) FROM customer \
                   JOIN nation ON customer.nationkey = nation.nationkey \
                   GROUP BY nation.nationkey";

#[test]
fn replayed_trace_reproduces_live_metrics_aggregates() {
    // Operator registry names are only known post-compile, but the JSONL
    // sink must exist before compilation (registration publishes the
    // optimizer estimates). A dry compile of the same plan recovers them
    // deterministically.
    let names: Vec<String> = {
        let session = Session::new(catalog());
        let h = session.query(SQL).unwrap();
        h.registry().iter().map(|(n, _)| n.to_string()).collect()
    };

    // Live run: JSONL + metrics + ring on one bus, with a timeline
    // recorder subscribed so the trace carries progress snapshots.
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlSink::new(buf.clone()).with_op_names(names.clone()));
    let live_registry = Arc::new(Registry::new());
    let live_metrics = Arc::new(MetricsSink::new(Arc::clone(&live_registry), "once"));
    live_metrics.set_op_names(names.clone());
    let ring = Arc::new(RingSink::with_capacity(1 << 14));
    let bus = EventBus::builder()
        .sink(Arc::clone(&jsonl) as _)
        .sink(Arc::clone(&live_metrics) as _)
        .sink(Arc::clone(&ring) as _)
        .build();

    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().with_trace(Arc::clone(&bus)))
        .build()
        .unwrap();
    let mut h = session.query(SQL).unwrap();
    let timeline = TimelineRecorder::new(h.tracker())
        .with_bus(bus)
        .attach(h.compiled());
    let rows = h.collect().unwrap();
    let log = timeline.log();
    // Zipf-skewed customers: tail nations may have no customers at all.
    assert!(!rows.is_empty() && rows.len() <= 150, "{}", rows.len());
    assert!(!log.is_empty());
    assert_eq!(log.points().last().unwrap().fraction, 1.0);

    // Parse the recorded JSONL back.
    let text = buf.text();
    let trace = ReplayedTrace::parse(&text);
    assert!(
        trace.errors.is_empty(),
        "unparseable trace lines: {:?}",
        trace.errors
    );
    assert_eq!(
        trace.events.len(),
        text.lines().count(),
        "every line parsed"
    );
    // Operator names were recovered from the op_name annotations.
    assert_eq!(trace.op_names, names);
    // The embedded progress snapshots made it through.
    assert!(trace.events.iter().any(|e| matches!(
        e.kind,
        qprog::exec::trace::TraceEventKind::ProgressSampled { .. }
    )));
    assert!(trace.events.iter().any(|e| matches!(
        e.kind,
        qprog::exec::trace::TraceEventKind::OperatorWallTime { .. }
    )));

    // Replay into a fresh MetricsSink over a fresh registry: the full
    // Prometheus expositions must match counter for counter, bucket for
    // bucket.
    let replay_registry = Arc::new(Registry::new());
    let replay_metrics = MetricsSink::new(Arc::clone(&replay_registry), "once");
    replay_metrics.set_op_names(trace.op_names.clone());
    trace.replay_into(&replay_metrics);
    let live_text = live_registry.render();
    let replay_text = replay_registry.render();
    assert_eq!(
        live_text, replay_text,
        "replayed aggregates diverge from the live run"
    );
    assert!(live_text.contains("qprog_queries_finished_total{estimator=\"once\"} 1"));
    assert!(live_text.contains("qprog_op_wall_us"));

    // The replayed stream passes the invariant validator.
    let validator = ValidatorSink::new();
    trace.replay_into(&validator);
    assert!(validator.is_clean(), "{:?}", validator.violations());

    // Quality scores agree between the live ring and the replayed file.
    let live_score = score_events(&ring.drain());
    let replay_score = score_events(&trace.events);
    assert_eq!(live_score, replay_score);
    assert_eq!(replay_score.samples, log.len(), "one event per publication");
    assert!(
        replay_score.mean_abs_err.is_finite() && replay_score.mean_abs_err >= 0.0,
        "{replay_score:?}"
    );
}

#[test]
fn health_transitions_round_trip_through_replay() {
    use qprog::exec::trace::{HealthReason, HealthState, TraceEvent, TraceEventKind};

    // A verdict trajectory as the health analyzer would publish it:
    // stall, recovery, then estimate oscillation.
    let kinds = [
        (
            HealthState::Healthy,
            HealthState::Stalled,
            HealthReason::Stall,
        ),
        (
            HealthState::Stalled,
            HealthState::Healthy,
            HealthReason::Recovered,
        ),
        (
            HealthState::Healthy,
            HealthState::Unstable,
            HealthReason::Oscillation,
        ),
    ];
    let buf = SharedBuf::default();
    let jsonl = JsonlSink::new(buf.clone());
    let live_registry = Arc::new(Registry::new());
    let live_metrics = MetricsSink::new(Arc::clone(&live_registry), "once");
    for (i, (from, to, reason)) in kinds.into_iter().enumerate() {
        let event = TraceEvent {
            seq: i as u64,
            at_us: 1_000 * (i as u64 + 1),
            kind: TraceEventKind::HealthTransition { from, to, reason },
        };
        jsonl.publish(&event);
        live_metrics.publish(&event);
    }

    let trace = ReplayedTrace::parse(&buf.text());
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);
    assert_eq!(trace.events.len(), 3);
    // The typed fields survive the serialize/parse round trip exactly.
    assert!(matches!(
        trace.events[0].kind,
        TraceEventKind::HealthTransition {
            from: HealthState::Healthy,
            to: HealthState::Stalled,
            reason: HealthReason::Stall,
        }
    ));
    assert!(matches!(
        trace.events[2].kind,
        TraceEventKind::HealthTransition {
            to: HealthState::Unstable,
            reason: HealthReason::Oscillation,
            ..
        }
    ));

    // Replaying into a fresh MetricsSink reproduces the health counters
    // (and everything else) exactly.
    let replay_registry = Arc::new(Registry::new());
    let replay_metrics = MetricsSink::new(Arc::clone(&replay_registry), "once");
    trace.replay_into(&replay_metrics);
    let live_text = live_registry.render();
    assert_eq!(live_text, replay_registry.render());
    assert!(
        live_text.contains("qprog_health_transitions_total"),
        "{live_text}"
    );

    // Real transitions (from != to) satisfy the validator's invariants.
    let validator = ValidatorSink::new();
    trace.replay_into(&validator);
    assert!(validator.is_clean(), "{:?}", validator.violations());
}
