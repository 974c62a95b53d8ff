//! Concurrency stress for the event → metrics path: N producer threads
//! hammer one [`EventBus`] fanned out to a bounded ring sink and a
//! [`MetricsSink`], while a reader thread snapshots the registry the whole
//! time. Verifies the observability pipeline under contention:
//!
//! - no event is lost (the ring holds every published event, with
//!   contiguous unique sequence numbers),
//! - no *terminal* event is lost (every producer's `QueryFinished` lands
//!   in both the ring and the `qprog_queries_finished_total` counter),
//! - counter snapshots are monotone non-decreasing — a registry snapshot
//!   taken mid-storm never observes a counter moving backwards.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use qprog::exec::trace::{EstimateSource, EventBus, Phase, TraceEventKind};
use qprog::metrics::Registry;
use qprog::obs::{MetricsSink, RingSink};

const PRODUCERS: usize = 8;
const ROUNDS: u64 = 200;

#[test]
fn concurrent_publication_loses_no_events_and_counters_stay_monotone() {
    let registry = Arc::new(Registry::new());
    let metrics = Arc::new(MetricsSink::new(Arc::clone(&registry), "once"));
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let bus = EventBus::builder()
        .sink(Arc::clone(&ring) as _)
        .sink(Arc::clone(&metrics) as _)
        .build();

    let done = Arc::new(AtomicBool::new(false));
    let reader = {
        let registry = Arc::clone(&registry);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let sum_of = |samples: &[qprog::metrics::Sample], name: &str| -> f64 {
                samples
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.value)
                    .sum()
            };
            let (mut last_events, mut last_finished) = (0.0, 0.0);
            let mut snapshots = 0usize;
            // Sample first, test the flag after: a reader first scheduled
            // when the producers are done still takes its one snapshot.
            loop {
                let snap = registry.snapshot();
                let events = sum_of(&snap, "qprog_trace_events_total");
                let finished = sum_of(&snap, "qprog_queries_finished_total");
                assert!(
                    events >= last_events,
                    "qprog_trace_events_total went backwards: {last_events} -> {events}"
                );
                assert!(
                    finished >= last_finished,
                    "qprog_queries_finished_total went backwards: \
                     {last_finished} -> {finished}"
                );
                last_events = events;
                last_finished = finished;
                snapshots += 1;
                if done.load(Ordering::Acquire) {
                    return snapshots;
                }
                thread::yield_now();
            }
        })
    };

    let producers: Vec<_> = (0..PRODUCERS)
        .map(|p| {
            let bus = Arc::clone(&bus);
            thread::spawn(move || {
                let op = p as u32;
                for i in 0..ROUNDS {
                    bus.publish(TraceEventKind::PhaseTransition {
                        op,
                        from: Phase::Build,
                        to: Phase::Probe,
                    });
                    bus.publish(TraceEventKind::EstimateRefined {
                        op,
                        old: i as f64,
                        new: (i + 1) as f64,
                        source: EstimateSource::Online,
                        lo: f64::NAN,
                        hi: f64::NAN,
                    });
                }
                bus.publish(TraceEventKind::OperatorFinished {
                    op,
                    emitted: ROUNDS,
                });
                bus.publish(TraceEventKind::QueryFinished { rows: ROUNDS });
            })
        })
        .collect();
    for t in producers {
        t.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snapshots = reader.join().unwrap();
    assert!(snapshots > 0, "reader never sampled the registry");

    // Nothing lost: the ring holds every event exactly once.
    let expected = PRODUCERS as u64 * (2 * ROUNDS + 2);
    assert_eq!(bus.published(), expected);
    assert_eq!(
        ring.dropped(),
        0,
        "ring overflowed — sizing bug in the test"
    );
    let events = ring.drain();
    assert_eq!(events.len(), expected as usize);
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    assert_eq!(seqs, (0..expected).collect::<Vec<_>>());
    let terminal = events
        .iter()
        .filter(|e| matches!(e.kind, TraceEventKind::QueryFinished { .. }))
        .count();
    assert_eq!(terminal, PRODUCERS, "lost terminal events in the ring");

    // ... and the aggregated counters agree exactly.
    let text = registry.render();
    let expect = [
        format!("qprog_queries_finished_total{{estimator=\"once\"}} {PRODUCERS}"),
        format!(
            "qprog_query_rows_total{{estimator=\"once\"}} {}",
            PRODUCERS as u64 * ROUNDS
        ),
        format!(
            "qprog_operator_tuples_total{{estimator=\"once\"}} {}",
            PRODUCERS as u64 * ROUNDS
        ),
        format!("qprog_trace_events_total{{event=\"query_finished\"}} {PRODUCERS}"),
        format!(
            "qprog_trace_events_total{{event=\"phase_transition\"}} {}",
            PRODUCERS as u64 * ROUNDS
        ),
        format!(
            "qprog_estimate_refinements_total{{source=\"online\"}} {}",
            PRODUCERS as u64 * ROUNDS
        ),
    ];
    for line in &expect {
        assert!(text.contains(line), "missing `{line}` in:\n{text}");
    }
}
