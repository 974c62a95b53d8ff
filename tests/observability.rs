//! End-to-end observability: a traced hash-join query streaming JSONL
//! events, checked for estimate convergence, invariant cleanliness, and
//! timeline capture.

use std::io::Write;
use std::sync::{Arc, Mutex};

use qprog::obs::timeline::TimelineRecorder;
use qprog::prelude::*;
use qprog::types::json::raw as raw_field;

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
        "customer", 5000, 1.0, 100, 1,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 100))
        .unwrap();
    c
}

#[test]
fn jsonl_trace_shows_estimates_converging_to_exact_cardinality() {
    let buf = SharedBuf::default();
    let jsonl = Arc::new(JsonlSink::new(buf.clone()));
    let validator = Arc::new(ValidatorSink::new());
    let bus = EventBus::builder()
        .sink(Arc::clone(&jsonl) as _)
        .sink(Arc::clone(&validator) as _)
        .build();

    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().with_trace(bus))
        .build()
        .unwrap();
    let mut h = session
        .query(
            "SELECT * FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey",
        )
        .unwrap();
    let actual = h.collect().unwrap().len() as f64;
    assert_eq!(actual, 5000.0);

    let text = buf.text();
    let lines: Vec<&str> = text.lines().collect();
    assert!(!lines.is_empty());

    // The hash join's registry index, recovered from the trace itself: the
    // op that transitions build -> probe.
    let join_op = lines
        .iter()
        .find(|l| {
            raw_field(l, "event") == Some("phase_transition") && raw_field(l, "to") == Some("probe")
        })
        .and_then(|l| raw_field(l, "op"))
        .expect("hash join publishes a build->probe transition")
        .to_string();
    let join_refinements: Vec<(&str, f64)> = lines
        .iter()
        .filter(|l| {
            raw_field(l, "event") == Some("estimate_refined")
                && raw_field(l, "op") == Some(&join_op)
        })
        .map(|l| {
            (
                raw_field(l, "source").unwrap(),
                raw_field(l, "new").unwrap().parse::<f64>().unwrap(),
            )
        })
        .collect();

    // First publication is the optimizer's compile-time estimate; the
    // framework then refines online and lands exactly on the true
    // cardinality when the join finishes.
    assert!(join_refinements.len() >= 2, "{join_refinements:?}");
    assert_eq!(join_refinements[0].0, "optimizer");
    let (last_source, last_estimate) = *join_refinements.last().unwrap();
    assert_eq!(last_source, "exact");
    assert_eq!(last_estimate, actual);

    // §4.1: the `once` estimate has converged by the end of the probe
    // partitioning pass — the last estimate published before the
    // probe -> partition_join transition is already within the trace
    // batching tolerance of the true cardinality.
    let probe_end = lines
        .iter()
        .position(|l| {
            raw_field(l, "event") == Some("phase_transition")
                && raw_field(l, "op") == Some(&join_op)
                && raw_field(l, "to") == Some("partition_join")
        })
        .expect("probe -> partition_join transition");
    let at_probe_end = lines[..probe_end]
        .iter()
        .rfind(|l| {
            raw_field(l, "event") == Some("estimate_refined")
                && raw_field(l, "op") == Some(&join_op)
        })
        .and_then(|l| raw_field(l, "new"))
        .unwrap()
        .parse::<f64>()
        .unwrap();
    let rel_err = (at_probe_end - actual).abs() / actual;
    assert!(
        rel_err < 0.02,
        "estimate at end of probe pass = {at_probe_end}, actual = {actual}"
    );

    // The trace closes with the query's row count, and no event violated a
    // progress invariant.
    let last = lines.last().unwrap();
    assert_eq!(raw_field(last, "event"), Some("query_finished"));
    assert_eq!(raw_field(last, "rows"), Some("5000"));
    assert!(validator.is_clean(), "{:?}", validator.violations());
}

#[test]
fn ring_timeline_and_explain_cover_a_monitored_query() {
    let ring = Arc::new(RingSink::with_capacity(1 << 12));
    let bus = EventBus::with_sink(Arc::clone(&ring) as _);
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().with_trace(Arc::clone(&bus)))
        .build()
        .unwrap();
    let mut h = session
        .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
        .unwrap();

    let timeline = TimelineRecorder::new(h.tracker())
        .with_bus(bus)
        .attach(h.compiled());
    let rows = h.collect().unwrap();
    let log = timeline.log();
    assert_eq!(rows.len(), 100);

    // Timeline: the run was seen in flight, progress never regresses, the
    // terminal point is complete, and exports carry every operator column.
    let inside = log
        .points()
        .iter()
        .filter(|p| p.fraction > 0.0 && p.fraction < 1.0)
        .count();
    assert!(inside >= 5, "{}", log.to_csv());
    assert_eq!(log.monotonicity_violations(0.01), 0);
    let last = log.points().last().unwrap();
    assert_eq!(last.fraction, 1.0);
    let header = log.to_csv().lines().next().unwrap().to_string();
    for name in log.op_names() {
        assert!(header.contains(name), "{header}");
    }

    // EXPLAIN ANALYZE over the drained ring reports exact convergence for
    // every finished operator.
    let events = ring.drain();
    assert!(!events.is_empty());
    assert_eq!(ring.dropped(), 0);
    let report = h.explain_analyze(&events);
    assert!(report.contains("-> hash_agg"), "{report}");
    assert!(report.contains("actual: 100 rows"), "{report}");
    assert!(report.contains("-> scan(customer)"), "{report}");
    assert!(!report.contains("unfinished"), "{report}");
}
