//! Full observability run of TPC-H Q8: JSONL event trace, progress
//! timeline, invariant validation, and an EXPLAIN ANALYZE report.
//!
//! Demonstrates the whole `qprog-obs` surface on the paper's Fig. 8
//! workload (the 8-table join pipeline over skewed TPC-H-lite):
//!
//! - every trace event streams to `results/trace_q8.jsonl` as one JSON
//!   line,
//! - a [`ValidatorSink`] checks the progress model's invariants live,
//! - a [`TimelineRecorder`] subscribed to the query's progress
//!   publications records per-operator `(K_i, N_i)` trajectories to
//!   `results/trace_q8_timeline.csv`,
//! - after completion, an EXPLAIN ANALYZE report compares actual vs
//!   optimizer vs online cardinalities per operator with q-errors and
//!   phase wall-times.
//!
//! ```sh
//! cargo run --release --example trace_q8
//! ```

use std::fs::File;
use std::io::BufWriter;
use std::sync::Arc;

use qprog::obs::timeline::TimelineRecorder;
use qprog::prelude::*;
use qprog::workloads::q8_plan;
use qprog_datagen::{TpchConfig, TpchGenerator};

fn main() -> QResult<()> {
    eprintln!("generating TPC-H-lite (scale 0.02, Zipf z=2 foreign keys)...");
    let catalog = TpchGenerator::new(TpchConfig {
        scale: 0.02,
        skew: 2.0,
        seed: 8,
    })
    .catalog()?;

    // Compile the plan once untraced to learn operator names for the JSONL
    // annotations (registration order is deterministic).
    let probe_session = Session::new(catalog.clone());
    let probe = probe_session.query_plan(q8_plan(probe_session.builder())?)?;
    let op_names: Vec<String> = probe
        .registry()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();

    // Sinks: bounded in-memory ring (for the report), JSONL file stream,
    // and the debug invariant validator.
    let ring = Arc::new(RingSink::with_capacity(1 << 14));
    std::fs::create_dir_all("results").map_err(|e| QError::plan(e.to_string()))?;
    let jsonl_path = "results/trace_q8.jsonl";
    let jsonl = Arc::new(
        JsonlSink::new(BufWriter::new(
            File::create(jsonl_path).map_err(|e| QError::plan(e.to_string()))?,
        ))
        .with_op_names(op_names),
    );
    let validator = Arc::new(ValidatorSink::new());
    let bus = EventBus::builder()
        .sink(Arc::clone(&ring) as _)
        .sink(Arc::clone(&jsonl) as _)
        .sink(Arc::clone(&validator) as _)
        .build();

    let session = SessionBuilder::new(catalog)
        .observability(Observability::new().with_trace(Arc::clone(&bus)))
        .build()?;
    let plan = q8_plan(session.builder())?;
    let mut query = session.query_plan(plan)?;

    // Timeline recorder subscribed to the query's progress publications
    // (in-thread, every 0.1% of the estimated work); it also publishes
    // pipeline start/finish events to the bus as it observes them.
    let timeline = TimelineRecorder::new(query.tracker())
        .with_bus(Arc::clone(&bus))
        .attach(query.compiled());

    let rows = query.collect()?;
    let log = timeline.log();

    println!("market volume by order year:");
    for row in &rows {
        println!("  {row}");
    }
    println!();

    let events = ring.drain();
    println!("{}", query.explain_analyze(&events));

    let csv_path = "results/trace_q8_timeline.csv";
    std::fs::write(csv_path, log.to_csv()).map_err(|e| QError::plan(e.to_string()))?;
    println!(
        "trace: {} events -> {jsonl_path} ({} dropped by ring)",
        bus.published(),
        ring.dropped()
    );
    println!("timeline: {} publications -> {csv_path}", log.len());
    println!(
        "monotonicity regressions (>1% fraction drop): {}",
        log.monotonicity_violations(0.01)
    );
    match validator.is_clean() {
        true => println!("validator: all progress invariants held"),
        false => {
            println!("validator: VIOLATIONS");
            for v in validator.violations() {
                println!("  {v}");
            }
        }
    }
    Ok(())
}
