//! Batch-vs-serial equivalence suite.
//!
//! The vectorized engine must be *observationally identical* to the
//! tuple-at-a-time engine it replaced:
//!
//! - identical result multisets for any `batch_rows`,
//! - identical converged estimates (`N_i` at completion) for any
//!   `batch_rows`,
//! - monotone clamped progress fractions,
//! - and at `batch_rows = 1` (strict mode) a byte-identical JSONL trace —
//!   checked against golden traces captured from the pre-batch serial
//!   engine (timestamps normalized: `at_us`/`wall_us` are wall-clock noise
//!   and are zeroed on both sides before encoding).
//!
//! Regenerate the goldens with
//! `cargo test --test batch_equivalence -- --ignored regenerate`.

use std::sync::Arc;

use qprog::obs::RingSink;
use qprog::plan::physical::{compile_traced, PhysicalOptions};
use qprog::plan::{LogicalPlan, PlanBuilder};
use qprog::prelude::*;
use qprog::workloads::q8_plan;
use qprog_datagen::{TpchConfig, TpchGenerator};
use qprog_exec::ops::agg::AggFunc;
use qprog_exec::trace::{TraceEvent, TraceEventKind};

/// The fixed workload matrix: TPC-H Q8 under Zipf-2 skew plus the skewed
/// hash-join aggregate (the scorecard pair, at test-sized scale).
fn workloads() -> Vec<(&'static str, LogicalPlan)> {
    let q8_catalog = TpchGenerator::new(TpchConfig {
        scale: 0.004,
        skew: 2.0,
        seed: 88,
    })
    .catalog()
    .expect("tpch catalog");
    let q8_builder = PlanBuilder::new(q8_catalog);
    let q8 = q8_plan(&q8_builder).expect("q8 plan");

    let mut catalog = Catalog::new();
    catalog
        .register(qprog::datagen::customer_table(
            "customer", 4000, 2.0, 80, 11,
        ))
        .expect("customer");
    catalog
        .register(qprog::datagen::nation_table("nation", 80))
        .expect("nation");
    let builder = PlanBuilder::new(catalog);
    let skew = builder
        .scan("customer")
        .expect("scan customer")
        .hash_join(
            builder.scan("nation").expect("scan nation"),
            "nation.nationkey",
            "customer.nationkey",
        )
        .expect("join")
        .aggregate(
            &["nation.nationkey"],
            &[(AggFunc::CountStar, None, "tally")],
        )
        .expect("aggregate");

    vec![("q8", q8), ("skew_join", skew)]
}

const MODES: [(&str, EstimationMode); 3] = [
    ("once", EstimationMode::Once),
    ("dne", EstimationMode::Dne),
    ("byte", EstimationMode::Byte),
];

const BATCH_SIZES: [usize; 3] = [1, 7, 1024];

fn opts(mode: EstimationMode, batch_rows: usize) -> PhysicalOptions {
    PhysicalOptions {
        mode,
        threads: 1,
        batch_rows,
        ..PhysicalOptions::default()
    }
}

/// Zero the wall-clock fields (`at_us`, wall/busy times) that differ
/// between otherwise-identical runs, keeping sequence and every estimate
/// value intact.
fn normalize(events: &[TraceEvent]) -> Vec<TraceEvent> {
    events
        .iter()
        .map(|e| {
            let kind = match e.kind {
                TraceEventKind::OperatorWallTime { op, .. } => {
                    TraceEventKind::OperatorWallTime { op, wall_us: 0 }
                }
                TraceEventKind::WorkerWallTime { op, worker, .. } => {
                    TraceEventKind::WorkerWallTime {
                        op,
                        worker,
                        busy_us: 0,
                    }
                }
                k => k,
            };
            TraceEvent {
                seq: e.seq,
                at_us: 0,
                kind,
            }
        })
        .collect()
}

/// A normalized JSONL rendering of a traced serial run.
fn traced_jsonl(plan: &LogicalPlan, popts: &PhysicalOptions) -> String {
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let bus = EventBus::builder().sink(Arc::clone(&ring) as _).build();
    let mut q = compile_traced(plan, popts, Some(bus)).expect("compile");
    q.collect().expect("run");
    let events = ring.drain();
    let mut out = String::new();
    for e in normalize(&events) {
        out.push_str(&qprog::obs::json::event_to_json(&e, &[]));
        out.push('\n');
    }
    out
}

fn golden_path(workload: &str, mode: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("trace_{workload}_{mode}.jsonl"))
}

/// Regenerates the golden traces (in strict `batch_rows = 1` mode). Run
/// manually (`--ignored regenerate`) only when an intentional estimator or
/// trace change invalidates them; the checked-in goldens were captured
/// from the tuple-at-a-time engine the batch refactor replaced.
#[test]
#[ignore]
fn regenerate_golden_traces() {
    std::fs::create_dir_all(std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden"))
        .unwrap();
    for (name, plan) in &workloads() {
        for (label, mode) in MODES {
            let jsonl = traced_jsonl(plan, &opts(mode, 1));
            std::fs::write(golden_path(name, label), &jsonl).unwrap();
            println!("wrote {name}/{label}: {} bytes", jsonl.len());
        }
    }
}

/// Everything observable about one completed run: the result multiset
/// (sorted debug renderings) and, per operator, the converged `N_i`
/// alongside the exact `K_i` counters it was pinned to.
struct RunFingerprint {
    rows: Vec<String>,
    converged: Vec<(String, f64, u64, u64)>,
}

fn run_fingerprint(plan: &LogicalPlan, popts: &PhysicalOptions) -> RunFingerprint {
    let mut q = compile_traced(plan, popts, None).expect("compile");
    let mut rows: Vec<String> = q
        .collect()
        .expect("run")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    let converged = q
        .tracker()
        .registry()
        .iter()
        .map(|(name, m)| {
            (
                name.to_string(),
                m.estimated_total(),
                m.emitted(),
                m.driver_consumed(),
            )
        })
        .collect();
    RunFingerprint { rows, converged }
}

/// Tentpole invariant: for every workload and estimation mode, any batch
/// capacity produces the same result multiset and the same converged
/// per-operator estimates and counters as strict per-row execution.
#[test]
fn results_and_converged_estimates_identical_across_batch_sizes() {
    let _scenario = qprog::fault::FailScenario::setup();
    for (name, plan) in &workloads() {
        for (label, mode) in MODES {
            let strict = run_fingerprint(plan, &opts(mode, 1));
            assert!(!strict.rows.is_empty(), "{name}/{label}: empty result");
            for batch in BATCH_SIZES {
                let wide = run_fingerprint(plan, &opts(mode, batch));
                assert_eq!(
                    strict.rows, wide.rows,
                    "{name}/{label}: result multiset diverged at batch_rows={batch}"
                );
                assert_eq!(
                    strict.converged, wide.converged,
                    "{name}/{label}: converged estimates diverged at batch_rows={batch}"
                );
            }
        }
    }
}

/// Sort-merge plans over heavily duplicated keys: one merge join (binary
/// `once` estimation, published on a row cadence) and a chain of two
/// (Algorithm-1 push-down, published per probe batch).
fn merge_workloads() -> Vec<(&'static str, LogicalPlan)> {
    let mut catalog = Catalog::new();
    for (name, rows, seed) in [("customer", 3000, 1), ("customer2", 500, 2)] {
        catalog
            .register(qprog::datagen::customer_table(name, rows, 1.5, 40, seed))
            .expect("customer");
    }
    catalog
        .register(qprog::datagen::nation_table("nation", 40))
        .expect("nation");
    let b = PlanBuilder::new(catalog);
    let merge = |probe: LogicalPlan, build: &str| {
        let build_key = format!("{build}.nationkey");
        probe
            .join_build(
                b.scan(build).expect("scan"),
                &build_key,
                "customer.nationkey",
                qprog::plan::JoinAlgo::Merge,
            )
            .expect("merge join")
    };
    let single = merge(b.scan("customer").expect("scan"), "customer2");
    let chain = merge(single.clone(), "nation");
    vec![("merge_join", single), ("merge_chain", chain)]
}

/// What a plan's run looks like from outside: its rows *in output order*,
/// the converged per-operator state, and every online estimate the
/// operators named `publisher` published, in publication order.
#[derive(PartialEq, Debug)]
struct OrderedRun {
    rows: Vec<String>,
    converged: Vec<(String, u64, u64, u64)>,
    published: Vec<(u32, u64)>,
}

fn ordered_run(plan: &LogicalPlan, popts: &PhysicalOptions, publisher: &str) -> OrderedRun {
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let bus = EventBus::builder().sink(Arc::clone(&ring) as _).build();
    let mut q = compile_traced(plan, popts, Some(bus)).expect("compile");
    let rows = q.collect().expect("run");
    let tracker = q.tracker();
    let registry = tracker.registry();
    let publishers: Vec<u32> = (0u32..)
        .zip(registry.iter())
        .filter(|(_, (name, _))| name.contains(publisher))
        .map(|(op, _)| op)
        .collect();
    assert!(!publishers.is_empty(), "no {publisher} in the plan");
    OrderedRun {
        rows: rows.iter().map(|r| format!("{r:?}")).collect(),
        converged: registry
            .iter()
            .map(|(name, m)| {
                let total = m.estimated_total().to_bits();
                (name.to_string(), total, m.emitted(), m.driver_consumed())
            })
            .collect(),
        published: ring
            .drain()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::EstimateRefined {
                    op,
                    new,
                    source: qprog_exec::trace::EstimateSource::Online,
                    ..
                } if publishers.contains(&op) => Some((op, new.to_bits())),
                _ => None,
            })
            .collect(),
    }
}

/// Merge plans produce the same rows in the same order and the same
/// converged estimates at every batch capacity and thread count; a merge
/// join or chain under `once` also publishes the same estimate sequence
/// (its cadence is counted in rows, not batches).
#[test]
fn merge_plans_are_identical_across_batch_sizes_and_threads() {
    let _scenario = qprog::fault::FailScenario::setup();
    for (name, plan) in &merge_workloads() {
        for (label, mode) in MODES {
            let strict = ordered_run(plan, &opts(mode, 1), "merge_join");
            assert!(
                strict.rows.len() > 1000,
                "{name}/{label}: {} rows",
                strict.rows.len()
            );
            assert!(
                strict.published.len() > 8,
                "{name}/{label}: nothing published"
            );
            for batch in [1, 7, 64, 1024] {
                let serial = ordered_run(plan, &opts(mode, batch), "merge_join");
                let what = format!("{name}/{label} at batch_rows={batch}");
                assert!(strict.rows == serial.rows, "{what}: rows or their order");
                assert_eq!(strict.converged, serial.converged, "{what}");
                if mode == EstimationMode::Once {
                    assert_eq!(strict.published, serial.published, "{what}");
                }
                let parallel = PhysicalOptions {
                    threads: 4,
                    ..opts(mode, batch)
                };
                assert!(
                    ordered_run(plan, &parallel, "merge_join") == serial,
                    "{what}: 4 threads diverged from 1"
                );
            }
        }
    }
}

/// The benchmark's `hash_agg_uniform` shape at test size: a hash join on a
/// near-unique key into an aggregate with thousands of groups. Same rows in
/// the same order and same converged estimates at every batch capacity and
/// thread count; the aggregate, whose tracker is handed each input batch
/// whole, publishes the same estimate sequence at 4 threads as at 1 (the
/// parallel join's own mid-flight estimates depend on worker timing).
#[test]
fn join_into_many_group_aggregate_is_identical_across_batch_sizes_and_threads() {
    let _scenario = qprog::fault::FailScenario::setup();
    let mut catalog = Catalog::new();
    let a = qprog::datagen::two_key_table("a", 12_000, 0.0, 3000, 88, 0.0, 1500, 89);
    catalog.register(a).expect("a");
    catalog
        .register(qprog::datagen::nation_table("nation", 3000))
        .expect("nation");
    let b = PlanBuilder::new(catalog);
    let plan = b
        .scan("a")
        .expect("scan a")
        .hash_join(
            b.scan("nation").expect("scan nation"),
            "nation.nationkey",
            "a.custkey",
        )
        .expect("join")
        .aggregate(&["a.nationkey"], &[(AggFunc::CountStar, None, "tally")])
        .expect("aggregate");
    for (label, mode) in MODES {
        let strict = ordered_run(&plan, &opts(mode, 1), "hash_agg");
        assert!(strict.rows.len() > 1400, "{label}: {}", strict.rows.len());
        assert!(strict.published.len() > 8, "{label}: nothing published");
        for batch in [1, 7, 64, 1024] {
            let serial = ordered_run(&plan, &opts(mode, batch), "hash_agg");
            let what = format!("{label} at batch_rows={batch}");
            assert!(strict.rows == serial.rows, "{what}: rows or their order");
            assert_eq!(strict.converged, serial.converged, "{what}");
            let parallel = PhysicalOptions {
                threads: 4,
                ..opts(mode, batch)
            };
            assert!(
                ordered_run(&plan, &parallel, "hash_agg") == serial,
                "{what}: 4 threads diverged from 1"
            );
        }
    }
}

/// Published progress fractions are clamped to `[0, 1]`, never decrease,
/// see the run in flight and end at 1.0, at every batch capacity.
#[test]
fn observed_fractions_are_monotone_and_clamped() {
    let _scenario = qprog::fault::FailScenario::setup();
    for (name, plan) in &workloads() {
        for (label, mode) in MODES {
            for batch in BATCH_SIZES {
                let mut q = compile_traced(plan, &opts(mode, batch), None).expect("compile");
                let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
                let sink = Arc::clone(&seen);
                q.on_progress(move |snap| sink.lock().unwrap().push(snap.fraction()));
                q.collect().expect("run");
                let fractions = seen.lock().unwrap();
                let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
                assert!(
                    inside >= 5,
                    "{name}/{label}/{batch}: {inside} fractions in flight: {fractions:?}"
                );
                assert!(
                    fractions.iter().all(|f| (0.0..=1.0).contains(f)),
                    "{name}/{label}/{batch}: fraction out of [0,1]: {fractions:?}"
                );
                assert!(
                    fractions.windows(2).all(|w| w[0] <= w[1]),
                    "{name}/{label}/{batch}: fractions not monotone: {fractions:?}"
                );
                assert_eq!(
                    *fractions.last().expect("non-empty"),
                    1.0,
                    "{name}/{label}/{batch}: final fraction below 1.0"
                );
            }
        }
    }
}

/// Strict mode (`batch_rows = 1`) reproduces the tuple-at-a-time engine's
/// JSONL trace byte-for-byte, for every workload × estimation mode.
#[test]
fn strict_mode_traces_are_byte_identical_to_serial_goldens() {
    let _scenario = qprog::fault::FailScenario::setup();
    for (name, plan) in &workloads() {
        for (label, mode) in MODES {
            let path = golden_path(name, label);
            let golden = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
            let live = traced_jsonl(plan, &opts(mode, 1));
            assert!(
                golden == live,
                "{name}/{label}: strict-mode trace diverged from the serial golden \
                 ({} golden bytes vs {} live)",
                golden.len(),
                live.len()
            );
        }
    }
}

/// Chaos subset: cooperative cancellation still lands within the 100ms
/// bound when checkpoints are amortized over 1024-row batches.
#[test]
fn cancel_lands_within_100ms_in_wide_batch_mode() {
    use std::time::{Duration, Instant};
    let _scenario = qprog::fault::FailScenario::setup();
    let mut catalog = Catalog::new();
    catalog
        .register(qprog::datagen::customer_table(
            "customer", 50_000, 1.0, 500, 7,
        ))
        .unwrap();
    catalog
        .register(qprog::datagen::nation_table("nation", 500))
        .unwrap();
    let session = SessionBuilder::new(catalog)
        .batch_rows(1024)
        .build()
        .unwrap();
    let mut h = session
        .query(
            "SELECT * FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey",
        )
        .unwrap();
    let token = h.cancellation_token().expect("every query has a token");
    let tracker = h.tracker();
    let worker = std::thread::spawn(move || {
        let err = h.collect().unwrap_err();
        (Instant::now(), err)
    });
    let spin_start = Instant::now();
    while tracker.snapshot().fraction() < 0.005 {
        assert!(
            spin_start.elapsed() < Duration::from_secs(10),
            "query never started"
        );
        std::hint::spin_loop();
    }
    let cancelled_at = Instant::now();
    token.cancel();
    let (returned_at, err) = worker.join().unwrap();
    let latency = returned_at.saturating_duration_since(cancelled_at);
    assert!(
        latency < Duration::from_millis(100),
        "cancellation latency {latency:?} >= 100ms at batch_rows=1024"
    );
    assert!(err.is_cancelled(), "{err}");
}

/// Chaos subset: failpoints amortized to batch boundaries still fire —
/// an injected accumulate fault aborts a wide-batch run with the typed
/// injected error.
#[cfg(feature = "failpoints")]
#[test]
fn injected_faults_fire_at_batch_boundaries() {
    let _scenario = qprog::fault::FailScenario::setup();
    qprog::fault::configure("exec/agg/accumulate", "1*error(chaos: batch fault)").unwrap();
    let (_, plan) = &workloads()[1]; // skew_join ends in an aggregate
    let mut q = compile_traced(plan, &opts(EstimationMode::Once, 1024), None).expect("compile");
    let err = q.collect().unwrap_err();
    assert!(
        err.to_string().contains("batch fault"),
        "expected the injected fault to surface, got: {err}"
    );
}
