//! Continuous progress-quality scorecard: the fixed workload matrix
//! (TPC-H Q8 under Zipf-2 skew, plus a skewed hash-join aggregate) runs
//! under every estimator (`once` / `dne` / `byte`) and every observability
//! configuration (trace off, JSONL trace, metrics sink, full monitor
//! registration), producing:
//!
//! - throughput (driver tuples/s) and per-configuration overhead vs the
//!   untraced baseline, measured with interleaved minimum-of-runs timing,
//! - progress-quality scores from a traced run's own progress
//!   publications: mean/max absolute progress error against the
//!   retrospective oracle, monotonicity violations, convergence point, and
//!   final-estimate q-errors ([`qprog::obs::score_events`]).
//!
//! The matrix is written to **`BENCH_progress.json`** at the repo root so
//! CI can archive the trajectory of progress quality and tracing cost over
//! time. Set `QPROG_SCORECARD_MAX_OVERHEAD_PCT` (e.g. `5`) to turn the
//! aggregate JSONL-trace overhead into a hard gate: the bench exits
//! non-zero when the overhead exceeds the bound.

use std::sync::Arc;
use std::time::Duration;

use qprog::monitor::{PhaseSink, QueryDirectory};
use qprog::obs::{Corpus, CorpusConfig, ProgressScore, RunMeta};
use qprog::plan::physical::{compile, compile_traced, CompiledQuery, PhysicalOptions};
use qprog::plan::{LogicalPlan, PlanBuilder};
use qprog::prelude::*;
use qprog::workloads::q8_plan;
use qprog_bench::{
    banner, interleaved_min_times, ms, overhead_pct, paper_note, print_table, results_dir,
    write_bench_json, Scale,
};
use qprog_datagen::{TpchConfig, TpchGenerator};
use qprog_exec::ops::agg::AggFunc;

/// One workload of the fixed matrix: a name and a reusable logical plan.
struct Workload {
    name: &'static str,
    plan: LogicalPlan,
}

/// TPC-H Q8 on the Zipf-2 database (the paper's Fig. 8 setup).
fn q8_workload(scale: Scale) -> Workload {
    let catalog = TpchGenerator::new(TpchConfig {
        scale: scale.q8_sf(),
        skew: 2.0,
        seed: 88,
    })
    .catalog()
    .expect("tpch catalog");
    let builder = PlanBuilder::new(catalog);
    Workload {
        name: "q8",
        plan: q8_plan(&builder).expect("q8 plan"),
    }
}

/// Skewed hash-join + aggregate: Zipf-2 customers against a small
/// dimension, grouped back down to the dimension key.
fn skew_join_workload(scale: Scale) -> Workload {
    let mut catalog = Catalog::new();
    catalog
        .register(qprog::datagen::customer_table(
            "customer",
            scale.accuracy_rows(),
            2.0,
            400,
            11,
        ))
        .expect("customer");
    catalog
        .register(qprog::datagen::nation_table("nation", 400))
        .expect("nation");
    let builder = PlanBuilder::new(catalog);
    let plan = builder
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
    Workload {
        name: "skew_join",
        plan,
    }
}

fn opts(mode: EstimationMode) -> PhysicalOptions {
    PhysicalOptions {
        mode,
        sample_fraction: 0.10,
        ..PhysicalOptions::default()
    }
}

/// Compile and drain a query, returning the driver-tuple count `C(Q)`.
fn drain(mut q: CompiledQuery) -> u64 {
    let tracker = q.tracker();
    q.collect().expect("workload run");
    tracker.snapshot().current()
}

/// The four observability configurations timed against each other.
const CONFIGS: [&str; 4] = ["off", "trace", "metrics", "monitor"];

/// Minimum wall time per configuration, interleaved across repetitions.
fn time_configs(plan: &LogicalPlan, mode: EstimationMode, runs: usize) -> Vec<Duration> {
    let popts = opts(mode);
    let metrics_registry = Arc::new(Registry::new());
    let monitor_registry = Arc::new(Registry::new());
    let directory = Arc::new(QueryDirectory::new(Some(&monitor_registry)));
    let closures: Vec<Box<dyn FnMut() + '_>> = vec![
        // off: no bus at all — the single-branch untraced fast path.
        Box::new(|| {
            drain(compile(plan, &popts).expect("compile"));
        }),
        // trace: every event serialized as JSONL (into the null writer, so
        // the cost measured is stamping + encoding, not disk).
        Box::new(|| {
            let sink = Arc::new(JsonlSink::new(std::io::sink()));
            let bus = EventBus::builder().sink(sink as _).build();
            drain(compile_traced(plan, &popts, Some(bus)).expect("compile"));
        }),
        // metrics: events aggregated into Prometheus counters/histograms.
        Box::new(|| {
            let sink = Arc::new(MetricsSink::new(
                Arc::clone(&metrics_registry),
                mode.label(),
            ));
            let bus = EventBus::builder().sink(sink as _).build();
            drain(compile_traced(plan, &popts, Some(bus)).expect("compile"));
        }),
        // monitor: metrics + phase tracking + live directory registration
        // (whose progress cell subscribes to the query's publications),
        // i.e. everything the HTTP monitor needs.
        Box::new(|| {
            let sink = Arc::new(MetricsSink::new(
                Arc::clone(&monitor_registry),
                mode.label(),
            ));
            let phases = Arc::new(PhaseSink::new());
            let bus = EventBus::builder()
                .sink(sink as _)
                .sink(Arc::clone(&phases) as _)
                .build();
            let mut q = compile_traced(plan, &popts, Some(bus)).expect("compile");
            let monitored = directory.register("scorecard", mode.label(), &q, phases, None);
            q.collect().expect("workload run");
            drop(monitored);
        }),
    ];
    interleaved_min_times(runs, closures)
}

/// One traced run with publication on, scored from its `ProgressSampled`
/// events against the retrospective oracle; also returns the driver-tuple
/// count. With a corpus, the run is archived under `results/` so repeated
/// bench invocations accumulate a scorecard history (and eventually
/// exercise the retention cap) that the regression baselines run against.
fn quality(
    plan: &LogicalPlan,
    mode: EstimationMode,
    corpus: Option<&Corpus>,
    workload: &str,
) -> (ProgressScore, u64) {
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let bus = EventBus::builder().sink(Arc::clone(&ring) as _).build();
    let mut q = compile_traced(plan, &opts(mode), Some(bus)).expect("compile");
    let tracker = q.tracker();
    q.on_progress(|_| {});
    q.collect().expect("workload run");
    let events = ring.drain();
    if let Some(corpus) = corpus {
        let op_names: Vec<String> = q.registry().iter().map(|(n, _)| n.to_string()).collect();
        let meta = RunMeta::new(workload, mode.label());
        match corpus.archive(&meta, &events, &op_names) {
            Ok(run) => {
                for r in &run.regressions {
                    println!(
                        "  REGRESSION {}: {:.4} > threshold {:.4} (baseline {:.4})",
                        r.kind, r.observed, r.threshold, r.baseline
                    );
                }
            }
            Err(e) => println!("  (corpus archive failed: {e})"),
        }
    }
    (
        qprog::obs::score_events(&events),
        tracker.snapshot().current(),
    )
}

/// Batch-vs-tuple throughput for one workload: the untraced `off`
/// configuration timed in strict tuple-at-a-time mode (`batch_rows = 1`)
/// against the vectorized default, interleaved minimum-of-runs.
struct BatchSpeedup {
    workload: &'static str,
    tuples: u64,
    batch_rows: usize,
    tuple_time: Duration,
    batch_time: Duration,
}

impl BatchSpeedup {
    fn rows_per_s(tuples: u64, t: Duration) -> f64 {
        let s = t.as_secs_f64();
        if s == 0.0 {
            0.0
        } else {
            tuples as f64 / s
        }
    }

    fn tuple_rows_per_s(&self) -> f64 {
        Self::rows_per_s(self.tuples, self.tuple_time)
    }

    fn batch_rows_per_s(&self) -> f64 {
        Self::rows_per_s(self.tuples, self.batch_time)
    }

    fn speedup(&self) -> f64 {
        let b = self.batch_time.as_secs_f64();
        if b == 0.0 {
            0.0
        } else {
            self.tuple_time.as_secs_f64() / b
        }
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"workload\":\"{}\",\"tuples\":{},\"batch_rows\":{},\
             \"tuple_rows_per_s\":{:.0},\"batch_rows_per_s\":{:.0},\
             \"speedup\":{:.2}}}",
            self.workload,
            self.tuples,
            self.batch_rows,
            self.tuple_rows_per_s(),
            self.batch_rows_per_s(),
            self.speedup(),
        )
    }
}

fn measure_batch_speedup(w: &Workload, runs: usize) -> BatchSpeedup {
    let tuple_opts = PhysicalOptions {
        batch_rows: 1,
        ..opts(EstimationMode::Once)
    };
    let batch_opts = opts(EstimationMode::Once);
    let tuples = drain(compile(&w.plan, &batch_opts).expect("compile"));
    let closures: Vec<Box<dyn FnMut() + '_>> = vec![
        Box::new(|| {
            drain(compile(&w.plan, &tuple_opts).expect("compile"));
        }),
        Box::new(|| {
            drain(compile(&w.plan, &batch_opts).expect("compile"));
        }),
    ];
    let times = interleaved_min_times(runs, closures);
    BatchSpeedup {
        workload: w.name,
        tuples,
        batch_rows: batch_opts.batch_rows,
        tuple_time: times[0],
        batch_time: times[1],
    }
}

/// One row of the scorecard matrix.
struct Entry {
    workload: &'static str,
    estimator: &'static str,
    tuples: u64,
    times: Vec<Duration>,
    score: ProgressScore,
}

impl Entry {
    fn overhead(&self, config: usize) -> f64 {
        let off = self.times[0].as_secs_f64();
        if off == 0.0 {
            return 0.0;
        }
        (self.times[config].as_secs_f64() / off - 1.0) * 100.0
    }

    fn rows_per_s(&self) -> f64 {
        let off = self.times[0].as_secs_f64();
        if off == 0.0 {
            return 0.0;
        }
        self.tuples as f64 / off
    }

    fn to_json(&self) -> String {
        let times: Vec<String> = CONFIGS
            .iter()
            .enumerate()
            .map(|(i, c)| format!("\"{c}_ms\":{:.3}", self.times[i].as_secs_f64() * 1e3))
            .collect();
        let overheads: Vec<String> = CONFIGS
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, c)| format!("\"{c}_overhead_pct\":{:.2}", self.overhead(i)))
            .collect();
        format!(
            "{{\"workload\":\"{}\",\"estimator\":\"{}\",\"tuples\":{},\
             \"rows_per_s\":{:.0},{},{},\"quality\":{}}}",
            self.workload,
            self.estimator,
            self.tuples,
            self.rows_per_s(),
            times.join(","),
            overheads.join(","),
            self.score.to_json(),
        )
    }
}

fn main() {
    let scale = Scale::detect();
    banner(
        "scorecard",
        "progress-quality scorecard: workload matrix x estimator x observability",
        scale,
    );
    let runs = if scale.full { 5 } else { 7 };
    let modes = [
        ("once", EstimationMode::Once),
        ("dne", EstimationMode::Dne),
        ("byte", EstimationMode::Byte),
    ];

    println!("generating workloads...");
    let workloads = [q8_workload(scale), skew_join_workload(scale)];

    // Every quality run is archived into a persistent corpus under
    // results/, so reruns build a baseline history per (workload,
    // estimator) and progress-quality regressions get flagged right in the
    // bench output. The cap is a few invocations of the 6-entry matrix, so
    // sustained use also exercises oldest-run eviction.
    let corpus = Corpus::open_with(
        results_dir().join("scorecard_corpus"),
        CorpusConfig {
            max_runs: 30,
            ..CorpusConfig::default()
        },
    )
    .map_err(|e| println!("(scorecard corpus unavailable: {e})"))
    .ok();

    let mut entries: Vec<Entry> = Vec::new();
    for w in &workloads {
        for (label, mode) in modes {
            println!("running {} [{label}]...", w.name);
            let (score, tuples) = quality(&w.plan, mode, corpus.as_ref(), w.name);
            let times = time_configs(&w.plan, mode, runs);
            entries.push(Entry {
                workload: w.name,
                estimator: label,
                tuples,
                times,
                score,
            });
        }
    }

    let rows: Vec<Vec<String>> = entries
        .iter()
        .map(|e| {
            vec![
                e.workload.to_string(),
                e.estimator.to_string(),
                ms(e.times[0]),
                overhead_pct(e.times[0], e.times[1]),
                overhead_pct(e.times[0], e.times[2]),
                overhead_pct(e.times[0], e.times[3]),
                format!("{:.0}k/s", e.rows_per_s() / 1e3),
                format!("{:.3}", e.score.mean_abs_err),
                e.score
                    .convergence
                    .map_or("never".into(), |c| format!("{:.0}%", c * 100.0)),
                e.score.monotonicity_violations.to_string(),
                format!("{:.2}", e.score.q_error.mean),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "estimator",
            "off ms",
            "trace",
            "metrics",
            "monitor",
            "tuples/s",
            "mean|err|",
            "conv",
            "mono",
            "qerr",
        ],
        &rows,
    );

    // Batch-vs-tuple throughput: the vectorized engine against strict
    // per-row mode, per workload, on the untraced fast path.
    println!("\nmeasuring batch speedup (tuple mode vs batch_rows default)...");
    let speedups: Vec<BatchSpeedup> = workloads
        .iter()
        .map(|w| measure_batch_speedup(w, runs))
        .collect();
    let speedup_rows: Vec<Vec<String>> = speedups
        .iter()
        .map(|s| {
            vec![
                s.workload.to_string(),
                s.batch_rows.to_string(),
                format!("{:.0}k/s", s.tuple_rows_per_s() / 1e3),
                format!("{:.0}k/s", s.batch_rows_per_s() / 1e3),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    print_table(
        &[
            "workload",
            "batch_rows",
            "tuple rows/s",
            "batch rows/s",
            "speedup",
        ],
        &speedup_rows,
    );

    // Aggregate trace overhead across the whole matrix: total best-of-runs
    // traced time vs total untraced time.
    let total = |i: usize| {
        entries
            .iter()
            .map(|e| e.times[i].as_secs_f64())
            .sum::<f64>()
    };
    let (off_total, trace_total) = (total(0), total(1));
    let aggregate_overhead = if off_total > 0.0 {
        (trace_total / off_total - 1.0) * 100.0
    } else {
        0.0
    };
    let worst_mean_err = entries
        .iter()
        .map(|e| e.score.mean_abs_err)
        .fold(0.0, f64::max);
    println!(
        "\naggregate JSONL-trace overhead: {aggregate_overhead:+.2}% \
         (off {:.1} ms, traced {:.1} ms); worst mean|err| {worst_mean_err:.3}",
        off_total * 1e3,
        trace_total * 1e3,
    );

    let min_speedup = speedups
        .iter()
        .map(BatchSpeedup::speedup)
        .fold(f64::INFINITY, f64::min);
    let json = format!(
        "{{\n  \"bench\": \"progress_scorecard\",\n  \"scale\": \"{}\",\n  \
         \"runs\": {runs},\n  \"configs\": [{}],\n  \"entries\": [\n    {}\n  ],\n  \
         \"batch\": [\n    {}\n  ],\n  \
         \"aggregate\": {{\"trace_overhead_pct\": {aggregate_overhead:.2}, \
         \"worst_mean_abs_err\": {worst_mean_err:.4}, \
         \"min_batch_speedup\": {min_speedup:.2}}}\n}}\n",
        if scale.full { "full" } else { "quick" },
        CONFIGS
            .iter()
            .map(|c| format!("\"{c}\""))
            .collect::<Vec<_>>()
            .join(", "),
        entries
            .iter()
            .map(Entry::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
        speedups
            .iter()
            .map(BatchSpeedup::to_json)
            .collect::<Vec<_>>()
            .join(",\n    "),
    );
    write_bench_json("BENCH_progress.json", &json);
    if let Some(corpus) = &corpus {
        println!(
            "(scorecard corpus: {} runs, {} trace bytes at {})",
            corpus.len(),
            corpus.trace_bytes(),
            corpus.dir().display()
        );
    }

    paper_note(&[
        "paper §5.3: tracking overhead stays within a few percent of the \
         untraced run even for multi-join pipelines",
        "expect: once converges earliest with the lowest mean error; dne \
         runs ahead under skew; byte tracks once but weights wide rows more",
        "expect: trace < metrics < monitor overhead ordering, all small; \
         the JSONL trace pays encoding, the monitor adds phase tracking",
    ]);

    // Hard gate: the reporting layer clamps published fractions to their
    // running max, so the scorecard must never observe a regression — any
    // violation means raw estimator wobble leaked past the clamp.
    let violations: usize = entries
        .iter()
        .map(|e| e.score.monotonicity_violations)
        .sum();
    if violations > 0 {
        eprintln!("FAIL: {violations} monotonicity violations in published progress");
        std::process::exit(1);
    }
    println!(
        "monotonicity gate: zero violations across {} entries — ok",
        entries.len()
    );

    // Optional CI gate on the aggregate JSONL-trace overhead.
    if let Ok(bound) = std::env::var("QPROG_SCORECARD_MAX_OVERHEAD_PCT") {
        let bound: f64 = bound.parse().expect("QPROG_SCORECARD_MAX_OVERHEAD_PCT");
        if aggregate_overhead > bound {
            eprintln!(
                "FAIL: aggregate trace overhead {aggregate_overhead:.2}% \
                 exceeds bound {bound:.2}%"
            );
            std::process::exit(1);
        }
        println!("overhead gate: {aggregate_overhead:.2}% <= {bound:.2}% — ok");
    }

    // Optional CI gate on the vectorization win: every workload's batch
    // throughput must be at least `bound`× its tuple-at-a-time throughput.
    if let Ok(bound) = std::env::var("QPROG_BATCH_MIN_SPEEDUP") {
        let bound: f64 = bound.parse().expect("QPROG_BATCH_MIN_SPEEDUP");
        if min_speedup < bound {
            eprintln!("FAIL: batch speedup {min_speedup:.2}x below bound {bound:.2}x");
            std::process::exit(1);
        }
        println!("batch speedup gate: {min_speedup:.2}x >= {bound:.2}x — ok");
    }
}
