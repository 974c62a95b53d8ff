//! `--trace 1`: the per-layer numbers of a workload's query run
//! in-process, every layer measured from outside through its public
//! functions, plus the traced run that ties self times to the end-to-end
//! time.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use qprog::core::{
    mle_estimate, AttrSource, FreqHist, Gee, JoinSpec, OnceJoinEstimator, PipelineEstimator,
};
use qprog::exec::trace::{TraceEvent, TraceSink};
use qprog::obs::{Corpus, ReplayedTrace, RunMeta, SpanNode, SpanTree};
use qprog::prelude::*;
use qprog::types::{Key, QResult};

use crate::inproc::{
    arms_loop, clients, concurrent_burst, quality_runs, run_query, setup, Arm, ArmSamples, Env,
    QueryRun, RunConfig, SAMPLE_PERIOD,
};
use crate::quality::GridScore;
use crate::report::{Report, Tally};
use crate::stats::{median, quantile};
use crate::trace::{Recorder, LAYER_TRACK};
use crate::workloads::Workload;

/// Operator phases whose durations are read from the program's trace port.
const PHASES: [&str; 7] = [
    "build",
    "probe",
    "partition_join",
    "sort_input",
    "merge",
    "accumulate",
    "emit",
];

/// What the program's own trace port said about one traced query.
struct PortReading {
    events: Vec<TraceEvent>,
    op_names: Vec<String>,
    phase_ms: HashMap<&'static str, f64>,
    op_wall_us_max: f64,
}

fn walk<'a>(node: &'a SpanNode, visit: &mut impl FnMut(&'a SpanNode)) {
    visit(node);
    for c in &node.children {
        walk(c, visit);
    }
}

/// Record the benchmark's spans around one query: `query` → `plan.build`,
/// `plan.compile`, `exec.run`; operator and phase spans from the program's
/// port go on detail tracks under `exec.run`.
fn record_query(
    recorder: &mut Recorder,
    query: u32,
    run: &QueryRun,
    port_epoch_us: f64,
    tree: &SpanTree,
) {
    let (t0, t1, t2, t3) = (
        recorder.us(run.start),
        recorder.us(run.built),
        recorder.us(run.compiled),
        recorder.us(run.done),
    );
    let root = recorder.add("query", query, None, LAYER_TRACK, t0, t3);
    recorder.add("plan.build", query, Some(root), LAYER_TRACK, t0, t1);
    recorder.add("plan.compile", query, Some(root), LAYER_TRACK, t1, t2);
    let exec = recorder.add("exec.run", query, Some(root), LAYER_TRACK, t2, t3);
    walk(&tree.root, &mut |n| {
        let track = match n.track {
            qprog::obs::Track::Operator(op) => 1 + op,
            _ => return,
        };
        recorder.add(
            format!("exec.{}", n.name.replace(' ', ".")),
            query,
            Some(exec),
            track,
            port_epoch_us + n.start_us as f64,
            port_epoch_us + n.end_us as f64,
        );
    });
}

fn read_port(run: &QueryRun, events: Vec<TraceEvent>) -> (PortReading, SpanTree) {
    let op_names: Vec<String> = run
        .handle
        .registry()
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    let tree = SpanTree::from_events(&events, &op_names);
    let mut phase_ms: HashMap<&'static str, f64> = HashMap::new();
    let mut op_wall_us_max = 0.0f64;
    walk(&tree.root, &mut |n| match n.cat {
        "phase" => {
            if let Some(p) = PHASES
                .iter()
                .find(|p| n.name.strip_prefix("phase ") == Some(**p))
            {
                *phase_ms.entry(p).or_insert(0.0) += n.duration_us() as f64 / 1e3;
            }
        }
        "operator" => op_wall_us_max = op_wall_us_max.max(n.duration_us() as f64),
        _ => {}
    });
    (
        PortReading {
            events,
            op_names,
            phase_ms,
            op_wall_us_max,
        },
        tree,
    )
}

fn push_quality(report: &mut Report, label: &str, runs: &[(GridScore, f64)]) {
    let column =
        |f: fn(&GridScore) -> f64| -> Vec<f64> { runs.iter().map(|(s, _)| f(s)).collect() };
    report.push_median(
        &format!("core.{label}.mean_abs_err"),
        "fraction",
        &column(|s| s.mean_abs_err),
    );
    report.push_median(
        &format!("core.{label}.max_abs_err"),
        "fraction",
        &column(|s| s.max_abs_err),
    );
    report.push_median(
        &format!("core.{label}.convergence_frac"),
        "fraction",
        &column(|s| s.convergence_frac),
    );
}

/// Nanoseconds per item of one `pass` over `items`: median of `reps`
/// passes, and the passes.
fn ns_per_item<T>(
    items: &[T],
    reps: usize,
    mut pass: impl FnMut(&[T]) -> QResult<()>,
) -> QResult<(f64, Vec<f64>)> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        pass(items)?;
        samples.push(t0.elapsed().as_secs_f64() * 1e9 / items.len().max(1) as f64);
    }
    Ok((median(&samples), samples))
}

/// Micro-loops over the workload's real key columns through the public
/// estimator types.
fn core_micro(w: &Workload, env: &Env, reps: usize, report: &mut Report) -> QResult<()> {
    let keys = (w.keys)(&env.catalog)?;
    let (lowest_build, lowest_col) = &keys.joins[0];
    let build_keys: Vec<Key> = lowest_build
        .iter()
        .map(|r| r.key(0))
        .collect::<QResult<_>>()?;
    let probe_keys: Vec<Key> = keys
        .probe_rows
        .iter()
        .map(|r| r.key(*lowest_col))
        .collect::<QResult<_>>()?;

    // The histograms a `once` run of this query holds: one per join build
    // side, plus the grouping column's.
    let mut hist_bytes = 0usize;
    for (rows, _) in &keys.joins {
        let mut h = FreqHist::new();
        for r in rows {
            h.observe(&r.key(0)?);
        }
        hist_bytes += h.memory_used();
    }
    let mut group_hist = FreqHist::new();
    for k in &keys.group {
        group_hist.observe(k);
    }
    hist_bytes += group_hist.memory_used();
    report.push("core.hist_bytes", "bytes", hist_bytes as f64);

    let (v, s) = ns_per_item(&probe_keys, reps, |items| {
        let mut h = FreqHist::new();
        for k in items {
            std::hint::black_box(h.observe(k));
        }
        Ok(())
    })?;
    report.push_with("core.freq_hist.observe_ns", "ns", v, &s);

    let (v, s) = ns_per_item(&probe_keys, reps, |items| {
        let mut est = OnceJoinEstimator::from_build_keys(build_keys.iter(), items.len() as u64);
        for k in items {
            std::hint::black_box(est.observe_probe(k));
        }
        std::hint::black_box(est.estimate());
        Ok(())
    })?;
    report.push_with("core.join_est.observe_probe_ns", "ns", v, &s);

    let specs: Vec<JoinSpec> = keys
        .joins
        .iter()
        .map(|(_, col)| JoinSpec {
            build_attr_col: 0,
            probe_attr: AttrSource::Probe { col: *col },
        })
        .collect();
    let (v, s) = ns_per_item(&keys.probe_rows, reps, |rows| {
        let mut est = PipelineEstimator::new(specs.clone(), rows.len() as u64)?;
        for (join, (build, _)) in keys.joins.iter().enumerate().rev() {
            est.feed_build(join, build.iter())?;
        }
        for r in rows {
            est.observe_probe(r)?;
        }
        std::hint::black_box(est.estimate(0));
        Ok(())
    })?;
    report.push_with("core.pipeline_est.observe_probe_ns", "ns", v, &s);

    let (v, s) = ns_per_item(&keys.group, reps, |items| {
        let mut h = FreqHist::new();
        let mut gee = Gee::new(items.len() as u64);
        for k in items {
            gee.observe_transition(h.observe(k));
        }
        std::hint::black_box(gee.estimate());
        Ok(())
    })?;
    report.push_with("core.gee.update_ns", "ns", v, &s);

    // MLE is recomputed from the histogram of a 10% prefix, as the chooser
    // does while the aggregate's input streams.
    let prefix = &keys.group[..keys.group.len() / 10];
    let sample_hist: FreqHist = prefix.iter().collect();
    let mle: Vec<f64> = (0..reps.max(5))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(mle_estimate(&sample_hist, keys.group.len() as u64));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.push_median("core.mle.estimate_us", "us", &mle);
    Ok(())
}

/// Replay one recorded event stream through the observability stack.
fn obs_micro(w: &Workload, env: &Env, port: &PortReading, reps: usize, report: &mut Report) {
    let events = &port.events;
    let n = events.len().max(1) as f64;
    report.push("obs.events", "count", events.len() as f64);

    let mut jsonl = String::new();
    let encode: Vec<f64> = (0..reps)
        .map(|_| {
            jsonl.clear();
            let t0 = Instant::now();
            for e in events {
                qprog::obs::json::write_event_json(&mut jsonl, e, &port.op_names);
                jsonl.push('\n');
            }
            t0.elapsed().as_secs_f64() * 1e9 / n
        })
        .collect();
    report.push("obs.trace_bytes", "bytes", jsonl.len() as f64);
    report.push_median("obs.encode_ns_per_event", "ns", &encode);

    let parse: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(ReplayedTrace::parse(&jsonl));
            t0.elapsed().as_secs_f64() * 1e9 / n
        })
        .collect();
    report.push_median("obs.parse_ns_per_event", "ns", &parse);

    let tree: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(SpanTree::from_events(events, &port.op_names));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    report.push_median("obs.spantree_ms", "ms", &tree);

    if let Ok(corpus) = Corpus::open(env.scratch.path().join("layer-corpus")) {
        let meta = RunMeta::new(w.name, "once");
        let archive: Vec<f64> = (0..reps)
            .filter_map(|_| {
                let t0 = Instant::now();
                corpus.archive(&meta, events, &port.op_names).ok()?;
                Some(t0.elapsed().as_secs_f64() * 1e3)
            })
            .collect();
        report.push_median("obs.corpus.archive_ms", "ms", &archive);
    }

    let registry = Arc::new(Registry::new());
    let sink = MetricsSink::new(Arc::clone(&registry), "once");
    sink.set_op_names(port.op_names.clone());
    for e in events {
        sink.publish(e);
    }
    let expose: Vec<f64> = (0..reps.max(20))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(registry.render());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.push_median("metrics.expose_us", "us", &expose);
    report.push("metrics.series", "count", registry.snapshot().len() as f64);
}

fn storage_and_plan(
    w: &Workload,
    env: &Env,
    once: &ArmSamples,
    reps: usize,
    report: &mut Report,
) -> QResult<()> {
    report.push("datagen.gen_s", "s", env.gen_s);
    let mut rows = 0usize;
    for name in env.catalog.table_names() {
        rows += env.catalog.table(name)?.num_rows();
    }
    report.push("storage.rows", "count", rows as f64);

    // Scan only: the driving table drained through `collect`, no estimation.
    let off = env.session(Arm::Off);
    let table_rows = env.catalog.table(w.scan_table)?.num_rows() as f64;
    let mut scans = Vec::new();
    for _ in 0..reps {
        let plan = off.builder().scan(w.scan_table)?;
        let mut h = off.query_plan(plan)?;
        let t0 = Instant::now();
        let out = h.collect()?;
        scans.push(table_rows / t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    report.push_median("storage.scan_rows_per_s", "rows/s", &scans);

    let us = |v: &[f64]| -> Vec<f64> { v.iter().map(|s| s * 1e6).collect() };
    report.push_median("plan.build_us", "us", &us(&once.build_s));
    report.push_median("plan.compile_us", "us", &us(&once.compile_s));
    let session = env.session(Arm::Once);
    let plan = (w.plan)(session.builder())?;
    report.push("plan.ops", "count", plan.operator_count() as f64);

    // 10^5 reads of a finished query's tracker: what each sampler reading
    // and each monitor tick costs.
    let done = run_query(w, session)?;
    let tracker = done.handle.tracker();
    let t0 = Instant::now();
    for _ in 0..100_000 {
        std::hint::black_box(tracker.snapshot());
    }
    report.push(
        "plan.snapshot_ns",
        "ns",
        t0.elapsed().as_secs_f64() * 1e9 / 1e5,
    );
    Ok(())
}

/// Everything `--trace 1` measures by running the workload's query
/// in-process. `recorder` receives the traced run's spans (the service
/// workload passes `None`: its trace shows the HTTP path instead).
pub fn run_inproc_layers(
    w: &Workload,
    cfg: &RunConfig,
    report: &mut Report,
    mut recorder: Option<&mut Recorder>,
) -> QResult<Tally> {
    let mut arms = vec![Arm::Off, Arm::Once, Arm::Traced, Arm::Dne, Arm::Byte];
    if w.observed_arm {
        arms.push(Arm::Observed);
    }
    let (env, _) = setup(w, cfg, &arms)?;
    let mut tally = Tally::default();
    let reps = cfg.iters.unwrap_or(7);

    // Interleaved arms; the Traced arm's port is drained after every query.
    let (bus, ring) = env.trace_port.clone().expect("Traced arm was set up");
    let mut readings: Vec<PortReading> = Vec::new();
    let mut next_query = 0u32;
    let samples = arms_loop(
        w,
        &env,
        &arms,
        cfg.budget(0.50, 5),
        &mut tally,
        |arm, run| {
            if arm != Arm::Traced {
                return;
            }
            let (reading, tree) = read_port(run, ring.drain());
            if let Some(rec) = recorder.as_deref_mut() {
                let epoch_us = rec.us(bus.epoch());
                record_query(rec, next_query, run, epoch_us, &tree);
                next_query += 1;
            }
            readings.push(reading);
        },
    );
    let (off, once, traced) = (
        &samples[&Arm::Off],
        &samples[&Arm::Once],
        &samples[&Arm::Traced],
    );
    report
        .iterations
        .push(("arms".into(), once.query_s.len() as u64));

    let tuples = once.tuples_per_query();
    let est_self_ms = once.p50_ms() - off.p50_ms();
    report.push("core.est_self_ms", "ms", est_self_ms);
    report.push(
        "core.est_ns_per_tuple",
        "ns",
        est_self_ms * 1e6 / tuples.max(1.0),
    );
    report.push_median("core.dne.query_ms_p50", "ms", &samples[&Arm::Dne].ms());
    report.push_median("core.byte.query_ms_p50", "ms", &samples[&Arm::Byte].ms());
    if recorder.is_some() {
        let ms = once.ms();
        report.push_with("bench.query_ms_p90", "ms", quantile(&ms, 0.90), &ms);
    }
    report.push_median("exec.run_ms_off", "ms", &off.ms());
    report.push("exec.tuples", "count", tuples);
    report.push(
        "exec.tuples_per_s_off",
        "tuples/s",
        off.tuples as f64 / off.query_s.iter().sum::<f64>(),
    );
    if let Some(observed) = samples.get(&Arm::Observed) {
        report.push("obs.cost_ratio", "ratio", observed.p50_ms() / once.p50_ms());
        report.push(
            "obs.observed_self_ms",
            "ms",
            observed.p50_ms() - once.p50_ms(),
        );
    }
    // The service workload's traced run is its HTTP loop; it reports that
    // overhead itself.
    let trace_overhead = (median(&traced.ratios_to(once)) - 1.0) * 100.0;
    if recorder.is_some() {
        report.push("bench.trace_overhead_pct", "%", trace_overhead);
    }

    for phase in PHASES {
        let per_query: Vec<f64> = readings
            .iter()
            .map(|r| r.phase_ms.get(phase).copied().unwrap_or(0.0))
            .collect();
        report.push_median(&format!("exec.phase.{phase}_ms"), "ms", &per_query);
    }
    let walls: Vec<f64> = readings.iter().map(|r| r.op_wall_us_max).collect();
    report.push_median("exec.op_wall_us_max", "us", &walls);
    let q_error_max = readings
        .iter()
        .map(|r| qprog::obs::score_events(&r.events).q_error.max)
        .fold(0.0, f64::max);
    report.push("core.once.q_error_max", "ratio", q_error_max);

    // Progress quality per estimator, on the same work grid.
    let mut violations = 0usize;
    let mut sampled_walls = Vec::new();
    for (arm, label) in [(Arm::Once, "once"), (Arm::Dne, "dne"), (Arm::Byte, "byte")] {
        let runs = quality_runs(w, &env, arm, SAMPLE_PERIOD, cfg.budget(0.07, 3), &mut tally);
        push_quality(report, label, &runs);
        if arm == Arm::Once {
            violations = runs.iter().map(|(s, _)| s.monotonicity_violations).sum();
            sampled_walls = runs.iter().map(|(_, wall)| wall * 1e3).collect();
        }
    }
    report.push(
        "core.once.monotonicity_violations",
        "count",
        violations as f64,
    );
    let sampler_overhead = (median(&sampled_walls) / once.p50_ms() - 1.0) * 100.0;
    report.push("bench.sampler_overhead_pct", "%", sampler_overhead);
    for (name, pct) in [("trace", trace_overhead), ("sampler", sampler_overhead)] {
        if pct > 5.0 {
            report.notes.push(format!(
                "{name} overhead {pct:.1}% exceeds 5%: timings taken under it in this run are flagged"
            ));
        }
    }

    // The service workload bursts over HTTP instead.
    if recorder.is_some() {
        let (jobs_per_s, walls) = concurrent_burst(w, &env, cfg.budget(0.10, 2), &mut tally);
        let rates: Vec<f64> = walls.iter().map(|s| clients() as f64 / s).collect();
        report.push_with("bench.burst_jobs_per_s", "jobs/s", jobs_per_s, &rates);
    }

    storage_and_plan(w, &env, once, reps, report)?;
    core_micro(w, &env, reps, report)?;
    if let Some(port) = readings.last() {
        obs_micro(w, &env, port, reps, report);
    }
    Ok(tally)
}

/// `--trace 1` for the three in-process workloads.
pub fn run_layers(w: &Workload, cfg: &RunConfig) -> QResult<(Report, Recorder)> {
    let mut report = Report::default();
    let mut recorder = Recorder::new();
    report.tally = run_inproc_layers(w, cfg, &mut report, Some(&mut recorder))?;
    report.push(
        "bench.reconcile_gap_pct",
        "%",
        recorder.worst_reconcile_gap() * 100.0,
    );
    Ok((report, recorder))
}
