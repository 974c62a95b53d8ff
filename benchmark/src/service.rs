//! The `service_short` workload: the whole north-star path, `POST /submit`
//! → journal → queue → dispatch → plan → run → SSE terminal frame, driven
//! over real sockets by closed-loop clients.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use qprog::monitor::http::parse_request;
use qprog::monitor::StreamHub;
use qprog::prelude::*;
use qprog::svc::{Journal, PendingEntry, SpanTotals};
use qprog::types::QResult;
use qprog::ServiceRuntime;

use crate::inproc::{
    arms_loop, on_clients, options, push_estimator_metrics, quality_runs, repeat_setup, setup, Arm,
    Env, RunConfig, Scratch, SAMPLE_PERIOD, WARMUP_ITERS,
};
use crate::layers::run_inproc_layers;
use crate::report::{peak_rss_mb, Budget, Report, Tally};
use crate::rng::SplitMix;
use crate::stats::{median, midmean, quantile};
use crate::trace::{Recorder, LAYER_TRACK};
use crate::workloads::{Workload, SERVICE_SQL};

/// Uniform think time between a client's jobs. Without it the closed loop
/// phase-locks to the monitor's 25 ms broadcast tick and the median jumps
/// 26 ↔ 30 ms between runs.
const THINK_MAX_MS: f64 = 50.0;
/// Jobs per client per burst, spread over this many tenants (24 each:
/// under the default per-tenant in-flight cap of 32, and 2 × 96 is under
/// the default queue depth of 256).
const BURST_JOBS: usize = 96;
const BURST_TENANTS: usize = 4;
/// A count(*) query returns one row.
const EXPECTED_ROWS: u64 = 1;
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A started service: monitored session, runtime, journal directory.
struct Served {
    runtime: ServiceRuntime,
    addr: SocketAddr,
    /// Rows every job must report (a count(*) returns one).
    expected_rows: u64,
    _scratch: Scratch,
}

impl Served {
    fn start(catalog: Catalog, cfg: &RunConfig) -> QResult<Served> {
        let scratch = Scratch::new(&cfg.out_dir, "service")
            .map_err(|e| QError::internal(format!("scratch dir: {e}")))?;
        let session = SessionBuilder::new(catalog)
            .options(options(EstimationMode::Once))
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()?;
        let addr = session
            .monitor()
            .expect("serve_on attaches a monitor")
            .addr();
        let runtime = ServiceRuntime::start(
            session,
            scratch.path().join("journal"),
            ServiceConfig {
                workers: 2,
                ..ServiceConfig::default()
            },
        )?;
        Ok(Served {
            runtime,
            addr,
            expected_rows: EXPECTED_ROWS + u64::from(cfg.sabotage),
            _scratch: scratch,
        })
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.runtime.drain();
        if let Some(server) = self.runtime.session().monitor() {
            server.shutdown();
        }
    }
}

/// `POST /submit`; returns the ticket id, or the refusal.
fn submit(addr: SocketAddr, tenant: &str) -> Result<u64, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    let body = format!("{{\"sql\":\"{SERVICE_SQL}\",\"tenant\":\"{tenant}\"}}");
    write!(
        stream,
        "POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut out = String::new();
    stream
        .read_to_string(&mut out)
        .map_err(|e| format!("read: {e}"))?;
    let status = out.split_whitespace().nth(1).unwrap_or("");
    if status != "202" {
        return Err(format!("submit answered {status}"));
    }
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("");
    qprog::monitor::http::body_u64_field(body, "id").ok_or_else(|| "202 without an id".to_string())
}

/// `GET /progress/{id}/stream` until the terminal frame; returns the
/// frames seen and the terminal frame's JSON.
fn watch(addr: SocketAddr, id: u64) -> Result<(usize, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
    write!(
        stream,
        "GET /progress/{id}/stream HTTP/1.1\r\nHost: bench\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        let n = stream.read(&mut buf).map_err(|e| format!("read: {e}"))?;
        if n == 0 {
            return Err(format!("job {id}: stream closed without a terminal frame"));
        }
        out.push_str(&String::from_utf8_lossy(&buf[..n]));
        if let Some(at) = out.find("event: terminal\n") {
            if let Some(data) = out[at..].split("data: ").nth(1) {
                if let Some(end) = data.find("\n\n") {
                    let frames = out.matches("event: ").count();
                    return Ok((frames, data[..end].to_string()));
                }
            }
        }
    }
}

/// One job, client side.
struct Job {
    id: u64,
    sent: Instant,
    accepted: Instant,
    terminal: Instant,
    frames: usize,
    /// The service's own span totals, read in the traced run, and what
    /// reading them cost.
    totals: Option<SpanTotals>,
    trace_cost_us: f64,
}

impl Job {
    fn submit_ms(&self) -> f64 {
        (self.accepted - self.sent).as_secs_f64() * 1e3
    }

    fn query_ms(&self) -> f64 {
        (self.terminal - self.sent).as_secs_f64() * 1e3
    }
}

/// The oracle for one watched job: a terminal frame was seen, it says
/// `done` with the expected row count, and the service agrees (`Finished`).
fn check_job(served: &Served, id: u64, frame: &str) -> Result<(), String> {
    let state = qprog::monitor::http::body_str_field(frame, "state");
    let rows = qprog::monitor::http::body_u64_field(frame, "rows");
    if state.as_deref() != Some("done") || rows != Some(served.expected_rows) {
        return Err(format!(
            "job {id}: terminal frame says {state:?}, rows {rows:?}"
        ));
    }
    match served.runtime.service().status(id) {
        Some(s) if s.state == JobState::Finished && s.rows == Some(served.expected_rows) => Ok(()),
        Some(s) => Err(format!(
            "job {id}: service says {:?}, rows {:?}",
            s.state, s.rows
        )),
        // Evicted from the retained-terminals window: the frame stands.
        None => Ok(()),
    }
}

/// Watch an accepted job to its terminal frame and check it.
fn watch_job(
    served: &Served,
    id: u64,
    sent: Instant,
    accepted: Instant,
    with_totals: bool,
    tally: &mut Tally,
) -> Option<Job> {
    match watch(served.addr, id) {
        Ok((frames, frame)) => {
            let terminal = Instant::now();
            let totals = with_totals
                .then(|| served.runtime.service().span_totals(id))
                .flatten();
            let trace_cost_us = terminal.elapsed().as_secs_f64() * 1e6;
            tally.record(check_job(served, id, &frame));
            Some(Job {
                id,
                sent,
                accepted,
                terminal,
                frames,
                totals,
                trace_cost_us,
            })
        }
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

fn run_job(served: &Served, tenant: &str, with_totals: bool, tally: &mut Tally) -> Option<Job> {
    let sent = Instant::now();
    match submit(served.addr, tenant) {
        Ok(id) => watch_job(served, id, sent, Instant::now(), with_totals, tally),
        Err(e) => {
            tally.record(Err(e));
            None
        }
    }
}

#[derive(Default)]
struct ClosedLoop {
    jobs: Vec<Job>,
    /// How late each think-time sleep woke, ms.
    lateness_ms: Vec<f64>,
    tally: Tally,
}

/// Phase A: `clients` closed-loop clients, own tenant each, seeded think
/// time. The traced run also reads every job's span totals.
fn closed_loop(served: &Served, cfg: &RunConfig, budget: Budget, with_totals: bool) -> ClosedLoop {
    let started = Instant::now();
    let per_client = on_clients(|c| {
        let mut rng = SplitMix(cfg.seed ^ (c as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F));
        let tenant = format!("tenant-{c}");
        let mut out = ClosedLoop::default();
        let mut iter = 0;
        while budget.more(started, iter) {
            out.jobs
                .extend(run_job(served, &tenant, with_totals, &mut out.tally));
            let think = Duration::from_secs_f64(rng.next_f64() * THINK_MAX_MS / 1e3);
            let t0 = Instant::now();
            std::thread::sleep(think);
            out.lateness_ms
                .push(t0.elapsed().saturating_sub(think).as_secs_f64() * 1e3);
            iter += 1;
        }
        out
    });
    let mut all = ClosedLoop::default();
    for c in per_client {
        all.jobs.extend(c.jobs);
        all.lateness_ms.extend(c.lateness_ms);
        all.tally.merge(c.tally);
    }
    all
}

/// Phase B, one burst: every client submits its jobs back to back, then
/// watches all of them. Returns the jobs and the wall time from the first
/// POST to the last terminal frame.
fn burst(served: &Served, round: usize, with_totals: bool, tally: &mut Tally) -> (Vec<Job>, f64) {
    let started = Instant::now();
    let per_client = on_clients(|c| {
        let mut tally = Tally::default();
        let mut pending = Vec::new();
        for j in 0..BURST_JOBS {
            let tenant = format!("burst-{c}-{}", j % BURST_TENANTS);
            let sent = Instant::now();
            match submit(served.addr, &tenant) {
                Ok(id) => pending.push((id, sent, Instant::now())),
                Err(e) => tally.record(Err(format!("burst {round}: {e}"))),
            }
        }
        let jobs: Vec<Job> = pending
            .into_iter()
            .filter_map(|(id, sent, accepted)| {
                watch_job(served, id, sent, accepted, with_totals, &mut tally)
            })
            .collect();
        (jobs, tally)
    });
    let wall = started.elapsed().as_secs_f64();
    let mut jobs = Vec::new();
    for (j, t) in per_client {
        jobs.extend(j);
        tally.merge(t);
    }
    (jobs, wall)
}

/// Everything `setup_s` covers for this workload: datagen, catalog, the
/// in-process sessions, server + service start, and the warm-up jobs.
fn setup_service(w: &Workload, cfg: &RunConfig, arms: &[Arm]) -> QResult<(Env, Served, f64)> {
    let started = Instant::now();
    let (env, _) = setup(w, cfg, arms)?;
    let served = Served::start(env.catalog.clone(), cfg)?;
    // Warm-up results are discarded; the timed phases do the checking.
    for _ in 0..WARMUP_ITERS {
        run_job(&served, "warmup", false, &mut Tally::default());
    }
    Ok((env, served, started.elapsed().as_secs_f64()))
}

/// `C(Q)` of the service's query, read from one in-process run.
fn query_tuples(w: &Workload, env: &Env) -> QResult<u64> {
    Ok(crate::inproc::run_query(w, env.session(Arm::Once))?.tuples())
}

/// `--trace 0`.
pub fn run_end_to_end(w: &Workload, cfg: &RunConfig) -> QResult<Report> {
    let mut report = Report::default();
    let arms = [Arm::Off, Arm::Once];
    let ((env, served), setups) = repeat_setup(cfg.setup_reps(), || {
        let (env, served, s) = setup_service(w, cfg, &arms)?;
        Ok(((env, served), s))
    })?;
    report.push_median("setup_s", "s", &setups);
    let mut tally = Tally::default();

    // Phase A: idle latency.
    let a = closed_loop(&served, cfg, cfg.budget(0.76, 5), false);
    let query_ms: Vec<f64> = a.jobs.iter().map(Job::query_ms).collect();
    report.push_median("query_ms_p50", "ms", &query_ms);
    let tuples = query_tuples(w, &env)?;
    report.push(
        "tuples_per_s",
        "tuples/s",
        tuples as f64 / (median(&query_ms) / 1e3),
    );
    report
        .iterations
        .push(("phase_a_jobs".into(), a.jobs.len() as u64));
    tally.merge(a.tally);

    // Phase C (phase B, the bursts, is in the traced run): the same SQL in-process for the estimator metrics; a 25 ms
    // delivery tick would swamp them on the HTTP path.
    let samples = arms_loop(w, &env, &arms, cfg.budget(0.10, 20), &mut tally, |_, _| {});
    let quality = quality_runs(
        w,
        &env,
        Arm::Once,
        SAMPLE_PERIOD,
        cfg.budget(0.06, 10),
        &mut tally,
    );
    push_estimator_metrics(&mut report, &samples, &quality);
    report.iterations.push((
        "inproc_arms".into(),
        samples[&Arm::Once].query_s.len() as u64,
    ));

    report.push("peak_rss_mb", "MB", peak_rss_mb());
    tally.record(match served.runtime.service().stats() {
        s if s.failed == 0 && s.rejected == 0 => Ok(()),
        s => Err(format!(
            "service counted {} failed, {} rejected",
            s.failed, s.rejected
        )),
    });
    report.tally = tally;
    Ok(report)
}

/// Lay one traced job into the recorder: `query` → `client.submit`
/// (→ `service.submit`, rest `monitor.http`) and `client.watch`
/// (→ `service.queue_wait`, `service.exec`, `service.finalize`, rest
/// `monitor.deliver_wait`). Server-side durations come from the service's
/// own span totals; they carry no client-clock timestamps, so they are laid
/// end to end from the start of their client span.
fn record_job(recorder: &mut Recorder, query: u32, job: &Job, totals: &SpanTotals) {
    let (t0, t1, t2) = (
        recorder.us(job.sent),
        recorder.us(job.accepted),
        recorder.us(job.terminal),
    );
    let root = recorder.add("query", query, None, LAYER_TRACK, t0, t2);
    let submit = recorder.add("client.submit", query, Some(root), LAYER_TRACK, t0, t1);
    recorder.add_sequential("service.submit", submit, totals.submit_us as f64);
    recorder.add_remainder("monitor.http", submit);
    let watch = recorder.add("client.watch", query, Some(root), LAYER_TRACK, t1, t2);
    recorder.add_sequential("service.queue_wait", watch, totals.queue_wait_us as f64);
    recorder.add_sequential("service.exec", watch, totals.exec_us as f64);
    recorder.add_sequential("service.finalize", watch, totals.finalize_us as f64);
    recorder.add_remainder("monitor.deliver_wait", watch);
}

fn service_micro(
    served: &Served,
    env: &Env,
    last_id: u64,
    reps: usize,
    report: &mut Report,
) -> QResult<()> {
    // sql: plan the service's SQL, as submit validation and every dispatch do.
    let builder = env.session(Arm::Once).builder();
    let plan_us: Vec<f64> = (0..1000)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(qprog::sql::plan_sql(builder, SERVICE_SQL).is_ok());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.push_median("sql.plan_sql_us", "us", &plan_us);

    // journal: the shipped flush policy is `flush()` after every record and
    // no `sync_data`, so this is the cost of a buffered write reaching the
    // OS, not the disk.
    let dir = env.scratch.path().join("journal-micro");
    let (journal, _) =
        Journal::open(&dir).map_err(|e| QError::internal(format!("journal: {e}")))?;
    let appends = 2000u64;
    let append_us: Vec<f64> = (0..appends)
        .filter_map(|id| {
            let entry = PendingEntry {
                id,
                tenant: "tenant-0".into(),
                label: SERVICE_SQL.into(),
                sql: SERVICE_SQL.into(),
                deadline: None,
            };
            let t0 = Instant::now();
            journal.append_submit(&entry).ok()?;
            Some(t0.elapsed().as_secs_f64() * 1e6)
        })
        .collect();
    report.push_median("service.journal.append_us", "us", &append_us);
    let bytes = std::fs::metadata(journal.path()).map_or(0, |m| m.len());
    report.push(
        "service.journal.bytes_per_job",
        "bytes",
        bytes as f64 / appends as f64,
    );

    // monitor: request parsing, a progress GET round trip, hub fan-out.
    let body = format!("{{\"sql\":\"{SERVICE_SQL}\",\"tenant\":\"tenant-0\"}}");
    let head = format!(
        "POST /submit HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let t0 = Instant::now();
    for _ in 0..100_000 {
        std::hint::black_box(parse_request(std::hint::black_box(&head)));
    }
    report.push(
        "monitor.http.parse_ns",
        "ns",
        t0.elapsed().as_secs_f64() * 1e9 / 1e5,
    );

    let gets: Vec<f64> = (0..reps.max(30))
        .filter_map(|_| {
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(served.addr).ok()?;
            stream.set_read_timeout(Some(IO_TIMEOUT)).ok();
            write!(
                stream,
                "GET /progress/{last_id} HTTP/1.1\r\nHost: bench\r\n\r\n"
            )
            .ok()?;
            let mut out = String::new();
            stream.read_to_string(&mut out).ok()?;
            out.starts_with("HTTP/1.1 200")
                .then(|| t0.elapsed().as_secs_f64() * 1e3)
        })
        .collect();
    report.push_median("monitor.progress_get_ms", "ms", &gets);

    let hub = StreamHub::new(None);
    let sub = hub.subscribe(Some(1), 64);
    let frame = "{\"id\":1,\"fraction\":0.5,\"current\":5000,\"state\":\"running\"}";
    let t0 = Instant::now();
    for _ in 0..100_000 {
        hub.publish(1, "progress", frame, false);
        std::hint::black_box(sub.next(Duration::ZERO));
    }
    report.push(
        "monitor.hub.publish_ns",
        "ns",
        t0.elapsed().as_secs_f64() * 1e9 / 1e5,
    );
    hub.unsubscribe(&sub);
    Ok(())
}

/// `--trace 1`.
pub fn run_layers(w: &Workload, cfg: &RunConfig) -> QResult<(Report, Recorder)> {
    let mut report = Report::default();
    let mut recorder = Recorder::new();
    let (env, served, _) = setup_service(w, cfg, &[Arm::Off, Arm::Once])?;
    let mut tally = Tally::default();
    let reps = cfg.iters.unwrap_or(7);

    // The traced run: every job also reads its span totals.
    let a = closed_loop(&served, cfg, cfg.budget(0.40, 6), true);
    let traced: Vec<&Job> = a.jobs.iter().filter(|j| j.totals.is_some()).collect();
    for (q, job) in traced.iter().enumerate() {
        record_job(
            &mut recorder,
            q as u32,
            job,
            job.totals.as_ref().expect("filtered"),
        );
    }
    let totals = |f: fn(&SpanTotals) -> u64| -> Vec<f64> {
        traced
            .iter()
            .filter_map(|j| j.totals.as_ref())
            .map(|t| f(t) as f64)
            .collect()
    };
    report.push_median("service.submit_us", "us", &totals(|t| t.submit_us));
    report.push_median("service.queue_wait_us", "us", &totals(|t| t.queue_wait_us));
    report.push_median("service.exec_us", "us", &totals(|t| t.exec_us));
    report.push_median("service.finalize_us", "us", &totals(|t| t.finalize_us));
    report.push_median("service.total_us", "us", &totals(|t| t.total_us));
    let deliver: Vec<f64> = traced
        .iter()
        .filter_map(|j| Some(j.query_ms() - j.totals?.total_us as f64 / 1e3))
        .collect();
    report.push_median("monitor.deliver_wait_ms", "ms", &deliver);
    let frames: Vec<f64> = a.jobs.iter().map(|j| j.frames as f64).collect();
    report.push(
        "monitor.sse.frames_per_job",
        "count",
        frames.iter().sum::<f64>() / frames.len().max(1) as f64,
    );
    let submits: Vec<f64> = a.jobs.iter().map(Job::submit_ms).collect();
    report.push_median("service.submit_ms_p50", "ms", &submits);
    report.push_with(
        "service.submit_ms_p95",
        "ms",
        quantile(&submits, 0.95),
        &submits,
    );
    report.push_with(
        "service.submit_ms_p99",
        "ms",
        quantile(&submits, 0.99),
        &submits,
    );
    report.push_median("bench.load_lateness_ms", "ms", &a.lateness_ms);
    // Tracing here is one `span_totals` call after the terminal frame, outside
    // the timed window; its cost is measured directly, since an A/B
    // difference of two tick-quantised medians would be all noise.
    let query_ms: Vec<f64> = traced.iter().map(|j| j.query_ms()).collect();
    report.push_with(
        "bench.query_ms_p90",
        "ms",
        quantile(&query_ms, 0.90),
        &query_ms,
    );
    let cost_us: Vec<f64> = traced.iter().map(|j| j.trace_cost_us).collect();
    report.push(
        "bench.trace_overhead_pct",
        "%",
        median(&cost_us) / 1e3 / median(&query_ms) * 100.0,
    );
    report
        .iterations
        .push(("traced_jobs".into(), traced.len() as u64));
    let mut last_id = a.jobs.last().map_or(0, |j| j.id);
    tally.merge(a.tally);

    // Phase B: bursts under backlog, with span totals for the time jobs sit
    // in the queue. A burst ends on a 25 ms broadcast tick, so burst times
    // sit on two levels one tick apart, with an occasional slow one; the
    // interquartile mean of the per-burst rates is steadier than total/total
    // or the median.
    let budget = cfg.budget(0.15, 3);
    let started = Instant::now();
    let (mut rates, mut waits) = (Vec::new(), Vec::new());
    while budget.more(started, rates.len()) {
        let (done, wall) = burst(&served, rates.len(), true, &mut tally);
        rates.push(done.len() as f64 / wall);
        // The progress GET below needs a job the monitor still lists.
        last_id = done.last().map_or(last_id, |j| j.id);
        waits.extend(
            done.iter()
                .filter_map(|j| Some(j.totals?.queue_wait_us as f64 / 1e3)),
        );
    }
    report.push_with("bench.burst_jobs_per_s", "jobs/s", midmean(&rates), &rates);
    report.push_median("service.burst.queue_wait_ms_p50", "ms", &waits);
    report
        .iterations
        .push(("bursts".into(), rates.len() as u64));
    let stats = served.runtime.service().stats();
    report.push(
        "service.rejected",
        "count",
        (stats.rejected + stats.invalid) as f64,
    );
    report.push("service.retries", "count", stats.retries as f64);

    service_micro(&served, &env, last_id, reps, &mut report)?;
    drop(served);
    drop(env);

    // The engine-side layers of the same SQL, in-process, on the rest of
    // the budget; their spans stay out of the HTTP trace.
    let inproc_cfg = RunConfig {
        seconds: cfg.seconds * 0.3,
        ..cfg.clone()
    };
    tally.merge(run_inproc_layers(w, &inproc_cfg, &mut report, None)?);

    report.push(
        "bench.reconcile_gap_pct",
        "%",
        recorder.worst_reconcile_gap() * 100.0,
    );
    report.tally = tally;
    Ok((report, recorder))
}
