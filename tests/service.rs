//! End-to-end tests of the submit/queue/dispatch service behind the
//! monitor's HTTP front door, plus the chaos + crash-recovery gates.
//!
//! The fault-*injection* tests require `--features failpoints`:
//!
//! ```text
//! cargo test --test service --features failpoints
//! ```
//!
//! Chaos gate: every injected fault — at submit, journal append, dispatch,
//! or retry — must yield a *typed terminal state* visible over
//! `/progress/{id}` and SSE, with no hung submissions. Crash gate: a
//! simulated crash (abrupt shutdown + torn journal tail) followed by a
//! reopen must re-dispatch all pending work exactly once, with the torn
//! line reported as a diagnostic.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog::prelude::*;
use qprog::svc::AdmissionConfig;
use qprog::types::json;
use qprog::ServiceRuntime;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 20_000, 1.0, 200, 3,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 200))
        .unwrap();
    c
}

const JOIN_SQL: &str =
    "SELECT count(*) FROM customer JOIN nation ON customer.nationkey = nation.nationkey";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "qprog-service-it-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Build a monitored session (fresh server on an OS-assigned port).
fn monitored_session() -> Session {
    SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap()
}

fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    let _ = stream.read_to_string(&mut out);
    out
}

fn get(addr: SocketAddr, path: &str) -> String {
    http(addr, "GET", path, "")
}

fn submit(addr: SocketAddr, tenant: &str, sql: &str) -> (u16, String) {
    let body = format!(
        "{{\"sql\":\"{}\",\"tenant\":\"{tenant}\"}}",
        sql.replace('"', "\\\"")
    );
    let out = http(addr, "POST", "/submit", &body);
    let status: u16 = out
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = out.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
    (status, body)
}

/// Poll `/progress/{id}` until `pred` matches (or fail after `timeout`).
fn await_progress(
    addr: SocketAddr,
    id: u64,
    timeout: Duration,
    pred: impl Fn(&str) -> bool,
) -> String {
    let deadline = Instant::now() + timeout;
    loop {
        let detail = get(addr, &format!("/progress/{id}"));
        if pred(&detail) {
            return detail;
        }
        assert!(
            Instant::now() < deadline,
            "progress condition never met for query {id}: {detail}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The failpoint registry is process-global; every test holds the scenario
/// lock so faults cannot bleed across tests. Without the feature that guard
/// is a no-op, so a lock of this file's own keeps the tests one at a time
/// either way: the round-trip latency test must not share two cores with
/// 500 racing watchers.
fn scenario() -> (
    std::sync::MutexGuard<'static, ()>,
    qprog::fault::FailScenario,
) {
    static ONE_AT_A_TIME: std::sync::Mutex<()> = std::sync::Mutex::new(());
    let turn = ONE_AT_A_TIME.lock().unwrap_or_else(|p| p.into_inner());
    (turn, qprog::fault::FailScenario::setup())
}

#[test]
fn submitted_query_runs_to_done_visible_over_http_and_sse() {
    let _scenario = scenario();
    let dir = temp_dir("done");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();

    let (status, body) = submit(addr, "acme", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = json::u64(&body, "id").expect("ticket id");

    let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
        d.contains("\"state\":\"done\"")
    });
    assert!(detail.contains("\"tenant\":\"acme\""), "{detail}");
    assert!(detail.contains("\"rows\":1"), "{detail}");
    assert!(detail.contains("\"done\":true"), "{detail}");
    // Per-operator detail attached by the adopted execution.
    assert!(detail.contains("\"ops\":["), "{detail}");

    // A late SSE subscriber still sees a terminal frame (synthesized from
    // the directory when the broadcast predates the subscription).
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(
        stream,
        "GET /progress/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"
    )
    .unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut out = String::new();
    let mut buf = [0u8; 4096];
    loop {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
        }
    }
    assert!(out.contains("event: terminal\n"), "{out}");
    assert!(out.contains("\"done\":true"), "{out}");

    let stats = get(addr, "/service");
    assert!(stats.contains("\"finished\":1"), "{stats}");
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn span_tree_is_gapless_and_reconciles_with_the_journal_wall_time() {
    let _scenario = scenario();
    let dir = temp_dir("spans");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();

    let (status, body) = submit(addr, "acme", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = json::u64(&body, "id").expect("ticket id");
    await_progress(addr, id, Duration::from_secs(10), |d| {
        d.contains("\"state\":\"done\"")
    });

    // Gapless tiling: the lifecycle phases sum exactly to the root span.
    let totals = runtime.service().span_totals(id).expect("span totals");
    assert_eq!(totals.attempts, 1, "{totals:?}");
    assert!(totals.exec_us > 0, "{totals:?}");
    let phases = totals.submit_us
        + totals.queue_wait_us
        + totals.backoff_us
        + totals.exec_us
        + totals.finalize_us;
    assert_eq!(phases, totals.total_us, "gap in the span tree: {totals:?}");

    // The assembled tree nests strictly and agrees with the raw totals.
    let events = runtime.service().span_events(id).expect("span events");
    let tree = qprog::obs::SpanTree::from_events(&events, &[]);
    let violations = tree.nesting_violations();
    assert!(violations.is_empty(), "{violations:?}");
    assert_eq!(tree.lifecycle_totals(), totals);

    // The journal's terminal record and the span tree describe the same
    // wall time (within 1%; in fact the clocks are shared, so exactly).
    let journal = std::fs::read_to_string(dir.join(qprog::svc::JOURNAL_FILE)).unwrap();
    let wall = journal
        .lines()
        .filter(|l| l.contains("\"op\":\"terminal\"") && l.contains(&format!("\"id\":{id},")))
        .filter_map(|l| json::u64(l, "wall_us"))
        .next_back()
        .expect("terminal journal record with wall_us");
    let diff = wall.abs_diff(totals.total_us) as f64;
    assert!(
        diff <= 0.01 * (wall.max(1) as f64),
        "journal wall {wall}us vs span total {}us",
        totals.total_us
    );

    // Per-tenant SLO aggregates surface in /service stats.
    let stats = get(addr, "/service");
    assert!(stats.contains("\"tenant\":\"acme\""), "{stats}");
    assert!(stats.contains("\"queue_wait_us\":"), "{stats}");
    assert!(stats.contains("\"exec_us\":"), "{stats}");
    assert!(stats.contains("\"deadline_miss_queue\":0"), "{stats}");
    assert!(stats.contains("\"deadline_miss_exec\":0"), "{stats}");
    assert!(stats.contains("\"completed\":1"), "{stats}");

    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_sql_is_rejected_at_submit_time_with_400() {
    let _scenario = scenario();
    let dir = temp_dir("badsql");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
    let (status, body) = submit(addr, "t", "SELECT * FROM no_such_table");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("{\"error\":"), "{body}");
    // Nothing was admitted; no worker burned a dispatch on it.
    assert!(get(addr, "/service").contains("\"admitted\":0"));
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn abusive_tenant_is_shed_while_polite_tenant_is_served() {
    let _scenario = scenario();
    let dir = temp_dir("fair");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let cfg = ServiceConfig {
        admission: AdmissionConfig {
            max_queue_depth: 64,
            max_tenant_inflight: 4,
            retry_after: Duration::from_secs(1),
        },
        workers: 0, // hold everything queued so caps are observable
        ..ServiceConfig::default()
    };
    let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();

    // The abusive tenant floods; past its in-flight cap it gets typed 429s.
    let mut flood_accepted = 0;
    let mut flood_shed = 0;
    for _ in 0..12 {
        let (status, body) = submit(addr, "flood", "SELECT * FROM nation");
        match status {
            202 => flood_accepted += 1,
            429 => {
                assert!(body.contains("tenant_cap"), "{body}");
                flood_shed += 1;
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert_eq!(flood_accepted, 4, "cap bounds the abusive tenant");
    assert_eq!(flood_shed, 8);

    // The polite tenant is unaffected by the flood.
    let (status, _) = submit(addr, "polite", "SELECT * FROM nation");
    assert_eq!(status, 202);

    let stats = get(addr, "/service");
    assert!(stats.contains("\"tenant\":\"polite\""), "{stats}");
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cancel_over_http_reaches_a_cancelled_terminal() {
    let _scenario = scenario();
    let dir = temp_dir("cancel");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let cfg = ServiceConfig {
        workers: 0, // keep it queued: cancellation must not need a worker
        ..ServiceConfig::default()
    };
    let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
    let (status, body) = submit(addr, "t", JOIN_SQL);
    assert_eq!(status, 202, "{body}");
    let id = json::u64(&body, "id").unwrap();

    let cancelled = http(addr, "POST", &format!("/progress/{id}/cancel"), "");
    assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
    let detail = await_progress(addr, id, Duration::from_secs(5), |d| {
        d.contains("\"state\":\"failed\"")
    });
    assert!(detail.contains("\"failure\":\"cancelled\""), "{detail}");
    assert_eq!(
        runtime.service().status(id).unwrap().state,
        JobState::Failed
    );
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn graceful_drain_flushes_every_terminal_and_stops_admission() {
    let _scenario = scenario();
    let dir = temp_dir("drain");
    let session = monitored_session();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(
        session,
        &dir,
        ServiceConfig {
            workers: 2,
            drain_timeout: Duration::from_secs(10),
            ..ServiceConfig::default()
        },
    )
    .unwrap();
    let mut ids = Vec::new();
    for _ in 0..6 {
        let (status, body) = submit(addr, "t", JOIN_SQL);
        assert_eq!(status, 202, "{body}");
        ids.push(json::u64(&body, "id").unwrap());
    }
    runtime.drain();
    // After drain every accepted submission is terminal — none hung.
    let stats = runtime.service().stats();
    assert_eq!(stats.finished + stats.failed, 6, "{stats:?}");
    for id in ids {
        let s = runtime.service().status(id).unwrap();
        assert!(
            matches!(s.state, JobState::Finished | JobState::Failed),
            "query {id} not terminal after drain: {s:?}"
        );
    }
    // Admission is closed: new submissions bounce with a typed 503.
    let (status, body) = submit(addr, "t", JOIN_SQL);
    assert_eq!(status, 503, "{body}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn crash_recovery_redispatches_pending_work_exactly_once() {
    let _scenario = scenario();
    let dir = temp_dir("crash");
    let addr_a;
    // Phase 1: accept work with no workers (nothing dispatches), then shut
    // down abruptly — the crash-adjacent path: journal intact, no
    // terminals.
    {
        let session = monitored_session();
        addr_a = session.monitor().unwrap().addr();
        let runtime = ServiceRuntime::start(
            session,
            &dir,
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        )
        .unwrap();
        for _ in 0..5 {
            let (status, _) = submit(addr_a, "t", "SELECT * FROM nation");
            assert_eq!(status, 202);
        }
        assert_eq!(runtime.service().stats().queue_depth, 5);
        drop(runtime); // abrupt shutdown: pending stays journaled
    }
    // Simulate a torn final append (process died mid-write).
    let journal = dir.join(qprog::svc::JOURNAL_FILE);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&journal)
            .unwrap();
        f.write_all(b"{\"op\":\"submit\",\"id\":99,\"tena").unwrap();
    }
    // Phase 2: reopen with workers; every pending entry re-dispatches
    // exactly once and the torn tail is a diagnostic, not an error.
    {
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        assert!(
            runtime
                .service()
                .recovery_diagnostics()
                .iter()
                .any(|d| d.contains("torn")),
            "{:?}",
            runtime.service().recovery_diagnostics()
        );
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime.service().stats().finished < 5 {
            assert!(
                Instant::now() < deadline,
                "recovered work never finished: {:?}",
                runtime.service().stats()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = runtime.service().stats();
        assert_eq!(stats.finished, 5, "{stats:?}");
        assert_eq!(stats.dispatched, 5, "exactly once: {stats:?}");
        assert_eq!(stats.failed, 0, "{stats:?}");
        // Recovered ids are visible over HTTP like any submission.
        let listed = get(addr, "/progress");
        assert!(listed.contains("\"tenant\":\"t\""), "{listed}");
        runtime.drain();
    }
    // Phase 3: a third open finds no pending work — nothing runs twice.
    {
        let session = monitored_session();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        std::thread::sleep(Duration::from_millis(100));
        let stats = runtime.service().stats();
        assert_eq!(
            stats.dispatched, 0,
            "re-dispatch after clean drain: {stats:?}"
        );
        runtime.drain();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /progress/{id}/stream` read to EOF: a per-query stream closes after
/// its terminal frame.
fn watch(addr: SocketAddr, id: u64) -> String {
    get(addr, &format!("/progress/{id}/stream"))
}

/// A job that does nothing for a millisecond: long enough that a watcher can
/// connect before, at, or after its finish.
struct BriefExec;

impl qprog::svc::JobExecutor for BriefExec {
    fn execute(
        &self,
        _job: &qprog::svc::JobSpec,
        _cancel: CancellationToken,
        _deadline: Option<Duration>,
    ) -> Result<u64, QError> {
        std::thread::sleep(Duration::from_millis(1));
        Ok(1)
    }
}

/// The terminal frame is published by the worker that finishes the job
/// while watchers subscribe on connection threads. Whichever side wins,
/// a stream carries exactly one `terminal` frame — queued by the hub (it
/// has an `id:` line) or synthesized from the snapshot (it has none) —
/// and the reader is never left waiting for it.
#[test]
fn every_stream_ends_with_exactly_one_terminal_however_the_subscribe_races() {
    use rand::{RngExt, SeedableRng};
    let _scenario = scenario();
    let dir = temp_dir("race");
    let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
    let addr = server.addr();
    let observer = qprog::monitor::DirectoryObserver::new(Arc::clone(server.directory()), "gnm");
    let service = QueryService::open(
        &dir,
        ServiceConfig::default(),
        Arc::new(BriefExec),
        observer,
        None,
    )
    .unwrap();
    server.set_service(Arc::clone(&service));

    const CLIENTS: u64 = 2;
    const JOBS_EACH: usize = 250;
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED + c);
                let (mut queued, mut synthesized) = (0, 0);
                for _ in 0..JOBS_EACH {
                    let (status, body) = submit(addr, &format!("t{c}"), "select 1");
                    assert_eq!(status, 202, "{body}");
                    let id = json::u64(&body, "id").unwrap();
                    std::thread::sleep(Duration::from_micros(rng.random_range(0u64..3000)));
                    let connected = Instant::now();
                    let out = watch(addr, id);
                    let took = connected.elapsed();
                    let terminals = out.matches("event: terminal\n").count();
                    assert_eq!(terminals, 1, "job {id}: {out}");
                    assert!(out.ends_with("\"done\":true,\"rows\":1}\n\n"), "{out}");
                    assert!(took < Duration::from_secs(1), "job {id} waited {took:?}");
                    if out.contains("\nid: ") {
                        queued += 1;
                    } else {
                        synthesized += 1;
                    }
                }
                (queued, synthesized)
            })
        })
        .collect();
    let (mut queued, mut synthesized) = (0, 0);
    for c in clients {
        let (q, s) = c.join().unwrap();
        queued += q;
        synthesized += s;
    }
    println!("terminal frames: {queued} queued by the hub, {synthesized} synthesized");
    assert_eq!(queued + synthesized, CLIENTS as usize * JOBS_EACH);
    service.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A watcher learns that its query ended when it ends, not on the next
/// broadcast tick: delivery that waits for a tick has a median round trip
/// of at least half a tick (12.5 ms) plus the job, which this bound
/// excludes and a loaded CI runner still meets.
#[test]
fn submit_to_terminal_round_trip_does_not_wait_for_a_tick() {
    let _scenario = scenario();
    let dir = temp_dir("latency");
    let mut tiny = Catalog::new();
    tiny.register(qprog::datagen::customer_table("customer", 500, 1.0, 25, 3))
        .unwrap();
    tiny.register(qprog::datagen::nation_table("nation", 25))
        .unwrap();
    let session = SessionBuilder::new(tiny)
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .unwrap();
    let addr = session.monitor().unwrap().addr();
    let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();

    let median_of_50 = || {
        let mut round_trips: Vec<Duration> = (0..50)
            .map(|_| {
                let sent = Instant::now();
                let (status, body) = submit(addr, "t", JOIN_SQL);
                assert_eq!(status, 202, "{body}");
                let out = watch(addr, json::u64(&body, "id").unwrap());
                let took = sent.elapsed();
                assert_eq!(out.matches("event: terminal\n").count(), 1, "{out}");
                assert!(out.contains("\"done\":true,\"rows\":1}"), "{out}");
                took
            })
            .collect();
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        println!(
            "submit -> terminal frame: median {median:?}, min {:?}, max {:?} over {} jobs",
            round_trips[0],
            round_trips[round_trips.len() - 1],
            round_trips.len()
        );
        median
    };
    // A busy machine only ever adds latency, so the best of up to three
    // rounds is the estimate; delivery that waits for a tick fails them all.
    let best = (0..3)
        .map(|_| median_of_50())
        .find(|m| *m < Duration::from_millis(10));
    assert!(best.is_some(), "no round had a median under 10 ms");
    runtime.drain();
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(feature = "failpoints")]
mod chaos {
    use super::*;
    use qprog::fault;

    #[test]
    fn submit_fault_is_a_typed_500_and_the_service_keeps_serving() {
        let dir = temp_dir("fp-submit");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        fault::configure("service/submit", "1*error(chaos: submit torn)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("{\"error\":\"internal\""), "{body}");
        // An internal fault is no malformed submission.
        assert_eq!(runtime.service().stats().invalid, 0);
        // The fault was one-shot: the service recovers immediately.
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = json::u64(&body, "id").unwrap();
        await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_fault_rejects_the_submission_without_accepting_it() {
        let dir = temp_dir("fp-journal");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        fault::configure("service/journal/append", "1*error(chaos: disk full)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 500, "{body}");
        // Not accepted: nothing to recover, nothing hung.
        assert_eq!(runtime.service().stats().admitted, 0);
        // And durable work still flows afterwards.
        let (status, _) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202);
        runtime.drain();
        assert_eq!(runtime.service().stats().finished, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_waits_for_a_job_between_pop_and_running() {
        let dir = temp_dir("fp-drain");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        // Hold the worker between its pop and the dispatch: the job is then
        // in neither `queue_depth` nor `running`, yet it is not finished.
        fault::configure("service/dispatch", "1*sleep(200)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let deadline = Instant::now() + Duration::from_secs(5);
        while runtime.service().stats().queue_depth > 0 {
            assert!(Instant::now() < deadline, "job never popped");
            std::thread::sleep(Duration::from_millis(1));
        }
        runtime.drain();
        let stats = runtime.service().stats();
        assert_eq!((stats.finished, stats.failed), (1, 0), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatch_fault_retries_to_success_under_one_query_id() {
        let dir = temp_dir("fp-dispatch");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        fault::configure("service/dispatch", "1*error(chaos: dispatch glitch)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = json::u64(&body, "id").unwrap();
        // The injected fault is transient → retried → done, same id.
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        assert!(detail.contains("\"attempt\":2"), "{detail}");
        let stats = runtime.service().stats();
        assert!(stats.retries >= 1, "{stats:?}");
        assert_eq!(stats.finished, 1, "{stats:?}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retry_fault_abandons_into_a_typed_terminal_visible_over_sse() {
        let dir = temp_dir("fp-retry");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let runtime = ServiceRuntime::start(session, &dir, ServiceConfig::default()).unwrap();
        // Dispatch always faults; the retry machinery itself faults once →
        // the submission must still end in a typed terminal, not a hang.
        fault::configure("service/dispatch", "error(chaos: dispatch down)").unwrap();
        fault::configure("service/retry", "1*error(chaos: retry broker down)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = json::u64(&body, "id").unwrap();
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"failed\"")
        });
        assert!(detail.contains("\"failure\":\"injected\""), "{detail}");
        let status = runtime.service().status(id).unwrap();
        assert!(
            status
                .detail
                .as_deref()
                .unwrap_or("")
                .contains("retry abandoned"),
            "{status:?}"
        );
        // SSE subscribers learn the ending too.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /progress/{id}/stream HTTP/1.1\r\nHost: t\r\n\r\n"
        )
        .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        assert!(out.contains("event: terminal\n"), "{out}");
        assert!(out.contains("\"failure\":\"injected\""), "{out}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retried_chaos_run_spans_attribute_backoff_and_still_reconcile() {
        let dir = temp_dir("fp-spans");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(20),
                cap: Duration::from_millis(80),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        // Fault inside the engine so attempt 1 genuinely executes (and is
        // counted) before the retry park and the successful attempt 2.
        fault::configure("exec/scan/next", "1*error(chaos: page gone)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = json::u64(&body, "id").unwrap();
        await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });

        let totals = runtime.service().span_totals(id).expect("span totals");
        assert_eq!(totals.attempts, 2, "{totals:?}");
        assert!(totals.backoff_us > 0, "retry park unattributed: {totals:?}");
        assert!(totals.exec_us > 0, "{totals:?}");
        let phases = totals.submit_us
            + totals.queue_wait_us
            + totals.backoff_us
            + totals.exec_us
            + totals.finalize_us;
        assert_eq!(phases, totals.total_us, "gap in retried tree: {totals:?}");

        let events = runtime.service().span_events(id).unwrap();
        let tree = qprog::obs::SpanTree::from_events(&events, &[]);
        assert!(
            tree.nesting_violations().is_empty(),
            "{:?}",
            tree.nesting_violations()
        );
        assert_eq!(tree.lifecycle_totals().attempts, 2);

        let journal = std::fs::read_to_string(dir.join(qprog::svc::JOURNAL_FILE)).unwrap();
        let wall = journal
            .lines()
            .filter(|l| l.contains("\"op\":\"terminal\"") && l.contains(&format!("\"id\":{id},")))
            .filter_map(|l| json::u64(l, "wall_us"))
            .next_back()
            .expect("terminal journal record");
        let diff = wall.abs_diff(totals.total_us) as f64;
        assert!(
            diff <= 0.01 * (wall.max(1) as f64),
            "journal wall {wall}us vs span total {}us",
            totals.total_us
        );

        // Attempt-count attribution reaches the tenant SLO stats.
        let stats = get(addr, "/service");
        assert!(stats.contains("\"attempts\":2"), "{stats}");
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn engine_level_fault_retries_and_recovers() {
        let dir = temp_dir("fp-engine");
        let session = monitored_session();
        let addr = session.monitor().unwrap().addr();
        let _scenario = fault::FailScenario::setup();
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(50),
                ..RetryPolicy::default()
            },
            ..ServiceConfig::default()
        };
        let runtime = ServiceRuntime::start(session, &dir, cfg).unwrap();
        // The fault fires inside the engine (scan getnext), not the
        // service: the run aborts as injected, the service retries, and
        // the second attempt succeeds.
        fault::configure("exec/scan/next", "1*error(chaos: page gone)").unwrap();
        let (status, body) = submit(addr, "t", "SELECT * FROM nation");
        assert_eq!(status, 202, "{body}");
        let id = json::u64(&body, "id").unwrap();
        let detail = await_progress(addr, id, Duration::from_secs(10), |d| {
            d.contains("\"state\":\"done\"")
        });
        assert!(detail.contains("\"rows\":200"), "{detail}");
        assert!(runtime.service().stats().retries >= 1);
        runtime.drain();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
