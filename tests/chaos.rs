//! Chaos suite: query lifecycle governance under injected faults.
//!
//! Lifecycle guarantees (cancellation latency, typed terminal errors, no
//! leaked threads) are asserted in every build. The fault-*injection*
//! tests additionally require `--features failpoints`:
//!
//! ```text
//! cargo test --test chaos --features failpoints
//! ```
//!
//! Every injected fault class — error, panic, sleep — must drive the query
//! to a terminal state with monotone, bounded progress along the way, and
//! the monitor must keep serving and report the failure.

use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 50_000, 1.0, 500, 7,
    ))
    .unwrap();
    c.register(qprog::datagen::nation_table("nation", 500))
        .unwrap();
    c.register(qprog::datagen::nation_table("nation2", 500))
        .unwrap();
    c
}

/// An observer that logs every published fraction, and the log.
#[cfg(feature = "failpoints")]
fn fraction_log() -> (
    impl FnMut(&ProgressSnapshot) + Send + 'static,
    Arc<std::sync::Mutex<Vec<f64>>>,
) {
    let log = Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = Arc::clone(&log);
    (
        move |snap: &ProgressSnapshot| sink.lock().unwrap().push(snap.fraction()),
        log,
    )
}

/// Current thread count of this process (Linux; `None` elsewhere).
fn thread_count() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
}

/// The failpoint registry is process-global, so with `failpoints` enabled
/// every test here — injecting or not — holds the scenario lock; otherwise
/// a concurrently configured fault could bleed into an unrelated test's
/// query. Without the feature the guard is a no-op.
fn scenario() -> qprog::fault::FailScenario {
    qprog::fault::FailScenario::setup()
}

#[test]
fn cancellation_returns_within_100ms_of_request() {
    let _scenario = scenario();
    let session = Session::new(catalog());
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
    // Wait until the query is demonstrably mid-flight, then cancel.
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
        "cancellation latency {latency:?} >= 100ms"
    );
    assert!(err.is_cancelled(), "{err}");
}

#[test]
fn deadline_exceeded_is_terminal_and_typed() {
    let _scenario = scenario();
    let session = Session::new(catalog());
    let mut h = session
        .query(
            "SELECT * FROM customer \
             JOIN nation ON customer.nationkey = nation.nationkey",
        )
        .unwrap();
    let err = h
        .run(RunOptions::new().deadline(Duration::from_micros(50)))
        .unwrap_err();
    assert_eq!(err.lifecycle().map(ExecError::kind), Some("deadline"));
}

#[test]
fn row_budget_breach_aborts_with_typed_error() {
    let _scenario = scenario();
    let options = PhysicalOptions {
        max_rows: Some(1_000),
        ..PhysicalOptions::default()
    };
    let session = Session::new(catalog()).with_options(options);
    let mut h = session.query("SELECT * FROM customer").unwrap();
    let err = h.collect().unwrap_err();
    assert_eq!(err.lifecycle().map(ExecError::kind), Some("budget"));
}

/// `customer ⋈ nation` (50 000 output rows) as a binary join of `algo`.
fn customer_nation_join(session: &Session, algo: qprog::plan::JoinAlgo) -> QueryHandle {
    let b = session.builder();
    let plan = b
        .scan("customer")
        .unwrap()
        .join_build(
            b.scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
            algo,
        )
        .unwrap();
    session.query_plan(plan).unwrap()
}

/// `(customer ⋈ nation) ⋈ nation2` (50 000 output rows): a two-join
/// Algorithm-1 chain of `algo`, both joins probing with the customer's
/// nation key.
fn customer_nation_chain(session: &Session, algo: qprog::plan::JoinAlgo) -> QueryHandle {
    let b = session.builder();
    let plan = b
        .scan("customer")
        .unwrap()
        .join_build(
            b.scan("nation").unwrap(),
            "nation.nationkey",
            "customer.nationkey",
            algo,
        )
        .unwrap()
        .join_build(
            b.scan("nation2").unwrap(),
            "nation2.nationkey",
            "customer.nationkey",
            algo,
        )
        .unwrap();
    session.query_plan(plan).unwrap()
}

/// DESIGN §5 degradation ladder: a `once` join — a binary join or a
/// two-join chain — whose build histograms outgrow the soft budget drops
/// its estimator and every join continues as dne — same answer, one
/// `EstimatorDegraded` event, one counter bump — whichever algorithm
/// builds the histograms.
#[test]
fn hist_budget_breach_degrades_once_to_dne() {
    use qprog::exec::trace::TraceEventKind;
    use qprog::plan::JoinAlgo;
    let _scenario = scenario();
    let inputs = [JoinAlgo::Hash, JoinAlgo::Merge].map(|algo| [(algo, 1), (algo, 2)]);
    for (algo, joins) in inputs.into_iter().flatten() {
        let what = format!("{algo:?}, {joins} join(s)");
        let ring = Arc::new(RingSink::with_capacity(1 << 16));
        let registry = Arc::new(Registry::new());
        let session = SessionBuilder::new(catalog())
            .options(PhysicalOptions {
                max_hist_bytes: Some(64),
                ..PhysicalOptions::default()
            })
            .observability(
                Observability::new()
                    .with_trace(EventBus::with_sink(Arc::clone(&ring) as _))
                    .with_metrics(Arc::clone(&registry)),
            )
            .build()
            .unwrap();
        let query = match joins {
            1 => customer_nation_join,
            _ => customer_nation_chain,
        };
        let mut h = query(&session, algo);
        let rows = h.collect().unwrap();
        assert_eq!(rows.len(), 50_000, "{what}");
        // Every join ends on the dne rule: no confidence bounds, and the
        // estimate is the output once the driver is consumed.
        let ops: Vec<_> = h
            .registry()
            .iter()
            .filter(|(name, _)| name.ends_with("_join"))
            .collect();
        assert_eq!(ops.len(), joins, "{what}");
        for (name, m) in ops {
            assert_eq!(m.estimated_bounds(), None, "{what}: {name}");
            assert_eq!(m.estimated_total(), m.emitted() as f64, "{what}: {name}");
        }
        let degraded = ring
            .drain()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    TraceEventKind::EstimatorDegraded {
                        reason: DegradeReason::HistogramMemory,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(degraded, 1, "{what}");
        let text = registry.render();
        assert!(
            text.contains(
                "qprog_estimator_degraded_total{estimator=\"once\",\
                 reason=\"histogram_memory\"} 1"
            ),
            "{what}: {text}"
        );
    }
}

/// A cancel that lands after the first output row is observed by the join
/// pass itself (no checkpointing operator sits above the join here).
#[test]
fn cancellation_is_observed_in_the_join_pass() {
    use qprog::plan::JoinAlgo;
    let _scenario = scenario();
    let session = Session::new(catalog());
    for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
        let mut h = customer_nation_join(&session, algo);
        assert!(h.step().unwrap().is_some(), "{algo:?}");
        h.cancel();
        let mut stepped = 0;
        let err = loop {
            match h.step() {
                Ok(Some(_)) => stepped += 1,
                Ok(None) => panic!("{algo:?}: ran to completion after cancel"),
                Err(e) => break e,
            }
            assert!(stepped < 50_000, "{algo:?}: cancel never observed");
        };
        assert_eq!(
            err.lifecycle().map(ExecError::kind),
            Some("cancelled"),
            "{algo:?}"
        );
    }
}

/// An observer runs in the executing thread, inside the query's panic
/// boundary: its panic ends the query as a typed `OperatorPanic` (with the
/// abort traced), not an unwind through the caller.
#[test]
fn panicking_observer_ends_the_query_as_a_typed_panic() {
    let _scenario = scenario();
    let ring = Arc::new(RingSink::with_capacity(1 << 16));
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().with_trace(EventBus::with_sink(Arc::clone(&ring) as _)))
        .build()
        .unwrap();
    // Mid-run, at a batch boundary; and at the terminal publication.
    for panic_at in [0.3, 1.0] {
        let mut h = session
            .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
            .unwrap();
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let result = h.run(RunOptions::new().observer(move |snap| {
            if snap.fraction() >= panic_at {
                panic!("observer gave up at {}", snap.fraction());
            }
        }));
        std::panic::set_hook(saved);
        let err = result.unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("panic"), "{err}");
        assert!(err.to_string().contains("observer gave up"), "{err}");
        let last = ring.drain().last().map(|e| e.kind);
        assert!(
            matches!(
                last,
                Some(qprog::exec::trace::TraceEventKind::QueryAborted { .. })
            ),
            "{panic_at}: {last:?}"
        );
    }
}

#[test]
fn no_threads_leak_across_query_lifecycles() {
    let _scenario = scenario();
    let Some(mut baseline) = thread_count() else {
        return; // not a procfs platform; nothing to measure
    };
    // Let the census hold still first: the scenario lock can be won while
    // the harness is between retiring the previous test's thread and
    // spawning the next one's (which then waits on the lock until this test
    // ends), and a baseline read in that gap is one short.
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = thread_count().unwrap();
        if now == baseline {
            break;
        }
        baseline = now;
    }
    for _ in 0..3 {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        h.cancel();
        assert!(h.collect().is_err());
        drop(h);
        server.shutdown(); // joins accept + connection threads
    }
    // Every thread we started is joined synchronously above; poll briefly
    // so concurrently running tests' threads can drain too.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = thread_count().unwrap();
        if now <= baseline {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: {now} threads, baseline {baseline}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[cfg(feature = "failpoints")]
mod faulted {
    use super::*;
    use qprog::fault;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
        let mut stream = TcpStream::connect(addr).ok()?;
        write!(stream, "GET {path} HTTP/1.1\r\nHost: t\r\n\r\n").ok()?;
        let mut out = String::new();
        stream.read_to_string(&mut out).ok()?;
        Some(out)
    }

    /// Run `f` with panic output suppressed (injected panics are expected
    /// noise here, not failures worth a backtrace on stderr).
    fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        let saved = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(saved);
        out
    }

    #[test]
    fn injected_error_drives_query_to_failed_state() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/scan/next", "1*error(chaos: disk gone)").unwrap();
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let id = h.query_id().unwrap();
        let err = h.collect().unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("injected"));
        assert!(matches!(h.state(), QueryState::Failed(AbortKind::Injected)));
        let detail = http_get(server.addr(), &format!("/progress/{id}")).unwrap();
        assert!(detail.contains("\"state\":\"failed\""), "{detail}");
        assert!(detail.contains("\"failure\":\"injected\""), "{detail}");
        assert_eq!(fault::hits("exec/scan/next"), 1);
        server.shutdown();
        drop(scenario);
    }

    #[test]
    fn injected_panic_is_isolated_as_terminal_error() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/agg/accumulate", "1*panic(chaos)").unwrap();
        let session = Session::new(catalog());
        let mut h = session
            .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
            .unwrap();
        let err = quiet_panics(|| h.collect().unwrap_err());
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("panic"));
        assert!(err.to_string().contains("chaos"), "{err}");
        // The process survived; the same session keeps serving queries.
        // (Still under the scenario lock: this scan passes `exec/scan/next`,
        // and released early it would eat the next test's one-shot fault.)
        let mut h2 = session.query("SELECT * FROM nation").unwrap();
        assert_eq!(h2.collect().unwrap().len(), 500);
        drop(scenario);
    }

    #[test]
    fn progress_stays_monotone_and_bounded_under_slowdowns() {
        let scenario = fault::FailScenario::setup();
        fault::set_seed(42);
        fault::configure("exec/scan/next", "2%yield(8)").unwrap();
        fault::configure("exec/agg/accumulate", "1%sleep(1)").unwrap();
        let session = Session::new(catalog());
        let mut h = session
            .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
            .unwrap();
        let (observer, fractions) = fraction_log();
        let rows = h.run(RunOptions::new().observer(observer)).unwrap();
        assert_eq!(rows.len(), 500);
        let fractions = fractions.lock().unwrap();
        let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
        assert!(inside >= 5, "{fractions:?}");
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(
            fractions.windows(2).all(|w| w[0] <= w[1]),
            "progress regressed under slowdown faults: {fractions:?}"
        );
        drop(scenario);
    }

    #[test]
    fn progress_stays_monotone_until_injected_abort() {
        let scenario = fault::FailScenario::setup();
        fault::set_seed(7);
        // A low-probability per-tuple error: over 50k tuples it fires
        // mid-query with near certainty, at a seed-determined point.
        fault::configure("exec/agg/accumulate", "1%1*error(mid-query fault)").unwrap();
        let session = Session::new(catalog());
        let (observer, fractions) = fraction_log();
        let mut h = session
            .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
            .unwrap();
        let err = h.run(RunOptions::new().observer(observer)).unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("injected"));
        let fractions = fractions.lock().unwrap();
        // Seen in flight before the abort; the terminal publication is the
        // frozen snapshot, not 1.0.
        let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
        assert!(inside >= 1, "{fractions:?}");
        assert!(*fractions.last().unwrap() < 1.0, "{fractions:?}");
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        assert!(
            fractions.windows(2).all(|w| w[0] <= w[1]),
            "progress regressed before abort: {fractions:?}"
        );
        // The abort froze progress rather than snapping it to done.
        assert!(!h.tracker().snapshot().is_complete());
        drop(scenario);
    }

    #[test]
    fn sleep_faults_do_not_defeat_cancellation_latency() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/scan/next", "sleep(5)").unwrap();
        let session = Session::new(catalog());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let token = h.cancellation_token().unwrap();
        let tracker = h.tracker();
        let worker = std::thread::spawn(move || {
            let err = h.collect().unwrap_err();
            (Instant::now(), err)
        });
        let spin_start = Instant::now();
        while tracker.snapshot().current() == 0 {
            assert!(spin_start.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(1));
        }
        let cancelled_at = Instant::now();
        token.cancel();
        let (returned_at, err) = worker.join().unwrap();
        let latency = returned_at.saturating_duration_since(cancelled_at);
        assert!(
            latency < Duration::from_millis(100),
            "cancel took {latency:?} with per-tuple sleep faults"
        );
        assert!(err.is_cancelled(), "{err}");
        drop(scenario);
    }

    #[test]
    fn monitor_survives_faulty_accept_and_read_paths() {
        let scenario = fault::FailScenario::setup();
        fault::set_seed(1234);
        fault::configure("monitor/accept", "50%error(accept chaos)").unwrap();
        fault::configure("monitor/read", "50%error(read chaos)").unwrap();
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let addr = server.addr();
        let mut served = 0;
        for _ in 0..40 {
            if let Some(resp) = http_get(addr, "/progress") {
                if resp.starts_with("HTTP/1.1 200") {
                    served += 1;
                }
            }
        }
        // Faults dropped some connections but never the server.
        assert!(served > 0, "no request survived 50% fault injection");
        assert!(fault::hits("monitor/accept") + fault::hits("monitor/read") > 0);
        fault::teardown();
        let resp = http_get(addr, "/progress").unwrap();
        assert!(resp.starts_with("HTTP/1.1 200"), "{resp}");
        server.shutdown();
        drop(scenario);
    }

    /// A session running the skew join with a 4-way parallel hash join.
    fn parallel_session() -> Session {
        Session::new(catalog()).with_options(PhysicalOptions {
            threads: 4,
            ..PhysicalOptions::default()
        })
    }

    const PARALLEL_SQL: &str = "SELECT * FROM customer \
                                JOIN nation ON customer.nationkey = nation.nationkey";

    #[test]
    fn worker_task_error_is_typed_and_freezes_progress() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/parallel/task", "1*error(chaos: worker died)").unwrap();
        let session = parallel_session();
        let mut h = session.query(PARALLEL_SQL).unwrap();
        let err = h.collect().unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("injected"));
        assert!(err.to_string().contains("worker died"), "{err}");
        // Remaining workers were joined, the error surfaced, and progress
        // froze where the abort happened instead of snapping to done.
        assert!(!h.tracker().snapshot().is_complete());
        drop(scenario);
    }

    #[test]
    fn worker_panic_is_contained_as_terminal_error() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/parallel/task", "1*panic(worker chaos)").unwrap();
        let session = parallel_session();
        let mut h = session.query(PARALLEL_SQL).unwrap();
        let err = quiet_panics(|| h.collect().unwrap_err());
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("panic"));
        assert!(err.to_string().contains("worker chaos"), "{err}");
        assert!(!h.tracker().snapshot().is_complete());
        // The process survived: the same session keeps serving queries.
        drop(scenario);
        let mut h2 = session.query("SELECT * FROM nation").unwrap();
        assert_eq!(h2.collect().unwrap().len(), 500);
    }

    #[test]
    fn pool_spawn_failure_is_typed_and_terminal() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/parallel/spawn", "1*error(chaos: no threads)").unwrap();
        let session = parallel_session();
        let mut h = session.query(PARALLEL_SQL).unwrap();
        let err = h.collect().unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("injected"));
        assert_eq!(fault::hits("exec/parallel/spawn"), 1);
        assert!(!h.tracker().snapshot().is_complete());
        drop(scenario);
    }

    #[test]
    fn merge_stall_does_not_defeat_the_deadline() {
        let scenario = fault::FailScenario::setup();
        fault::configure("exec/parallel/merge", "sleep(120)").unwrap();
        let session = parallel_session();
        let mut h = session.query(PARALLEL_SQL).unwrap();
        let err = h
            .run(RunOptions::new().deadline(Duration::from_millis(40)))
            .unwrap_err();
        assert_eq!(err.lifecycle().map(ExecError::kind), Some("deadline"));
        assert!(!h.tracker().snapshot().is_complete());
        drop(scenario);
    }

    #[test]
    fn injected_stall_trips_the_health_detector() {
        let scenario = fault::FailScenario::setup();
        // One long mid-scan sleep: observed work freezes far past the
        // (shrunken) stall window while the query is still Running.
        fault::configure("exec/scan/next", "1*sleep(700)").unwrap();
        let session =
            SessionBuilder::new(catalog())
                .observability(Observability::new().serve_on("127.0.0.1:0").with_health(
                    HealthConfig::default().with_stall_window(Duration::from_millis(150)),
                ))
                .build()
                .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let id = h.query_id().unwrap();
        let worker = std::thread::spawn(move || {
            let rows = h.collect().map(|r| r.len());
            (h, rows)
        });
        // While the sleep holds the scan the monitor's tick must flip the
        // verdict to Stalled and surface it over HTTP.
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut saw_stalled = false;
        while Instant::now() < deadline && !saw_stalled {
            if let Some(detail) = http_get(server.addr(), &format!("/progress/{id}")) {
                saw_stalled = detail.contains("\"health\":\"stalled\"");
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(
            saw_stalled,
            "stall detector never fired during a 700ms injected sleep"
        );
        // The fault was a slowdown, not an error: the query still finishes.
        let (h, rows) = worker.join().unwrap();
        assert_eq!(rows.unwrap(), 50_000);
        assert!(h.health().is_some());
        assert_eq!(fault::hits("exec/scan/next"), 1);
        server.shutdown();
        drop(scenario);
    }

    #[test]
    fn clean_runs_never_false_positive_the_stall_detector() {
        let scenario = fault::FailScenario::setup();
        // Same wiring, no fault: with default thresholds a healthy query
        // must never leave the Healthy state.
        let session = SessionBuilder::new(catalog())
            .observability(
                Observability::new()
                    .serve_on("127.0.0.1:0")
                    .with_health(HealthConfig::default()),
            )
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session
            .query(
                "SELECT nation.nationkey, count(*) FROM customer \
                 JOIN nation ON customer.nationkey = nation.nationkey \
                 GROUP BY nation.nationkey",
            )
            .unwrap();
        let id = h.query_id().unwrap();
        assert!(!h.collect().unwrap().is_empty());
        // The verdict froze at terminal without ever transitioning.
        assert_eq!(h.health(), Some(HealthState::Healthy));
        let detail = http_get(server.addr(), &format!("/progress/{id}")).unwrap();
        assert!(detail.contains("\"health\":\"healthy\""), "{detail}");
        server.shutdown();
        drop(scenario);
    }

    #[test]
    fn failpoints_are_deterministic_for_a_seed() {
        let scenario = fault::FailScenario::setup();
        let mut outcomes = Vec::new();
        for _ in 0..2 {
            fault::set_seed(99);
            fault::configure("exec/scan/next", "30%error(roll)").unwrap();
            let session = Session::new(catalog());
            let mut h = session.query("SELECT * FROM nation").unwrap();
            let mut survived = 0u32;
            let outcome = loop {
                match h.step() {
                    Ok(Some(_)) => survived += 1,
                    Ok(None) => break (survived, None),
                    Err(e) => break (survived, Some(e.to_string())),
                }
            };
            outcomes.push(outcome);
            fault::teardown();
        }
        assert_eq!(outcomes[0], outcomes[1], "same seed, same fault schedule");
        drop(scenario);
    }
}
