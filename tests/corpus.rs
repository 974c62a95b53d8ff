//! Persistent trace corpus: acceptance and crash-safety tests.
//!
//! - the seeded-corpus gate: 8 clean baseline runs plus one degraded run
//!   must yield *exactly one* `RegressionDetected` event, one
//!   `qprog_regressions_total` increment, and a `/history` listing of all
//!   nine runs with scorecards;
//! - crash tolerance: truncated index records and torn trace segments are
//!   skipped with diagnostics on reopen, never errors;
//! - fidelity: a corpus segment written by a real session round-trips
//!   byte-identically through `obs::replay` and re-scores to the stored
//!   scorecard.
//!
//! The failpoint-driven wall-time regression gate (a deliberately slowed
//! run against real baselines) additionally needs `--features failpoints`.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use qprog::exec::trace::{RegressionKind, TraceEventKind};
use qprog::obs::{Corpus, CorpusSink, MetricsSink, ReplayedTrace, RunMeta};
use qprog::prelude::*;

fn tmpdir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "qprog-corpus-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut out = String::new();
    stream.read_to_string(&mut out).unwrap();
    out
}

/// A synthetic finished run with deterministic timestamps: progress
/// samples offset from the retrospective oracle by `err`.
fn run_events(err: f64) -> Vec<TraceEvent> {
    let samples = [(0.25, 25u64), (0.5, 50), (0.75, 75), (1.0, 100)];
    let mut events: Vec<TraceEvent> = samples
        .iter()
        .enumerate()
        .map(|(i, &(oracle, current))| TraceEvent {
            seq: i as u64,
            at_us: 200 * (i as u64 + 1),
            kind: TraceEventKind::ProgressSampled {
                current,
                total: 100.0,
                fraction: (oracle + err).min(1.0),
                lo: f64::NAN,
                hi: f64::NAN,
            },
        })
        .collect();
    events.push(TraceEvent {
        seq: events.len() as u64,
        at_us: 1000,
        kind: TraceEventKind::QueryFinished { rows: 100 },
    });
    events
}

/// Archive one synthetic run through a [`CorpusSink`] whose regressions
/// fan out to a fresh per-run metrics sink (shared registry) and the
/// shared ring.
fn drive_run(
    corpus: &Arc<Corpus>,
    registry: &Arc<Registry>,
    ring: &Arc<RingSink>,
    err: f64,
) -> qprog::obs::ArchivedRun {
    let sink = Arc::new(CorpusSink::new(
        Arc::clone(corpus),
        RunMeta::new("acceptance", "once"),
    ));
    let metrics = Arc::new(MetricsSink::new(Arc::clone(registry), "once"));
    let bus = EventBus::builder()
        .sink(metrics as _)
        .sink(Arc::clone(ring) as Arc<dyn TraceSink>)
        .build();
    sink.attach_bus(&bus);
    // Events are fed to the sink directly (deterministic timestamps); only
    // the regression verdicts travel over the bus.
    for event in run_events(err) {
        sink.publish(&event);
    }
    assert_eq!(sink.dropped(), 0);
    sink.archived_run()
        .expect("terminal event archives the run")
}

/// The ISSUE acceptance gate: 8 clean + 1 degraded run → exactly one
/// regression event, one metrics increment, nine `/history` rows.
#[test]
fn seeded_corpus_flags_exactly_one_regression() {
    let dir = tmpdir("seeded");
    let corpus = Arc::new(Corpus::open(&dir).unwrap());
    let registry = Arc::new(Registry::new());
    let ring = Arc::new(RingSink::with_capacity(256));

    for _ in 0..8 {
        let run = drive_run(&corpus, &registry, &ring, 0.0);
        assert!(
            run.regressions.is_empty(),
            "clean baseline run flagged: {:?}",
            run.regressions
        );
    }
    // Degraded run: a constant +0.08 progress offset. Only mean_abs_err
    // crosses its threshold — the offset stays inside the convergence
    // band, publishes monotonically, and the timestamps are identical.
    let degraded = drive_run(&corpus, &registry, &ring, 0.08);
    assert_eq!(degraded.regressions.len(), 1, "{:?}", degraded.regressions);
    assert_eq!(degraded.regressions[0].kind, RegressionKind::MeanAbsErr);
    assert_eq!(degraded.record.regressions, 1);

    // Exactly one RegressionDetected event across all nine runs.
    let regression_events: Vec<TraceEvent> = ring
        .drain()
        .into_iter()
        .filter(|e| matches!(e.kind, TraceEventKind::RegressionDetected { .. }))
        .collect();
    assert_eq!(regression_events.len(), 1);
    let text = registry.render();
    assert!(
        text.contains("qprog_regressions_total{kind=\"mean_abs_err\"} 1"),
        "{text}"
    );
    assert!(!text.contains("kind=\"wall_time\""), "{text}");

    // /history lists all nine runs, each with its scorecard.
    let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
    server.set_corpus(Arc::clone(&corpus));
    let listing = http_get(server.addr(), "/history");
    assert_eq!(listing.matches("\"run\":").count(), 9, "{listing}");
    assert_eq!(listing.matches("\"mean_abs_err\":").count(), 9, "{listing}");
    let last = http_get(server.addr(), "/history/8");
    assert!(last.contains("\"regressions\":1"), "{last}");
    let clean = http_get(server.addr(), "/history/0");
    assert!(clean.contains("\"regressions\":0"), "{clean}");
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// Crash tolerance: a truncated index record and a torn trace segment are
/// both skipped with diagnostics on reopen; intact runs survive.
#[test]
fn corpus_reopen_survives_truncated_index_and_torn_segment() {
    let dir = tmpdir("crash");
    {
        let corpus = Corpus::open(&dir).unwrap();
        let meta = RunMeta::new("crashy", "once");
        for _ in 0..3 {
            corpus.archive(&meta, &run_events(0.0), &[]).unwrap();
        }
    }
    // Tear run 1's segment mid-line (a crash during the segment write).
    let seg1 = dir.join("run-000001.jsonl");
    let bytes = fs::read(&seg1).unwrap();
    fs::write(&seg1, &bytes[..bytes.len() / 2]).unwrap();
    // Truncate the index's last record mid-line (a crash during append).
    let index = dir.join("index.jsonl");
    let text = fs::read_to_string(&index).unwrap();
    fs::write(&index, &text[..text.len() - 20]).unwrap();

    let corpus = Corpus::open(&dir).unwrap();
    let diags = corpus.diagnostics();
    // One diagnostic for the torn segment, one for the truncated index
    // line, one for run 2's segment going orphan when its record was cut.
    assert!(
        diags.iter().any(|d| d.contains("torn trace segment")),
        "{diags:?}"
    );
    assert!(diags.iter().any(|d| d.contains("index line")), "{diags:?}");
    assert!(
        diags.iter().any(|d| d.contains("orphan trace segment")),
        "{diags:?}"
    );
    let runs = corpus.runs();
    assert_eq!(
        runs.iter().map(|r| r.run).collect::<Vec<_>>(),
        vec![0],
        "only the intact run survives"
    );
    // The bad artifacts are gone from disk and ids are never reused.
    assert!(!seg1.exists());
    assert!(!dir.join("run-000002.jsonl").exists());
    let next = corpus
        .archive(&RunMeta::new("crashy", "once"), &run_events(0.0), &[])
        .unwrap();
    assert_eq!(next.record.run, 3);
    drop(corpus);

    // The compacted store reopens clean: diagnostics do not recur.
    let corpus = Corpus::open(&dir).unwrap();
    assert!(
        corpus.diagnostics().is_empty(),
        "{:?}",
        corpus.diagnostics()
    );
    assert_eq!(corpus.len(), 2);
    let _ = fs::remove_dir_all(&dir);
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

/// End-to-end: a session with a corpus archives every run; the archived
/// segment round-trips byte-identically through `obs::replay` and
/// re-scores to the stored scorecard; the session's monitor serves it all
/// under /history.
#[test]
fn session_archives_runs_that_round_trip_through_replay() {
    let dir = tmpdir("session");
    let session = SessionBuilder::new(catalog())
        .observability(
            Observability::new()
                .serve_on("127.0.0.1:0")
                .with_corpus(&dir),
        )
        .build()
        .unwrap();
    let server = Arc::clone(session.monitor().unwrap());
    let corpus = Arc::clone(session.corpus().unwrap());

    let sql = "SELECT count(*) FROM customer \
               JOIN nation ON customer.nationkey = nation.nationkey";
    for i in 0..2 {
        let mut h = session.query(sql).unwrap();
        assert_eq!(h.collect().unwrap().len(), 1);
        let archived = h.archived_run().expect("terminal event archives");
        assert_eq!(archived.record.run, i);
        assert_eq!(archived.record.state, "finished");
        assert_eq!(archived.record.estimator, "once");
        assert_eq!(archived.record.workload, sql);
        assert!(archived.record.events > 0);
        assert!(
            archived.regressions.is_empty(),
            "{:?}",
            archived.regressions
        );
    }
    assert_eq!(corpus.len(), 2);

    // Byte-identical replay round-trip, and score parity with the index.
    let stored = corpus.run(0).unwrap();
    let jsonl = corpus.trace_jsonl(0).unwrap();
    let trace = ReplayedTrace::parse(&jsonl);
    assert!(trace.errors.is_empty(), "{:?}", trace.errors);
    assert_eq!(trace.events.len() as u64, stored.events);
    let mut reencoded = String::new();
    for event in &trace.events {
        qprog::obs::json::write_event_json(&mut reencoded, event, &trace.op_names);
        reencoded.push('\n');
    }
    assert_eq!(jsonl, reencoded, "segment must round-trip byte-identically");
    assert_eq!(qprog::obs::score_events(&trace.events), stored.score);
    // A corpus turns publication on: the run is scored over the query's own
    // progress publications.
    assert!(stored.score.samples >= 10, "{:?}", stored.score);
    assert!(stored.score.convergence.is_some(), "{:?}", stored.score);

    // The monitor picked the corpus up from the session automatically.
    let listing = http_get(server.addr(), "/history");
    assert_eq!(listing.matches("\"run\":").count(), 2, "{listing}");
    assert!(listing.contains("JOIN nation"), "{listing}");
    let trace_dl = http_get(server.addr(), "/history/1/trace");
    assert!(trace_dl.contains("application/x-ndjson"), "{trace_dl}");
    assert!(
        trace_dl.contains("\"event\":\"query_finished\""),
        "{trace_dl}"
    );
    server.shutdown();
    let _ = fs::remove_dir_all(&dir);
}

/// An aborted run is archived with its abort reason and never enters the
/// regression baselines.
#[test]
fn aborted_runs_are_archived_with_their_reason() {
    let dir = tmpdir("abort");
    let session = SessionBuilder::new(catalog())
        .observability(Observability::new().with_corpus(&dir))
        .build()
        .unwrap();
    let mut h = session.query("SELECT * FROM customer").unwrap();
    h.cancel();
    assert!(h.collect().is_err());
    let archived = h.archived_run().expect("aborts archive too");
    assert_eq!(archived.record.state, "cancelled");
    assert!(archived.regressions.is_empty());
    let _ = fs::remove_dir_all(&dir);
}

/// The failpoint-seeded wall-time regression gate: real baselines, one
/// deliberately slowed run, zero false positives before and after.
#[cfg(feature = "failpoints")]
mod failpoints {
    use super::*;
    use qprog::fault::{self, FailScenario};
    use qprog::obs::{CorpusConfig, RegressionConfig};

    #[test]
    fn seeded_wall_time_regression_is_flagged_with_zero_false_positives() {
        let _scenario = FailScenario::setup();
        // Artifact dir: CI keeps (and uploads) it via QPROG_CI_CORPUS_DIR;
        // local runs use a scratch dir.
        let (dir, keep) = match std::env::var("QPROG_CI_CORPUS_DIR") {
            Ok(d) => (PathBuf::from(d), true),
            Err(_) => (tmpdir("failpoints"), false),
        };
        let _ = fs::remove_dir_all(&dir);
        // A high wall-time floor makes the gate immune to scheduler noise:
        // only a genuinely slowed run (the failpoint sleeps below are two
        // orders of magnitude) can cross median + 5x.
        let corpus = Arc::new(
            Corpus::open_with(
                &dir,
                CorpusConfig {
                    regression: RegressionConfig {
                        wall_time_floor_frac: 5.0,
                        ..RegressionConfig::default()
                    },
                    ..CorpusConfig::default()
                },
            )
            .unwrap(),
        );
        let registry = Arc::new(Registry::new());
        // Strict tuple mode: failpoints fire per batch boundary, and this
        // test's 2%-of-5000-checkpoints sleep budget assumes per-row
        // checkpoints (at the default batch_rows the scan has only ~5
        // boundaries, so the failpoint would almost never fire).
        let session = SessionBuilder::new(catalog())
            .batch_rows(1)
            .observability(
                Observability::new()
                    .with_metrics(Arc::clone(&registry))
                    .with_corpus_handle(Arc::clone(&corpus)),
            )
            .build()
            .unwrap();

        let sql = "SELECT * FROM customer";
        let run = |label: &str| {
            let mut h = session.query(sql).unwrap();
            assert_eq!(h.collect().unwrap().len(), 5000, "{label}");
            h.archived_run().expect("archived")
        };

        // 8 clean baselines: detection arms after min_baseline=5 and must
        // stay silent throughout.
        for i in 0..8 {
            let clean = run("baseline");
            assert!(
                clean.regressions.is_empty(),
                "false positive on clean run {i}: {:?}",
                clean.regressions
            );
        }

        // The degraded run: ~2% of the 5000 scan checkpoints sleep 2ms,
        // adding ~200ms to a run whose baseline is single-digit ms.
        fault::set_seed(7);
        fault::configure("exec/scan/next", "2%sleep(2)").unwrap();
        let degraded = run("degraded");
        fault::remove("exec/scan/next");
        assert_eq!(
            degraded.regressions.len(),
            1,
            "exactly the wall-time metric regresses: {:?}",
            degraded.regressions
        );
        assert_eq!(degraded.regressions[0].kind, RegressionKind::WallTime);
        let text = registry.render();
        assert!(
            text.contains("qprog_regressions_total{kind=\"wall_time\"} 1"),
            "{text}"
        );

        // Clean reruns after the incident: still zero false positives
        // (the slow run joins the baselines but cannot move the median).
        for i in 0..2 {
            let clean = run("rerun");
            assert!(
                clean.regressions.is_empty(),
                "false positive on rerun {i}: {:?}",
                clean.regressions
            );
        }
        assert_eq!(corpus.len(), 11);
        if !keep {
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
