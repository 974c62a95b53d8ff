//! Seeded fuzzing of the flat-JSON codec (`qprog::types::json`) and the
//! four readers built on it — the `/submit` body getters, the journal,
//! the corpus index and trace replay (ROADMAP 8(c), first slice). Bytes
//! from outside the process never panic a reader and never half-parse:
//! garbage, torn lines and mutated lines come back `None`/`Err`/a
//! diagnostic, and everything the writers emit reads back to the same
//! values. The trace decoder splits a line once; a reference copy of the
//! getter-per-member decoder it replaced checks that it accepts no line
//! that one rejected.

use std::time::Duration;

use qprog::exec::span::{SpanKind, NO_PARENT};
use qprog::exec::trace::{
    AbortKind, DegradeReason, EstimateSource, HealthReason, HealthState, Phase, RegressionKind,
    TraceEventKind,
};
use qprog::monitor::http::{body_str_field, body_u64_field, parse_request};
use qprog::obs::json::event_to_json;
use qprog::obs::replay::parse_event;
use qprog::obs::{ProgressScore, QErrorSummary, ReplayedTrace};
use qprog::prelude::*;
use qprog::svc::journal::{parse_line, submit_line, Record};
use qprog::svc::PendingEntry;
use qprog::types::json;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Fixed seeds: a failure names its seed and reproduces.
const SEEDS: [u64; 4] = [1, 88, 0xC0DEC, 0x5EED_F00D];

/// Arbitrary Unicode weighted toward what breaks codecs: quotes,
/// backslashes, structure characters, controls, key-looking text, non-BMP.
fn arbitrary_text(rng: &mut StdRng) -> String {
    const SPICE: [&str; 12] = [
        "\"",
        "\\",
        "{",
        "}",
        ",",
        ":",
        "\"id\":9",
        ",\"sql\":\"x\"",
        "\\u12",
        "\n",
        "é",
        "🎯",
    ];
    let mut out = String::new();
    for _ in 0..rng.random_range(0..12usize) {
        match rng.random_range(0..4u32) {
            0 => out.push_str(SPICE[rng.random_range(0..SPICE.len())]),
            1 => out.push(char::from_u32(rng.random_range(0..0x20u32)).unwrap()),
            2 => out.push(char::from_u32(rng.random_range(0x20..0x7fu32)).unwrap()),
            // any scalar value (surrogate code points are not chars: skipped)
            _ => out.extend(char::from_u32(rng.random_range(0..0x11_0000u32))),
        }
    }
    out
}

fn arbitrary_entry(rng: &mut StdRng) -> PendingEntry {
    PendingEntry {
        id: rng.random_range(0..u64::MAX),
        tenant: arbitrary_text(rng),
        label: arbitrary_text(rng),
        sql: arbitrary_text(rng),
        deadline: rng
            .random_bool(0.5)
            .then(|| Duration::from_millis(rng.random_range(0..100_000u64))),
    }
}

fn arbitrary_record(rng: &mut StdRng) -> RunRecord {
    RunRecord {
        run: rng.random_range(0..1_000_000u64),
        label: arbitrary_text(rng),
        workload: arbitrary_text(rng),
        estimator: arbitrary_text(rng),
        threads: rng.random_range(1..9usize),
        seed: rng.random_range(0..u64::MAX),
        state: arbitrary_text(rng),
        wall_us: rng.random_range(0..u64::MAX),
        events: rng.random_range(0..100_000u64),
        trace_bytes: rng.random_range(0..u64::MAX),
        regressions: rng.random_range(0..4usize),
        score: ProgressScore {
            samples: rng.random_range(0..500usize),
            mean_abs_err: rng.random_f64(),
            max_abs_err: rng.random_f64(),
            monotonicity_violations: rng.random_range(0..3usize),
            convergence: rng.random_bool(0.5).then(|| rng.random_f64()),
            q_error: QErrorSummary {
                count: rng.random_range(0..9usize),
                mean: 1.0 + rng.random_f64(),
                max: 1.0 + 9.0 * rng.random_f64(),
            },
        },
    }
}

fn arbitrary_event(rng: &mut StdRng) -> TraceEvent {
    let kind = match rng.random_range(0..4u32) {
        0 => {
            // With an interval and without one (no `lo`/`hi` members).
            let (lo, hi) = match rng.random_bool(0.5) {
                true => (1e6 * rng.random_f64(), 1e6 * rng.random_f64()),
                false => (f64::NAN, f64::NAN),
            };
            TraceEventKind::EstimateRefined {
                op: 0,
                old: rng.random_f64(),
                new: 1e6 * rng.random_f64(),
                source: EstimateSource::Online,
                lo,
                hi,
            }
        }
        1 => TraceEventKind::PhaseTransition {
            op: 0,
            from: Phase::Build,
            to: Phase::Probe,
        },
        2 => TraceEventKind::OperatorFinished {
            op: 0,
            emitted: rng.random_range(0..u64::MAX),
        },
        _ => TraceEventKind::ProgressSampled {
            current: rng.random_range(0..u64::MAX),
            total: 1e9 * rng.random_f64(),
            fraction: rng.random_f64(),
            lo: rng.random_f64(),
            hi: rng.random_f64(),
        },
    };
    TraceEvent {
        seq: rng.random_range(0..u64::MAX),
        at_us: rng.random_range(0..u64::MAX),
        kind,
    }
}

/// Feed `text` to every reader. Returns whether one of the three line
/// readers accepted it; on garbage the point is that it returns at all.
fn read_with_everything(text: &str) -> bool {
    let _ = parse_request(text);
    for key in ["sql", "id"] {
        let _ = body_str_field(text, key);
        let _ = body_u64_field(text, key);
        let _ = json::f64(text, key);
    }
    let _ = json::unescape(text);
    let _ = ProgressScore::from_json(text);
    let _ = ReplayedTrace::parse(text);
    let event = parse_event(text);
    match (&event, getter_decoder(text)) {
        (Ok(event), Some(reference)) => {
            assert_eq!(format!("{event:?}"), format!("{reference:?}"), "{text}");
        }
        (Ok(event), None) => {
            panic!("accepted a line the getter decoder rejected: {text} -> {event:?}")
        }
        // Stricter by one rule: the line is split whole, so a malformed
        // member behind the ones the kind needs rejects it.
        (Err(_), Some(_)) => assert!(json::members(text).any(|m| m.is_err()), "{text}"),
        (Err(_), None) => {}
    }
    parse_line(text).is_ok() || RunRecord::parse(text).is_ok() || event.is_ok()
}

/// The trace decoder the member split replaced, kept as a reference: one
/// whole-line getter per member.
fn getter_decoder(line: &str) -> Option<TraceEvent> {
    let u32_of = |key| json::u64(line, key)?.try_into().ok();
    let phase = |key| Phase::from_name(json::raw(line, key)?);
    let health = |key| HealthState::from_name(json::raw(line, key)?);
    let interval_end =
        |key| json::f64(line, key).or_else(|| json::raw(line, key).is_none().then_some(f64::NAN));
    let kind = match json::raw(line, "event")? {
        "pipeline_started" => TraceEventKind::PipelineStarted {
            pipeline: u32_of("pipeline")?,
        },
        "pipeline_finished" => TraceEventKind::PipelineFinished {
            pipeline: u32_of("pipeline")?,
        },
        "phase_transition" => TraceEventKind::PhaseTransition {
            op: u32_of("op")?,
            from: phase("from")?,
            to: phase("to")?,
        },
        "estimate_refined" => TraceEventKind::EstimateRefined {
            op: u32_of("op")?,
            old: json::f64(line, "old")?,
            new: json::f64(line, "new")?,
            source: EstimateSource::from_name(json::raw(line, "source")?)?,
            lo: interval_end("lo")?,
            hi: interval_end("hi")?,
        },
        "operator_finished" => TraceEventKind::OperatorFinished {
            op: u32_of("op")?,
            emitted: json::u64(line, "emitted")?,
        },
        "query_finished" => TraceEventKind::QueryFinished {
            rows: json::u64(line, "rows")?,
        },
        "query_aborted" => TraceEventKind::QueryAborted {
            reason: AbortKind::from_name(json::raw(line, "reason")?)?,
            rows: json::u64(line, "rows")?,
        },
        "estimator_degraded" => TraceEventKind::EstimatorDegraded {
            op: u32_of("op")?,
            reason: DegradeReason::from_name(json::raw(line, "reason")?)?,
        },
        "progress_sampled" => TraceEventKind::ProgressSampled {
            current: json::u64(line, "current")?,
            total: json::f64(line, "total")?,
            fraction: json::f64(line, "fraction")?,
            lo: json::f64(line, "lo")?,
            hi: json::f64(line, "hi")?,
        },
        "operator_wall_time" => TraceEventKind::OperatorWallTime {
            op: u32_of("op")?,
            wall_us: json::u64(line, "wall_us")?,
        },
        "worker_wall_time" => TraceEventKind::WorkerWallTime {
            op: u32_of("op")?,
            worker: u32_of("worker")?,
            busy_us: json::u64(line, "busy_us")?,
        },
        "health_transition" => TraceEventKind::HealthTransition {
            from: health("from")?,
            to: health("to")?,
            reason: HealthReason::from_name(json::raw(line, "reason")?)?,
        },
        "regression_detected" => TraceEventKind::RegressionDetected {
            kind: RegressionKind::from_name(json::raw(line, "kind")?)?,
            observed: json::f64(line, "observed")?,
            baseline: json::f64(line, "baseline")?,
            threshold: json::f64(line, "threshold")?,
        },
        "span_start" => TraceEventKind::SpanStart {
            span: u32_of("span")?,
            parent: match json::raw(line, "parent") {
                Some(_) => u32_of("parent")?,
                None => NO_PARENT,
            },
            kind: SpanKind::from_name(json::raw(line, "kind")?)?,
            arg: u32_of("arg")?,
        },
        "span_end" => TraceEventKind::SpanEnd {
            span: u32_of("span")?,
        },
        _ => return None,
    };
    Some(TraceEvent {
        seq: json::u64(line, "seq")?,
        at_us: json::u64(line, "at_us")?,
        kind,
    })
}

#[test]
fn codec_and_its_readers_survive_seeded_fuzzing() {
    let mut cases = 0usize;
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..16 {
            let ctx = format!("seed {seed:#x} round {round}");

            // 1. What the writers emit reads back to the same values, and
            //    the escaping round-trips arbitrary Unicode.
            let text = arbitrary_text(&mut rng);
            assert_eq!(json::unescape(&json::escape(&text)), Some(text), "{ctx}");
            let entry = arbitrary_entry(&mut rng);
            // (a journal line is also the shape of a `/submit` body)
            let journal = submit_line(&entry).trim_end().to_string();
            let sql = body_str_field(&journal, "sql");
            assert_eq!(sql.as_ref(), Some(&entry.sql), "{ctx}: {journal}");
            assert_eq!(body_u64_field(&journal, "id"), Some(entry.id), "{ctx}");
            assert_eq!(parse_line(&journal), Ok(Record::Submit(entry)), "{ctx}");
            let record = arbitrary_record(&mut rng);
            let index = record.to_json();
            assert_eq!(RunRecord::parse(&index), Ok(record), "{ctx}: {index}");
            let (event, name) = (arbitrary_event(&mut rng), arbitrary_text(&mut rng));
            let trace = event_to_json(&event, std::slice::from_ref(&name));
            let replayed = ReplayedTrace::parse(&trace);
            // Compared as `Debug` text, where a missing interval's NaN
            // equals itself.
            let back = format!("{:?}", replayed.events);
            assert_eq!(back, format!("{:?}", [event]), "{ctx}: {trace}");
            assert!(replayed.errors.is_empty(), "{ctx}: {:?}", replayed.errors);
            let named = !matches!(event.kind, TraceEventKind::ProgressSampled { .. });
            if named && !name.is_empty() {
                assert_eq!(replayed.op_names, vec![name], "{ctx}: {trace}");
            }

            // 2. A value full of key-looking text never shadows the real
            //    member, before it or behind it.
            let junk = json::escape(&arbitrary_text(&mut rng));
            let shadowed = format!("{{\"id\":4,\"label\":\"{junk}\",\"sql\":\"real\"}}");
            assert_eq!(
                body_u64_field(&shadowed, "id"),
                Some(4),
                "{ctx}: {shadowed}"
            );
            let sql = body_str_field(&shadowed, "sql");
            assert_eq!(sql.as_deref(), Some("real"), "{ctx}: {shadowed}");

            for line in [&journal, &index, &trace] {
                // 3. Torn at every offset: never a panic, never a record.
                for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                    let torn = &line[..cut];
                    assert!(!read_with_everything(torn), "{ctx}: accepted {torn}");
                    cases += 1;
                }
                // 4. Mutated (a bit flipped, a byte dropped or doubled):
                //    whatever the verdict, no panic.
                for _ in 0..40 {
                    let mut bytes = line.clone().into_bytes();
                    let at = rng.random_range(0..bytes.len());
                    match rng.random_range(0..3u32) {
                        0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
                        1 => drop(bytes.remove(at)),
                        _ => bytes.insert(at, bytes[at]),
                    }
                    read_with_everything(&String::from_utf8_lossy(&bytes));
                    cases += 1;
                }
            }

            // 5. Arbitrary bytes.
            for _ in 0..20 {
                let len = rng.random_range(0..96usize);
                let bytes: Vec<u8> = (0..len)
                    .map(|_| rng.random_range(0..256u32) as u8)
                    .collect();
                read_with_everything(&String::from_utf8_lossy(&bytes));
                cases += 1;
            }
        }
    }
    assert!(cases >= 50_000, "only {cases} cases ran");
}

/// Lines the parent commit wrote (before the codecs were unified) parse
/// to the same fields.
#[test]
fn parent_written_lines_parse_to_the_same_fields() {
    let submit = r#"{"op":"submit","id":41,"tenant":"acme \"eu\"","label":"nightly\trollup","deadline_ms":2500,"sql":"SELECT \"n\".name, '\\x' FROM nation n -- \"id\":9,\nWHERE a = 'é🎯\u0001'"}"#;
    let sql = "SELECT \"n\".name, '\\x' FROM nation n -- \"id\":9,\nWHERE a = 'é🎯\u{1}'";
    assert_eq!(
        parse_line(submit),
        Ok(Record::Submit(PendingEntry {
            id: 41,
            tenant: "acme \"eu\"".to_string(),
            label: "nightly\trollup".to_string(),
            sql: sql.to_string(),
            deadline: Some(Duration::from_millis(2500)),
        }))
    );
    let terminal = r#"{"op":"terminal","id":41,"state":"finished","wall_us":123456}"#;
    assert_eq!(parse_line(terminal), Ok(Record::Terminal(41)));
    assert_eq!(json::u64(terminal, "wall_us"), Some(123456));

    // The parent's index writer replaced `"`, `\` and controls by spaces.
    let index = r#"{"run":17,"label":"q8  zipf  2 x","workload":"q8_zipf2","estimator":"once","threads":4,"seed":88,"state":"finished","wall_us":40961,"events":999,"trace_bytes":88123,"regressions":1,"samples":12,"mean_abs_err":0.2021484375,"max_abs_err":0.4248,"monotonicity_violations":0,"convergence":null,"q_error_count":7,"q_error_mean":1.0009765625,"q_error_max":null}"#;
    let record = RunRecord::parse(index).unwrap();
    assert!(record.score.q_error.max.is_nan());
    let expected = RunRecord {
        run: 17,
        label: "q8  zipf  2 x".to_string(),
        workload: "q8_zipf2".to_string(),
        estimator: "once".to_string(),
        threads: 4,
        seed: 88,
        state: "finished".to_string(),
        wall_us: 40961,
        events: 999,
        trace_bytes: 88123,
        regressions: 1,
        score: ProgressScore {
            samples: 12,
            mean_abs_err: 0.2021484375,
            max_abs_err: 0.4248,
            monotonicity_violations: 0,
            convergence: None,
            q_error: QErrorSummary {
                count: 7,
                mean: 1.0009765625,
                max: record.score.q_error.max, // NaN != NaN
            },
        },
    };
    assert_eq!(record.to_json(), expected.to_json());
    assert_eq!(record.to_json(), index);

    let trace = concat!(
        r#"{"seq":70,"at_us":6463,"event":"estimate_refined","op":1,"op_name":"hash \"join\"\\\u0001é","old":null,"new":1523.4375,"source":"online"}"#,
        "\n",
        r#"{"seq":71,"at_us":6464,"event":"phase_transition","op":1,"op_name":"hash \"join\"\\\u0001é","from":"build","to":"probe"}"#,
        "\n",
        r#"{"seq":72,"at_us":6465,"event":"progress_sampled","current":7804,"total":46083,"fraction":0.16934661372957055,"lo":0.1,"hi":null}"#,
        "\n",
    );
    let replayed = ReplayedTrace::parse(trace);
    assert!(replayed.errors.is_empty(), "{:?}", replayed.errors);
    let names = vec![String::new(), "hash \"join\"\\\u{1}é".to_string()];
    assert_eq!(replayed.op_names, names);
    assert_eq!(replayed.events.len(), 3);
    assert_eq!(
        (replayed.events[0].seq, replayed.events[0].at_us),
        (70, 6463)
    );
    match replayed.events[0].kind {
        TraceEventKind::EstimateRefined {
            op,
            old,
            new,
            source,
            lo,
            hi,
        } => {
            assert!(op == 1 && old.is_nan() && new == 1523.4375);
            assert_eq!(source, EstimateSource::Online);
            assert!(lo.is_nan() && hi.is_nan(), "no members, no interval");
        }
        ref other => panic!("{other:?}"),
    }
    assert_eq!(
        replayed.events[1].kind,
        TraceEventKind::PhaseTransition {
            op: 1,
            from: Phase::Build,
            to: Phase::Probe
        }
    );
    match replayed.events[2].kind {
        TraceEventKind::ProgressSampled {
            current,
            total,
            fraction,
            lo,
            hi,
        } => {
            assert_eq!((current, total, lo), (7804, 46083.0, 0.1));
            assert_eq!(fraction, 0.16934661372957055);
            assert!(hi.is_nan());
        }
        ref other => panic!("{other:?}"),
    }
    // Re-encoding reproduces the parent's bytes.
    let reencoded: String = replayed
        .events
        .iter()
        .map(|e| event_to_json(e, &replayed.op_names) + "\n")
        .collect();
    assert_eq!(reencoded, trace);
}

/// A float the codec must carry: finite, NaN or ±inf (both written
/// `null`).
fn arbitrary_float(rng: &mut StdRng) -> f64 {
    match rng.random_range(0..5u32) {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        _ => 1e9 * (rng.random_f64() - 0.5),
    }
}

fn pick<T: Copy>(rng: &mut StdRng, all: &[T]) -> T {
    all[rng.random_range(0..all.len())]
}

/// One event of every kind, with the members each rule treats apart: an
/// interval with neither, one or both ends set, a root and a child span,
/// and operator indices up to past what replay names.
fn every_kind(rng: &mut StdRng) -> Vec<TraceEventKind> {
    let mut op = || match rng.random_range(0..4u32) {
        0 => 70_000, // past replay's MAX_OPS
        _ => rng.random_range(0..4u32),
    };
    let ops = [op(), op(), op(), op(), op()];
    let (lo, hi) = match rng.random_range(0..4u32) {
        0 => (f64::NAN, f64::NAN),
        1 => (arbitrary_float(rng), f64::NAN),
        2 => (f64::NAN, arbitrary_float(rng)),
        _ => (arbitrary_float(rng), arbitrary_float(rng)),
    };
    vec![
        TraceEventKind::PipelineStarted {
            pipeline: rng.random_range(0..u32::MAX),
        },
        TraceEventKind::PipelineFinished {
            pipeline: rng.random_range(0..u32::MAX),
        },
        TraceEventKind::PhaseTransition {
            op: ops[0],
            from: pick(rng, Phase::ALL),
            to: pick(rng, Phase::ALL),
        },
        TraceEventKind::EstimateRefined {
            op: ops[1],
            old: arbitrary_float(rng),
            new: arbitrary_float(rng),
            source: pick(rng, EstimateSource::ALL),
            lo,
            hi,
        },
        TraceEventKind::OperatorFinished {
            op: ops[2],
            emitted: rng.random_range(0..u64::MAX),
        },
        TraceEventKind::QueryFinished {
            rows: rng.random_range(0..u64::MAX),
        },
        TraceEventKind::QueryAborted {
            reason: pick(rng, AbortKind::ALL),
            rows: rng.random_range(0..u64::MAX),
        },
        TraceEventKind::EstimatorDegraded {
            op: ops[3],
            reason: pick(rng, DegradeReason::ALL),
        },
        TraceEventKind::ProgressSampled {
            current: rng.random_range(0..u64::MAX),
            total: arbitrary_float(rng),
            fraction: arbitrary_float(rng),
            lo: arbitrary_float(rng),
            hi: arbitrary_float(rng),
        },
        TraceEventKind::OperatorWallTime {
            op: ops[4],
            wall_us: rng.random_range(0..u64::MAX),
        },
        TraceEventKind::WorkerWallTime {
            op: rng.random_range(0..4u32),
            worker: rng.random_range(0..u32::MAX),
            busy_us: rng.random_range(0..u64::MAX),
        },
        TraceEventKind::HealthTransition {
            from: pick(rng, HealthState::ALL),
            to: pick(rng, HealthState::ALL),
            reason: pick(rng, HealthReason::ALL),
        },
        TraceEventKind::RegressionDetected {
            kind: pick(rng, RegressionKind::ALL),
            observed: arbitrary_float(rng),
            baseline: arbitrary_float(rng),
            threshold: arbitrary_float(rng),
        },
        TraceEventKind::SpanStart {
            span: rng.random_range(0..u32::MAX),
            parent: match rng.random_bool(0.5) {
                true => NO_PARENT,
                false => rng.random_range(0..u32::MAX),
            },
            kind: pick(rng, SpanKind::ALL),
            arg: rng.random_range(0..u32::MAX),
        },
        TraceEventKind::SpanEnd {
            span: rng.random_range(0..u32::MAX),
        },
    ]
}

/// `Debug` text with ±inf read as NaN, which is what `null` decodes to.
fn as_decoded(kind: &TraceEventKind) -> String {
    format!("{kind:?}")
        .replace(": -inf", ": NaN")
        .replace(": inf", ": NaN")
}

#[test]
fn every_kind_round_trips_through_its_declaration() {
    let mut kinds_seen = std::collections::BTreeSet::new();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for round in 0..16 {
            let name = arbitrary_text(&mut rng);
            let names: Vec<String> = (0..4).map(|_| name.clone()).collect();
            for (i, kind) in every_kind(&mut rng).into_iter().enumerate() {
                let ctx = format!("seed {seed:#x} round {round}");
                kinds_seen.insert(kind.name());
                let event = TraceEvent {
                    seq: rng.random_range(0..u64::MAX),
                    at_us: rng.random_range(0..u64::MAX),
                    kind,
                };
                let mut line = event_to_json(&event, &names);
                let op = kind.op().map(|op| op as usize);
                if op.is_some_and(|op| op >= names.len()) {
                    // Past any name table: splice the name in by hand.
                    let at = line.find(",\"op\":").unwrap() + 6;
                    let at = at + line[at..].find(',').unwrap();
                    line.insert_str(at, &format!(",\"op_name\":\"{}\"", json::escape(&name)));
                }
                let replayed = ReplayedTrace::parse(&line);
                assert_eq!(
                    replayed.events.len(),
                    1,
                    "{ctx}: {line} {:?}",
                    replayed.errors
                );
                let back = replayed.events[0];
                assert_eq!((back.seq, back.at_us), (event.seq, event.at_us), "{ctx}");
                assert_eq!(as_decoded(&back.kind), as_decoded(&kind), "{ctx}: {line}");
                // Once decoded, a line re-encodes to itself.
                let again = event_to_json(&back, &[]);
                let twice = event_to_json(&parse_event(&again).unwrap(), &[]);
                assert_eq!(twice, again, "{ctx}");
                match op {
                    Some(op) if op < 1 << 16 => {
                        assert!(replayed.errors.is_empty(), "{ctx}: {:?}", replayed.errors);
                        assert_eq!(replayed.op_names[op], name, "{ctx}: {line}");
                    }
                    Some(op) => {
                        assert!(replayed.op_names.is_empty(), "{ctx}");
                        let out_of_range = format!("operator index {op} out of range");
                        assert_eq!(replayed.errors, vec![(1, out_of_range)], "{ctx}");
                    }
                    None => assert!(replayed.op_names.is_empty() && replayed.errors.is_empty()),
                }
                // Torn and mutated lines of every kind: never a panic, and
                // never accepted where the getter decoder refused.
                if i % 4 == round % 4 {
                    for cut in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
                        assert!(!read_with_everything(&line[..cut]), "{ctx}: {line}");
                    }
                }
                for _ in 0..8 {
                    let mut bytes = line.clone().into_bytes();
                    let at = rng.random_range(0..bytes.len());
                    match rng.random_range(0..3u32) {
                        0 => bytes[at] ^= 1 << rng.random_range(0..8u32),
                        1 => drop(bytes.remove(at)),
                        _ => bytes.insert(at, bytes[at]),
                    }
                    read_with_everything(&String::from_utf8_lossy(&bytes));
                }
            }
        }
    }
    assert_eq!(kinds_seen.len(), 15, "a kind is missing: {kinds_seen:?}");
}

#[test]
fn a_duplicate_member_keeps_its_first_value() {
    let line = r#"{"seq":1,"at_us":2,"seq":9,"event":"operator_finished","op":1,"op_name":"a","emitted":5,"op_name":"b","emitted":7,"event":"query_finished"}"#;
    let event = parse_event(line).unwrap();
    assert_eq!(event.seq, 1);
    assert_eq!(
        event.kind,
        TraceEventKind::OperatorFinished { op: 1, emitted: 5 }
    );
    let replayed = ReplayedTrace::parse(line);
    assert_eq!(replayed.op_names, vec![String::new(), "a".to_string()]);
    assert_eq!(json::u64(line, "emitted"), Some(5));
    let members: Vec<_> = json::members(line).map(|m| m.unwrap().0).collect();
    assert_eq!(members.iter().filter(|k| **k == "emitted").count(), 2);
}

/// Lines the getter decoder rejected stay rejected, and the one line
/// shape it accepted that the split refuses is a malformed member behind
/// the ones the kind needs.
#[test]
fn rejected_lines_stay_rejected() {
    let head =
        r#"{"seq":0,"at_us":0,"event":"estimate_refined","op":1,"old":2,"new":3,"source":"online""#;
    for bad in [
        r#"{"seq":0,"at_us":0,"event":"mystery"}"#.to_string(),
        r#"{"seq":0,"at_us":0}"#.to_string(),
        r#"{"seq":-1,"at_us":0,"event":"query_finished","rows":1}"#.to_string(),
        r#"{"seq":0,"at_us":0,"event":"query_finished","rows":"1"}"#.to_string(),
        r#"{"seq":0,"at_us":0,"event":"span_end","span":4294967296}"#.to_string(),
        r#"{"seq":0,"at_us":0,"event":"span_start","span":1,"parent":null,"kind":"query","arg":0}"#.to_string(),
        r#"{"seq":0,"at_us":0,"event":"phase_transition","op":0,"from":"build","to":"nowhere"}"#.to_string(),
        r#"{"seq":0,"at_us":0,"event":"progress_sampled","current":1,"total":2,"fraction":0.5,"lo":0.1}"#.to_string(),
        format!("{head},\"lo\":\"1\",\"hi\":4}}"),
        format!("{head},\"lo\":1,\"hi\":4x}}"),
        format!("{head},\"hi\":true}}"),
        head.to_string(),
        "[1,2]".to_string(),
        String::new(),
    ] {
        assert!(getter_decoder(&bad).is_none(), "{bad}");
        assert!(parse_event(&bad).is_err(), "{bad}");
    }
    let tail = format!("{head},\"lo\":1,\"hi\":4,\"note\":}}");
    assert!(getter_decoder(&tail).is_some());
    assert!(parse_event(&tail).is_err(), "{tail}");
}
