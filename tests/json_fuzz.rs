//! Seeded fuzzing of the flat-JSON codec (`qprog::types::json`) and the
//! four readers built on it — the `/submit` body getters, the journal,
//! the corpus index and trace replay (ROADMAP 8(c), first slice). Bytes
//! from outside the process never panic a reader and never half-parse:
//! garbage, torn lines and mutated lines come back `None`/`Err`/a
//! diagnostic, and everything the writers emit reads back to the same
//! values.

use std::time::Duration;

use qprog::exec::trace::{EstimateSource, Phase, TraceEventKind};
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
    parse_line(text).is_ok() || RunRecord::parse(text).is_ok() || parse_event(text).is_ok()
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
