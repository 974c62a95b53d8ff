//! Deterministic trace replay: parse the JSONL sink format back into
//! [`TraceEvent`] streams and re-drive any [`TraceSink`] offline.
//!
//! A recorded trace (from a [`JsonlSink`](crate::sinks::JsonlSink)) is the
//! complete observable history of a query. Replaying it reproduces every
//! downstream aggregate without re-running the query: a fresh
//! [`MetricsSink`](crate::metrics_sink::MetricsSink) fed a replayed trace
//! reaches the same counters and histograms as the live run, a
//! [`ValidatorSink`](crate::sinks::ValidatorSink) re-checks the invariants
//! post-hoc, and the [`scoring`](crate::scoring) module computes quality
//! metrics from the embedded `progress_sampled` snapshots. Replay is
//! deterministic: events keep their recorded `seq`/`at_us` stamps and are
//! fed to sinks directly — **not** through an [`EventBus`], which would
//! re-stamp them with wall-clock values.
//!
//! Parsing is line-oriented over the flat one-line objects produced by
//! [`event_to_json`](crate::json::event_to_json): each line is split into
//! its members once ([`qprog_types::json::members`]) and decoded by its
//! kind's declaration in [`qprog_exec::trace`]. Malformed or unknown lines
//! are collected, not fatal, so a truncated production trace (killed
//! writer, ring overflow) still replays its intact prefix.

use qprog_exec::trace::{TraceEvent, TraceEventKind, TraceSink, OP_NAME};
use qprog_types::json::{self, Token};

/// Operator indices a trace may name: bounds what one hostile line can
/// make [`ReplayedTrace::parse`] allocate.
const MAX_OPS: usize = 1 << 16;

/// A retired kind: an interval once traced apart from its estimate. Older
/// traces' lines of it are dropped, not reported, so a corpus archived
/// before `estimate_refined` carried the interval keeps its runs.
const RETIRED_EVENT: &str = "bounds_refined";

/// A parsed trace: the event stream plus whatever operator names the JSONL
/// carried.
#[derive(Debug, Clone, Default)]
pub struct ReplayedTrace {
    /// Events in file order (which is publication order for a
    /// single-writer JSONL sink).
    pub events: Vec<TraceEvent>,
    /// Operator names gleaned from `op_name` annotations, indexed by
    /// operator registry index (empty string = never named).
    pub op_names: Vec<String>,
    /// Lines that failed to parse, as `(line_number, reason)` (1-based).
    pub errors: Vec<(usize, String)>,
}

impl ReplayedTrace {
    /// Parse a whole JSONL document (one event object per line; blank
    /// lines are skipped).
    pub fn parse(jsonl: &str) -> ReplayedTrace {
        let mut trace = ReplayedTrace::default();
        let mut members = Vec::new();
        for (i, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match decode(line, &mut members) {
                Ok(event) => {
                    // Only events about an operator carry `op`/`op_name`.
                    if let Some((idx, name)) = event.kind.op().zip(member(&members, OP_NAME)) {
                        let idx = idx as usize;
                        if trace.op_names.len() <= idx && idx < MAX_OPS {
                            trace.op_names.resize(idx + 1, String::new());
                        }
                        // The codec is strict; the tolerance is here: a name
                        // that does not decode, or an index no plan reaches,
                        // is a diagnostic and the event still replays.
                        match trace.op_names.get_mut(idx) {
                            Some(slot) if slot.is_empty() => match name.str() {
                                Some(name) => *slot = name,
                                None => trace
                                    .errors
                                    .push((i + 1, format!("malformed escape in \"{OP_NAME}\""))),
                            },
                            Some(_) => {}
                            None => trace
                                .errors
                                .push((i + 1, format!("operator index {idx} out of range"))),
                        }
                    }
                    trace.events.push(event);
                }
                Err(_) if member(&members, "event").map(Token::raw) == Some(RETIRED_EVENT) => {}
                Err(reason) => trace.errors.push((i + 1, reason)),
            }
        }
        trace
    }

    /// Feed every parsed event to `sink`, preserving recorded stamps.
    pub fn replay_into(&self, sink: &dyn TraceSink) {
        for event in &self.events {
            sink.publish(event);
        }
    }
}

/// Parse one event object produced by
/// [`event_to_json`](crate::json::event_to_json).
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    decode(line, &mut Vec::new())
}

type Members<'a> = Vec<(&'a str, Token<'a>)>;

/// The first member `key` of a line split into its `members`.
fn member<'a>(members: &Members<'a>, key: &str) -> Option<Token<'a>> {
    let (_, value) = members.iter().find(|(name, _)| *name == key)?;
    Some(*value)
}

/// Split `line` into `members` (a buffer the caller may reuse) in one walk
/// and decode the event from them by its kind's declaration.
fn decode<'a>(line: &'a str, members: &mut Members<'a>) -> Result<TraceEvent, String> {
    members.clear();
    for m in json::members(line) {
        members.push(m.map_err(|_| "not a JSON object, or a malformed member")?);
    }
    let get = |key: &str| member(members, key);
    let event = get("event")
        .ok_or("not an event object (no \"event\" member)")?
        .raw();
    let parsed = || {
        Some(TraceEvent {
            seq: get("seq")?.u64()?,
            at_us: get("at_us")?.u64()?,
            kind: TraceEventKind::decode(event, get)?,
        })
    };
    parsed().ok_or_else(|| format!("unknown or malformed \"{event}\" event"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::event_to_json;
    use qprog_exec::span::{SpanKind, NO_PARENT};
    use qprog_exec::trace::{
        AbortKind, DegradeReason, EstimateSource, HealthReason, HealthState, Phase, RegressionKind,
    };

    /// NaN-tolerant event equality (NaN == NaN for round-trip purposes):
    /// `Debug` prints every float in its shortest round-tripping form.
    fn kinds_equal(a: &TraceEventKind, b: &TraceEventKind) -> bool {
        format!("{a:?}") == format!("{b:?}")
    }

    #[test]
    fn every_event_kind_round_trips() {
        let kinds = [
            TraceEventKind::PipelineStarted { pipeline: 3 },
            TraceEventKind::PipelineFinished { pipeline: 3 },
            TraceEventKind::PhaseTransition {
                op: 1,
                from: Phase::Build,
                to: Phase::Probe,
            },
            TraceEventKind::EstimateRefined {
                op: 2,
                old: f64::NAN,
                new: 1234.5678901234,
                source: EstimateSource::Online,
                lo: f64::NAN,
                hi: f64::NAN,
            },
            TraceEventKind::EstimateRefined {
                op: 2,
                old: 1000.0,
                new: 1234.5678901234,
                source: EstimateSource::Online,
                lo: 0.125,
                hi: 1e12,
            },
            TraceEventKind::OperatorFinished {
                op: 4,
                emitted: u64::MAX / 2,
            },
            TraceEventKind::QueryFinished { rows: 42 },
            TraceEventKind::QueryAborted {
                reason: AbortKind::DeadlineExceeded,
                rows: 7,
            },
            TraceEventKind::EstimatorDegraded {
                op: 0,
                reason: DegradeReason::HistogramMemory,
            },
            TraceEventKind::ProgressSampled {
                current: 999,
                total: 12345.5,
                fraction: 0.080923,
                lo: f64::NAN,
                hi: f64::NAN,
            },
            TraceEventKind::OperatorWallTime {
                op: 5,
                wall_us: 123_456,
            },
            TraceEventKind::WorkerWallTime {
                op: 5,
                worker: 3,
                busy_us: 9_876,
            },
            TraceEventKind::HealthTransition {
                from: HealthState::Healthy,
                to: HealthState::Stalled,
                reason: HealthReason::Stall,
            },
            TraceEventKind::HealthTransition {
                from: HealthState::Unstable,
                to: HealthState::Healthy,
                reason: HealthReason::Recovered,
            },
            TraceEventKind::RegressionDetected {
                kind: RegressionKind::MeanAbsErr,
                observed: 0.31,
                baseline: 0.04,
                threshold: 0.09,
            },
            TraceEventKind::RegressionDetected {
                kind: RegressionKind::WallTime,
                observed: 2_500_000.0,
                baseline: f64::NAN,
                threshold: f64::NAN,
            },
            TraceEventKind::SpanStart {
                span: 0,
                parent: NO_PARENT,
                kind: SpanKind::Query,
                arg: 0,
            },
            TraceEventKind::SpanStart {
                span: 3,
                parent: 0,
                kind: SpanKind::Dispatch,
                arg: 2,
            },
            TraceEventKind::SpanEnd { span: 3 },
        ];
        let names: Vec<String> = (0..6).map(|i| format!("op{i}")).collect();
        for (i, kind) in kinds.into_iter().enumerate() {
            let event = TraceEvent {
                seq: i as u64,
                at_us: 1000 + i as u64,
                kind,
            };
            let line = event_to_json(&event, &names);
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back.seq, event.seq);
            assert_eq!(back.at_us, event.at_us);
            assert!(
                kinds_equal(&back.kind, &event.kind),
                "{:?} != {:?} (line: {line})",
                back.kind,
                event.kind
            );
        }
    }

    #[test]
    fn parse_collects_op_names_and_errors() {
        let jsonl = "\
{\"seq\":0,\"at_us\":1,\"event\":\"operator_finished\",\"op\":1,\"op_name\":\"hash_join\",\"emitted\":5}\n\
\n\
not json at all\n\
{\"seq\":1,\"at_us\":2,\"event\":\"mystery\"}\n\
{\"seq\":2,\"at_us\":3,\"event\":\"query_finished\",\"rows\":5}\n\
{\"seq\":3,\"at_us\":4,\"event\":\"operator_finished\",\"op\":4294967295,\"op_name\":\"x\",\"emitted\":1}\n\
{\"seq\":4,\"at_us\":5,\"event\":\"operator_finished\",\"op\":0,\"op_name\":\"bad \\q\",\"emitted\":1}\n";
        let trace = ReplayedTrace::parse(jsonl);
        // A name that cannot be used (hostile index, bad escape) is a
        // diagnostic; its event still replays.
        assert_eq!(trace.events.len(), 4);
        assert_eq!(
            trace.op_names,
            vec!["".to_string(), "hash_join".to_string()]
        );
        let lines: Vec<usize> = trace.errors.iter().map(|(n, _)| *n).collect();
        assert_eq!(lines, vec![3, 4, 6, 7], "{:?}", trace.errors);
    }

    #[test]
    fn estimate_intervals_are_optional_but_strict() {
        let line = |tail: &str| {
            format!(
                "{{\"seq\":0,\"at_us\":0,\"event\":\"estimate_refined\",\"op\":1,\
                 \"old\":2,\"new\":3,\"source\":\"online\"{tail}}}"
            )
        };
        let bracket = |tail: &str| match parse_event(&line(tail)).map(|e| e.kind) {
            Ok(TraceEventKind::EstimateRefined { lo, hi, .. }) => Some((lo, hi)),
            _ => None,
        };
        let (lo, hi) = bracket("").expect("no interval parses");
        assert!(lo.is_nan() && hi.is_nan());
        assert_eq!(bracket(",\"lo\":1.5,\"hi\":4"), Some((1.5, 4.0)));
        for bad in [
            ",\"lo\":\"1\",\"hi\":4",
            ",\"lo\":1,\"hi\":4x",
            ",\"hi\":true",
        ] {
            assert!(parse_event(&line(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn retired_bounds_lines_are_dropped_silently() {
        let retired =
            "{\"seq\":1,\"at_us\":2,\"event\":\"bounds_refined\",\"op\":0,\"lo\":1,\"hi\":9}";
        let jsonl = format!(
            "{retired}\n{{\"seq\":2,\"at_us\":3,\"event\":\"query_finished\",\"rows\":5}}\n"
        );
        let trace = ReplayedTrace::parse(&jsonl);
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        assert_eq!(trace.events.len(), 1);
        // The per-line codec itself knows no such kind.
        assert!(parse_event(retired).is_err());
    }

    #[test]
    fn every_span_kind_round_trips() {
        use qprog_exec::span::SpanKind::*;
        for (i, kind) in [
            Query,
            Submit,
            JournalAppend,
            QueueWait,
            BackoffPark,
            Dispatch,
            Finalize,
        ]
        .into_iter()
        .enumerate()
        {
            let event = TraceEvent {
                seq: i as u64,
                at_us: 10 * i as u64,
                kind: TraceEventKind::SpanStart {
                    span: i as u32 + 1,
                    parent: if kind == Query { NO_PARENT } else { 0 },
                    kind,
                    arg: i as u32,
                },
            };
            let line = event_to_json(&event, &[]);
            let back = parse_event(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, event, "line: {line}");
        }
    }

    #[test]
    fn op_names_with_escapes_parse_back_to_original_text() {
        // Control characters and non-ASCII in an operator name must survive
        // the encode → parse round trip byte-identically.
        let name = "scan \"α→β\"\t\\x\u{1}\n日本語";
        let event = TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::OperatorFinished { op: 0, emitted: 1 },
        };
        let jsonl = event_to_json(&event, &[name.to_string()]);
        let trace = ReplayedTrace::parse(&jsonl);
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.op_names, vec![name.to_string()]);
        // Re-encoding with the recovered names reproduces the exact bytes.
        assert_eq!(event_to_json(&event, &trace.op_names), jsonl);
    }

    #[test]
    fn replay_preserves_recorded_stamps() {
        use qprog_exec::sync::Mutex;
        struct Collect(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Collect {
            fn publish(&self, e: &TraceEvent) {
                self.0.lock().push(*e);
            }
        }
        let jsonl = "\
{\"seq\":10,\"at_us\":777,\"event\":\"query_finished\",\"rows\":1}\n";
        let trace = ReplayedTrace::parse(jsonl);
        let sink = Collect(Mutex::new(Vec::new()));
        trace.replay_into(&sink);
        let events = sink.0.lock();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 10);
        assert_eq!(events[0].at_us, 777);
    }
}
