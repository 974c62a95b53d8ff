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
//! [`event_to_json`](crate::json::event_to_json); malformed or unknown
//! lines are collected, not fatal, so a truncated production trace (killed
//! writer, ring overflow) still replays its intact prefix.

use qprog_exec::span::{SpanKind, NO_PARENT};
use qprog_exec::trace::{
    AbortKind, DegradeReason, EstimateSource, HealthReason, HealthState, Phase, RegressionKind,
    TraceEvent, TraceEventKind, TraceSink,
};
use qprog_types::json;

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
        for (i, line) in jsonl.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_event(line) {
                Ok(event) => {
                    // Only events about an operator carry `op`/`op_name`.
                    let named = json::raw(line, "op_name")
                        .and_then(|name| Some((u32_of(line, "op")? as usize, name)));
                    if let Some((idx, name)) = named {
                        if trace.op_names.len() <= idx && idx < MAX_OPS {
                            trace.op_names.resize(idx + 1, String::new());
                        }
                        // The codec is strict; the tolerance is here: a name
                        // that does not decode, or an index no plan reaches,
                        // is a diagnostic and the event still replays.
                        match trace.op_names.get_mut(idx) {
                            Some(slot) if slot.is_empty() => match json::unescape(name) {
                                Some(name) => *slot = name,
                                None => trace
                                    .errors
                                    .push((i + 1, "malformed escape in \"op_name\"".to_string())),
                            },
                            Some(_) => {}
                            None => trace
                                .errors
                                .push((i + 1, format!("operator index {idx} out of range"))),
                        }
                    }
                    trace.events.push(event);
                }
                Err(_) if json::raw(line, "event") == Some(RETIRED_EVENT) => {}
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

fn u32_of(line: &str, key: &str) -> Option<u32> {
    json::u64(line, key)?.try_into().ok()
}

/// Parse one event object produced by
/// [`event_to_json`](crate::json::event_to_json).
pub fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let event = json::raw(line, "event").ok_or("not an event object (no \"event\" member)")?;
    let parsed = || {
        Some(TraceEvent {
            seq: json::u64(line, "seq")?,
            at_us: json::u64(line, "at_us")?,
            kind: parse_kind(line, event)?,
        })
    };
    parsed().ok_or_else(|| format!("unknown or malformed \"{event}\" event"))
}

/// The payload of an `event`-tagged line; `None` when the tag is unknown
/// or any member the kind needs is missing, mistyped or out of range.
fn parse_kind(line: &str, event: &str) -> Option<TraceEventKind> {
    let phase = |key| Phase::from_name(json::raw(line, key)?);
    let health = |key| HealthState::from_name(json::raw(line, key)?);
    // An absent end is no interval; a malformed one is an error.
    let interval_end =
        |key| json::f64(line, key).or_else(|| json::raw(line, key).is_none().then_some(f64::NAN));
    Some(match event {
        "pipeline_started" => TraceEventKind::PipelineStarted {
            pipeline: u32_of(line, "pipeline")?,
        },
        "pipeline_finished" => TraceEventKind::PipelineFinished {
            pipeline: u32_of(line, "pipeline")?,
        },
        "phase_transition" => TraceEventKind::PhaseTransition {
            op: u32_of(line, "op")?,
            from: phase("from")?,
            to: phase("to")?,
        },
        "estimate_refined" => TraceEventKind::EstimateRefined {
            op: u32_of(line, "op")?,
            old: json::f64(line, "old")?,
            new: json::f64(line, "new")?,
            source: EstimateSource::from_name(json::raw(line, "source")?)?,
            lo: interval_end("lo")?,
            hi: interval_end("hi")?,
        },
        "operator_finished" => TraceEventKind::OperatorFinished {
            op: u32_of(line, "op")?,
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
            op: u32_of(line, "op")?,
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
            op: u32_of(line, "op")?,
            wall_us: json::u64(line, "wall_us")?,
        },
        "worker_wall_time" => TraceEventKind::WorkerWallTime {
            op: u32_of(line, "op")?,
            worker: u32_of(line, "worker")?,
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
            span: u32_of(line, "span")?,
            // Roots encode no parent field at all.
            parent: match json::raw(line, "parent") {
                Some(_) => u32_of(line, "parent")?,
                None => NO_PARENT,
            },
            kind: SpanKind::from_name(json::raw(line, "kind")?)?,
            arg: u32_of(line, "arg")?,
        },
        "span_end" => TraceEventKind::SpanEnd {
            span: u32_of(line, "span")?,
        },
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::event_to_json;

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
