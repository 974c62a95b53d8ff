//! Trace events as one-line JSON objects (the JSONL sink and corpus
//! segment format). Escaping and field reading are [`qprog_types::json`]'s.

use std::fmt::Write as _;

use qprog_exec::trace::{TraceEvent, Wire, OP_NAME};
use qprog_types::json::escape_into;

/// Encode one trace event as a single JSON object (no trailing newline).
/// When `op_names` is non-empty, operator indices are annotated with their
/// registry names.
pub fn event_to_json(event: &TraceEvent, op_names: &[String]) -> String {
    let mut out = String::with_capacity(96);
    write_event_json(&mut out, event, op_names);
    out
}

/// Append one event's JSON object to `out` (no trailing newline). The
/// streaming form the JSONL sink uses on its hot path: one pre-sized
/// buffer, no intermediate field allocations. The members and their rules
/// are the kind's declaration in [`qprog_exec::trace`].
pub fn write_event_json(out: &mut String, event: &TraceEvent, op_names: &[String]) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"at_us\":{},\"event\":\"{}\"",
        event.seq,
        event.at_us,
        event.kind.name()
    );
    event.kind.for_each_member(|key, value| {
        out.push_str(",\"");
        out.push_str(key);
        out.push_str("\":");
        let _ = match value {
            Wire::Int(n) => write!(out, "{n}"),
            Wire::Float(x) if x.is_finite() => write!(out, "{x}"),
            Wire::Float(_) => out.write_str("null"),
            Wire::Name(name) => {
                out.push('"');
                out.push_str(name);
                out.write_char('"')
            }
            Wire::Op(op) => {
                let written = write!(out, "{op}");
                if let Some(name) = op_names.get(op as usize) {
                    out.push_str(",\"");
                    out.push_str(OP_NAME);
                    out.push_str("\":\"");
                    escape_into(out, name);
                    out.push('"');
                }
                written
            }
        };
    });
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::trace::{EstimateSource, Phase, TraceEventKind};
    use qprog_types::json::raw as raw_field;

    #[test]
    fn events_encode_round_trippably() {
        let e = TraceEvent {
            seq: 7,
            at_us: 1234,
            kind: TraceEventKind::EstimateRefined {
                op: 2,
                old: f64::NAN,
                new: 500.0,
                source: EstimateSource::Online,
                lo: f64::NAN,
                hi: f64::NAN,
            },
        };
        let names = vec![
            "scan".to_string(),
            "filter".to_string(),
            "hash_join".to_string(),
        ];
        let line = event_to_json(&e, &names);
        assert_eq!(raw_field(&line, "seq"), Some("7"));
        assert_eq!(raw_field(&line, "event"), Some("estimate_refined"));
        assert_eq!(raw_field(&line, "op"), Some("2"));
        assert_eq!(raw_field(&line, "op_name"), Some("hash_join"));
        assert_eq!(raw_field(&line, "old"), Some("null"));
        assert_eq!(raw_field(&line, "new"), Some("500"));
        assert_eq!(raw_field(&line, "source"), Some("online"));
        assert_eq!(raw_field(&line, "lo"), None, "no interval, no members");
        assert_eq!(raw_field(&line, "hi"), None);
    }

    #[test]
    fn phase_transitions_encode_names() {
        let e = TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::PhaseTransition {
                op: 0,
                from: Phase::Build,
                to: Phase::Probe,
            },
        };
        let line = event_to_json(&e, &[]);
        assert_eq!(raw_field(&line, "from"), Some("build"));
        assert_eq!(raw_field(&line, "to"), Some("probe"));
        assert_eq!(raw_field(&line, "op_name"), None);
    }

    #[test]
    fn span_events_encode() {
        use qprog_exec::span::{SpanKind, NO_PARENT};
        let root = TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::SpanStart {
                span: 0,
                parent: NO_PARENT,
                kind: SpanKind::Query,
                arg: 0,
            },
        };
        let line = event_to_json(&root, &[]);
        assert_eq!(raw_field(&line, "event"), Some("span_start"));
        assert_eq!(raw_field(&line, "span"), Some("0"));
        assert_eq!(raw_field(&line, "kind"), Some("query"));
        assert_eq!(raw_field(&line, "parent"), None, "{line}");

        let child = TraceEvent {
            seq: 1,
            at_us: 5,
            kind: TraceEventKind::SpanStart {
                span: 1,
                parent: 0,
                kind: SpanKind::QueueWait,
                arg: 1,
            },
        };
        let line = event_to_json(&child, &[]);
        assert_eq!(raw_field(&line, "parent"), Some("0"));
        assert_eq!(raw_field(&line, "kind"), Some("queue_wait"));
        assert_eq!(raw_field(&line, "arg"), Some("1"));

        let end = TraceEvent {
            seq: 2,
            at_us: 9,
            kind: TraceEventKind::SpanEnd { span: 1 },
        };
        let line = event_to_json(&end, &[]);
        assert_eq!(raw_field(&line, "event"), Some("span_end"));
        assert_eq!(raw_field(&line, "span"), Some("1"));
    }

    #[test]
    fn lifecycle_events_encode() {
        use qprog_exec::trace::{AbortKind, DegradeReason};
        let e = TraceEvent {
            seq: 1,
            at_us: 10,
            kind: TraceEventKind::QueryAborted {
                reason: AbortKind::Cancelled,
                rows: 42,
            },
        };
        let line = event_to_json(&e, &[]);
        assert_eq!(raw_field(&line, "event"), Some("query_aborted"));
        assert_eq!(raw_field(&line, "reason"), Some("cancelled"));
        assert_eq!(raw_field(&line, "rows"), Some("42"));

        let e = TraceEvent {
            seq: 2,
            at_us: 20,
            kind: TraceEventKind::EstimatorDegraded {
                op: 0,
                reason: DegradeReason::HistogramMemory,
            },
        };
        let line = event_to_json(&e, &["join".to_string()]);
        assert_eq!(raw_field(&line, "event"), Some("estimator_degraded"));
        assert_eq!(raw_field(&line, "reason"), Some("histogram_memory"));
        assert_eq!(raw_field(&line, "op_name"), Some("join"));
    }
}
