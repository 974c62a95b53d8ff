//! Trace sinks: bounded in-memory ring, JSONL writer, and a debug-mode
//! progress-sanity validator.
//!
//! Sinks implement [`TraceSink`] and run synchronously on the publishing
//! (query) thread, so each is written to be cheap: every sink takes one
//! short mutex only at actual event boundaries (phase transitions and
//! material estimate refinements — never per tuple), and the ring never
//! waits on its consumer.

use std::collections::VecDeque;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};

use qprog_exec::sync::Mutex;
use qprog_exec::trace::{EstimateSource, Phase, TraceEvent, TraceEventKind, TraceSink};

/// A bounded ring buffer of trace events. Producers never wait on a
/// consumer: when the ring is full the event is dropped and counted, so a
/// stalled or absent consumer can never slow the query down. It serves a
/// few hundred publications per query, so one short lock per event is
/// noise.
pub struct RingSink {
    events: Mutex<VecDeque<TraceEvent>>,
    capacity: usize,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

impl RingSink {
    /// A ring holding at least `capacity` events (rounded up to a power of
    /// two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2).next_power_of_two();
        RingSink {
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events successfully buffered (delivered to the ring).
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Events dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Drain everything currently buffered, in publication order.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events.lock().drain(..).collect()
    }
}

impl TraceSink for RingSink {
    fn publish(&self, event: &TraceEvent) {
        let mut events = self.events.lock();
        let counter = if events.len() < self.capacity {
            events.push_back(*event);
            &self.delivered
        } else {
            &self.dropped
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for RingSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSink")
            .field("capacity", &self.capacity())
            .field("dropped", &self.dropped())
            .finish()
    }
}

/// Streams each event as one JSON object per line to any writer (a file
/// for post-hoc analysis, a pipe to a live dashboard, ...). Operator
/// indices are annotated with registry names when provided.
pub struct JsonlSink<W: Write + Send> {
    inner: Mutex<JsonlInner<W>>,
    op_names: Vec<String>,
    delivered: AtomicU64,
    dropped: AtomicU64,
}

/// Writer plus a reusable line buffer, so the per-event hot path encodes
/// into pre-owned capacity instead of allocating a fresh line.
struct JsonlInner<W> {
    writer: W,
    line: String,
}

impl<W: Write + Send> JsonlSink<W> {
    /// A sink writing bare operator indices.
    pub fn new(writer: W) -> Self {
        JsonlSink {
            inner: Mutex::new(JsonlInner {
                writer,
                line: String::with_capacity(128),
            }),
            op_names: Vec::new(),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Events written out successfully.
    pub fn delivered(&self) -> u64 {
        self.delivered.load(Ordering::Relaxed)
    }

    /// Events lost to writer IO errors (trace output is advisory; the
    /// query is never failed, but the loss is counted).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Annotate operator indices with their registry names.
    pub fn with_op_names(mut self, names: Vec<String>) -> Self {
        self.op_names = names;
        self
    }

    /// Recover the writer (e.g. to read back an in-memory buffer).
    pub fn into_inner(self) -> W {
        self.inner.into_inner().writer
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn publish(&self, event: &TraceEvent) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        inner.line.clear();
        crate::json::write_event_json(&mut inner.line, event, &self.op_names);
        inner.line.push('\n');
        // Trace output is advisory: an unwritable sink must not fail the
        // query, so IO errors are swallowed (but counted). Flushed per line
        // so the file can be tailed live.
        if inner.writer.write_all(inner.line.as_bytes()).is_ok() {
            self.delivered.fetch_add(1, Ordering::Relaxed);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let _ = inner.writer.flush();
    }
}

/// Per-operator state the validator tracks.
#[derive(Debug, Default, Clone)]
struct OpValidation {
    phase: Option<Phase>,
    last_estimate: Option<f64>,
    last_bounds: Option<(f64, f64)>,
    exact: Option<f64>,
    finished: Option<u64>,
}

/// A debug-mode sanity validator: checks the event stream against the
/// progress model's invariants and records violations as strings instead
/// of panicking (tracing must never take a query down).
///
/// Checked invariants:
///
/// - event sequence numbers are unique (arrival order is NOT required to
///   be sorted: several threads may publish concurrently);
/// - phase transitions chain (each `from` equals the op's previous `to`,
///   starting from `Init`);
/// - estimates are non-negative and finite after the first publication;
/// - published bounds satisfy `lo ≤ hi`;
/// - an `Exact` refinement matches the `emitted` count of the operator's
///   subsequent `OperatorFinished`;
/// - the final exact count lies within the operator's last published
///   confidence bounds (a statistical check: the paper's intervals hold
///   with confidence `1 − α`, so rare violations here are expected noise,
///   frequent ones are bugs).
///
/// Whole-query *fraction* monotonicity is a timeline property, checked by
/// [`ProgressLog::monotonicity_violations`](crate::timeline::ProgressLog::monotonicity_violations).
#[derive(Debug, Default)]
pub struct ValidatorSink {
    state: Mutex<ValidatorState>,
}

#[derive(Debug, Default)]
struct ValidatorState {
    ops: Vec<OpValidation>,
    violations: Vec<String>,
    seen_seqs: std::collections::HashSet<u64>,
}

impl ValidatorState {
    fn op(&mut self, op: u32) -> &mut OpValidation {
        let idx = op as usize;
        if self.ops.len() <= idx {
            self.ops.resize(idx + 1, OpValidation::default());
        }
        &mut self.ops[idx]
    }
}

impl ValidatorSink {
    /// A fresh validator.
    pub fn new() -> Self {
        ValidatorSink::default()
    }

    /// All violations observed so far.
    pub fn violations(&self) -> Vec<String> {
        self.state.lock().violations.clone()
    }

    /// `true` when no invariant has been violated.
    pub fn is_clean(&self) -> bool {
        self.state.lock().violations.is_empty()
    }
}

impl TraceSink for ValidatorSink {
    fn publish(&self, event: &TraceEvent) {
        let mut s = self.state.lock();
        // Sequence numbers are allocated atomically per bus, so each must
        // reach the sink exactly once. Arrival ORDER is not checked: with
        // several publishing threads (query + monitor) interleaving between
        // `fetch_add` and fan-out is legal.
        if !s.seen_seqs.insert(event.seq) {
            s.violations
                .push(format!("duplicate event seq {}", event.seq));
        }
        match event.kind {
            TraceEventKind::PhaseTransition { op, from, to } => {
                let o = s.op(op);
                let expected = o.phase.unwrap_or(Phase::Init);
                let bad = from != expected;
                o.phase = Some(to);
                if bad {
                    s.violations.push(format!(
                        "op {op}: phase transition {from}→{to} but operator was in {expected}"
                    ));
                }
            }
            TraceEventKind::EstimateRefined {
                op,
                new,
                source,
                lo,
                hi,
                ..
            } => {
                let mut bad = Vec::new();
                {
                    let o = s.op(op);
                    if !new.is_finite() || new < 0.0 {
                        bad.push(format!("op {op}: non-finite/negative estimate {new}"));
                    }
                    o.last_estimate = Some(new);
                    if !(lo.is_nan() && hi.is_nan()) {
                        o.last_bounds = Some((lo, hi));
                        // A NaN endpoint is as invalid as an inverted interval.
                        if lo > hi || lo.is_nan() || hi.is_nan() {
                            bad.push(format!("op {op}: invalid bounds lo={lo}, hi={hi}"));
                        }
                    }
                    if source == EstimateSource::Exact {
                        o.exact = Some(new);
                        if let Some((lo, hi)) = o.last_bounds {
                            // Point bounds (lo == hi) pin an exact value and
                            // must hold; statistical intervals may rarely miss.
                            if new < lo - 0.5 || new > hi + 0.5 {
                                bad.push(format!(
                                    "op {op}: exact count {new} outside last bounds [{lo}, {hi}]"
                                ));
                            }
                        }
                    }
                }
                s.violations.extend(bad);
            }
            TraceEventKind::OperatorFinished { op, emitted } => {
                let o = s.op(op);
                o.finished = Some(emitted);
                let exact = o.exact;
                if let Some(exact) = exact {
                    if (exact - emitted as f64).abs() > 0.5 {
                        s.violations.push(format!(
                            "op {op}: finished with {emitted} rows but exact estimate was {exact}"
                        ));
                    }
                }
            }
            TraceEventKind::ProgressSampled { fraction, .. } => {
                // gnm fractions are clamped to [0, 1] by construction.
                if !(0.0..=1.0).contains(&fraction) && !fraction.is_nan() {
                    s.violations.push(format!(
                        "progress sample fraction {fraction} outside [0, 1]"
                    ));
                }
            }
            TraceEventKind::HealthTransition { from, to, .. } => {
                // A transition must actually change the verdict.
                if from == to {
                    s.violations
                        .push(format!("health transition {from}→{to} changes nothing"));
                }
            }
            TraceEventKind::RegressionDetected {
                kind,
                observed,
                threshold,
                ..
            } => {
                // A detection asserts the observation crossed its threshold;
                // NaN endpoints (unknown baseline) are exempt.
                if observed.is_finite() && threshold.is_finite() && observed <= threshold {
                    s.violations.push(format!(
                        "{kind} regression reported but observed {observed} <= threshold {threshold}"
                    ));
                }
            }
            TraceEventKind::SpanStart { span, parent, .. } => {
                // A span cannot be its own ancestor; deeper tree invariants
                // (nesting, tiling) are checked at assembly time.
                if span == parent {
                    s.violations.push(format!("span {span} is its own parent"));
                }
            }
            TraceEventKind::PipelineStarted { .. }
            | TraceEventKind::PipelineFinished { .. }
            | TraceEventKind::QueryFinished { .. }
            | TraceEventKind::QueryAborted { .. }
            | TraceEventKind::EstimatorDegraded { .. }
            | TraceEventKind::OperatorWallTime { .. }
            | TraceEventKind::WorkerWallTime { .. }
            | TraceEventKind::SpanEnd { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ev(seq: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at_us: seq,
            kind,
        }
    }

    #[test]
    fn ring_preserves_fifo_order() {
        let ring = RingSink::with_capacity(8);
        for i in 0..5 {
            ring.publish(&ev(i, TraceEventKind::QueryFinished { rows: i }));
        }
        let drained = ring.drain();
        assert_eq!(drained.len(), 5);
        assert!(drained.iter().enumerate().all(|(i, e)| e.seq == i as u64));
        assert_eq!(ring.delivered(), 5);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn ring_drops_on_overflow_and_counts() {
        let ring = RingSink::with_capacity(4); // rounds to 4
        for i in 0..10 {
            ring.publish(&ev(i, TraceEventKind::QueryFinished { rows: i }));
        }
        assert_eq!(ring.dropped(), 6);
        assert_eq!(ring.delivered(), 4);
        // the *oldest* events survive (drop-newest keeps a coherent prefix)
        let drained = ring.drain();
        assert_eq!(
            drained.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        // after draining there is room again
        ring.publish(&ev(10, TraceEventKind::QueryFinished { rows: 10 }));
        assert_eq!(ring.drain().len(), 1);
    }

    #[test]
    fn ring_survives_concurrent_producers() {
        let ring = Arc::new(RingSink::with_capacity(1024));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ring = Arc::clone(&ring);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        ring.publish(&ev(t * 1000 + i, TraceEventKind::QueryFinished { rows: i }));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(ring.drain().len(), 800);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_event() {
        let sink = JsonlSink::new(Vec::new()).with_op_names(vec!["scan".into()]);
        sink.publish(&ev(
            0,
            TraceEventKind::OperatorFinished { op: 0, emitted: 9 },
        ));
        sink.publish(&ev(1, TraceEventKind::QueryFinished { rows: 9 }));
        assert_eq!(sink.delivered(), 2);
        assert_eq!(sink.dropped(), 0);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"op_name\":\"scan\""));
        assert!(lines[1].contains("\"event\":\"query_finished\""));
    }

    #[test]
    fn validator_accepts_a_clean_stream() {
        use qprog_exec::trace::EstimateSource::*;
        let v = ValidatorSink::new();
        let events = [
            TraceEventKind::EstimateRefined {
                op: 0,
                old: f64::NAN,
                new: 100.0,
                source: Optimizer,
                lo: f64::NAN,
                hi: f64::NAN,
            },
            TraceEventKind::PhaseTransition {
                op: 0,
                from: Phase::Init,
                to: Phase::Build,
            },
            TraceEventKind::PhaseTransition {
                op: 0,
                from: Phase::Build,
                to: Phase::Probe,
            },
            TraceEventKind::EstimateRefined {
                op: 0,
                old: 100.0,
                new: 120.0,
                source: Online,
                lo: 110.0,
                hi: 130.0,
            },
            TraceEventKind::EstimateRefined {
                op: 0,
                old: 120.0,
                new: 121.0,
                source: Exact,
                lo: f64::NAN,
                hi: f64::NAN,
            },
            TraceEventKind::OperatorFinished {
                op: 0,
                emitted: 121,
            },
            TraceEventKind::QueryFinished { rows: 121 },
        ];
        for (i, k) in events.into_iter().enumerate() {
            v.publish(&ev(i as u64, k));
        }
        assert!(v.is_clean(), "{:?}", v.violations());
    }

    #[test]
    fn validator_flags_bad_streams() {
        use qprog_exec::trace::EstimateSource::*;
        let v = ValidatorSink::new();
        // probe before build
        v.publish(&ev(
            0,
            TraceEventKind::PhaseTransition {
                op: 0,
                from: Phase::Build,
                to: Phase::Probe,
            },
        ));
        // inverted bounds
        v.publish(&ev(
            1,
            TraceEventKind::EstimateRefined {
                op: 1,
                old: 5.0,
                new: 7.0,
                source: Online,
                lo: 10.0,
                hi: 5.0,
            },
        ));
        // exact that contradicts the finished count
        v.publish(&ev(
            2,
            TraceEventKind::EstimateRefined {
                op: 2,
                old: 5.0,
                new: 50.0,
                source: Exact,
                lo: f64::NAN,
                hi: f64::NAN,
            },
        ));
        v.publish(&ev(
            3,
            TraceEventKind::OperatorFinished { op: 2, emitted: 7 },
        ));
        // exact count outside the last published bounds
        v.publish(&ev(
            4,
            TraceEventKind::EstimateRefined {
                op: 3,
                old: 5.0,
                new: 15.0,
                source: Online,
                lo: 10.0,
                hi: 20.0,
            },
        ));
        v.publish(&ev(
            5,
            TraceEventKind::EstimateRefined {
                op: 3,
                old: 15.0,
                new: 50.0,
                source: Exact,
                lo: f64::NAN,
                hi: f64::NAN,
            },
        ));
        let violations = v.violations();
        assert_eq!(violations.len(), 4, "{violations:?}");
        assert!(
            violations[3].contains("outside last bounds"),
            "{violations:?}"
        );
    }
}
