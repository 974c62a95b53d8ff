//! Per-job lifecycle span log.
//!
//! Every accepted submission carries a [`SpanLog`]: an append-only list of
//! typed [`SpanStart`](TraceEventKind::SpanStart) /
//! [`SpanEnd`](TraceEventKind::SpanEnd) events covering the query's whole
//! lifecycle — `submit → journal append → queue wait → dispatch attempt N
//! (→ backoff park → queue wait → dispatch attempt N+1 …) → finalize` —
//! all relative to one epoch (the submit instant), so span timestamps and
//! the journal's recorded wall time share a clock.
//!
//! The log is only ever touched under the service's state lock at
//! lifecycle transitions (a handful of events per query), so the traced
//! execution hot path gains no new atomics. Spans are maintained as a
//! stack: at any moment the open chain is `query → (one phase span)`,
//! which makes the tree *gapless by construction* — each lifecycle phase
//! starts exactly where the previous one ended, and
//! [`close_children`](SpanLog::close_children) ties the last phase to the
//! terminal timestamp. The summed child durations therefore reconcile
//! exactly with the journal record's wall time.

use std::time::Instant;

pub use qprog_exec::span::SpanTotals;
use qprog_exec::span::{SpanKind, NO_PARENT};
use qprog_exec::trace::{TraceEvent, TraceEventKind};

/// Append-only span event log for one job. See the module docs.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: u32,
    seq: u64,
    open: Vec<u32>,
    events: Vec<TraceEvent>,
}

impl SpanLog {
    /// Start a log whose timestamps are measured from `epoch`.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            next_id: 0,
            seq: 0,
            open: Vec::with_capacity(4),
            events: Vec::with_capacity(16),
        }
    }

    /// Microseconds elapsed since the log's epoch.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Number of currently-open spans (the root counts).
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Open a span now, nested under the innermost open span.
    pub fn push(&mut self, kind: SpanKind, arg: u32) -> u32 {
        let at = self.now_us();
        self.push_at(at, kind, arg)
    }

    /// Open a span at an explicit timestamp (e.g. a backoff park's
    /// scheduled ready time, which precedes the worker's pop).
    pub fn push_at(&mut self, at_us: u64, kind: SpanKind, arg: u32) -> u32 {
        let span = self.next_id;
        self.next_id += 1;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.emit(
            at_us,
            TraceEventKind::SpanStart {
                span,
                parent,
                kind,
                arg,
            },
        );
        self.open.push(span);
        span
    }

    /// Close the innermost open span now.
    pub fn pop(&mut self) {
        let at = self.now_us();
        self.pop_at(at);
    }

    /// Close the innermost open span at an explicit timestamp.
    pub fn pop_at(&mut self, at_us: u64) {
        if let Some(span) = self.open.pop() {
            self.emit(at_us, TraceEventKind::SpanEnd { span });
        }
    }

    /// Close every open span except the root at `at_us` (deepest first).
    pub fn close_children(&mut self, at_us: u64) {
        while self.open.len() > 1 {
            self.pop_at(at_us);
        }
    }

    /// Close everything, root included, at `at_us`.
    pub fn close_all(&mut self, at_us: u64) {
        while !self.open.is_empty() {
            self.pop_at(at_us);
        }
    }

    /// The recorded events, in emission order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Sum recorded durations per lifecycle kind. Open spans count up to
    /// the latest recorded timestamp.
    pub fn totals(&self) -> SpanTotals {
        let t_max = self.events.iter().map(|e| e.at_us).max().unwrap_or(0);
        let mut t = SpanTotals::default();
        for e in &self.events {
            let TraceEventKind::SpanStart { span, kind, .. } = e.kind else {
                continue;
            };
            let end = self
                .events
                .iter()
                .find_map(|x| match x.kind {
                    TraceEventKind::SpanEnd { span: s } if s == span => Some(x.at_us),
                    _ => None,
                })
                .unwrap_or(t_max);
            let dur = end.saturating_sub(e.at_us);
            match kind {
                SpanKind::Query => t.total_us += dur,
                SpanKind::Submit => t.submit_us += dur,
                SpanKind::JournalAppend => {} // nested inside submit
                SpanKind::QueueWait => t.queue_wait_us += dur,
                SpanKind::BackoffPark => t.backoff_us += dur,
                SpanKind::Dispatch => {
                    t.exec_us += dur;
                    t.attempts += 1;
                }
                SpanKind::Finalize => t.finalize_us += dur,
            }
        }
        t
    }

    fn emit(&mut self, at_us: u64, kind: TraceEventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(TraceEvent { seq, at_us, kind });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_discipline_yields_gapless_tiling() {
        let mut log = SpanLog::new(Instant::now());
        let root = log.push_at(0, SpanKind::Query, 0);
        assert_eq!(root, 0);
        log.push_at(0, SpanKind::Submit, 0);
        log.push_at(2, SpanKind::JournalAppend, 0);
        log.pop_at(8);
        log.pop_at(10); // submit ends
        log.push_at(10, SpanKind::QueueWait, 0);
        log.pop_at(100);
        log.push_at(100, SpanKind::Dispatch, 0);
        log.pop_at(600);
        log.push_at(600, SpanKind::BackoffPark, 1);
        log.pop_at(800);
        log.push_at(800, SpanKind::QueueWait, 1);
        log.pop_at(850);
        log.push_at(850, SpanKind::Dispatch, 1);
        log.close_children(1000);
        log.push_at(1000, SpanKind::Finalize, 0);
        log.close_all(1020);
        assert_eq!(log.depth(), 0);
        let t = log.totals();
        assert_eq!(t.total_us, 1020);
        assert_eq!(t.submit_us, 10);
        assert_eq!(t.queue_wait_us, 90 + 50);
        assert_eq!(t.exec_us, 500 + 150);
        assert_eq!(t.backoff_us, 200);
        assert_eq!(t.finalize_us, 20);
        assert_eq!(t.attempts, 2);
        assert_eq!(
            t.submit_us + t.queue_wait_us + t.backoff_us + t.exec_us + t.finalize_us,
            t.total_us,
            "children tile the root exactly"
        );
    }

    #[test]
    fn parents_nest_by_stack_position() {
        let mut log = SpanLog::new(Instant::now());
        log.push_at(0, SpanKind::Query, 0);
        log.push_at(1, SpanKind::Submit, 0);
        log.push_at(2, SpanKind::JournalAppend, 0);
        let parents: Vec<(u32, u32)> = log
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::SpanStart { span, parent, .. } => Some((span, parent)),
                _ => None,
            })
            .collect();
        assert_eq!(parents, vec![(0, NO_PARENT), (1, 0), (2, 1)]);
    }

    #[test]
    fn open_spans_count_to_latest_timestamp() {
        let mut log = SpanLog::new(Instant::now());
        log.push_at(0, SpanKind::Query, 0);
        log.push_at(5, SpanKind::QueueWait, 0);
        // Never closed: totals still attribute up to the last event seen.
        let t = log.totals();
        assert_eq!(t.queue_wait_us, 0); // t_max == 5, zero elapsed
        log.push_at(50, SpanKind::Dispatch, 0);
        let t = log.totals();
        assert_eq!(t.queue_wait_us, 45);
    }
}
