//! Causal span trees: lifecycle attribution and Chrome trace-event export.
//!
//! Assembles a hierarchical [`SpanTree`] for one query from its trace
//! events, merging two sources:
//!
//! - **Explicit lifecycle spans** — typed
//!   [`SpanStart`](TraceEventKind::SpanStart) /
//!   [`SpanEnd`](TraceEventKind::SpanEnd) markers emitted by the query
//!   service (submit, journal append, queue-wait parks, backoff parks,
//!   dispatch attempts, finalize). These tile the `query` root gaplessly,
//!   so summed queue-wait + retry-park + execution durations reconcile
//!   with the journal's recorded wall time.
//! - **Derived execution spans** — operator, phase, worker, and pipeline
//!   intervals reconstructed from the events the engine already publishes
//!   (`PhaseTransition`, `OperatorFinished`, `OperatorWallTime`,
//!   `WorkerWallTime`, `PipelineStarted/Finished`). Deriving instead of
//!   re-instrumenting keeps the traced hot path free of new atomics: the
//!   underlying wall-time reads are already amortized over the governor's
//!   checkpoint stride.
//!
//! The tree exports as Chrome trace-event JSON
//! ([`SpanTree::to_chrome_json`]) loadable in Perfetto or
//! `chrome://tracing`: every node becomes a complete (`"ph":"X"`) event
//! with microsecond `ts`/`dur`, laid out on one thread-track per
//! operator/worker/pipeline so spans within a track are strictly nested.

use std::collections::BTreeMap;

use qprog_exec::span::{SpanKind, SpanTotals, NO_PARENT};
use qprog_exec::trace::{Phase, TraceEvent, TraceEventKind};
use qprog_types::json::escape;

/// Which Perfetto thread-track a span renders on. Tracks exist so that
/// concurrently-active spans (two operators, two workers) never share a
/// track — Chrome's viewer requires strict stack nesting per `tid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Track {
    /// The service lifecycle: root, submit, queue waits, dispatches.
    Lifecycle,
    /// One pipeline's running interval.
    Pipeline(u32),
    /// One operator and its phase children.
    Operator(u32),
    /// One worker thread's busy interval inside an operator.
    Worker {
        /// Operator registry index.
        op: u32,
        /// Task index within the operator's pool.
        worker: u32,
    },
}

/// One node of the span tree: a named `[start_us, end_us]` interval.
#[derive(Debug, Clone)]
pub struct SpanNode {
    /// Display name (`"dispatch #2"`, `"op hash_join"`, `"phase probe"`).
    pub name: String,
    /// Category rendered into the Chrome `cat` field.
    pub cat: &'static str,
    /// Lifecycle kind for explicit spans (`None` for derived ones).
    pub kind: Option<SpanKind>,
    /// `arg` from the originating `SpanStart` (attempt number), 0 derived.
    pub arg: u32,
    /// Start, microseconds on the emitting stream's clock.
    pub start_us: u64,
    /// End, microseconds; `end_us >= start_us` after assembly.
    pub end_us: u64,
    /// Track this node renders on.
    pub track: Track,
    /// Nested child spans, sorted by `start_us`.
    pub children: Vec<SpanNode>,
}

impl SpanNode {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }

    fn clamp_into(&mut self, lo: u64, hi: u64) {
        self.start_us = self.start_us.clamp(lo, hi);
        self.end_us = self.end_us.clamp(self.start_us, hi);
        for c in &mut self.children {
            c.clamp_into(self.start_us, self.end_us);
        }
    }

    fn sort_rec(&mut self) {
        self.children.sort_by_key(|c| (c.start_us, c.end_us));
        for c in &mut self.children {
            c.sort_rec();
        }
    }
}

/// A query's assembled span tree.
#[derive(Debug, Clone)]
pub struct SpanTree {
    /// The root (`query`) span; every other span nests under it.
    pub root: SpanNode,
}

impl SpanTree {
    /// Assemble a tree from one query's trace events. Handles streams with
    /// explicit lifecycle spans (service-managed queries), pure execution
    /// traces (session queries — a root is synthesized), and mixes of the
    /// two (derived execution spans attach under the last dispatch attempt
    /// when one exists, else under the root). Unclosed spans end at the
    /// stream's last timestamp; children are clamped into their parents so
    /// the result is always strictly nested.
    pub fn from_events(events: &[TraceEvent], op_names: &[String]) -> SpanTree {
        let t_max = events.iter().map(|e| e.at_us).max().unwrap_or(0);
        let t_min = events.iter().map(|e| e.at_us).min().unwrap_or(0);

        // -- explicit lifecycle spans ----------------------------------
        struct Open {
            kind: SpanKind,
            parent: u32,
            arg: u32,
            start: u64,
            end: Option<u64>,
        }
        let mut by_id: BTreeMap<u32, Open> = BTreeMap::new();
        for e in events {
            match e.kind {
                TraceEventKind::SpanStart {
                    span,
                    parent,
                    kind,
                    arg,
                } => {
                    by_id.entry(span).or_insert(Open {
                        kind,
                        parent,
                        arg,
                        start: e.at_us,
                        end: None,
                    });
                }
                TraceEventKind::SpanEnd { span } => {
                    if let Some(o) = by_id.get_mut(&span) {
                        o.end.get_or_insert(e.at_us);
                    }
                }
                _ => {}
            }
        }

        // Build lifecycle nodes and index children under their parents.
        let mut lifecycle: BTreeMap<u32, SpanNode> = BTreeMap::new();
        let mut kids: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
        let mut root_id: Option<u32> = None;
        let mut last_dispatch: Option<u32> = None;
        for (&id, o) in &by_id {
            let name = match o.kind {
                SpanKind::QueueWait | SpanKind::BackoffPark | SpanKind::Dispatch => {
                    format!("{} #{}", o.kind, o.arg + 1)
                }
                _ => o.kind.to_string(),
            };
            lifecycle.insert(
                id,
                SpanNode {
                    name,
                    cat: "lifecycle",
                    kind: Some(o.kind),
                    arg: o.arg,
                    start_us: o.start,
                    end_us: o.end.unwrap_or(t_max),
                    track: Track::Lifecycle,
                    children: Vec::new(),
                },
            );
            if o.parent == NO_PARENT || o.kind == SpanKind::Query {
                root_id.get_or_insert(id);
            } else {
                kids.entry(o.parent).or_default().push(id);
            }
            if o.kind == SpanKind::Dispatch {
                last_dispatch = Some(id);
            }
        }

        // -- derived execution spans -----------------------------------
        let mut derived = derive_exec_spans(events, op_names, t_max);

        // -- stitch ----------------------------------------------------
        let mut root = match root_id {
            Some(rid) => {
                // Fold children bottom-up: ids are assembled in reverse so
                // a child's own subtree is complete before its parent
                // consumes it. (Service span logs allocate ids in start
                // order, so a parent's id is always below its children's.)
                let ids: Vec<u32> = lifecycle.keys().copied().rev().collect();
                for id in ids {
                    if id == rid {
                        continue;
                    }
                    let Some(node) = lifecycle.remove(&id) else {
                        continue;
                    };
                    let Some(o) = by_id.get(&id) else { continue };
                    let mut node = node;
                    if let Some(child_ids) = kids.remove(&id) {
                        for cid in child_ids {
                            if let Some(c) = lifecycle.remove(&cid) {
                                node.children.push(c);
                            }
                        }
                    }
                    // Execution detail nests under its dispatch attempt.
                    if Some(id) == last_dispatch {
                        node.children.append(&mut derived);
                    }
                    if let Some(p) = lifecycle.get_mut(&o.parent) {
                        p.children.push(node);
                    }
                }
                let mut root = lifecycle.remove(&rid).expect("root assembled");
                if let Some(child_ids) = kids.remove(&rid) {
                    for cid in child_ids {
                        if let Some(c) = lifecycle.remove(&cid) {
                            root.children.push(c);
                        }
                    }
                }
                root.children.append(&mut derived); // no dispatch span seen
                root
            }
            None => {
                // Pure execution trace: synthesize the query root.
                let end = events
                    .iter()
                    .rev()
                    .find_map(|e| match e.kind {
                        TraceEventKind::QueryFinished { .. }
                        | TraceEventKind::QueryAborted { .. } => Some(e.at_us),
                        _ => None,
                    })
                    .unwrap_or(t_max);
                SpanNode {
                    name: "query".to_string(),
                    cat: "lifecycle",
                    kind: Some(SpanKind::Query),
                    arg: 0,
                    start_us: t_min,
                    end_us: end.max(t_max),
                    track: Track::Lifecycle,
                    children: std::mem::take(&mut derived),
                }
            }
        };

        root.clamp_into(root.start_us, root.end_us);
        root.sort_rec();
        SpanTree { root }
    }

    /// Sum lifecycle durations per kind (direct tree walk; derived
    /// execution spans are ignored — only typed lifecycle spans count).
    /// For a service query this is what the service's own span log sums
    /// (`QueryService::span_totals`).
    pub fn lifecycle_totals(&self) -> SpanTotals {
        let mut t = SpanTotals {
            total_us: self.root.duration_us(),
            ..SpanTotals::default()
        };
        fn walk(n: &SpanNode, t: &mut SpanTotals) {
            match n.kind {
                Some(SpanKind::Submit) => t.submit_us += n.duration_us(),
                Some(SpanKind::QueueWait) => t.queue_wait_us += n.duration_us(),
                Some(SpanKind::BackoffPark) => t.backoff_us += n.duration_us(),
                Some(SpanKind::Dispatch) => {
                    t.exec_us += n.duration_us();
                    t.attempts += 1;
                }
                Some(SpanKind::Finalize) => t.finalize_us += n.duration_us(),
                _ => {}
            }
            for c in &n.children {
                walk(c, t);
            }
        }
        for c in &self.root.children {
            walk(c, &mut t);
        }
        t
    }

    /// Strict-nesting violations: a child escaping its parent's interval,
    /// or two same-track siblings overlapping. Empty for any tree built by
    /// [`from_events`](Self::from_events) (assembly clamps); exposed so
    /// tests and the export path can assert the invariant.
    pub fn nesting_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        fn walk(n: &SpanNode, out: &mut Vec<String>) {
            for c in &n.children {
                if c.start_us < n.start_us || c.end_us > n.end_us {
                    out.push(format!(
                        "{} [{}, {}] escapes parent {} [{}, {}]",
                        c.name, c.start_us, c.end_us, n.name, n.start_us, n.end_us
                    ));
                }
            }
            for w in n.children.windows(2) {
                if w[0].track == w[1].track && w[1].start_us < w[0].end_us {
                    out.push(format!(
                        "{} [{}, {}] overlaps sibling {} [{}, {}]",
                        w[1].name,
                        w[1].start_us,
                        w[1].end_us,
                        w[0].name,
                        w[0].start_us,
                        w[0].end_us
                    ));
                }
            }
            for c in &n.children {
                walk(c, out);
            }
        }
        walk(&self.root, &mut out);
        out
    }

    /// Export as a Chrome trace-event JSON document (object form, with
    /// `traceEvents` + `displayTimeUnit`), loadable in Perfetto and
    /// `chrome://tracing`. Every span becomes a complete (`"ph":"X"`)
    /// event; `ts`/`dur` are microseconds; `pid` is the query id and each
    /// [`Track`] gets its own named `tid`.
    pub fn to_chrome_json(&self, pid: u64) -> String {
        let mut tids: BTreeMap<Track, u64> = BTreeMap::new();
        tids.insert(Track::Lifecycle, 0);
        let mut events: Vec<String> = Vec::new();
        fn walk(n: &SpanNode, pid: u64, tids: &mut BTreeMap<Track, u64>, events: &mut Vec<String>) {
            let next = tids.len() as u64;
            let tid = *tids.entry(n.track).or_insert(next);
            events.push(format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{{\"arg\":{}}}}}",
                escape(&n.name),
                n.cat,
                n.start_us,
                n.duration_us(),
                n.arg
            ));
            for c in &n.children {
                walk(c, pid, tids, events);
            }
        }
        walk(&self.root, pid, &mut tids, &mut events);
        // Thread-name metadata so Perfetto labels each track.
        for (track, tid) in &tids {
            let label = match track {
                Track::Lifecycle => "lifecycle".to_string(),
                Track::Pipeline(p) => format!("pipeline {p}"),
                Track::Operator(op) => format!("operator {op}"),
                Track::Worker { op, worker } => format!("op {op} worker {worker}"),
            };
            events.push(format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
                 \"args\":{{\"name\":\"{label}\"}}}}"
            ));
        }
        format!(
            "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
            events.join(",")
        )
    }
}

/// Reconstruct operator / phase / worker / pipeline intervals from the
/// standard execution events. Returns top-level derived nodes (operators
/// and pipelines) with phases and workers nested under their operator.
fn derive_exec_spans(events: &[TraceEvent], op_names: &[String], t_max: u64) -> Vec<SpanNode> {
    struct OpState {
        first: u64,
        last: u64,
        open_phase: Option<(Phase, u64)>,
        phases: Vec<(Phase, u64, u64)>,
        workers: Vec<(u32, u64, u64)>,
        wall_us: Option<u64>,
        finished_at: Option<u64>,
    }
    let mut ops: BTreeMap<u32, OpState> = BTreeMap::new();
    let mut pipes: BTreeMap<u32, (u64, Option<u64>)> = BTreeMap::new();
    fn touch(ops: &mut BTreeMap<u32, OpState>, op: u32, at: u64) -> &mut OpState {
        let s = ops.entry(op).or_insert(OpState {
            first: at,
            last: at,
            open_phase: None,
            phases: Vec::new(),
            workers: Vec::new(),
            wall_us: None,
            finished_at: None,
        });
        s.first = s.first.min(at);
        s.last = s.last.max(at);
        s
    }
    for e in events {
        match e.kind {
            TraceEventKind::PhaseTransition { op, to, .. } => {
                let s = touch(&mut ops, op, e.at_us);
                if let Some((p, since)) = s.open_phase.take() {
                    s.phases.push((p, since, e.at_us));
                }
                s.open_phase = Some((to, e.at_us));
            }
            TraceEventKind::OperatorFinished { op, .. } => {
                let s = touch(&mut ops, op, e.at_us);
                if let Some((p, since)) = s.open_phase.take() {
                    s.phases.push((p, since, e.at_us));
                }
                s.finished_at = Some(e.at_us);
            }
            TraceEventKind::OperatorWallTime { op, wall_us } => {
                touch(&mut ops, op, e.at_us).wall_us = Some(wall_us);
            }
            TraceEventKind::WorkerWallTime {
                op,
                worker,
                busy_us,
            } => {
                let s = touch(&mut ops, op, e.at_us);
                s.workers
                    .push((worker, e.at_us.saturating_sub(busy_us), e.at_us));
            }
            TraceEventKind::EstimateRefined { op, .. }
            | TraceEventKind::EstimatorDegraded { op, .. } => {
                touch(&mut ops, op, e.at_us);
            }
            TraceEventKind::PipelineStarted { pipeline } => {
                pipes.entry(pipeline).or_insert((e.at_us, None));
            }
            TraceEventKind::PipelineFinished { pipeline } => {
                pipes.entry(pipeline).or_insert((e.at_us, None)).1 = Some(e.at_us);
            }
            _ => {}
        }
    }

    let mut out = Vec::new();
    for (&p, &(start, end)) in &pipes {
        out.push(SpanNode {
            name: format!("pipeline {p}"),
            cat: "pipeline",
            kind: None,
            arg: 0,
            start_us: start,
            end_us: end.unwrap_or(t_max),
            track: Track::Pipeline(p),
            children: Vec::new(),
        });
    }
    for (&op, s) in &mut ops {
        if let Some((p, since)) = s.open_phase.take() {
            s.phases.push((p, since, t_max));
        }
        let name = op_names
            .get(op as usize)
            .filter(|n| !n.is_empty())
            .map(|n| format!("op {n}"))
            .unwrap_or_else(|| format!("op {op}"));
        // Boundaries: phase transitions when present; else the event span,
        // widened backwards by the measured wall time for phase-less
        // operators (scans) whose only stamp is their finish.
        let end = s.finished_at.unwrap_or(s.last);
        let start = if s.phases.is_empty() {
            s.wall_us.map_or(s.first, |w| end.saturating_sub(w))
        } else {
            s.first.min(s.phases[0].1)
        };
        let mut node = SpanNode {
            name,
            cat: "operator",
            kind: None,
            arg: 0,
            start_us: start.min(end),
            end_us: end,
            track: Track::Operator(op),
            children: Vec::new(),
        };
        for &(p, lo, hi) in &s.phases {
            node.children.push(SpanNode {
                name: format!("phase {}", p.name()),
                cat: "phase",
                kind: None,
                arg: 0,
                start_us: lo,
                end_us: hi,
                track: Track::Operator(op),
                children: Vec::new(),
            });
        }
        for &(w, lo, hi) in &s.workers {
            node.children.push(SpanNode {
                name: format!("worker {w}"),
                cat: "worker",
                kind: None,
                arg: w,
                start_us: lo,
                end_us: hi,
                track: Track::Worker { op, worker: w },
                children: Vec::new(),
            });
        }
        out.push(node);
    }
    out.sort_by_key(|n| (n.start_us, n.end_us));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { seq, at_us, kind }
    }

    fn start(seq: u64, at: u64, span: u32, parent: u32, kind: SpanKind, arg: u32) -> TraceEvent {
        ev(
            seq,
            at,
            TraceEventKind::SpanStart {
                span,
                parent,
                kind,
                arg,
            },
        )
    }

    fn end(seq: u64, at: u64, span: u32) -> TraceEvent {
        ev(seq, at, TraceEventKind::SpanEnd { span })
    }

    /// submit[0,50] → queue_wait[50,200] → dispatch[200,900] →
    /// backoff[900,1100] → queue_wait[1100,1150] → dispatch[1150,1900] →
    /// finalize[1900,2000]; root [0,2000].
    fn retried_lifecycle() -> Vec<TraceEvent> {
        vec![
            start(0, 0, 0, NO_PARENT, SpanKind::Query, 0),
            start(1, 0, 1, 0, SpanKind::Submit, 0),
            start(2, 10, 2, 1, SpanKind::JournalAppend, 0),
            end(3, 40, 2),
            end(4, 50, 1),
            start(5, 50, 3, 0, SpanKind::QueueWait, 0),
            end(6, 200, 3),
            start(7, 200, 4, 0, SpanKind::Dispatch, 0),
            end(8, 900, 4),
            start(9, 900, 5, 0, SpanKind::BackoffPark, 1),
            end(10, 1100, 5),
            start(11, 1100, 6, 0, SpanKind::QueueWait, 1),
            end(12, 1150, 6),
            start(13, 1150, 7, 0, SpanKind::Dispatch, 1),
            end(14, 1900, 7),
            start(15, 1900, 8, 0, SpanKind::Finalize, 0),
            end(16, 2000, 8),
            end(17, 2000, 0),
        ]
    }

    #[test]
    fn lifecycle_tree_is_gapless_and_totals_reconcile() {
        let tree = SpanTree::from_events(&retried_lifecycle(), &[]);
        assert_eq!(tree.root.name, "query");
        assert_eq!(tree.root.duration_us(), 2000);
        assert_eq!(tree.root.children.len(), 7);
        // Gapless: each direct child starts where the previous ended.
        let mut cursor = tree.root.start_us;
        for c in &tree.root.children {
            assert_eq!(c.start_us, cursor, "gap before {}", c.name);
            cursor = c.end_us;
        }
        assert_eq!(cursor, tree.root.end_us);
        let t = tree.lifecycle_totals();
        assert_eq!(t.submit_us, 50);
        assert_eq!(t.queue_wait_us, 150 + 50);
        assert_eq!(t.backoff_us, 200);
        assert_eq!(t.exec_us, 700 + 750);
        assert_eq!(t.finalize_us, 100);
        assert_eq!(t.attempts, 2);
        assert_eq!(
            t.submit_us + t.queue_wait_us + t.backoff_us + t.exec_us + t.finalize_us,
            t.total_us
        );
        assert!(tree.nesting_violations().is_empty());
        // The journal-append child nests inside submit.
        let submit = &tree.root.children[0];
        assert_eq!(submit.name, "submit");
        assert_eq!(submit.children.len(), 1);
        assert_eq!(submit.children[0].name, "journal_append");
    }

    #[test]
    fn unclosed_spans_end_at_stream_max() {
        let events = vec![
            start(0, 0, 0, NO_PARENT, SpanKind::Query, 0),
            start(1, 10, 1, 0, SpanKind::QueueWait, 0),
            ev(2, 500, TraceEventKind::QueryFinished { rows: 1 }),
        ];
        let tree = SpanTree::from_events(&events, &[]);
        assert_eq!(tree.root.end_us, 500);
        assert_eq!(tree.root.children[0].end_us, 500);
    }

    #[test]
    fn exec_trace_derives_operator_phase_and_worker_spans() {
        use qprog_exec::trace::Phase::*;
        let events = vec![
            ev(0, 0, TraceEventKind::PipelineStarted { pipeline: 0 }),
            ev(
                1,
                5,
                TraceEventKind::PhaseTransition {
                    op: 1,
                    from: Init,
                    to: Build,
                },
            ),
            ev(
                2,
                100,
                TraceEventKind::PhaseTransition {
                    op: 1,
                    from: Build,
                    to: Probe,
                },
            ),
            ev(
                3,
                150,
                TraceEventKind::WorkerWallTime {
                    op: 1,
                    worker: 0,
                    busy_us: 90,
                },
            ),
            ev(
                4,
                200,
                TraceEventKind::OperatorFinished { op: 1, emitted: 9 },
            ),
            ev(
                5,
                210,
                TraceEventKind::OperatorWallTime {
                    op: 0,
                    wall_us: 180,
                },
            ),
            ev(
                6,
                210,
                TraceEventKind::OperatorFinished { op: 0, emitted: 50 },
            ),
            ev(7, 220, TraceEventKind::PipelineFinished { pipeline: 0 }),
            ev(8, 230, TraceEventKind::QueryFinished { rows: 9 }),
        ];
        let names = vec!["scan".to_string(), "hash_join".to_string()];
        let tree = SpanTree::from_events(&events, &names);
        assert_eq!(tree.root.name, "query");
        assert_eq!(tree.root.end_us, 230);
        let kid_names: Vec<&str> = tree.root.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(kid_names, vec!["pipeline 0", "op hash_join", "op scan"]);
        let join = &tree.root.children[1];
        assert_eq!(join.start_us, 5);
        assert_eq!(join.end_us, 200);
        let phases: Vec<&str> = join.children.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(phases, vec!["phase build", "worker 0", "phase probe"]);
        // Worker interval reconstructed backwards from its busy time.
        assert_eq!(join.children[1].start_us, 60);
        assert_eq!(join.children[1].end_us, 150);
        // Phase-less scan widened backwards by its measured wall time.
        let scan = &tree.root.children[2];
        assert_eq!(scan.start_us, 30);
        assert_eq!(scan.end_us, 210);
        assert!(tree.nesting_violations().is_empty());
    }

    #[test]
    fn chrome_export_shape() {
        let tree = SpanTree::from_events(&retried_lifecycle(), &[]);
        let json = tree.to_chrome_json(42);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("],\"displayTimeUnit\":\"ms\"}"), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"pid\":42"), "{json}");
        assert!(json.contains("\"name\":\"dispatch #2\""), "{json}");
        assert!(json.contains("\"name\":\"thread_name\""), "{json}");
        // The root covers the whole run.
        assert!(json.contains("\"ts\":0,\"dur\":2000"), "{json}");
    }

    #[test]
    fn children_are_clamped_into_parents() {
        // A worker whose reconstructed start precedes its operator's first
        // event must be pulled inside, keeping the tree strictly nested.
        let events = vec![
            ev(
                0,
                100,
                TraceEventKind::PhaseTransition {
                    op: 0,
                    from: Phase::Init,
                    to: Phase::Build,
                },
            ),
            ev(
                1,
                150,
                TraceEventKind::WorkerWallTime {
                    op: 0,
                    worker: 1,
                    busy_us: 10_000,
                },
            ),
            ev(
                2,
                200,
                TraceEventKind::OperatorFinished { op: 0, emitted: 1 },
            ),
        ];
        let tree = SpanTree::from_events(&events, &[]);
        assert!(tree.nesting_violations().is_empty(), "{tree:?}");
    }
}
