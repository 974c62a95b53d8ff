//! The registry of live (and recently finished, still-held) queries.
//!
//! An entry is told everything it shows; nothing is derived or polled:
//!
//! - **Lifecycle** is set by whoever holds the entry's registration token
//!   ([`MonitoredQuery`]), through one transition,
//!   [`set_managed_state`](QueryDirectory::set_managed_state). A session's
//!   `QueryHandle` ([`register`](QueryDirectory::register)) reports its
//!   query's recorded outcome when the query ends. The query service's
//!   status observer ([`register_managed`](QueryDirectory::register_managed))
//!   walks a submission through queued, running and retrying to its
//!   terminal, so a transiently-failed attempt shows `retrying` instead of
//!   leaking a premature terminal.
//! - **Progress** is the query's own last publication.
//!   [`register`](QueryDirectory::register) and
//!   [`attach_execution`](QueryDirectory::attach_execution) subscribe the
//!   entry to `CompiledQuery::on_progress`; each publication, made in the
//!   executing thread at an operator batch boundary, overwrites a small
//!   per-entry cell without taking the directory's lock. The cell outlives
//!   retry attempts, so the published fraction stays monotone across them.
//!   Per-operator detail rows read the operators' own counters.
//!
//! Lifecycle frames are **pushed** by the thread making the transition, in
//! the critical section that records it, and the terminal SSE frame leaves
//! exactly once. The broadcast [`tick`](QueryDirectory::tick) samples health
//! and sends `progress` frames for running entries from their cells.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use qprog_core::gnm::{PipelineState, ProgressSnapshot};
use qprog_exec::metrics::MetricsRegistry;
use qprog_exec::sync::Mutex;
use qprog_exec::trace::AbortKind;
use qprog_metrics::{Counter, Gauge, Registry};
use qprog_obs::HealthAnalyzer;
use qprog_plan::CompiledQuery;
use qprog_types::json::{escape, num};

use crate::eta::EtaSmoother;
use crate::hub::StreamHub;

/// A session query's lifecycle state, as `QueryHandle::state` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryState {
    /// Still executing (or compiled and not yet driven).
    Running,
    /// Root exhausted; progress pinned at 1.0.
    Done,
    /// Terminated without completing (cancelled, deadline, budget, panic,
    /// injected fault, or error). Progress freezes where it stopped.
    Failed(AbortKind),
}

/// An entry's lifecycle, as set by whoever holds its registration. Session
/// entries start `Running` and end `Terminal`; service entries walk every
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManagedState {
    /// Accepted, waiting for a dispatcher worker.
    Queued,
    /// Dispatched; execution attempt `attempt` (1-based) is in flight.
    Running {
        /// Attempt number.
        attempt: u32,
    },
    /// Last attempt failed transiently; parked for backoff.
    Retrying {
        /// Typed failure kind of the failed attempt.
        kind: String,
        /// Attempts completed so far.
        attempt: u32,
    },
    /// The registration's holder declared the outcome. This — and only
    /// this — triggers the exactly-once terminal frame.
    Terminal {
        /// Completed successfully.
        done: bool,
        /// Typed failure kind when not `done`.
        failure: Option<String>,
        /// Rows produced, when known.
        rows: Option<u64>,
    },
}

/// Live execution state attached to an entry (present from compile time
/// for session-owned queries; from dispatch time for managed ones).
struct ExecAttachment {
    /// The operators' counters: per-operator detail rows and the stall
    /// detector's work counter `ΣK`.
    registry: MetricsRegistry,
    health: Option<Arc<HealthAnalyzer>>,
}

/// An entry's progress numbers: its query's last publication (of any
/// attempt), with the fraction floored at every earlier one.
#[derive(Debug, Clone, Copy)]
struct Published {
    fraction: f64,
    lo: f64,
    hi: f64,
    current: u64,
    total: f64,
    pipelines: usize,
    pipelines_finished: usize,
}

impl Published {
    /// Before any publication: nothing done, nothing known.
    const NONE: Published = Published {
        fraction: 0.0,
        lo: 0.0,
        hi: 1.0,
        current: 0,
        total: f64::NAN,
        pipelines: 0,
        pipelines_finished: 0,
    };

    /// Take one publication. The raw gnm estimate may regress when an
    /// estimator revises `N_i` upward, and a retried job starts over under
    /// a fresh tracker; the reported fraction never moves backwards.
    fn update(&mut self, snap: &ProgressSnapshot) {
        let (fraction, lo, hi) = snap.floored(self.fraction);
        let pipelines = snap.pipelines();
        *self = Published {
            fraction,
            lo,
            hi,
            current: snap.current(),
            total: snap.total(),
            pipelines: pipelines.len(),
            pipelines_finished: pipelines
                .iter()
                .filter(|p| p.state == PipelineState::Finished)
                .count(),
        };
    }
}

/// One registered query.
struct QueryEntry {
    label: String,
    estimator: String,
    /// Owning tenant; `Some` only for service-managed entries (rendered
    /// into their JSON).
    tenant: Option<String>,
    /// Dispatch attempts (managed entries).
    attempt: u32,
    exec: Option<ExecAttachment>,
    state: ManagedState,
    /// Overwritten by each of the query's publications.
    progress: Arc<Mutex<Published>>,
    started: Instant,
    /// Smoothed remaining-time estimate (interior mutability: refreshed
    /// from whichever render or broadcast tick observes the entry).
    eta: Mutex<EtaSmoother>,
    /// Whether the stream hub already saw this query's terminal frame.
    terminal_emitted: AtomicBool,
}

impl QueryEntry {
    fn new(
        label: String,
        estimator: String,
        tenant: Option<String>,
        state: ManagedState,
        exec: Option<ExecAttachment>,
    ) -> Self {
        QueryEntry {
            label,
            estimator,
            tenant,
            attempt: 0,
            exec,
            state,
            progress: Arc::new(Mutex::new(Published::NONE)),
            started: Instant::now(),
            eta: Mutex::new(EtaSmoother::new()),
            terminal_emitted: AtomicBool::new(false),
        }
    }

    fn running(&self) -> bool {
        matches!(self.state, ManagedState::Running { .. })
    }

    fn terminal(&self) -> bool {
        matches!(self.state, ManagedState::Terminal { .. })
    }
}

/// Registry of live queries, keyed by a process-unique query id.
///
/// Queries [`register`](Self::register) when compiled and unregister when
/// their [`MonitoredQuery`] token drops (normally: when the
/// `QueryHandle` does), so a finished query stays visible — pinned at
/// 100% — for as long as its handle is held.
pub struct QueryDirectory {
    next_id: AtomicU64,
    entries: Mutex<BTreeMap<u64, QueryEntry>>,
    /// Server-push fan-out, attached by the [`MonitorServer`] when it
    /// starts. Lock order is always entries → hub.
    ///
    /// [`MonitorServer`]: crate::server::MonitorServer
    hub: Mutex<Option<Arc<StreamHub>>>,
    /// `qprog_queries_live`, when a metrics registry is attached.
    live_gauge: Option<Arc<Gauge>>,
    /// `qprog_queries_registered_total`, when a registry is attached.
    registered: Option<Arc<Counter>>,
}

impl QueryDirectory {
    /// A directory; with a metrics registry attached it also maintains the
    /// `qprog_queries_live` gauge and `qprog_queries_registered_total`
    /// counter.
    pub fn new(metrics: Option<&Registry>) -> Self {
        QueryDirectory {
            next_id: AtomicU64::new(1),
            entries: Mutex::new(BTreeMap::new()),
            hub: Mutex::new(None),
            live_gauge: metrics.map(|r| {
                r.gauge(
                    "qprog_queries_live",
                    "Queries currently registered with the monitor",
                    &[],
                )
            }),
            registered: metrics.map(|r| {
                r.counter(
                    "qprog_queries_registered_total",
                    "Queries ever registered with the monitor",
                    &[],
                )
            }),
        }
    }

    /// Register a compiled query, `running`, and subscribe its entry to the
    /// query's progress publications. The returned token unregisters it on
    /// drop, and its holder reports the outcome
    /// ([`MonitoredQuery::set_state`]). Pass a [`HealthAnalyzer`] to have
    /// the broadcast tick sample it and to surface its verdict in the
    /// query's JSON (`"health"` is `null` otherwise).
    pub fn register(
        self: &Arc<Self>,
        label: impl Into<String>,
        estimator: impl Into<String>,
        query: &CompiledQuery,
        health: Option<Arc<HealthAnalyzer>>,
    ) -> MonitoredQuery {
        let exec = ExecAttachment {
            registry: query.registry().clone(),
            health,
        };
        let entry = QueryEntry::new(
            label.into(),
            estimator.into(),
            None,
            ManagedState::Running { attempt: 1 },
            Some(exec),
        );
        Self::subscribe(query, Arc::clone(&entry.progress));
        self.insert(self.next_id.fetch_add(1, Ordering::Relaxed), entry)
    }

    /// Every publication of `query` overwrites `cell`.
    fn subscribe(query: &CompiledQuery, cell: Arc<Mutex<Published>>) {
        query.on_progress(move |snap| cell.lock().update(snap));
    }

    /// Reserve a fresh query id that is `≥ floor` and unique among every
    /// id this directory has seen (including explicitly-registered
    /// managed ids). Used by the query service so journal-recovered ids
    /// and fresh submissions share one namespace.
    pub fn allocate_id(&self, floor: u64) -> u64 {
        self.next_id.fetch_max(floor, Ordering::Relaxed);
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a service-managed entry under an explicit, pre-allocated
    /// id (fresh via [`allocate_id`](Self::allocate_id) or recovered from
    /// the journal). Starts `queued` with no execution attached.
    pub fn register_managed(
        self: &Arc<Self>,
        id: u64,
        label: impl Into<String>,
        estimator: impl Into<String>,
        tenant: impl Into<String>,
    ) -> MonitoredQuery {
        self.next_id.fetch_max(id + 1, Ordering::Relaxed);
        let entry = QueryEntry::new(
            label.into(),
            estimator.into(),
            Some(tenant.into()),
            ManagedState::Queued,
            None,
        );
        self.insert(id, entry)
    }

    fn insert(self: &Arc<Self>, id: u64, entry: QueryEntry) -> MonitoredQuery {
        let mut entries = self.entries.lock();
        entries.insert(id, entry);
        if let Some(hub) = self.hub() {
            // Registration is a transition too: the firehose learns of it now.
            Self::publish_state(&hub, id, &entries[&id], false, true);
        }
        drop(entries);
        if let Some(g) = &self.live_gauge {
            g.add(1.0);
        }
        if let Some(c) = &self.registered {
            c.inc();
        }
        MonitoredQuery {
            directory: Arc::clone(self),
            id,
        }
    }

    /// Attach a dispatched attempt's execution to a managed entry and
    /// subscribe the entry to its publications. A retry attempt replaces
    /// the previous attachment; the published fraction stays monotone
    /// across attempts. Returns false if the id is unknown.
    pub fn attach_execution(
        &self,
        id: u64,
        query: &CompiledQuery,
        health: Option<Arc<HealthAnalyzer>>,
    ) -> bool {
        let mut entries = self.entries.lock();
        let Some(e) = entries.get_mut(&id) else {
            return false;
        };
        e.exec = Some(ExecAttachment {
            registry: query.registry().clone(),
            health,
        });
        Self::subscribe(query, Arc::clone(&e.progress));
        true
    }

    /// Move an entry through its lifecycle and push the new state to its
    /// listeners before the entries lock is released: the exactly-once
    /// `terminal` frame for [`ManagedState::Terminal`], one `progress` frame
    /// otherwise. Returns false if the id is unknown.
    pub fn set_managed_state(&self, id: u64, state: ManagedState) -> bool {
        let mut entries = self.entries.lock();
        let Some(e) = entries.get_mut(&id) else {
            return false;
        };
        if let ManagedState::Running { attempt } | ManagedState::Retrying { attempt, .. } = &state {
            e.attempt = *attempt;
        }
        e.state = state;
        if let Some(hub) = self.hub() {
            Self::publish_state(&hub, id, e, e.terminal(), true);
        }
        true
    }

    /// Publish the frame for `e`'s state: if `terminal`, the `terminal` frame
    /// unless it is already out; else, if `progress` and anyone listens, one
    /// `progress` frame. The only `terminal_emitted` swap — transition and
    /// unregistration both come through here, so the terminal frame is
    /// exactly-once by construction.
    fn publish_state(hub: &StreamHub, id: u64, e: &QueryEntry, terminal: bool, progress: bool) {
        if terminal {
            if !e.terminal_emitted.swap(true, Ordering::Relaxed) {
                hub.publish(id, "terminal", &Self::summary_json(id, e), true);
            }
        } else if progress && hub.wants(id) {
            hub.publish(id, "progress", &Self::summary_json(id, e), false);
        }
    }

    fn remove(&self, id: u64) {
        let removed = self.entries.lock().remove(&id);
        if let Some(e) = removed {
            if let Some(g) = &self.live_gauge {
                g.sub(1.0);
            }
            // A query can unregister while still running (handle dropped
            // early). Streams must still always learn the outcome: emit the
            // final frame if none went out, then close per-query subscribers.
            if let Some(hub) = self.hub() {
                Self::publish_state(&hub, id, &e, true, false);
                hub.close_query(id);
            }
        }
    }

    /// Attach the server-push hub (done by [`MonitorServer::start`]).
    ///
    /// [`MonitorServer::start`]: crate::server::MonitorServer::start
    pub fn set_hub(&self, hub: Arc<StreamHub>) {
        *self.hub.lock() = Some(hub);
    }

    fn hub(&self) -> Option<Arc<StreamHub>> {
        self.hub.lock().clone()
    }

    /// One broadcast tick over the entries whose ending is not out yet:
    /// sample health (a stall is `ΣK` standing still), then push a
    /// `progress` frame from the last publication for each running entry
    /// anyone listens to (encoded once for all subscribers). Lifecycle
    /// frames never come from here.
    pub fn tick(&self) {
        let Some(hub) = self.hub() else { return };
        let entries = self.entries.lock();
        for (&id, e) in entries.iter() {
            // The ending is out: nothing left to say, and retained terminal
            // entries can outnumber live ones by orders of magnitude.
            if e.terminal_emitted.load(Ordering::Relaxed) {
                continue;
            }
            if let Some(exec) = &e.exec {
                if let Some(h) = &exec.health {
                    let elapsed_us = e.started.elapsed().as_micros() as u64;
                    let fraction = e.progress.lock().fraction;
                    let eta = e.eta.lock().update(elapsed_us, fraction, e.running());
                    let work = exec.registry.total_emitted();
                    if let Some((from, to, reason)) =
                        h.observe(work, eta.map(|v| v as f64), e.running())
                    {
                        hub.publish(
                            id,
                            "health",
                            &format!(
                                "{{\"id\":{id},\"from\":\"{from}\",\"to\":\"{to}\",\
                                 \"reason\":\"{reason}\"}}"
                            ),
                            false,
                        );
                    }
                }
            }
            Self::publish_state(&hub, id, e, false, e.running());
        }
    }

    /// Number of currently registered queries.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True iff no query is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Registered query ids, ascending.
    pub fn ids(&self) -> Vec<u64> {
        self.entries.lock().keys().copied().collect()
    }

    fn summary_json(id: u64, e: &QueryEntry) -> String {
        let (state, failure, rows) = match &e.state {
            ManagedState::Queued => ("queued", None, None),
            ManagedState::Running { .. } => ("running", None, None),
            ManagedState::Retrying { kind, .. } => ("retrying", Some(kind), None),
            ManagedState::Terminal {
                done,
                failure,
                rows,
            } => (
                if *done { "done" } else { "failed" },
                failure.as_ref(),
                *rows,
            ),
        };
        let p = *e.progress.lock();
        let elapsed_us = e.started.elapsed().as_micros() as u64;
        // The paper's motivating use case, estimated time remaining from
        // the gnm fraction, smoothed so refinement noise does not whipsaw
        // the number. `null` before meaningful progress and once terminal.
        let eta_us = e
            .eta
            .lock()
            .update(elapsed_us, p.fraction, e.running())
            .map_or_else(|| "null".to_string(), |v| v.to_string());
        let health = e.exec.as_ref().and_then(|x| x.health.as_ref()).map_or_else(
            || "null".to_string(),
            |h| format!("\"{}\"", h.state().name()),
        );
        // Service-managed entries carry their tenant and attempt count;
        // session-owned JSON is unchanged.
        let tenancy = match &e.tenant {
            Some(t) => format!("\"tenant\":\"{}\",\"attempt\":{},", escape(t), e.attempt),
            None => String::new(),
        };
        format!(
            "{{\"id\":{id},\"label\":\"{}\",\"estimator\":\"{}\",{tenancy}\
             \"elapsed_us\":{elapsed_us},\"eta_us\":{eta_us},\
             \"fraction\":{},\"lo\":{},\"hi\":{},\
             \"current\":{},\"total\":{},\"pipelines\":{},\
             \"pipelines_finished\":{},\"state\":\"{state}\",\"failure\":{},\
             \"health\":{health},\"done\":{},\"rows\":{}}}",
            escape(&e.label),
            escape(&e.estimator),
            num(p.fraction),
            num(p.lo),
            num(p.hi),
            p.current,
            num(p.total),
            p.pipelines,
            p.pipelines_finished,
            failure.map_or("null".to_string(), |f| format!("\"{}\"", escape(f))),
            state == "done",
            rows.map_or("null".to_string(), |r| r.to_string()),
        )
    }

    fn detail_json(id: u64, e: &QueryEntry) -> String {
        let summary = Self::summary_json(id, e);
        let ops: Vec<String> = match &e.exec {
            None => Vec::new(),
            Some(exec) => exec
                .registry
                .iter()
                .map(|(name, m)| {
                    let (lo, hi) = m
                        .estimated_bounds()
                        .map_or(("null".to_string(), "null".to_string()), |(lo, hi)| {
                            (num(lo), num(hi))
                        });
                    format!(
                        "{{\"name\":\"{}\",\"k\":{},\"driver\":{},\"n\":{},\
                         \"lo\":{lo},\"hi\":{hi},\"finished\":{},\"phase\":{},\
                         \"wall_us\":{},\"workers\":{}}}",
                        escape(name),
                        m.emitted(),
                        m.driver_consumed(),
                        num(m.estimated_total()),
                        m.is_finished(),
                        m.phase()
                            .map_or("null".to_string(), |p| format!("\"{}\"", p.name())),
                        m.wall_us().map_or("null".to_string(), |w| w.to_string()),
                        m.workers().map_or("null".to_string(), |w| w.to_string()),
                    )
                })
                .collect(),
        };
        debug_assert!(summary.ends_with('}'));
        format!(
            "{},\"ops\":[{}]}}",
            &summary[..summary.len() - 1],
            ops.join(",")
        )
    }

    /// JSON for `GET /progress`: every registered query's summary.
    pub fn render_all(&self) -> String {
        let entries = self.entries.lock();
        let queries: Vec<String> = entries
            .iter()
            .map(|(&id, e)| Self::summary_json(id, e))
            .collect();
        format!("{{\"queries\":[{}]}}", queries.join(","))
    }

    /// JSON for `GET /progress/{id}`: one query with per-operator detail,
    /// or `None` if the id is not (or no longer) registered.
    pub fn render_query(&self, id: u64) -> Option<String> {
        let entries = self.entries.lock();
        entries.get(&id).map(|e| Self::detail_json(id, e))
    }

    /// Initial state for a new SSE subscriber: the query's summary JSON,
    /// whether it is already terminal, and whether its terminal frame was
    /// already broadcast (in which case the new subscriber will never see
    /// one and the server must synthesize it).
    pub fn stream_snapshot(&self, id: u64) -> Option<(String, bool, bool)> {
        let entries = self.entries.lock();
        entries.get(&id).map(|e| {
            (
                Self::summary_json(id, e),
                e.terminal(),
                e.terminal_emitted.load(Ordering::Relaxed),
            )
        })
    }
}

impl std::fmt::Debug for QueryDirectory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryDirectory")
            .field("live", &self.len())
            .finish()
    }
}

/// Registration token: while alive, the query is listed by the monitor;
/// dropping it unregisters the query. Its holder sets the entry's
/// lifecycle.
pub struct MonitoredQuery {
    directory: Arc<QueryDirectory>,
    id: u64,
}

impl MonitoredQuery {
    /// The process-unique query id (`/progress/{id}`).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Move this entry to `state`
    /// ([`set_managed_state`](QueryDirectory::set_managed_state)).
    pub fn set_state(&self, state: ManagedState) -> bool {
        self.directory.set_managed_state(self.id, state)
    }
}

impl Drop for MonitoredQuery {
    fn drop(&mut self) {
        self.directory.remove(self.id);
    }
}

impl std::fmt::Debug for MonitoredQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitoredQuery")
            .field("id", &self.id)
            .finish()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::hub::{StreamNext, StreamSubscriber};
    use qprog_core::gnm::PipelineProgress;
    use qprog_exec::trace::{Phase, TraceEvent, TraceEventKind, TraceSink};

    /// A publication: `current` of `total` done, on one pipeline.
    fn snapshot(current: u64, total: f64) -> ProgressSnapshot {
        let pipeline = if current as f64 >= total {
            PipelineProgress::finished(0, current)
        } else {
            PipelineProgress::running(0, current, total)
        };
        ProgressSnapshot::new(vec![pipeline])
    }

    fn one_scan() -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        reg.register("scan", 100.0);
        reg
    }

    fn exec(registry: &MetricsRegistry) -> ExecAttachment {
        ExecAttachment {
            registry: registry.clone(),
            health: None,
        }
    }

    /// A session entry over a one-scan registry, as `register` makes for a
    /// compiled query, plus a `publish(current, total)` that writes its
    /// progress cell the way the query's publications do.
    pub(crate) fn session_entry(
        dir: &Arc<QueryDirectory>,
        label: &str,
    ) -> (MonitoredQuery, impl Fn(u64, f64), MetricsRegistry) {
        let reg = one_scan();
        let running = ManagedState::Running { attempt: 1 };
        let entry = QueryEntry::new(label.into(), "once".into(), None, running, Some(exec(&reg)));
        let cell = Arc::clone(&entry.progress);
        let q = dir.insert(dir.allocate_id(1), entry);
        let publish = move |current, total| cell.lock().update(&snapshot(current, total));
        (q, publish, reg)
    }

    /// Attach `exec` to entry `id` as `attach_execution` does for a
    /// compiled query; the cell its publications would write.
    fn attach(
        dir: &QueryDirectory,
        id: u64,
        exec: ExecAttachment,
    ) -> Option<Arc<Mutex<Published>>> {
        let mut entries = dir.entries.lock();
        let e = entries.get_mut(&id)?;
        e.exec = Some(exec);
        Some(Arc::clone(&e.progress))
    }

    /// The outcome a `QueryHandle` reports for a finish of `rows` rows.
    pub(crate) fn finished(rows: u64) -> ManagedState {
        ManagedState::Terminal {
            done: true,
            failure: None,
            rows: Some(rows),
        }
    }

    /// A directory with a hub and a firehose subscriber, but no server and
    /// no broadcast thread: every frame seen was published by the call
    /// under test, on the calling thread.
    fn pushed() -> (Arc<QueryDirectory>, Arc<StreamHub>, Arc<StreamSubscriber>) {
        let dir = Arc::new(QueryDirectory::new(None));
        let hub = Arc::new(StreamHub::new(None));
        dir.set_hub(Arc::clone(&hub));
        let firehose = hub.subscribe(None, 64);
        (dir, hub, firehose)
    }

    /// Drain what is queued right now: `(event, data)` per frame.
    fn frames(sub: &StreamSubscriber) -> Vec<(String, String)> {
        let mut out = Vec::new();
        while let StreamNext::Frame(f) = sub.next(std::time::Duration::ZERO) {
            let field = |name: &str| {
                let line = f.lines().find(|l| l.starts_with(name)).unwrap();
                line[name.len()..].to_string()
            };
            out.push((field("event: "), field("data: ")));
        }
        out
    }

    #[test]
    fn register_list_unregister() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (q1, _, _) = session_entry(&dir, "q one");
        let (q2, _, _) = session_entry(&dir, "q two");
        assert_eq!(dir.len(), 2);
        assert_eq!(dir.ids(), vec![q1.id(), q2.id()]);
        assert_ne!(q1.id(), q2.id());
        drop(q1);
        assert_eq!(dir.len(), 1);
        assert!(dir.render_query(q2.id()).is_some());
        drop(q2);
        assert!(dir.is_empty());
    }

    #[test]
    fn progress_json_reflects_the_last_publication() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (q, publish, reg) = session_entry(&dir, "sel");
        // Until the first publication: the numbers recorded at registration.
        let all = dir.render_all();
        assert!(all.contains("\"fraction\":0,\"lo\":0,\"hi\":1"), "{all}");
        for _ in 0..50 {
            reg.get(0).unwrap().record_emitted();
        }
        assert!(dir.render_all().contains("\"current\":0"), "not published");
        publish(50, 100.0);
        let all = dir.render_all();
        assert!(all.contains("\"label\":\"sel\""), "{all}");
        assert!(all.contains("\"current\":50"), "{all}");
        assert!(all.contains("\"fraction\":0.5"), "{all}");
        assert!(
            all.contains("\"pipelines\":1,\"pipelines_finished\":0"),
            "{all}"
        );
        assert!(all.contains("\"done\":false"), "{all}");
        // running at p = 0.5: elapsed and a finite ETA are reported
        assert!(all.contains("\"elapsed_us\":"), "{all}");
        assert!(all.contains("\"eta_us\":"), "{all}");
        assert!(!all.contains("\"eta_us\":null"), "{all}");
        // session-owned queries carry no tenancy fields
        assert!(!all.contains("\"tenant\""), "{all}");
        // per-operator rows read the operators' own counters
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"ops\":[{\"name\":\"scan\""), "{detail}");
        assert!(detail.contains("\"k\":50"), "{detail}");
        publish(100, 100.0);
        q.set_state(finished(100));
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"done\":true"), "{detail}");
        assert!(detail.contains("\"fraction\":1"), "{detail}");
        assert!(detail.contains("\"pipelines_finished\":1"), "{detail}");
        // terminal queries have no remaining-time estimate
        assert!(detail.contains("\"eta_us\":null"), "{detail}");
    }

    #[test]
    fn detail_rows_show_each_operators_last_phase() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (q, _, reg) = session_entry(&dir, "phased");
        let phase = || {
            let detail = dir.render_query(q.id()).unwrap();
            let at = detail.find("\"phase\":").expect("an operator row");
            detail[at..].split(',').next().unwrap().to_string()
        };
        assert_eq!(phase(), "\"phase\":null");
        let (_, scan) = reg.iter().next().unwrap();
        scan.trace_phase(Phase::Init, Phase::Build);
        scan.trace_phase(Phase::Build, Phase::Probe);
        assert_eq!(phase(), "\"phase\":\"probe\"");
    }

    #[test]
    fn summary_json_reports_failed_queries() {
        let dir = Arc::new(QueryDirectory::new(None));
        let (q, publish, _) = session_entry(&dir, "doomed");
        publish(30, 100.0);
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"running\""), "{all}");
        assert!(all.contains("\"failure\":null"), "{all}");
        q.set_state(ManagedState::Terminal {
            done: false,
            failure: Some(AbortKind::DeadlineExceeded.to_string()),
            rows: Some(30),
        });
        let detail = dir.render_query(q.id()).unwrap();
        assert!(detail.contains("\"state\":\"failed\""), "{detail}");
        assert!(detail.contains("\"failure\":\"deadline\""), "{detail}");
        assert!(detail.contains("\"done\":false"), "{detail}");
        assert!(detail.contains("\"rows\":30"), "{detail}");
        // progress froze where the abort happened, it did not jump to 1.0
        assert!(detail.contains("\"fraction\":0.3"), "{detail}");
    }

    #[test]
    fn live_gauge_follows_registrations() {
        let metrics = Registry::new();
        let dir = Arc::new(QueryDirectory::new(Some(&metrics)));
        let gauge = metrics.gauge("qprog_queries_live", "", &[]);
        let registered = metrics.counter("qprog_queries_registered_total", "", &[]);
        let (q, _, _) = session_entry(&dir, "q");
        assert_eq!(gauge.get(), 1.0);
        assert_eq!(registered.get(), 1);
        drop(q);
        assert_eq!(gauge.get(), 0.0);
        assert_eq!(registered.get(), 1, "total is monotone");
    }

    #[test]
    fn unknown_id_renders_none() {
        let dir = QueryDirectory::new(None);
        assert!(dir.render_query(404).is_none());
    }

    #[test]
    fn managed_entries_walk_the_service_lifecycle() {
        let dir = Arc::new(QueryDirectory::new(None));
        let id = dir.allocate_id(1);
        let q = dir.register_managed(id, "svc query", "gnm", "acme");
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"queued\""), "{all}");
        assert!(all.contains("\"tenant\":\"acme\""), "{all}");
        assert!(all.contains("\"attempt\":0"), "{all}");
        assert!(all.contains("\"fraction\":0"), "{all}");
        assert!(all.contains("\"eta_us\":null"), "{all}");

        assert!(dir.set_managed_state(id, ManagedState::Running { attempt: 1 }));
        let reg = one_scan();
        let cell = attach(&dir, id, exec(&reg)).unwrap();
        for _ in 0..40 {
            reg.get(0).unwrap().record_emitted();
        }
        cell.lock().update(&snapshot(40, 100.0));
        let detail = dir.render_query(id).unwrap();
        assert!(detail.contains("\"state\":\"running\""), "{detail}");
        assert!(detail.contains("\"attempt\":1"), "{detail}");
        assert!(detail.contains("\"fraction\":0.4"), "{detail}");
        assert!(detail.contains("\"ops\":[{\"name\":\"scan\""), "{detail}");

        assert!(dir.set_managed_state(
            id,
            ManagedState::Retrying {
                kind: "injected".to_string(),
                attempt: 1,
            }
        ));
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"retrying\""), "{all}");
        assert!(all.contains("\"failure\":\"injected\""), "{all}");
        assert!(all.contains("\"done\":false"), "{all}");

        assert!(dir.set_managed_state(
            id,
            ManagedState::Terminal {
                done: true,
                failure: None,
                rows: Some(123),
            }
        ));
        let detail = dir.render_query(id).unwrap();
        assert!(detail.contains("\"state\":\"done\""), "{detail}");
        assert!(detail.contains("\"done\":true"), "{detail}");
        assert!(detail.contains("\"rows\":123"), "{detail}");
        drop(q);
        assert!(!dir.set_managed_state(id, ManagedState::Queued));
        assert!(attach(&dir, id, exec(&reg)).is_none());
    }

    #[test]
    fn managed_progress_stays_monotone_across_a_retry() {
        let dir = Arc::new(QueryDirectory::new(None));
        let id = dir.allocate_id(1);
        let _q = dir.register_managed(id, "flaky", "gnm", "t");
        let fraction = || {
            let detail = dir.render_query(id).unwrap();
            qprog_types::json::f64(&detail, "fraction").unwrap()
        };
        dir.set_managed_state(id, ManagedState::Running { attempt: 1 });
        let first = attach(&dir, id, exec(&one_scan())).unwrap();
        first.lock().update(&snapshot(60, 100.0));
        assert_eq!(fraction(), 0.6);
        dir.set_managed_state(
            id,
            ManagedState::Retrying {
                kind: "injected".to_string(),
                attempt: 1,
            },
        );
        assert_eq!(fraction(), 0.6, "a parked job keeps its progress");
        dir.set_managed_state(id, ManagedState::Running { attempt: 2 });
        // Attempt 2 runs under a fresh tracker and starts over.
        let second = attach(&dir, id, exec(&one_scan())).unwrap();
        second.lock().update(&snapshot(20, 100.0));
        let detail = dir.render_query(id).unwrap();
        assert!(detail.contains("\"attempt\":2"), "{detail}");
        assert!(detail.contains("\"current\":20"), "{detail}");
        assert_eq!(fraction(), 0.6, "{detail}");
        let hi = qprog_types::json::f64(&detail, "hi").unwrap();
        assert!(
            hi >= 0.6,
            "the bracket holds the floored fraction: {detail}"
        );
        second.lock().update(&snapshot(80, 100.0));
        assert_eq!(fraction(), 0.8);
    }

    #[test]
    fn allocate_id_respects_floor_and_explicit_registrations() {
        let dir = Arc::new(QueryDirectory::new(None));
        let a = dir.allocate_id(10);
        assert!(a >= 10);
        let _q = dir.register_managed(50, "replayed", "gnm", "t");
        let b = dir.allocate_id(1);
        assert!(b > 50, "{b}");
        let (s, _, _) = session_entry(&dir, "session");
        assert!(s.id() > b, "session ids share the namespace: {}", s.id());
    }

    #[test]
    fn trace_events_set_no_lifecycle() {
        // A retryable abort publishes QueryAborted onto the attempt's bus;
        // the entry stays where its registration's holder put it.
        let (dir, _hub, firehose) = pushed();
        let id = dir.allocate_id(1);
        let _q = dir.register_managed(id, "flaky", "gnm", "t");
        dir.set_managed_state(id, ManagedState::Running { attempt: 1 });
        let sink = Arc::new(HealthAnalyzer::new(qprog_obs::HealthConfig::default()));
        let attachment = ExecAttachment {
            health: Some(Arc::clone(&sink)),
            ..exec(&one_scan())
        };
        attach(&dir, id, attachment);
        frames(&firehose);
        sink.publish(&TraceEvent {
            seq: 0,
            at_us: 0,
            kind: TraceEventKind::QueryAborted {
                reason: AbortKind::Injected,
                rows: 0,
            },
        });
        assert_eq!(frames(&firehose), vec![], "the sink pushed a frame");
        let (_, terminal, emitted) = dir.stream_snapshot(id).unwrap();
        assert!(!terminal, "trace abort must not leak a terminal");
        assert!(!emitted);
        let all = dir.render_all();
        assert!(all.contains("\"state\":\"running\""), "{all}");
    }

    #[test]
    fn managed_transitions_are_pushed_by_the_thread_that_makes_them() {
        let (dir, hub, firehose) = pushed();
        let id = dir.allocate_id(1);
        let q = dir.register_managed(id, "svc", "gnm", "acme");
        let watcher = hub.subscribe(Some(id), 8);
        let got = frames(&firehose);
        assert_eq!(got.len(), 1, "registration: {got:?}");
        assert!(got[0].1.contains("\"state\":\"queued\""), "{got:?}");
        // One `progress` frame per non-terminal state, carrying that state.
        let states: [(ManagedState, &str); 3] = [
            (
                ManagedState::Running { attempt: 1 },
                "\"state\":\"running\"",
            ),
            (
                ManagedState::Retrying {
                    kind: "injected".to_string(),
                    attempt: 1,
                },
                "\"state\":\"retrying\"",
            ),
            (ManagedState::Running { attempt: 2 }, "\"attempt\":2"),
        ];
        for (state, expect) in states {
            dir.set_managed_state(id, state);
            let got = frames(&firehose);
            assert_eq!(got.len(), 1, "{got:?}");
            assert_eq!(got[0].0, "progress");
            assert!(got[0].1.contains(expect), "{got:?}");
        }
        // Terminal: exactly one frame, immediately, and it ends the
        // per-query stream.
        dir.set_managed_state(id, finished(7));
        let got = frames(&firehose);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, "terminal");
        assert!(got[0].1.contains("\"done\":true,\"rows\":7"), "{got:?}");
        let seen: Vec<String> = frames(&watcher).into_iter().map(|f| f.0).collect();
        assert_eq!(seen, ["progress", "progress", "progress", "terminal"]);
        assert!(watcher.is_closed());
        // Neither a later tick nor unregistration repeats it.
        dir.tick();
        drop(q);
        assert_eq!(frames(&firehose), vec![]);
    }

    #[test]
    fn session_entries_push_their_terminal_exactly_once() {
        let (dir, _hub, firehose) = pushed();
        let cancelled = ManagedState::Terminal {
            done: false,
            failure: Some(AbortKind::Cancelled.to_string()),
            rows: Some(3),
        };
        let endings = [
            (Some(finished(9)), "\"state\":\"done\""),
            (Some(cancelled), "\"failure\":\"cancelled\""),
            // The handle dropped before its query ran.
            (None, "\"state\":\"running\""),
        ];
        for (ending, expect) in endings {
            let (q, publish, _) = session_entry(&dir, "s");
            publish(3, 9.0);
            frames(&firehose);
            let q = match ending {
                Some(state) => {
                    q.set_state(state);
                    Some(q)
                }
                None => {
                    drop(q);
                    None
                }
            };
            let got = frames(&firehose);
            assert_eq!(got.len(), 1, "{got:?}");
            assert_eq!(got[0].0, "terminal");
            assert!(got[0].1.contains(expect), "{got:?}");
            dir.tick();
            drop(q);
            assert_eq!(frames(&firehose), vec![], "terminal repeated");
        }
    }

    #[test]
    fn tick_sends_running_entries_their_last_publication() {
        let (dir, _hub, firehose) = pushed();
        let (q, publish, _) = session_entry(&dir, "live");
        frames(&firehose);
        publish(25, 100.0);
        assert_eq!(frames(&firehose), vec![], "a publication pushes no frame");
        dir.tick();
        let got = frames(&firehose);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].0, "progress");
        assert!(got[0].1.contains("\"fraction\":0.25"), "{got:?}");
        q.set_state(finished(1));
        frames(&firehose);
        dir.tick();
        assert_eq!(frames(&firehose), vec![], "nothing after the terminal");
    }
}
