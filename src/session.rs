//! High-level session API: SQL in, rows + live progress out.

use std::sync::Arc;
use std::time::Duration;

use qprog_core::gnm::ProgressSnapshot;
use qprog_exec::governor::CancellationToken;
use qprog_exec::trace::HealthState;
use qprog_exec::trace::{EventBus, TraceEvent, TraceSink};
use qprog_metrics::Registry;
use qprog_monitor::{ManagedState, MonitorServer, MonitoredQuery, QueryState};
use qprog_obs::{
    ArchivedRun, Corpus, CorpusSink, HealthAnalyzer, HealthConfig, MetricsSink, RunMeta,
};
use qprog_plan::physical::{compile_traced, CompiledQuery, PhysicalOptions};
use qprog_plan::progress::Subscriber;
use qprog_plan::{LogicalPlan, PlanBuilder, ProgressTracker};
use qprog_storage::Catalog;
use qprog_types::{QResult, Row};

/// Which observability layers a session attaches, declared in one place.
///
/// Each layer is opt-in; without any of them queries compile with **zero**
/// tracing overhead — the per-tuple hot path is identical to the untraced
/// baseline.
///
/// - [`with_trace`](Self::with_trace) attaches an [`EventBus`]: every query
///   streams execution trace events (phase transitions, estimate
///   refinements, completion) to its sinks.
/// - [`with_metrics`](Self::with_metrics) attaches a shared
///   [`qprog_metrics::Registry`]: every query aggregates its events into
///   fleet-wide counters and per-estimator q-error histograms through a
///   per-query [`MetricsSink`].
/// - [`with_monitor`](Self::with_monitor) joins an already-running
///   [`MonitorServer`] (several sessions can share one);
///   [`serve_on`](Self::serve_on) starts a fresh one at
///   [`SessionBuilder::build`] time. Either way every query registers for
///   live HTTP observation (`/progress/{id}`, its `/stream` SSE variant,
///   the `/events` firehose, and the `/` dashboard) and unregisters when
///   its [`QueryHandle`] drops. Monitored queries also get a per-query
///   [`HealthAnalyzer`] (stall / estimate-oscillation / ETA-volatility
///   detection); tune its thresholds with
///   [`with_health`](Self::with_health).
/// - [`with_corpus`](Self::with_corpus) attaches a persistent
///   [`Corpus`]: every traced run is archived (full trace segment +
///   scorecard) at terminal time, compared against rolling per-workload
///   baselines, and any progress-quality regression is published back onto
///   the query's bus as a `RegressionDetected` trace event. A monitor in
///   the same session serves the corpus at `/history`.
#[derive(Debug, Clone, Default)]
pub struct Observability {
    trace: Option<Arc<EventBus>>,
    metrics: Option<Arc<Registry>>,
    monitor: Option<Arc<MonitorServer>>,
    serve_addr: Option<String>,
    health: HealthConfig,
    corpus: Option<CorpusAttachment>,
}

/// How a corpus joins the session: opened from a path at build time, or an
/// already-open handle shared with other sessions/tools.
#[derive(Debug, Clone)]
enum CorpusAttachment {
    Path(std::path::PathBuf),
    Handle(Arc<Corpus>),
}

impl Observability {
    /// No observability: the zero-overhead default.
    pub fn new() -> Self {
        Observability::default()
    }

    /// Attach a trace bus.
    ///
    /// When metrics or a monitor are also attached, each query gets its own
    /// bus carrying this bus's sinks plus the per-query ones, so events are
    /// stamped once; the session bus's `published()` counter then stays at
    /// zero (drain your sinks, not the bus).
    pub fn with_trace(mut self, bus: Arc<EventBus>) -> Self {
        self.trace = Some(bus);
        self
    }

    /// Attach a metrics registry shared across queries (and sessions).
    pub fn with_metrics(mut self, registry: Arc<Registry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Join an already-running monitor server. The session adopts the
    /// server's metrics registry when none is attached explicitly.
    pub fn with_monitor(mut self, server: Arc<MonitorServer>) -> Self {
        self.monitor = Some(server);
        self
    }

    /// Start a live monitor HTTP server on `addr` (e.g. `"127.0.0.1:0"`
    /// for an OS-assigned port) when the session is built. Creates and
    /// attaches a metrics registry if none is configured, so
    /// `GET /metrics` works out of the box. The server shuts down
    /// gracefully when the last `Arc` to it drops (or on an explicit
    /// [`MonitorServer::shutdown`]). Mutually exclusive with
    /// [`with_monitor`](Self::with_monitor).
    pub fn serve_on(mut self, addr: impl Into<String>) -> Self {
        self.serve_addr = Some(addr.into());
        self
    }

    /// Override the health-detection thresholds (stall window, estimate
    /// flip/divergence sensitivity, ETA volatility) applied to each
    /// monitored query's [`HealthAnalyzer`]. Has no effect unless a
    /// monitor is attached.
    pub fn with_health(mut self, config: HealthConfig) -> Self {
        self.health = config;
        self
    }

    /// Archive every run into a persistent trace corpus at `dir` (created
    /// if missing, opened crash-tolerantly at
    /// [`SessionBuilder::build`]). Each query's full trace and scorecard
    /// are stored at terminal time and checked against rolling
    /// `(workload, estimator, threads)` baselines for progress-quality
    /// regressions. The corpus turns progress publication on for every
    /// query, so the trace carries the `ProgressSampled` events it is
    /// scored over.
    pub fn with_corpus(mut self, dir: impl Into<std::path::PathBuf>) -> Self {
        self.corpus = Some(CorpusAttachment::Path(dir.into()));
        self
    }

    /// Archive into an already-open [`Corpus`] (shared across sessions, or
    /// pre-configured via [`Corpus::open_with`]).
    pub fn with_corpus_handle(mut self, corpus: Arc<Corpus>) -> Self {
        self.corpus = Some(CorpusAttachment::Handle(corpus));
        self
    }
}

/// Builds a [`Session`]: catalog + physical options + observability.
///
/// ```no_run
/// # use qprog::prelude::*;
/// # let catalog = Catalog::new();
/// let session = SessionBuilder::new(catalog)
///     .options(PhysicalOptions::default())
///     .observability(Observability::new().serve_on("127.0.0.1:0"))
///     .build()
///     .unwrap();
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    catalog: Catalog,
    options: PhysicalOptions,
    observability: Observability,
}

impl SessionBuilder {
    /// A builder with default options and no observability.
    pub fn new(catalog: Catalog) -> Self {
        SessionBuilder {
            catalog,
            options: PhysicalOptions::default(),
            observability: Observability::default(),
        }
    }

    /// Override the physical options.
    pub fn options(mut self, options: PhysicalOptions) -> Self {
        self.options = options;
        self
    }

    /// Set the vectorized batch capacity for queries compiled by this
    /// session (clamped to ≥ 1). `1` is strict per-row equivalence mode;
    /// the default is [`PhysicalOptions::batch_rows`] (env
    /// `QPROG_BATCH_ROWS`, normally 1024). Shorthand for mutating
    /// [`options`](Self::options).
    pub fn batch_rows(mut self, n: usize) -> Self {
        self.options.batch_rows = n.max(1);
        self
    }

    /// Configure the observability layers.
    pub fn observability(mut self, observability: Observability) -> Self {
        self.observability = observability;
        self
    }

    /// Build the session, starting the monitor server if
    /// [`Observability::serve_on`] was requested (the only fallible step).
    pub fn build(self) -> QResult<Session> {
        let Observability {
            trace,
            mut metrics,
            mut monitor,
            serve_addr,
            health,
            corpus,
        } = self.observability;
        if let Some(addr) = serve_addr {
            if monitor.is_some() {
                return Err(qprog_types::QError::internal(
                    "Observability::serve_on conflicts with with_monitor: \
                     join the existing server or start a new one, not both",
                ));
            }
            let registry = metrics
                .get_or_insert_with(|| Arc::new(Registry::new()))
                .clone();
            monitor = Some(MonitorServer::start(&addr, Some(registry))?);
        } else if let Some(server) = &monitor {
            if metrics.is_none() {
                metrics = server.metrics().cloned();
            }
        }
        let corpus = match corpus {
            Some(CorpusAttachment::Handle(c)) => Some(c),
            Some(CorpusAttachment::Path(dir)) => {
                Some(Arc::new(Corpus::open(&dir).map_err(|e| {
                    qprog_types::QError::internal(format!(
                        "opening trace corpus at {}: {e}",
                        dir.display()
                    ))
                })?))
            }
            None => None,
        };
        if let (Some(server), Some(c)) = (&monitor, &corpus) {
            server.set_corpus(Arc::clone(c));
        }
        Ok(Session {
            builder: PlanBuilder::new(self.catalog),
            options: self.options,
            bus: trace,
            metrics,
            monitor,
            health,
            corpus,
        })
    }
}

/// A database session: a catalog plus physical execution options.
///
/// The default options enable the paper's framework (`Once` estimation,
/// 10% block samples); use [`Session::with_options`] to run the `dne`/
/// `byte` baselines or disable estimation.
///
/// Observability (tracing, metrics, live monitoring) is configured through
/// [`SessionBuilder`] with an [`Observability`] value; see its docs for
/// the available layers.
#[derive(Debug, Clone)]
pub struct Session {
    builder: PlanBuilder,
    options: PhysicalOptions,
    bus: Option<Arc<EventBus>>,
    metrics: Option<Arc<Registry>>,
    monitor: Option<Arc<MonitorServer>>,
    health: HealthConfig,
    corpus: Option<Arc<Corpus>>,
}

impl Session {
    /// New session with default options.
    pub fn new(catalog: Catalog) -> Self {
        Session {
            builder: PlanBuilder::new(catalog),
            options: PhysicalOptions::default(),
            bus: None,
            metrics: None,
            monitor: None,
            health: HealthConfig::default(),
            corpus: None,
        }
    }

    /// Override the physical options.
    pub fn with_options(mut self, options: PhysicalOptions) -> Self {
        self.options = options;
        self
    }

    /// The attached trace bus, if any.
    pub fn trace_bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// The attached monitor server, if any.
    pub fn monitor(&self) -> Option<&Arc<MonitorServer>> {
        self.monitor.as_ref()
    }

    /// The attached trace corpus, if any.
    pub fn corpus(&self) -> Option<&Arc<Corpus>> {
        self.corpus.as_ref()
    }

    /// The plan builder (for programmatic plan construction).
    pub fn builder(&self) -> &PlanBuilder {
        &self.builder
    }

    /// Current physical options.
    pub fn options(&self) -> &PhysicalOptions {
        &self.options
    }

    /// Parse, bind, and compile a SQL query. With a monitor attached, the
    /// SQL text becomes the query's dashboard label.
    pub fn query(&self, sql: &str) -> QResult<QueryHandle> {
        let plan = qprog_sql::plan_sql(&self.builder, sql)?;
        self.compile(plan, sql)
    }

    /// Compile a SQL query that *adopts* an existing monitor entry instead
    /// of registering a fresh one. Used by the query service: the
    /// submission was registered (as `queued`) at accept time under `id`,
    /// and each dispatch attempt attaches its live tracker/phases/health
    /// to that entry, so progress stays under one id across retries. The
    /// returned handle does not own the monitor registration (the service
    /// bridge does), so dropping it never emits a premature terminal.
    pub fn query_adopting(&self, sql: &str, id: u64) -> QResult<QueryHandle> {
        let plan = qprog_sql::plan_sql(&self.builder, sql)?;
        self.compile_as(plan, sql, Some(id))
    }

    /// Compile a programmatically built logical plan.
    pub fn query_plan(&self, plan: LogicalPlan) -> QResult<QueryHandle> {
        self.compile(plan, "<plan>")
    }

    /// Compile a logical plan under an explicit monitor/dashboard label.
    pub fn query_plan_labeled(&self, plan: LogicalPlan, label: &str) -> QResult<QueryHandle> {
        self.compile(plan, label)
    }

    fn compile(&self, plan: LogicalPlan, label: &str) -> QResult<QueryHandle> {
        self.compile_as(plan, label, None)
    }

    fn compile_as(
        &self,
        plan: LogicalPlan,
        label: &str,
        adopt: Option<u64>,
    ) -> QResult<QueryHandle> {
        // Per-query observer sinks. Events carry operator indices that are
        // only meaningful within one query, so the aggregating sinks are
        // per-query even though the registry/monitor they feed are shared.
        let metrics_sink = self
            .metrics
            .as_ref()
            .map(|r| Arc::new(MetricsSink::new(Arc::clone(r), self.options.mode.label())));
        // Monitored queries get a health analyzer: it taps the query's
        // trace stream (estimate oscillation/divergence) and is sampled by
        // the monitor's broadcast tick (stall and ETA-volatility checks).
        let health_analyzer = self
            .monitor
            .as_ref()
            .map(|_| Arc::new(HealthAnalyzer::new(self.health.clone())));
        // With a corpus attached, the run is archived + scored at its
        // terminal event; the label doubles as the baseline workload key so
        // repeated invocations of the same query accumulate a baseline.
        let corpus_sink = self.corpus.as_ref().map(|c| {
            let meta = RunMeta::new(label, self.options.mode.label())
                .with_threads(self.options.threads)
                .with_seed(self.options.seed);
            Arc::new(CorpusSink::new(Arc::clone(c), meta))
        });

        let bus = if metrics_sink.is_none() && health_analyzer.is_none() && corpus_sink.is_none() {
            // Fast path: exactly the user's bus (or none — zero overhead).
            self.bus.clone()
        } else {
            let mut b = EventBus::builder();
            if let Some(user) = &self.bus {
                for sink in user.sinks() {
                    b = b.sink(Arc::clone(sink));
                }
            }
            if let Some(ms) = &metrics_sink {
                b = b.sink(Arc::clone(ms) as Arc<dyn TraceSink>);
            }
            if let Some(ha) = &health_analyzer {
                b = b.sink(Arc::clone(ha) as Arc<dyn TraceSink>);
            }
            if let Some(cs) = &corpus_sink {
                b = b.sink(Arc::clone(cs) as Arc<dyn TraceSink>);
            }
            Some(b.build())
        };
        // Health transitions and corpus regressions are published back onto
        // the query's own bus, so the stream that carried the symptoms also
        // carries the verdict.
        if let (Some(ha), Some(b)) = (&health_analyzer, &bus) {
            ha.attach_bus(b);
        }
        if let (Some(cs), Some(b)) = (&corpus_sink, &bus) {
            cs.attach_bus(b);
        }

        let compiled = compile_traced(&plan, &self.options, bus)?;
        let op_names = || -> Vec<String> {
            compiled
                .registry()
                .iter()
                .map(|(n, _)| n.to_string())
                .collect()
        };
        if let Some(ms) = &metrics_sink {
            ms.set_op_names(op_names());
        }
        if let Some(cs) = &corpus_sink {
            cs.set_op_names(op_names());
            // The corpus scores a run from its `ProgressSampled` events,
            // which the query emits only while publication is on.
            compiled.on_progress(|_| {});
        }
        let monitored = match &self.monitor {
            Some(server) => match adopt {
                // Service-managed entry: attach this attempt's execution
                // to the pre-registered id; its lifecycle stays with the
                // service's status observer.
                Some(id) => {
                    server
                        .directory()
                        .attach_execution(id, &compiled, health_analyzer.clone());
                    None
                }
                None => Some(server.directory().register(
                    label,
                    self.options.mode.label(),
                    &compiled,
                    health_analyzer.clone(),
                )),
            },
            None => None,
        };
        Ok(QueryHandle {
            plan,
            compiled,
            monitored,
            health: health_analyzer,
            corpus: corpus_sink,
        })
    }
}

/// How to drive a query to completion: progress observer, deadline,
/// external cancellation token and batch capacity in one options value.
///
/// Every field is optional; [`RunOptions::new`] (or `Default`) reproduces
/// plain [`QueryHandle::collect`]. Compose freely:
///
/// ```no_run
/// # use qprog::prelude::*;
/// # use std::time::Duration;
/// # let mut handle: QueryHandle = unimplemented!();
/// let rows = handle.run(
///     RunOptions::new()
///         .observer(|snap| eprintln!("{:.1}%", 100.0 * snap.fraction()))
///         .deadline(Duration::from_secs(30)),
/// )?;
/// # Ok::<(), qprog::types::QError>(())
/// ```
#[derive(Default)]
pub struct RunOptions {
    observer: Option<Subscriber>,
    deadline: Option<Duration>,
    cancel: Option<CancellationToken>,
    batch_rows: Option<usize>,
}

impl RunOptions {
    /// Plain collection: no observer, no deadline, no external token.
    pub fn new() -> Self {
        RunOptions::default()
    }

    /// Invoke `f` with each of the query's progress publications (see
    /// [`CompiledQuery::on_progress`]): in the executing thread, at
    /// operator batch boundaries, whenever `ΣK` has moved by 0.1% of the
    /// estimated total, and once at the terminal. A panicking observer
    /// ends the query with [`qprog_types::ExecError::OperatorPanic`].
    pub fn observer(mut self, f: impl FnMut(&ProgressSnapshot) + Send + 'static) -> Self {
        self.observer = Some(Box::new(f));
        self
    }

    /// Arm a wall-clock deadline measured from the start of the run; past
    /// it the query aborts with
    /// [`qprog_types::ExecError::DeadlineExceeded`].
    pub fn deadline(mut self, after: Duration) -> Self {
        self.deadline = Some(after);
        self
    }

    /// Link an external cancellation token: cancelling it aborts this
    /// query at its next checkpoint, exactly like
    /// [`QueryHandle::cancel`]. One token can be linked to several queries
    /// to cancel them as a group.
    pub fn cancel_token(mut self, token: CancellationToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Override the vectorized batch capacity for this run (clamped to
    /// ≥ 1). `1` is strict per-row equivalence mode, reproducing the
    /// serial engine's trace byte-for-byte; the default comes from the
    /// session's [`PhysicalOptions::batch_rows`] (env `QPROG_BATCH_ROWS`,
    /// normally 1024).
    pub fn batch_rows(mut self, n: usize) -> Self {
        self.batch_rows = Some(n.max(1));
        self
    }
}

impl std::fmt::Debug for RunOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunOptions")
            .field("observer", &self.observer.is_some())
            .field("deadline", &self.deadline)
            .field("cancel", &self.cancel.is_some())
            .field("batch_rows", &self.batch_rows)
            .finish()
    }
}

/// A compiled query ready to execute, with live progress observation.
///
/// When the session has a monitor attached, the handle also holds the
/// query's monitor registration: the query is listed at
/// `/progress/{query_id}` until the handle drops, and the handle reports
/// the query's outcome there when it ends.
pub struct QueryHandle {
    plan: LogicalPlan,
    compiled: CompiledQuery,
    monitored: Option<MonitoredQuery>,
    health: Option<Arc<HealthAnalyzer>>,
    corpus: Option<Arc<CorpusSink>>,
}

impl QueryHandle {
    /// EXPLAIN-style plan rendering with optimizer estimates.
    pub fn explain(&self) -> String {
        self.plan.display()
    }

    /// The logical plan.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// The monitor's id for this query (`/progress/{id}`), when the
    /// session has a monitor attached.
    pub fn query_id(&self) -> Option<u64> {
        self.monitored.as_ref().map(|m| m.id())
    }

    /// A cloneable, thread-safe progress tracker (gnm snapshots on demand).
    /// To follow a running query, subscribe to its publications with
    /// [`RunOptions::observer`] rather than poll this.
    pub fn tracker(&self) -> ProgressTracker {
        self.compiled.tracker()
    }

    /// Run to completion, collecting all rows.
    pub fn collect(&mut self) -> QResult<Vec<Row>> {
        let rows = self.compiled.collect();
        self.report_outcome();
        rows
    }

    /// Push the query's recorded outcome, once it has one, into the
    /// monitor entry this handle registered — the same transition the
    /// query service makes for its submissions, which sends the entry's
    /// one `terminal` frame.
    fn report_outcome(&self) {
        if let (Some(m), Some((rows, abort))) = (&self.monitored, self.compiled.outcome()) {
            m.set_state(ManagedState::Terminal {
                done: abort.is_none(),
                failure: abort.map(|kind| kind.to_string()),
                rows: Some(rows),
            });
        }
    }

    /// Run to completion under [`RunOptions`]: optional progress observer,
    /// wall-clock deadline, and external cancellation token, in any
    /// combination. `RunOptions::new()` is plain [`collect`](Self::collect).
    pub fn run(&mut self, options: RunOptions) -> QResult<Vec<Row>> {
        if let Some(n) = options.batch_rows {
            self.compiled.set_batch_rows(n);
        }
        if let Some(after) = options.deadline {
            self.set_deadline(after);
        }
        if let Some(token) = options.cancel {
            if let Some(governor) = self.compiled.governor() {
                governor.link_token(token);
            }
        }
        if let Some(f) = options.observer {
            self.compiled.on_progress(f);
        }
        self.collect()
    }

    /// Pull one output row (manual Volcano stepping).
    pub fn step(&mut self) -> QResult<Option<Row>> {
        let row = self.compiled.step();
        if !matches!(row, Ok(Some(_))) {
            self.report_outcome();
        }
        row
    }

    /// The query's cancellation token, shareable with other threads (e.g.
    /// a timeout supervisor): `token.cancel()` makes every in-flight and
    /// future `next()` return [`qprog_types::ExecError::Cancelled`] at the
    /// next per-tuple checkpoint.
    pub fn cancellation_token(&self) -> Option<CancellationToken> {
        self.compiled.cancellation_token()
    }

    /// Request cooperative cancellation. Execution observes the flag at
    /// the next governed checkpoint (every output/consumed tuple), so a
    /// running [`collect`](Self::collect) returns `Err(Cancelled)` well
    /// within the chaos suite's 100ms bound.
    pub fn cancel(&self) {
        self.compiled.cancel();
    }

    /// Arm a wall-clock deadline `after` from now; execution past it
    /// aborts with [`qprog_types::ExecError::DeadlineExceeded`].
    pub fn set_deadline(&self, after: Duration) {
        self.compiled.set_deadline(after);
    }

    /// The query's lifecycle state: the outcome the query recorded when it
    /// ended, with or without a monitor (a monitored query reports the same
    /// outcome at `/progress/{id}`).
    pub fn state(&self) -> QueryState {
        match self.compiled.outcome() {
            None => QueryState::Running,
            Some((_, None)) => QueryState::Done,
            Some((_, Some(kind))) => QueryState::Failed(kind),
        }
    }

    /// The query's current health verdict (stall / oscillation / ETA
    /// volatility detection), when the session has a monitor — and thus a
    /// [`HealthAnalyzer`] — attached.
    pub fn health(&self) -> Option<HealthState> {
        self.health.as_ref().map(|h| h.state())
    }

    /// The run's corpus archival result — index record plus any detected
    /// progress-quality regressions — once the query has reached a terminal
    /// event. `None` before completion or when the session has no corpus
    /// attached.
    pub fn archived_run(&self) -> Option<ArchivedRun> {
        self.corpus.as_ref().and_then(|c| c.archived_run())
    }

    /// The compiled query's per-operator metrics.
    pub fn registry(&self) -> &qprog_exec::metrics::MetricsRegistry {
        self.compiled.registry()
    }

    /// The compiled physical query (operator tree metadata, estimator
    /// labels, trace bus).
    pub fn compiled(&self) -> &CompiledQuery {
        &self.compiled
    }

    /// EXPLAIN ANALYZE: actual vs estimated cardinality per operator with
    /// q-errors, `getnext()` counts, estimator attribution, and — when
    /// `events` carries a captured trace — phase wall-times and refinement
    /// counts. Call after the query has run to completion.
    pub fn explain_analyze(&self, events: &[TraceEvent]) -> String {
        qprog_obs::explain_analyze(&self.compiled, events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_core::EstimationMode;
    use qprog_exec::trace::{AbortKind, TraceEventKind};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.register(qprog_datagen::customer_table("customer", 5000, 1.0, 100, 1))
            .unwrap();
        c.register(qprog_datagen::nation_table("nation", 100))
            .unwrap();
        c
    }

    /// An observer that logs every published fraction, and the log.
    fn fraction_log() -> (
        impl FnMut(&ProgressSnapshot) + Send + 'static,
        Arc<std::sync::Mutex<Vec<f64>>>,
    ) {
        let log = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        (
            move |snap: &ProgressSnapshot| sink.lock().unwrap().push(snap.fraction()),
            log,
        )
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn sql_roundtrip_with_progress() {
        let session = Session::new(catalog());
        let mut h = session
            .query(
                "SELECT count(*) FROM customer \
                 JOIN nation ON customer.nationkey = nation.nationkey",
            )
            .unwrap();
        assert!(h.explain().contains("Join[Hash"));
        assert_eq!(h.state(), QueryState::Running);
        let (observer, fractions) = fraction_log();
        let rows = h.run(RunOptions::new().observer(observer)).unwrap();
        assert_eq!(h.state(), QueryState::Done, "no monitor needed");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get(0).unwrap().as_i64().unwrap(), 5000);
        let fractions = fractions.lock().unwrap();
        assert_eq!(*fractions.last().unwrap(), 1.0);
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
    }

    #[test]
    fn modes_are_selectable() {
        for mode in EstimationMode::ALL {
            let session = Session::new(catalog()).with_options(PhysicalOptions::with_mode(mode));
            let mut h = session.query("SELECT * FROM customer").unwrap();
            assert_eq!(h.collect().unwrap().len(), 5000);
        }
    }

    #[test]
    fn traced_session_produces_explain_analyze() {
        let ring = Arc::new(qprog_obs::RingSink::with_capacity(4096));
        let validator = Arc::new(qprog_obs::ValidatorSink::new());
        let bus = EventBus::builder()
            .sink(Arc::clone(&ring) as _)
            .sink(Arc::clone(&validator) as _)
            .build();
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().with_trace(bus))
            .build()
            .unwrap();
        let mut h = session
            .query(
                "SELECT * FROM customer \
                 JOIN nation ON customer.nationkey = nation.nationkey",
            )
            .unwrap();
        let rows = h.collect().unwrap();
        assert_eq!(rows.len(), 5000);
        let events = ring.drain();
        assert!(!events.is_empty());
        assert!(validator.is_clean(), "{:?}", validator.violations());
        let report = h.explain_analyze(&events);
        assert!(report.contains("-> hash_join"), "{report}");
        assert!(report.contains("actual: 5000 rows"), "{report}");
        assert!(report.contains("phases: build"), "{report}");
    }

    #[test]
    fn untraced_session_has_no_bus() {
        let session = Session::new(catalog());
        assert!(session.trace_bus().is_none());
        assert!(session.metrics().is_none());
        assert!(session.monitor().is_none());
        let h = session.query("SELECT * FROM nation").unwrap();
        assert!(h.compiled().bus().is_none());
        assert!(h.query_id().is_none());
    }

    #[test]
    fn cancelled_query_returns_typed_error_quickly() {
        let session = Session::new(catalog());
        let mut h = session
            .query(
                "SELECT * FROM customer \
                 JOIN nation ON customer.nationkey = nation.nationkey",
            )
            .unwrap();
        h.cancel();
        let start = std::time::Instant::now();
        let err = h.collect().unwrap_err();
        assert!(start.elapsed() < Duration::from_millis(100));
        assert!(err.is_cancelled(), "{err}");
        assert_eq!(h.state(), QueryState::Failed(AbortKind::Cancelled));
    }

    #[test]
    fn deadline_zero_aborts_with_typed_error() {
        let session = Session::new(catalog());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let err = h
            .run(RunOptions::new().deadline(Duration::ZERO))
            .unwrap_err();
        assert_eq!(
            err.lifecycle().map(qprog_types::ExecError::kind),
            Some("deadline"),
            "{err}"
        );
    }

    #[test]
    fn monitored_failed_query_shows_terminal_state() {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let id = h.query_id().unwrap();
        h.cancel();
        assert!(h.collect().is_err());
        assert!(matches!(h.state(), QueryState::Failed(_)));
        let detail = http_get(server.addr(), &format!("/progress/{id}"));
        assert!(detail.contains("\"state\":\"failed\""), "{detail}");
        assert!(detail.contains("\"failure\":\"cancelled\""), "{detail}");
        server.shutdown();
    }

    #[test]
    fn monitored_queries_send_one_terminal_frame_however_they_end() {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let firehose = server.hub().subscribe(None, 1 << 12);
        let sql = "SELECT * FROM customer JOIN nation ON customer.nationkey = nation.nationkey";
        let finished = {
            let mut h = session.query(sql).unwrap();
            h.collect().unwrap();
            h.query_id().unwrap()
        };
        let aborted = {
            let mut h = session.query(sql).unwrap();
            h.cancel();
            assert!(h.collect().is_err());
            h.query_id().unwrap()
        };
        let never_ran = session.query(sql).unwrap().query_id().unwrap();
        server.shutdown();
        let mut terminals: Vec<String> = Vec::new();
        while let qprog_monitor::StreamNext::Frame(f) = firehose.next(Duration::ZERO) {
            if f.contains("event: terminal\n") {
                terminals.push(f.to_string());
            }
        }
        for (id, expect) in [
            (finished, "\"state\":\"done\""),
            (aborted, "\"failure\":\"cancelled\""),
            (never_ran, "\"state\":\"running\""),
        ] {
            let mine: Vec<&String> = terminals
                .iter()
                .filter(|f| f.contains(&format!("data: {{\"id\":{id},")))
                .collect();
            assert_eq!(mine.len(), 1, "query {id}: {terminals:?}");
            assert!(mine[0].contains(expect), "{}", mine[0]);
        }
    }

    #[test]
    fn aborted_monitored_query_shows_its_last_publication() {
        let ring = Arc::new(qprog_obs::RingSink::with_capacity(1 << 14));
        let session = SessionBuilder::new(catalog())
            .observability(
                Observability::new()
                    .with_trace(EventBus::with_sink(Arc::clone(&ring) as _))
                    .serve_on("127.0.0.1:0"),
            )
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session
            .query("SELECT * FROM customer JOIN nation ON customer.nationkey = nation.nationkey")
            .unwrap();
        let id = h.query_id().unwrap();
        let token = h.cancellation_token().unwrap();
        let err = h
            .run(RunOptions::new().observer(move |snap| {
                if snap.fraction() > 0.3 {
                    token.cancel();
                }
            }))
            .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        let last = ring
            .drain()
            .into_iter()
            .rev()
            .find_map(|e| match e.kind {
                TraceEventKind::ProgressSampled {
                    fraction, lo, hi, ..
                } => Some((fraction, lo, hi)),
                _ => None,
            })
            .expect("a traced monitored query publishes");
        assert!(last.0 > 0.3 && last.0 < 1.0, "aborted mid-flight: {last:?}");
        let detail = server.directory().render_query(id).unwrap();
        let field = |k| qprog_types::json::f64(&detail, k).unwrap();
        assert_eq!(
            (field("fraction"), field("lo"), field("hi")),
            last,
            "{detail}"
        );
        assert!(detail.contains("\"failure\":\"cancelled\""), "{detail}");
        server.shutdown();
    }

    #[test]
    fn metrics_session_aggregates_across_queries() {
        let registry = Arc::new(Registry::new());
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().with_metrics(Arc::clone(&registry)))
            .build()
            .unwrap();
        for _ in 0..2 {
            let mut h = session
                .query(
                    "SELECT * FROM customer \
                     JOIN nation ON customer.nationkey = nation.nationkey",
                )
                .unwrap();
            assert_eq!(h.collect().unwrap().len(), 5000);
        }
        let text = registry.render();
        assert!(
            text.contains("qprog_queries_finished_total{estimator=\"once\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("qprog_query_rows_total{estimator=\"once\"} 10000"),
            "{text}"
        );
        assert!(
            text.contains("qprog_estimate_q_error_count{estimator=\"once\"}"),
            "{text}"
        );
        assert!(
            text.contains("qprog_operator_emitted_total{op=\"hash_join\"} 10000"),
            "{text}"
        );
    }

    #[test]
    fn metrics_compose_with_a_user_trace_bus() {
        let ring = Arc::new(qprog_obs::RingSink::with_capacity(4096));
        let registry = Arc::new(Registry::new());
        let session = SessionBuilder::new(catalog())
            .observability(
                Observability::new()
                    .with_trace(EventBus::with_sink(Arc::clone(&ring) as _))
                    .with_metrics(Arc::clone(&registry)),
            )
            .build()
            .unwrap();
        let mut h = session.query("SELECT * FROM nation").unwrap();
        h.collect().unwrap();
        // Both consumers saw the same (once-stamped) event stream.
        let events = ring.drain();
        assert!(!events.is_empty());
        assert!(registry
            .render()
            .contains("qprog_queries_finished_total{estimator=\"once\"} 1"));
    }

    #[test]
    fn monitored_queries_register_and_unregister() {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let addr = server.addr();

        let mut h = session.query("SELECT * FROM nation").unwrap();
        let id = h.query_id().expect("monitored query has an id");
        let listed = http_get(addr, "/progress");
        assert!(listed.contains(&format!("\"id\":{id}")), "{listed}");
        assert!(listed.contains("SELECT * FROM nation"), "{listed}");

        h.collect().unwrap();
        let detail = http_get(addr, &format!("/progress/{id}"));
        assert!(detail.contains("\"done\":true"), "{detail}");
        assert!(detail.contains("\"fraction\":1"), "{detail}");
        assert!(detail.contains("\"ops\":["), "{detail}");

        // /metrics works out of the box (registry auto-created).
        let metrics = http_get(addr, "/metrics");
        assert!(metrics.contains("qprog_queries_live 1"), "{metrics}");

        drop(h);
        let after = http_get(addr, &format!("/progress/{id}"));
        assert!(after.starts_with("HTTP/1.1 404"), "{after}");
        server.shutdown();
    }

    #[test]
    fn run_options_compose_observer_and_deadline() {
        let session = Session::new(catalog());
        let mut h = session
            .query(
                "SELECT count(*) FROM customer \
                 JOIN nation ON customer.nationkey = nation.nationkey",
            )
            .unwrap();
        let (observer, fractions) = fraction_log();
        let rows = h
            .run(
                RunOptions::new()
                    .observer(observer)
                    .deadline(Duration::from_secs(60)),
            )
            .unwrap();
        assert_eq!(rows.len(), 1);
        let fractions = fractions.lock().unwrap();
        assert!(fractions.iter().all(|f| (0.0..=1.0).contains(f)));
        // A blocking root emits nothing until its work is done: only
        // publication at operator batch boundaries sees the run in flight.
        let inside = fractions.iter().filter(|&&f| f > 0.0 && f < 1.0).count();
        assert!(inside >= 5, "{fractions:?}");
        assert_eq!(fractions.last(), Some(&1.0));
    }

    #[test]
    fn batch_rows_override_preserves_results() {
        // Session-level and run-level batch capacities agree with strict
        // per-row mode on the result multiset.
        let strict = {
            let session = Session::new(catalog()).with_options(PhysicalOptions {
                batch_rows: 1,
                ..PhysicalOptions::default()
            });
            let mut h = session
                .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
                .unwrap();
            h.collect().unwrap()
        };
        let session_wide = {
            let session = SessionBuilder::new(catalog())
                .batch_rows(512)
                .build()
                .unwrap();
            let mut h = session
                .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
                .unwrap();
            assert_eq!(h.compiled().batch_rows(), 512);
            h.collect().unwrap()
        };
        let per_run = {
            let session = Session::new(catalog());
            let mut h = session
                .query("SELECT nationkey, count(*) FROM customer GROUP BY nationkey")
                .unwrap();
            h.run(RunOptions::new().batch_rows(7)).unwrap()
        };
        assert_eq!(strict, session_wide);
        assert_eq!(strict, per_run);
    }

    #[test]
    fn run_options_link_an_external_cancel_token() {
        let session = Session::new(catalog());
        let mut h = session.query("SELECT * FROM customer").unwrap();
        let group = CancellationToken::new();
        group.cancel();
        let err = h
            .run(RunOptions::new().cancel_token(group.clone()))
            .unwrap_err();
        assert!(err.is_cancelled(), "{err}");
        // The query's own token is untouched; only the linked one fired.
        assert!(!h.cancellation_token().unwrap().is_cancelled());
    }

    #[test]
    fn monitored_queries_report_health() {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let server = Arc::clone(session.monitor().unwrap());
        let mut h = session.query("SELECT * FROM nation").unwrap();
        let id = h.query_id().unwrap();
        assert_eq!(h.health(), Some(HealthState::Healthy));
        h.collect().unwrap();
        let detail = http_get(server.addr(), &format!("/progress/{id}"));
        assert!(detail.contains("\"health\":\"healthy\""), "{detail}");
        server.shutdown();
    }

    #[test]
    fn unmonitored_queries_have_no_health_analyzer() {
        let session = Session::new(catalog());
        let h = session.query("SELECT * FROM nation").unwrap();
        assert_eq!(h.health(), None);
    }

    #[test]
    fn concurrent_queries_on_one_session_are_all_listed() {
        let session = SessionBuilder::new(catalog())
            .observability(Observability::new().serve_on("127.0.0.1:0"))
            .build()
            .unwrap();
        let addr = session.monitor().unwrap().addr();
        let session = Arc::new(session);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let session = Arc::clone(&session);
                std::thread::spawn(move || {
                    let mut h = session
                        .query(
                            "SELECT * FROM customer \
                             JOIN nation ON customer.nationkey = nation.nationkey",
                        )
                        .unwrap();
                    let id = h.query_id().unwrap();
                    let rows = h.collect().unwrap().len();
                    (id, rows, h)
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|t| t.join().unwrap()).collect();
        let listed = http_get(addr, "/progress");
        for (id, rows, _) in &results {
            assert_eq!(*rows, 5000);
            assert!(listed.contains(&format!("\"id\":{id}")), "{listed}");
        }
        let ids: std::collections::HashSet<u64> = results.iter().map(|r| r.0).collect();
        assert_eq!(ids.len(), 3, "distinct ids per concurrent query");
    }
}
