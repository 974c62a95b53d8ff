//! The query service: admission → journal → queue → dispatch → retry →
//! terminal, with graceful drain.
//!
//! # Lifecycle
//!
//! ```text
//! submit ──► admission (depth / tenant caps) ──► journal append (WAL)
//!        ──► observer.on_queued ──► ready queue (DRR) ──► worker pops
//!        ──► deadline re-check ──► executor.execute(cancel, remaining)
//!        ──► Ok → terminal finished
//!            Err retryable (injected / panic) → backoff → queue (delayed)
//!            Err other (cancelled / deadline / budget / error) → terminal failed
//! ```
//!
//! Every terminal is journaled, reported to the [`StatusObserver`] (which
//! the monitor bridges onto the progress directory and SSE hub), and
//! counted; the journal guarantees that anything accepted but not terminal
//! at crash time is re-dispatched exactly once on reopen.

use std::collections::VecDeque;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use qprog_exec::governor::CancellationToken;
use qprog_exec::span::SpanKind;
use qprog_exec::sync::Mutex;
use qprog_exec::trace::TraceEvent;
use qprog_metrics::{Counter, Gauge, Histogram, Registry};
use qprog_types::json::escape;
use qprog_types::{ExecError, QError};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::journal::{Journal, PendingEntry};
use crate::queue::{AdmissionConfig, JobSpec, Pop, ReadyQueue, RejectReason};
use crate::spans::{SpanLog, SpanTotals};

/// `GET /service`'s per-tenant members after `inflight`, each with the
/// series it reads: (member, sample name, `where` label or "").
const TENANT_SERIES: [(&str, &str, &str); 6] = [
    ("completed", "qprog_exec_us_count", ""),
    ("queue_wait_us", "qprog_queue_wait_us_sum", ""),
    ("exec_us", "qprog_exec_us_sum", ""),
    ("attempts", "qprog_dispatch_attempts_total", ""),
    ("deadline_miss_queue", "qprog_deadline_miss_total", "queue"),
    ("deadline_miss_exec", "qprog_deadline_miss_total", "exec"),
];

/// Recent dispatch timestamps retained for the shed-time estimate.
const DRAIN_RATE_WINDOW: usize = 64;

/// Largest workload text accepted at submit time.
pub const MAX_SQL_BYTES: usize = 64 * 1024;

/// Retry behaviour for transiently-failed runs.
///
/// Only faults the engine classifies as transient are retried: injected
/// faults and operator panics. Cancellation, deadline expiry, and budget
/// breaches are deliberate terminations and never retry.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total execution attempts per submission (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per subsequent retry.
    pub base: Duration,
    /// Upper bound on the un-jittered backoff.
    pub cap: Duration,
    /// Seed for deterministic jitter (`crates/prng`): the same (seed, id,
    /// attempt) triple always yields the same delay, so chaos runs replay.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5E_ED_0F_90_47,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based) of job `id`:
    /// `min(base · 2^(attempt−1), cap)` scaled by a deterministic jitter
    /// factor in `[0.5, 1.0]`.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let doublings = attempt.saturating_sub(1).min(16);
        let exp = self
            .base
            .saturating_mul(1u32 << doublings)
            .min(self.cap)
            .max(Duration::from_millis(1));
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ u64::from(attempt),
        );
        exp.mul_f64(0.5 + 0.5 * rng.random_f64())
    }
}

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Admission-control bounds.
    pub admission: AdmissionConfig,
    /// Retry behaviour.
    pub retry: RetryPolicy,
    /// Dispatcher worker threads (0 = accept + journal only; tests use
    /// this to stage pending work for crash-recovery runs).
    pub workers: usize,
    /// Deadline applied to submissions that do not carry their own.
    pub default_deadline: Option<Duration>,
    /// Terminal job records kept for status queries before eviction.
    pub retain_terminals: usize,
    /// How long [`QueryService::drain`] waits for in-flight and queued
    /// work before checkpoint-aborting it.
    pub drain_timeout: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            admission: AdmissionConfig::default(),
            retry: RetryPolicy::default(),
            workers: 2,
            default_deadline: None,
            retain_terminals: 256,
            drain_timeout: Duration::from_secs(5),
        }
    }
}

/// A submission as received from a client.
#[derive(Debug, Clone)]
pub struct SubmitRequest {
    /// Workload text (SQL).
    pub sql: String,
    /// Tenant identity (quota + fairness key). Must be non-empty.
    pub tenant: String,
    /// Optional display label; derived from the SQL when absent.
    pub label: Option<String>,
    /// Optional deadline budget measured from acceptance.
    pub deadline: Option<Duration>,
}

/// Why a submission was not accepted.
#[derive(Debug)]
pub enum SubmitError {
    /// Malformed request (empty/oversized SQL, empty tenant, or the
    /// executor rejected the workload). Maps to HTTP 400.
    Invalid(String),
    /// Shed by admission control. Maps to HTTP 429 + `Retry-After`.
    Rejected {
        /// Which bound was hit.
        reason: RejectReason,
        /// Human-readable explanation.
        detail: String,
        /// Suggested client back-off.
        retry_after: Duration,
    },
    /// The service is draining or stopped. Maps to HTTP 503.
    ShuttingDown,
    /// The journal append failed — the submission was *not* accepted.
    /// Maps to HTTP 500.
    Internal(String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Invalid(d) => write!(f, "invalid submission: {d}"),
            SubmitError::Rejected { reason, detail, .. } => {
                write!(f, "rejected ({}): {detail}", reason.label())
            }
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
            SubmitError::Internal(d) => write!(f, "submission failed: {d}"),
        }
    }
}

/// Acknowledgement for an accepted submission.
#[derive(Debug, Clone, Copy)]
pub struct Ticket {
    /// Process-unique query id; poll `/progress/{id}` or stream
    /// `/progress/{id}/stream` with it.
    pub id: u64,
    /// Queue depth right after this submission was enqueued.
    pub queue_depth: usize,
}

/// Lifecycle state of a tracked submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting for a worker.
    Queued,
    /// Executing.
    Running,
    /// Failed transiently; parked for backoff.
    Retrying,
    /// Completed successfully.
    Finished,
    /// Reached a failure terminal.
    Failed,
}

impl JobState {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Retrying => "retrying",
            JobState::Finished => "finished",
            JobState::Failed => "failed",
        }
    }

    fn is_terminal(self) -> bool {
        matches!(self, JobState::Finished | JobState::Failed)
    }
}

/// Terminal outcome of a submission.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The query ran to completion.
    Finished {
        /// Rows produced.
        rows: u64,
    },
    /// The query terminated without completing.
    Failed {
        /// Typed failure kind: `cancelled`, `deadline`, `budget`, `panic`,
        /// `injected`, or `error`.
        kind: &'static str,
        /// Human-readable detail.
        detail: String,
    },
}

impl JobOutcome {
    /// The journal/state label for this outcome.
    pub fn label(&self) -> &'static str {
        match self {
            JobOutcome::Finished { .. } => "finished",
            JobOutcome::Failed { kind, .. } => kind,
        }
    }
}

/// Point-in-time status of one submission.
#[derive(Debug, Clone)]
pub struct JobStatus {
    /// Query id.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Display label.
    pub label: String,
    /// Lifecycle state.
    pub state: JobState,
    /// Execution attempts started so far.
    pub attempts: u32,
    /// Rows produced (terminal successes only).
    pub rows: Option<u64>,
    /// Failure kind, when `state == Failed`.
    pub failure: Option<&'static str>,
    /// Failure detail, when `state == Failed`.
    pub detail: Option<String>,
}

/// Result of a cancellation request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The job was still queued/delayed; it is now terminal `cancelled`.
    CancelledQueued,
    /// The job was running; its cancellation token fired and the run will
    /// reach a `cancelled` terminal shortly.
    SignalledRunning,
    /// The job already reached a terminal state.
    AlreadyTerminal,
    /// No such job.
    Unknown,
}

/// Runs accepted jobs. The monitor-facing glue implements this on top of
/// `SessionBuilder`/`RunOptions`; unit tests use mocks.
pub trait JobExecutor: Send + Sync {
    /// Cheap well-formedness check at submit time (e.g. plan the SQL).
    fn validate(&self, sql: &str) -> Result<(), String> {
        let _ = sql;
        Ok(())
    }

    /// Execute the job to completion, honouring `cancel` and `deadline`
    /// (the remaining budget after queue wait). Returns rows produced.
    fn execute(
        &self,
        job: &JobSpec,
        cancel: CancellationToken,
        deadline: Option<Duration>,
    ) -> Result<u64, QError>;
}

/// Receives lifecycle callbacks; the monitor's bridge turns these into
/// directory entries and SSE frames.
///
/// Observers may be called with the service's internal lock held
/// (`on_terminal` always is, so a client that saw the terminal reads the
/// final record) and must not call back into the service.
pub trait StatusObserver: Send + Sync {
    /// Reserve a fresh id `≥ floor`, unique among all ids the observer has
    /// seen (including replayed ones).
    fn allocate_id(&self, floor: u64) -> u64;

    /// A submission was accepted (or recovered from the journal).
    fn on_queued(&self, job: &JobSpec) {
        let _ = job;
    }

    /// A worker picked the job up; `job.attempt` prior attempts completed.
    fn on_dispatched(&self, job: &JobSpec) {
        let _ = job;
    }

    /// The job failed transiently and was parked for `backoff`.
    fn on_retrying(&self, job: &JobSpec, kind: &'static str, backoff: Duration) {
        let _ = (job, kind, backoff);
    }

    /// The job reached a terminal state.
    fn on_terminal(&self, job: &JobSpec, outcome: &JobOutcome) {
        let _ = (job, outcome);
    }

    /// A terminal job record aged out of the status table.
    fn on_evicted(&self, id: u64) {
        let _ = id;
    }
}

/// Minimal [`StatusObserver`]: allocates ids, ignores events. Used when no
/// monitor is attached and by unit tests.
#[derive(Debug, Default)]
pub struct LocalIds(AtomicU64);

impl StatusObserver for LocalIds {
    fn allocate_id(&self, floor: u64) -> u64 {
        self.0.fetch_max(floor, Ordering::Relaxed);
        self.0.fetch_add(1, Ordering::Relaxed).max(floor)
    }
}

/// Counters snapshot for `/service` and assertions, read back from the
/// service's registry instruments (the same series `/metrics` exposes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions received (any outcome).
    pub submitted: u64,
    /// Submissions accepted into the queue.
    pub admitted: u64,
    /// Submissions shed by admission control.
    pub rejected: u64,
    /// Submissions refused as malformed (HTTP 400).
    pub invalid: u64,
    /// Jobs handed to the executor (includes retry attempts).
    pub dispatched: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Jobs that reached the `finished` terminal.
    pub finished: u64,
    /// Jobs that reached a failure terminal.
    pub failed: u64,
    /// Journal append and compaction failures (a job whose terminal
    /// append failed may be re-dispatched after a crash).
    pub journal_errors: u64,
    /// Jobs currently queued or in backoff.
    pub queue_depth: usize,
    /// Jobs currently executing.
    pub running: usize,
}

/// Every count the service keeps, each kept once, in a registry
/// instrument. The fixed-label series are resolved at open; the per-tenant
/// ones at a tenant's first use, so a read registers nothing.
struct SvcMetrics {
    registry: Arc<Registry>,
    /// `qprog_submissions_total{outcome}`: every submission counts exactly
    /// one outcome.
    admitted: Arc<Counter>,
    invalid: Arc<Counter>,
    queue_full: Arc<Counter>,
    tenant_cap: Arc<Counter>,
    shutdown: Arc<Counter>,
    error: Arc<Counter>,
    dispatches: Arc<Counter>,
    retries: Arc<Counter>,
    /// `qprog_terminals_total{outcome}`.
    finished: Arc<Counter>,
    failed: Arc<Counter>,
    journal_errors: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    /// Shared bucket bounds for the per-tenant SLO histograms: 100µs to
    /// ~26s in ×4 steps, fixed so every tenant series is comparable.
    slo_buckets: Vec<f64>,
}

impl SvcMetrics {
    fn new(registry: Arc<Registry>) -> Self {
        let submissions = |outcome| {
            registry.counter(
                "qprog_submissions_total",
                "Submissions received, by outcome",
                &[("outcome", outcome)],
            )
        };
        let terminals = |outcome| {
            registry.counter(
                "qprog_terminals_total",
                "Submissions that reached a terminal, by outcome",
                &[("outcome", outcome)],
            )
        };
        let counter = |name, help| registry.counter(name, help, &[]);
        SvcMetrics {
            admitted: submissions("admitted"),
            invalid: submissions("invalid"),
            queue_full: submissions(RejectReason::QueueFull.label()),
            tenant_cap: submissions(RejectReason::TenantCap.label()),
            shutdown: submissions("shutdown"),
            error: submissions("error"),
            dispatches: counter("qprog_dispatches_total", "Jobs handed to the executor"),
            retries: counter("qprog_retries_total", "Retry attempts scheduled"),
            finished: terminals("finished"),
            failed: terminals("failed"),
            journal_errors: counter("qprog_journal_errors_total", "Journal append failures"),
            queue_depth: registry.gauge(
                "qprog_queue_depth",
                "Submissions queued or in retry backoff",
                &[],
            ),
            slo_buckets: Histogram::exponential_buckets(100.0, 4.0, 10),
            registry,
        }
    }

    fn tenant_inflight(&self, tenant: &str, value: f64) {
        self.registry
            .gauge(
                "qprog_tenant_inflight",
                "In-system (queued + running) submissions per tenant",
                &[("tenant", tenant)],
            )
            .set(value);
    }

    /// Record one completed submission's lifecycle attribution.
    fn slo(&self, tenant: &str, t: &SpanTotals) {
        self.registry
            .histogram(
                "qprog_queue_wait_us",
                "Queued + retry-parked time per completed submission (µs)",
                &[("tenant", tenant)],
                &self.slo_buckets,
            )
            .observe((t.queue_wait_us + t.backoff_us) as f64);
        self.registry
            .histogram(
                "qprog_exec_us",
                "Execution time across all dispatch attempts per completed submission (µs)",
                &[("tenant", tenant)],
                &self.slo_buckets,
            )
            .observe(t.exec_us as f64);
        self.registry
            .counter(
                "qprog_dispatch_attempts_total",
                "Dispatch attempts across completed submissions",
                &[("tenant", tenant)],
            )
            .add(u64::from(t.attempts));
    }

    fn deadline_miss(&self, tenant: &str, location: &str) {
        self.registry
            .counter(
                "qprog_deadline_miss_total",
                "Deadline misses, by where the budget ran out",
                &[("tenant", tenant), ("where", location)],
            )
            .inc();
    }
}

struct JobRecord {
    spec: JobSpec,
    state: JobState,
    attempts: u32,
    rows: Option<u64>,
    failure: Option<&'static str>,
    detail: Option<String>,
    /// Lifecycle span log; appended only under the state lock.
    spans: SpanLog,
    /// Scheduled end of the current backoff park, on the span log's
    /// clock. Present exactly while the job's open span is a
    /// `backoff_park`, so the re-dispatch pop can split park from
    /// queue-wait at the scheduled ready time.
    backoff_ready_us: Option<u64>,
}

#[derive(Default)]
struct SvcState {
    jobs: std::collections::BTreeMap<u64, JobRecord>,
    tenant_inflight: std::collections::BTreeMap<String, usize>,
    cancels: std::collections::BTreeMap<u64, CancellationToken>,
    terminal_order: std::collections::VecDeque<u64>,
}

/// The resilient submit/queue/dispatch service. See the module docs for
/// the lifecycle; construct with [`QueryService::open`].
pub struct QueryService {
    cfg: ServiceConfig,
    journal: Journal,
    queue: ReadyQueue,
    executor: Arc<dyn JobExecutor>,
    observer: Arc<dyn StatusObserver>,
    state: Mutex<SvcState>,
    admitting: AtomicBool,
    stop: AtomicBool,
    running: AtomicUsize,
    id_floor: u64,
    metrics: SvcMetrics,
    diagnostics: Vec<String>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Recent worker-pop timestamps (bounded to [`DRAIN_RATE_WINDOW`]);
    /// the shed path derives `Retry-After` from the observed drain rate.
    dispatch_times: Mutex<VecDeque<Instant>>,
}

impl QueryService {
    /// Open the service over journal directory `dir`: replay pending
    /// submissions from the previous incarnation (re-queued exactly once,
    /// in original order), then start `cfg.workers` dispatcher threads.
    /// The service counts into `metrics`, or into a private registry when
    /// it is `None`.
    pub fn open(
        dir: &Path,
        cfg: ServiceConfig,
        executor: Arc<dyn JobExecutor>,
        observer: Arc<dyn StatusObserver>,
        metrics: Option<Arc<Registry>>,
    ) -> io::Result<Arc<QueryService>> {
        let (journal, replay) = Journal::open(dir)?;
        let svc = Arc::new(QueryService {
            cfg,
            journal,
            queue: ReadyQueue::new(),
            executor,
            observer,
            state: Mutex::new(SvcState::default()),
            admitting: AtomicBool::new(true),
            stop: AtomicBool::new(false),
            running: AtomicUsize::new(0),
            id_floor: replay.next_id,
            metrics: SvcMetrics::new(metrics.unwrap_or_default()),
            diagnostics: replay.diagnostics,
            workers: Mutex::new(Vec::new()),
            dispatch_times: Mutex::new(VecDeque::with_capacity(DRAIN_RATE_WINDOW)),
        });
        for e in replay.pending {
            let spec = JobSpec {
                id: e.id,
                tenant: e.tenant,
                label: e.label,
                sql: e.sql,
                // The wait already spent before the crash is unknowable;
                // the deadline budget restarts at recovery.
                deadline: e.deadline,
                submitted: Instant::now(),
                attempt: 0,
            };
            svc.enqueue(spec);
        }
        let mut workers = svc.workers.lock();
        for i in 0..svc.cfg.workers {
            let me = Arc::clone(&svc);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("qprog-svc-worker-{i}"))
                    .spawn(move || me.worker_loop())
                    .expect("spawn service worker"),
            );
        }
        drop(workers);
        Ok(svc)
    }

    /// Recovery notes from the journal replay (torn lines, etc). Empty on
    /// a clean open.
    pub fn recovery_diagnostics(&self) -> &[String] {
        &self.diagnostics
    }

    /// Accept a submission: validate, admit, journal, queue. Returns the
    /// query id immediately — progress is observed via the monitor.
    pub fn submit(&self, req: SubmitRequest) -> Result<Ticket, SubmitError> {
        // Lifecycle span epoch: every later span (and the journal's wall
        // time) is measured from this instant.
        let accepted_at = Instant::now();
        if let Err(e) = qprog_fault::eval("service/submit") {
            self.metrics.error.inc();
            return Err(SubmitError::Internal(e.to_string()));
        }
        if !self.admitting.load(Ordering::Acquire) {
            self.metrics.shutdown.inc();
            return Err(SubmitError::ShuttingDown);
        }
        if let Err(detail) = self.validate(&req) {
            self.metrics.invalid.inc();
            return Err(SubmitError::Invalid(detail));
        }
        let mut state = self.state.lock();
        let depth = self.queue.depth();
        if depth >= self.cfg.admission.max_queue_depth {
            drop(state);
            return Err(self.reject(
                RejectReason::QueueFull,
                format!("queue depth {depth} at limit"),
            ));
        }
        let inflight = state.tenant_inflight.get(&req.tenant).copied().unwrap_or(0);
        if inflight >= self.cfg.admission.max_tenant_inflight {
            drop(state);
            return Err(self.reject(
                RejectReason::TenantCap,
                format!(
                    "tenant {:?} has {inflight} submissions in flight",
                    req.tenant
                ),
            ));
        }
        let id = self.observer.allocate_id(self.id_floor);
        let label = req
            .label
            .filter(|l| !l.trim().is_empty())
            .unwrap_or_else(|| {
                let mut l: String = req.sql.chars().take(48).collect();
                if l.len() < req.sql.len() {
                    l.push('…');
                }
                l
            });
        let deadline = req.deadline.or(self.cfg.default_deadline);
        let entry = PendingEntry {
            id,
            tenant: req.tenant.clone(),
            label: label.clone(),
            sql: req.sql.clone(),
            deadline,
        };
        let mut spans = SpanLog::new(accepted_at);
        spans.push_at(0, SpanKind::Query, 0);
        spans.push_at(0, SpanKind::Submit, 0);
        spans.push(SpanKind::JournalAppend, 0);
        if let Err(e) = self.journal.append_submit(&entry) {
            drop(state);
            self.metrics.error.inc();
            self.metrics.journal_errors.inc();
            return Err(SubmitError::Internal(format!("journal append failed: {e}")));
        }
        spans.pop();
        let spec = JobSpec {
            id,
            tenant: req.tenant,
            label,
            sql: req.sql,
            deadline,
            submitted: accepted_at,
            attempt: 0,
        };
        Self::enqueue_locked(self, &mut state, spec, spans);
        drop(state);
        self.metrics.admitted.inc();
        Ok(Ticket {
            id,
            queue_depth: self.refresh_depth(),
        })
    }

    fn validate(&self, req: &SubmitRequest) -> Result<(), String> {
        if req.tenant.trim().is_empty() {
            return Err("tenant must be non-empty".to_string());
        }
        if req.sql.trim().is_empty() {
            return Err("sql must be non-empty".to_string());
        }
        if req.sql.len() > MAX_SQL_BYTES {
            return Err(format!(
                "sql is {} bytes; limit is {MAX_SQL_BYTES}",
                req.sql.len()
            ));
        }
        self.executor.validate(&req.sql)
    }

    fn reject(&self, reason: RejectReason, detail: String) -> SubmitError {
        match reason {
            RejectReason::QueueFull => self.metrics.queue_full.inc(),
            RejectReason::TenantCap => self.metrics.tenant_cap.inc(),
        }
        SubmitError::Rejected {
            reason,
            detail,
            retry_after: self.suggested_retry_after(),
        }
    }

    /// Client back-off suggested on shed: the predicted time for the
    /// current backlog to drain at the observed dispatch rate, clamped to
    /// [1, 60] seconds. Falls back to the configured constant until enough
    /// dispatches have been observed to measure a rate.
    fn suggested_retry_after(&self) -> Duration {
        let depth = self.queue.depth().max(1);
        let times = self.dispatch_times.lock();
        if times.len() >= 2 {
            let window = times
                .back()
                .expect("len checked")
                .duration_since(*times.front().expect("len checked"))
                .as_secs_f64();
            if window > 1e-6 {
                let rate = (times.len() - 1) as f64 / window;
                let secs = (depth as f64 / rate).ceil() as u64;
                return Duration::from_secs(secs.clamp(1, 60));
            }
            // All observed dispatches landed within a microsecond: the
            // queue drains effectively instantly.
            return Duration::from_secs(1);
        }
        self.cfg.admission.retry_after
    }

    /// Enqueue a replayed spec (record + observer + queue). The submit
    /// side happened in a previous incarnation, so its span is zero-width:
    /// the recovered lifecycle re-enters at the queue.
    fn enqueue(&self, spec: JobSpec) {
        let mut spans = SpanLog::new(spec.submitted);
        spans.push_at(0, SpanKind::Query, 0);
        spans.push_at(0, SpanKind::Submit, 0);
        let mut state = self.state.lock();
        Self::enqueue_locked(self, &mut state, spec, spans);
        drop(state);
        self.refresh_depth();
    }

    fn enqueue_locked(&self, state: &mut SvcState, spec: JobSpec, mut spans: SpanLog) {
        // The submit phase ends here and queue wait begins, at the same
        // stamp — the tiling that makes span sums reconcile with wall time.
        let now = spans.now_us();
        while spans.depth() > 1 {
            spans.pop_at(now);
        }
        spans.push_at(now, SpanKind::QueueWait, spec.attempt);
        *state
            .tenant_inflight
            .entry(spec.tenant.clone())
            .or_insert(0) += 1;
        self.metrics
            .tenant_inflight(&spec.tenant, state.tenant_inflight[&spec.tenant] as f64);
        state.jobs.insert(
            spec.id,
            JobRecord {
                spec: spec.clone(),
                state: JobState::Queued,
                attempts: 0,
                rows: None,
                failure: None,
                detail: None,
                spans,
                backoff_ready_us: None,
            },
        );
        self.observer.on_queued(&spec);
        self.queue.push(spec);
    }

    /// Status of a tracked (non-evicted) submission.
    pub fn status(&self, id: u64) -> Option<JobStatus> {
        let state = self.state.lock();
        state.jobs.get(&id).map(|r| JobStatus {
            id,
            tenant: r.spec.tenant.clone(),
            label: r.spec.label.clone(),
            state: r.state,
            attempts: r.attempts,
            rows: r.rows,
            failure: r.failure,
            detail: r.detail.clone(),
        })
    }

    /// Request cancellation of a submission.
    pub fn cancel(&self, id: u64) -> CancelOutcome {
        let mut state = self.state.lock();
        let current = match state.jobs.get(&id) {
            None => return CancelOutcome::Unknown,
            Some(r) if r.state.is_terminal() => return CancelOutcome::AlreadyTerminal,
            Some(r) => r.state,
        };
        match current {
            JobState::Queued | JobState::Retrying => {
                if let Some(spec) = self.queue.remove(id) {
                    self.finish_locked(
                        &mut state,
                        &spec,
                        JobOutcome::Failed {
                            kind: "cancelled",
                            detail: "cancelled by client while queued".to_string(),
                        },
                    );
                    drop(state);
                    self.refresh_depth();
                    return CancelOutcome::CancelledQueued;
                }
                // Raced with a worker pop: fall through to signalling.
                if let Some(token) = state.cancels.get(&id) {
                    token.cancel();
                    return CancelOutcome::SignalledRunning;
                }
                CancelOutcome::AlreadyTerminal
            }
            JobState::Running => {
                if let Some(token) = state.cancels.get(&id) {
                    token.cancel();
                }
                CancelOutcome::SignalledRunning
            }
            _ => CancelOutcome::AlreadyTerminal,
        }
    }

    /// Counters snapshot, read from the service's instruments.
    pub fn stats(&self) -> ServiceStats {
        let m = &self.metrics;
        let rejected = m.queue_full.get() + m.tenant_cap.get();
        ServiceStats {
            submitted: m.admitted.get()
                + m.invalid.get()
                + rejected
                + m.shutdown.get()
                + m.error.get(),
            admitted: m.admitted.get(),
            rejected,
            invalid: m.invalid.get(),
            dispatched: m.dispatches.get(),
            retries: m.retries.get(),
            finished: m.finished.get(),
            failed: m.failed.get(),
            journal_errors: m.journal_errors.get(),
            queue_depth: self.queue.depth(),
            running: self.running.load(Ordering::Relaxed),
        }
    }

    /// The lifecycle span events recorded for a tracked (non-evicted)
    /// submission, timestamped in microseconds from its submit instant.
    /// Feed them to `qprog_obs::spans::SpanTree` for tree assembly and
    /// Chrome trace-event export (`GET /trace/{id}` does exactly that).
    pub fn span_events(&self, id: u64) -> Option<Vec<TraceEvent>> {
        self.state
            .lock()
            .jobs
            .get(&id)
            .map(|r| r.spans.events().to_vec())
    }

    /// Summed lifecycle durations for a tracked submission.
    pub fn span_totals(&self, id: u64) -> Option<SpanTotals> {
        self.state.lock().jobs.get(&id).map(|r| r.spans.totals())
    }

    /// Current in-system submissions for `tenant`.
    pub fn tenant_inflight(&self, tenant: &str) -> usize {
        self.state
            .lock()
            .tenant_inflight
            .get(tenant)
            .copied()
            .unwrap_or(0)
    }

    /// Whether new submissions are being accepted.
    pub fn is_admitting(&self) -> bool {
        self.admitting.load(Ordering::Acquire)
    }

    /// JSON snapshot for the monitor's `GET /service` endpoint. A tenant's
    /// lifecycle numbers are its series in a registry snapshot: the count
    /// and sum of its `qprog_exec_us` and the sum of its
    /// `qprog_queue_wait_us` histograms, and its dispatch-attempt and
    /// deadline-miss counters.
    pub fn stats_json(&self) -> String {
        let s = self.stats();
        let mut tenants: std::collections::BTreeMap<String, (usize, [u64; 6])> = self
            .state
            .lock()
            .tenant_inflight
            .iter()
            .map(|(t, &n)| (t.clone(), (n, [0; 6])))
            .collect();
        for sample in self.metrics.registry.snapshot() {
            let label = |key: &str| {
                let mut labels = sample.labels.iter();
                labels.find(|(k, _)| k == key).map(|(_, v)| v.as_str())
            };
            let column = TENANT_SERIES.iter().position(|&(_, name, place)| {
                name == sample.name && (place.is_empty() || label("where") == Some(place))
            });
            if let (Some(c), Some(tenant)) = (column, label("tenant")) {
                tenants.entry(tenant.to_string()).or_default().1[c] = sample.value as u64;
            }
        }
        let tenants: Vec<String> = tenants
            .iter()
            .map(|(t, (inflight, values))| {
                let members: String = TENANT_SERIES
                    .iter()
                    .zip(values)
                    .map(|((key, ..), v)| format!(",\"{key}\":{v}"))
                    .collect();
                format!(
                    "{{\"tenant\":\"{}\",\"inflight\":{inflight}{members}}}",
                    escape(t)
                )
            })
            .collect();
        format!(
            "{{\"admitting\":{},\"queue_depth\":{},\"running\":{},\
             \"submitted\":{},\"admitted\":{},\"rejected\":{},\"invalid\":{},\
             \"dispatched\":{},\"retries\":{},\"finished\":{},\"failed\":{},\
             \"journal_errors\":{},\"tenants\":[{}]}}",
            self.is_admitting(),
            s.queue_depth,
            s.running,
            s.submitted,
            s.admitted,
            s.rejected,
            s.invalid,
            s.dispatched,
            s.retries,
            s.finished,
            s.failed,
            s.journal_errors,
            tenants.join(",")
        )
    }

    /// Graceful drain: stop admitting, wait up to `cfg.drain_timeout` for
    /// queued + running work, then checkpoint-abort the remainder
    /// (queued jobs reach a `cancelled` terminal; running jobs get their
    /// cancellation tokens fired). Every terminal reaches the observer —
    /// and through it every SSE subscriber — as it is declared, so nothing
    /// is left to flush.
    pub fn drain(&self) {
        self.admitting.store(false, Ordering::Release);
        let deadline = Instant::now() + self.cfg.drain_timeout;
        while Instant::now() < deadline && self.in_system() {
            std::thread::sleep(Duration::from_millis(5));
        }
        for job in self.queue.drain_all() {
            let mut state = self.state.lock();
            self.finish_locked(
                &mut state,
                &job,
                JobOutcome::Failed {
                    kind: "cancelled",
                    detail: "service draining".to_string(),
                },
            );
        }
        {
            let state = self.state.lock();
            for token in state.cancels.values() {
                token.cancel();
            }
        }
        let grace = Instant::now() + Duration::from_secs(2);
        while Instant::now() < grace && self.in_system() {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.refresh_depth();
    }

    /// Whether any accepted submission has yet to reach its terminal. Read
    /// from the in-flight table, not `queue.depth()` + `running`: a job a
    /// worker has popped but not yet marked running is in neither.
    fn in_system(&self) -> bool {
        !self.state.lock().tenant_inflight.is_empty()
    }

    /// Stop workers without draining: queued submissions stay journaled
    /// as pending and will be re-dispatched on the next open (the
    /// crash-adjacent shutdown; call [`drain`](Self::drain) first for the
    /// graceful one).
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::Release);
        self.admitting.store(false, Ordering::Release);
        self.queue.close();
        let workers = std::mem::take(&mut *self.workers.lock());
        for w in workers {
            let _ = w.join();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            if self.stop.load(Ordering::Acquire) {
                return;
            }
            match self.queue.pop(Duration::from_millis(250)) {
                Pop::Closed => return,
                Pop::Timeout => continue,
                Pop::Job(job) => self.run_job(job),
            }
        }
    }

    fn run_job(&self, job: JobSpec) {
        self.refresh_depth();
        {
            // Every pop drains the queue — including deadline-expired jobs —
            // so each one is a sample for the Retry-After drain-rate model.
            let mut times = self.dispatch_times.lock();
            times.push_back(Instant::now());
            if times.len() > DRAIN_RATE_WINDOW {
                times.pop_front();
            }
        }
        // Deadline budget spent waiting counts: a submission that expired
        // in the queue terminates without ever reaching the engine.
        let remaining = match job.deadline {
            Some(d) => {
                let waited = job.submitted.elapsed();
                if waited >= d {
                    self.finish(
                        &job,
                        JobOutcome::Failed {
                            kind: "deadline",
                            detail: format!(
                                "deadline ({}ms) expired after {}ms in queue",
                                d.as_millis(),
                                waited.as_millis()
                            ),
                        },
                    );
                    return;
                }
                Some(d - waited)
            }
            None => None,
        };
        if let Err(e) = qprog_fault::eval("service/dispatch") {
            self.handle_failure(job, &e);
            return;
        }
        let token = CancellationToken::new();
        {
            let mut state = self.state.lock();
            if let Some(r) = state.jobs.get_mut(&job.id) {
                r.state = JobState::Running;
                r.attempts = job.attempt + 1;
                let now = r.spans.now_us();
                if let Some(ready) = r.backoff_ready_us.take() {
                    // The park ended at its scheduled ready time; the
                    // stretch from ready to this pop is queue wait for the
                    // retry attempt.
                    let ready = ready.min(now);
                    r.spans.pop_at(ready);
                    r.spans.push_at(ready, SpanKind::QueueWait, job.attempt);
                }
                r.spans.pop_at(now);
                r.spans.push_at(now, SpanKind::Dispatch, job.attempt);
            }
            state.cancels.insert(job.id, token.clone());
        }
        self.running.fetch_add(1, Ordering::Relaxed);
        self.metrics.dispatches.inc();
        self.observer.on_dispatched(&job);
        let result = self.executor.execute(&job, token, remaining);
        self.running.fetch_sub(1, Ordering::Relaxed);
        self.state.lock().cancels.remove(&job.id);
        match result {
            Ok(rows) => self.finish(&job, JobOutcome::Finished { rows }),
            Err(e) => self.handle_failure(job, &e),
        }
    }

    fn handle_failure(&self, job: JobSpec, err: &QError) {
        let (kind, retryable) = classify(err);
        let attempts_done = job.attempt + 1;
        let may_retry = retryable
            && attempts_done < self.cfg.retry.max_attempts
            && !self.stop.load(Ordering::Acquire)
            && self.admitting.load(Ordering::Acquire);
        if may_retry {
            if let Err(fe) = qprog_fault::eval("service/retry") {
                self.finish(
                    &job,
                    JobOutcome::Failed {
                        kind,
                        detail: format!("{err} (retry abandoned: {fe})"),
                    },
                );
                return;
            }
            let backoff = self.cfg.retry.backoff(job.id, attempts_done);
            self.metrics.retries.inc();
            {
                let mut state = self.state.lock();
                if let Some(r) = state.jobs.get_mut(&job.id) {
                    r.state = JobState::Retrying;
                    // Close the dispatch attempt (or the still-open queue
                    // wait, when dispatch itself failpointed) and open the
                    // backoff park, recording its scheduled end.
                    let now = r.spans.now_us();
                    r.spans.pop_at(now);
                    r.spans.push_at(now, SpanKind::BackoffPark, attempts_done);
                    r.backoff_ready_us = Some(now + backoff.as_micros() as u64);
                }
            }
            self.observer.on_retrying(&job, kind, backoff);
            let mut next = job;
            next.attempt = attempts_done;
            self.queue.push_delayed(next, Instant::now() + backoff);
            self.refresh_depth();
        } else {
            self.finish(
                &job,
                JobOutcome::Failed {
                    kind,
                    detail: err.to_string(),
                },
            );
        }
    }

    fn finish(&self, job: &JobSpec, outcome: JobOutcome) {
        let mut state = self.state.lock();
        self.finish_locked(&mut state, job, outcome);
    }

    fn finish_locked(&self, state: &mut SvcState, job: &JobSpec, outcome: JobOutcome) {
        // Close the span tree first: open children end where terminal
        // processing begins, the finalize span covers the record
        // bookkeeping, and the root's end is the single wall-time stamp
        // the journal records — so summed child durations reconcile with
        // the journal's wall time exactly.
        let mut wall_us = job.submitted.elapsed().as_micros() as u64;
        let mut totals = SpanTotals::default();
        let mut was_running = false;
        if let Some(r) = state.jobs.get_mut(&job.id) {
            was_running = r.state == JobState::Running;
            r.backoff_ready_us = None;
            let t0 = r.spans.now_us();
            r.spans.close_children(t0);
            r.spans.push_at(t0, SpanKind::Finalize, 0);
            match &outcome {
                JobOutcome::Finished { rows } => {
                    r.state = JobState::Finished;
                    r.rows = Some(*rows);
                }
                JobOutcome::Failed { kind, detail } => {
                    r.state = JobState::Failed;
                    r.failure = Some(kind);
                    r.detail = Some(detail.clone());
                }
            }
            let t_term = r.spans.now_us();
            r.spans.close_all(t_term);
            wall_us = t_term;
            totals = r.spans.totals();
        }
        if self
            .journal
            .append_terminal(job.id, outcome.label(), wall_us)
            .is_err()
        {
            // Completion is still reported; after a crash the job may be
            // re-dispatched (at-least-once on journal IO failure).
            self.metrics.journal_errors.inc();
        }
        self.metrics.slo(&job.tenant, &totals);
        match &outcome {
            JobOutcome::Finished { .. } => self.metrics.finished.inc(),
            JobOutcome::Failed { kind, .. } => {
                if *kind == "deadline" {
                    let location = if was_running { "exec" } else { "queue" };
                    self.metrics.deadline_miss(&job.tenant, location);
                }
                self.metrics.failed.inc();
            }
        }
        if let Some(n) = state.tenant_inflight.get_mut(&job.tenant) {
            *n = n.saturating_sub(1);
            let left = *n;
            if left == 0 {
                state.tenant_inflight.remove(&job.tenant);
            }
            self.metrics.tenant_inflight(&job.tenant, left as f64);
        }
        self.observer.on_terminal(job, &outcome);
        state.terminal_order.push_back(job.id);
        let mut evicted = Vec::new();
        while state.terminal_order.len() > self.cfg.retain_terminals {
            if let Some(old) = state.terminal_order.pop_front() {
                state.jobs.remove(&old);
                evicted.push(old);
            }
        }
        // Opportunistic journal compaction once the terminal tail dwarfs
        // the live set, so long-running services don't grow the log
        // without bound (tmp + rename, same as reopen).
        let live_count = state
            .jobs
            .values()
            .filter(|r| !r.state.is_terminal())
            .count();
        if self.journal.terminal_count() >= 512
            && self.journal.terminal_count() as usize >= 4 * live_count
        {
            let live: Vec<PendingEntry> = state
                .jobs
                .values()
                .filter(|r| !r.state.is_terminal())
                .map(|r| PendingEntry {
                    id: r.spec.id,
                    tenant: r.spec.tenant.clone(),
                    label: r.spec.label.clone(),
                    sql: r.spec.sql.clone(),
                    deadline: r.spec.deadline,
                })
                .collect();
            if self.journal.compact(&live).is_err() {
                self.metrics.journal_errors.inc();
            }
        }
        for id in evicted {
            self.observer.on_evicted(id);
        }
    }

    fn refresh_depth(&self) -> usize {
        let depth = self.queue.depth();
        self.metrics.queue_depth.set(depth as f64);
        depth
    }
}

impl std::fmt::Debug for QueryService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryService")
            .field("stats", &self.stats())
            .finish()
    }
}

/// Map an execution error to its typed terminal kind and retryability.
/// Injected faults and operator panics are transient (retryable);
/// cancellation, deadline expiry, and budget breaches are deliberate.
fn classify(e: &QError) -> (&'static str, bool) {
    match e.lifecycle() {
        Some(ExecError::Injected(_)) => ("injected", true),
        Some(ExecError::OperatorPanic(_)) => ("panic", true),
        Some(ExecError::Cancelled) => ("cancelled", false),
        Some(ExecError::DeadlineExceeded) => ("deadline", false),
        Some(ExecError::BudgetExceeded(_)) => ("budget", false),
        None => ("error", false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::AtomicU32;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qprog-service-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Scripted executor: per-id failure budget, then success.
    struct MockExec {
        /// Errors to return before succeeding, per call order.
        fail_first: AtomicU32,
        error: fn() -> QError,
        executions: Mutex<Vec<u64>>,
        delay: Duration,
    }

    impl MockExec {
        fn ok() -> Arc<Self> {
            Arc::new(MockExec {
                fail_first: AtomicU32::new(0),
                error: QError::cancelled,
                executions: Mutex::new(Vec::new()),
                delay: Duration::ZERO,
            })
        }

        fn failing(n: u32, error: fn() -> QError) -> Arc<Self> {
            Arc::new(MockExec {
                fail_first: AtomicU32::new(n),
                error,
                executions: Mutex::new(Vec::new()),
                delay: Duration::ZERO,
            })
        }

        fn executed(&self) -> Vec<u64> {
            self.executions.lock().clone()
        }
    }

    impl JobExecutor for MockExec {
        fn validate(&self, sql: &str) -> Result<(), String> {
            if sql.contains("syntax error") {
                return Err("unparseable workload".to_string());
            }
            Ok(())
        }

        fn execute(
            &self,
            job: &JobSpec,
            cancel: CancellationToken,
            _deadline: Option<Duration>,
        ) -> Result<u64, QError> {
            self.executions.lock().push(job.id);
            if !self.delay.is_zero() {
                let until = Instant::now() + self.delay;
                while Instant::now() < until {
                    if cancel.is_cancelled() {
                        return Err(QError::cancelled());
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
            if cancel.is_cancelled() {
                return Err(QError::cancelled());
            }
            let remaining = self.fail_first.load(Ordering::Relaxed);
            if remaining > 0 {
                self.fail_first.store(remaining - 1, Ordering::Relaxed);
                return Err((self.error)());
            }
            Ok(7)
        }
    }

    fn svc(dir: &Path, exec: Arc<dyn JobExecutor>, cfg: ServiceConfig) -> Arc<QueryService> {
        QueryService::open(dir, cfg, exec, Arc::new(LocalIds::default()), None).unwrap()
    }

    fn req(sql: &str, tenant: &str) -> SubmitRequest {
        SubmitRequest {
            sql: sql.to_string(),
            tenant: tenant.to_string(),
            label: None,
            deadline: None,
        }
    }

    fn wait_terminal(s: &QueryService, id: u64) -> JobStatus {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let st = s.status(id).expect("job evicted before terminal check");
            if st.state.is_terminal() {
                return st;
            }
            assert!(Instant::now() < deadline, "job {id} never reached terminal");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn submit_runs_to_finished() {
        let dir = tmpdir("happy");
        let exec = MockExec::ok();
        let s = svc(&dir, exec.clone(), ServiceConfig::default());
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state, JobState::Finished);
        assert_eq!(st.rows, Some(7));
        assert_eq!(st.attempts, 1);
        assert_eq!(exec.executed(), vec![t.id]);
        let stats = s.stats();
        assert_eq!((stats.admitted, stats.finished, stats.failed), (1, 1, 0));
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_submissions_are_typed() {
        let dir = tmpdir("invalid");
        let s = svc(&dir, MockExec::ok(), ServiceConfig::default());
        assert!(matches!(
            s.submit(req("", "acme")),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(req("select 1", "")),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(req("syntax error here", "acme")),
            Err(SubmitError::Invalid(_))
        ));
        assert_eq!(s.stats().invalid, 3);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn admission_sheds_on_depth_and_tenant_caps() {
        let dir = tmpdir("admission");
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                max_queue_depth: 4,
                max_tenant_inflight: 2,
                retry_after: Duration::from_millis(250),
            },
            workers: 0, // nothing drains the queue
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        assert!(s.submit(req("select 1", "a")).is_ok());
        assert!(s.submit(req("select 1", "a")).is_ok());
        match s.submit(req("select 1", "a")) {
            Err(SubmitError::Rejected {
                reason,
                retry_after,
                ..
            }) => {
                assert_eq!(reason, RejectReason::TenantCap);
                assert_eq!(retry_after, Duration::from_millis(250));
            }
            other => panic!("expected tenant cap, got {other:?}"),
        }
        assert!(s.submit(req("select 1", "b")).is_ok());
        assert!(s.submit(req("select 1", "c")).is_ok());
        match s.submit(req("select 1", "d")) {
            Err(SubmitError::Rejected { reason, .. }) => {
                assert_eq!(reason, RejectReason::QueueFull)
            }
            other => panic!("expected queue full, got {other:?}"),
        }
        assert_eq!(s.stats().rejected, 2);
        assert_eq!(s.tenant_inflight("a"), 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_retry_then_succeed() {
        let dir = tmpdir("retry");
        let exec = MockExec::failing(2, || QError::injected("unit"));
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
                seed: 42,
            },
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state, JobState::Finished);
        assert_eq!(st.attempts, 3);
        assert_eq!(exec.executed().len(), 3);
        assert_eq!(s.stats().retries, 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn retries_exhaust_into_typed_failure() {
        let dir = tmpdir("exhaust");
        let exec = MockExec::failing(99, || QError::operator_panic("boom"));
        let cfg = ServiceConfig {
            retry: RetryPolicy {
                max_attempts: 2,
                base: Duration::from_millis(2),
                cap: Duration::from_millis(4),
                seed: 1,
            },
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.failure, Some("panic"));
        assert_eq!(exec.executed().len(), 2);
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn deliberate_terminations_never_retry() {
        for (mk, kind) in [
            (QError::cancelled as fn() -> QError, "cancelled"),
            (|| QError::budget_exceeded("rows"), "budget"),
            (QError::deadline_exceeded, "deadline"),
        ] {
            let dir = tmpdir("noretry");
            let exec = MockExec::failing(99, mk);
            let s = svc(&dir, exec.clone(), ServiceConfig::default());
            let t = s.submit(req("select 1", "acme")).unwrap();
            let st = wait_terminal(&s, t.id);
            assert_eq!(st.state, JobState::Failed);
            assert_eq!(st.failure, Some(kind));
            assert_eq!(exec.executed().len(), 1, "{kind} must not retry");
            s.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn deadline_expired_in_queue_never_reaches_executor() {
        let dir = tmpdir("queue-deadline");
        // One worker, busy for 150ms: the second job's 20ms deadline
        // expires while it waits in the queue.
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_millis(150),
        });
        let cfg = ServiceConfig {
            workers: 1,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let blocker = s.submit(req("select 0", "acme")).unwrap();
        let doomed = s
            .submit(SubmitRequest {
                deadline: Some(Duration::from_millis(20)),
                ..req("select 1", "acme")
            })
            .unwrap();
        let st = wait_terminal(&s, doomed.id);
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.failure, Some("deadline"));
        assert!(st.detail.unwrap().contains("in queue"));
        wait_terminal(&s, blocker.id);
        assert_eq!(exec.executed(), vec![blocker.id], "doomed job never ran");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_covers_queued_running_and_terminal() {
        let dir = tmpdir("cancel");
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_millis(400),
        });
        let cfg = ServiceConfig {
            workers: 0,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, exec.clone(), cfg);
        let t = s.submit(req("select 1", "acme")).unwrap();
        assert_eq!(s.cancel(t.id), CancelOutcome::CancelledQueued);
        let st = s.status(t.id).unwrap();
        assert_eq!(st.state, JobState::Failed);
        assert_eq!(st.failure, Some("cancelled"));
        assert_eq!(s.cancel(t.id), CancelOutcome::AlreadyTerminal);
        assert_eq!(s.cancel(999_999), CancelOutcome::Unknown);
        assert!(exec.executed().is_empty(), "cancelled before dispatch");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);

        // Running cancellation, with a live worker this time.
        let dir = tmpdir("cancel-running");
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(0),
            error: QError::cancelled,
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_secs(30),
        });
        let s = svc(&dir, exec.clone(), ServiceConfig::default());
        let t = s.submit(req("select 1", "acme")).unwrap();
        let spin = Instant::now();
        while s.stats().running == 0 && spin.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(s.cancel(t.id), CancelOutcome::SignalledRunning);
        let st = wait_terminal(&s, t.id);
        assert_eq!(st.failure, Some("cancelled"));
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn crash_leaves_pending_and_reopen_redispatches_exactly_once() {
        let dir = tmpdir("recovery");
        let staged = {
            let cfg = ServiceConfig {
                workers: 0, // accept + journal, never dispatch
                ..ServiceConfig::default()
            };
            let s = svc(&dir, MockExec::ok(), cfg);
            let ids: Vec<u64> = (0..3)
                .map(|i| s.submit(req(&format!("select {i}"), "acme")).unwrap().id)
                .collect();
            s.shutdown(); // crash-adjacent: no drain, pending stays journaled
            ids
        };
        let exec = MockExec::ok();
        let s = QueryService::open(
            &dir,
            ServiceConfig::default(),
            exec.clone() as Arc<dyn JobExecutor>,
            Arc::new(LocalIds::default()),
            None,
        )
        .unwrap();
        for &id in &staged {
            let st = wait_terminal(&s, id);
            assert_eq!(st.state, JobState::Finished, "job {id}");
        }
        let mut executed = exec.executed();
        executed.sort_unstable();
        assert_eq!(executed, staged, "each pending job ran exactly once");
        assert_eq!(s.stats().dispatched, 3);
        // Fresh ids never collide with replayed ones.
        let t = s.submit(req("select 99", "acme")).unwrap();
        assert!(t.id > *staged.iter().max().unwrap());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn drain_flushes_queued_work_to_terminals() {
        let dir = tmpdir("drain");
        let cfg = ServiceConfig {
            workers: 0,
            drain_timeout: Duration::from_millis(50),
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        let ids: Vec<u64> = (0..3)
            .map(|i| s.submit(req(&format!("select {i}"), "t")).unwrap().id)
            .collect();
        s.drain();
        for id in ids {
            let st = s.status(id).unwrap();
            assert_eq!(st.state, JobState::Failed);
            assert_eq!(st.failure, Some("cancelled"));
        }
        assert!(matches!(
            s.submit(req("select 1", "t")),
            Err(SubmitError::ShuttingDown)
        ));
        s.shutdown();
        // Drained terminals are journaled: reopen has nothing pending.
        let exec = MockExec::ok();
        let s2 = QueryService::open(
            &dir,
            ServiceConfig::default(),
            exec.clone() as Arc<dyn JobExecutor>,
            Arc::new(LocalIds::default()),
            None,
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert!(exec.executed().is_empty(), "{:?}", exec.executed());
        s2.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 5,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(1),
            seed: 7,
        };
        for attempt in 1..=4u32 {
            let a = p.backoff(3, attempt);
            let b = p.backoff(3, attempt);
            assert_eq!(a, b, "same (seed, id, attempt) must agree");
            let exp = Duration::from_millis(100 * (1 << (attempt - 1))).min(p.cap);
            assert!(
                a >= exp.mul_f64(0.5) && a <= exp,
                "attempt {attempt}: {a:?}"
            );
        }
        assert_ne!(p.backoff(3, 1), p.backoff(4, 1), "jitter varies by id");
        assert_eq!(p.backoff(9, 10), p.backoff(9, 10));
        assert!(p.backoff(9, 10) <= Duration::from_secs(1));
    }

    #[test]
    fn terminal_records_evict_beyond_retention() {
        let dir = tmpdir("evict");
        let cfg = ServiceConfig {
            retain_terminals: 2,
            ..ServiceConfig::default()
        };
        let s = svc(&dir, MockExec::ok(), cfg);
        let ids: Vec<u64> = (0..4)
            .map(|i| {
                let id = s.submit(req(&format!("select {i}"), "t")).unwrap().id;
                wait_terminal(&s, id);
                id
            })
            .collect();
        assert!(s.status(ids[0]).is_none(), "oldest terminal evicted");
        assert!(s.status(ids[3]).is_some());
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_json_is_flat_and_complete() {
        let dir = tmpdir("statsjson");
        let s = svc(
            &dir,
            MockExec::ok(),
            ServiceConfig {
                workers: 0,
                ..ServiceConfig::default()
            },
        );
        s.submit(req("select 1", "a\"b")).unwrap();
        let json = s.stats_json();
        assert!(json.contains("\"admitting\":true"), "{json}");
        assert!(json.contains("\"queue_depth\":1"), "{json}");
        assert!(json.contains("\"tenant\":\"a\\\"b\""), "{json}");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_and_stats_json_read_the_registry_series() {
        let dir = tmpdir("onebook");
        let registry = Arc::new(Registry::new());
        // One worker, each run 150ms, the first attempt an injected fault.
        let exec = Arc::new(MockExec {
            fail_first: AtomicU32::new(1),
            error: || QError::injected("unit"),
            executions: Mutex::new(Vec::new()),
            delay: Duration::from_millis(150),
        });
        let cfg = ServiceConfig {
            admission: AdmissionConfig {
                max_queue_depth: 3,
                max_tenant_inflight: 2,
                retry_after: Duration::from_millis(250),
            },
            retry: RetryPolicy {
                max_attempts: 3,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(20),
                seed: 3,
            },
            workers: 1,
            ..ServiceConfig::default()
        };
        let s = QueryService::open(
            &dir,
            cfg,
            exec,
            Arc::new(LocalIds::default()),
            Some(Arc::clone(&registry)),
        )
        .unwrap();
        let retried = s.submit(req("select 0", "a")).unwrap().id;
        let spin = Instant::now();
        while s.stats().running == 0 && spin.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Waits behind the running job long past its 1ms budget.
        let expired = s
            .submit(SubmitRequest {
                deadline: Some(Duration::from_millis(1)),
                ..req("select 1", "a")
            })
            .unwrap()
            .id;
        assert!(matches!(
            s.submit(req("syntax error", "a")),
            Err(SubmitError::Invalid(_))
        ));
        assert!(matches!(
            s.submit(req("select 2", "a")),
            Err(SubmitError::Rejected {
                reason: RejectReason::TenantCap,
                ..
            })
        ));
        let b = s.submit(req("select 3", "b")).unwrap().id;
        let c = s.submit(req("select 4", "c")).unwrap().id;
        assert!(matches!(
            s.submit(req("select 5", "d")),
            Err(SubmitError::Rejected {
                reason: RejectReason::QueueFull,
                ..
            })
        ));
        for id in [retried, expired, b, c] {
            wait_terminal(&s, id);
        }
        assert_eq!(wait_terminal(&s, expired).failure, Some("deadline"));

        let before = registry.snapshot();
        let stats = s.stats();
        let json = s.stats_json();
        assert_eq!(before, registry.snapshot(), "a read registers no series");
        let series = |name: &str, labels: &[(&str, &str)]| -> u64 {
            before
                .iter()
                .filter(|x| x.name == name)
                .filter(|x| {
                    labels
                        .iter()
                        .all(|(k, v)| x.labels.iter().any(|(a, b)| a == k && b == v))
                })
                .map(|x| x.value as u64)
                .sum()
        };
        let outcome = |o: &str| series("qprog_submissions_total", &[("outcome", o)]);
        let terminal = |o: &str| series("qprog_terminals_total", &[("outcome", o)]);
        assert_eq!(
            stats,
            ServiceStats {
                submitted: series("qprog_submissions_total", &[]),
                admitted: outcome("admitted"),
                rejected: outcome("queue_full") + outcome("tenant_cap"),
                invalid: outcome("invalid"),
                dispatched: series("qprog_dispatches_total", &[]),
                retries: series("qprog_retries_total", &[]),
                finished: terminal("finished"),
                failed: terminal("failed"),
                journal_errors: series("qprog_journal_errors_total", &[]),
                queue_depth: series("qprog_queue_depth", &[]) as usize,
                running: 0,
            }
        );
        assert_eq!(
            stats,
            ServiceStats {
                submitted: 7,
                admitted: 4,
                rejected: 2,
                invalid: 1,
                dispatched: 4,
                retries: 1,
                finished: 3,
                failed: 1,
                journal_errors: 0,
                queue_depth: 0,
                running: 0,
            }
        );
        for tenant in ["a", "b", "c"] {
            let t = [("tenant", tenant)];
            let miss = |w: &str| {
                series(
                    "qprog_deadline_miss_total",
                    &[("tenant", tenant), ("where", w)],
                )
            };
            let expect = format!(
                "{{\"tenant\":\"{tenant}\",\"inflight\":0,\"completed\":{},\
                 \"queue_wait_us\":{},\"exec_us\":{},\"attempts\":{},\
                 \"deadline_miss_queue\":{},\"deadline_miss_exec\":{}}}",
                series("qprog_exec_us_count", &t),
                series("qprog_queue_wait_us_sum", &t),
                series("qprog_exec_us_sum", &t),
                series("qprog_dispatch_attempts_total", &t),
                miss("queue"),
                miss("exec"),
            );
            assert!(json.contains(&expect), "{expect} not in {json}");
        }
        assert!(json.contains("\"tenant\":\"a\",\"inflight\":0,\"completed\":2,"));
        assert_eq!(
            series("qprog_dispatch_attempts_total", &[("tenant", "a")]),
            2
        );
        assert_eq!(
            series("qprog_deadline_miss_total", &[("where", "queue")]),
            1
        );
        assert!(
            !before.iter().any(|x| x.name == "qprog_deadline_miss_total"
                && x.labels.iter().any(|(_, v)| v == "exec")),
            "a deadline-miss series appears only at its first miss"
        );
        assert!(!json.contains("\"tenant\":\"d\""), "{json}");
        s.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
