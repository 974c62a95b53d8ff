//! Resilient multi-tenant submit/queue/dispatch service for qprog.
//!
//! This crate turns the passive progress monitor into a front door: clients
//! submit workloads (`POST /submit` when bridged through `qprog-monitor`),
//! get a query id back immediately, and the service takes responsibility
//! for running the query to a *typed terminal state* no matter what —
//! overload, transient faults, crashes, or shutdown:
//!
//! - **Crash safety** — every accepted submission is journaled to a JSONL
//!   WAL before acknowledgement ([`journal`]); reopening replays pending
//!   work exactly once, tolerating torn trailing lines.
//! - **Admission control** — bounded queue depth and per-tenant in-flight
//!   caps shed load with a typed rejection instead of unbounded memory.
//! - **Fair scheduling** — round-robin across tenants ([`queue`]),
//!   so a flooding tenant cannot starve a polite one.
//! - **Retries** — transient failures (injected faults, operator panics)
//!   re-dispatch with capped exponential backoff and deterministic jitter;
//!   deliberate terminations (cancel, deadline, budget) never retry.
//! - **Deadlines** — the submit-time budget covers queue wait: what's left
//!   when a worker picks the job up is what the engine's governor gets.
//! - **Graceful drain** — shutdown stops admission, finishes or
//!   checkpoint-aborts in-flight work, and flushes terminals so streaming
//!   subscribers always see an ending.
//!
//! The crate is engine-agnostic: execution is behind [`JobExecutor`] and
//! status reporting behind [`StatusObserver`], implemented by the root
//! `qprog` crate (SessionBuilder-backed executor) and `qprog-monitor`
//! (progress-directory bridge) respectively. Chaos tests drive the
//! `service/submit`, `service/journal/append`, `service/dispatch`, and
//! `service/retry` failpoints (see `qprog-fault`).

pub mod journal;
pub mod queue;
pub mod service;
pub mod spans;

pub use journal::{Journal, PendingEntry, Replay, JOURNAL_FILE};
pub use queue::{AdmissionConfig, JobSpec, RejectReason};
pub use service::{
    CancelOutcome, JobExecutor, JobOutcome, JobState, JobStatus, LocalIds, QueryService,
    RetryPolicy, ServiceConfig, ServiceStats, StatusObserver, SubmitError, SubmitRequest, Ticket,
    MAX_SQL_BYTES,
};
pub use spans::{SpanLog, SpanTotals};
