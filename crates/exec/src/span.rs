//! Causal span taxonomy: typed begin/end markers for the query lifecycle.
//!
//! A *span* is a named interval in a query's life — submit, journal
//! append, a queue-wait park, a backoff park, one dispatch attempt, the
//! terminal finalization — carried on the same trace port as every other
//! event ([`TraceEventKind::SpanStart`] / [`TraceEventKind::SpanEnd`]).
//! Spans form a tree: each start names its parent, the `query` root covers
//! the whole submit→terminal life, and sibling lifecycle spans tile it
//! gaplessly so queue-wait + retry-park + execution durations reconcile
//! with the journal's recorded wall time.
//!
//! Execution-side detail (operator phases, per-operator and per-worker
//! intervals) is *derived* from the events the engine already publishes
//! (`PhaseTransition`, `OperatorWallTime`, `WorkerWallTime` — all stamped
//! at the governor's amortized checkpoint stride), so the traced hot path
//! gains no new atomics from span support. The assembly and Chrome
//! trace-event export live in `qprog-obs::spans`.
//!
//! [`TraceEventKind::SpanStart`]: crate::trace::TraceEventKind::SpanStart
//! [`TraceEventKind::SpanEnd`]: crate::trace::TraceEventKind::SpanEnd

/// Sentinel parent id for a root span (no parent).
pub const NO_PARENT: u32 = u32::MAX;

named_enum! {
    /// What a lifecycle span covers. The `arg` field of
    /// [`SpanStart`](crate::trace::TraceEventKind::SpanStart) qualifies the
    /// kind: the attempt number for [`QueueWait`](SpanKind::QueueWait) /
    /// [`BackoffPark`](SpanKind::BackoffPark) / [`Dispatch`](SpanKind::Dispatch)
    /// (0-based completed attempts at start time), unused (0) otherwise.
    pub enum SpanKind {
        /// Root: the query's whole life from submit to declared terminal.
        Query = "query",
        /// Submit-side work: validation, admission control, id allocation.
        Submit = "submit",
        /// The crash-safety WAL append inside submit.
        JournalAppend = "journal_append",
        /// Parked in the tenant-fair ready queue waiting for a worker (one
        /// span per DRR park/unpark, including post-backoff re-parks).
        QueueWait = "queue_wait",
        /// Parked for retry backoff after a transient failure.
        BackoffPark = "backoff_park",
        /// One execution attempt, dispatch to outcome.
        Dispatch = "dispatch",
        /// Terminal processing: outcome classification, journal terminal
        /// append, eviction bookkeeping.
        Finalize = "finalize",
    }
}

/// Summed lifecycle durations of one query, one bucket per [`SpanKind`]
/// (the journal append is nested inside submit), plus the dispatch-attempt
/// count. The service's span log sums it for the per-tenant SLO metrics
/// (`QueryService::span_totals`); `qprog-obs`'s assembled span tree sums
/// the same buckets (`SpanTree::lifecycle_totals`), so the two agree field
/// for field.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Root (`query`) span duration: submit → terminal.
    pub total_us: u64,
    /// Submit-side time (validation, admission, journal append).
    pub submit_us: u64,
    /// Time parked in the ready queue, summed over every wait.
    pub queue_wait_us: u64,
    /// Time parked for retry backoff, summed over every park.
    pub backoff_us: u64,
    /// Execution time, summed over every dispatch attempt.
    pub exec_us: u64,
    /// Terminal-processing time.
    pub finalize_us: u64,
    /// Dispatch attempts that reached the executor.
    pub attempts: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        let kinds = [
            SpanKind::Query,
            SpanKind::Submit,
            SpanKind::JournalAppend,
            SpanKind::QueueWait,
            SpanKind::BackoffPark,
            SpanKind::Dispatch,
            SpanKind::Finalize,
        ];
        for k in kinds {
            assert_eq!(SpanKind::from_name(k.name()), Some(k), "{k}");
            assert_eq!(format!("{k}"), k.name());
        }
        assert_eq!(SpanKind::from_name("bogus"), None);
    }
}
