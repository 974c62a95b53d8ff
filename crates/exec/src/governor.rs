//! Query lifecycle governance: cooperative cancellation, deadlines, and
//! hard resource budgets.
//!
//! A [`Governor`] is shared by every operator of one query (each
//! [`OpMetrics`](crate::metrics::OpMetrics) holds an `Arc` to it) and by the
//! driver. Operators call
//! [`OpMetrics::checkpoint`](crate::metrics::OpMetrics::checkpoint) inside
//! their long loops; the fast path is one `Option` check when no governor is
//! attached, and two relaxed atomic loads when one is — atomic RMWs are paid
//! only while a row budget or deadline is actually armed. Deadline checks
//! amortize `Instant::now()` over [`DEADLINE_STRIDE`] checkpoints, so the
//! per-tuple cost stays within the paper's "couple of atomics" budget.
//!
//! The checkpoint is also the query's progress publication point: a hook
//! set with [`Governor::set_progress_hook`] runs at the end of every
//! passing check, i.e. at every operator batch boundary.
//!
//! Breaches surface as typed [`ExecError`](qprog_types::ExecError)s through
//! the normal `QResult` channel — cancellation is *cooperative*: a query
//! notices at its next checkpoint, which the chaos suite bounds at well
//! under 100ms.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use qprog_types::{ExecError, QResult};

/// Deadline expiry is tested every this-many checkpoints (amortizes the
/// `Instant::now()` syscall; worst-case detection lag is `STRIDE` tuples).
pub const DEADLINE_STRIDE: u64 = 64;

/// A cloneable handle that requests cooperative cancellation of one query.
///
/// Cancelling is idempotent and thread-safe; the query observes the flag at
/// its next checkpoint and unwinds with [`ExecError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    flag: Arc<AtomicBool>,
}

impl CancellationToken {
    /// A fresh, untriggered token.
    pub fn new() -> Self {
        CancellationToken::default()
    }

    /// Request cancellation.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }
}

/// Hard per-query resource budgets. `None` disables a budget. Breaching a
/// hard budget aborts the query with [`ExecError::BudgetExceeded`]; *soft*
/// budgets (estimator histogram memory) degrade instead — see
/// [`Governor::hist_budget_exceeded`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Budgets {
    /// Maximum tuples processed across all operators (checkpoint units).
    pub max_rows: Option<u64>,
    /// Soft cap on per-operator estimator histogram memory, in bytes; on
    /// breach the estimator degrades to a cheaper baseline rather than
    /// aborting.
    pub max_hist_bytes: Option<usize>,
}

/// The callback [`Governor::set_progress_hook`] installs.
struct ProgressHook(Box<dyn Fn() + Send + Sync>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook")
    }
}

/// Per-query lifecycle state: cancellation flag, optional deadline, and
/// resource budgets, checked cooperatively at operator checkpoints.
#[derive(Debug)]
pub struct Governor {
    token: CancellationToken,
    /// One more than the deadline in microseconds after `anchor`; 0 = none.
    deadline_us: AtomicU64,
    anchor: Instant,
    budgets: Budgets,
    /// Checkpoint units charged so far (≈ tuples processed).
    units: AtomicU64,
    /// Checkpoint invocations, for deadline striding.
    ticks: AtomicU64,
    /// An external caller-supplied cancellation token linked into this
    /// query (see [`link_token`](Self::link_token)); checked alongside the
    /// query's own token at every checkpoint.
    linked: std::sync::OnceLock<CancellationToken>,
    /// Run at the end of every passing checkpoint (see
    /// [`set_progress_hook`](Self::set_progress_hook)).
    progress: std::sync::OnceLock<ProgressHook>,
}

impl Default for Governor {
    fn default() -> Self {
        Governor::new(Budgets::default())
    }
}

impl Governor {
    /// A governor with the given budgets and a fresh cancellation token.
    pub fn new(budgets: Budgets) -> Self {
        Governor {
            token: CancellationToken::new(),
            deadline_us: AtomicU64::new(0),
            anchor: Instant::now(),
            budgets,
            units: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            linked: std::sync::OnceLock::new(),
            progress: std::sync::OnceLock::new(),
        }
    }

    /// Install the query's progress publication point: `hook` runs at the
    /// end of every checkpoint that passes, i.e. once per operator batch,
    /// on the thread doing the work (a parallel drain's workers included).
    /// At most one hook can be set; later calls are ignored. Without one
    /// the checkpoint pays one load and a branch.
    pub fn set_progress_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        let _ = self.progress.set(ProgressHook(Box::new(hook)));
    }

    /// Link an external cancellation token (e.g. one supplied through
    /// `RunOptions`) so cancelling *it* also cancels this query. At most one
    /// token can be linked; later calls are ignored. The checkpoint cost is
    /// one extra relaxed load only while a token is actually linked.
    pub fn link_token(&self, token: CancellationToken) {
        let _ = self.linked.set(token);
    }

    /// The query's cancellation token (clone to hand to other threads).
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// Request cooperative cancellation.
    pub fn cancel(&self) {
        self.token.cancel();
    }

    /// Arm (or re-arm) a wall-clock deadline `after` from now.
    pub fn set_deadline(&self, after: Duration) {
        let us = self.anchor.elapsed().as_micros() as u64 + after.as_micros() as u64;
        self.deadline_us.store(us + 1, Ordering::Relaxed);
    }

    /// The configured budgets.
    pub fn budgets(&self) -> Budgets {
        self.budgets
    }

    /// Checkpoint units charged so far. Units are only accumulated while a
    /// row budget is armed — with `max_rows: None` the checkpoint skips
    /// the counter entirely to keep the per-tuple path free of atomic RMWs.
    pub fn units(&self) -> u64 {
        self.units.load(Ordering::Relaxed)
    }

    /// Whether `bytes` of estimator histogram memory breaches the soft
    /// histogram budget (the caller degrades its estimator, it does not
    /// abort).
    pub fn hist_budget_exceeded(&self, bytes: usize) -> bool {
        self.budgets.max_hist_bytes.is_some_and(|max| bytes > max)
    }

    /// The cooperative checkpoint: charge `units` tuples of work and fail
    /// if the query is cancelled, past deadline, or over its row budget;
    /// otherwise run the progress hook, if one is set.
    ///
    /// The unarmed path (no cancel, no budget, no deadline — the common
    /// case) is two relaxed atomic *loads* and a predictable branch; the
    /// atomic RMWs are paid only while a row budget or deadline is armed,
    /// so an always-attached governor costs nothing measurable per tuple.
    #[inline]
    pub fn check(&self, units: u64) -> QResult<()> {
        if self.token.is_cancelled() {
            return Err(ExecError::Cancelled.into());
        }
        if let Some(linked) = self.linked.get() {
            if linked.is_cancelled() {
                return Err(ExecError::Cancelled.into());
            }
        }
        if let Some(max) = self.budgets.max_rows {
            let total = self.units.fetch_add(units, Ordering::Relaxed) + units;
            if total > max {
                return Err(ExecError::BudgetExceeded(format!(
                    "max_rows={max} (processed {total} tuples)"
                ))
                .into());
            }
        }
        let deadline = self.deadline_us.load(Ordering::Relaxed);
        if deadline != 0 {
            let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
            if tick.is_multiple_of(DEADLINE_STRIDE)
                && self.anchor.elapsed().as_micros() as u64 >= deadline - 1
            {
                return Err(ExecError::DeadlineExceeded.into());
            }
        }
        if let Some(hook) = self.progress.get() {
            (hook.0)();
        }
        Ok(())
    }
}

/// Capture a panic payload as a readable message.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `f` inside a panic boundary, converting a panic anywhere below it
/// into [`ExecError::OperatorPanic`] so one misbehaving operator yields a
/// terminal `Failed` query instead of poisoning the process. Drive loops
/// wrap their *entire* drain in one `guarded` call rather than guarding
/// each `next()` — a per-tuple `catch_unwind` costs measurable throughput.
pub fn guarded<R>(f: impl FnOnce() -> QResult<R>) -> QResult<R> {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(ExecError::OperatorPanic(panic_message(&*payload)).into()),
    }
}

/// Run a single `next_batch()` inside a panic boundary (for stepping
/// drivers that refill one batch at a time, where there is no loop to wrap
/// — see [`guarded`] for drains).
pub fn guarded_next_batch(
    op: &mut dyn crate::ops::Operator,
    out: &mut qprog_types::RowBatch,
) -> QResult<qprog_types::BatchStatus> {
    guarded(|| op.next_batch(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::QError;

    #[test]
    fn untriggered_governor_passes_checkpoints() {
        let g = Governor::default();
        for _ in 0..1000 {
            g.check(1).unwrap();
        }
        // No row budget armed: the counter is deliberately not maintained.
        assert_eq!(g.units(), 0);
        let g = Governor::new(Budgets {
            max_rows: Some(1_000_000),
            max_hist_bytes: None,
        });
        for _ in 0..1000 {
            g.check(1).unwrap();
        }
        assert_eq!(g.units(), 1000);
    }

    #[test]
    fn cancellation_fails_next_checkpoint() {
        let g = Governor::default();
        g.check(1).unwrap();
        let token = g.token().clone();
        token.cancel();
        assert!(token.is_cancelled());
        assert!(g.check(1).unwrap_err().is_cancelled());
    }

    #[test]
    fn linked_token_cancels_query() {
        let g = Governor::default();
        let external = CancellationToken::new();
        g.link_token(external.clone());
        g.check(1).unwrap();
        external.cancel();
        assert!(g.check(1).unwrap_err().is_cancelled());
        // only the first link sticks
        let g2 = Governor::default();
        g2.link_token(CancellationToken::new());
        let ignored = CancellationToken::new();
        g2.link_token(ignored.clone());
        ignored.cancel();
        g2.check(1).unwrap();
    }

    #[test]
    fn progress_hook_runs_once_per_passing_checkpoint() {
        use std::sync::atomic::AtomicUsize;
        let g = Governor::default();
        g.check(1).unwrap(); // no hook yet
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&calls);
        g.set_progress_hook(move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        g.set_progress_hook(|| panic!("only the first hook sticks"));
        for _ in 0..3 {
            g.check(1).unwrap();
        }
        g.cancel();
        assert!(g.check(1).is_err());
        assert_eq!(calls.load(Ordering::Relaxed), 3, "failing checks skip it");
    }

    #[test]
    fn row_budget_aborts_on_breach() {
        let g = Governor::new(Budgets {
            max_rows: Some(10),
            max_hist_bytes: None,
        });
        for _ in 0..10 {
            g.check(1).unwrap();
        }
        let e = g.check(1).unwrap_err();
        assert!(matches!(e, QError::Lifecycle(ExecError::BudgetExceeded(_))));
        assert!(e.to_string().contains("max_rows=10"), "{e}");
    }

    /// A zero deadline has passed by the first checkpoint, however soon
    /// it comes (it used to be 1 µs away, which a fast query could beat).
    #[test]
    fn zero_deadline_fails_the_first_checkpoint() {
        let g = Governor::default();
        g.set_deadline(Duration::ZERO);
        let e = g.check(1).unwrap_err();
        assert!(matches!(e, QError::Lifecycle(ExecError::DeadlineExceeded)));
    }

    #[test]
    fn deadline_fires_within_a_stride() {
        let g = Governor::default();
        g.set_deadline(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(5));
        let mut failed = None;
        for i in 0..=DEADLINE_STRIDE {
            if let Err(e) = g.check(1) {
                failed = Some((i, e));
                break;
            }
        }
        let (_, e) = failed.expect("deadline never observed");
        assert!(matches!(e, QError::Lifecycle(ExecError::DeadlineExceeded)));
    }

    #[test]
    fn hist_budget_is_soft() {
        let g = Governor::new(Budgets {
            max_rows: None,
            max_hist_bytes: Some(1024),
        });
        assert!(!g.hist_budget_exceeded(1024));
        assert!(g.hist_budget_exceeded(1025));
        // soft breach never fails a checkpoint
        g.check(1).unwrap();
    }

    #[test]
    fn panic_messages_are_captured() {
        let p = std::panic::catch_unwind(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(panic_message(&*p), "boom 42");
        let p = std::panic::catch_unwind(|| panic!("static")).unwrap_err();
        assert_eq!(panic_message(&*p), "static");
    }
}
