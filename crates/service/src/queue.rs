//! Tenant-fair ready queue with delayed (retry-backoff) entries.
//!
//! Scheduling is round-robin: tenants with ready work sit in a rotation,
//! and each visit serves the tenant's head job. That is exactly the
//! fairness the service needs: a tenant flooding the queue with hundreds
//! of submissions still only gets one slot per rotation, so a polite
//! tenant's single query dispatches after at most `#tenants` pops, never
//! after the flood.
//!
//! Retry backoff lands in a delayed min-heap keyed by ready time; due
//! entries are promoted into their tenant's ready queue before every pop,
//! and poppers sleep no longer than the next promotion time.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A submission travelling through the queue/dispatch lifecycle.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Process-unique query id.
    pub id: u64,
    /// Submitting tenant (fairness + quota key).
    pub tenant: String,
    /// Monitor-facing label.
    pub label: String,
    /// Workload text.
    pub sql: String,
    /// Total deadline budget measured from `submitted`.
    pub deadline: Option<Duration>,
    /// When the submission was accepted (or recovered) — queue wait counts
    /// against the deadline from here.
    pub submitted: Instant,
    /// Completed execution attempts so far (0 for a fresh submission).
    pub attempt: u32,
}

/// Admission-control bounds enforced at submit time.
#[derive(Debug, Clone)]
pub struct AdmissionConfig {
    /// Max submissions queued or delayed across all tenants.
    pub max_queue_depth: usize,
    /// Max in-system (queued + delayed + running) submissions per tenant.
    pub max_tenant_inflight: usize,
    /// `Retry-After` hint handed to shed clients.
    pub retry_after: Duration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 256,
            max_tenant_inflight: 32,
            retry_after: Duration::from_secs(1),
        }
    }
}

/// Why a submission was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The global queue is at `max_queue_depth`.
    QueueFull,
    /// The tenant is at `max_tenant_inflight`.
    TenantCap,
}

impl RejectReason {
    /// Stable label used in metrics and error bodies.
    pub fn label(self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::TenantCap => "tenant_cap",
        }
    }
}

/// Outcome of a blocking pop.
#[derive(Debug)]
pub enum Pop {
    /// A job is ready to dispatch.
    Job(JobSpec),
    /// Nothing became ready within the timeout.
    Timeout,
    /// The queue was closed; workers should exit without draining.
    Closed,
}

#[derive(Default)]
struct QState {
    /// Each tenant's ready jobs, in arrival order.
    tenants: BTreeMap<String, VecDeque<JobSpec>>,
    /// Rotation of tenant names with non-empty ready queues.
    rotation: VecDeque<String>,
    /// (ready_at, id) min-heap of backoff entries.
    delayed: BinaryHeap<Reverse<(Instant, u64)>>,
    delayed_jobs: BTreeMap<u64, JobSpec>,
    ready: usize,
    closed: bool,
}

/// The service's ready queue. Thread-safe; poppers block on a condvar.
#[derive(Default)]
pub(crate) struct ReadyQueue {
    state: Mutex<QState>,
    cv: Condvar,
}

impl ReadyQueue {
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    fn lock(&self) -> MutexGuard<'_, QState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Enqueue a ready job at its tenant's tail.
    pub fn push(&self, job: JobSpec) {
        let mut s = self.lock();
        Self::push_locked(&mut s, job);
        drop(s);
        self.cv.notify_one();
    }

    fn push_locked(s: &mut QState, job: JobSpec) {
        let ready = s.tenants.entry(job.tenant.clone()).or_default();
        if ready.is_empty() {
            s.rotation.push_back(job.tenant.clone());
        }
        ready.push_back(job);
        s.ready += 1;
    }

    /// Park a job until `ready_at` (retry backoff).
    pub fn push_delayed(&self, job: JobSpec, ready_at: Instant) {
        let mut s = self.lock();
        s.delayed.push(Reverse((ready_at, job.id)));
        s.delayed_jobs.insert(job.id, job);
        drop(s);
        // Wake a popper so its sleep shrinks to the new promotion time.
        self.cv.notify_one();
    }

    /// Queued + delayed jobs (the admission-control depth).
    pub fn depth(&self) -> usize {
        let s = self.lock();
        s.ready + s.delayed_jobs.len()
    }

    /// Remove a queued or delayed job by id (cancellation). Returns the
    /// job if it had not yet been dispatched.
    pub fn remove(&self, id: u64) -> Option<JobSpec> {
        let mut s = self.lock();
        if let Some(job) = s.delayed_jobs.remove(&id) {
            // The heap entry stays; promotion skips ids no longer present.
            return Some(job);
        }
        for ready in s.tenants.values_mut() {
            if let Some(pos) = ready.iter().position(|j| j.id == id) {
                let job = ready.remove(pos);
                s.ready -= 1;
                return job;
            }
        }
        None
    }

    /// Remove and return everything still queued or delayed (drain).
    pub fn drain_all(&self) -> Vec<JobSpec> {
        let mut s = self.lock();
        let mut out = Vec::with_capacity(s.ready + s.delayed_jobs.len());
        for (_, ready) in std::mem::take(&mut s.tenants) {
            out.extend(ready);
        }
        s.rotation.clear();
        s.ready = 0;
        s.delayed.clear();
        out.extend(std::mem::take(&mut s.delayed_jobs).into_values());
        out.sort_by_key(|j| j.id);
        out
    }

    /// Close the queue: poppers drain to [`Pop::Closed`] without taking
    /// further work, leaving queued jobs journaled as pending.
    pub fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }

    /// Blocking pop with round-robin tenant selection.
    pub fn pop(&self, timeout: Duration) -> Pop {
        let deadline = Instant::now() + timeout;
        let mut s = self.lock();
        loop {
            if s.closed {
                return Pop::Closed;
            }
            Self::promote_due(&mut s, Instant::now());
            if let Some(job) = Self::pop_locked(&mut s) {
                return Pop::Job(job);
            }
            let now = Instant::now();
            if now >= deadline {
                return Pop::Timeout;
            }
            let mut wait = deadline - now;
            if let Some(&Reverse((at, _))) = s.delayed.peek() {
                wait = wait
                    .min(at.saturating_duration_since(now))
                    .max(Duration::from_millis(1));
            }
            s = self
                .cv
                .wait_timeout(s, wait)
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .0;
        }
    }

    fn promote_due(s: &mut QState, now: Instant) {
        while let Some(&Reverse((at, id))) = s.delayed.peek() {
            if at > now {
                break;
            }
            s.delayed.pop();
            // Cancelled-while-delayed jobs leave a stale heap entry.
            if let Some(job) = s.delayed_jobs.remove(&id) {
                Self::push_locked(s, job);
            }
        }
    }

    fn pop_locked(s: &mut QState) -> Option<JobSpec> {
        // Every visit either serves the tenant or drops it from the
        // rotation (drained, or drained and removed).
        while let Some(name) = s.rotation.pop_front() {
            let Some(ready) = s.tenants.get_mut(&name) else {
                continue;
            };
            let Some(job) = ready.pop_front() else {
                continue;
            };
            s.ready -= 1;
            if ready.is_empty() {
                s.tenants.remove(&name);
            } else {
                s.rotation.push_back(name);
            }
            return Some(job);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn job(id: u64, tenant: &str) -> JobSpec {
        JobSpec {
            id,
            tenant: tenant.to_string(),
            label: format!("j{id}"),
            sql: "select 1".to_string(),
            deadline: None,
            submitted: Instant::now(),
            attempt: 0,
        }
    }

    fn pop_id(q: &ReadyQueue) -> u64 {
        match q.pop(Duration::from_millis(500)) {
            Pop::Job(j) => j.id,
            other => panic!("expected a job, got {other:?}"),
        }
    }

    #[test]
    fn round_robin_interleaves_a_flooding_tenant() {
        let q = ReadyQueue::new();
        for id in 1..=6 {
            q.push(job(id, "flood"));
        }
        q.push(job(10, "polite"));
        q.push(job(11, "calm"));
        // flood arrived first so it leads the rotation, but polite and calm
        // each get a slot per rotation instead of waiting out the flood.
        let order: Vec<u64> = (0..8).map(|_| pop_id(&q)).collect();
        assert_eq!(order[..4], [1, 10, 11, 2], "{order:?}");
        assert_eq!(order[4..], [3, 4, 5, 6], "{order:?}");
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn delayed_jobs_promote_at_ready_time() {
        let q = ReadyQueue::new();
        q.push_delayed(job(1, "t"), Instant::now() + Duration::from_millis(40));
        assert_eq!(q.depth(), 1);
        assert!(matches!(q.pop(Duration::from_millis(5)), Pop::Timeout));
        let start = Instant::now();
        assert_eq!(pop_id(&q), 1);
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "{:?}",
            start.elapsed()
        );
    }

    #[test]
    fn remove_covers_ready_and_delayed() {
        let q = ReadyQueue::new();
        q.push(job(1, "t"));
        q.push_delayed(job(2, "t"), Instant::now() + Duration::from_secs(60));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.remove(2).map(|j| j.id), Some(2));
        assert_eq!(q.remove(1).map(|j| j.id), Some(1));
        assert!(q.remove(1).is_none());
        assert_eq!(q.depth(), 0);
        // The stale heap entry for 2 must not resurrect anything.
        assert!(matches!(q.pop(Duration::from_millis(5)), Pop::Timeout));
    }

    #[test]
    fn close_wakes_blocked_poppers() {
        let q = Arc::new(ReadyQueue::new());
        let q2 = Arc::clone(&q);
        let h = std::thread::spawn(move || q2.pop(Duration::from_secs(30)));
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert!(matches!(h.join().unwrap(), Pop::Closed));
    }

    #[test]
    fn drain_all_empties_both_stores() {
        let q = ReadyQueue::new();
        q.push(job(1, "a"));
        q.push(job(2, "b"));
        q.push_delayed(job(3, "a"), Instant::now() + Duration::from_secs(60));
        let drained: Vec<u64> = q.drain_all().into_iter().map(|j| j.id).collect();
        assert_eq!(drained, vec![1, 2, 3]);
        assert_eq!(q.depth(), 0);
    }
}
