//! The live progress tracker bridging operator metrics to the gnm model.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use qprog_core::gnm::{PipelineProgress, PipelineState, ProgressSnapshot};
use qprog_exec::metrics::MetricsRegistry;
use qprog_exec::trace::{EventBus, TraceEventKind};

use crate::pipeline::PipelineSet;

/// Polls a query's operator metrics and produces gnm
/// [`ProgressSnapshot`]s. Cheap to clone and `Send`, so a monitor thread
/// can observe a query executing elsewhere.
///
/// **Future-pipeline refinement** (§4.4 / Chaudhuri et al.): an operator
/// that has not started yet still carries its optimizer estimate — but when
/// the online framework refines an estimate *below* it (e.g. a pipeline's
/// joins converge to exact cardinalities), every pending ancestor's `N_i`
/// is rescaled by the ratio `refined(input) / optimizer(input)`, clamped to
/// the hard lower bound of work already observed.
#[derive(Debug, Clone)]
pub struct ProgressTracker {
    registry: MetricsRegistry,
    pipelines: PipelineSet,
    /// Optimizer estimates frozen at compile time, per registry index.
    initial_estimates: Vec<f64>,
    /// Direct input operators (registry indices), per registry index.
    op_inputs: Vec<Vec<usize>>,
    /// Highest fraction any snapshot of this query has reported, as f64
    /// bits (non-negative floats order identically as u64 bits). Shared
    /// across clones so every watcher sees one monotone series: batch
    /// execution advances `K_i` and publishes `N_i` in separate atomic
    /// writes, and a sampler landing between them would otherwise see the
    /// ratio dip.
    high_water: Arc<AtomicU64>,
}

impl ProgressTracker {
    /// New tracker over a compiled query's metrics and pipeline
    /// decomposition, with the refinement structure: the compile-time
    /// optimizer estimate and the direct-input registry indices of every
    /// operator.
    pub fn new(
        registry: MetricsRegistry,
        pipelines: PipelineSet,
        initial_estimates: Vec<f64>,
        op_inputs: Vec<Vec<usize>>,
    ) -> Self {
        debug_assert_eq!(initial_estimates.len(), registry.len());
        debug_assert_eq!(op_inputs.len(), registry.len());
        ProgressTracker {
            registry,
            pipelines,
            initial_estimates,
            op_inputs,
            high_water: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The metrics registry (per-operator `K_i` and `N_i` estimates).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Per-operator `N_i` estimates with future-pipeline refinement
    /// applied: started operators report their own (online) estimate;
    /// pending ones scale their optimizer estimate by their inputs'
    /// refinement ratios.
    pub fn refined_estimates(&self) -> Vec<f64> {
        let n = self.registry.len();
        let mut refined = vec![f64::NAN; n];
        for i in 0..n {
            self.refine_op(i, &mut refined);
        }
        refined
    }

    /// Memoized bottom-up refinement of one operator (the input graph is a
    /// tree, so recursion depth is the plan depth).
    fn refine_op(&self, i: usize, refined: &mut [f64]) -> f64 {
        if !refined[i].is_nan() {
            return refined[i];
        }
        let m = self.registry.get(i).expect("index in range");
        let started = m.is_finished() || m.emitted() > 0 || m.driver_consumed() > 0;
        // Refined: someone has published an estimate over the optimizer's
        // (the `once` estimators do from the first probe/sort batch). `dne`
        // and `byte` republish the optimizer's number until `end_probe`, so
        // they stay on the cascade below.
        let published = || m.estimated_total() != self.initial_estimates[i].max(0.0);
        let value = if started || published() {
            m.estimated_total()
        } else {
            let mut ratio = 1.0f64;
            for &c in &self.op_inputs[i] {
                let init = self.initial_estimates[c].max(1.0);
                ratio *= (self.refine_op(c, refined) / init).max(0.0);
            }
            (self.initial_estimates[i] * ratio).max(m.emitted() as f64)
        };
        refined[i] = value;
        value
    }

    /// Point-in-time gnm snapshot (with refinement applied to pending
    /// pipelines) and its confidence bracket, both from one pass of
    /// refinement: operators that publish estimate intervals (the `once`
    /// estimators do, per §4.1's guarantees) contribute their bounds to
    /// `T(Q)`, others their refined point estimate.
    pub fn snapshot(&self) -> ProgressSnapshot {
        let refined = self.refined_estimates();
        // The bracket's totals, summed in registry order.
        let mut current: u64 = 0;
        let mut total_lo = 0.0f64;
        let mut total_hi = 0.0f64;
        for (i, (_, m)) in self.registry.iter().enumerate() {
            current += m.emitted();
            let (lo, hi) = m.estimated_bounds().unwrap_or((refined[i], refined[i]));
            total_lo += lo;
            total_hi += hi;
        }
        let frac = |total: f64| {
            if total <= 0.0 {
                0.0
            } else {
                (current as f64 / total).clamp(0.0, 1.0)
            }
        };
        let pipelines = self
            .pipelines
            .groups()
            .iter()
            .enumerate()
            .map(|(id, ops)| {
                let mut done: u64 = 0;
                let mut total: f64 = 0.0;
                let mut all_finished = !ops.is_empty();
                let mut any_activity = false;
                for &op in ops {
                    let m = self
                        .registry
                        .get(op)
                        .expect("pipeline references a registered operator");
                    done += m.emitted();
                    total += refined[op];
                    all_finished &= m.is_finished();
                    any_activity |= m.emitted() > 0 || m.driver_consumed() > 0 || m.is_finished();
                }
                let state = if all_finished {
                    PipelineState::Finished
                } else if any_activity {
                    PipelineState::Running
                } else {
                    PipelineState::Pending
                };
                let mut p = match state {
                    PipelineState::Finished => PipelineProgress::finished(id, done),
                    PipelineState::Running => PipelineProgress::running(id, done, total),
                    PipelineState::Pending => PipelineProgress::pending(id, total),
                };
                p.done = done;
                p
            })
            .collect();
        // A larger T(Q) means a smaller progress fraction.
        let snap = ProgressSnapshot::new(pipelines)
            .with_bracket(frac(total_hi), frac(total_lo.max(current as f64)));
        // Monotone clamp: remember the highest fraction ever reported and
        // never report below it. Non-negative f64 bit patterns compare
        // identically as integers, so fetch_max on the bits suffices.
        let bits = snap.raw_fraction().to_bits();
        let prev = self.high_water.fetch_max(bits, Ordering::AcqRel);
        snap.with_floor(f64::from_bits(prev.max(bits)))
    }

    /// Convenience: the gnm progress fraction right now.
    pub fn fraction(&self) -> f64 {
        self.snapshot().fraction()
    }
}

/// A snapshot goes out once `ΣK` has advanced by this share of the last
/// published `T̂` (or by one tuple, whichever is more).
const PUBLISH_EVERY: f64 = 1e-3;

/// A [`CompiledQuery::on_progress`](crate::CompiledQuery::on_progress)
/// subscriber.
pub type Subscriber = Box<dyn FnMut(&ProgressSnapshot) + Send>;

/// A query's one progress publication point.
///
/// The query's governor calls [`at_batch`](Self::at_batch) at the end of
/// every passing checkpoint, so snapshots are taken on the thread doing the
/// work, at operator batch boundaries — the only instants the gnm fraction
/// changes. Publication is rate-limited by work ([`PUBLISH_EVERY`]), and
/// the compiled query adds one terminal publication
/// ([`at_terminal`](Self::at_terminal)).
/// Each publication hands one [`ProgressTracker::snapshot`] to every
/// subscriber and, when the query is traced, emits it as the trace's only
/// source of `ProgressSampled` events.
pub(crate) struct Publisher {
    tracker: ProgressTracker,
    bus: Option<Arc<EventBus>>,
    /// `ΣK` at which the next publication is due.
    next_at: AtomicU64,
    /// Poisoned once a subscriber panicked: nothing more is published.
    subscribers: Mutex<Vec<Subscriber>>,
}

impl Publisher {
    pub(crate) fn new(tracker: ProgressTracker, bus: Option<Arc<EventBus>>) -> Self {
        Publisher {
            tracker,
            bus,
            next_at: AtomicU64::new(0),
            subscribers: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn subscribe(&self, f: Subscriber) {
        if let Ok(mut subscribers) = self.subscribers.lock() {
            subscribers.push(f);
        }
    }

    /// Publish if `ΣK` has moved far enough. A drain that finds the
    /// publisher busy (another worker is publishing) skips rather than
    /// blocks.
    pub(crate) fn at_batch(&self) {
        let due =
            || self.tracker.registry().total_emitted() >= self.next_at.load(Ordering::Relaxed);
        if !due() {
            return;
        }
        if let Ok(mut subscribers) = self.subscribers.try_lock() {
            if due() {
                self.publish(&mut subscribers);
            }
        }
    }

    /// The terminal publication: 1.0 once `finish_all` has pinned every
    /// total, or the frozen snapshot of an aborted query.
    pub(crate) fn at_terminal(&self) {
        if let Ok(mut subscribers) = self.subscribers.lock() {
            self.publish(&mut subscribers);
        }
    }

    fn publish(&self, subscribers: &mut [Subscriber]) {
        let snap = self.tracker.snapshot();
        let step = ((snap.total() * PUBLISH_EVERY) as u64).max(1);
        self.next_at
            .store(snap.current().saturating_add(step), Ordering::Relaxed);
        if let Some(bus) = &self.bus {
            let (lo, hi) = snap.bounds();
            bus.publish(TraceEventKind::ProgressSampled {
                current: snap.current(),
                total: snap.total(),
                fraction: snap.fraction(),
                lo,
                hi,
            });
        }
        for f in subscribers {
            f(&snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_metrics() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register("scan", 100.0);
        let b = reg.register("join", 300.0);
        let mut pipes = PipelineSet::new();
        let p0 = pipes.new_pipeline();
        let p1 = pipes.new_pipeline();
        pipes.assign(p0, 0);
        pipes.assign(p1, 1);

        let tracker = ProgressTracker::new(reg, pipes, vec![100.0, 300.0], vec![vec![]; 2]);
        // nothing has run: all pending, fraction 0
        let s = tracker.snapshot();
        assert_eq!(s.fraction(), 0.0);
        assert_eq!(s.pipelines().len(), 2);

        // scan finishes 100, join halfway
        for _ in 0..100 {
            a.record_emitted();
        }
        a.mark_finished();
        for _ in 0..150 {
            b.record_emitted();
        }
        let s = tracker.snapshot();
        assert_eq!(s.current(), 250);
        assert!((s.total() - 400.0).abs() < 1e-9);
        assert!((s.fraction() - 0.625).abs() < 1e-9);

        b.mark_finished();
        assert!(tracker.snapshot().is_complete());
        assert_eq!(tracker.fraction(), 1.0);
    }

    #[test]
    fn snapshot_fraction_never_regresses_when_estimates_rise() {
        // Batch execution publishes K_i and N_i in separate atomic writes;
        // a sampler between them must not see the fraction dip.
        let mut reg = MetricsRegistry::new();
        let scan = reg.register("scan", 1000.0);
        let agg = reg.register("hash_agg", 50.0);
        let mut pipes = PipelineSet::new();
        let p0 = pipes.new_pipeline();
        let p1 = pipes.new_pipeline();
        pipes.assign(p0, 0);
        pipes.assign(p1, 1);
        let tracker = ProgressTracker::new(reg, pipes, vec![1000.0, 50.0], vec![vec![]; 2]);
        scan.set_estimated_total(1000.0, None);
        for _ in 0..500 {
            scan.record_emitted();
        }
        agg.record_driver(500);
        let before = tracker.snapshot().fraction();
        // the group estimate rises with no counter advance: raw ratio drops
        agg.set_estimated_total(120.0, None);
        let after = tracker.snapshot().fraction();
        assert!(
            tracker.snapshot().raw_fraction() < before,
            "premise: the raw ratio did dip"
        );
        assert!(
            after >= before,
            "clamped fraction regressed: {after} < {before}"
        );
        // clones share the high-water mark
        assert!(tracker.clone().snapshot().fraction() >= before);
    }

    #[test]
    fn tracker_is_cloneable_and_shares_state() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register("op", 10.0);
        let mut pipes = PipelineSet::new();
        let p = pipes.new_pipeline();
        pipes.assign(p, 0);
        let tracker = ProgressTracker::new(reg, pipes, vec![10.0], vec![vec![]]);
        let clone = tracker.clone();
        a.record_emitted();
        assert_eq!(clone.snapshot().current(), 1);
    }

    #[test]
    fn snapshot_bracket_holds_the_point_estimate() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register("join", 100.0);
        let mut pipes = PipelineSet::new();
        let p = pipes.new_pipeline();
        pipes.assign(p, 0);
        let tracker = ProgressTracker::new(reg, pipes, vec![100.0], vec![vec![]]);
        for _ in 0..40 {
            a.record_emitted();
        }
        a.set_estimated_total(100.0, Some((80.0, 120.0)));
        let snap = tracker.snapshot();
        let (lo, hi) = snap.bounds();
        let point = snap.fraction();
        assert!(lo <= point && point <= hi, "{lo} ≤ {point} ≤ {hi}");
        assert!((lo - 40.0 / 120.0).abs() < 1e-9);
        assert!((hi - 40.0 / 80.0).abs() < 1e-9);
        // once finished, bounds collapse
        a.mark_finished();
        let (lo, hi) = tracker.snapshot().bounds();
        assert_eq!((lo, hi), (1.0, 1.0));
    }

    #[test]
    fn pending_estimates_scale_with_refined_inputs() {
        // plan: agg(idx 0) over join(idx 1); optimizer says join = 1000,
        // agg = 100. The join refines to 10× (10_000) while the agg is
        // still pending → the agg's N should scale to 1000.
        let mut reg = MetricsRegistry::new();
        let _agg = reg.register("hash_agg", 100.0);
        let join = reg.register("hash_join", 1000.0);
        let mut pipes = PipelineSet::new();
        let p0 = pipes.new_pipeline();
        let p1 = pipes.new_pipeline();
        pipes.assign(p0, 0);
        pipes.assign(p1, 1);
        let tracker = ProgressTracker::new(reg, pipes, vec![100.0, 1000.0], vec![vec![1], vec![]]);

        // join started and refined its estimate online
        join.record_driver(1);
        join.set_estimated_total(10_000.0, None);
        let refined = tracker.refined_estimates();
        assert_eq!(refined[1], 10_000.0);
        assert_eq!(refined[0], 1_000.0, "pending agg scales by the input ratio");

        // once the agg starts, its own estimate takes over
        let m0 = tracker.registry().get(0).unwrap();
        m0.record_driver(1);
        m0.set_estimated_total(4242.0, None);
        assert_eq!(tracker.refined_estimates()[0], 4242.0);
    }

    #[test]
    fn refinement_cascades_through_pending_chain() {
        // limit(0) ← sort(1) ← join(2); join refines 2×, both pending
        // ancestors scale 2×.
        let mut reg = MetricsRegistry::new();
        reg.register("limit", 50.0);
        reg.register("sort", 500.0);
        let join = reg.register("hash_join", 1000.0);
        let mut pipes = PipelineSet::new();
        let p = pipes.new_pipeline();
        for i in 0..3 {
            pipes.assign(p, i);
        }
        let (estimates, inputs) = (vec![50.0, 500.0, 1000.0], vec![vec![1], vec![2], vec![]]);
        let tracker = ProgressTracker::new(reg, pipes, estimates, inputs);
        join.record_driver(1);
        join.set_estimated_total(2000.0, None);
        let refined = tracker.refined_estimates();
        assert_eq!(refined[2], 2000.0);
        assert_eq!(refined[1], 1000.0);
        assert_eq!(refined[0], 100.0);
    }

    #[test]
    fn refinement_never_drops_below_observed_work() {
        let mut reg = MetricsRegistry::new();
        let top = reg.register("filter", 100.0);
        let child = reg.register("scan", 1000.0);
        let mut pipes = PipelineSet::new();
        let p = pipes.new_pipeline();
        pipes.assign(p, 0);
        pipes.assign(p, 1);
        let tracker = ProgressTracker::new(reg, pipes, vec![100.0, 1000.0], vec![vec![1], vec![]]);
        // child collapses to 1 row...
        child.record_driver(1);
        child.set_estimated_total(1.0, None);
        // ...but the filter already emitted 7
        for _ in 0..7 {
            top.record_emitted();
        }
        // started ops use their own estimate; simulate pending by a fresh
        // op: here top has emitted, so it reports its own estimate (≥ 7)
        assert!(tracker.refined_estimates()[0] >= 7.0);
    }
}
