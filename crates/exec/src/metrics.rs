//! Lock-free per-operator execution counters.
//!
//! The gnm progress model needs, for every operator `i`, the `getnext()`
//! calls made so far (`K_i`) and the current estimate of the lifetime total
//! (`N_i`). Operators own an [`OpMetrics`] handle and update it with relaxed
//! atomics — the cost per tuple is a couple of uncontended atomic
//! increments, which is what keeps the framework lightweight. A progress
//! monitor holds the same handles through a [`MetricsRegistry`] and reads
//! them at any time, from any thread.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, OnceLock};

use qprog_core::baseline::{Baseline, Rule};
use qprog_types::QResult;

use crate::governor::Governor;
use crate::trace::{DegradeReason, EstimateSource, EventBus, Phase, TraceEventKind};

/// Relative change in `N_i` below which an estimate refinement is *not*
/// traced. Keeps the event stream bounded when baselines (dne/byte) nudge
/// the estimate every driver tuple while still capturing every material
/// refinement.
pub const TRACE_REFINE_REL_EPS: f64 = 0.01;

/// Whether `new` differs from the last traced `last` by more than
/// [`TRACE_REFINE_REL_EPS`] (always true when nothing was traced yet).
pub fn materially_different(last: f64, new: f64) -> bool {
    !last.is_finite() || (new - last).abs() > TRACE_REFINE_REL_EPS * last.abs().max(1.0)
}

/// How many observed work units elapse between `Instant` reads for the
/// wall-time span. Matches the governor's deadline stride so the traced
/// path's clock cost stays amortized to the same degree as deadline checks.
const WALL_STAMP_STRIDE: u64 = crate::governor::DEADLINE_STRIDE;

/// Sentinel for "never stamped" in the wall-span atomics.
const WALL_UNSET: u64 = u64::MAX;

/// Per-operator tracing state: the bus, this operator's registry index, and
/// the estimate and interval endpoints as last traced moving (f64 bit
/// patterns, NaN = never published).
#[derive(Debug)]
struct TraceHandle {
    bus: Arc<EventBus>,
    op: u32,
    last_estimate: AtomicU64,
    last_lo: AtomicU64,
    last_hi: AtomicU64,
    /// First observed-work timestamp (µs since bus epoch; `WALL_UNSET` =
    /// never stamped).
    first_us: AtomicU64,
    /// Most recent observed-work timestamp (µs since bus epoch).
    last_us: AtomicU64,
}

impl TraceHandle {
    fn new(bus: Arc<EventBus>, op: u32) -> Self {
        TraceHandle {
            bus,
            op,
            last_estimate: AtomicU64::new(f64::NAN.to_bits()),
            last_lo: AtomicU64::new(f64::NAN.to_bits()),
            last_hi: AtomicU64::new(f64::NAN.to_bits()),
            first_us: AtomicU64::new(WALL_UNSET),
            last_us: AtomicU64::new(WALL_UNSET),
        }
    }

    /// Count observed work; stamp the wall-span endpoints on the first
    /// unit and whenever a counter crosses a [`WALL_STAMP_STRIDE`]
    /// boundary. `prev` is the counter value before this unit of work —
    /// the caller's own `fetch_add` result — so the traced hot path adds
    /// no atomic beyond the counters the untraced path already maintains.
    #[inline]
    fn tick(&self, prev: u64, units: u64) {
        if prev == 0 || prev / WALL_STAMP_STRIDE != (prev + units) / WALL_STAMP_STRIDE {
            self.stamp();
        }
    }

    /// Read the epoch clock once and extend the observed span.
    fn stamp(&self) {
        let now = self.bus.epoch().elapsed().as_micros() as u64;
        self.first_us.fetch_min(now, Ordering::Relaxed);
        // fetch_max is safe against WALL_UNSET because the span is only
        // read through `wall_span_us`, which requires first_us to be set.
        if self.last_us.load(Ordering::Relaxed) == WALL_UNSET {
            self.last_us.store(now, Ordering::Relaxed);
        } else {
            self.last_us.fetch_max(now, Ordering::Relaxed);
        }
    }

    /// The inclusive observed wall span `[first, last]` in µs, if any work
    /// was ever stamped.
    fn wall_span_us(&self) -> Option<u64> {
        let first = self.first_us.load(Ordering::Relaxed);
        if first == WALL_UNSET {
            return None;
        }
        let last = self.last_us.load(Ordering::Relaxed);
        if last == WALL_UNSET {
            return None;
        }
        Some(last.saturating_sub(first))
    }

    /// Trace `N_i = new` from `source` with its interval, if any; `old` is
    /// the estimate as last traced moving. An online publication is traced
    /// only when `N_i` or an endpoint has moved materially since it was
    /// last traced moving.
    fn refined(&self, new: f64, source: EstimateSource, bounds: Option<(f64, f64)>) {
        let last = |bits: &AtomicU64| f64::from_bits(bits.load(Ordering::Relaxed));
        let old = last(&self.last_estimate);
        let moved = materially_different(old, new);
        let bracket_moved = bounds.is_some_and(|(lo, hi)| {
            materially_different(last(&self.last_lo), lo)
                || materially_different(last(&self.last_hi), hi)
        });
        if source == EstimateSource::Online && !moved && !bracket_moved {
            return;
        }
        if moved {
            self.last_estimate.store(new.to_bits(), Ordering::Relaxed);
        }
        let (lo, hi) = bounds.unwrap_or((f64::NAN, f64::NAN));
        if bracket_moved {
            self.last_lo.store(lo.to_bits(), Ordering::Relaxed);
            self.last_hi.store(hi.to_bits(), Ordering::Relaxed);
        }
        self.bus.publish(TraceEventKind::EstimateRefined {
            op: self.op,
            old,
            new,
            source,
            lo,
            hi,
        });
    }
}

/// Counters for a single operator.
#[derive(Debug, Default)]
pub struct OpMetrics {
    /// `K_i`: tuples emitted so far.
    emitted: AtomicU64,
    /// Current estimate of `N_i` (f64 bit pattern).
    estimated_total: AtomicU64,
    /// Lower confidence bound on `N_i` (f64 bits; NaN = unset).
    estimated_lo: AtomicU64,
    /// Upper confidence bound on `N_i` (f64 bits; NaN = unset).
    estimated_hi: AtomicU64,
    /// Tuples consumed from the operator's driver input (for estimators and
    /// diagnostics).
    driver_consumed: AtomicU64,
    /// Set once the operator has returned `None`.
    finished: AtomicBool,
    /// Worker threads that contributed to this operator's parallel phases
    /// (0 = serial execution; see [`record_worker_busy`](Self::record_worker_busy)).
    workers: AtomicU32,
    /// The phase of the last [`trace_phase`](Self::trace_phase) transition,
    /// as its index in [`Phase::ALL`] plus one (0 = no transition yet).
    phase: AtomicU8,
    /// The dne/byte rule this operator's `N_i` follows, with `E_opt`, the
    /// optimizer's estimate of its output ([`bind_baseline`](Self::bind_baseline)).
    rule: OnceLock<(Rule, f64)>,
    /// The bound rule over its driver's size `N_driver`, once that is known
    /// ([`arm_baseline`](Self::arm_baseline)): what publishes.
    armed: OnceLock<Baseline>,
    /// Trace publication state; `None` (the default) makes every trace hook
    /// a single branch.
    trace: Option<TraceHandle>,
    /// Lifecycle governor shared by the whole query; `None` (the default)
    /// makes [`checkpoint`](Self::checkpoint) a single branch.
    governor: Option<Arc<Governor>>,
}

impl OpMetrics {
    /// Fresh counters with an initial (optimizer) total estimate.
    pub fn with_initial_estimate(estimate: f64) -> Arc<Self> {
        OpMetrics::build(estimate, None, None)
    }

    /// Counters that publish [`TraceEventKind`] events for estimate
    /// refinements and phase transitions through `trace` (the initial
    /// optimizer estimate is traced immediately, with `old = NaN`) and check
    /// in with `governor`.
    fn build(
        estimate: f64,
        trace: Option<TraceHandle>,
        governor: Option<Arc<Governor>>,
    ) -> Arc<Self> {
        let m = OpMetrics {
            trace,
            governor,
            ..OpMetrics::default()
        };
        if let Some(t) = &m.trace {
            t.refined(estimate.max(0.0), EstimateSource::Optimizer, None);
        }
        m.set_estimated_total(estimate, None);
        m.estimated_lo.store(f64::NAN.to_bits(), Ordering::Relaxed);
        m.estimated_hi.store(f64::NAN.to_bits(), Ordering::Relaxed);
        Arc::new(m)
    }

    /// The published confidence bounds on `N_i`, if any; both are clamped
    /// below by `K_i` (work already done is certain).
    pub fn estimated_bounds(&self) -> Option<(f64, f64)> {
        let lo = f64::from_bits(self.estimated_lo.load(Ordering::Relaxed));
        let hi = f64::from_bits(self.estimated_hi.load(Ordering::Relaxed));
        if lo.is_nan() || hi.is_nan() {
            return None;
        }
        if self.is_finished() {
            let k = self.emitted() as f64;
            return Some((k, k));
        }
        let k = self.emitted() as f64;
        Some((lo.max(k), hi.max(k)))
    }

    /// Record one emitted tuple.
    #[inline]
    pub fn record_emitted(&self) {
        let prev = self.emitted.fetch_add(1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.tick(prev, 1);
        }
    }

    /// Record `n` emitted tuples at once — the batch-boundary form of
    /// [`record_emitted`](Self::record_emitted). One atomic add per batch;
    /// [`TraceHandle::tick`] already handles multi-unit advances (it stamps
    /// whenever the counter crosses a stride boundary), so wall-span
    /// attribution is unchanged.
    #[inline]
    pub fn record_emitted_n(&self, n: u64) {
        if n == 0 {
            return;
        }
        let prev = self.emitted.fetch_add(n, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.tick(prev, n);
        }
    }

    /// Cooperative lifecycle checkpoint: charge `units` tuples of work to
    /// the query's [`Governor`], failing fast on cancellation, deadline
    /// expiry, or a row-budget breach. A single branch when no governor is
    /// attached.
    #[inline]
    pub fn checkpoint(&self, units: u64) -> QResult<()> {
        match &self.governor {
            Some(g) => g.check(units),
            None => Ok(()),
        }
    }

    /// The query governor shared with this operator, if any.
    pub fn governor(&self) -> Option<&Arc<Governor>> {
        self.governor.as_ref()
    }

    /// Whether `bytes` of estimator histogram memory breaches the query's
    /// soft histogram budget (no governor or no budget → never).
    pub fn hist_budget_exceeded(&self, bytes: usize) -> bool {
        self.governor
            .as_ref()
            .is_some_and(|g| g.hist_budget_exceeded(bytes))
    }

    /// Trace that this operator's estimator degraded to a cheaper baseline
    /// (no-op without an attached bus).
    pub fn trace_degraded(&self, reason: DegradeReason) {
        if let Some(t) = &self.trace {
            t.bus
                .publish(TraceEventKind::EstimatorDegraded { op: t.op, reason });
        }
    }

    /// Record `n` driver tuples consumed.
    #[inline]
    pub fn record_driver(&self, n: u64) {
        let prev = self.driver_consumed.fetch_add(n, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.tick(prev, n);
        }
    }

    /// Publish a new estimate of the lifetime total `N_i`, with the
    /// confidence interval around it when the estimator has one (§4.1's
    /// `β`-style guarantees, surfaced to progress monitors). An inverted
    /// interval (an estimator bug, or a caller mixing up arguments) is
    /// repaired by swapping its endpoints, and both are clamped at 0, so
    /// [`estimated_bounds`](Self::estimated_bounds) never returns `lo > hi`.
    #[inline]
    pub fn set_estimated_total(&self, estimate: f64, bounds: Option<(f64, f64)>) {
        let estimate = estimate.max(0.0);
        self.estimated_total
            .store(estimate.to_bits(), Ordering::Relaxed);
        let bounds = bounds.map(|(lo, hi)| {
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            (lo.max(0.0), hi.max(0.0))
        });
        if let Some((lo, hi)) = bounds {
            self.estimated_lo.store(lo.to_bits(), Ordering::Relaxed);
            self.estimated_hi.store(hi.to_bits(), Ordering::Relaxed);
        }
        if let Some(t) = &self.trace {
            if !self.is_finished() {
                t.refined(estimate, EstimateSource::Online, bounds);
            }
        }
    }

    /// Bind the dne or byte `rule` this operator's `N_i` follows, with
    /// `E_opt = optimizer_estimate`. The rule is bound once (a later bind
    /// is ignored) and publishes nothing until it is armed.
    pub fn bind_baseline(&self, rule: Rule, optimizer_estimate: f64) {
        _ = self.rule.set((rule, optimizer_estimate));
    }

    /// Arm the bound rule with its driver's size `N_driver` and republish
    /// `E_opt`: from here on every [`record_driven`](Self::record_driven)
    /// re-reads the rule. Does nothing when no rule is bound or it is
    /// already armed.
    pub fn arm_baseline(&self, driver_total: u64) {
        if let Some(&(rule, optimizer_estimate)) = self.rule.get() {
            let baseline = Baseline {
                rule,
                driver_total,
                optimizer_estimate,
            };
            if self.armed.set(baseline).is_ok() {
                self.set_estimated_total(optimizer_estimate, None);
            }
        }
    }

    /// Record `driver` driver tuples consumed and `emitted` tuples emitted,
    /// then publish the armed rule's estimate over the new counts, if any.
    #[inline]
    pub fn record_driven(&self, driver: u64, emitted: u64) {
        if driver > 0 {
            self.record_driver(driver);
        }
        self.record_emitted_n(emitted);
        self.refine();
    }

    /// Publish the armed rule's estimate over this operator's own counters:
    /// `K_out` is [`emitted`](Self::emitted) and `K_driver` is
    /// [`driver_consumed`](Self::driver_consumed).
    #[inline]
    fn refine(&self) {
        if let Some(baseline) = self.armed.get() {
            let estimate = baseline.estimate(self.emitted(), self.driver_consumed());
            self.set_estimated_total(estimate, None);
        }
    }

    /// Mark the operator finished (its `N_i` is now exactly `K_i`).
    pub fn mark_finished(&self) {
        let first = !self.finished.swap(true, Ordering::Relaxed);
        let k = self.emitted();
        self.set_estimated_total(k as f64, None);
        if first {
            if let Some(t) = &self.trace {
                t.refined(k as f64, EstimateSource::Exact, None);
                // Close the observed span at the finish instant so the
                // stride's tail (< 64 unstamped ticks) is attributed, then
                // publish the final attribution.
                if t.first_us.load(Ordering::Relaxed) != WALL_UNSET {
                    t.stamp();
                }
                if let Some(wall_us) = t.wall_span_us() {
                    t.bus
                        .publish(TraceEventKind::OperatorWallTime { op: t.op, wall_us });
                }
                t.bus.publish(TraceEventKind::OperatorFinished {
                    op: t.op,
                    emitted: k,
                });
            }
        }
    }

    /// Record a phase boundary crossing, and trace it when a bus is
    /// attached. Operators call this at blocking-phase transitions only —
    /// never per tuple.
    pub fn trace_phase(&self, from: Phase, to: Phase) {
        self.phase.store(to as u8 + 1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.bus
                .publish(TraceEventKind::PhaseTransition { op: t.op, from, to });
        }
    }

    /// The phase the operator last transitioned into, `None` before its
    /// first transition.
    pub fn phase(&self) -> Option<Phase> {
        let code = self.phase.load(Ordering::Relaxed);
        Phase::ALL.get(usize::from(code).checked_sub(1)?).copied()
    }

    /// `K_i`: tuples emitted so far.
    pub fn emitted(&self) -> u64 {
        self.emitted.load(Ordering::Relaxed)
    }

    /// Driver tuples consumed so far.
    pub fn driver_consumed(&self) -> u64 {
        self.driver_consumed.load(Ordering::Relaxed)
    }

    /// Current `N_i` estimate (never below `K_i`).
    pub fn estimated_total(&self) -> f64 {
        let raw = f64::from_bits(self.estimated_total.load(Ordering::Relaxed));
        raw.max(self.emitted() as f64)
    }

    /// Whether the operator has finished.
    pub fn is_finished(&self) -> bool {
        self.finished.load(Ordering::Relaxed)
    }

    /// Record one worker thread's busy time inside this operator's
    /// partition-parallel phases. Publishes a
    /// [`TraceEventKind::WorkerWallTime`] event when traced (serial
    /// execution never calls this, so single-threaded traces stay
    /// byte-identical to pre-parallel builds).
    pub fn record_worker_busy(&self, worker: u32, busy: std::time::Duration) {
        self.workers.fetch_max(worker + 1, Ordering::Relaxed);
        if let Some(t) = &self.trace {
            t.bus.publish(TraceEventKind::WorkerWallTime {
                op: t.op,
                worker,
                busy_us: busy.as_micros() as u64,
            });
        }
    }

    /// How many worker threads contributed to this operator's parallel
    /// phases, or `None` for (so-far) serial execution.
    pub fn workers(&self) -> Option<u32> {
        match self.workers.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// The operator's observed active wall span in µs — the inclusive
    /// first-to-last-work interval measured by epoch-clock reads amortized
    /// over [`WALL_STAMP_STRIDE`] work units. `None` when untraced or
    /// before any work is observed. Like `EXPLAIN ANALYZE` inclusive time,
    /// a parent operator's span contains its children's.
    pub fn wall_us(&self) -> Option<u64> {
        self.trace.as_ref().and_then(|t| t.wall_span_us())
    }
}

/// All operators' metrics for one physical plan, in plan order.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    entries: Vec<(String, Arc<OpMetrics>)>,
    /// When set, every subsequently registered operator publishes trace
    /// events to this bus under its registry index.
    bus: Option<Arc<EventBus>>,
    /// When set, every subsequently registered operator checkpoints against
    /// this query-wide lifecycle governor.
    governor: Option<Arc<Governor>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// An empty registry whose operators will trace to `bus`.
    pub fn traced(bus: Arc<EventBus>) -> Self {
        MetricsRegistry {
            entries: Vec::new(),
            bus: Some(bus),
            governor: None,
        }
    }

    /// The attached event bus, if any.
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// Attach a query-wide lifecycle governor. Call before registering
    /// operators — only operators registered afterwards observe it.
    pub fn set_governor(&mut self, governor: Arc<Governor>) {
        self.governor = Some(governor);
    }

    /// The attached lifecycle governor, if any.
    pub fn governor(&self) -> Option<&Arc<Governor>> {
        self.governor.as_ref()
    }

    /// Register an operator; returns its metrics handle.
    pub fn register(&mut self, name: impl Into<String>, initial_estimate: f64) -> Arc<OpMetrics> {
        let op = self.entries.len() as u32;
        let trace = self
            .bus
            .as_ref()
            .map(|bus| TraceHandle::new(Arc::clone(bus), op));
        let m = OpMetrics::build(initial_estimate, trace, self.governor.clone());
        self.entries.push((name.into(), Arc::clone(&m)));
        m
    }

    /// Iterate `(name, metrics)` pairs in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<OpMetrics>)> + '_ {
        self.entries.iter().map(|(n, m)| (n.as_str(), m))
    }

    /// Number of registered operators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True iff no operators are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Metrics handle by registration index.
    pub fn get(&self, idx: usize) -> Option<&Arc<OpMetrics>> {
        self.entries.get(idx).map(|(_, m)| m)
    }

    /// Mark every operator finished, pinning each `N_i` to its `K_i`.
    ///
    /// Called when the plan root is exhausted: operators abandoned mid-way
    /// (e.g. below an early-terminating LIMIT) will never emit again, so
    /// their remaining estimated work must not keep progress below 1.
    pub fn finish_all(&self) {
        for (_, m) in self.iter() {
            m.mark_finished();
        }
    }

    /// Total `getnext()` calls so far across all operators (`C` over the
    /// registered set).
    pub fn total_emitted(&self) -> u64 {
        self.entries.iter().map(|(_, m)| m.emitted()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = OpMetrics::with_initial_estimate(100.0);
        assert_eq!(m.emitted(), 0);
        assert_eq!(m.estimated_total(), 100.0);
        for _ in 0..5 {
            m.record_emitted();
        }
        m.record_driver(3);
        assert_eq!(m.emitted(), 5);
        assert_eq!(m.driver_consumed(), 3);
    }

    #[test]
    fn estimate_never_below_emitted() {
        let m = OpMetrics::with_initial_estimate(2.0);
        for _ in 0..10 {
            m.record_emitted();
        }
        assert_eq!(m.estimated_total(), 10.0);
        m.set_estimated_total(50.0, None);
        assert_eq!(m.estimated_total(), 50.0);
    }

    #[test]
    fn finish_pins_estimate_to_emitted() {
        let m = OpMetrics::with_initial_estimate(1000.0);
        for _ in 0..7 {
            m.record_emitted();
        }
        m.mark_finished();
        assert!(m.is_finished());
        assert_eq!(m.estimated_total(), 7.0);
    }

    #[test]
    fn bound_rules_publish_over_the_counted_rows() {
        // The driver's size is armed late, as a join learns it at the end of
        // its probe phase: rows counted before then leave E_opt standing.
        for (rule, want) in [(Rule::Dne, 40.0), (Rule::Byte, 41.5)] {
            let m = OpMetrics::with_initial_estimate(50.0);
            m.bind_baseline(rule, 42.0);
            m.record_driven(0, 3);
            assert_eq!(m.estimated_total(), 50.0, "{rule:?}: not armed yet");
            m.arm_baseline(100);
            assert_eq!(m.estimated_total(), 42.0, "{rule:?}: E_opt republished");
            let baseline = Baseline {
                rule,
                driver_total: 100,
                optimizer_estimate: 42.0,
            };
            for (driver, emitted) in [(0, 0), (25, 7), (0, 2), (50, 0), (25, 30)] {
                m.record_driven(driver, emitted);
                let published = m.estimated_total();
                assert_eq!(
                    published.to_bits(),
                    baseline
                        .estimate(m.emitted(), m.driver_consumed())
                        .to_bits(),
                    "{rule:?} at ({}, {})",
                    m.emitted(),
                    m.driver_consumed()
                );
                if (m.emitted(), m.driver_consumed()) == (10, 25) {
                    // c = 0.25 after 10 rows out: dne 10 / 0.25; byte
                    // 0.75·42 + 0.25·(10/0.25) = 31.5 + 10.
                    assert_eq!(published, want, "{rule:?}");
                    // A second bind or arm changes nothing.
                    m.bind_baseline(Rule::Dne, 7.0);
                    m.arm_baseline(5);
                    assert_eq!(m.estimated_total(), want, "{rule:?}");
                }
            }
            assert_eq!((m.driver_consumed(), m.estimated_total()), (100, 42.0));
        }
        // Without a bound rule, counting moves no estimate.
        let m = OpMetrics::with_initial_estimate(42.0);
        m.arm_baseline(100);
        m.record_driven(50, 10);
        assert_eq!((m.driver_consumed(), m.emitted()), (50, 10));
        assert_eq!(m.estimated_total(), 42.0);
    }

    #[test]
    fn bounds_lifecycle() {
        let m = OpMetrics::with_initial_estimate(100.0);
        assert!(m.estimated_bounds().is_none());
        m.set_estimated_total(100.0, None);
        assert!(m.estimated_bounds().is_none());
        // an inverted interval is repaired, a negative endpoint clamped
        m.set_estimated_total(100.0, Some((120.0, -3.0)));
        assert_eq!(m.estimated_bounds(), Some((0.0, 120.0)));
        m.set_estimated_total(100.0, Some((80.0, 120.0)));
        assert_eq!(m.estimated_bounds(), Some((80.0, 120.0)));
        // clamped below by emitted work
        for _ in 0..90 {
            m.record_emitted();
        }
        assert_eq!(m.estimated_bounds(), Some((90.0, 120.0)));
        m.mark_finished();
        assert_eq!(m.estimated_bounds(), Some((90.0, 90.0)));
    }

    #[test]
    fn one_publication_is_at_most_one_event_carrying_its_bracket() {
        #[derive(Default)]
        struct Collect(crate::sync::Mutex<Vec<TraceEventKind>>);
        impl crate::trace::TraceSink for Collect {
            fn publish(&self, event: &crate::trace::TraceEvent) {
                self.0.lock().push(event.kind);
            }
        }
        let sink = Arc::new(Collect::default());
        let mut registry = MetricsRegistry::traced(EventBus::with_sink(sink.clone()));
        let m = registry.register("join", 100.0);
        let refined = || -> Vec<(f64, f64, f64, f64)> {
            let events = sink.0.lock();
            events
                .iter()
                .filter_map(|k| match *k {
                    TraceEventKind::EstimateRefined {
                        old,
                        new,
                        source: EstimateSource::Online,
                        lo,
                        hi,
                        ..
                    } => Some((old, new, lo, hi)),
                    _ => None,
                })
                .collect()
        };
        // N̂ and bracket both move: one event.
        m.set_estimated_total(200.0, Some((150.0, 250.0)));
        // Nothing moves by more than 1%: no event.
        m.set_estimated_total(201.0, Some((151.0, 251.0)));
        // Only the bracket moves: an event whose `old` is the estimate as
        // last traced moving.
        m.set_estimated_total(201.5, Some((190.0, 251.0)));
        // Only N̂ moves; the event carries the current bracket.
        m.set_estimated_total(300.0, Some((190.5, 251.0)));
        // A point estimate carries no bracket.
        m.set_estimated_total(400.0, None);
        let nan = f64::NAN;
        let want = [
            (100.0, 200.0, 150.0, 250.0),
            (200.0, 201.5, 190.0, 251.0),
            (200.0, 300.0, 190.5, 251.0),
            (300.0, 400.0, nan, nan),
        ];
        let got = refined();
        assert_eq!(got.len(), want.len(), "{got:?}");
        for (g, w) in got.iter().zip(want) {
            let same = |a: f64, b: f64| a == b || (a.is_nan() && b.is_nan());
            assert!(
                same(g.0, w.0) && same(g.1, w.1) && same(g.2, w.2) && same(g.3, w.3),
                "{got:?}"
            );
        }
        // Nothing is traced once the operator has finished.
        m.mark_finished();
        m.set_estimated_total(0.0, Some((0.0, 1e6)));
        assert_eq!(refined().len(), want.len());
    }

    #[test]
    fn negative_estimates_clamped() {
        let m = OpMetrics::with_initial_estimate(-5.0);
        assert_eq!(m.estimated_total(), 0.0);
    }

    #[test]
    fn registry_aggregates() {
        let mut reg = MetricsRegistry::new();
        let a = reg.register("scan", 10.0);
        let b = reg.register("join", 20.0);
        a.record_emitted();
        b.record_emitted();
        b.record_emitted();
        assert_eq!(reg.len(), 2);
        assert_eq!(reg.total_emitted(), 3);
        let estimated: f64 = reg.iter().map(|(_, m)| m.estimated_total()).sum();
        assert_eq!(estimated, 30.0);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["scan", "join"]);
        assert!(reg.get(1).is_some());
        assert!(reg.get(2).is_none());
    }

    #[test]
    fn registry_attaches_governor_to_operators() {
        let mut reg = MetricsRegistry::new();
        reg.set_governor(Arc::new(crate::governor::Governor::default()));
        let m = reg.register("scan", 0.0);
        m.checkpoint(1).unwrap();
        reg.governor().unwrap().cancel();
        assert!(m.checkpoint(1).unwrap_err().is_cancelled());
        // ungoverned metrics never fail checkpoints
        let free = OpMetrics::with_initial_estimate(0.0);
        free.checkpoint(1).unwrap();
        assert!(free.governor().is_none());
    }

    #[test]
    fn wall_span_is_stamped_by_multi_unit_advances() {
        // Batch execution advances counters by whole batches (e.g. 1024 ≫
        // the 64-unit stamp stride); the wall span must still be anchored
        // by the first unit and extended across every boundary crossing.
        let mut registry = MetricsRegistry::traced(crate::trace::EventBus::builder().build());
        let m = registry.register("a", 0.0);
        assert_eq!(m.wall_us(), None);
        m.record_emitted_n(1024);
        assert!(m.wall_us().is_some(), "first batch must stamp the span");
        m.record_emitted_n(1024);
        assert!(m.wall_us().is_some());
        // Sub-stride advances past the first unit also keep a valid span.
        let m2 = registry.register("b", 0.0);
        m2.record_driver(3);
        assert!(
            m2.wall_us().is_some(),
            "first units stamp even below stride"
        );
    }

    #[test]
    fn worker_busy_tracks_pool_width() {
        let m = OpMetrics::with_initial_estimate(0.0);
        assert_eq!(m.workers(), None);
        m.record_worker_busy(0, std::time::Duration::from_micros(10));
        m.record_worker_busy(3, std::time::Duration::from_micros(20));
        m.record_worker_busy(1, std::time::Duration::from_micros(5));
        assert_eq!(m.workers(), Some(4));
    }

    #[test]
    fn metrics_are_cross_thread_observable() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let writer = Arc::clone(&m);
        let handle = std::thread::spawn(move || {
            for i in 0..1000 {
                writer.record_emitted();
                writer.set_estimated_total(i as f64, None);
            }
            writer.mark_finished();
        });
        // reader just must never see torn/invalid values
        loop {
            let e = m.estimated_total();
            assert!(e >= 0.0 && e.is_finite());
            if m.is_finished() {
                break;
            }
        }
        handle.join().unwrap();
        assert_eq!(m.emitted(), 1000);
        assert_eq!(m.estimated_total(), 1000.0);
    }
}
