//! The estimation protocol of joins with a preprocessing phase (§4.1.1–
//! 4.1.2), driven the same way by [`HashJoin`](crate::ops::HashJoin) and
//! [`MergeJoin`](crate::ops::MergeJoin), whose drains cut their input into
//! chunks and share the [`JoinEstimator`] by reference:
//!
//! 1. **Build** (hash build / first sort): `begin_build`; each chunk
//!    observes its batches into a private [`BuildFragment`]
//!    (`observe_build`); `end_build` folds the fragments in chunk order —
//!    the exact join-key histogram `N_R`, or the build side of an
//!    Algorithm-1 chain's estimator, which then moves on to the join below.
//! 2. **Probe** (probe partitioning / second sort): each chunk observes its
//!    batches into a private [`ProbeFragment`] (`observe_probe_keys`, and
//!    `observe_probe_rows` for a chain) and, when it publishes, folds it
//!    into the join's totals under one lock and publishes from the merged
//!    sums; `end_probe` fixes `|S|` — the estimate is exact before the
//!    first output row.
//! 3. **Join pass**: `observe_join_pass` charges one output batch's driver
//!    and emitted rows to the governor and the gnm counters, which a
//!    dne/byte baseline then reads; baselines only ever watch this phase.
//!
//! A serial drain is the one-chunk case: its fragment is folded as soon as
//! it is observed, so it publishes what the observation produced. The
//! operators decide *when* to publish (hash join: every batch boundary;
//! merge join: every [`PUBLISH_EVERY`](crate::ops::PUBLISH_EVERY)-th row);
//! everything else about estimation lives here.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use crate::sync::Mutex;
use qprog_core::baseline::{Baseline, Rule};
use qprog_core::distinct::DistinctTracker;
use qprog_core::freq_hist::FreqHist;
use qprog_core::join_est::{self, JoinKind, ProbeTotals};
use qprog_core::pipeline_est::{PipelineBuildFragment, PipelineEstimator, PipelineProbeFragment};
use qprog_types::{Key, QError, QResult, RowBatch, Value};

use crate::metrics::OpMetrics;
use crate::trace::DegradeReason;

/// `Z_α` used for published confidence bounds (two-sided 99%).
const CI_Z: f64 = 2.576;

/// What one join of an Algorithm-1 chain owns at a time: the push-down
/// estimator and every join's metrics, both indexed bottom-up.
type ChainState = (PipelineEstimator, Vec<Arc<OpMetrics>>);

/// Which online estimation strategy a hash or sort-merge join runs. The
/// *probe* input is the hash join's probe side / the merge join's right
/// (second-sorted) side.
pub enum JoinEstimation {
    /// No estimation.
    Off,
    /// The paper's framework on a standalone binary join; `probe_size_hint`
    /// is the known or optimizer-estimated probe input size.
    Once { probe_size_hint: u64 },
    /// Algorithm-1 pipeline push-down (§4.1.4; §4.1.4.3 for sort-merge
    /// chains); this join is `join_index` of the chain's estimator, which
    /// arrives in `inbox` and leaves through `below` at `end_build` — join
    /// 0 keeps it and drives the probe pass ([`JoinEstimation::pipeline`]).
    /// The inbox is locked only so that a drain's chunks can share the
    /// join's estimator by reference.
    Pipeline {
        join_index: usize,
        inbox: Mutex<Receiver<ChainState>>,
        below: Option<Sender<ChainState>>,
    },
    /// A dne or byte baseline over the join pass's counters (driver = probe
    /// rows consumed in the join pass, `N_driver` = the probe row count).
    Baseline { rule: Rule, optimizer_estimate: f64 },
}

impl JoinEstimation {
    /// The modes of an Algorithm-1 chain's joins, bottom-up, one channel per
    /// edge; the top join's already holds `estimator` and `metrics`.
    pub fn pipeline(estimator: PipelineEstimator, metrics: Vec<Arc<OpMetrics>>) -> Vec<Self> {
        let mut below = None;
        let modes = (0..metrics.len())
            .map(|join_index| {
                let (to_this, inbox) = mpsc::channel();
                let below = below.replace(to_this);
                Self::Pipeline {
                    join_index,
                    inbox: Mutex::new(inbox),
                    below,
                }
            })
            .collect();
        if let Some(to_top) = below {
            _ = to_top.send((estimator, metrics));
        }
        modes
    }
}

/// A `once` join's probe-pass state that workers fold into.
struct OnceTotals {
    totals: ProbeTotals,
    /// The aggregation push-down tracker, while the probe pass feeds it.
    tracker: Option<DistinctTracker>,
}

/// The estimator state a join owns in its current phase.
enum Stage {
    /// Nothing of its own: `Off`, `Once` before the end of its build, a
    /// pipeline join that has handed the chain's estimator down, or a
    /// baseline before the join pass.
    Idle,
    /// `Once`, from the end of the build phase on: the finished join-key
    /// histogram, read unlocked, and the totals behind one lock.
    Probing {
        hist: FreqHist,
        kind: JoinKind,
        acc: Box<Mutex<OnceTotals>>,
    },
    /// `Pipeline`, while this join owns the chain's estimator.
    Pipeline(Box<PipelineEstimator>, Vec<Arc<OpMetrics>>),
    /// A baseline, from the end of the probe phase on: a rule over the
    /// join's own counters.
    Baseline(Baseline),
}

/// Drives one join's [`JoinEstimation`] through the phases above and
/// publishes to the join's [`OpMetrics`].
pub(crate) struct JoinEstimator {
    mode: JoinEstimation,
    metrics: Arc<OpMetrics>,
    stage: Stage,
    /// Set by the first chunk whose build histogram outgrows the soft
    /// budget: every chunk then drops its histogram.
    degraded: AtomicBool,
    /// Aggregation push-down (§4.2 end): the tracker of the join key's
    /// distinct values in the join *output*, and where it goes at
    /// `end_probe`.
    tracker: Option<DistinctTracker>,
    to_agg: Option<Sender<DistinctTracker>>,
}

/// One chunk's private build-side estimator state.
pub(crate) enum BuildFragment {
    Off,
    /// `Once`: the chunk's join-key histogram, dropped on a budget breach.
    Hist(Option<FreqHist>),
    Chain(PipelineBuildFragment),
}

/// One chunk's private probe-side estimator state since its last fold.
#[derive(Default)]
pub(crate) struct ProbeFragment {
    /// `Once`: `(t, Σc, Σc²)` of the rows observed since the last fold.
    once: join_est::ProbeFragment,
    /// `Once`: the build-side multiplicities of the last keys observed.
    counts: Vec<u64>,
    /// Aggregation push-down: `(key, multiplicity)` of the matched rows.
    matched: Vec<(Key, u64)>,
    chain: PipelineProbeFragment,
}

impl JoinEstimator {
    pub fn new(mode: JoinEstimation, metrics: Arc<OpMetrics>) -> Self {
        JoinEstimator {
            mode,
            metrics,
            stage: Stage::Idle,
            degraded: AtomicBool::new(false),
            tracker: None,
            to_agg: None,
        }
    }

    /// Feed `tracker` the join key of every output row during the probe
    /// pass, and send it to the aggregate through `to_agg` at `end_probe`.
    pub fn push_down_agg(&mut self, tracker: DistinctTracker, to_agg: Sender<DistinctTracker>) {
        (self.tracker, self.to_agg) = (Some(tracker), Some(to_agg));
    }

    /// Start the build phase; a pipeline join takes the chain's estimator.
    pub fn begin_build(&mut self) -> QResult<()> {
        if let JoinEstimation::Pipeline {
            join_index, inbox, ..
        } = &self.mode
        {
            let (mut estimator, metrics) = inbox
                .lock()
                .try_recv()
                .map_err(|_| QError::internal("pipeline estimator not handed down"))?;
            estimator.begin_build(*join_index)?;
            self.stage = Stage::Pipeline(Box::new(estimator), metrics);
        }
        Ok(())
    }

    /// A fresh build fragment for one chunk.
    pub fn build_fragment(&self) -> QResult<BuildFragment> {
        Ok(match (&self.mode, &self.stage) {
            (JoinEstimation::Once { .. }, _) => BuildFragment::Hist(Some(FreqHist::new())),
            (JoinEstimation::Pipeline { join_index, .. }, Stage::Pipeline(estimator, _)) => {
                BuildFragment::Chain(estimator.build_fragment(*join_index)?)
            }
            _ => BuildFragment::Off,
        })
    }

    /// Observe one non-empty build batch into a chunk's `fragment`, in scan
    /// order, column at a time. The soft histogram-memory budget is checked
    /// after every batch: the first breach degrades the estimator one rung
    /// (exact frequency histogram → dne baseline, DESIGN.md §5) instead of
    /// aborting the query.
    pub fn observe_build(
        &self,
        fragment: &mut BuildFragment,
        batch: &RowBatch,
        key_col: usize,
    ) -> QResult<()> {
        match (fragment, &self.stage) {
            (BuildFragment::Hist(slot), _) => {
                let Some(hist) = slot else {
                    return Ok(());
                };
                hist.observe_column(batch.col(key_col), None)?;
                let breached = self.breaches_budget(hist);
                if breached || self.degraded.load(Ordering::Relaxed) {
                    *slot = None;
                }
            }
            (BuildFragment::Chain(fragment), Stage::Pipeline(estimator, _)) => {
                estimator.build_into(fragment, batch.cols(), batch.len())?
            }
            _ => {}
        }
        Ok(())
    }

    /// Whether `hist` outgrows the soft budget; the first breach is traced.
    fn breaches_budget(&self, hist: &FreqHist) -> bool {
        let breached = self.metrics.hist_budget_exceeded(hist.memory_allocated());
        if breached && !self.degraded.swap(true, Ordering::Relaxed) {
            self.metrics.trace_degraded(DegradeReason::HistogramMemory);
        }
        breached
    }

    /// End the build phase: fold the chunks' fragments in chunk order, the
    /// first moved into place. A `Once` join starts its probe totals, or
    /// degrades to dne if a chunk or the merged histogram breached the
    /// budget; a pipeline join hands the estimator down.
    pub fn end_build(&mut self, fragments: Vec<BuildFragment>, kind: JoinKind) -> QResult<()> {
        match (std::mem::replace(&mut self.stage, Stage::Idle), &self.mode) {
            (_, &JoinEstimation::Once { probe_size_hint }) => {
                let mut merged: Option<FreqHist> = None;
                for fragment in fragments {
                    match (&mut merged, fragment) {
                        (Some(hist), BuildFragment::Hist(Some(more))) => hist.merge(&more),
                        (None, BuildFragment::Hist(Some(first))) => merged = Some(first),
                        _ => {}
                    }
                }
                match merged.filter(|hist| !self.breaches_budget(hist)) {
                    Some(hist) if !self.degraded.load(Ordering::Relaxed) => {
                        let totals = ProbeTotals::new(probe_size_hint);
                        let tracker = self.tracker.take();
                        let acc = Box::new(Mutex::new(OnceTotals { totals, tracker }));
                        self.stage = Stage::Probing { hist, kind, acc };
                    }
                    _ => {
                        self.mode = JoinEstimation::Baseline {
                            rule: Rule::Dne,
                            optimizer_estimate: self.metrics.estimated_total(),
                        }
                    }
                }
            }
            (
                Stage::Pipeline(mut estimator, metrics),
                JoinEstimation::Pipeline {
                    join_index, below, ..
                },
            ) => {
                for fragment in fragments {
                    if let BuildFragment::Chain(fragment) = fragment {
                        estimator.fold_build(fragment);
                    }
                }
                estimator.end_build(*join_index)?;
                match below {
                    // A join below that is gone has nothing left to estimate.
                    Some(below) => _ = below.send((*estimator, metrics)),
                    None => self.stage = Stage::Pipeline(estimator, metrics),
                }
            }
            (stage, _) => self.stage = stage,
        }
        Ok(())
    }

    /// `D_{t+1}` over a run of probe-side join keys, in scan order, into a
    /// chunk's `fragment` (a no-op unless `Once`). A caller may cut a
    /// batch's key column wherever its publication cadence falls.
    pub fn observe_probe_keys(&self, fragment: &mut ProbeFragment, keys: &[Value]) -> QResult<()> {
        if let Stage::Probing { hist, kind, .. } = &self.stage {
            let counts = &mut fragment.counts;
            fragment.once.observe_batch(hist, *kind, keys, counts)?;
            if self.to_agg.is_some() {
                for (key, &mult) in keys.iter().zip(counts.iter()) {
                    if mult > 0 {
                        fragment.matched.push((Key::from_value(key)?, mult));
                    }
                }
            }
        }
        Ok(())
    }

    /// Algorithm-1 push-down: the join that owns the chain's estimator (join
    /// 0) observes one non-empty probe batch into a chunk's `fragment`,
    /// folds it in and publishes every join of the chain. Any other join
    /// observes nothing.
    pub fn observe_probe_rows(
        &self,
        fragment: &mut ProbeFragment,
        batch: &RowBatch,
    ) -> QResult<()> {
        if let Stage::Pipeline(estimator, metrics) = &self.stage {
            estimator.probe_into(&mut fragment.chain, batch.cols(), batch.len())?;
            publish_chain(&estimator.fold_probe(&mut fragment.chain), metrics);
        }
        Ok(())
    }

    /// Fold the `Once` keys a chunk observed since its last fold into the
    /// join's totals, and publish the estimate, its confidence bounds and
    /// the push-down tracker's input from the merged sums.
    pub fn publish(&self, fragment: &mut ProbeFragment) {
        let Stage::Probing { acc, .. } = &self.stage else {
            return;
        };
        if fragment.once.seen() == 0 {
            return;
        }
        let OnceTotals { totals, tracker } = &mut *acc.lock();
        totals.absorb(&std::mem::take(&mut fragment.once));
        let estimate = totals.estimate();
        self.metrics.set_estimated_total(estimate);
        let ci = totals.confidence_interval(CI_Z);
        self.metrics.set_estimated_bounds(ci.lo, ci.hi);
        if let Some(tracker) = tracker {
            for (key, mult) in fragment.matched.drain(..) {
                tracker.observe_n(&key, mult);
            }
            tracker.set_input_size(estimate.round() as u64);
        }
    }

    /// The probe input is exhausted after `probe_rows` rows: `|S|` is exact,
    /// so `Once` and pipeline estimates are too; the baselines start here.
    /// What the chunks observed since their last publication is folded in
    /// silently first, and the push-down tracker leaves for the aggregate.
    pub fn end_probe(&mut self, probe_rows: u64, rest: Vec<ProbeFragment>) {
        match &mut self.stage {
            Stage::Probing { acc, .. } => {
                let OnceTotals { totals, tracker } = &mut *acc.lock();
                rest.iter()
                    .for_each(|fragment| totals.absorb(&fragment.once));
                totals.set_probe_size(probe_rows);
                let exact = totals.estimate();
                self.metrics.set_estimated_total(exact);
                self.metrics.set_estimated_bounds(exact, exact);
                if let Some(mut done) = tracker.take() {
                    for (key, mult) in rest.iter().flat_map(|fragment| &fragment.matched) {
                        done.observe_n(key, *mult);
                    }
                    done.set_input_size(exact.round() as u64);
                    self.tracker = Some(done);
                }
            }
            Stage::Pipeline(estimator, metrics) => {
                estimator.set_probe_size(probe_rows);
                publish_chain(&estimator.totals(), metrics);
            }
            _ => {}
        }
        if let (Some(tracker), Some(to_agg)) = (self.tracker.take(), self.to_agg.take()) {
            // An aggregate that is gone has nothing left to publish.
            _ = to_agg.send(tracker);
        }
        if let JoinEstimation::Baseline {
            rule,
            optimizer_estimate,
        } = self.mode
        {
            self.stage = Stage::Baseline(Baseline {
                rule,
                driver_total: probe_rows,
                optimizer_estimate,
            });
            self.metrics.set_estimated_total(optimizer_estimate);
        }
    }

    /// Apply one output batch's accumulated bookkeeping: `driver_rows` probe
    /// rows consumed and `emitted_rows` rows emitted since the last call.
    /// Governor checkpoint and gnm counters advance by the summed deltas,
    /// and a baseline is re-read off them; with capacity-1 batches this
    /// runs once per tuple, the legacy cadence.
    pub fn observe_join_pass(&mut self, driver_rows: u64, emitted_rows: u64) -> QResult<()> {
        if driver_rows == 0 && emitted_rows == 0 {
            return Ok(());
        }
        if driver_rows > 0 {
            self.metrics.checkpoint(driver_rows)?;
            self.metrics.record_driver(driver_rows);
        }
        self.metrics.record_emitted_n(emitted_rows);
        if let Stage::Baseline(baseline) = &self.stage {
            self.metrics.refine(baseline);
        }
        Ok(())
    }
}

/// Publish every join's current estimate of an Algorithm-1 chain.
fn publish_chain(totals: &[ProbeTotals], metrics: &[Arc<OpMetrics>]) {
    if totals[0].probe_seen() > 0 {
        for (totals, m) in totals.iter().zip(metrics) {
            m.set_estimated_total(totals.estimate());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Budgets, Governor};
    use crate::metrics::MetricsRegistry;
    use crate::trace::{EventBus, TraceEvent, TraceEventKind, TraceSink};
    use std::sync::atomic::AtomicUsize;

    const BUILD: [i64; 4] = [1, 1, 2, 3];
    const PROBE: [Option<i64>; 6] = [Some(1), Some(2), Some(2), Some(4), Some(9), None];
    /// Optimizer estimate handed to every join under test.
    const OPTIMIZER: f64 = 13.0;

    impl JoinEstimator {
        /// Probe rows the chain's estimator has seen, if this join owns it.
        pub(crate) fn pipeline_probe_seen(&self) -> Option<u64> {
            match &self.stage {
                Stage::Pipeline(estimator, _) => Some(estimator.probe_seen()),
                _ => None,
            }
        }
    }

    /// One-column batch of join keys (`None` = NULL).
    fn keys(vals: &[Option<i64>]) -> RowBatch {
        let mut batch = RowBatch::with_capacity(1, vals.len());
        for v in vals {
            batch.push_drain(&mut vec![v.map_or(Value::Null, Value::Int64)]);
        }
        batch
    }

    fn some(vals: &[i64]) -> RowBatch {
        keys(&vals.iter().copied().map(Some).collect::<Vec<_>>())
    }

    /// Build phase over `build` as one worker, in batches of two.
    fn build_phase(est: &mut JoinEstimator, build: &[i64], kind: JoinKind) {
        est.begin_build().unwrap();
        let mut fragment = est.build_fragment().unwrap();
        for half in build.chunks(2) {
            est.observe_build(&mut fragment, &some(half), 0).unwrap();
        }
        est.end_build(vec![fragment], kind).unwrap();
    }

    /// Probe phase over `probe` — the last rows of a `total_rows`-row probe
    /// input — as one worker in batches of three, published at batch
    /// boundaries; returns the multiplicities the fragment was left with.
    fn probe_phase(est: &mut JoinEstimator, probe: &[Option<i64>], total_rows: u64) -> Vec<u64> {
        let (mut fragment, mut mults) = (ProbeFragment::default(), Vec::new());
        for chunk in probe.chunks(3) {
            let batch = keys(chunk);
            est.observe_probe_keys(&mut fragment, batch.col(0)).unwrap();
            mults.extend_from_slice(&fragment.counts);
            est.observe_probe_rows(&mut fragment, &batch).unwrap();
            est.publish(&mut fragment);
        }
        est.end_probe(total_rows, vec![fragment]);
        mults
    }

    #[test]
    fn once_is_exact_with_collapsed_bounds_after_end_probe_for_every_kind() {
        // 1 matches twice, each 2 once; 4, 9 and NULL match nothing.
        for (kind, truth) in [
            (JoinKind::Inner, 4.0),
            (JoinKind::Semi, 3.0),
            (JoinKind::Anti, 3.0),
            (JoinKind::LeftOuter, 7.0),
        ] {
            let m = OpMetrics::with_initial_estimate(OPTIMIZER);
            let mode = JoinEstimation::Once {
                probe_size_hint: 100, // wildly wrong; end_probe corrects it
            };
            let mut est = JoinEstimator::new(mode, Arc::clone(&m));
            build_phase(&mut est, &BUILD, kind);
            assert_eq!(m.estimated_bounds(), None, "{kind:?}");

            // Mid-probe: the running estimate, inside published bounds.
            let mut fragment = ProbeFragment::default();
            est.observe_probe_keys(&mut fragment, keys(&PROBE[..3]).col(0))
                .unwrap();
            assert_eq!(fragment.counts, [2, 1, 1]);
            assert_eq!(m.estimated_total(), OPTIMIZER, "nothing folded yet");
            est.publish(&mut fragment);
            let (lo, hi) = m.estimated_bounds().expect("bounds published");
            assert!(lo <= m.estimated_total() && m.estimated_total() <= hi);

            let mults = probe_phase(&mut est, &PROBE[3..], 6);
            assert_eq!(mults, [0, 0, 0], "{kind:?}");
            assert_eq!(m.estimated_total(), truth, "{kind:?}");
            assert_eq!(m.estimated_bounds(), Some((truth, truth)), "{kind:?}");

            // The join pass counts work but no longer moves the estimate.
            est.observe_join_pass(6, truth as u64).unwrap();
            assert_eq!((m.driver_consumed(), m.emitted()), (6, truth as u64));
            assert_eq!(m.estimated_total(), truth, "{kind:?}");
        }
    }

    #[test]
    fn fragments_of_several_workers_fold_to_the_one_worker_estimate() {
        // Two build workers and three probe workers, folded out of order and
        // with one fragment left for end_probe: the converged estimate and
        // the tracker's input are the one-worker run's.
        let run = |split: bool| {
            let m = OpMetrics::with_initial_estimate(OPTIMIZER);
            let mut est = JoinEstimator::new(JoinEstimation::Once { probe_size_hint: 6 }, m);
            let (to_agg, inbox) = mpsc::channel();
            est.push_down_agg(DistinctTracker::new(1), to_agg);
            est.begin_build().unwrap();
            let chunks: Vec<&[i64]> = if split {
                BUILD.chunks(2).collect()
            } else {
                vec![&BUILD]
            };
            let fragments: Vec<_> = chunks
                .iter()
                .map(|chunk| {
                    let mut fragment = est.build_fragment().unwrap();
                    est.observe_build(&mut fragment, &some(chunk), 0).unwrap();
                    fragment
                })
                .collect();
            est.end_build(fragments, JoinKind::Inner).unwrap();
            let chunks: Vec<&[Option<i64>]> = if split {
                PROBE.chunks(2).collect()
            } else {
                vec![&PROBE]
            };
            let mut fragments: Vec<ProbeFragment> = chunks
                .iter()
                .map(|chunk| {
                    let mut fragment = ProbeFragment::default();
                    est.observe_probe_keys(&mut fragment, keys(chunk).col(0))
                        .unwrap();
                    fragment
                })
                .collect();
            for fragment in fragments.iter_mut().skip(1).rev() {
                est.publish(fragment);
            }
            est.end_probe(6, fragments);
            let tracker = inbox.try_recv().unwrap();
            (est.metrics.estimated_total(), tracker.estimate())
        };
        assert_eq!(run(true), run(false));
        assert_eq!(run(false), (4.0, 2.0));
    }

    #[test]
    fn baselines_watch_only_the_join_pass() {
        let [dne, byte] = [Rule::Dne, Rule::Byte].map(|rule| JoinEstimation::Baseline {
            rule,
            optimizer_estimate: OPTIMIZER,
        });
        // Halfway through the driver with 2 of 4 rows out: dne extrapolates
        // 2 / 0.5, byte blends that with the optimizer estimate.
        for (mode, halfway) in [(JoinEstimation::Off, OPTIMIZER), (dne, 4.0), (byte, 8.5)] {
            let off = matches!(mode, JoinEstimation::Off);
            let m = OpMetrics::with_initial_estimate(OPTIMIZER);
            let mut est = JoinEstimator::new(mode, Arc::clone(&m));
            build_phase(&mut est, &BUILD, JoinKind::Inner);
            assert!(matches!(est.build_fragment(), Ok(BuildFragment::Off)));
            assert!(probe_phase(&mut est, &PROBE, 6).is_empty());
            assert_eq!(m.estimated_total(), OPTIMIZER);
            assert_eq!(m.estimated_bounds(), None);

            est.observe_join_pass(0, 0).unwrap();
            est.observe_join_pass(3, 2).unwrap();
            assert_eq!(m.estimated_total(), halfway);
            est.observe_join_pass(3, 2).unwrap();
            assert_eq!(m.estimated_total(), if off { OPTIMIZER } else { 4.0 });
            assert_eq!((m.driver_consumed(), m.emitted()), (6, 4));
        }
    }

    /// Counts `EstimatorDegraded` events.
    #[derive(Default)]
    struct DegradedCount(AtomicUsize);

    impl TraceSink for DegradedCount {
        fn publish(&self, event: &TraceEvent) {
            if let TraceEventKind::EstimatorDegraded { reason, .. } = event.kind {
                assert_eq!(reason, DegradeReason::HistogramMemory);
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    #[test]
    fn hist_budget_breach_degrades_once_to_dne() {
        // One worker breaches at its first batch; two workers both breach;
        // two fragments that fit alone breach once merged. Either way: one
        // event, dne from the join pass on.
        for workers in ["one", "two", "merged"] {
            let degraded = Arc::new(DegradedCount::default());
            let mut registry = MetricsRegistry::traced(EventBus::with_sink(
                Arc::clone(&degraded) as Arc<dyn TraceSink>
            ));
            registry.set_governor(Arc::new(Governor::new(Budgets {
                max_rows: None,
                max_hist_bytes: Some(64),
            })));
            let m = registry.register("join", OPTIMIZER);
            let mode = JoinEstimation::Once { probe_size_hint: 6 };
            let mut est = JoinEstimator::new(mode, Arc::clone(&m));
            est.begin_build().unwrap();
            let fragments = match workers {
                "one" => {
                    let mut fragment = est.build_fragment().unwrap();
                    est.observe_build(&mut fragment, &some(&[1, 1]), 0).unwrap();
                    assert!(matches!(fragment, BuildFragment::Hist(None)));
                    assert_eq!(degraded.0.load(Ordering::Relaxed), 1, "at the first batch");
                    est.observe_build(&mut fragment, &some(&[2, 3]), 0).unwrap();
                    vec![fragment]
                }
                "two" => BUILD
                    .chunks(2)
                    .map(|half| {
                        let mut fragment = est.build_fragment().unwrap();
                        est.observe_build(&mut fragment, &some(half), 0).unwrap();
                        fragment
                    })
                    .collect(),
                _ => BUILD
                    .chunks(2)
                    .map(|half| {
                        let keys: Vec<_> = half.iter().map(|&v| Key::Int(v)).collect();
                        BuildFragment::Hist(Some(keys.iter().collect()))
                    })
                    .collect(),
            };
            est.end_build(fragments, JoinKind::Inner).unwrap();
            assert!(matches!(est.build_fragment(), Ok(BuildFragment::Off)));
            assert!(probe_phase(&mut est, &PROBE, 6).is_empty());
            assert_eq!(m.estimated_total(), OPTIMIZER);
            assert_eq!(m.estimated_bounds(), None);
            est.observe_join_pass(6, 4).unwrap();
            assert_eq!(m.estimated_total(), 4.0);
            assert_eq!(degraded.0.load(Ordering::Relaxed), 1, "{workers}");
        }
    }

    #[test]
    fn pipeline_probes_are_observed_by_the_lowest_join_only() {
        // upper: A ⋈ (B ⋈ C), all on column 0.
        let (a, b) = ([1i64, 1, 2], [1i64, 2, 2]);
        let c = [Some(1), Some(2), Some(9)];
        let m_lower = OpMetrics::with_initial_estimate(OPTIMIZER);
        let m_upper = OpMetrics::with_initial_estimate(OPTIMIZER);
        let modes = JoinEstimation::pipeline(
            PipelineEstimator::same_attribute(2, 0, 0, 100).unwrap(),
            vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        );
        let mut joins = modes
            .into_iter()
            .zip([&m_lower, &m_upper])
            .map(|(mode, m)| JoinEstimator::new(mode, Arc::clone(m)));
        let (mut lower, mut upper) = (joins.next().unwrap(), joins.next().unwrap());
        // The lower join cannot build before the upper one hands it the
        // estimator.
        assert!(lower.begin_build().is_err());
        // Execution order: the upper join builds first, then pulls its
        // probe input — the lower join — which builds and probes.
        build_phase(&mut upper, &a, JoinKind::Inner);
        build_phase(&mut lower, &b, JoinKind::Inner);

        // The estimator moved down at the upper join's end_build.
        assert_eq!(upper.pipeline_probe_seen(), None);

        assert!(probe_phase(&mut upper, &c, 3).is_empty());
        assert_eq!(lower.pipeline_probe_seen(), Some(0));
        assert_eq!(m_upper.estimated_total(), OPTIMIZER);

        assert!(probe_phase(&mut lower, &c, 3).is_empty());
        assert_eq!(lower.pipeline_probe_seen(), Some(3));
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
    }
}
