//! The estimation protocol of joins with a preprocessing phase (§4.1.1–
//! 4.1.2), driven the same way by [`HashJoin`](crate::ops::HashJoin) and
//! [`MergeJoin`](crate::ops::MergeJoin):
//!
//! 1. **Build** (hash build / first sort): `begin_build`, one
//!    `observe_build` per batch, `end_build` — the exact join-key
//!    histogram `N_R`, or the build side of an Algorithm-1 chain's
//!    estimator, which then moves on to the join below.
//! 2. **Probe** (probe partitioning / second sort): `observe_probe_keys`
//!    and `observe_probe_rows` refine `D_{t+1}`, `publish` makes the
//!    estimate and its bounds visible, `end_probe` fixes `|S|` — the
//!    estimate is exact before the first output row.
//! 3. **Join pass**: `observe_join_pass` charges one output batch's driver
//!    and emitted rows to the governor and the gnm counters, which a
//!    dne/byte baseline then reads; baselines only ever watch this phase.
//!
//! The operators decide *when* to publish (hash join: every batch boundary;
//! merge join: every [`PUBLISH_EVERY`](crate::ops::PUBLISH_EVERY)-th row);
//! everything else about estimation lives here.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use qprog_core::baseline::{Baseline, Rule};
use qprog_core::freq_hist::FreqHist;
use qprog_core::join_est::{JoinKind, OnceJoinEstimator, ProbeFragment};
use qprog_core::pipeline_est::PipelineEstimator;
use qprog_types::{QError, QResult, RowBatch, Value};

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
    Pipeline {
        join_index: usize,
        inbox: Receiver<ChainState>,
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
                    inbox,
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

/// The estimator state a join owns in its current phase.
enum Stage {
    /// Nothing of its own: `Off`, a pipeline join that has handed the
    /// chain's estimator down, or a baseline before the join pass.
    Idle,
    /// `Once`, build phase: the join-key histogram under construction.
    Building(FreqHist),
    /// `Once`, from the end of the build phase on.
    Probing(OnceJoinEstimator),
    /// `Pipeline`, while this join owns the chain's estimator.
    Pipeline(PipelineEstimator, Vec<Arc<OpMetrics>>),
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
}

impl JoinEstimator {
    pub fn new(mode: JoinEstimation, metrics: Arc<OpMetrics>) -> Self {
        JoinEstimator {
            mode,
            metrics,
            stage: Stage::Idle,
        }
    }

    /// Whether this join is part of an Algorithm-1 pipeline, whose
    /// estimator has no per-worker fragments to merge (no parallel drains).
    pub fn is_pipeline(&self) -> bool {
        matches!(self.mode, JoinEstimation::Pipeline { .. })
    }

    /// Whether the build phase is maintaining a join-key histogram (which
    /// parallel build workers then contribute fragments to).
    pub fn builds_histogram(&self) -> bool {
        matches!(self.stage, Stage::Building(_))
    }

    /// Start the build phase; a pipeline join takes the chain's estimator.
    pub fn begin_build(&mut self) -> QResult<()> {
        match &self.mode {
            JoinEstimation::Once { .. } => self.stage = Stage::Building(FreqHist::new()),
            JoinEstimation::Pipeline {
                join_index, inbox, ..
            } => {
                let (mut estimator, metrics) = inbox
                    .try_recv()
                    .map_err(|_| QError::internal("pipeline estimator not handed down"))?;
                estimator.begin_build(*join_index)?;
                self.stage = Stage::Pipeline(estimator, metrics);
            }
            _ => {}
        }
        Ok(())
    }

    /// Observe one non-empty build batch, in scan order. Reads columns (the
    /// kernels skip NULL keys themselves): one kernel call per batch.
    pub fn observe_build(&mut self, batch: &RowBatch, key_col: usize) -> QResult<()> {
        match (&mut self.stage, &self.mode) {
            (Stage::Building(hist), _) => {
                hist.observe_column(batch.col(key_col), None)?;
                self.enforce_hist_budget();
            }
            (Stage::Pipeline(estimator, _), JoinEstimation::Pipeline { join_index, .. }) => {
                estimator.build_batch(*join_index, batch.cols(), batch.len())?
            }
            _ => {}
        }
        Ok(())
    }

    /// Fold in the histogram fragments of parallel build workers, in worker
    /// order. Workers accumulate disjoint fragments, so the soft budget is
    /// checked once on the merged histogram: the serial path's mid-build
    /// degradation point has no parallel equivalent, but the ladder and its
    /// trace event are the same.
    pub fn absorb_build<'a>(&mut self, fragments: impl IntoIterator<Item = &'a FreqHist>) {
        if let Stage::Building(hist) = &mut self.stage {
            for fragment in fragments {
                hist.merge(fragment);
            }
            self.enforce_hist_budget();
        }
    }

    /// Soft histogram-memory budget: degrade the estimator one rung (exact
    /// frequency histogram → dne baseline) instead of aborting the query
    /// (ladder documented in DESIGN.md §5).
    fn enforce_hist_budget(&mut self) {
        let Stage::Building(hist) = &self.stage else {
            return;
        };
        if self.metrics.hist_budget_exceeded(hist.memory_allocated()) {
            self.stage = Stage::Idle;
            self.mode = JoinEstimation::Baseline {
                rule: Rule::Dne,
                optimizer_estimate: self.metrics.estimated_total(),
            };
            self.metrics.trace_degraded(DegradeReason::HistogramMemory);
        }
    }

    /// End the build phase; a pipeline join hands the estimator down.
    pub fn end_build(&mut self, kind: JoinKind) -> QResult<()> {
        match (std::mem::replace(&mut self.stage, Stage::Idle), &self.mode) {
            (Stage::Building(hist), &JoinEstimation::Once { probe_size_hint }) => {
                self.stage =
                    Stage::Probing(OnceJoinEstimator::with_kind(hist, probe_size_hint, kind));
            }
            (
                Stage::Pipeline(mut estimator, metrics),
                JoinEstimation::Pipeline {
                    join_index, below, ..
                },
            ) => {
                estimator.end_build(*join_index)?;
                match below {
                    // A join below that is gone has nothing left to estimate.
                    Some(below) => _ = below.send((estimator, metrics)),
                    None => self.stage = Stage::Pipeline(estimator, metrics),
                }
            }
            (stage, _) => self.stage = stage,
        }
        Ok(())
    }

    /// `D_{t+1}` over a run of probe-side join keys, in scan order; returns
    /// their build-side multiplicities (empty unless `Once`). A caller may
    /// cut a batch's key column wherever its publication cadence falls.
    pub fn observe_probe_keys(&mut self, keys: &[Value]) -> QResult<&[u64]> {
        match &mut self.stage {
            Stage::Probing(once) => once.observe_probe_batch(keys),
            _ => Ok(&[]),
        }
    }

    /// Algorithm-1 push-down: the join that owns the chain's estimator (join
    /// 0) feeds it one non-empty probe batch and publishes every join of the
    /// chain. Any other join observes nothing.
    pub fn observe_probe_rows(&mut self, batch: &RowBatch) -> QResult<()> {
        if let Stage::Pipeline(estimator, metrics) = &mut self.stage {
            estimator.observe_probe_batch(batch.cols(), batch.len())?;
            publish_chain(estimator, metrics);
        }
        Ok(())
    }

    /// Publish the `Once` estimate and its confidence bounds (pipelines
    /// publish inside [`observe_probe_rows`](Self::observe_probe_rows)).
    pub fn publish(&self) {
        if let Stage::Probing(once) = &self.stage {
            self.metrics.set_estimated_total(once.estimate());
            let ci = once.confidence_interval(CI_Z);
            self.metrics.set_estimated_bounds(ci.lo, ci.hi);
        }
    }

    /// What a parallel probe worker refines a private [`ProbeFragment`]
    /// against: the finished build histogram and the probe-size hint.
    pub fn probe_worker_view(&self) -> Option<(&FreqHist, u64)> {
        match (&self.stage, &self.mode) {
            (Stage::Probing(once), JoinEstimation::Once { probe_size_hint }) => {
                Some((once.build_histogram(), *probe_size_hint))
            }
            _ => None,
        }
    }

    /// Fold in a parallel probe worker's fragment.
    pub fn absorb_probe(&mut self, fragment: &ProbeFragment) {
        if let Stage::Probing(once) = &mut self.stage {
            once.absorb(fragment);
        }
    }

    /// The current `Once` estimate, for aggregation push-down.
    pub fn once_estimate(&self) -> Option<f64> {
        match &self.stage {
            Stage::Probing(once) => Some(once.estimate()),
            _ => None,
        }
    }

    /// The probe input is exhausted after `probe_rows` rows: `|S|` is exact,
    /// so `Once` and pipeline estimates are too; the baselines start here.
    pub fn end_probe(&mut self, probe_rows: u64) {
        if let Stage::Probing(once) = &mut self.stage {
            once.set_probe_size(probe_rows);
            let exact = once.estimate();
            self.metrics.set_estimated_total(exact);
            self.metrics.set_estimated_bounds(exact, exact);
        }
        if let Stage::Pipeline(estimator, metrics) = &mut self.stage {
            estimator.set_probe_size(probe_rows);
            publish_chain(estimator, metrics);
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
fn publish_chain(estimator: &PipelineEstimator, metrics: &[Arc<OpMetrics>]) {
    if estimator.probe_seen() > 0 {
        for (u, m) in metrics.iter().enumerate() {
            m.set_estimated_total(estimator.estimate(u));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Budgets, Governor};
    use crate::metrics::MetricsRegistry;
    use crate::trace::{EventBus, TraceEvent, TraceEventKind, TraceSink};
    use std::sync::atomic::{AtomicUsize, Ordering};

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

    fn build_phase(est: &mut JoinEstimator, build: &[i64], kind: JoinKind) {
        est.begin_build().unwrap();
        for half in build.chunks(2) {
            let batch = keys(&half.iter().copied().map(Some).collect::<Vec<_>>());
            est.observe_build(&batch, 0).unwrap();
        }
        est.end_build(kind).unwrap();
    }

    /// Probe phase over `probe` — the last rows of a `total_rows`-row probe
    /// input — in batches of three, published at batch boundaries; returns
    /// the multiplicities `observe_probe_keys` handed back.
    fn probe_phase(est: &mut JoinEstimator, probe: &[Option<i64>], total_rows: u64) -> Vec<u64> {
        let mut mults = Vec::new();
        for chunk in probe.chunks(3) {
            let batch = keys(chunk);
            mults.extend_from_slice(est.observe_probe_keys(batch.col(0)).unwrap());
            est.observe_probe_rows(&batch).unwrap();
            est.publish();
        }
        est.end_probe(total_rows);
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
            assert!(!est.is_pipeline());
            build_phase(&mut est, &BUILD, kind);
            assert_eq!(m.estimated_bounds(), None, "{kind:?}");

            // Mid-probe: the running estimate, inside published bounds.
            let first = keys(&PROBE[..3]);
            assert_eq!(est.observe_probe_keys(first.col(0)).unwrap(), [2, 1, 1]);
            est.publish();
            let (lo, hi) = m.estimated_bounds().expect("bounds published");
            assert!(lo <= m.estimated_total() && m.estimated_total() <= hi);
            assert_eq!(Some(m.estimated_total()), est.once_estimate(), "{kind:?}");

            let mults = probe_phase(&mut est, &PROBE[3..], 6);
            assert_eq!(mults, [0, 0, 0], "{kind:?}");
            assert_eq!(m.estimated_total(), truth, "{kind:?}");
            assert_eq!(m.estimated_bounds(), Some((truth, truth)), "{kind:?}");
            assert_eq!(est.once_estimate(), Some(truth), "{kind:?}");

            // The join pass counts work but no longer moves the estimate.
            est.observe_join_pass(6, truth as u64).unwrap();
            assert_eq!((m.driver_consumed(), m.emitted()), (6, truth as u64));
            assert_eq!(m.estimated_total(), truth, "{kind:?}");
        }
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
            assert!(!est.builds_histogram());
            assert!(probe_phase(&mut est, &PROBE, 6).is_empty());
            assert_eq!(est.once_estimate(), None);
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
        // Serial builds breach mid-build; parallel builds on the merged
        // fragments. Either way: one event, dne from the join pass on.
        for parallel in [false, true] {
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
            assert!(est.builds_histogram());
            if parallel {
                let build: Vec<_> = BUILD.iter().map(|&v| qprog_types::Key::Int(v)).collect();
                let fragments: Vec<FreqHist> =
                    build.chunks(2).map(|c| c.iter().collect()).collect();
                est.absorb_build(&fragments);
            } else {
                est.observe_build(&keys(&[Some(1), Some(1)]), 0).unwrap();
                assert!(!est.builds_histogram(), "breached on the first batch");
                est.observe_build(&keys(&[Some(2), Some(3)]), 0).unwrap();
            }
            assert!(!est.builds_histogram());
            est.end_build(JoinKind::Inner).unwrap();
            assert!(probe_phase(&mut est, &PROBE, 6).is_empty());
            assert_eq!(m.estimated_total(), OPTIMIZER);
            assert_eq!(m.estimated_bounds(), None);
            est.observe_join_pass(6, 4).unwrap();
            assert_eq!(m.estimated_total(), 4.0);
            assert_eq!(degraded.0.load(Ordering::Relaxed), 1, "parallel={parallel}");
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
        assert!(lower.is_pipeline() && upper.is_pipeline());
        // The lower join cannot build before the upper one hands it the
        // estimator.
        assert!(lower.begin_build().is_err());
        // Execution order: the upper join builds first, then pulls its
        // probe input — the lower join — which builds and probes.
        build_phase(&mut upper, &a, JoinKind::Inner);
        build_phase(&mut lower, &b, JoinKind::Inner);
        assert!(!upper.builds_histogram() && !lower.builds_histogram());

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
