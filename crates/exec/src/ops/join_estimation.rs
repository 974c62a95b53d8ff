//! The estimation protocol of joins with a preprocessing phase (§4.1.1–
//! 4.1.2, §4.1.4), driven the same way by [`HashJoin`](crate::ops::HashJoin)
//! and [`MergeJoin`](crate::ops::MergeJoin). Every estimating join is a join
//! of an Algorithm-1 chain: a binary join is the one-join chain, whose build
//! histogram is its own and whose probe column is its probe key. The drains
//! cut their input into chunks and share the [`JoinEstimator`] by reference:
//!
//! 1. **Build** (hash build / first sort): `begin_build` takes the chain's
//!    estimator; each chunk observes its batches into a private build
//!    fragment (`observe_build`), checked against the soft histogram budget
//!    after every batch; `end_build` folds the fragments in chunk order,
//!    checks the budget once more, and hands the estimator down to the join
//!    below, if any.
//! 2. **Probe** (probe partitioning / second sort), run by join 0 for the
//!    whole chain: each chunk observes its rows into a private
//!    [`PipelineProbeFragment`] and, when it publishes, folds it into the
//!    chain's totals under one lock and publishes every join's estimate and
//!    confidence bounds (`observe_probe`); `end_probe` fixes `|S|` — every
//!    estimate is exact before the first output row.
//! 3. **Join pass**: `observe_join_pass` charges one output batch's driver
//!    and emitted rows to the governor and the gnm counters, which re-read
//!    the dne/byte rule bound to the join's metrics, if any. `end_probe`
//!    arms that rule with the probe row count, so baselines only ever watch
//!    this phase.
//!
//! The operators decide *when* to publish (hash join: every batch boundary;
//! merge join: every [`PUBLISH_EVERY`](crate::ops::PUBLISH_EVERY)-th row);
//! everything else about estimation lives here.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use crate::sync::Mutex;
use qprog_core::baseline::Rule;
use qprog_core::distinct::DistinctTracker;
use qprog_core::join_est::{JoinKind, ProbeTotals};
use qprog_core::pipeline_est::{PipelineBuildFragment, PipelineEstimator, PipelineProbeFragment};
use qprog_types::{QError, QResult, RowBatch};

use crate::metrics::OpMetrics;
use crate::trace::DegradeReason;

/// `Z_α` used for published confidence bounds (two-sided 99%).
const CI_Z: f64 = 2.576;

/// What one join of an Algorithm-1 chain owns at a time: the push-down
/// estimator and every join's metrics, both indexed bottom-up.
type ChainState = (PipelineEstimator, Vec<Arc<OpMetrics>>);

/// Which online estimation strategy a hash or sort-merge join runs. The
/// *probe* input is the hash join's probe side / the merge join's right
/// (second-sorted) side. A dne or byte baseline is no strategy of the
/// join's own: it is the rule bound to the join's metrics
/// ([`OpMetrics::bind_baseline`]), which the join arms at `end_probe`.
pub enum JoinEstimation {
    /// No estimation of the join's own.
    Off,
    /// Algorithm-1 push-down (§4.1.4; §4.1.4.3 for sort-merge chains); this
    /// join is `join_index` of the chain's estimator, which arrives in
    /// `inbox` and leaves through `below` at `end_build` — join 0 keeps it
    /// and drives the probe pass. A binary join is the one-join chain
    /// ([`JoinEstimation::once`]). The inbox is locked only so that a
    /// drain's chunks can share the join's estimator by reference;
    /// `degraded` is shared by the chain's joins.
    Pipeline {
        join_index: usize,
        inbox: Mutex<Receiver<ChainState>>,
        below: Option<Sender<ChainState>>,
        degraded: Arc<AtomicBool>,
    },
}

impl JoinEstimation {
    /// The modes of an Algorithm-1 chain's joins, bottom-up, one channel per
    /// edge; the top join's already holds `estimator` and `metrics`.
    pub fn pipeline(estimator: PipelineEstimator, metrics: Vec<Arc<OpMetrics>>) -> Vec<Self> {
        let (mut below, degraded) = (None, Arc::new(AtomicBool::new(false)));
        let modes = (0..metrics.len())
            .map(|join_index| {
                let (to_this, inbox) = mpsc::channel();
                let below = below.replace(to_this);
                Self::Pipeline {
                    join_index,
                    inbox: Mutex::new(inbox),
                    below,
                    degraded: Arc::clone(&degraded),
                }
            })
            .collect();
        if let Some(to_top) = below {
            _ = to_top.send((estimator, metrics));
        }
        modes
    }

    /// The paper's framework on a binary join publishing to `metrics`: the
    /// one-join chain that counts build key `build_key` and probes with
    /// probe key `probe_key`; `probe_size_hint` is the known or
    /// optimizer-estimated probe input size.
    pub fn once(
        build_key: usize,
        probe_key: usize,
        probe_size_hint: u64,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let estimator = PipelineEstimator::same_attribute(1, build_key, probe_key, probe_size_hint)
            .expect("one join is a valid chain");
        Self::pipeline(estimator, vec![metrics]).remove(0)
    }
}

/// Aggregation push-down (§4.2 end): the tracker of the join key's distinct
/// values in the join *output*, fed from join 0's count lane, and where it
/// goes at `end_probe`.
struct PushDown {
    /// The probe key column the tracker reads.
    key_col: usize,
    tracker: Mutex<DistinctTracker>,
    to_agg: Sender<DistinctTracker>,
}

/// Drives one join's [`JoinEstimation`] through the phases above and
/// publishes to the join's [`OpMetrics`].
pub(crate) struct JoinEstimator {
    mode: JoinEstimation,
    metrics: Arc<OpMetrics>,
    /// The chain's estimator while this join owns it: `None` under `Off`,
    /// before the build, after handing it down, or once the chain degraded.
    chain: Option<(Box<PipelineEstimator>, Vec<Arc<OpMetrics>>)>,
    push_down: Option<PushDown>,
}

impl JoinEstimator {
    pub fn new(mode: JoinEstimation, metrics: Arc<OpMetrics>) -> Self {
        JoinEstimator {
            mode,
            metrics,
            chain: None,
            push_down: None,
        }
    }

    /// Feed `tracker` the probe key (column `key_col`) of every output row
    /// during the probe pass, and send it to the aggregate through `to_agg`
    /// at `end_probe`.
    pub fn push_down_agg(
        &mut self,
        tracker: DistinctTracker,
        to_agg: Sender<DistinctTracker>,
        key_col: usize,
    ) {
        let tracker = Mutex::new(tracker);
        self.push_down = Some(PushDown {
            key_col,
            tracker,
            to_agg,
        });
    }

    /// Whether the chain this join belongs to dropped its estimator.
    fn degraded(&self) -> bool {
        matches!(&self.mode, JoinEstimation::Pipeline { degraded, .. } if degraded.load(Ordering::Relaxed))
    }

    /// Start the build phase; a pipeline join takes the chain's estimator,
    /// unless the chain degraded above it.
    pub fn begin_build(&mut self) -> QResult<()> {
        if let JoinEstimation::Pipeline {
            join_index, inbox, ..
        } = &self.mode
        {
            if self.degraded() {
                return Ok(());
            }
            let (mut estimator, metrics) = inbox
                .lock()
                .try_recv()
                .map_err(|_| QError::internal("pipeline estimator not handed down"))?;
            estimator.begin_build(*join_index)?;
            self.chain = Some((Box::new(estimator), metrics));
        }
        Ok(())
    }

    /// A fresh build fragment for one chunk, if this join owns an estimator.
    pub fn build_fragment(&self) -> QResult<Option<PipelineBuildFragment>> {
        match (&self.mode, &self.chain) {
            (JoinEstimation::Pipeline { join_index, .. }, Some((estimator, _))) => {
                estimator.build_fragment(*join_index).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// Observe one non-empty build batch into a chunk's `fragment`, in scan
    /// order, column at a time. The soft histogram-memory budget is checked
    /// after every batch: the first breach degrades the whole chain one rung
    /// (exact frequency histograms → dne baseline, DESIGN.md §5) instead of
    /// aborting the query, and every chunk then drops its fragment.
    pub fn observe_build(
        &self,
        slot: &mut Option<PipelineBuildFragment>,
        batch: &RowBatch,
    ) -> QResult<()> {
        if let (Some(fragment), Some((estimator, _))) = (&mut *slot, &self.chain) {
            estimator.build_into(fragment, batch)?;
            if self.breaches_budget(fragment.memory_allocated()) || self.degraded() {
                *slot = None;
            }
        }
        Ok(())
    }

    /// Whether `bytes` of histograms outgrow the soft budget; the chain's
    /// first breach is traced.
    fn breaches_budget(&self, bytes: usize) -> bool {
        let breached = self.metrics.hist_budget_exceeded(bytes);
        if let (true, JoinEstimation::Pipeline { degraded, .. }) = (breached, &self.mode) {
            if !degraded.swap(true, Ordering::Relaxed) {
                self.metrics.trace_degraded(DegradeReason::HistogramMemory);
            }
        }
        breached
    }

    /// End the build phase: fold the chunks' fragments in chunk order, the
    /// first moved into place, and check the budget once more. On a breach
    /// the chain's estimator is dropped; otherwise join 0 takes its
    /// `kind` and keeps the estimator, and any other join hands it down.
    pub fn end_build(
        &mut self,
        fragments: Vec<Option<PipelineBuildFragment>>,
        kind: JoinKind,
    ) -> QResult<()> {
        let (
            Some((mut estimator, metrics)),
            JoinEstimation::Pipeline {
                join_index, below, ..
            },
        ) = (self.chain.take(), &self.mode)
        else {
            return Ok(());
        };
        fragments
            .into_iter()
            .flatten()
            .for_each(|fragment| estimator.fold_build(fragment));
        if self.breaches_budget(estimator.build_memory()) || self.degraded() {
            return Ok(());
        }
        if *join_index == 0 {
            estimator.set_kind(kind)?;
        }
        estimator.end_build(*join_index)?;
        match below {
            // A join below that is gone has nothing left to estimate.
            Some(below) => _ = below.send((*estimator, metrics)),
            None => self.chain = Some((estimator, metrics)),
        }
        Ok(())
    }

    /// The join that owns the chain's estimator (join 0) observes rows
    /// `rows` of a probe batch into a chunk's `fragment` and feeds the
    /// push-down tracker their matches, as `(key, multiplicity)`; with
    /// `publish` it folds the fragment in and publishes every join of the
    /// chain. Any other join observes nothing. A caller may cut a batch
    /// wherever its publication cadence falls.
    pub fn observe_probe(
        &self,
        fragment: &mut PipelineProbeFragment,
        batch: &RowBatch,
        rows: Range<usize>,
        publish: bool,
    ) -> QResult<()> {
        let Some((estimator, metrics)) = &self.chain else {
            return Ok(());
        };
        estimator.probe_into(fragment, batch, rows.clone())?;
        if let Some(PushDown {
            key_col, tracker, ..
        }) = &self.push_down
        {
            let mut tracker = tracker.lock();
            let keys = batch.col(*key_col);
            for (r, &mult) in rows.zip(fragment.driving_counts()) {
                if mult > 0 {
                    tracker.observe_n(&keys.key(r), mult);
                }
            }
        }
        if publish {
            publish_chain(&estimator.fold_probe(fragment), metrics);
        }
        Ok(())
    }

    /// The probe input is exhausted after `probe_rows` rows: `|S|` is exact,
    /// so every estimate of the chain is too, and is published with
    /// collapsed bounds. The rule bound to the join's metrics is armed with
    /// `N_driver = probe_rows` here; every join of a degraded chain binds
    /// dne first, from the estimate it has published so far. What the
    /// chunks observed since their last publication is folded in first,
    /// and the push-down tracker, its input size now exact, leaves for the
    /// aggregate.
    pub fn end_probe(&mut self, probe_rows: u64, rest: Vec<PipelineProbeFragment>) {
        let mut exact = None;
        if let Some((estimator, metrics)) = &mut self.chain {
            for mut fragment in rest {
                drop(estimator.fold_probe(&mut fragment));
            }
            estimator.set_probe_size(probe_rows);
            let totals = estimator.totals();
            publish_chain(&totals, metrics);
            exact = Some(totals[0].estimate());
        }
        if let Some(PushDown {
            tracker, to_agg, ..
        }) = self.push_down.take()
        {
            let mut tracker = tracker.into_inner();
            if let Some(exact) = exact {
                tracker.set_input_size(exact.round() as u64);
            }
            // An aggregate that is gone has nothing left to publish.
            _ = to_agg.send(tracker);
        }
        if self.degraded() {
            let published = self.metrics.estimated_total();
            self.metrics.bind_baseline(Rule::Dne, published);
        }
        self.metrics.arm_baseline(probe_rows);
    }

    /// Apply one output batch's accumulated bookkeeping: `driver_rows` probe
    /// rows consumed and `emitted_rows` rows emitted since the last call.
    /// Governor checkpoint and gnm counters advance by the summed deltas,
    /// and an armed baseline is re-read off them; with capacity-1 batches
    /// this runs once per tuple, the legacy cadence.
    pub fn observe_join_pass(&mut self, driver_rows: u64, emitted_rows: u64) -> QResult<()> {
        if driver_rows == 0 && emitted_rows == 0 {
            return Ok(());
        }
        if driver_rows > 0 {
            self.metrics.checkpoint(driver_rows)?;
        }
        self.metrics.record_driven(driver_rows, emitted_rows);
        Ok(())
    }
}

/// Publish every join's current estimate of an Algorithm-1 chain with its
/// confidence interval.
fn publish_chain(totals: &[ProbeTotals], metrics: &[Arc<OpMetrics>]) {
    for (totals, m) in totals.iter().zip(metrics) {
        let ci = totals.confidence_interval(CI_Z);
        m.set_estimated_total(totals.estimate(), Some((ci.lo, ci.hi)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::governor::{Budgets, Governor};
    use crate::metrics::MetricsRegistry;
    use crate::ops::test_util::bound;
    use crate::trace::{EventBus, TraceEvent, TraceEventKind, TraceSink};
    use qprog_types::{DataType, Value};
    use std::sync::atomic::AtomicUsize;

    const BUILD: [i64; 4] = [1, 1, 2, 3];
    const PROBE: [Option<i64>; 6] = [Some(1), Some(2), Some(2), Some(4), Some(9), None];
    /// Optimizer estimate handed to every join under test.
    const OPTIMIZER: f64 = 13.0;

    impl JoinEstimator {
        /// Probe rows the chain's estimator has seen, if this join owns it.
        pub(crate) fn pipeline_probe_seen(&self) -> Option<u64> {
            self.chain
                .as_ref()
                .map(|(estimator, _)| estimator.probe_seen())
        }
    }

    /// One-column batch of join keys (`None` = NULL).
    fn keys(vals: &[Option<i64>]) -> RowBatch {
        let mut batch = RowBatch::with_capacity([DataType::Int64], vals.len());
        for v in vals {
            batch
                .push_drain(&mut vec![v.map_or(Value::Null, Value::Int64)])
                .unwrap();
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
            est.observe_build(&mut fragment, &some(half)).unwrap();
        }
        est.end_build(vec![fragment], kind).unwrap();
    }

    /// Probe phase over `probe` — the last rows of a `total_rows`-row probe
    /// input — as one worker in batches of three, published at batch
    /// boundaries; returns join 0's multiplicities of the rows observed.
    fn probe_phase(est: &mut JoinEstimator, probe: &[Option<i64>], total_rows: u64) -> Vec<u64> {
        let (mut fragment, mut mults) = (PipelineProbeFragment::default(), Vec::new());
        for chunk in probe.chunks(3) {
            let batch = keys(chunk);
            est.observe_probe(&mut fragment, &batch, 0..batch.len(), true)
                .unwrap();
            mults.extend_from_slice(fragment.driving_counts());
        }
        est.end_probe(total_rows, vec![fragment]);
        mults
    }

    /// The one-join chain on column 0 of both sides.
    fn once(probe_size_hint: u64, m: &Arc<OpMetrics>) -> JoinEstimation {
        JoinEstimation::once(0, 0, probe_size_hint, Arc::clone(m))
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
            // The hint is wildly wrong; end_probe corrects it.
            let mut est = JoinEstimator::new(once(100, &m), Arc::clone(&m));
            build_phase(&mut est, &BUILD, kind);
            assert_eq!(m.estimated_bounds(), None, "{kind:?}");

            // Mid-probe: the running estimate, inside published bounds.
            let mut fragment = PipelineProbeFragment::default();
            let head = keys(&PROBE[..3]);
            est.observe_probe(&mut fragment, &head, 0..3, false)
                .unwrap();
            assert_eq!(fragment.driving_counts(), [2, 1, 1]);
            assert_eq!(m.estimated_total(), OPTIMIZER, "nothing folded yet");
            // An empty cut publishes what the fragment holds.
            est.observe_probe(&mut fragment, &head, 3..3, true).unwrap();
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
            let mut est = JoinEstimator::new(once(6, &m), m);
            let (to_agg, inbox) = mpsc::channel();
            est.push_down_agg(DistinctTracker::new(1), to_agg, 0);
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
                    est.observe_build(&mut fragment, &some(chunk)).unwrap();
                    fragment
                })
                .collect();
            est.end_build(fragments, JoinKind::Inner).unwrap();
            let chunks: Vec<&[Option<i64>]> = if split {
                PROBE.chunks(2).collect()
            } else {
                vec![&PROBE]
            };
            // The chunks publish last to first, but for the first.
            let mut fragments: Vec<_> = chunks.iter().map(|_| Default::default()).collect();
            for (i, (chunk, fragment)) in chunks.iter().zip(&mut fragments).enumerate().rev() {
                let batch = keys(chunk);
                est.observe_probe(fragment, &batch, 0..batch.len(), i > 0)
                    .unwrap();
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
        let [dne, byte] = [Rule::Dne, Rule::Byte].map(|rule| Some(bound(rule, None, OPTIMIZER)));
        // Halfway through the driver with 2 of 4 rows out: dne extrapolates
        // 2 / 0.5, byte blends that with the optimizer estimate.
        for (bound, halfway) in [(None, OPTIMIZER), (dne, 4.0), (byte, 8.5)] {
            let off = bound.is_none();
            let m = bound.unwrap_or_else(|| OpMetrics::with_initial_estimate(OPTIMIZER));
            let mut est = JoinEstimator::new(JoinEstimation::Off, Arc::clone(&m));
            build_phase(&mut est, &BUILD, JoinKind::Inner);
            assert!(matches!(est.build_fragment(), Ok(None)));
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

    /// Metrics registered as `name`, traced into `degraded`, under a
    /// histogram budget of `max_hist_bytes`.
    fn budgeted(
        registry: &mut MetricsRegistry,
        max_hist_bytes: usize,
        name: &str,
    ) -> Arc<OpMetrics> {
        registry.set_governor(Arc::new(Governor::new(Budgets {
            max_rows: None,
            max_hist_bytes: Some(max_hist_bytes),
        })));
        registry.register(name, OPTIMIZER)
    }

    fn degraded_registry() -> (Arc<DegradedCount>, MetricsRegistry) {
        let degraded = Arc::new(DegradedCount::default());
        let bus = EventBus::with_sink(Arc::clone(&degraded) as Arc<dyn TraceSink>);
        (degraded, MetricsRegistry::traced(bus))
    }

    #[test]
    fn hist_budget_breach_degrades_once_to_dne() {
        // Two halves of a build whose key span only their union covers, and
        // the larger of their fragments, unbudgeted.
        let far = [[1i64, 1], [1000, 1001]];
        let half_bytes = {
            let m = OpMetrics::with_initial_estimate(OPTIMIZER);
            let mut est = JoinEstimator::new(once(6, &m), m);
            est.begin_build().unwrap();
            far.iter()
                .map(|half| {
                    let mut fragment = est.build_fragment().unwrap();
                    est.observe_build(&mut fragment, &some(half)).unwrap();
                    fragment.unwrap().memory_allocated()
                })
                .max()
                .unwrap()
        };
        // One worker breaches at its first batch; two workers both breach;
        // two fragments that fit alone breach once merged. Either way: one
        // event, dne from the join pass on.
        for workers in ["one", "two", "merged"] {
            let (degraded, mut registry) = degraded_registry();
            let budget = if workers == "merged" { half_bytes } else { 64 };
            let m = budgeted(&mut registry, budget, "join");
            let mut est = JoinEstimator::new(once(6, &m), Arc::clone(&m));
            est.begin_build().unwrap();
            let fragments: Vec<_> = match workers {
                "one" => {
                    let mut fragment = est.build_fragment().unwrap();
                    est.observe_build(&mut fragment, &some(&[1, 1])).unwrap();
                    assert!(fragment.is_none());
                    assert_eq!(degraded.0.load(Ordering::Relaxed), 1, "at the first batch");
                    est.observe_build(&mut fragment, &some(&[2, 3])).unwrap();
                    vec![fragment]
                }
                _ => {
                    let halves = if workers == "two" {
                        [&BUILD[..2], &BUILD[2..]]
                    } else {
                        far.each_ref().map(|h| &h[..])
                    };
                    halves
                        .iter()
                        .map(|half| {
                            let mut fragment = est.build_fragment().unwrap();
                            est.observe_build(&mut fragment, &some(half)).unwrap();
                            fragment
                        })
                        .collect()
                }
            };
            let fit = fragments.iter().filter(|f| f.is_some()).count();
            assert_eq!(fit, if workers == "merged" { 2 } else { 0 }, "{workers}");
            est.end_build(fragments, JoinKind::Inner).unwrap();
            assert!(matches!(est.build_fragment(), Ok(None)));
            assert!(probe_phase(&mut est, &PROBE, 6).is_empty());
            assert_eq!(m.estimated_total(), OPTIMIZER);
            assert_eq!(m.estimated_bounds(), None);
            est.observe_join_pass(6, 4).unwrap();
            assert_eq!(m.estimated_total(), 4.0);
            assert_eq!(degraded.0.load(Ordering::Relaxed), 1, "{workers}");
        }
    }

    #[test]
    fn hist_budget_breach_degrades_every_join_of_a_chain_to_dne() {
        // upper: A ⋈ (B ⋈ C); A's build breaches, so B never receives the
        // chain's estimator and both joins run dne.
        let (degraded, mut registry) = degraded_registry();
        let m_lower = budgeted(&mut registry, 64, "lower");
        let m_upper = registry.register("upper", OPTIMIZER);
        let modes = JoinEstimation::pipeline(
            PipelineEstimator::same_attribute(2, 0, 0, 3).unwrap(),
            vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        );
        let mut joins: Vec<_> = modes
            .into_iter()
            .zip([&m_lower, &m_upper])
            .map(|(mode, m)| JoinEstimator::new(mode, Arc::clone(m)))
            .collect();
        build_phase(&mut joins[1], &[1, 1, 2], JoinKind::Inner);
        assert_eq!(degraded.0.load(Ordering::Relaxed), 1);
        build_phase(&mut joins[0], &[1, 2, 2], JoinKind::Inner);
        assert!(matches!(joins[0].build_fragment(), Ok(None)));
        let c = [Some(1), Some(2), Some(9)];
        assert!(probe_phase(&mut joins[0], &c, 3).is_empty());
        assert_eq!(m_lower.estimated_total(), OPTIMIZER);
        // lower: 3 rows out of 3 probe rows; upper: 4 out of those 3.
        joins[0].observe_join_pass(3, 3).unwrap();
        assert!(probe_phase(&mut joins[1], &[], 3).is_empty());
        joins[1].observe_join_pass(3, 4).unwrap();
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
        assert_eq!(m_upper.estimated_bounds(), None);
        assert_eq!(degraded.0.load(Ordering::Relaxed), 1);
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

        // B's multiplicities of C's keys.
        assert_eq!(probe_phase(&mut lower, &c, 3), [1, 2, 0]);
        assert_eq!(lower.pipeline_probe_seen(), Some(3));
        // lower: 1→1, 2→2 = 3 rows; upper: 1·2 + 2·1 = 4 rows, both exact.
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
        assert_eq!(m_lower.estimated_bounds(), Some((3.0, 3.0)));
        assert_eq!(m_upper.estimated_bounds(), Some((4.0, 4.0)));
    }
}
