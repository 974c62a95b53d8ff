//! Grace-style partitioned hash join with online estimation hooks.
//!
//! Execution phases (§4.1.1 of the paper):
//!
//! 1. **Build**: the build input is drained and hash-partitioned. With
//!    `once` estimation, the exact frequency histogram `N_R` of the build
//!    join key is constructed *interleaved with partitioning*.
//! 2. **Probe partitioning**: the probe input is drained and partitioned.
//!    This is where `once` estimation runs — each probe key updates
//!    `D_{t+1} = (D_t·t + N_R[i]·|S|)/(t+1)` — and why it converges to the
//!    exact join cardinality *before any output exists*.
//! 3. **Partition-wise join**: for each partition, a hash table is built
//!    over the build rows and probed with the probe rows. Output therefore
//!    emerges clustered by key — the reordering that makes the `dne`/`byte`
//!    baselines (which watch this phase) fluctuate under skew (Fig. 4).
//!
//! All three phases are columnar: partitions are [`RowBatch`] accumulators
//! filled by selection-vector gathers, the per-partition tables map keys to
//! build-row indices, and an inner join emits whole batches of
//! `(build, probe)` pairs with one column-wise gather. Estimation, governor
//! checkpoints, and metrics are accounted **per batch** — the `K_i` deltas
//! of a batch are summed and applied at its boundary, so published
//! fractions and converged estimates are identical to the per-tuple
//! engine, which a capacity-1 batch reproduces exactly.
//!
//! In a pipeline of hash joins, all joins share a
//! [`PipelineHandle`]; each feeds its build tuples to the shared
//! [`PipelineEstimator`] and the lowest join drives probe observation
//! (Algorithm 1 push-down, §4.1.4), locking the shared state once per
//! batch.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::sync::Mutex;
use qprog_core::byte::ByteEstimator;
use qprog_core::distinct::DistinctTracker;
use qprog_core::dne::DneEstimator;
use qprog_core::freq_hist::FreqHist;
use qprog_core::fx::FxHashMap;
use qprog_core::join_est::{JoinKind, OnceJoinEstimator, ProbeFragment};
use qprog_core::pipeline_est::PipelineEstimator;
use qprog_types::{BatchStatus, Key, QError, QResult, Row, RowBatch, SchemaRef};

use crate::metrics::OpMetrics;
use crate::ops::{partition_of, BoxedOp, Operator, PUBLISH_EVERY};
use crate::parallel;
use crate::trace::{DegradeReason, Phase};

/// Default number of grace partitions.
pub const DEFAULT_PARTITIONS: usize = 16;

/// `Z_α` used for published confidence bounds (two-sided 99%).
const CI_Z: f64 = 2.576;

/// Shared pipeline estimation state: the Algorithm-1 estimator plus the
/// metrics handle of each join in the pipeline (bottom-up order) for
/// publishing refined estimates.
#[derive(Debug)]
pub struct PipelineShared {
    /// The push-down estimator (joins indexed bottom-up).
    pub estimator: PipelineEstimator,
    /// Metrics of each join, indexed like the estimator's joins.
    pub metrics: Vec<Arc<OpMetrics>>,
}

impl PipelineShared {
    /// Publish every join's current estimate to its metrics handle.
    pub fn publish(&self) {
        for (u, m) in self.metrics.iter().enumerate() {
            if self.estimator.probe_seen() > 0 {
                m.set_estimated_total(self.estimator.estimate(u));
            }
        }
    }
}

/// Handle shared by all hash joins of one pipeline.
pub type PipelineHandle = Arc<Mutex<PipelineShared>>;

/// Which online estimation strategy this join runs.
pub enum JoinEstimation {
    /// No estimation.
    Off,
    /// The paper's framework on a standalone binary join; `probe_size_hint`
    /// is the known or optimizer-estimated probe input size.
    Once { probe_size_hint: u64 },
    /// Algorithm-1 pipeline push-down; this join is `join_index` in the
    /// shared estimator and drives probe observation iff `lowest`.
    Pipeline {
        handle: PipelineHandle,
        join_index: usize,
        lowest: bool,
    },
    /// Driver-node baseline (driver = probe rows consumed in the join
    /// pass).
    Dne { optimizer_estimate: f64 },
    /// Byte-model baseline.
    Byte {
        optimizer_estimate: f64,
        probe_row_bytes: u64,
    },
}

enum JState {
    /// Build + probe-partition phases not yet run.
    Init,
    /// Joining partition `part`; `probe_pos` indexes its probe rows.
    Joining {
        part: usize,
        /// Build-row indices (into the partition's batch) per key.
        table: FxHashMap<Key, Vec<u32>>,
        probe_pos: usize,
        /// Partially emitted match group: (probe row index, cursor into
        /// its match list) — resumes when the output batch filled mid-group.
        pending: Option<(usize, usize)>,
    },
    Done,
}

/// Grace hash join on single-column equi-keys, supporting inner,
/// (probe-preserving) left outer, semi and anti semantics.
pub struct HashJoin {
    build: Option<BoxedOp>,
    probe: Option<BoxedOp>,
    build_key: usize,
    probe_key: usize,
    kind: JoinKind,
    schema: SchemaRef,
    /// Build-arity NULL padding for outer-join misses.
    null_pad: Row,
    /// NULL-key probe rows stashed during partitioning; LeftOuter/Anti
    /// emit them at the end (NULL keys never match anything).
    null_probe_rows: Vec<Row>,
    metrics: Arc<OpMetrics>,
    estimation: JoinEstimation,
    num_partitions: usize,
    /// Degree of parallelism for the build/probe drains (1 = the serial
    /// engine, byte-for-byte).
    threads: usize,
    /// Columnar partition accumulators, filled by gathers.
    build_parts: Vec<RowBatch>,
    probe_parts: Vec<RowBatch>,
    /// Reused `(build row, probe row)` gather list for inner-join output.
    pair_buf: Vec<(u32, u32)>,
    once: Option<OnceJoinEstimator>,
    dne: Option<DneEstimator>,
    byte: Option<ByteEstimator>,
    /// Optional aggregation push-down (§4.2 end): tracks the distinct
    /// values of the join key in the join *output* distribution.
    agg_pushdown: Option<Arc<Mutex<DistinctTracker>>>,
    state: JState,
}

impl HashJoin {
    /// New hash join; `build_key`/`probe_key` are column indices of the
    /// equi-join key in the respective child schemas.
    pub fn new(
        build: BoxedOp,
        probe: BoxedOp,
        build_key: usize,
        probe_key: usize,
        estimation: JoinEstimation,
        metrics: Arc<OpMetrics>,
    ) -> Self {
        let schema = build.schema().join(&probe.schema()).into_ref();
        HashJoin {
            build: Some(build),
            probe: Some(probe),
            build_key,
            probe_key,
            kind: JoinKind::Inner,
            schema,
            null_pad: Row::default(),
            null_probe_rows: Vec::new(),
            metrics,
            estimation,
            num_partitions: DEFAULT_PARTITIONS,
            threads: 1,
            build_parts: Vec::new(),
            probe_parts: Vec::new(),
            pair_buf: Vec::new(),
            once: None,
            dne: None,
            byte: None,
            agg_pushdown: None,
            state: JState::Init,
        }
    }

    /// Select the join semantics; recomputes the output schema:
    /// `Inner` → build ++ probe, `LeftOuter` → nullable(build) ++ probe,
    /// `Semi`/`Anti` → probe only. Call before execution starts.
    pub fn with_join_kind(mut self, kind: JoinKind) -> Self {
        self.kind = kind;
        let build_schema = self
            .build
            .as_ref()
            .expect("with_join_kind before execution")
            .schema();
        let probe_schema = self
            .probe
            .as_ref()
            .expect("with_join_kind before execution")
            .schema();
        self.schema = match kind {
            JoinKind::Inner => build_schema.join(&probe_schema).into_ref(),
            JoinKind::LeftOuter => {
                let nullable_build = qprog_types::Schema::new(
                    build_schema
                        .fields()
                        .iter()
                        .map(|f| f.clone().with_nullable(true))
                        .collect(),
                );
                nullable_build.join(&probe_schema).into_ref()
            }
            JoinKind::Semi | JoinKind::Anti => Arc::clone(&probe_schema),
        };
        self.null_pad = Row::new(vec![qprog_types::Value::Null; build_schema.arity()]);
        self
    }

    /// The configured join semantics.
    pub fn join_kind(&self) -> JoinKind {
        self.kind
    }

    /// Override the partition count (≥ 1).
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n.max(1);
        self
    }

    /// Set the degree of parallelism for the build and probe drains. At 1
    /// (the default) the serial engine runs verbatim. At `n > 1` each drain
    /// splits its input scan into `n` contiguous chunks executed across
    /// worker threads; per-worker histogram and `D_{t+1}` fragments are
    /// merged associatively in worker order, so both the output row order
    /// and the converged join estimate are identical to serial execution.
    /// Pipeline-estimated joins (Algorithm 1 push-down) always run serial —
    /// the shared estimator's push-down protocol is order-sensitive.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Effective worker-pool width for the drains.
    fn pool_width(&self) -> usize {
        match self.estimation {
            JoinEstimation::Pipeline { .. } => 1,
            _ => self.threads,
        }
    }

    /// Attach aggregation push-down: the tracker observes the join-key
    /// distribution of the join *output* during the probe-partitioning
    /// pass, so a GROUP BY on the join attribute above this join gets
    /// GEE/MLE estimates long before the aggregation sees a tuple.
    pub fn with_agg_pushdown(mut self, tracker: Arc<Mutex<DistinctTracker>>) -> Self {
        self.agg_pushdown = Some(tracker);
        self
    }

    /// Run the build and probe-partitioning phases.
    fn preprocess(&mut self, batch_cap: usize) -> QResult<()> {
        let mut build = self
            .build
            .take()
            .ok_or_else(|| QError::internal("hash join build input consumed twice"))?;
        let mut probe = self
            .probe
            .take()
            .ok_or_else(|| QError::internal("hash join probe input consumed twice"))?;
        let build_arity = build.schema().arity();
        let probe_arity = probe.schema().arity();

        self.build_parts = (0..self.num_partitions)
            .map(|_| RowBatch::accumulator(build_arity))
            .collect();
        self.probe_parts = (0..self.num_partitions)
            .map(|_| RowBatch::accumulator(probe_arity))
            .collect();

        // ---- Build phase ----
        self.metrics.trace_phase(Phase::Init, Phase::Build);
        let width = self.pool_width();
        let mut worker_busy: Vec<Duration> = Vec::new();
        let mut build_hist = match self.estimation {
            JoinEstimation::Once { .. } => Some(FreqHist::new()),
            _ => None,
        };
        if let JoinEstimation::Pipeline {
            handle, join_index, ..
        } = &self.estimation
        {
            handle.lock().estimator.begin_build(*join_index)?;
        }
        let split_build = if width > 1 {
            build.try_split(width)
        } else {
            None
        };
        if let Some(subs) = split_build {
            build_hist =
                self.drain_build_parallel(subs, build_hist.is_some(), batch_cap, &mut worker_busy)?;
            // The soft histogram budget is checked on the *merged* histogram:
            // workers accumulate disjoint fragments, so the serial path's
            // mid-build degradation point has no parallel equivalent, but
            // the ladder (exact histogram → dne) and its trace event are the
            // same.
            if let Some(h) = &build_hist {
                if self.metrics.hist_budget_exceeded(h.memory_allocated()) {
                    build_hist = None;
                    self.estimation = JoinEstimation::Dne {
                        optimizer_estimate: self.metrics.estimated_total(),
                    };
                    self.metrics.trace_degraded(DegradeReason::HistogramMemory);
                }
            }
        } else {
            let mut scratch = RowBatch::with_capacity(build_arity, batch_cap);
            let mut sel: Vec<Vec<usize>> = (0..self.num_partitions).map(|_| Vec::new()).collect();
            loop {
                let status = build.next_batch(&mut scratch)?;
                let n = scratch.len();
                if n > 0 {
                    self.metrics.checkpoint(n as u64)?;
                    qprog_fault::fail_point!("exec/hash_build/insert");
                }
                for s in &mut sel {
                    s.clear();
                }
                // Estimation reads the batch's columns in scan order (the
                // kernels skip NULL keys themselves): one shared-state lock
                // and one kernel call per batch.
                if n > 0 {
                    if let JoinEstimation::Pipeline {
                        handle, join_index, ..
                    } = &self.estimation
                    {
                        handle
                            .lock()
                            .estimator
                            .build_batch(*join_index, scratch.cols(), n)?;
                    }
                    if let Some(h) = &mut build_hist {
                        h.observe_column(scratch.col(self.build_key), None)?;
                        // Soft histogram-memory budget: degrade the estimator one
                        // rung (exact frequency histogram → dne baseline) instead
                        // of aborting the query (ladder documented in DESIGN.md §5).
                        if self.metrics.hist_budget_exceeded(h.memory_allocated()) {
                            build_hist = None;
                            self.estimation = JoinEstimation::Dne {
                                optimizer_estimate: self.metrics.estimated_total(),
                            };
                            self.metrics.trace_degraded(DegradeReason::HistogramMemory);
                        }
                    }
                }
                for r in 0..n {
                    let key = scratch.key(r, self.build_key)?;
                    if key.is_null() {
                        continue; // NULL keys never equi-join
                    }
                    sel[partition_of(&key, self.num_partitions)].push(r);
                }
                for (p, s) in sel.iter().enumerate() {
                    if !s.is_empty() {
                        self.build_parts[p].gather_from(&scratch, s);
                    }
                }
                if status.is_exhausted() {
                    break;
                }
            }
        }
        if let JoinEstimation::Pipeline {
            handle, join_index, ..
        } = &self.estimation
        {
            handle.lock().estimator.end_build(*join_index)?;
        }
        if let JoinEstimation::Once { probe_size_hint } = self.estimation {
            self.once = Some(OnceJoinEstimator::with_kind(
                build_hist.take().expect("histogram built in Once mode"),
                probe_size_hint,
                self.kind,
            ));
        }

        // ---- Probe partitioning phase ----
        self.metrics.trace_phase(Phase::Build, Phase::Probe);
        let mut probe_rows: u64 = 0;
        let split_probe = if width > 1 {
            probe.try_split(width)
        } else {
            None
        };
        if let Some(subs) = split_probe {
            probe_rows = self.drain_probe_parallel(subs, batch_cap, &mut worker_busy)?;
        } else {
            let keep_nulls = matches!(self.kind, JoinKind::LeftOuter | JoinKind::Anti);
            let mut scratch = RowBatch::with_capacity(probe_arity, batch_cap);
            let mut sel: Vec<Vec<usize>> = (0..self.num_partitions).map(|_| Vec::new()).collect();
            // Per-batch (key, multiplicity) staging for the push-down
            // tracker, applied under one lock per batch.
            let mut agg_buf: Vec<(Key, u64)> = Vec::new();
            loop {
                let status = probe.next_batch(&mut scratch)?;
                let n = scratch.len();
                if n > 0 {
                    self.metrics.checkpoint(n as u64)?;
                    qprog_fault::fail_point!("exec/hash_probe/observe");
                }
                for s in &mut sel {
                    s.clear();
                }
                probe_rows += n as u64;
                // `D_{t+1}` over the whole key column; matched keys are
                // staged for the push-down tracker.
                if let Some(once) = &mut self.once {
                    let mults = once.observe_probe_batch(scratch.col(self.probe_key))?;
                    if self.agg_pushdown.is_some() {
                        stage_matched_keys(&mut agg_buf, &scratch, self.probe_key, mults)?;
                    }
                }
                for r in 0..n {
                    let key = scratch.key(r, self.probe_key)?;
                    if key.is_null() {
                        if keep_nulls {
                            self.null_probe_rows.push(scratch.row(r));
                        }
                        continue;
                    }
                    sel[partition_of(&key, self.num_partitions)].push(r);
                }
                // Algorithm-1 push-down: the lowest join feeds the shared
                // estimator under one lock per batch, in scan order.
                if n > 0 {
                    if let JoinEstimation::Pipeline {
                        handle,
                        lowest: true,
                        ..
                    } = &self.estimation
                    {
                        let mut shared = handle.lock();
                        shared.estimator.observe_probe_batch(scratch.cols(), n)?;
                        shared.publish();
                    }
                    // Batch-boundary estimate publication — the per-tuple
                    // cadence of the paper when `batch_rows = 1`.
                    if let Some(once) = &mut self.once {
                        self.metrics.set_estimated_total(once.estimate());
                        let ci = once.confidence_interval(CI_Z);
                        self.metrics.set_estimated_bounds(ci.lo, ci.hi);
                        if let Some(tracker) = &self.agg_pushdown {
                            let mut t = tracker.lock();
                            for (key, mult) in agg_buf.drain(..) {
                                t.observe_n(&key, mult);
                            }
                            t.set_input_size(once.estimate().round() as u64);
                        }
                    }
                }
                for (p, s) in sel.iter().enumerate() {
                    if !s.is_empty() {
                        self.probe_parts[p].gather_from(&scratch, s);
                    }
                }
                if status.is_exhausted() {
                    break;
                }
            }
        }
        // Per-worker wall-time attribution (build + probe busy combined);
        // serial drains leave `worker_busy` empty, so no events appear.
        for (w, busy) in worker_busy.iter().enumerate() {
            if !busy.is_zero() {
                self.metrics.record_worker_busy(w as u32, *busy);
            }
        }
        // The probe input is now exhausted: |S| is exact.
        if let Some(once) = &mut self.once {
            once.set_probe_size(probe_rows);
            self.metrics.set_estimated_total(once.estimate());
            self.metrics
                .set_estimated_bounds(once.estimate(), once.estimate());
            if let Some(tracker) = &self.agg_pushdown {
                tracker
                    .lock()
                    .set_input_size(once.estimate().round() as u64);
            }
        }
        if let JoinEstimation::Pipeline { handle, lowest, .. } = &self.estimation {
            if *lowest {
                let mut shared = handle.lock();
                shared.estimator.set_probe_size(probe_rows);
                shared.publish();
            }
        }
        match self.estimation {
            JoinEstimation::Dne { optimizer_estimate } => {
                self.dne = Some(DneEstimator::new(probe_rows, optimizer_estimate));
                self.metrics.set_estimated_total(optimizer_estimate);
            }
            JoinEstimation::Byte {
                optimizer_estimate,
                probe_row_bytes,
            } => {
                self.byte = Some(ByteEstimator::new(
                    probe_rows,
                    probe_row_bytes,
                    optimizer_estimate,
                ));
                self.metrics.set_estimated_total(optimizer_estimate);
            }
            _ => {}
        }

        self.metrics.trace_phase(Phase::Probe, Phase::PartitionJoin);
        self.load_partition(0)?;
        Ok(())
    }

    /// Drain pre-split build chunks across worker threads. Each worker
    /// hash-partitions its chunk into columnar accumulators and builds a
    /// local [`FreqHist`] fragment; fragments are merged **in worker
    /// order**, which — because chunks are contiguous slices of the scan
    /// order — reproduces the serial partition contents and histogram state
    /// exactly.
    fn drain_build_parallel(
        &mut self,
        subs: Vec<BoxedOp>,
        want_hist: bool,
        batch_cap: usize,
        worker_busy: &mut Vec<Duration>,
    ) -> QResult<Option<FreqHist>> {
        let build_key = self.build_key;
        let num_partitions = self.num_partitions;
        let tasks: Vec<_> = subs
            .into_iter()
            .map(|mut op| {
                let metrics = Arc::clone(&self.metrics);
                move |_w: usize| -> QResult<(Vec<RowBatch>, Option<FreqHist>)> {
                    let arity = op.schema().arity();
                    let mut parts: Vec<RowBatch> = (0..num_partitions)
                        .map(|_| RowBatch::accumulator(arity))
                        .collect();
                    let mut hist = if want_hist {
                        Some(FreqHist::new())
                    } else {
                        None
                    };
                    let mut sel: Vec<Vec<usize>> =
                        (0..num_partitions).map(|_| Vec::new()).collect();
                    let mut scratch = RowBatch::with_capacity(arity, batch_cap);
                    loop {
                        let status = op.next_batch(&mut scratch)?;
                        let n = scratch.len();
                        if n > 0 {
                            metrics.checkpoint(n as u64)?;
                            qprog_fault::fail_point!("exec/hash_build/insert");
                        }
                        for s in &mut sel {
                            s.clear();
                        }
                        if let Some(h) = &mut hist {
                            h.observe_column(scratch.col(build_key), None)?;
                        }
                        for r in 0..n {
                            let key = scratch.key(r, build_key)?;
                            if key.is_null() {
                                continue; // NULL keys never equi-join
                            }
                            sel[partition_of(&key, num_partitions)].push(r);
                        }
                        for (p, s) in sel.iter().enumerate() {
                            if !s.is_empty() {
                                parts[p].gather_from(&scratch, s);
                            }
                        }
                        if status.is_exhausted() {
                            break;
                        }
                    }
                    Ok((parts, hist))
                }
            })
            .collect();
        let outputs = parallel::run_tasks(tasks)?;
        let mut merged = if want_hist {
            Some(FreqHist::new())
        } else {
            None
        };
        for (w, out) in outputs.into_iter().enumerate() {
            if w >= worker_busy.len() {
                worker_busy.resize(w + 1, Duration::ZERO);
            }
            worker_busy[w] += out.busy;
            let (mut parts, hist) = out.value;
            for (p, batch) in parts.iter_mut().enumerate() {
                self.build_parts[p].append_batch(batch);
            }
            if let (Some(m), Some(h)) = (&mut merged, hist) {
                m.merge(&h);
            }
        }
        Ok(merged)
    }

    /// Drain pre-split probe chunks across worker threads. Each worker
    /// partitions its chunk, runs the `D_{t+1}` refinement against the
    /// (read-only) build histogram into a local [`ProbeFragment`], and
    /// records agg-push-down observations in arrival order; fragments are
    /// absorbed in worker order, so the converged estimate and all
    /// partition/tracker state are identical to serial execution. Workers
    /// publish a combined mid-flight estimate through shared counters every
    /// [`PUBLISH_EVERY`] local rows (confidence bounds are published only at
    /// the exact end-of-probe point when parallel).
    fn drain_probe_parallel(
        &mut self,
        subs: Vec<BoxedOp>,
        batch_cap: usize,
        worker_busy: &mut Vec<Duration>,
    ) -> QResult<u64> {
        struct ProbeChunk {
            parts: Vec<RowBatch>,
            nulls: Vec<Row>,
            rows: u64,
            frag: ProbeFragment,
            agg: Vec<(Key, u64)>,
        }
        let probe_key = self.probe_key;
        let num_partitions = self.num_partitions;
        let kind = self.kind;
        let keep_nulls = matches!(self.kind, JoinKind::LeftOuter | JoinKind::Anti);
        let want_agg = self.agg_pushdown.is_some();
        let hint = match self.estimation {
            JoinEstimation::Once { probe_size_hint } => probe_size_hint,
            _ => 0,
        };
        let hist = self.once.as_ref().map(|o| o.build_histogram());
        let seen = AtomicU64::new(0);
        let matched = AtomicU64::new(0);
        let tasks: Vec<_> = subs
            .into_iter()
            .map(|mut op| {
                let metrics = Arc::clone(&self.metrics);
                let (seen, matched) = (&seen, &matched);
                move |_w: usize| -> QResult<ProbeChunk> {
                    let arity = op.schema().arity();
                    let mut chunk = ProbeChunk {
                        parts: (0..num_partitions)
                            .map(|_| RowBatch::accumulator(arity))
                            .collect(),
                        nulls: Vec::new(),
                        rows: 0,
                        frag: ProbeFragment::new(),
                        agg: Vec::new(),
                    };
                    let mut sel: Vec<Vec<usize>> =
                        (0..num_partitions).map(|_| Vec::new()).collect();
                    let (mut flushed_t, mut flushed_sum) = (0u64, 0u128);
                    let mut mults: Vec<u64> = Vec::new();
                    let mut scratch = RowBatch::with_capacity(arity, batch_cap);
                    loop {
                        let status = op.next_batch(&mut scratch)?;
                        let n = scratch.len();
                        if n > 0 {
                            metrics.checkpoint(n as u64)?;
                            qprog_fault::fail_point!("exec/hash_probe/observe");
                        }
                        for s in &mut sel {
                            s.clear();
                        }
                        chunk.rows += n as u64;
                        if let Some(h) = hist {
                            chunk.frag.observe_batch(
                                h,
                                kind,
                                scratch.col(probe_key),
                                &mut mults,
                            )?;
                            if want_agg {
                                stage_matched_keys(&mut chunk.agg, &scratch, probe_key, &mults)?;
                            }
                            // Mid-flight publication at batch boundaries,
                            // at most once per PUBLISH_EVERY local rows.
                            let dt = chunk.frag.seen() - flushed_t;
                            if dt >= PUBLISH_EVERY {
                                let ds = (chunk.frag.matched() - flushed_sum) as u64;
                                flushed_t = chunk.frag.seen();
                                flushed_sum = chunk.frag.matched();
                                let t = seen.fetch_add(dt, Ordering::Relaxed) + dt;
                                let s = matched.fetch_add(ds, Ordering::Relaxed) + ds;
                                let est = s as f64 / t as f64 * hint.max(t) as f64;
                                metrics.set_estimated_total(est);
                            }
                        }
                        for r in 0..n {
                            let key = scratch.key(r, probe_key)?;
                            if key.is_null() {
                                if keep_nulls {
                                    chunk.nulls.push(scratch.row(r));
                                }
                                continue;
                            }
                            sel[partition_of(&key, num_partitions)].push(r);
                        }
                        for (p, s) in sel.iter().enumerate() {
                            if !s.is_empty() {
                                chunk.parts[p].gather_from(&scratch, s);
                            }
                        }
                        if status.is_exhausted() {
                            break;
                        }
                    }
                    Ok(chunk)
                }
            })
            .collect();
        let outputs = parallel::run_tasks(tasks)?;
        let mut probe_rows = 0;
        for (w, out) in outputs.into_iter().enumerate() {
            if w >= worker_busy.len() {
                worker_busy.resize(w + 1, Duration::ZERO);
            }
            worker_busy[w] += out.busy;
            let mut chunk = out.value;
            probe_rows += chunk.rows;
            for (p, batch) in chunk.parts.iter_mut().enumerate() {
                self.probe_parts[p].append_batch(batch);
            }
            self.null_probe_rows.extend(chunk.nulls);
            if let Some(once) = &mut self.once {
                once.absorb(&chunk.frag);
            }
            if let Some(tracker) = &self.agg_pushdown {
                let mut t = tracker.lock();
                for (key, mult) in chunk.agg {
                    t.observe_n(&key, mult);
                }
            }
        }
        Ok(probe_rows)
    }

    /// Build the in-memory hash table for partition `part`.
    fn load_partition(&mut self, part: usize) -> QResult<()> {
        let bpart = &self.build_parts[part];
        let mut table: FxHashMap<Key, Vec<u32>> = FxHashMap::default();
        for i in 0..bpart.len() {
            let key = bpart.key(i, self.build_key)?;
            table.entry(key).or_default().push(i as u32);
        }
        self.state = JState::Joining {
            part,
            table,
            probe_pos: 0,
            pending: None,
        };
        Ok(())
    }
}

/// Stage `(key, multiplicity)` of every probe row of `batch` with a build
/// match, in row order, for the aggregation push-down tracker.
fn stage_matched_keys(
    staged: &mut Vec<(Key, u64)>,
    batch: &RowBatch,
    key_col: usize,
    mults: &[u64],
) -> QResult<()> {
    for (r, &mult) in mults.iter().enumerate() {
        if mult > 0 {
            staged.push((batch.key(r, key_col)?, mult));
        }
    }
    Ok(())
}

/// Apply one output batch's accumulated bookkeeping: `drv` probe rows
/// consumed and `emit` rows emitted since the last flush. Governor
/// checkpoints, gnm counters, and baseline estimators all advance by the
/// summed deltas; with capacity-1 batches this runs once per tuple, the
/// legacy cadence. Free function so it can run while the join state is
/// mutably borrowed.
fn flush_join_batch(
    metrics: &OpMetrics,
    dne: &mut Option<DneEstimator>,
    byte: &mut Option<ByteEstimator>,
    drv: &mut u64,
    emit: &mut u64,
) -> QResult<()> {
    if *drv == 0 && *emit == 0 {
        return Ok(());
    }
    if *drv > 0 {
        metrics.checkpoint(*drv)?;
        metrics.record_driver(*drv);
        if let Some(dne) = dne {
            dne.observe_driver(*drv);
        }
        if let Some(byte) = byte {
            byte.observe_input_rows(*drv);
        }
    }
    if *emit > 0 {
        metrics.record_emitted_n(*emit);
        if let Some(dne) = dne {
            dne.observe_output(*emit);
        }
        if let Some(byte) = byte {
            byte.observe_output_rows(*emit);
        }
    }
    if let Some(dne) = dne {
        metrics.set_estimated_total(dne.estimate());
    }
    if let Some(byte) = byte {
        metrics.set_estimated_total(byte.estimate());
    }
    *drv = 0;
    *emit = 0;
    Ok(())
}

impl Operator for HashJoin {
    fn schema(&self) -> SchemaRef {
        Arc::clone(&self.schema)
    }

    fn next_batch(&mut self, out: &mut RowBatch) -> QResult<BatchStatus> {
        out.clear();
        if matches!(self.state, JState::Init) {
            self.preprocess(out.capacity())?;
        }
        let mut drv = 0u64;
        let mut emit = 0u64;
        loop {
            match &mut self.state {
                JState::Init => unreachable!("preprocessed above"),
                JState::Done => return Ok(BatchStatus::Exhausted),
                JState::Joining {
                    part,
                    table,
                    probe_pos,
                    pending,
                } => {
                    let part_idx = *part;
                    let bpart = &self.build_parts[part_idx];
                    let ppart = &self.probe_parts[part_idx];
                    // Governor granularity: at most one output batch worth
                    // of probe rows is consumed between flushes, even when
                    // nothing matches.
                    let chunk = out.capacity().max(1);
                    match self.kind {
                        JoinKind::Inner => {
                            // Vectorized fast path: collect (build, probe)
                            // index pairs, then emit them with one
                            // column-wise gather.
                            self.pair_buf.clear();
                            let room = out.remaining();
                            if let Some((pidx, cur)) = pending.take() {
                                let key = ppart.key(pidx, self.probe_key)?;
                                let matches = table.get(&key).map_or(&[][..], Vec::as_slice);
                                let take = (matches.len() - cur).min(room);
                                self.pair_buf.extend(
                                    matches[cur..cur + take].iter().map(|&b| (b, pidx as u32)),
                                );
                                if cur + take < matches.len() {
                                    *pending = Some((pidx, cur + take));
                                }
                            }
                            let mut scanned = 0usize;
                            while self.pair_buf.len() < room
                                && scanned < chunk
                                && *probe_pos < ppart.len()
                            {
                                let pidx = *probe_pos;
                                *probe_pos += 1;
                                drv += 1;
                                scanned += 1;
                                let key = ppart.key(pidx, self.probe_key)?;
                                if let Some(matches) = table.get(&key) {
                                    let take = matches.len().min(room - self.pair_buf.len());
                                    self.pair_buf
                                        .extend(matches[..take].iter().map(|&b| (b, pidx as u32)));
                                    if take < matches.len() {
                                        *pending = Some((pidx, take));
                                    }
                                }
                            }
                            out.gather_concat_from(bpart, ppart, &self.pair_buf);
                            emit += self.pair_buf.len() as u64;
                        }
                        _ => {
                            // LeftOuter / Semi / Anti: misses interleave
                            // with matches in probe order, row-wise.
                            if let Some((pidx, cur)) = pending.take() {
                                let key = ppart.key(pidx, self.probe_key)?;
                                let matches = table.get(&key).map_or(&[][..], Vec::as_slice);
                                let mut c = cur;
                                while c < matches.len() && !out.is_full() {
                                    out.gather_concat_from(
                                        bpart,
                                        ppart,
                                        &[(matches[c], pidx as u32)],
                                    );
                                    emit += 1;
                                    c += 1;
                                }
                                if c < matches.len() {
                                    *pending = Some((pidx, c));
                                }
                            }
                            let mut scanned = 0usize;
                            while !out.is_full() && scanned < chunk && *probe_pos < ppart.len() {
                                let pidx = *probe_pos;
                                *probe_pos += 1;
                                drv += 1;
                                scanned += 1;
                                let key = ppart.key(pidx, self.probe_key)?;
                                match (self.kind, table.get(&key)) {
                                    (JoinKind::LeftOuter, Some(matches)) => {
                                        let mut c = 0;
                                        while c < matches.len() && !out.is_full() {
                                            out.gather_concat_from(
                                                bpart,
                                                ppart,
                                                &[(matches[c], pidx as u32)],
                                            );
                                            emit += 1;
                                            c += 1;
                                        }
                                        if c < matches.len() {
                                            *pending = Some((pidx, c));
                                        }
                                    }
                                    (JoinKind::LeftOuter, None) => {
                                        out.push_concat_row_from(
                                            self.null_pad.values(),
                                            ppart,
                                            pidx,
                                        );
                                        emit += 1;
                                    }
                                    (JoinKind::Semi, Some(_)) | (JoinKind::Anti, None) => {
                                        out.push_from(ppart, pidx);
                                        emit += 1;
                                    }
                                    _ => {}
                                }
                            }
                        }
                    }
                    let more_here = *probe_pos < ppart.len() || pending.is_some();
                    flush_join_batch(
                        &self.metrics,
                        &mut self.dne,
                        &mut self.byte,
                        &mut drv,
                        &mut emit,
                    )?;
                    if out.is_full() {
                        return Ok(BatchStatus::HasMore);
                    }
                    if more_here {
                        continue; // chunk boundary; same partition
                    }
                    // Partition exhausted: move to the next.
                    let next_part = part_idx + 1;
                    if next_part < self.num_partitions {
                        self.load_partition(next_part)?;
                        continue;
                    }
                    // NULL-key probe rows never match: LeftOuter pads
                    // them, Anti passes them through.
                    while !out.is_full() {
                        let Some(row) = self.null_probe_rows.pop() else {
                            break;
                        };
                        match self.kind {
                            JoinKind::LeftOuter => {
                                out.push_concat(self.null_pad.values(), row.values())
                            }
                            _ => out.push_row(row),
                        }
                        emit += 1;
                    }
                    flush_join_batch(
                        &self.metrics,
                        &mut self.dne,
                        &mut self.byte,
                        &mut drv,
                        &mut emit,
                    )?;
                    if out.is_full() {
                        return Ok(BatchStatus::HasMore);
                    }
                    self.state = JState::Done;
                    self.metrics.mark_finished();
                    return Ok(BatchStatus::Exhausted);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "hash_join"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::test_util::{drain, int_table};
    use crate::ops::TableScan;
    use qprog_core::pipeline_est::{AttrSource, JoinSpec};

    fn scan1(name: &str, vals: &[i64]) -> BoxedOp {
        let t = int_table(name, "k", vals).into_shared();
        Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)))
    }

    fn exact_join(r: &[i64], s: &[i64]) -> usize {
        r.iter()
            .map(|a| s.iter().filter(|&&b| b == *a).count())
            .sum()
    }

    #[test]
    fn joins_correctly() {
        let r = [1i64, 1, 2, 3];
        let s = [1i64, 2, 2, 4];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Off,
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), exact_join(&r, &s)); // 1×2 + 2×2 = 4
        for row in &rows {
            assert_eq!(row.arity(), 2);
            assert_eq!(row.get(0).unwrap(), row.get(1).unwrap());
        }
        assert_eq!(m.emitted(), 4);
        assert!(m.is_finished());
    }

    #[test]
    fn null_keys_never_join() {
        use qprog_types::{DataType, Field, Row, Schema, Value};
        let mut t = qprog_storage::Table::new(
            "n",
            Schema::new(vec![Field::new("k", DataType::Int64).with_nullable(true)]),
        );
        t.push(Row::new(vec![Value::Null])).unwrap();
        t.push(Row::new(vec![Value::Int64(1)])).unwrap();
        let t = t.into_shared();
        let left: BoxedOp = Box::new(TableScan::new(
            Arc::clone(&t),
            OpMetrics::with_initial_estimate(0.0),
        ));
        let right: BoxedOp = Box::new(TableScan::new(t, OpMetrics::with_initial_estimate(0.0)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(left, right, 0, 0, JoinEstimation::Off, m);
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 1); // only 1 = 1
    }

    #[test]
    fn once_estimate_converges_before_output() {
        let r: Vec<i64> = (0..500).map(|i| i % 50).collect();
        let s: Vec<i64> = (0..800).map(|i| i % 100).collect();
        let truth = exact_join(&r, &s) as f64;
        let m = OpMetrics::with_initial_estimate(1.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once {
                probe_size_hint: s.len() as u64,
            },
            Arc::clone(&m),
        );
        // Pull exactly one output row: preprocessing (build + probe
        // partitioning) has completed, so the estimate must already be exact.
        {
            let mut src = crate::ops::RowSource::new(&mut j);
            let first = src.next_row().unwrap();
            assert!(first.is_some());
        }
        assert_eq!(m.estimated_total(), truth);
        let rest = drain(&mut j);
        assert_eq!(rest.len() + 1, truth as usize);
    }

    #[test]
    fn once_corrects_bad_probe_size_hint() {
        let r = [5i64, 5];
        let s = [5i64, 5, 5, 6];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once {
                probe_size_hint: 4000, // wildly wrong
            },
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 6);
        assert_eq!(m.estimated_total(), 6.0);
    }

    #[test]
    fn dne_fluctuates_with_partition_clustered_output() {
        // Skewed: one hot value. dne watches the join pass, whose output is
        // clustered by partition, so its estimate must move a lot.
        let r: Vec<i64> = std::iter::repeat_n(7, 200).chain(0..50).collect();
        let s: Vec<i64> = (0..1000).map(|i| i % 100).collect();
        let m = OpMetrics::with_initial_estimate(50.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Dne {
                optimizer_estimate: 50.0,
            },
            Arc::clone(&m),
        );
        let mut estimates = Vec::new();
        let mut src = crate::ops::RowSource::new(&mut j);
        while let Some(_row) = src.next_row().unwrap() {
            estimates.push(m.estimated_total());
        }
        let truth = exact_join(&r, &s) as f64;
        // converged once every probe row has been joined
        assert_eq!(m.estimated_total(), truth);
        // ...but wandered on the way: relative spread well above 30%.
        let min = estimates.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = estimates.iter().cloned().fold(0.0, f64::max);
        assert!(
            max / min > 1.3,
            "dne should fluctuate under clustering: min {min} max {max} truth {truth}"
        );
    }

    #[test]
    fn byte_estimator_publishes_and_converges() {
        let r: Vec<i64> = (0..100).collect();
        let s: Vec<i64> = (0..100).collect();
        let m = OpMetrics::with_initial_estimate(13.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Byte {
                optimizer_estimate: 13.0,
                probe_row_bytes: 8,
            },
            Arc::clone(&m),
        );
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 100);
        assert_eq!(m.estimated_total(), 100.0);
    }

    #[test]
    fn pipeline_mode_two_joins_same_attribute() {
        // upper: A ⋈ (B ⋈ C) all on col 0. Exec tree: HashJoin(build=A,
        // probe=HashJoin(build=B, probe=C)).
        let a = [1i64, 1, 2];
        let b = [1i64, 2, 2];
        let c = [1i64, 2, 9];
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            };
            2
        ];
        let m_lower = OpMetrics::with_initial_estimate(0.0);
        let m_upper = OpMetrics::with_initial_estimate(0.0);
        let shared: PipelineHandle = Arc::new(Mutex::new(PipelineShared {
            estimator: PipelineEstimator::new(specs, c.len() as u64).unwrap(),
            metrics: vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        }));
        let lower = HashJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 0,
                lowest: true,
            },
            Arc::clone(&m_lower),
        );
        let mut upper = HashJoin::new(
            scan1("a", &a),
            Box::new(lower),
            0,
            0,
            JoinEstimation::Pipeline {
                handle: Arc::clone(&shared),
                join_index: 1,
                lowest: false,
            },
            Arc::clone(&m_upper),
        );
        let rows = drain(&mut upper);
        // lower join: 1→1, 2→2 matches = 3 rows (c=1:1, c=2:2)
        // upper: c=1 → 1·2(A has two 1s)=2; c=2 → 2·1 = 2 → 4 rows
        assert_eq!(rows.len(), 4);
        assert_eq!(m_lower.estimated_total(), 3.0);
        assert_eq!(m_upper.estimated_total(), 4.0);
    }

    #[test]
    fn agg_pushdown_tracks_output_distinct() {
        let r = [1i64, 1, 2, 3];
        let s = [1i64, 2, 2, 5];
        // join output keys: 1 (×2), 2 (×2) → 2 distinct
        let tracker = Arc::new(Mutex::new(DistinctTracker::new(10)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once { probe_size_hint: 4 },
            Arc::clone(&m),
        )
        .with_agg_pushdown(Arc::clone(&tracker));
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 4);
        let t = tracker.lock();
        assert_eq!(t.groups_seen(), 2);
        assert_eq!(t.estimate(), 2.0);
    }

    #[test]
    fn join_kinds_semantics_and_estimates() {
        use qprog_types::Value;
        let r = [1i64, 1, 2, 3];
        let s = [1i64, 2, 2, 4, 9];
        // truths: inner 4 (1×2 + 2×1 + 2×1); semi 3; anti 2; louter 4+2=6
        for (kind, expect_rows, expect_arity) in [
            (JoinKind::Inner, 4usize, 2usize),
            (JoinKind::Semi, 3, 1),
            (JoinKind::Anti, 2, 1),
            (JoinKind::LeftOuter, 6, 2),
        ] {
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j = HashJoin::new(
                scan1("r", &r),
                scan1("s", &s),
                0,
                0,
                JoinEstimation::Once {
                    probe_size_hint: s.len() as u64,
                },
                Arc::clone(&m),
            )
            .with_join_kind(kind);
            assert_eq!(j.schema().arity(), expect_arity, "{kind:?}");
            let rows = drain(&mut j);
            assert_eq!(rows.len(), expect_rows, "{kind:?}");
            // once estimate exact at completion for every kind
            assert_eq!(m.estimated_total(), expect_rows as f64, "{kind:?}");
            if kind == JoinKind::LeftOuter {
                // unmatched probe rows are NULL-padded on the build side
                let padded = rows
                    .iter()
                    .filter(|row| row.get(0).unwrap() == &Value::Null)
                    .count();
                assert_eq!(padded, 2);
            }
        }
    }

    #[test]
    fn null_probe_keys_per_kind() {
        use qprog_types::{DataType, Field, Schema, Value};
        let mut t = qprog_storage::Table::new(
            "p",
            Schema::new(vec![Field::new("k", DataType::Int64).with_nullable(true)]),
        );
        t.push(Row::new(vec![Value::Null])).unwrap();
        t.push(Row::new(vec![Value::Int64(1)])).unwrap();
        let t = t.into_shared();
        for (kind, expect) in [
            (JoinKind::Inner, 1usize), // only 1=1
            (JoinKind::Semi, 1),       // the matching row
            (JoinKind::Anti, 1),       // the NULL row (no match)
            (JoinKind::LeftOuter, 2),  // match + padded NULL row
        ] {
            let probe: BoxedOp = Box::new(TableScan::new(
                Arc::clone(&t),
                OpMetrics::with_initial_estimate(0.0),
            ));
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j = HashJoin::new(scan1("r", &[1, 2]), probe, 0, 0, JoinEstimation::Off, m)
                .with_join_kind(kind);
            assert_eq!(drain(&mut j).len(), expect, "{kind:?}");
        }
    }

    /// Run the skewed reference join at a given thread count and return
    /// (output rows, final estimate, tracker distinct estimate).
    fn skewed_join_at(threads: usize, kind: JoinKind) -> (Vec<Row>, f64, f64) {
        let r: Vec<i64> = (0..700)
            .map(|i| if i % 3 == 0 { 7 } else { i % 90 })
            .collect();
        let s: Vec<i64> = (0..1100).map(|i| i % 130).collect();
        let tracker = Arc::new(Mutex::new(DistinctTracker::new(1 << 20)));
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once {
                probe_size_hint: s.len() as u64,
            },
            Arc::clone(&m),
        )
        .with_join_kind(kind)
        .with_threads(threads)
        .with_agg_pushdown(Arc::clone(&tracker));
        let rows = drain(&mut j);
        let distinct = tracker.lock().estimate();
        (rows, m.estimated_total(), distinct)
    }

    #[test]
    fn parallel_drains_are_byte_identical_to_serial() {
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let (serial_rows, serial_est, serial_distinct) = skewed_join_at(1, kind);
            for threads in [2usize, 4] {
                let (rows, est, distinct) = skewed_join_at(threads, kind);
                assert_eq!(rows, serial_rows, "{kind:?} threads={threads}");
                assert_eq!(
                    est.to_bits(),
                    serial_est.to_bits(),
                    "{kind:?} threads={threads}"
                );
                assert_eq!(
                    distinct.to_bits(),
                    serial_distinct.to_bits(),
                    "{kind:?} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn parallel_join_reports_worker_attribution() {
        let r: Vec<i64> = (0..2000).map(|i| i % 40).collect();
        let s: Vec<i64> = (0..2000).map(|i| i % 55).collect();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once {
                probe_size_hint: s.len() as u64,
            },
            Arc::clone(&m),
        )
        .with_threads(4);
        drain(&mut j);
        assert_eq!(m.workers(), Some(4));
        // serial runs never report workers
        let m1 = OpMetrics::with_initial_estimate(0.0);
        let mut j1 = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Off,
            Arc::clone(&m1),
        );
        drain(&mut j1);
        assert_eq!(m1.workers(), None);
    }

    #[test]
    fn parallel_threads_exceeding_blocks_still_correct() {
        // More workers than blocks: some sub-scans are empty.
        let r = [1i64, 2, 3];
        let s = [1i64, 1, 3];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Once { probe_size_hint: 3 },
            Arc::clone(&m),
        )
        .with_threads(8);
        assert_eq!(drain(&mut j).len(), 3);
        assert_eq!(m.estimated_total(), 3.0);
    }

    #[test]
    fn single_partition_degenerate_case() {
        let r = [1i64, 2];
        let s = [2i64, 1];
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(scan1("r", &r), scan1("s", &s), 0, 0, JoinEstimation::Off, m)
            .with_partitions(1);
        assert_eq!(drain(&mut j).len(), 2);
    }

    #[test]
    fn empty_inputs() {
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &[]),
            scan1("s", &[1, 2]),
            0,
            0,
            JoinEstimation::Once { probe_size_hint: 2 },
            Arc::clone(&m),
        );
        assert!(crate::ops::RowSource::new(&mut j)
            .next_row()
            .unwrap()
            .is_none());
        assert_eq!(m.estimated_total(), 0.0);
        let m2 = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &[1]),
            scan1("s", &[]),
            0,
            0,
            JoinEstimation::Off,
            m2,
        );
        assert!(crate::ops::RowSource::new(&mut j)
            .next_row()
            .unwrap()
            .is_none());
    }

    #[test]
    fn wide_batches_match_strict_mode() {
        let r: Vec<i64> = (0..700)
            .map(|i| if i % 3 == 0 { 7 } else { i % 90 })
            .collect();
        let s: Vec<i64> = (0..1100).map(|i| i % 130).collect();
        let run = |cap: usize| {
            let m = OpMetrics::with_initial_estimate(0.0);
            let mut j = HashJoin::new(
                scan1("r", &r),
                scan1("s", &s),
                0,
                0,
                JoinEstimation::Once {
                    probe_size_hint: s.len() as u64,
                },
                Arc::clone(&m),
            );
            let rows: Vec<String> = crate::ops::test_util::drain_batched(&mut j, cap)
                .iter()
                .map(|row| row.to_string())
                .collect();
            (rows, m.estimated_total())
        };
        assert_eq!(run(1), run(1024));
    }

    #[test]
    fn wide_batches_match_strict_mode_all_kinds() {
        let r: Vec<i64> = (0..300)
            .map(|i| if i % 4 == 0 { 9 } else { i % 40 })
            .collect();
        let s: Vec<i64> = (0..500).map(|i| i % 55).collect();
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let run = |cap: usize| {
                let m = OpMetrics::with_initial_estimate(0.0);
                let mut j = HashJoin::new(
                    scan1("r", &r),
                    scan1("s", &s),
                    0,
                    0,
                    JoinEstimation::Once {
                        probe_size_hint: s.len() as u64,
                    },
                    Arc::clone(&m),
                )
                .with_join_kind(kind);
                let rows: Vec<String> = crate::ops::test_util::drain_batched(&mut j, cap)
                    .iter()
                    .map(|row| row.to_string())
                    .collect();
                (rows, m.estimated_total(), m.emitted(), m.driver_consumed())
            };
            let strict = run(1);
            for cap in [7usize, 64, 1024] {
                assert_eq!(run(cap), strict, "{kind:?} cap={cap}");
            }
        }
    }
}
