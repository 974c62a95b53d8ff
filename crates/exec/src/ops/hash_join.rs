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
//! filled by selection-vector gathers, the per-partition table is a
//! [chained row index](crate::ops::chain) over the build partition, and
//! every output row — a match, a NULL-padded miss, a Semi/Anti probe row —
//! leaves as a `(build, probe)` pair in one column-wise gather of just the
//! columns the join emits. Estimation, governor
//! checkpoints, and metrics are accounted **per batch** — the `K_i` deltas
//! of a batch are summed and applied at its boundary, so published
//! fractions and converged estimates are identical to the per-tuple
//! engine, which a capacity-1 batch reproduces exactly.
//!
//! Both drains run through one loop (`partition_input`) at every width:
//! the input is cut into `threads` chunks, each drained into chunk-local
//! partitions and a private estimator fragment, and the chunks fold back in
//! chunk order. What to estimate per batch is the business of the
//! [join-estimation driver](crate::ops::join_estimation); the hash join
//! only decides when to call it.

use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Duration;

use qprog_core::distinct::DistinctTracker;
use qprog_core::join_est::JoinKind;
use qprog_core::pipeline_est::PipelineProbeFragment;
use qprog_types::{BatchStatus, QError, QResult, RowBatch, Schema, SchemaRef, NO_ROW};

use crate::metrics::OpMetrics;
use crate::ops::chain::{key_hashes, ChainIndex, NIL};
use crate::ops::join_estimation::{JoinEstimation, JoinEstimator};
use crate::ops::{BoxedOp, Operator};
use crate::parallel;
use crate::trace::Phase;

/// Default number of grace partitions.
pub const DEFAULT_PARTITIONS: usize = 16;

enum JState {
    /// Build + probe-partition phases not yet run.
    Init,
    /// Joining partition `part`, whose build rows `HashJoin::index` chains;
    /// `probe_pos` indexes its probe rows.
    Joining {
        part: usize,
        probe_pos: usize,
        /// A match group the full output batch cut short: (probe row, its
        /// next matching build row).
        pending: Option<(usize, u32)>,
    },
    Done,
}

/// One drained input, hash-partitioned on its join key.
struct Partitions {
    /// Columnar partition accumulators, filled by gathers.
    parts: Vec<RowBatch>,
    /// NULL-key rows a LeftOuter/Anti join stashed from its probe side, in
    /// scan order; emitted at the end, last stashed first (NULL keys never
    /// match anything).
    null_rows: RowBatch,
    /// Input rows drained, NULL keys included.
    rows: u64,
}

impl Partitions {
    fn new(partitions: usize, schema: &Schema) -> Self {
        Partitions {
            parts: (0..partitions)
                .map(|_| RowBatch::accumulator(schema.types()))
                .collect(),
            null_rows: RowBatch::accumulator(schema.types()),
            rows: 0,
        }
    }

    /// Append a later chunk of the same input (chunks are contiguous slices
    /// of the scan order, so appending in chunk order reproduces the serial
    /// partition contents exactly).
    fn append(&mut self, mut chunk: Partitions) {
        for (part, batch) in self.parts.iter_mut().zip(&mut chunk.parts) {
            part.append_batch(batch);
        }
        self.null_rows.append_batch(&mut chunk.null_rows);
        self.rows += chunk.rows;
    }
}

/// What one build- or probe-side drain needs besides its data.
struct Drain<'a> {
    key_col: usize,
    partitions: usize,
    /// Stash NULL-key rows instead of dropping them.
    keep_nulls: bool,
    failpoint: &'static str,
    batch_cap: usize,
    metrics: &'a OpMetrics,
}

/// Drain `input` and hash-partition its rows into `into`, calling
/// `on_batch` on every non-empty batch in scan order, before it is
/// partitioned. The one drain loop of the hash join, run once per chunk by
/// [`partition_chunks`].
fn partition_input(
    input: &mut dyn Operator,
    drain: &Drain<'_>,
    into: &mut Partitions,
    mut on_batch: impl FnMut(&RowBatch) -> QResult<()>,
) -> QResult<()> {
    let mut scratch = RowBatch::with_capacity(input.schema().types(), drain.batch_cap);
    let mut sel: Vec<Vec<u32>> = vec![Vec::new(); drain.partitions];
    let (mut nulls, mut hashes) = (Vec::new(), Vec::new());
    loop {
        let status = input.next_batch(&mut scratch)?;
        let n = scratch.len();
        if n > 0 {
            drain.metrics.checkpoint(n as u64)?;
            qprog_fault::fail_point!(drain.failpoint);
            on_batch(&scratch)?;
        }
        for s in &mut sel {
            s.clear();
        }
        nulls.clear();
        let keys = scratch.col(drain.key_col);
        key_hashes(std::iter::once(keys), 0..n, &mut hashes)?;
        for (r, &h) in (0u32..).zip(&hashes) {
            // NULL keys never equi-join
            if keys.is_valid(r as usize) {
                sel[(h % drain.partitions as u64) as usize].push(r);
            } else {
                nulls.push(r);
            }
        }
        for (part, s) in into.parts.iter_mut().zip(&sel) {
            if !s.is_empty() {
                part.gather_from(&scratch, s);
            }
        }
        if drain.keep_nulls {
            into.null_rows.gather_from(&scratch, &nulls);
        }
        into.rows += n as u64;
        if status.is_exhausted() {
            return Ok(());
        }
    }
}

/// Drain `input` in up to `width` contiguous chunks: at width 1, or when
/// the input cannot split, the input itself is the one chunk. Each chunk
/// runs [`partition_input`] into chunk-local partitions with a private
/// estimator fragment from `fragment`, fed by `on_batch`; chunks run on
/// worker threads (one chunk runs inline). The chunks fold back **in chunk
/// order** — the first chunk's partitions moved into place, the others
/// appended — and the fragments come back in the same order for the
/// estimator to fold, which keeps partitions, histograms and converged
/// estimates identical to a one-chunk drain.
fn partition_chunks<F: Send>(
    input: &mut BoxedOp,
    width: usize,
    drain: &Drain<'_>,
    worker_busy: &mut Vec<Duration>,
    fragment: impl Fn() -> QResult<F> + Sync,
    on_batch: impl Fn(&mut F, &RowBatch) -> QResult<()> + Sync,
) -> QResult<(Partitions, Vec<F>)> {
    let mut split = (width > 1).then(|| input.try_split(width)).flatten();
    let chunks: Vec<&mut dyn Operator> = match &mut split {
        Some(chunks) => chunks.iter_mut().map(|op| &mut **op as _).collect(),
        None => vec![&mut **input],
    };
    let (fragment, on_batch) = (&fragment, &on_batch);
    let tasks: Vec<_> = chunks
        .into_iter()
        .map(|op| {
            move |_w: usize| -> QResult<(Partitions, F)> {
                let mut local = Partitions::new(drain.partitions, &op.schema());
                let mut state = fragment()?;
                partition_input(op, drain, &mut local, |b| on_batch(&mut state, b))?;
                Ok((local, state))
            }
        })
        .collect();
    let outputs = parallel::run_tasks(tasks)?;
    if outputs.len() > 1 {
        worker_busy.resize(worker_busy.len().max(outputs.len()), Duration::ZERO);
        for (busy, out) in worker_busy.iter_mut().zip(&outputs) {
            *busy += out.busy;
        }
    }
    let mut folded: Option<Partitions> = None;
    let mut fragments = Vec::with_capacity(outputs.len());
    for out in outputs {
        let (local, state) = out.value;
        match &mut folded {
            Some(into) => into.append(local),
            None => folded = Some(local),
        }
        fragments.push(state);
    }
    let folded = folded.ok_or_else(|| QError::internal("hash join drained no chunk"))?;
    Ok((folded, fragments))
}

/// Grace hash join on single-column equi-keys, supporting inner,
/// (probe-preserving) left outer, semi and anti semantics.
pub struct HashJoin {
    build: Option<BoxedOp>,
    probe: Option<BoxedOp>,
    build_key: usize,
    probe_key: usize,
    kind: JoinKind,
    /// The output columns, as indices into build ++ probe.
    emit: Vec<usize>,
    schema: SchemaRef,
    metrics: Arc<OpMetrics>,
    est: JoinEstimator,
    num_partitions: usize,
    /// Degree of parallelism for the build/probe drains.
    threads: usize,
    build_parts: Partitions,
    probe_parts: Partitions,
    /// The current partition's build rows, chained by key hash (reused
    /// across partitions).
    index: ChainIndex,
    /// Key hashes of the current partition's build, then probe, rows.
    hashes: Vec<u64>,
    /// Reused `(build row, probe row)` list of output rows not yet
    /// gathered into the output batch; a build row of [`NO_ROW`] is a
    /// NULL-padded (LeftOuter) or probe-only (Semi/Anti) row.
    pair_buf: Vec<(u32, u32)>,
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
        let emit = (0..build.schema().arity() + probe.schema().arity()).collect();
        let schema = build.schema().join(&probe.schema()).into_ref();
        HashJoin {
            build: Some(build),
            probe: Some(probe),
            build_key,
            probe_key,
            kind: JoinKind::Inner,
            emit,
            schema,
            est: JoinEstimator::new(estimation, Arc::clone(&metrics)),
            metrics,
            num_partitions: DEFAULT_PARTITIONS,
            threads: 1,
            build_parts: Partitions::new(0, &Schema::default()),
            probe_parts: Partitions::new(0, &Schema::default()),
            index: ChainIndex::default(),
            hashes: Vec::new(),
            pair_buf: Vec::new(),
            state: JState::Init,
        }
    }

    /// Select the join semantics and emit every column they yield:
    /// `Inner` → build ++ probe, `LeftOuter` → nullable(build) ++ probe,
    /// `Semi`/`Anti` → probe only. Call before execution starts.
    pub fn with_join_kind(mut self, kind: JoinKind) -> Self {
        self.kind = kind;
        let (build, probe) = self.input_schemas();
        let first = match kind {
            JoinKind::Semi | JoinKind::Anti => build.arity(),
            JoinKind::Inner | JoinKind::LeftOuter => 0,
        };
        self.with_emit((first..build.arity() + probe.arity()).collect())
            .expect("a join kind's own columns are in range")
    }

    /// Emit only the columns `emit`, indices into build ++ probe (a Semi or
    /// Anti join's are probe columns). Call after
    /// [`with_join_kind`](Self::with_join_kind), before execution starts.
    pub fn with_emit(mut self, emit: Vec<usize>) -> QResult<Self> {
        let (build, probe) = self.input_schemas();
        let mut fields = build.fields().to_vec();
        if self.kind == JoinKind::LeftOuter {
            fields = fields.into_iter().map(|f| f.with_nullable(true)).collect();
        }
        fields.extend_from_slice(probe.fields());
        self.schema = Schema::new(fields).project(&emit)?.into_ref();
        self.emit = emit;
        Ok(self)
    }

    fn input_schemas(&self) -> (SchemaRef, SchemaRef) {
        let schema =
            |op: &Option<BoxedOp>| op.as_ref().expect("join shaped before execution").schema();
        (schema(&self.build), schema(&self.probe))
    }

    /// Override the partition count (≥ 1).
    pub fn with_partitions(mut self, n: usize) -> Self {
        self.num_partitions = n.max(1);
        self
    }

    /// Set how many chunks the build and probe drains cut their input into
    /// (default 1). Each chunk drains on its own worker thread into private
    /// partitions and a private estimator fragment — an Algorithm-1 chain's
    /// build histograms and per-join power sums — which fold back in chunk
    /// order, so both the output row order and the converged join estimates
    /// are identical to a one-chunk drain. Only a fresh table scan splits;
    /// any other input is one chunk.
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Attach aggregation push-down: `tracker` observes the join-key
    /// distribution of the join *output* during the probe-partitioning
    /// pass and is sent through `to_agg` when that pass ends, so a GROUP BY
    /// on the join attribute above this join gets GEE/MLE estimates long
    /// before the aggregation sees a tuple.
    pub fn with_agg_pushdown(
        mut self,
        tracker: DistinctTracker,
        to_agg: Sender<DistinctTracker>,
    ) -> Self {
        self.est.push_down_agg(tracker, to_agg, self.probe_key);
        self
    }

    /// Run the build and probe-partitioning phases: one drain per side.
    fn preprocess(&mut self, batch_cap: usize) -> QResult<()> {
        let mut build = self
            .build
            .take()
            .ok_or_else(|| QError::internal("hash join build input consumed twice"))?;
        let mut probe = self
            .probe
            .take()
            .ok_or_else(|| QError::internal("hash join probe input consumed twice"))?;
        // Per-worker busy time, build + probe combined.
        let mut worker_busy: Vec<Duration> = Vec::new();
        let (build_key, probe_key, kind) = (self.build_key, self.probe_key, self.kind);

        // ---- Build phase ----
        self.metrics.trace_phase(Phase::Init, Phase::Build);
        self.est.begin_build()?;
        let drain = Drain {
            key_col: build_key,
            partitions: self.num_partitions,
            keep_nulls: false,
            failpoint: "exec/hash_build/insert",
            batch_cap,
            metrics: &self.metrics,
        };
        let est = &self.est;
        let (parts, fragments) = partition_chunks(
            &mut build,
            self.threads,
            &drain,
            &mut worker_busy,
            || est.build_fragment(),
            |fragment, batch| est.observe_build(fragment, batch),
        )?;
        self.build_parts = parts;
        self.est.end_build(fragments, kind)?;

        // ---- Probe partitioning phase ----
        self.metrics.trace_phase(Phase::Build, Phase::Probe);
        let drain = Drain {
            key_col: probe_key,
            keep_nulls: matches!(kind, JoinKind::LeftOuter | JoinKind::Anti),
            failpoint: "exec/hash_probe/observe",
            ..drain
        };
        let est = &self.est;
        let (parts, fragments) = partition_chunks(
            &mut probe,
            self.threads,
            &drain,
            &mut worker_busy,
            || Ok(PipelineProbeFragment::default()),
            // Batch-boundary estimate publication — the per-tuple cadence
            // of the paper when `batch_rows = 1`.
            |fragment, batch| est.observe_probe(fragment, batch, 0..batch.len(), true),
        )?;
        self.probe_parts = parts;
        for (w, busy) in worker_busy.iter().enumerate() {
            if !busy.is_zero() {
                self.metrics.record_worker_busy(w as u32, *busy);
            }
        }
        self.est.end_probe(self.probe_parts.rows, fragments);

        self.metrics.trace_phase(Phase::Probe, Phase::PartitionJoin);
        self.load_partition(0)
    }

    /// Chain the build rows of partition `part` and hash its probe keys.
    /// Chains ascend, so a probe row meets its matches in build-row order.
    fn load_partition(&mut self, part: usize) -> QResult<()> {
        let (build, probe) = (&self.build_parts.parts[part], &self.probe_parts.parts[part]);
        let keys = std::iter::once(build.col(self.build_key));
        key_hashes(keys, 0..build.len(), &mut self.hashes)?;
        self.index.rebuild(&self.hashes);
        let keys = std::iter::once(probe.col(self.probe_key));
        key_hashes(keys, 0..probe.len(), &mut self.hashes)?;
        self.state = JState::Joining {
            part,
            probe_pos: 0,
            pending: None,
        };
        Ok(())
    }
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
                    probe_pos,
                    pending,
                } => {
                    let part_idx = *part;
                    let bpart = &self.build_parts.parts[part_idx];
                    let ppart = &self.probe_parts.parts[part_idx];
                    let (bkeys, pkeys) = (bpart.col(self.build_key), ppart.col(self.probe_key));
                    let (index, hashes) = (&self.index, &self.hashes);
                    // The first build row at or after chain candidate `c`
                    // whose key cell equals probe row `pidx`'s. Cells of
                    // different types never compare equal.
                    let match_from = |pidx: usize, mut c: u32| {
                        while c != NIL && bkeys.cell_cmp(c as usize, pkeys, pidx).is_ne() {
                            c = index.next(c);
                        }
                        c
                    };
                    // Governor granularity: at most one output batch worth
                    // of probe rows is consumed between flushes, even when
                    // nothing matches.
                    let chunk = out.capacity().max(1);
                    // Every kind collects its output rows as index pairs, in
                    // probe order, and emits them with one column-wise
                    // gather: Inner and LeftOuter their matches, LeftOuter a
                    // NULL-padded miss, Semi and Anti a qualifying probe row.
                    let pairs = &mut self.pair_buf;
                    let emits_matches = matches!(self.kind, JoinKind::Inner | JoinKind::LeftOuter);
                    let mut resume = pending.take();
                    let mut scanned = 0usize;
                    loop {
                        let (pidx, mut m) = match resume.take() {
                            Some(cut) => cut,
                            None => {
                                if out.remaining() == pairs.len()
                                    || scanned >= chunk
                                    || *probe_pos >= ppart.len()
                                {
                                    break;
                                }
                                let pidx = *probe_pos;
                                *probe_pos += 1;
                                drv += 1;
                                scanned += 1;
                                let m = match_from(pidx, index.first(hashes[pidx]));
                                let probe_only = match self.kind {
                                    JoinKind::Semi => m != NIL,
                                    JoinKind::Anti | JoinKind::LeftOuter => m == NIL,
                                    JoinKind::Inner => false,
                                };
                                if probe_only {
                                    pairs.push((NO_ROW, pidx as u32));
                                    emit += 1;
                                }
                                (pidx, if emits_matches { m } else { NIL })
                            }
                        };
                        while m != NIL {
                            if out.remaining() == pairs.len() {
                                *pending = Some((pidx, m));
                                break;
                            }
                            pairs.push((m, pidx as u32));
                            emit += 1;
                            m = match_from(pidx, index.next(m));
                        }
                    }
                    out.gather_pairs_from(bpart, ppart, pairs, &self.emit);
                    pairs.clear();
                    let more_here = *probe_pos < ppart.len() || pending.is_some();
                    self.est
                        .observe_join_pass(std::mem::take(&mut drv), std::mem::take(&mut emit))?;
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
                    // them, Anti passes them through (no other kind stashes
                    // any). The build side's empty NULL stash stands in for
                    // the build rows.
                    let nulls = &mut self.probe_parts.null_rows;
                    let keep = nulls.len() - out.remaining().min(nulls.len());
                    pairs.extend((keep..nulls.len()).rev().map(|p| (NO_ROW, p as u32)));
                    emit += pairs.len() as u64;
                    out.gather_pairs_from(&self.build_parts.null_rows, nulls, pairs, &self.emit);
                    pairs.clear();
                    nulls.truncate(keep);
                    self.est
                        .observe_join_pass(std::mem::take(&mut drv), std::mem::take(&mut emit))?;
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
    use crate::ops::test_util::{
        assert_double_keys_rejected, bound, drain, int_table, keyed_scan, random_keys,
    };
    use crate::ops::TableScan;
    use qprog_core::baseline::Rule;
    use qprog_core::pipeline_est::{AttrSource, JoinSpec, PipelineEstimator};
    use qprog_types::{Column, Row};
    use qprog_types::{DataType, Value};

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
            JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
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
            JoinEstimation::once(0, 0, 4000, Arc::clone(&m)), // wildly wrong hint
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
        let m = bound(Rule::Dne, None, 50.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Off,
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
        let m = bound(Rule::Byte, None, 13.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::Off,
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
        let mut modes = JoinEstimation::pipeline(
            PipelineEstimator::new(specs, c.len() as u64).unwrap(),
            vec![Arc::clone(&m_lower), Arc::clone(&m_upper)],
        )
        .into_iter();
        let lower = HashJoin::new(
            scan1("b", &b),
            scan1("c", &c),
            0,
            0,
            modes.next().unwrap(),
            Arc::clone(&m_lower),
        );
        let mut upper = HashJoin::new(
            scan1("a", &a),
            Box::new(lower),
            0,
            0,
            modes.next().unwrap(),
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
        let (to_agg, inbox) = std::sync::mpsc::channel();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::once(0, 0, 4, Arc::clone(&m)),
            Arc::clone(&m),
        )
        .with_agg_pushdown(DistinctTracker::new(10), to_agg);
        let rows = drain(&mut j);
        assert_eq!(rows.len(), 4);
        let t = inbox.try_recv().unwrap();
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
                JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
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
        let (to_agg, inbox) = std::sync::mpsc::channel();
        let m = OpMetrics::with_initial_estimate(0.0);
        let mut j = HashJoin::new(
            scan1("r", &r),
            scan1("s", &s),
            0,
            0,
            JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
            Arc::clone(&m),
        )
        .with_join_kind(kind)
        .with_threads(threads)
        .with_agg_pushdown(DistinctTracker::new(1 << 20), to_agg);
        let rows = drain(&mut j);
        let distinct = inbox.try_recv().unwrap().estimate();
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
            JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
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
            JoinEstimation::once(0, 0, 3, Arc::clone(&m)),
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
            JoinEstimation::once(0, 0, 2, Arc::clone(&m)),
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
                JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
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
                    JoinEstimation::once(0, 0, s.len() as u64, Arc::clone(&m)),
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

    /// The reference: partitions in order, within one the probe rows in
    /// scan order, for each its matching build rows in scan order; then the
    /// NULL-key probe rows a LeftOuter/Anti join stashed, last stashed
    /// first.
    fn reference_join(build: &[Row], probe: &[Row], kind: JoinKind, partitions: u64) -> Vec<Row> {
        let key = |r: &Row| r.get(0).unwrap().clone();
        let padded = |p: &Row| Row::new([&[Value::Null, Value::Null], p.values()].concat());
        let mut out = Vec::new();
        for part in 0..partitions {
            let here = |r: &&Row| {
                let mut lane = Column::with_capacity(key(r).data_type(), 1);
                lane.push(key(r)).unwrap();
                let mut hash = Vec::new();
                key_hashes(std::iter::once(&lane), 0..1, &mut hash).unwrap();
                !key(r).is_null() && hash[0] % partitions == part
            };
            for p in probe.iter().filter(here) {
                let matches: Vec<&Row> = build.iter().filter(|b| key(b) == key(p)).collect();
                match kind {
                    JoinKind::Inner | JoinKind::LeftOuter => {
                        out.extend(matches.iter().map(|b| b.concat(p)));
                        if matches.is_empty() && kind == JoinKind::LeftOuter {
                            out.push(padded(p));
                        }
                    }
                    JoinKind::Semi | JoinKind::Anti => {
                        if matches.is_empty() == (kind == JoinKind::Anti) {
                            out.push(p.clone());
                        }
                    }
                }
            }
        }
        for p in probe.iter().rev().filter(|p| key(p).is_null()) {
            match kind {
                JoinKind::LeftOuter => out.push(padded(p)),
                JoinKind::Anti => out.push(p.clone()),
                _ => {}
            }
        }
        out
    }

    #[test]
    fn matches_the_nested_loop_reference_row_for_row() {
        use rand::SeedableRng;
        let int = |v: i64| Value::Int64(v * 1_000_003);
        let text = |v: i64| Value::str(format!("k{v}"));
        let boolean = |v: i64| Value::Bool(v % 2 == 0);
        type Make = fn(i64) -> Value;
        let sides: [(DataType, Make); 3] = [
            (DataType::Int64, int),
            (DataType::Utf8, text),
            (DataType::Bool, boolean),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5eed23);
        let mut matched = 0;
        for (bt, bmake) in sides {
            // Same-typed sides, and BIGINT against VARCHAR: nothing matches.
            for (pt, pmake) in [(bt, bmake), (DataType::Utf8, text)] {
                // The last shape repeats each of two build keys ~1100
                // times: one probe row's matches overflow every batch
                // capacity below, and the cut match group is resumed across
                // batches in each partition that holds one.
                for (bn, pn, domain) in [
                    (0, 40, 6),
                    (40, 0, 6),
                    (1, 1, 6),
                    (150, 220, 6),
                    (2600, 6, 1),
                ] {
                    let bkeys = random_keys(&mut rng, bn, domain, bmake);
                    let pkeys = random_keys(&mut rng, pn, domain, pmake);
                    for kind in [
                        JoinKind::Inner,
                        JoinKind::LeftOuter,
                        JoinKind::Semi,
                        JoinKind::Anti,
                    ] {
                        for (partitions, cap) in [(1, 1), (1, 1024), (16, 1), (16, 7), (16, 1024)] {
                            let (brows, bscan) = keyed_scan("b", bt, &bkeys);
                            let (prows, pscan) = keyed_scan("p", pt, &pkeys);
                            let expect = reference_join(&brows, &prows, kind, partitions);
                            let m = OpMetrics::with_initial_estimate(0.0);
                            let estimation = JoinEstimation::once(0, 0, pn as u64, Arc::clone(&m));
                            let mut j =
                                HashJoin::new(bscan, pscan, 0, 0, estimation, Arc::clone(&m))
                                    .with_join_kind(kind)
                                    .with_partitions(partitions as usize);
                            let got = crate::ops::test_util::drain_batched(&mut j, cap);
                            let what = format!(
                                "{kind:?} {bt} x {pt}, {bn} x {pn} rows, {partitions} partitions, cap {cap}"
                            );
                            assert!(got == expect, "{what}: rows or their order");
                            assert_eq!(m.emitted(), expect.len() as u64, "{what}");
                            assert_eq!(m.estimated_total(), expect.len() as f64, "{what}");
                            assert!(bt == pt || kind != JoinKind::Inner || expect.is_empty());
                            matched += expect.len();
                        }
                    }
                }
            }
        }
        assert!(matched > 100_000, "the inputs must share keys: {matched}");
    }

    #[test]
    fn double_keys_are_a_type_error_on_either_side() {
        assert_double_keys_rejected(|l, r, estimation, m| {
            Box::new(HashJoin::new(l, r, 0, 0, estimation, m))
        });
    }
}
