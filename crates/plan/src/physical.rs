//! Physical compilation: logical plans → instrumented operator trees with
//! estimator wiring and pipeline decomposition.

use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, OnceLock};

use qprog_core::baseline::Rule;
use qprog_core::distinct::DistinctTracker;
use qprog_core::gnm::ProgressSnapshot;
use qprog_core::join_est::JoinKind;
use qprog_core::pipeline_est::{AttrSource, JoinSpec, PipelineEstimator};
use qprog_core::EstimationMode;
use qprog_exec::expr::Expr;
use qprog_exec::governor::{guarded, guarded_next_batch, Budgets, CancellationToken, Governor};
use qprog_exec::metrics::{MetricsRegistry, OpMetrics};
use qprog_exec::ops::agg::{AggEstimation, AggSpec};
use qprog_exec::ops::nl_join::{NestedLoopsJoin, NlCondition};
use qprog_exec::ops::sort::SortKey;
use qprog_exec::ops::{
    BoxedOp, Filter, HashAggregate, HashJoin, JoinEstimation, Limit, MergeJoin, Project, RowCursor,
    Sort, TableScan,
};
use qprog_exec::trace::{AbortKind, EventBus, TraceEventKind};
use qprog_types::{QError, QResult, Row};

use crate::logical::{JoinAlgo, JoinCondition, LogicalPlan, Node};
use crate::pipeline::PipelineSet;
use crate::progress::{ProgressTracker, Publisher};

/// Knobs for physical compilation.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalOptions {
    /// Online estimation strategy wired into the operators.
    pub mode: EstimationMode,
    /// Block-sample fraction delivered first by every table scan
    /// (0 disables sampling; the paper's experiments use 0.05–0.10).
    pub sample_fraction: f64,
    /// Seed for sampling randomness.
    pub seed: u64,
    /// Simulated per-block scan I/O latency in microseconds (0 = in-memory).
    /// Reproduces the paper's disk-resident cost model for the overhead
    /// experiments.
    pub block_io_us: u64,
    /// Hard budget: maximum tuples processed across all operators; on
    /// breach the query aborts with `BudgetExceeded`. `None` = unlimited.
    pub max_rows: Option<u64>,
    /// Soft budget: per-operator estimator histogram memory in bytes; on
    /// breach the estimator *degrades* to the dne baseline (trace event +
    /// metrics counter) instead of aborting. `None` = unlimited.
    pub max_hist_bytes: Option<usize>,
    /// Degree of partition parallelism for hash-join build/probe drains
    /// (1 = serial, the default; the `QPROG_THREADS` env var overrides the
    /// default). Any value keeps results and converged estimates identical
    /// to the serial engine.
    pub threads: usize,
    /// Row-batch capacity for vectorized execution (the `QPROG_BATCH_ROWS`
    /// env var overrides the default of
    /// [`qprog_types::DEFAULT_BATCH_ROWS`]). `1` is strict equivalence
    /// mode: the engine degenerates to tuple-at-a-time pulls and reproduces
    /// the serial per-row trace byte-for-byte. Any value keeps results,
    /// converged estimates, and published progress fractions identical —
    /// only the granularity of checkpoints and metric updates changes.
    pub batch_rows: usize,
}

impl Default for PhysicalOptions {
    fn default() -> Self {
        PhysicalOptions {
            mode: EstimationMode::Once,
            sample_fraction: 0.10,
            seed: 42,
            block_io_us: 0,
            max_rows: None,
            max_hist_bytes: None,
            threads: std::env::var("QPROG_THREADS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(1)
                .max(1),
            batch_rows: std::env::var("QPROG_BATCH_ROWS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(qprog_types::DEFAULT_BATCH_ROWS)
                .max(1),
        }
    }
}

impl PhysicalOptions {
    /// Options with a specific estimation mode and the other defaults.
    pub fn with_mode(mode: EstimationMode) -> Self {
        PhysicalOptions {
            mode,
            ..PhysicalOptions::default()
        }
    }

    /// The lifecycle budgets these options request.
    pub fn budgets(&self) -> Budgets {
        Budgets {
            max_rows: self.max_rows,
            max_hist_bytes: self.max_hist_bytes,
        }
    }
}

/// A compiled, instrumented, ready-to-run query.
pub struct CompiledQuery {
    /// The plan as compiled: after [`prune_columns`].
    plan: LogicalPlan,
    root: BoxedOp,
    registry: MetricsRegistry,
    pipelines: PipelineSet,
    /// Compile-time optimizer estimates per operator (registry order).
    initial_estimates: Vec<f64>,
    /// Direct-input operator indices per operator, for future-pipeline
    /// refinement.
    op_inputs: Vec<Vec<usize>>,
    /// Which estimator drives each operator's `N_i` (registry order) —
    /// surfaced by EXPLAIN ANALYZE.
    estimator_labels: Vec<&'static str>,
    /// Trace bus (from [`compile_traced`]); the one terminal event,
    /// `QueryFinished` or `QueryAborted`, is published here.
    bus: Option<Arc<EventBus>>,
    /// Output rows pulled so far (for the terminal event's payload).
    rows_emitted: u64,
    /// The terminal outcome, recorded once: rows returned, and why the
    /// query aborted (`None` for a finish).
    outcome: Option<(u64, Option<AbortKind>)>,
    /// The progress publication point, created by the first
    /// [`on_progress`](Self::on_progress).
    publisher: OnceLock<Arc<Publisher>>,
    /// Root batch capacity for [`collect`](Self::collect) (from
    /// `PhysicalOptions::batch_rows`).
    batch_rows: usize,
    /// Single-row cursor for [`step`](Self::step) (Volcano stepping stays
    /// tuple-granular regardless of `batch_rows`).
    stepper: RowCursor,
}

impl CompiledQuery {
    /// The plan as compiled, whose scans and hash or merge joins list the
    /// columns they emit ([`prune_columns`]).
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Per-operator metrics in registration order.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// The pipeline decomposition.
    pub fn pipelines(&self) -> &PipelineSet {
        &self.pipelines
    }

    /// Compile-time optimizer estimates per operator (registry order).
    pub fn initial_estimates(&self) -> &[f64] {
        &self.initial_estimates
    }

    /// Direct-input operator indices per operator (registry order).
    pub fn op_inputs(&self) -> &[Vec<usize>] {
        &self.op_inputs
    }

    /// Which estimator drives each operator's `N_i` (registry order):
    /// `"exact"`, `"pipeline"`, `"gee/mle"`, `"pushdown"`,
    /// `"dne"`, `"byte"`, or `"optimizer"`.
    pub fn estimator_labels(&self) -> &[&'static str] {
        &self.estimator_labels
    }

    /// The trace bus, when compiled with [`compile_traced`].
    pub fn bus(&self) -> Option<&Arc<EventBus>> {
        self.bus.as_ref()
    }

    /// Subscribe `f` to the query's progress publications. There may be
    /// any number of subscribers; the first one turns publication on.
    ///
    /// Publications are made in-thread at operator batch boundaries
    /// (every passing governor checkpoint), whenever `ΣK` has advanced by
    /// ≥ 1/1000 of the last published `T̂`, plus once at the terminal: 1.0
    /// after a finish, the frozen snapshot after an abort. A traced query
    /// also emits each publication as a `ProgressSampled` event. A
    /// parallel drain that finds the publisher busy skips a publication
    /// rather than block, and a subscriber that panics ends the query with
    /// `OperatorPanic` and stops publication.
    pub fn on_progress(&self, f: impl FnMut(&ProgressSnapshot) + Send + 'static) {
        let publisher = self.publisher.get_or_init(|| {
            let publisher = Arc::new(Publisher::new(self.tracker(), self.bus.clone()));
            // Weak: the publisher's registry holds the governor, so a
            // strong handle in the hook would keep the query alive forever.
            let hook = Arc::downgrade(&publisher);
            if let Some(g) = self.governor() {
                g.set_progress_hook(move || {
                    if let Some(p) = hook.upgrade() {
                        p.at_batch();
                    }
                });
            }
            publisher
        });
        publisher.subscribe(Box::new(f));
    }

    /// End the query: publish its terminal progress snapshot, then its one
    /// terminal event — `QueryFinished` when the root is exhausted (`error`
    /// is `None`), `QueryAborted` otherwise. Later calls do nothing.
    ///
    /// A finish first pins every total (`finish_all`): operators abandoned
    /// by early termination (LIMIT) will never run again, so progress reads
    /// 1.0. An abort pins nothing, so progress freezes where it stopped. A
    /// subscriber panicking at the terminal turns a finish into an abort.
    /// The outcome is recorded for [`outcome`](Self::outcome).
    fn terminate(&mut self, error: Option<QError>) -> QResult<()> {
        if self.outcome.is_some() {
            return error.map_or(Ok(()), Err);
        }
        if error.is_none() {
            self.registry.finish_all();
        }
        let published = match self.publisher.get() {
            Some(p) => guarded(|| {
                p.at_terminal();
                Ok(())
            }),
            None => Ok(()),
        };
        let error = error.or(published.err());
        let rows = self.rows_emitted;
        let abort = error.as_ref().map(AbortKind::from_error);
        self.outcome = Some((rows, abort));
        if let Some(bus) = &self.bus {
            bus.publish(match abort {
                None => TraceEventKind::QueryFinished { rows },
                Some(reason) => TraceEventKind::QueryAborted { reason, rows },
            });
        }
        error.map_or(Ok(()), Err)
    }

    /// How the query ended — rows returned, and why it aborted (`None` for
    /// a finish) — or `None` while it has not ended.
    pub fn outcome(&self) -> Option<(u64, Option<AbortKind>)> {
        self.outcome
    }

    /// The root batch capacity rows are pulled at.
    pub fn batch_rows(&self) -> usize {
        self.batch_rows
    }

    /// The query's lifecycle governor (attached at compile time).
    pub fn governor(&self) -> Option<&Arc<Governor>> {
        self.registry.governor()
    }

    /// A cloneable token that cancels this query cooperatively; operators
    /// observe it at their next checkpoint.
    pub fn cancellation_token(&self) -> Option<CancellationToken> {
        self.governor().map(|g| g.token().clone())
    }

    /// Request cooperative cancellation.
    pub fn cancel(&self) {
        if let Some(g) = self.governor() {
            g.cancel();
        }
    }

    /// Arm a wall-clock deadline `after` from now; on expiry the query
    /// aborts with `DeadlineExceeded` at its next checkpoint stride.
    pub fn set_deadline(&self, after: std::time::Duration) {
        if let Some(g) = self.governor() {
            g.set_deadline(after);
        }
    }

    /// A cloneable, thread-safe progress tracker for this query, with
    /// future-pipeline refinement wired in (§4.4).
    pub fn tracker(&self) -> ProgressTracker {
        ProgressTracker::new(
            self.registry.clone(),
            self.pipelines.clone(),
            self.initial_estimates.clone(),
            self.op_inputs.clone(),
        )
    }

    /// Run to completion, collecting all output rows. On failure —
    /// cancellation, deadline, budget breach, operator panic, injected
    /// fault, or organic error — the terminal `QueryAborted` event is
    /// published and the error propagates.
    pub fn collect(&mut self) -> QResult<Vec<Row>> {
        match qprog_exec::runtime::collect(self.root.as_mut(), self.batch_rows) {
            Ok(rows) => {
                self.rows_emitted += rows.len() as u64;
                self.terminate(None)?;
                Ok(rows)
            }
            Err(e) => self.terminate(Some(e)).map(|_| Vec::new()),
        }
    }

    /// Pull a single output row (Volcano-style stepping, for callers that
    /// want finer control than [`collect`](Self::collect)). Stepping
    /// always pulls through a single-row batch, so it is tuple-granular
    /// regardless of the configured `batch_rows`.
    pub fn step(&mut self) -> QResult<Option<Row>> {
        let root = self.root.as_mut();
        match self.stepper.advance(|buf| guarded_next_batch(root, buf)) {
            Ok(Some(r)) => {
                self.rows_emitted += 1;
                Ok(Some(self.stepper.batch().row(r)))
            }
            Ok(None) => self.terminate(None).map(|_| None),
            Err(e) => self.terminate(Some(e)).map(|_| None),
        }
    }
}

/// Compile a logical plan.
pub fn compile(plan: &LogicalPlan, opts: &PhysicalOptions) -> QResult<CompiledQuery> {
    compile_traced(plan, opts, None)
}

/// Compile a logical plan with an optional trace bus attached: every
/// operator's metrics publish [`qprog_exec::trace::TraceEvent`]s
/// (phase transitions, estimate refinements) to `bus`, and the compiled
/// query publishes `QueryFinished` when its root is exhausted. Operators
/// carry only the columns read above them ([`prune_columns`]).
pub fn compile_traced(
    plan: &LogicalPlan,
    opts: &PhysicalOptions,
    bus: Option<Arc<EventBus>>,
) -> QResult<CompiledQuery> {
    let mut registry = match &bus {
        Some(b) => MetricsRegistry::traced(Arc::clone(b)),
        None => MetricsRegistry::new(),
    };
    // Every compiled query gets a governor: cancellation/deadline support
    // costs one relaxed load + one relaxed fetch_add per checkpoint, within
    // the paper's per-tuple budget.
    registry.set_governor(Arc::new(Governor::new(opts.budgets())));
    let mut c = Compiler {
        opts,
        registry,
        pipelines: PipelineSet::new(),
        initial_estimates: Vec::new(),
        op_inputs: Vec::new(),
        estimator_labels: Vec::new(),
        scan_counter: 0,
    };
    let plan = prune_columns(plan);
    let root_pipeline = c.pipelines.new_pipeline();
    let root = c.compile(&plan, root_pipeline)?;
    let stepper = RowCursor::new(&root.schema(), 1);
    Ok(CompiledQuery {
        plan,
        root,
        registry: c.registry,
        pipelines: c.pipelines,
        initial_estimates: c.initial_estimates,
        op_inputs: c.op_inputs,
        estimator_labels: c.estimator_labels,
        bus,
        rows_emitted: 0,
        outcome: None,
        publisher: OnceLock::new(),
        batch_rows: opts.batch_rows.max(1),
        stepper,
    })
}

struct Compiler<'a> {
    opts: &'a PhysicalOptions,
    registry: MetricsRegistry,
    pipelines: PipelineSet,
    initial_estimates: Vec<f64>,
    op_inputs: Vec<Vec<usize>>,
    estimator_labels: Vec<&'static str>,
    scan_counter: u64,
}

impl Compiler<'_> {
    fn register_idx(
        &mut self,
        name: &str,
        estimate: f64,
        pipeline: usize,
    ) -> (usize, Arc<OpMetrics>) {
        let idx = self.registry.len();
        let m = self.registry.register(name, estimate);
        self.pipelines.assign(pipeline, idx);
        self.initial_estimates.push(estimate);
        self.op_inputs.push(Vec::new());
        self.estimator_labels.push("optimizer");
        (idx, m)
    }

    /// Record which estimator drives operator `idx`'s lifetime total.
    fn set_label(&mut self, idx: usize, label: &'static str) {
        self.estimator_labels[idx] = label;
    }

    /// In every mode but `off`, bind dne to operator `idx`, whose output
    /// the optimizer estimates at `estimate` rows, over a driver input of
    /// `driver_estimate` rows.
    fn bind_dne(&mut self, idx: usize, m: &OpMetrics, driver_estimate: f64, estimate: f64) {
        if self.opts.mode != EstimationMode::Off {
            m.bind_baseline(Rule::Dne, estimate);
            m.arm_baseline(driver_estimate.round() as u64);
            self.set_label(idx, "dne");
        }
    }

    /// Compile a child plan and record the edge from `parent` to the
    /// child's root operator, the first one it registers (for
    /// future-pipeline refinement).
    fn compile_child(
        &mut self,
        parent: usize,
        plan: &LogicalPlan,
        pipeline: usize,
    ) -> QResult<BoxedOp> {
        let child_idx = self.registry.len();
        let op = self.compile(plan, pipeline)?;
        self.op_inputs[parent].push(child_idx);
        Ok(op)
    }

    fn compile(&mut self, plan: &LogicalPlan, pipeline: usize) -> QResult<BoxedOp> {
        match &plan.node {
            Node::Scan { table, emit } => {
                let (idx, m) =
                    self.register_idx(&format!("scan({})", table.name()), plan.estimate, pipeline);
                // A scan's lifetime total is its table's row count.
                self.set_label(idx, "exact");
                self.scan_counter += 1;
                let mut scan = TableScan::sampled(
                    Arc::clone(table),
                    self.opts.sample_fraction,
                    self.opts.seed.wrapping_add(self.scan_counter),
                    m,
                )
                .with_io_cost(std::time::Duration::from_micros(self.opts.block_io_us));
                if let Some(emit) = emit {
                    scan = scan.with_columns(emit.clone())?;
                }
                Ok(Box::new(scan))
            }
            Node::Filter { input, predicate } => {
                let (idx, m) = self.register_idx("filter", plan.estimate, pipeline);
                let input_estimate = input.estimate;
                let child = self.compile_child(idx, input, pipeline)?;
                // §4.3: selections have no preprocessing phase → dne.
                self.bind_dne(idx, &m, input_estimate, plan.estimate);
                Ok(Box::new(Filter::new(child, predicate.clone(), m)))
            }
            Node::Project { input, exprs } => {
                let (idx, m) = self.register_idx("project", plan.estimate, pipeline);
                let child = self.compile_child(idx, input, pipeline)?;
                Ok(Box::new(Project::new(
                    child,
                    exprs.clone(),
                    Arc::clone(&plan.schema),
                    m,
                )))
            }
            Node::Sort { input, keys } => {
                let (idx, m) = self.register_idx("sort", plan.estimate, pipeline);
                let input_pipeline = self.pipelines.new_pipeline();
                let child = self.compile_child(idx, input, input_pipeline)?;
                Ok(Box::new(Sort::new(child, keys.clone(), m)))
            }
            Node::Limit { input, n } => {
                let (idx, m) = self.register_idx("limit", plan.estimate, pipeline);
                let child = self.compile_child(idx, input, pipeline)?;
                Ok(Box::new(Limit::new(child, *n, m)))
            }
            Node::Aggregate {
                input,
                group_cols,
                aggs,
            } => self.compile_aggregate(plan, input, group_cols, aggs, pipeline),
            Node::Join { .. } => self.compile_join(plan, pipeline),
        }
    }

    fn compile_aggregate(
        &mut self,
        plan: &LogicalPlan,
        input: &LogicalPlan,
        group_cols: &[usize],
        aggs: &[AggSpec],
        pipeline: usize,
    ) -> QResult<BoxedOp> {
        let (agg_idx, m) = self.register_idx("hash_agg", plan.estimate, pipeline);
        let input_pipeline = self.pipelines.new_pipeline();

        // §4.2 (end): when grouping on the join attribute of a hash join
        // directly below, push distinct-value tracking into the join — unless
        // it tops a pipeline chain, whose upper joins observe no probe keys.
        let (pushdown, inbox) = if self.opts.mode == EstimationMode::Once
            && group_cols.len() == 1
            && group_col_is_join_key(input, group_cols[0])
            && collect_join_chain(input, JoinAlgo::Hash).len() == 1
        {
            let (to_agg, inbox) = mpsc::channel();
            let tracker = DistinctTracker::new(input.estimate.round() as u64);
            (Some((tracker, to_agg)), Some(inbox))
        } else {
            (None, None)
        };

        let child_idx = self.registry.len();
        let child = match pushdown {
            Some(pushdown) => self.compile_join_chain(input, input_pipeline, Some(pushdown))?,
            None => self.compile(input, input_pipeline)?,
        };
        self.op_inputs[agg_idx].push(child_idx);

        let estimation = match (inbox, self.opts.mode) {
            (Some(inbox), _) => {
                self.set_label(agg_idx, "pushdown");
                AggEstimation::Pushdown(inbox)
            }
            (None, EstimationMode::Off) => AggEstimation::Off,
            (None, _) => {
                self.set_label(agg_idx, "gee/mle");
                AggEstimation::Track {
                    input_size_hint: input.estimate.round() as u64,
                }
            }
        };
        Ok(Box::new(HashAggregate::new(
            child,
            group_cols.to_vec(),
            aggs.to_vec(),
            Arc::clone(&plan.schema),
            estimation,
            m,
        )))
    }

    fn compile_join(&mut self, plan: &LogicalPlan, pipeline: usize) -> QResult<BoxedOp> {
        let Node::Join {
            build,
            probe,
            condition,
            algo,
            ..
        } = &plan.node
        else {
            return Err(QError::internal("compile_join on a non-join node"));
        };
        match algo {
            JoinAlgo::Hash | JoinAlgo::Merge => self.compile_join_chain(plan, pipeline, None),
            JoinAlgo::NestedLoops => {
                let (idx, m) = self.register_idx(join_op_name(*algo), plan.estimate, pipeline);
                let inner_pipeline = self.pipelines.new_pipeline();
                let outer_estimate = probe.estimate;
                let inner_op = self.compile_child(idx, build, inner_pipeline)?;
                let outer_op = self.compile_child(idx, probe, pipeline)?;
                // Our schema is build ++ probe, but exec's NL join
                // materializes its inner (build) side and emits outer ++
                // inner: the probe streams as the exec outer, and build ++
                // probe column `i` is exec column `rotate(i)`.
                let (probe_arity, arity) = (probe.schema.arity(), plan.schema.arity());
                let mut rotate = |i| (i + probe_arity) % arity;
                let cond = match condition {
                    JoinCondition::Equi {
                        build_key,
                        probe_key,
                    } => NlCondition::Equi(*probe_key, *build_key),
                    JoinCondition::Theta(e) => NlCondition::Theta(e.map_columns(&mut rotate)),
                    JoinCondition::Cross => NlCondition::Cross,
                };
                // §4.1.3: nested-loops estimation reduces to dne.
                self.bind_dne(idx, &m, outer_estimate, plan.estimate);
                let nl = NestedLoopsJoin::new(outer_op, inner_op, cond, m);
                // A projection swaps exec's output back to build ++ probe.
                let swap = (0..arity).map(|i| Expr::Column(rotate(i))).collect();
                let (pidx, pm) = self.register_idx("project(swap)", plan.estimate, pipeline);
                self.op_inputs[pidx].push(idx);
                Ok(Box::new(Project::new(
                    Box::new(nl),
                    swap,
                    Arc::clone(&plan.schema),
                    pm,
                )))
            }
        }
    }

    /// Compile the hash or merge join `top` with the joins of its chain
    /// ([`join_chain`]) in every estimation mode. Operators register
    /// top-down — each join, then its build subtree, then the lowest probe
    /// subtree — so `top` is the first operator registered, and are
    /// constructed bottom-up. Aggregation push-down is only offered over a
    /// one-join chain.
    fn compile_join_chain(
        &mut self,
        top: &LogicalPlan,
        mut pipeline: usize,
        mut agg_pushdown: Option<(DistinctTracker, Sender<DistinctTracker>)>,
    ) -> QResult<BoxedOp> {
        let (chain, estimator) = join_chain(top)?;
        // Each join's registry index, metrics and build operator, top-down.
        let mut joins: Vec<(usize, Arc<OpMetrics>, BoxedOp)> = Vec::with_capacity(chain.len());
        for node in chain.iter().rev() {
            let Node::Join { build, algo, .. } = &node.node else {
                unreachable!("a chain holds joins");
            };
            let (idx, m) = self.register_idx(join_op_name(*algo), node.estimate, pipeline);
            if let Some((above, ..)) = joins.last() {
                self.op_inputs[*above].push(idx);
            }
            let build_pipeline = self.pipelines.new_pipeline();
            // A merge join sorts its probe side too: a blocking input.
            if *algo == JoinAlgo::Merge {
                pipeline = self.pipelines.new_pipeline();
            }
            let build_op = self.compile_child(idx, build, build_pipeline)?;
            joins.push((idx, m, build_op));
        }
        let lowest = joins.last().expect("a chain holds a join").0;
        let mut cur = self.compile_child(lowest, join_probe_child(chain[0]), pipeline)?;

        let metrics = joins.iter().rev().map(|(_, m, _)| Arc::clone(m)).collect();
        let (label, rule) = match self.opts.mode {
            EstimationMode::Off => ("optimizer", None),
            EstimationMode::Once => ("pipeline", None),
            EstimationMode::Dne => ("dne", Some(Rule::Dne)),
            EstimationMode::Byte => ("byte", Some(Rule::Byte)),
        };
        let modes = if self.opts.mode == EstimationMode::Once {
            JoinEstimation::pipeline(estimator, metrics)
        } else {
            chain.iter().map(|_| JoinEstimation::Off).collect()
        };
        // A baseline join arms its rule with its probe row count at the end
        // of its probe phase.
        for (node, (idx, m, _)) in chain.iter().zip(joins.iter().rev()) {
            if let Some(rule) = rule {
                m.bind_baseline(rule, node.estimate);
            }
            self.set_label(*idx, label);
        }
        let bottom_up = chain.iter().zip(joins.into_iter().rev()).zip(modes);
        for ((node, (_, m, build_op)), estimation) in bottom_up {
            cur = self.join_operator(node, build_op, cur, estimation, m, agg_pushdown.take())?;
        }
        Ok(cur)
    }

    /// Instantiate the hash or sort-merge join of plan node `join` over its
    /// compiled inputs.
    fn join_operator(
        &self,
        join: &LogicalPlan,
        build_op: BoxedOp,
        probe_op: BoxedOp,
        estimation: JoinEstimation,
        metrics: Arc<OpMetrics>,
        agg_pushdown: Option<(DistinctTracker, Sender<DistinctTracker>)>,
    ) -> QResult<BoxedOp> {
        let Node::Join {
            condition,
            algo,
            kind,
            emit,
            ..
        } = &join.node
        else {
            return Err(QError::internal("join_operator on a non-join node"));
        };
        let (build_key, probe_key) = equi_keys(condition)?;
        if *algo == JoinAlgo::Merge {
            let mj = MergeJoin::new(
                build_op, probe_op, build_key, probe_key, estimation, metrics,
            );
            return Ok(Box::new(match emit {
                Some(emit) => mj.with_emit(emit.clone())?,
                None => mj,
            }));
        }
        let mut hj = HashJoin::new(
            build_op, probe_op, build_key, probe_key, estimation, metrics,
        )
        .with_join_kind(*kind)
        .with_threads(self.opts.threads);
        if let Some(emit) = emit {
            hj = hj.with_emit(emit.clone())?;
        }
        if let Some((tracker, to_agg)) = agg_pushdown {
            hj = hj.with_agg_pushdown(tracker, to_agg);
        }
        Ok(Box::new(hj))
    }
}

/// Projection push-down, run by [`compile_traced`] before any operator
/// registers: a copy of `plan` in which every scan and every hash or merge
/// join emits only the columns read above it, and every column index
/// above them — filters, sort keys, aggregates, projections, join keys —
/// reads the narrowed schemas. A nested-loops join prunes its inputs and
/// emits them whole. The root keeps its full schema, and no node is added
/// or removed.
pub fn prune_columns(plan: &LogicalPlan) -> LogicalPlan {
    prune(plan, &(0..plan.schema.arity()).collect::<Vec<_>>()).0
}

/// `plan` rewritten to output at least its columns `needed` (ascending),
/// and which of its columns the rewrite outputs, ascending: output column
/// `i` is old column `kept[i]`.
fn prune(plan: &LogicalPlan, needed: &[usize]) -> (LogicalPlan, Vec<usize>) {
    let all = || (0..plan.schema.arity()).collect();
    let (node, kept) = match &plan.node {
        Node::Scan { table, .. } => {
            let (table, emit) = (Arc::clone(table), Some(needed.to_vec()));
            (Node::Scan { table, emit }, needed.to_vec())
        }
        Node::Filter { input, predicate } => {
            let (input, kept) = prune_input(input, [needed, &columns(predicate)].concat());
            let predicate = predicate.map_columns(&mut |c| at(&kept, c));
            (Node::Filter { input, predicate }, kept)
        }
        Node::Sort { input, keys } => {
            let reads = needed.iter().copied().chain(keys.iter().map(|k| k.col));
            let (input, kept) = prune_input(input, reads.collect());
            let keys = keys.iter().map(|&k| SortKey {
                col: at(&kept, k.col),
                ..k
            });
            let keys = keys.collect();
            (Node::Sort { input, keys }, kept)
        }
        Node::Limit { input, n } => {
            let (input, kept) = prune_input(input, needed.to_vec());
            (Node::Limit { input, n: *n }, kept)
        }
        Node::Project { input, exprs } => {
            let (input, kept) = prune_input(input, exprs.iter().flat_map(columns).collect());
            let exprs = exprs.iter().map(|e| e.map_columns(&mut |c| at(&kept, c)));
            let exprs = exprs.collect();
            (Node::Project { input, exprs }, all())
        }
        Node::Aggregate {
            input,
            group_cols,
            aggs,
        } => {
            let reads = group_cols
                .iter()
                .copied()
                .chain(aggs.iter().filter_map(|a| a.col));
            let (input, kept) = prune_input(input, reads.collect());
            let group_cols = group_cols.iter().map(|&c| at(&kept, c)).collect();
            let aggs = aggs.iter().map(|&a| AggSpec {
                col: a.col.map(|c| at(&kept, c)),
                ..a
            });
            let aggs = aggs.collect();
            (
                Node::Aggregate {
                    input,
                    group_cols,
                    aggs,
                },
                all(),
            )
        }
        Node::Join {
            build,
            probe,
            condition,
            algo,
            kind,
            ..
        } => {
            // Columns of build ++ probe; a Semi or Anti join outputs probe's.
            let build_arity = build.schema.arity();
            let first = match kind {
                JoinKind::Semi | JoinKind::Anti => build_arity,
                JoinKind::Inner | JoinKind::LeftOuter => 0,
            };
            let mut reads: Vec<usize> = needed.iter().map(|&c| first + c).collect();
            remap_condition(condition, build_arity, build_arity, &mut |c| {
                reads.push(c);
                c
            });
            let reads = sorted(reads);
            let split = reads.partition_point(|&c| c < build_arity);
            let (build, mut kept) = prune_input(build, reads[..split].to_vec());
            let probe_reads = reads[split..].iter().map(|c| c - build_arity).collect();
            let (probe, probe_kept) = prune_input(probe, probe_reads);
            kept.extend(probe_kept.iter().map(|c| c + build_arity));
            let new_build_arity = build.schema.arity();
            let mut at_kept = |c| at(&kept, c);
            let condition = remap_condition(condition, build_arity, new_build_arity, &mut at_kept);
            let (emit, kept) = match algo {
                JoinAlgo::NestedLoops => (None, kept),
                _ => (
                    Some(needed.iter().map(|&c| at(&kept, first + c)).collect()),
                    needed.to_vec(),
                ),
            };
            let (algo, kind) = (*algo, *kind);
            (
                Node::Join {
                    build,
                    probe,
                    condition,
                    algo,
                    kind,
                    emit,
                },
                kept,
            )
        }
    };
    let schema = plan
        .schema
        .project(&kept)
        .expect("kept columns exist")
        .into_ref();
    let col_stats = kept.iter().map(|&c| plan.col_stats[c].clone()).collect();
    let estimate = plan.estimate;
    (
        LogicalPlan {
            node,
            schema,
            col_stats,
            estimate,
        },
        kept,
    )
}

/// [`prune`] of a node's `input` to the columns it `reads` (any order).
fn prune_input(input: &LogicalPlan, reads: Vec<usize>) -> (Box<LogicalPlan>, Vec<usize>) {
    let (input, kept) = prune(input, &sorted(reads));
    (Box::new(input), kept)
}

/// The columns `e` reads.
fn columns(e: &Expr) -> Vec<usize> {
    let mut cols = Vec::new();
    e.map_columns(&mut |c| {
        cols.push(c);
        c
    });
    cols
}

/// `condition` with every column it reads, as an index into build ++ probe
/// with `build_arity` build columns, read as `f` of it instead, into a
/// build ++ probe with `new_build_arity` build columns.
fn remap_condition(
    condition: &JoinCondition,
    build_arity: usize,
    new_build_arity: usize,
    f: &mut impl FnMut(usize) -> usize,
) -> JoinCondition {
    match condition {
        JoinCondition::Equi {
            build_key,
            probe_key,
        } => JoinCondition::Equi {
            build_key: f(*build_key),
            probe_key: f(build_arity + probe_key) - new_build_arity,
        },
        JoinCondition::Theta(e) => JoinCondition::Theta(e.map_columns(f)),
        JoinCondition::Cross => JoinCondition::Cross,
    }
}

/// Where column `c` of a pruned node's input went: its position among
/// the input's `kept` columns.
fn at(kept: &[usize], c: usize) -> usize {
    kept.binary_search(&c).expect("a column read above is kept")
}

/// `cols` sorted ascending, without duplicates.
fn sorted(mut cols: Vec<usize>) -> Vec<usize> {
    cols.sort_unstable();
    cols.dedup();
    cols
}

/// The join chain the hash or merge join `top` compiles as, bottom-up
/// (`[0]` = lowest), with its Algorithm-1 estimator (§4.1.4, §4.1.4.3):
/// the maximal inner equi-chain below `top` ([`collect_join_chain`]), or
/// `top` alone when that is empty (a non-inner `top`) or when the
/// estimator rejects its shape (e.g. two joins drawing probe keys from one
/// build relation). Every estimation mode compiles the same chain.
fn join_chain(top: &LogicalPlan) -> QResult<(Vec<&LogicalPlan>, PipelineEstimator)> {
    let Node::Join { algo, .. } = &top.node else {
        return Err(QError::internal("join_chain on a non-join node"));
    };
    let chain = collect_join_chain(top, *algo);
    if !chain.is_empty() {
        match chain_estimator(&chain) {
            Err(QError::Estimation(_)) => {}
            estimator => return Ok((chain, estimator?)),
        }
    }
    let chain = vec![top];
    let estimator = chain_estimator(&chain)?;
    Ok((chain, estimator))
}

/// The Algorithm-1 estimator of a bottom-up `chain`, each join's probe key
/// resolved through column provenance (join output = build ++ probe).
fn chain_estimator(chain: &[&LogicalPlan]) -> QResult<PipelineEstimator> {
    let mut specs = Vec::with_capacity(chain.len());
    for (j, node) in chain.iter().enumerate() {
        let Node::Join { condition, .. } = &node.node else {
            return Err(QError::internal("join chain contains a non-join"));
        };
        let (build_key, probe_key) = equi_keys(condition)?;
        specs.push(JoinSpec {
            build_attr_col: build_key,
            probe_attr: resolve_attr_source(chain, j, probe_key),
        });
    }
    let probe_size = join_probe_child(chain[0]).estimate.round() as u64;
    PipelineEstimator::new(specs, probe_size)
}

/// Collect the maximal chain of inner equi-joins of one algorithm
/// connected through probe children, returned bottom-up (`[0]` = lowest).
fn collect_join_chain(top: &LogicalPlan, chain_algo: JoinAlgo) -> Vec<&LogicalPlan> {
    let mut top_down = Vec::new();
    let mut cur = top;
    while let Node::Join {
        probe,
        condition: JoinCondition::Equi { .. },
        algo,
        kind: JoinKind::Inner,
        ..
    } = &cur.node
    {
        if *algo != chain_algo {
            break;
        }
        top_down.push(cur);
        cur = probe;
    }
    top_down.reverse();
    top_down
}

/// The `(build, probe)` key columns of a hash or merge join's condition.
fn equi_keys(condition: &JoinCondition) -> QResult<(usize, usize)> {
    match condition {
        JoinCondition::Equi {
            build_key,
            probe_key,
        } => Ok((*build_key, *probe_key)),
        _ => Err(QError::plan(
            "hash and merge joins require an equi-join condition",
        )),
    }
}

/// Operator name of a join, for metrics registration.
fn join_op_name(algo: JoinAlgo) -> &'static str {
    match algo {
        JoinAlgo::Hash => "hash_join",
        JoinAlgo::Merge => "merge_join",
        JoinAlgo::NestedLoops => "nl_join",
    }
}

/// The probe child of a join node.
fn join_probe_child(plan: &LogicalPlan) -> &LogicalPlan {
    match &plan.node {
        Node::Join { probe, .. } => probe,
        _ => unreachable!("caller guarantees a join node"),
    }
}

/// Resolve where join `j`'s probe key (an index into its probe input's
/// schema) originates: a column of the lowest probe stream, or a column of
/// a lower join's build relation.
fn resolve_attr_source(chain: &[&LogicalPlan], j: usize, col: usize) -> AttrSource {
    if j == 0 {
        return AttrSource::Probe { col };
    }
    // Probe input of join j is the output of join j-1: its emitted
    // columns of build ++ probe.
    let below = chain[j - 1];
    let Node::Join { build, emit, .. } = &below.node else {
        unreachable!("chain contains only joins");
    };
    let col = emitted(emit, col);
    let build_arity = build.schema.arity();
    if col < build_arity {
        AttrSource::Build { join: j - 1, col }
    } else {
        resolve_attr_source(chain, j - 1, col - build_arity)
    }
}

/// Whether aggregate group column `g` is the join key of the hash join
/// directly below (either side) — the §4.2 push-down condition.
fn group_col_is_join_key(input: &LogicalPlan, g: usize) -> bool {
    let Node::Join {
        build,
        condition: JoinCondition::Equi {
            build_key,
            probe_key,
        },
        algo: JoinAlgo::Hash,
        kind: JoinKind::Inner,
        emit,
        ..
    } = &input.node
    else {
        return false;
    };
    let g = emitted(emit, g);
    g == *build_key || g == build.schema.arity() + probe_key
}

/// Which column of build ++ probe a join emits as its output column `c`.
fn emitted(emit: &Option<Vec<usize>>, c: usize) -> usize {
    emit.as_ref().map_or(c, |emit| emit[c])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use qprog_exec::expr::{BinOp, Expr};
    use qprog_exec::ops::agg::AggFunc;
    use qprog_exec::sync::Mutex;
    use qprog_storage::{Catalog, Table};
    use qprog_types::{row, DataType, Field, Row, Schema, Value};

    /// customer(custkey, nationkey) with skew-free keys; nation(nationkey).
    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut customer = Table::new(
            "customer",
            Schema::new(vec![
                Field::new("custkey", DataType::Int64),
                Field::new("nationkey", DataType::Int64),
            ]),
        );
        for i in 0..2000i64 {
            customer.push(row![i, i % 25]).unwrap();
        }
        let mut nation = Table::new(
            "nation",
            Schema::new(vec![
                Field::new("nationkey", DataType::Int64),
                Field::new("regionkey", DataType::Int64),
            ]),
        );
        for i in 0..25i64 {
            nation.push(row![i, i % 5]).unwrap();
        }
        let mut region = Table::new(
            "region",
            Schema::new(vec![Field::new("regionkey", DataType::Int64)]),
        );
        for i in 0..5i64 {
            region.push(row![i]).unwrap();
        }
        c.register(customer).unwrap();
        c.register(nation).unwrap();
        c.register(region).unwrap();
        c
    }

    fn two_join_plan(b: &PlanBuilder, algo: JoinAlgo) -> LogicalPlan {
        two_joins_over(b, b.scan("customer").unwrap(), algo)
    }

    /// region ⋈ (nation ⋈ `customer`): chain of 2 joins on different
    /// attributes, Case 2 flavor (regionkey comes from nation, the lower
    /// build relation).
    fn two_joins_over(b: &PlanBuilder, customer: LogicalPlan, algo: JoinAlgo) -> LogicalPlan {
        customer
            .join_build(
                b.scan("nation").unwrap(),
                "nation.nationkey",
                "customer.nationkey",
                algo,
            )
            .unwrap()
            .join_build(
                b.scan("region").unwrap(),
                "region.regionkey",
                "nation.regionkey",
                algo,
            )
            .unwrap()
    }

    /// Registry names, pipelines, operator inputs and optimizer estimates.
    type Layout = (Vec<String>, Vec<Vec<usize>>, Vec<Vec<usize>>, Vec<f64>);

    /// The layout `plan` compiles to under `mode`, and its rows unsorted,
    /// which pin the scan samples.
    fn layout_and_rows(plan: &LogicalPlan, mode: EstimationMode) -> (Layout, Vec<String>) {
        let mut q = compile(plan, &PhysicalOptions::with_mode(mode)).unwrap();
        let rows = q.collect().unwrap().iter().map(|r| r.to_string()).collect();
        let names = q.registry().iter().map(|(n, _)| n.to_string()).collect();
        let layout = (
            names,
            q.pipelines().groups().to_vec(),
            q.op_inputs().to_vec(),
            q.initial_estimates().to_vec(),
        );
        (layout, rows)
    }

    #[test]
    fn results_identical_across_modes() {
        // One plan compiles to one layout and reads the same scan samples
        // in every estimation mode.
        let b = PlanBuilder::new(catalog());
        let tpch = PlanBuilder::new(tpch_catalog());
        for (name, plan) in [
            ("hash", two_join_plan(&b, JoinAlgo::Hash)),
            ("merge", two_join_plan(&b, JoinAlgo::Merge)),
            ("rejected chain", shared_source_plan(&b)),
            ("q8", q8(&tpch)),
        ] {
            let (layout, rows) = layout_and_rows(&plan, EstimationMode::Off);
            assert!(!rows.is_empty(), "{name}");
            if name != "q8" {
                assert_eq!(rows.len(), 2000, "{name}");
            }
            for mode in EstimationMode::ALL {
                let (l, r) = layout_and_rows(&plan, mode);
                assert_eq!(l, layout, "{name} {mode:?}");
                assert_eq!(r, rows, "{name} {mode:?}");
            }
        }
    }

    /// n2 ⋈ (region ⋈ (nation ⋈ customer)): both upper joins probe with
    /// keys of `nation`, the lowest build relation, which one Algorithm-1
    /// estimator cannot fold.
    fn shared_source_plan(b: &PlanBuilder) -> LogicalPlan {
        let n2 = b.scan("nation").unwrap().with_alias("n2");
        two_join_plan(b, JoinAlgo::Hash)
            .hash_join(n2, "n2.nationkey", "nation.nationkey")
            .unwrap()
    }

    #[test]
    fn a_chain_the_estimator_rejects_compiles_its_top_join_alone() {
        // The top join compiles as a one-join chain over the two-join chain
        // below it; its layout and rows are every mode's
        // (`results_identical_across_modes`).
        let b = PlanBuilder::new(catalog());
        let plan = shared_source_plan(&b);
        let mut q = compile(&plan, &PhysicalOptions::with_mode(EstimationMode::Once)).unwrap();
        assert_eq!(collect_join_chain(q.plan(), JoinAlgo::Hash).len(), 3);
        assert_eq!(join_chain(q.plan()).unwrap().0.len(), 1);
        assert_eq!(q.collect().unwrap().len(), 2000);
        let joins = q.registry().iter().enumerate();
        let joins: Vec<_> = joins.filter(|(_, (n, _))| *n == "hash_join").collect();
        assert_eq!(joins.len(), 3);
        for (i, (_, m)) in joins {
            assert_eq!(q.estimator_labels()[i], "pipeline");
            assert_eq!(m.estimated_total(), m.emitted() as f64, "join {i}");
        }
    }

    #[test]
    fn pipeline_chain_estimates_converge_early() {
        let b = PlanBuilder::new(catalog());
        // region ⋈ (nation ⋈ customer) with the lower join on `custkey`:
        // only the first 25 customers match, so the probe rows' contributions
        // vary and the chain's intervals are not points until the end. (In
        // `two_join_plan` every customer contributes one row to each join.)
        let sparse = |algo| {
            b.scan("customer")
                .unwrap()
                .join_build(
                    b.scan("nation").unwrap(),
                    "nation.nationkey",
                    "customer.custkey",
                    algo,
                )
                .unwrap()
                .join_build(
                    b.scan("region").unwrap(),
                    "region.regionkey",
                    "nation.regionkey",
                    algo,
                )
                .unwrap()
        };
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
            for (plan, truth) in [(two_join_plan(&b, algo), 2000.0), (sparse(algo), 25.0)] {
                let opts = PhysicalOptions {
                    batch_rows: 64,
                    ..PhysicalOptions::with_mode(EstimationMode::Once)
                };
                let mut q = compile(&plan, &opts).unwrap();
                let joins: Vec<(String, Arc<OpMetrics>)> = q
                    .registry()
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| q.estimator_labels()[i] == "pipeline")
                    .map(|(_, (name, m))| (name.to_string(), Arc::clone(m)))
                    .collect();
                assert_eq!(joins.len(), 2, "{algo:?}");
                // Every chain join's estimate and bounds at every publication.
                let published = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&published);
                let watched: Vec<_> = joins.iter().map(|(_, m)| Arc::clone(m)).collect();
                q.on_progress(move |_| {
                    let mut sink = sink.lock();
                    for m in &watched {
                        sink.push((m.estimated_total(), m.estimated_bounds()));
                    }
                });
                // one output row → preprocessing done → both joins exact
                let first = q.step().unwrap();
                assert!(first.is_some());
                for (name, m) in &joins {
                    assert_eq!(name, join_op_name(algo));
                    assert_eq!(
                        m.estimated_total(),
                        truth,
                        "{algo:?}: join estimates must be exact after preprocessing"
                    );
                    assert_eq!(m.estimated_bounds(), Some((truth, truth)), "{algo:?}");
                }
                let published = published.lock();
                for &(n, bounds) in published.iter() {
                    if let Some((lo, hi)) = bounds {
                        assert!(lo <= n && n <= hi, "{algo:?}: {lo} <= {n} <= {hi}");
                    }
                }
                let open = published
                    .iter()
                    .any(|&(_, bounds)| bounds.is_some_and(|(lo, hi)| lo < hi));
                assert_eq!(open, truth == 25.0, "{algo:?}: {published:?}");
            }
        }
    }

    #[test]
    fn aggregation_is_not_pushed_down_over_a_pipeline_chain() {
        // GROUP BY the top join's probe key: the push-down condition holds,
        // but the chain's top join observes no probe keys of its own.
        let b = PlanBuilder::new(catalog());
        let plan = two_join_plan(&b, JoinAlgo::Hash)
            .aggregate(&["nation.regionkey"], &[(AggFunc::CountStar, None, "cnt")])
            .unwrap();
        let opts = PhysicalOptions {
            batch_rows: 64,
            ..PhysicalOptions::with_mode(EstimationMode::Once)
        };
        let mut q = compile(&plan, &opts).unwrap();
        let (name, agg) = q.registry().iter().next().unwrap();
        assert_eq!(name, "hash_agg");
        assert_eq!(q.estimator_labels()[0], "gee/mle");
        let agg = Arc::clone(agg);
        let consuming = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&consuming);
        q.on_progress(move |_| {
            if agg.driver_consumed() > 0 {
                sink.lock().push(agg.estimated_total());
            }
        });
        assert_eq!(q.collect().unwrap().len(), 5);
        let consuming = consuming.lock();
        assert!(!consuming.is_empty());
        assert!(consuming.iter().all(|&n| n > 0.0), "{consuming:?}");
    }

    #[test]
    fn pipelines_are_decomposed() {
        let b = PlanBuilder::new(catalog());
        // root pipeline + one per build side = 3; a merge join blocks its
        // probe side too, so a merge chain has 5.
        for (algo, pipelines) in [(JoinAlgo::Hash, 3), (JoinAlgo::Merge, 5)] {
            let plan = two_join_plan(&b, algo);
            let q = compile(&plan, &PhysicalOptions::default()).unwrap();
            assert_eq!(q.pipelines().len(), pipelines, "{algo:?}");
            let tracker = q.tracker();
            assert_eq!(tracker.fraction(), 0.0);
        }
    }

    #[test]
    fn progress_reaches_one_at_completion() {
        let b = PlanBuilder::new(catalog());
        let plan = two_join_plan(&b, JoinAlgo::Hash);
        let mut q = compile(&plan, &PhysicalOptions::default()).unwrap();
        let tracker = q.tracker();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        q.on_progress(move |snap| sink.lock().push(snap.fraction()));
        let rows = q.collect().unwrap();
        assert_eq!(rows.len(), 2000);
        let seen = seen.lock();
        assert!(seen.iter().all(|f| (0.0..=1.0).contains(f)), "{seen:?}");
        assert!(seen.windows(2).all(|w| w[0] <= w[1]), "{seen:?}");
        assert!(seen.iter().filter(|&&f| f > 0.0 && f < 1.0).count() >= 5);
        assert_eq!(seen.last(), Some(&1.0));
        assert!(tracker.snapshot().is_complete());
    }

    #[test]
    fn aggregation_pushdown_is_wired() {
        let b = PlanBuilder::new(catalog());
        // GROUP BY customer.nationkey directly above the nation⋈customer
        // hash join on nationkey → push-down applies.
        let plan = b
            .scan("customer")
            .unwrap()
            .hash_join(
                b.scan("nation").unwrap(),
                "nation.nationkey",
                "customer.nationkey",
            )
            .unwrap()
            .aggregate(
                &["customer.nationkey"],
                &[(AggFunc::CountStar, None, "cnt")],
            )
            .unwrap();
        let mut q = compile(&plan, &PhysicalOptions::with_mode(EstimationMode::Once)).unwrap();
        let rows = q.collect().unwrap();
        assert_eq!(rows.len(), 25);
        // The aggregate's estimate converged to the exact group count.
        let agg_total = q
            .registry()
            .iter()
            .find(|(n, _)| *n == "hash_agg")
            .map(|(_, m)| m.estimated_total())
            .unwrap();
        assert_eq!(agg_total, 25.0);
    }

    #[test]
    fn merge_and_nl_joins_compile_and_agree() {
        let b = PlanBuilder::new(catalog());
        for algo in [JoinAlgo::Merge, JoinAlgo::NestedLoops] {
            let plan = b
                .scan("customer")
                .unwrap()
                .join_build(
                    b.scan("nation").unwrap(),
                    "nation.nationkey",
                    "customer.nationkey",
                    algo,
                )
                .unwrap();
            for mode in EstimationMode::ALL {
                let mut q = compile(&plan, &PhysicalOptions::with_mode(mode)).unwrap();
                let rows = q.collect().unwrap();
                assert_eq!(rows.len(), 2000, "{algo:?}/{mode:?}");
                // schema order must be build ++ probe in all algos
                assert_eq!(rows[0].arity(), 4);
            }
        }
    }

    #[test]
    fn filter_and_projection_run() {
        let b = PlanBuilder::new(catalog());
        let scan = b.scan("customer").unwrap();
        let pred = Expr::binary(
            BinOp::Lt,
            scan.col_expr("custkey").unwrap(),
            Expr::lit(100i64),
        );
        let plan = scan
            .filter(pred)
            .unwrap()
            .project(vec![(Expr::col(1), "nk")])
            .unwrap()
            .sort(&[("nk", true)])
            .unwrap()
            .limit(7)
            .unwrap();
        let mut q = compile(&plan, &PhysicalOptions::default()).unwrap();
        let rows = q.collect().unwrap();
        assert_eq!(rows.len(), 7);
        assert!(rows.windows(2).all(|w| {
            w[0].get(0).unwrap().as_i64().unwrap() <= w[1].get(0).unwrap().as_i64().unwrap()
        }));
    }

    #[test]
    fn theta_nl_join_respects_schema_order() {
        let b = PlanBuilder::new(catalog());
        let probe = b.scan("region").unwrap();
        let build = b.scan("nation").unwrap();
        // condition in build ++ probe indexing: nation.regionkey(1) = region.regionkey(2)
        let pred = Expr::binary(BinOp::Eq, Expr::col(1), Expr::col(2));
        let plan = probe
            .nl_join(build, crate::logical::JoinCondition::Theta(pred))
            .unwrap();
        let mut q = compile(&plan, &PhysicalOptions::default()).unwrap();
        let rows = q.collect().unwrap();
        assert_eq!(rows.len(), 25);
        for r in &rows {
            assert_eq!(r.get(1).unwrap(), r.get(2).unwrap());
        }
    }

    #[test]
    fn baseline_estimates_are_rules_over_the_published_counters() {
        // Every N̂ a dne or byte operator publishes is its rule over the
        // counters published beside it, bit for bit, up to the exact total
        // at completion. The filter runs dne in both modes.
        use qprog_core::baseline::Baseline;
        let b = PlanBuilder::new(catalog());
        let half = Expr::binary(BinOp::Lt, Expr::col(0), Expr::lit(1000i64));
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
            let customer = b.scan("customer").unwrap().filter(half.clone()).unwrap();
            let plan = two_joins_over(&b, customer, algo);
            for mode in [EstimationMode::Dne, EstimationMode::Byte] {
                let opts = PhysicalOptions {
                    batch_rows: 64,
                    ..PhysicalOptions::with_mode(mode)
                };
                let mut q = compile(&plan, &opts).unwrap();
                let ops: Vec<(usize, Rule, Arc<OpMetrics>)> = (0..q.registry().len())
                    .filter_map(|i| {
                        let rule = match q.estimator_labels()[i] {
                            "dne" => Rule::Dne,
                            "byte" => Rule::Byte,
                            _ => return None,
                        };
                        Some((i, rule, Arc::clone(q.registry().get(i).unwrap())))
                    })
                    .collect();
                assert_eq!(ops.len(), 3, "{algo:?} {mode:?}: filter and two joins");
                let published = Arc::new(Mutex::new(Vec::new()));
                let (sink, watched) = (Arc::clone(&published), ops.clone());
                q.on_progress(move |_| {
                    let mut sink = sink.lock();
                    for (i, _, m) in &watched {
                        sink.push((*i, m.emitted(), m.driver_consumed(), m.estimated_total()));
                    }
                });
                assert_eq!(q.collect().unwrap().len(), 1000);
                let published = published.lock();
                assert!(published.len() > 30, "{algo:?} {mode:?}");
                for &(i, k_out, k_driver, n_hat) in published.iter() {
                    let (_, rule, m) = ops.iter().find(|(j, ..)| *j == i).unwrap();
                    // Every driver is consumed to its end, whose size the
                    // optimizer (filter) or the probe phase (joins) knew.
                    let rule = Baseline {
                        rule: *rule,
                        driver_total: m.driver_consumed(),
                        optimizer_estimate: q.initial_estimates()[i],
                    };
                    assert_eq!(
                        n_hat.to_bits(),
                        rule.estimate(k_out, k_driver).to_bits(),
                        "{algo:?} {mode:?} op {i} at ({k_out}, {k_driver})"
                    );
                }
                for (i, _, m) in &ops {
                    assert_eq!(m.estimated_total(), 1000.0, "{algo:?} {mode:?} op {i}");
                }
            }
        }
    }

    /// `a(custkey, nationkey)` — custkeys 0..60, every 41st NULL, so some
    /// rows miss `nation` and some have NULL keys — and
    /// `nation(nationkey, name, regionkey)` with keys 0..50: the shape of
    /// the benchmark's `hash_agg_uniform`, with a string column nothing
    /// reads.
    fn pruning_catalog() -> Catalog {
        let mut c = Catalog::new();
        let nullable = |name| Field::new(name, DataType::Int64).with_nullable(true);
        let mut a = Table::new(
            "a",
            Schema::new(vec![
                nullable("custkey"),
                Field::new("nationkey", DataType::Int64),
            ]),
        );
        for i in 0..400i64 {
            let custkey = if i % 41 == 0 {
                Value::Null
            } else {
                Value::Int64(i % 60)
            };
            a.push(Row::new(vec![custkey, Value::Int64(i % 7)]))
                .unwrap();
        }
        let mut nation = Table::new(
            "nation",
            Schema::new(vec![
                Field::new("nationkey", DataType::Int64),
                Field::new("name", DataType::Utf8),
                Field::new("regionkey", DataType::Int64),
            ]),
        );
        for i in 0..50i64 {
            nation.push(row![i, format!("nation{i}"), i % 5]).unwrap();
        }
        c.register(a).unwrap();
        c.register(nation).unwrap();
        c
    }

    /// A table's rows, read without the engine.
    fn rows_of(b: &PlanBuilder, table: &str) -> Vec<Row> {
        b.catalog().table(table).unwrap().iter().collect()
    }

    /// Rows as a sorted multiset of their renderings.
    fn multiset(rows: impl IntoIterator<Item = Row>) -> Vec<String> {
        let mut rows: Vec<String> = rows.into_iter().map(|r| r.to_string()).collect();
        rows.sort();
        rows
    }

    /// Compile `plan`, check its EXPLAIN lists `emits`, and return its rows.
    fn run_pruned(plan: &LogicalPlan, emits: &[&str]) -> Vec<Row> {
        let mut q = compile(plan, &PhysicalOptions::default()).unwrap();
        let explain = q.plan().display();
        for line in emits {
            assert!(explain.contains(line), "{line:?} in\n{explain}");
        }
        assert_eq!(q.plan().schema, plan.schema, "the root keeps its schema");
        q.collect().unwrap()
    }

    /// `plan` projected onto the named columns.
    fn select(plan: LogicalPlan, names: &[&str]) -> LogicalPlan {
        let exprs: Vec<_> = names
            .iter()
            .map(|n| (plan.col_expr(n).unwrap(), *n))
            .collect();
        plan.project(exprs).unwrap()
    }

    /// `a`'s rows with the `nation` rows their custkey matches.
    fn matches<'a>(b: &PlanBuilder, nations: &'a [Row]) -> Vec<(Row, Vec<&'a Row>)> {
        let key = |r: &Row, c| r.get(c).unwrap().clone();
        rows_of(b, "a")
            .into_iter()
            .map(|a| {
                let m = nations
                    .iter()
                    .filter(|n| key(n, 0).sql_eq(&key(&a, 0)) == Some(true));
                let m = m.collect();
                (a, m)
            })
            .collect()
    }

    #[test]
    fn hash_agg_shape_carries_one_column_through_the_join() {
        let b = PlanBuilder::new(pruning_catalog());
        let plan = b
            .scan("a")
            .unwrap()
            .hash_join(b.scan("nation").unwrap(), "nation.nationkey", "a.custkey")
            .unwrap()
            .aggregate(&["a.nationkey"], &[(AggFunc::CountStar, None, "tally")])
            .unwrap();
        let got = run_pruned(
            &plan,
            &[
                "Scan nation (rows=50) emit=[nation.nationkey] ",
                "Scan a (rows=400) emit=[a.custkey, a.nationkey] ",
                "build.0 = probe.0 emit=[a.nationkey] ",
            ],
        );
        let nations = rows_of(&b, "nation");
        let mut tally = std::collections::BTreeMap::new();
        for (a, m) in matches(&b, &nations) {
            *tally
                .entry(a.get(1).unwrap().as_i64().unwrap())
                .or_insert(0i64) += m.len() as i64;
        }
        tally.retain(|_, n| *n > 0);
        let expect = tally.into_iter().map(|(k, n)| row![k, n]);
        assert_eq!(multiset(got), multiset(expect));
    }

    #[test]
    fn count_star_reads_no_column() {
        let b = PlanBuilder::new(pruning_catalog());
        let count = [(AggFunc::CountStar, None, "n")];
        let nation = b.scan("nation").unwrap().aggregate(&[], &count).unwrap();
        let got = run_pruned(&nation, &["Scan nation (rows=50) emit=[] "]);
        assert_eq!(got, vec![row![50i64]]);
        let expect = matches(&b, &rows_of(&b, "nation"))
            .iter()
            .map(|(_, m)| m.len())
            .sum::<usize>();
        for (algo, line) in [
            (JoinAlgo::Hash, "Join[Hash/Inner]"),
            (JoinAlgo::Merge, "Join[Merge/Inner]"),
        ] {
            let plan = b
                .scan("a")
                .unwrap()
                .join_build(
                    b.scan("nation").unwrap(),
                    "nation.nationkey",
                    "a.custkey",
                    algo,
                )
                .unwrap()
                .aggregate(&[], &count)
                .unwrap();
            let emits = [
                &format!("{line} build.0 = probe.0 emit=[] ")[..],
                "emit=[a.custkey] ",
            ];
            assert_eq!(
                run_pruned(&plan, &emits),
                vec![row![expect as i64]],
                "{algo:?}"
            );
        }
        // A cross product over two zero-column inputs.
        let cross = b
            .scan("a")
            .unwrap()
            .nl_join(b.scan("nation").unwrap(), JoinCondition::Cross);
        let plan = cross.unwrap().aggregate(&[], &count).unwrap();
        let emits = [
            "Scan a (rows=400) emit=[] ",
            "Scan nation (rows=50) emit=[] ",
        ];
        assert_eq!(run_pruned(&plan, &emits), vec![row![20_000i64]]);
    }

    #[test]
    fn pruned_plans_return_the_naive_rows() {
        let b = PlanBuilder::new(pruning_catalog());
        let nations = rows_of(&b, "nation");
        let joined = matches(&b, &nations);
        let (a, nation) = (|| b.scan("a").unwrap(), || b.scan("nation").unwrap());
        let by_key = "nation.nationkey";
        let name_and_custkey = |p| select(p, &["nation.name", "a.custkey"]);

        // LeftOuter: a miss pads the one emitted build column.
        let plan = name_and_custkey(a().left_outer_join(nation(), by_key, "a.custkey").unwrap());
        let got = run_pruned(
            &plan,
            &["Join[Hash/LeftOuter] build.0 = probe.0 emit=[nation.name, a.custkey] "],
        );
        let expect = joined.iter().flat_map(|(a, m)| {
            let c = a.get(0).unwrap().clone();
            let names: Vec<Value> = m.iter().map(|n| n.get(1).unwrap().clone()).collect();
            let names = if names.is_empty() {
                vec![Value::Null]
            } else {
                names
            };
            names.into_iter().map(move |n| Row::new(vec![n, c.clone()]))
        });
        assert_eq!(multiset(got), multiset(expect), "LeftOuter");

        // Semi and Anti emit probe columns only.
        for (semi, kind) in [(true, "Semi"), (false, "Anti")] {
            let join = match semi {
                true => a().semi_join(nation(), by_key, "a.custkey"),
                false => a().anti_join(nation(), by_key, "a.custkey"),
            };
            let plan = select(join.unwrap(), &["a.nationkey"]);
            let emits = [&format!("Join[Hash/{kind}] build.0 = probe.0 emit=[a.nationkey] ")[..]];
            let got = run_pruned(&plan, &emits);
            let expect = joined.iter().filter(|(_, m)| m.is_empty() != semi);
            let expect = expect.map(|(a, _)| Row::new(vec![a.get(1).unwrap().clone()]));
            assert_eq!(multiset(got), multiset(expect), "{kind}");
        }

        // A nested-loops theta join, nation.regionkey = a.nationkey, over
        // pruned inputs.
        let theta = Expr::binary(BinOp::Eq, Expr::col(2), Expr::col(4));
        let plan = name_and_custkey(a().nl_join(nation(), JoinCondition::Theta(theta)).unwrap());
        let got = run_pruned(
            &plan,
            &[
                "emit=[nation.name, nation.regionkey] ",
                "emit=[a.custkey, a.nationkey] ",
            ],
        );
        let all_a = rows_of(&b, "a");
        let expect = nations.iter().flat_map(|n| {
            let hits = all_a
                .iter()
                .filter(|a| a.get(1).unwrap() == n.get(2).unwrap());
            hits.map(|a| Row::new(vec![n.get(1).unwrap().clone(), a.get(0).unwrap().clone()]))
        });
        assert_eq!(multiset(got), multiset(expect), "theta");

        // A filter on a column nothing above it reads.
        let regionkey = Expr::binary(BinOp::Eq, Expr::col(2), Expr::lit(2i64));
        let plan = a()
            .hash_join(nation().filter(regionkey).unwrap(), by_key, "a.custkey")
            .unwrap()
            .aggregate(&[], &[(AggFunc::CountStar, None, "n")])
            .unwrap();
        let emits = [
            "emit=[nation.nationkey, nation.regionkey] ",
            "Join[Hash/Inner] build.0 = probe.0 emit=[] ",
        ];
        let n = joined
            .iter()
            .flat_map(|(_, m)| m)
            .filter(|n| n.get(2).unwrap() == &Value::Int64(2));
        assert_eq!(
            run_pruned(&plan, &emits),
            vec![row![n.count() as i64]],
            "filter"
        );

        // Sort and Limit carry only the sort key to the projection.
        let top = a().hash_join(nation(), by_key, "a.custkey").unwrap();
        let top = top
            .sort(&[("a.custkey", false)])
            .unwrap()
            .limit(10)
            .unwrap();
        let plan = select(top, &["a.custkey"]);
        let got = run_pruned(&plan, &["build.0 = probe.0 emit=[a.custkey] "]);
        let mut custkeys: Vec<i64> = joined
            .iter()
            .flat_map(|(a, m)| m.iter().map(|_| a.get(0).unwrap().as_i64().unwrap()))
            .collect();
        custkeys.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(
            got,
            custkeys[..10].iter().map(|&c| row![c]).collect::<Vec<_>>(),
            "sort"
        );

        // A projection computing over the emitted columns.
        let join = a().hash_join(nation(), by_key, "a.custkey").unwrap();
        let plus = Expr::binary(
            BinOp::Add,
            join.col_expr("a.nationkey").unwrap(),
            Expr::lit(1i64),
        );
        let name = join.col_expr("nation.name").unwrap();
        let plan = join.project(vec![(name, "n"), (plus, "k")]).unwrap();
        let got = run_pruned(&plan, &["emit=[nation.name, a.nationkey] "]);
        let expect = joined.iter().flat_map(|(a, m)| {
            let k = a.get(1).unwrap().as_i64().unwrap() + 1;
            m.iter()
                .map(move |n| Row::new(vec![n.get(1).unwrap().clone(), Value::Int64(k)]))
        });
        assert_eq!(multiset(got), multiset(expect), "project");
    }

    /// TPC-H Q8's shape (the root crate's `workloads::q8_plan`): seven
    /// hash joins in one Algorithm-1 chain, four of them probing with keys
    /// carried by lower build relations, under an aggregate that reads two
    /// columns.
    fn q8(b: &PlanBuilder) -> LogicalPlan {
        let eq = |c, v: &str| Expr::binary(BinOp::Eq, Expr::col(c), Expr::lit(v));
        let part = b.scan("part").unwrap().filter(eq(1, "PROMO")).unwrap();
        let region = b.scan("region").unwrap().filter(eq(1, "AMERICA")).unwrap();
        let scan = |t: &str| b.scan(t).unwrap();
        [
            (part, "part.partkey", "lineitem.partkey"),
            (scan("supplier"), "supplier.suppkey", "lineitem.suppkey"),
            (scan("orders"), "orders.orderkey", "lineitem.orderkey"),
            (scan("customer"), "customer.custkey", "orders.custkey"),
            (
                scan("nation").with_alias("n1"),
                "n1.nationkey",
                "customer.nationkey",
            ),
            (
                scan("nation").with_alias("n2"),
                "n2.nationkey",
                "supplier.nationkey",
            ),
            (region, "region.regionkey", "n1.regionkey"),
        ]
        .into_iter()
        .fold(scan("lineitem"), |probe, (build, bk, pk)| {
            probe.hash_join(build, bk, pk).unwrap()
        })
        .aggregate(
            &["orders.orderyear"],
            &[
                (AggFunc::Sum, Some("lineitem.extendedprice"), "volume"),
                (AggFunc::CountStar, None, "rows"),
            ],
        )
        .unwrap()
    }

    /// A small TPC-H database with Zipf-1 foreign keys.
    fn tpch_catalog() -> Catalog {
        use qprog_datagen::{TpchConfig, TpchGenerator};
        let config = TpchConfig {
            scale: 0.002,
            skew: 1.0,
            seed: 5,
        };
        TpchGenerator::new(config).catalog().unwrap()
    }

    #[test]
    fn q8_chain_estimates_are_exact_and_identical_over_split_pruned_scans() {
        let b = PlanBuilder::new(tpch_catalog());
        let plan = q8(&b);
        let run = |threads| {
            let opts = PhysicalOptions {
                threads,
                ..PhysicalOptions::with_mode(EstimationMode::Once)
            };
            let mut q = compile(&plan, &opts).unwrap();
            let rows = q.collect().unwrap();
            let chain: Vec<Arc<OpMetrics>> = (0..q.registry().len())
                .filter(|&i| q.estimator_labels()[i] == "pipeline")
                .map(|i| Arc::clone(q.registry().get(i).unwrap()))
                .collect();
            assert_eq!(chain.len(), 7);
            for m in &chain {
                assert_eq!(m.estimated_total(), m.emitted() as f64, "threads={threads}");
            }
            // The chain registers top-down: its lowest join, the last one
            // registered, drains the pruned lineitem scan.
            let workers = chain[6].workers();
            let bits: Vec<u64> = chain
                .iter()
                .map(|m| m.estimated_total().to_bits())
                .collect();
            (multiset(rows), bits, workers, q.plan().display())
        };
        let (rows, bits, workers, explain) = run(1);
        assert!(!rows.is_empty());
        assert_eq!(workers, None);
        // Four of lineitem's columns, and two under the aggregate.
        let carried = [
            "Scan lineitem (rows=12000) emit=[lineitem.orderkey, lineitem.partkey, \
             lineitem.suppkey, lineitem.extendedprice] ",
            "emit=[orders.orderyear, lineitem.extendedprice] ",
        ];
        assert!(carried.iter().all(|c| explain.contains(c)), "{explain}");
        let (rows4, bits4, workers4, _) = run(4);
        assert_eq!(workers4, Some(4), "the pruned scan splits");
        assert_eq!((rows4, bits4), (rows, bits));
    }
}

#[cfg(test)]
mod merge_chain_tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use qprog_storage::{Catalog, Table};
    use qprog_types::{row, DataType, Field, Schema};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        for (name, domain) in [("t1", 40i64), ("t2", 40), ("t3", 40)] {
            let mut t = Table::new(name, Schema::new(vec![Field::new("k", DataType::Int64)]));
            for i in 0..800i64 {
                t.push(row![i % domain]).unwrap();
            }
            c.register(t).unwrap();
        }
        c
    }

    /// A chain of two merge joins on the same attribute shares one
    /// push-down estimator: both joins are exact after the lowest sort
    /// consume, before the upper merge emits (§4.1.4.3).
    #[test]
    fn merge_chain_estimates_converge_early() {
        let b = PlanBuilder::new(catalog());
        let plan = b
            .scan("t1")
            .unwrap()
            .join_build(b.scan("t2").unwrap(), "t2.k", "t1.k", JoinAlgo::Merge)
            .unwrap()
            .join_build(b.scan("t3").unwrap(), "t3.k", "t2.k", JoinAlgo::Merge)
            .unwrap();
        let mut q = compile(&plan, &PhysicalOptions::with_mode(EstimationMode::Once)).unwrap();
        let first = q.step().unwrap();
        assert!(first.is_some());
        let totals: Vec<f64> = q
            .registry()
            .iter()
            .filter(|(n, _)| *n == "merge_join")
            .map(|(_, m)| m.estimated_total())
            .collect();
        assert_eq!(totals.len(), 2);
        // count remaining output and compare
        let mut counts = [1u64; 1];
        while q.step().unwrap().is_some() {
            counts[0] += 1;
        }
        // chain metrics register top-down: totals[1] is the lower join
        // (800·20 = 16_000 rows), totals[0] the upper (×20 again)
        assert_eq!(totals[1], 16_000.0);
        assert_eq!(totals[0], 320_000.0);
        assert_eq!(counts[0], 320_000);
    }

    /// Merge chains and hash chains produce identical results.
    #[test]
    fn merge_chain_matches_hash_chain_results() {
        let b = PlanBuilder::new(catalog());
        let mut results = Vec::new();
        for algo in [JoinAlgo::Hash, JoinAlgo::Merge] {
            let plan = b
                .scan("t1")
                .unwrap()
                .join_build(b.scan("t2").unwrap(), "t2.k", "t1.k", algo)
                .unwrap()
                .join_build(b.scan("t3").unwrap(), "t3.k", "t2.k", algo)
                .unwrap();
            let mut q = compile(&plan, &PhysicalOptions::default()).unwrap();
            results.push(q.collect().unwrap().len());
        }
        assert_eq!(results[0], results[1]);
    }
}
