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
use qprog_exec::governor::{guarded, guarded_next_batch, Budgets, CancellationToken, Governor};
use qprog_exec::metrics::{MetricsRegistry, OpMetrics};
use qprog_exec::ops::agg::AggEstimation;
use qprog_exec::ops::nl_join::{NestedLoopsJoin, NlCondition};
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
    root: BoxedOp,
    /// Registry index of the plan-root operator. Usually `0` (registration
    /// is top-down), but a join chain at the root registers bottom-up.
    root_op: usize,
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

    /// Registry index of the plan-root operator (the top of the
    /// [`op_inputs`](Self::op_inputs) tree).
    pub fn root_op(&self) -> usize {
        self.root_op
    }

    /// Which estimator drives each operator's `N_i` (registry order):
    /// `"exact"`, `"framework"`, `"pipeline"`, `"gee/mle"`, `"pushdown"`,
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

    /// Override the root batch capacity for subsequent
    /// [`collect`](Self::collect) calls
    /// (clamped to ≥ 1; `1` is strict per-row equivalence mode). Operators
    /// size their internal scratch batches from the capacity of the batch
    /// they are handed, so the override applies to the whole plan.
    pub fn set_batch_rows(&mut self, n: usize) {
        self.batch_rows = n.max(1);
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
        ProgressTracker::new(self.registry.clone(), self.pipelines.clone())
            .with_refinement(self.initial_estimates.clone(), self.op_inputs.clone())
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
/// query publishes `QueryFinished` when its root is exhausted.
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
        chain_root: None,
    };
    let root_pipeline = c.pipelines.new_pipeline();
    let root = c.compile(plan, root_pipeline)?;
    let root_op = c.chain_root.take().unwrap_or(0);
    let stepper = RowCursor::new(root.schema().arity(), 1);
    Ok(CompiledQuery {
        root,
        root_op,
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
    /// Set by [`compile_join_chain`](Self::compile_join_chain): a compiled
    /// chain registers its joins bottom-up, so the subtree's root operator
    /// is NOT the first index registered (the default assumption of
    /// [`compile_child`](Self::compile_child)). The chain leaves its true
    /// root index here for the caller to consume.
    chain_root: Option<usize>,
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

    /// The label for a join estimation mode under the current options.
    fn join_label(&self) -> &'static str {
        match self.opts.mode {
            EstimationMode::Off => "optimizer",
            EstimationMode::Once => "framework",
            EstimationMode::Dne => "dne",
            EstimationMode::Byte => "byte",
        }
    }

    /// Compile a child plan and record the edge from `parent` to the
    /// child's root operator (for future-pipeline refinement).
    fn compile_child(
        &mut self,
        parent: usize,
        plan: &LogicalPlan,
        pipeline: usize,
    ) -> QResult<BoxedOp> {
        let child_idx = self.registry.len();
        let op = self.compile(plan, pipeline)?;
        let child_idx = self.chain_root.take().unwrap_or(child_idx);
        self.op_inputs[parent].push(child_idx);
        Ok(op)
    }

    fn compile(&mut self, plan: &LogicalPlan, pipeline: usize) -> QResult<BoxedOp> {
        match &plan.node {
            Node::Scan { table } => {
                let (idx, m) =
                    self.register_idx(&format!("scan({})", table.name()), plan.estimate, pipeline);
                // A scan's lifetime total is its table's row count.
                self.set_label(idx, "exact");
                self.scan_counter += 1;
                let scan = TableScan::sampled(
                    Arc::clone(table),
                    self.opts.sample_fraction,
                    self.opts.seed.wrapping_add(self.scan_counter),
                    m,
                )
                .with_io_cost(std::time::Duration::from_micros(self.opts.block_io_us));
                Ok(Box::new(scan))
            }
            Node::Filter { input, predicate } => {
                let (idx, m) = self.register_idx("filter", plan.estimate, pipeline);
                let input_estimate = input.estimate;
                let child = self.compile_child(idx, input, pipeline)?;
                let mut f = Filter::new(child, predicate.clone(), m);
                if self.opts.mode != EstimationMode::Off {
                    // §4.3: selections have no preprocessing phase → dne.
                    f = f.with_dne(input_estimate.round() as u64, plan.estimate);
                    self.set_label(idx, "dne");
                }
                Ok(Box::new(f))
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
            Node::Join { .. } => self.compile_join(plan, pipeline, None),
        }
    }

    fn compile_aggregate(
        &mut self,
        plan: &LogicalPlan,
        input: &LogicalPlan,
        group_cols: &[usize],
        aggs: &[qprog_exec::ops::agg::AggSpec],
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
            Some(pushdown) => self.compile_join(input, input_pipeline, Some(pushdown))?,
            None => self.compile(input, input_pipeline)?,
        };
        let child_idx = self.chain_root.take().unwrap_or(child_idx);
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

    fn compile_join(
        &mut self,
        plan: &LogicalPlan,
        pipeline: usize,
        agg_pushdown: Option<(DistinctTracker, Sender<DistinctTracker>)>,
    ) -> QResult<BoxedOp> {
        let Node::Join {
            build,
            probe,
            condition,
            algo,
            kind,
        } = &plan.node
        else {
            return Err(QError::internal("compile_join on a non-join node"));
        };
        match algo {
            JoinAlgo::Hash | JoinAlgo::Merge => {
                // §4.1.4 / §4.1.4.3: a chain of hash joins, or of sort-merge
                // joins, shares one push-down estimator.
                if self.opts.mode == EstimationMode::Once && *kind == JoinKind::Inner {
                    let chain = collect_join_chain(plan, *algo);
                    if chain.len() >= 2 {
                        match self.compile_join_chain(&chain, *algo, pipeline) {
                            Ok(op) => return Ok(op),
                            Err(QError::Estimation(_)) => {
                                // unsupported pipeline shape (e.g. shared
                                // derived sources): fall back to per-join
                                // binary estimation below
                            }
                            Err(e) => return Err(e),
                        }
                    }
                }
                let (idx, m) = self.register_idx(join_op_name(*algo), plan.estimate, pipeline);
                self.set_label(idx, self.join_label());
                let build_pipeline = self.pipelines.new_pipeline();
                // A merge join sorts its probe side too: a blocking input.
                let probe_pipeline = match algo {
                    JoinAlgo::Merge => self.pipelines.new_pipeline(),
                    _ => pipeline,
                };
                let build_op = self.compile_child(idx, build, build_pipeline)?;
                let probe_op = self.compile_child(idx, probe, probe_pipeline)?;
                let estimation = match self.opts.mode {
                    EstimationMode::Off => JoinEstimation::Off,
                    // A binary join is the one-join Algorithm-1 chain.
                    EstimationMode::Once => {
                        let (build_key, probe_key) = equi_keys(condition)?;
                        let hint = probe.estimate.round() as u64;
                        JoinEstimation::once(build_key, probe_key, hint, Arc::clone(&m))
                    }
                    EstimationMode::Dne => JoinEstimation::Baseline {
                        rule: Rule::Dne,
                        optimizer_estimate: plan.estimate,
                    },
                    EstimationMode::Byte => JoinEstimation::Baseline {
                        rule: Rule::Byte,
                        optimizer_estimate: plan.estimate,
                    },
                };
                self.join_operator(plan, build_op, probe_op, estimation, m, agg_pushdown)
            }
            JoinAlgo::NestedLoops => {
                let (idx, m) = self.register_idx(join_op_name(*algo), plan.estimate, pipeline);
                let inner_pipeline = self.pipelines.new_pipeline();
                let outer_estimate = probe.estimate;
                let inner_op = self.compile_child(idx, build, inner_pipeline)?;
                let outer_op = self.compile_child(idx, probe, pipeline)?;
                let cond = match condition {
                    // exec's NL join streams the OUTER first in its output
                    // schema; our logical schema is build ++ probe, so the
                    // materialized inner (build) side is the exec outer...
                    // To keep build ++ probe column order, exec outer =
                    // build is wrong — instead we materialize the build
                    // side as exec's inner and flip the concat by making
                    // the probe stream the exec outer, then reproject.
                    JoinCondition::Equi {
                        build_key,
                        probe_key,
                    } => NlCondition::Equi(*probe_key, *build_key),
                    JoinCondition::Theta(e) => NlCondition::Theta(remap_theta(
                        e,
                        build.schema.arity(),
                        probe.schema.arity(),
                    )),
                    JoinCondition::Cross => NlCondition::Cross,
                };
                // exec output = outer(probe) ++ inner(build); we need
                // build ++ probe, so append a projection that swaps sides.
                let mut nl = NestedLoopsJoin::new(outer_op, inner_op, cond, Arc::clone(&m));
                if self.opts.mode != EstimationMode::Off {
                    // §4.1.3: nested-loops estimation reduces to dne.
                    nl = nl.with_dne(outer_estimate.round() as u64, plan.estimate);
                    self.set_label(idx, "dne");
                }
                let probe_arity = probe.schema.arity();
                let build_arity = build.schema.arity();
                let swap: Vec<qprog_exec::expr::Expr> = (0..build_arity)
                    .map(|i| qprog_exec::expr::Expr::Column(probe_arity + i))
                    .chain((0..probe_arity).map(qprog_exec::expr::Expr::Column))
                    .collect();
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
            ..
        } = &join.node
        else {
            return Err(QError::internal("join_operator on a non-join node"));
        };
        let (build_key, probe_key) = equi_keys(condition)?;
        if *algo == JoinAlgo::Merge {
            return Ok(Box::new(MergeJoin::new(
                build_op, probe_op, build_key, probe_key, estimation, metrics,
            )));
        }
        let mut hj = HashJoin::new(
            build_op, probe_op, build_key, probe_key, estimation, metrics,
        )
        .with_join_kind(*kind)
        .with_threads(self.opts.threads);
        if let Some((tracker, to_agg)) = agg_pushdown {
            hj = hj.with_agg_pushdown(tracker, to_agg);
        }
        Ok(Box::new(hj))
    }

    /// Compile a chain of ≥2 hash or merge joins as one Algorithm-1
    /// pipeline. `chain` is bottom-up: `chain[0]` is the lowest join.
    fn compile_join_chain(
        &mut self,
        chain: &[&LogicalPlan],
        algo: JoinAlgo,
        pipeline: usize,
    ) -> QResult<BoxedOp> {
        // Resolve the probe-attribute source of each join through column
        // provenance (join output schema = build ++ probe).
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
        let lowest_probe = join_probe_child(chain[0]);
        let probe_size = lowest_probe.estimate.round() as u64;
        // Validate the pipeline shape BEFORE registering any operators so a
        // fallback leaves no stray metrics behind.
        let estimator = PipelineEstimator::new(specs, probe_size)?;

        let mut join_indices = Vec::with_capacity(chain.len());
        let metrics: Vec<Arc<OpMetrics>> = chain
            .iter()
            .map(|node| {
                let (idx, m) = self.register_idx(join_op_name(algo), node.estimate, pipeline);
                join_indices.push(idx);
                m
            })
            .collect();
        for &idx in &join_indices {
            self.set_label(idx, "pipeline");
        }
        let modes = JoinEstimation::pipeline(estimator, metrics.clone());

        let lowest_probe_idx = self.registry.len();
        let mut cur: BoxedOp = self.compile(lowest_probe, pipeline)?;
        let lowest_probe_idx = self.chain_root.take().unwrap_or(lowest_probe_idx);
        self.op_inputs[join_indices[0]].push(lowest_probe_idx);
        for ((j, node), estimation) in chain.iter().enumerate().zip(modes) {
            let Node::Join { build, .. } = &node.node else {
                unreachable!("validated above");
            };
            let build_pipeline = self.pipelines.new_pipeline();
            let build_op = self.compile_child(join_indices[j], build, build_pipeline)?;
            if j > 0 {
                self.op_inputs[join_indices[j]].push(join_indices[j - 1]);
            }
            let metrics = Arc::clone(&metrics[j]);
            cur = self.join_operator(node, build_op, cur, estimation, metrics, None)?;
        }
        // Joins were registered bottom-up, so this subtree's root operator
        // is the LAST chain index, not the first one registered — leave it
        // for the caller's op-tree bookkeeping.
        self.chain_root = Some(*join_indices.last().expect("chain.len() >= 2"));
        Ok(cur)
    }
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
    // Probe input of join j is the output of join j-1: build ++ probe.
    let below = chain[j - 1];
    let Node::Join { build, .. } = &below.node else {
        unreachable!("chain contains only joins");
    };
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
        ..
    } = &input.node
    else {
        return false;
    };
    let build_arity = build.schema.arity();
    (g < build_arity && g == *build_key) || (g >= build_arity && g - build_arity == *probe_key)
}

/// Rewrite a theta predicate from (build ++ probe) indexing to exec's
/// (outer=probe ++ inner=build) indexing.
fn remap_theta(
    e: &qprog_exec::expr::Expr,
    build_arity: usize,
    probe_arity: usize,
) -> qprog_exec::expr::Expr {
    use qprog_exec::expr::Expr;
    match e {
        Expr::Column(i) => {
            if *i < build_arity {
                Expr::Column(probe_arity + i)
            } else {
                Expr::Column(i - build_arity)
            }
        }
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Not(inner) => Expr::Not(Box::new(remap_theta(inner, build_arity, probe_arity))),
        Expr::IsNull { expr, negate } => Expr::IsNull {
            expr: Box::new(remap_theta(expr, build_arity, probe_arity)),
            negate: *negate,
        },
        Expr::Binary { op, left, right } => Expr::Binary {
            op: *op,
            left: Box::new(remap_theta(left, build_arity, probe_arity)),
            right: Box::new(remap_theta(right, build_arity, probe_arity)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use qprog_exec::expr::{BinOp, Expr};
    use qprog_exec::ops::agg::AggFunc;
    use qprog_exec::sync::Mutex;
    use qprog_storage::{Catalog, Table};
    use qprog_types::{row, DataType, Field, Schema};

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

    fn run_all_modes(plan: &LogicalPlan) -> Vec<usize> {
        EstimationMode::ALL
            .iter()
            .map(|&mode| {
                let mut q = compile(plan, &PhysicalOptions::with_mode(mode)).unwrap();
                q.collect().unwrap().len()
            })
            .collect()
    }

    #[test]
    fn results_identical_across_modes() {
        let b = PlanBuilder::new(catalog());
        let plan = two_join_plan(&b, JoinAlgo::Hash);
        let counts = run_all_modes(&plan);
        assert!(counts.iter().all(|&c| c == 2000), "{counts:?}");
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
        let plan = two_join_plan(&b, JoinAlgo::Hash);
        let q = compile(&plan, &PhysicalOptions::default()).unwrap();
        // root pipeline + one per build side = 3
        assert_eq!(q.pipelines().len(), 3);
        let tracker = q.tracker();
        assert_eq!(tracker.fraction(), 0.0);
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
        // chain metrics register bottom-up: totals[0] is the lower join
        // (800·20 = 16_000 rows), totals[1] the upper (×20 again)
        assert_eq!(totals[0], 16_000.0);
        assert_eq!(totals[1], 320_000.0);
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
