//! Execution event tracing: the engine-side port of the observability
//! subsystem.
//!
//! Operators publish [`TraceEvent`]s through an [`EventBus`] at **phase
//! boundaries and estimate refinements only** — never per tuple — so the
//! paper's "couple of relaxed atomics per `getnext()`" cost model is
//! preserved. The bus itself is immutable after construction (no locks on
//! the publish path); sinks decide what to do with each event. The
//! higher-level sinks (bounded ring buffer, JSONL writer, progress
//! validator) and the timeline/EXPLAIN ANALYZE consumers live in the
//! `qprog-obs` crate; this module only defines the event taxonomy, the sink
//! trait, and the bus so the executor does not depend on the observability
//! stack.
//!
//! With no bus attached (the default), tracing costs a single `Option`
//! check at each *already amortized* publication site — the overhead
//! benches (`table3`/`table4a`) run in exactly this configuration.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use qprog_types::json::Token;

use crate::span::{SpanKind, NO_PARENT};

named_enum! {
    /// Execution phase of a blocking operator, as exposed in
    /// [`TraceEventKind::PhaseTransition`].
    pub enum Phase {
        /// Not yet started (the implicit phase before the first transition).
        Init = "init",
        /// Hash join: draining + partitioning the build input.
        Build = "build",
        /// Hash join: draining + partitioning the probe input (where `once`
        /// estimation converges, §4.1.1).
        Probe = "probe",
        /// Hash join: partition-wise joining (output production).
        PartitionJoin = "partition_join",
        /// Merge join / sort: consuming and sorting an input.
        SortInput = "sort_input",
        /// Merge join: merging the sorted runs.
        Merge = "merge",
        /// Aggregation: consuming the input into groups.
        Accumulate = "accumulate",
        /// Producing output rows (generic final phase).
        Emit = "emit",
    }
}

named_enum! {
    /// Which estimator produced a refined `N_i` value.
    pub enum EstimateSource {
        /// The compile-time optimizer estimate (published at registration).
        Optimizer = "optimizer",
        /// An online estimator (framework / dne / byte) during execution.
        Online = "online",
        /// The exact count, pinned when the operator finishes.
        Exact = "exact",
    }
}

named_enum! {
    /// Why a query terminated before draining its root operator, as carried by
    /// [`TraceEventKind::QueryAborted`]. Mirrors the
    /// [`ExecError`](qprog_types::ExecError) taxonomy plus a catch-all for
    /// organic execution errors, flattened to `Copy` data so trace events stay
    /// allocation-free.
    pub enum AbortKind {
        /// Cooperative cancellation via the query's token.
        Cancelled = "cancelled",
        /// The wall-clock deadline elapsed.
        DeadlineExceeded = "deadline",
        /// A hard per-query resource budget was breached.
        BudgetExceeded = "budget",
        /// An operator (or worker thread) panicked and was isolated.
        OperatorPanic = "panic",
        /// A fault-injection site fired (failpoints builds).
        Injected = "injected",
        /// Any other execution error (type error, division by zero, ...).
        Error = "error",
    }
}

impl AbortKind {
    /// Classify an error into its abort kind.
    pub fn from_error(e: &qprog_types::QError) -> AbortKind {
        use qprog_types::ExecError;
        match e.lifecycle() {
            Some(ExecError::Cancelled) => AbortKind::Cancelled,
            Some(ExecError::DeadlineExceeded) => AbortKind::DeadlineExceeded,
            Some(ExecError::BudgetExceeded(_)) => AbortKind::BudgetExceeded,
            Some(ExecError::OperatorPanic(_)) => AbortKind::OperatorPanic,
            Some(ExecError::Injected(_)) => AbortKind::Injected,
            None => AbortKind::Error,
        }
    }
}

named_enum! {
    /// Why an estimator stepped down a rung on the degradation ladder, as
    /// carried by [`TraceEventKind::EstimatorDegraded`].
    pub enum DegradeReason {
        /// The exact frequency histogram outgrew its memory budget.
        HistogramMemory = "histogram_memory",
    }
}

named_enum! {
    /// Progress-health verdict for a running query, as carried by
    /// [`TraceEventKind::HealthTransition`]. Computed by the `obs::health`
    /// analyzer from the live trace stream plus periodic work/ETA samples.
    pub enum HealthState {
        /// Work is flowing and estimates are settled.
        Healthy = "healthy",
        /// No observed-work delta for longer than the configured stall window
        /// while the query is still Running.
        Stalled = "stalled",
        /// Estimates are oscillating/diverging or the ETA is swinging beyond
        /// the configured volatility thresholds.
        Unstable = "unstable",
    }
}

named_enum! {
    /// Why the health analyzer changed its verdict, as carried by
    /// [`TraceEventKind::HealthTransition`].
    pub enum HealthReason {
        /// No observed-work delta past the stall window.
        Stall = "stall",
        /// Estimate refinements flipped direction (or diverged) too often.
        Oscillation = "oscillation",
        /// The smoothed ETA swung by more than the volatility threshold across
        /// consecutive samples.
        EtaVolatility = "eta_volatility",
        /// Conditions cleared; the query is behaving again.
        Recovered = "recovered",
    }
}

named_enum! {
    /// Which progress-quality metric regressed against its corpus baseline, as
    /// carried by [`TraceEventKind::RegressionDetected`]. Computed by the
    /// `obs::corpus` regression engine when a completed run's scorecard is
    /// compared against rolling median/MAD baselines for the same
    /// (workload, estimator, threads) key.
    pub enum RegressionKind {
        /// Mean absolute progress error vs the retrospective oracle grew.
        MeanAbsErr = "mean_abs_err",
        /// The estimate converged later (larger fraction of the run elapsed
        /// before entering the convergence band, 1.0 = never converged).
        Convergence = "convergence",
        /// The progress fraction moved backwards more often.
        Monotonicity = "monotonicity",
        /// The run's wall time grew.
        WallTime = "wall_time",
    }
}

/// Declares [`TraceEventKind`] with its wire form, once. Each kind gives
/// its wire name (the `event` member of its JSON line and the `event`
/// label of its metrics series) and its members in wire order; a member's
/// key is its field name and its rule says how it is written and read:
///
/// - `int`: a non-negative integer;
/// - `float`: a number, with `null` ⇄ NaN (±inf is written `null` too);
/// - `name`: a `named_enum!` value as its name;
/// - `op`: an operator index, followed by an [`OP_NAME`] member when the
///   encoder is given names;
/// - `interval`: one end of the `lo`/`hi` pair, written only when the
///   publication has an interval (either end not NaN) and read as NaN
///   when absent;
/// - `parent`: a span's parent, omitted when it is [`NO_PARENT`], which an
///   absent member reads as.
///
/// `name()`, `NAMES`, the encoder's walk
/// ([`TraceEventKind::for_each_member`]) and the decoder
/// ([`TraceEventKind::decode`]) are generated from it.
macro_rules! trace_kinds {
    ($(#[$meta:meta])* pub enum $ty:ident {
        $($(#[$vmeta:meta])* $variant:ident = $name:literal {
            $($(#[$fmeta:meta])* $field:ident: $fty:ty = $rule:ident),+ $(,)?
        },)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq)]
        pub enum $ty {
            $($(#[$vmeta])* $variant { $($(#[$fmeta])* $field: $fty,)+ },)+
        }

        impl $ty {
            /// Every kind's wire name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$($name),+];

            /// The kind's stable wire name.
            pub fn name(&self) -> &'static str {
                match self {
                    $($ty::$variant { .. } => $name,)+
                }
            }

            /// Visit the members a line of this event carries, in wire
            /// order, as `(key, value)`.
            pub fn for_each_member(&self, mut visit: impl FnMut(&'static str, Wire)) {
                match *self {
                    $($ty::$variant { $($field,)+ } => {
                        // Read by the `interval` rule only.
                        #[allow(unused_variables)]
                        let interval = [$(trace_kinds!(@open $rule $field)),+].contains(&true);
                        $(if let Some(value) = trace_kinds!(@write $rule $field, interval) {
                            visit(stringify!($field), value);
                        })+
                    })+
                }
            }

            /// The kind named `name`, its members looked up by key with
            /// `member`; `None` when the name is unknown or a member the
            /// kind needs is missing, mistyped or out of range.
            pub fn decode<'a>(
                name: &str,
                mut member: impl FnMut(&str) -> Option<Token<'a>>,
            ) -> Option<$ty> {
                Some(match name {
                    $($name => $ty::$variant {
                        $($field: trace_kinds!(@read $rule $fty, member(stringify!($field)))?,)+
                    },)+
                    _ => return None,
                })
            }
        }
    };
    (@open interval $f:ident) => { !$f.is_nan() };
    (@open $rule:ident $f:ident) => { false };
    (@write int $f:ident, $interval:ident) => { Some(Wire::Int(u64::from($f))) };
    (@write float $f:ident, $interval:ident) => { Some(Wire::Float($f)) };
    (@write name $f:ident, $interval:ident) => { Some(Wire::Name($f.name())) };
    (@write op $f:ident, $interval:ident) => { Some(Wire::Op($f)) };
    (@write interval $f:ident, $interval:ident) => { $interval.then_some(Wire::Float($f)) };
    (@write parent $f:ident, $interval:ident) => {
        ($f != NO_PARENT).then_some(Wire::Int(u64::from($f)))
    };
    (@read float $t:ty, $v:expr) => { $v.and_then(Token::f64) };
    (@read name $t:ty, $v:expr) => { $v.and_then(|v| <$t>::from_name(v.raw())) };
    (@read interval $t:ty, $v:expr) => { $v.map_or(Some(f64::NAN), Token::f64) };
    (@read parent $t:ty, $v:expr) => {
        $v.map_or(Some(NO_PARENT), |v| v.u64()?.try_into().ok())
    };
    // `int` and `op` (a rule `@write` does not know fails to compile there).
    (@read $rule:ident $t:ty, $v:expr) => { $v.and_then(|v| v.u64()?.try_into().ok()) };
}

/// The key of the operator's registry name, written after its `op` member.
pub const OP_NAME: &str = "op_name";

/// A member's value as [`TraceEventKind::for_each_member`] hands it to the
/// encoder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Wire {
    /// A non-negative integer.
    Int(u64),
    /// A float: a number when finite, `null` otherwise.
    Float(f64),
    /// A named enum value's name, written as a string.
    Name(&'static str),
    /// An operator index, followed by its [`OP_NAME`] when the encoder has one.
    Op(u32),
}

// Declaration order matters: the first ten kinds (`pipeline_started` to
// `operator_wall_time`) are the ones every run can publish, and
// `obs::MetricsSink` registers their `qprog_trace_events_total` series up
// front from the head of `TraceEventKind::NAMES`. Reordering this
// declaration changes which series exist before their first event.
trace_kinds! {
    /// The event taxonomy. `op` fields are metrics-registry indices (resolve
    /// names through the registry); `pipeline` fields are pipeline ids from the
    /// plan's pipeline decomposition. Events are plain `Copy` data so sinks can
    /// buffer them without allocation.
    pub enum TraceEventKind {
        /// A pipeline moved from pending to running (derived by a timeline
        /// recorder, so the timestamp is accurate to the query's progress
        /// publications).
        PipelineStarted = "pipeline_started" { pipeline: u32 = int },
        /// Every operator of a pipeline finished (observer-derived).
        PipelineFinished = "pipeline_finished" { pipeline: u32 = int },
        /// A blocking operator crossed a phase boundary (build→probe,
        /// sort→merge, ...). Published synchronously by the operator.
        PhaseTransition = "phase_transition" { op: u32 = op, from: Phase = name, to: Phase = name },
        /// An operator's estimate `N_i`, or the interval `[lo, hi]` published
        /// with it (NaN: none), moved; `old` is `N_i` as last traced moving (NaN
        /// before the first, optimizer, publication).
        EstimateRefined = "estimate_refined" {
            op: u32 = op,
            old: f64 = float,
            new: f64 = float,
            source: EstimateSource = name,
            lo: f64 = interval,
            hi: f64 = interval,
        },
        /// An operator returned `None`; `emitted` is its exact `K_i = N_i`.
        OperatorFinished = "operator_finished" { op: u32 = op, emitted: u64 = int },
        /// The query's root operator is exhausted.
        QueryFinished = "query_finished" { rows: u64 = int },
        /// The query terminated *without* exhausting its root operator —
        /// cancelled, past deadline, over budget, panicked, or errored. `rows`
        /// is how many rows the driver had consumed when it stopped. Terminal:
        /// at most one of `QueryFinished` / `QueryAborted` is published per
        /// query.
        QueryAborted = "query_aborted" { reason: AbortKind = name, rows: u64 = int },
        /// An operator's estimator fell back to a cheaper rung on the
        /// degradation ladder (e.g. exact frequency histogram → dne baseline)
        /// after breaching a resource budget; progress estimates continue but
        /// coarser.
        EstimatorDegraded = "estimator_degraded" { op: u32 = op, reason: DegradeReason = name },
        /// One of the query's `gnm` progress publications (made in-thread at
        /// operator batch boundaries while publication is on: a progress
        /// subscriber is attached, or the session archives into a corpus).
        /// Makes a recorded trace self-sufficient for post-hoc quality scoring
        /// (replay needs no live tracker): `fraction = current / total` with
        /// the estimator's current `ΣN_i`, and `[lo, hi]` the bounds-derived
        /// progress interval.
        ProgressSampled = "progress_sampled" {
            /// `ΣK_i` — total work done across monitored operators.
            current: u64 = int,
            /// `ΣN_i` — estimated total work (NaN when unknown).
            total: f64 = float,
            /// `current / total`, clamped to `[0, 1]`.
            fraction: f64 = float,
            /// Lower progress bound (NaN when no bounds are published).
            lo: f64 = float,
            /// Upper progress bound (NaN when no bounds are published).
            hi: f64 = float,
        },
        /// An operator's observed active wall-time span, stamped when it
        /// finishes. `wall_us` is the *inclusive* span from the operator's
        /// first to last observed unit of work (like `EXPLAIN ANALYZE`
        /// inclusive time: a parent's span contains its children's), measured
        /// by `Instant` reads amortized over the governor's 64-checkpoint
        /// stride.
        OperatorWallTime = "operator_wall_time" { op: u32 = op, wall_us: u64 = int },
        /// One worker thread's busy time inside an operator's partition-parallel
        /// phases, published when the operator's parallel preprocessing
        /// completes. `worker` is the task index within the operator's pool;
        /// `busy_us` is wall time the worker spent executing (build + probe
        /// drains combined). Never published by serial execution, so
        /// single-threaded traces are byte-identical to pre-parallel builds.
        WorkerWallTime = "worker_wall_time" { op: u32 = op, worker: u32 = int, busy_us: u64 = int },
        /// The progress-health analyzer changed its verdict about the query
        /// (Healthy ↔ Stalled / Unstable). Published by the `obs::health`
        /// analyzer from the monitor's sampling thread — never from the query
        /// thread — and never published at all unless a health analyzer is
        /// attached, so plain traces stay byte-identical to pre-health builds.
        HealthTransition = "health_transition" {
            from: HealthState = name,
            to: HealthState = name,
            reason: HealthReason = name,
        },
        /// A completed run's progress-quality scorecard regressed against the
        /// rolling corpus baseline for its (workload, estimator, threads) key.
        /// Published by the `obs::corpus` archival sink at terminal time — never
        /// unless a corpus is attached, so plain traces stay byte-identical to
        /// pre-corpus builds. `observed` exceeded `threshold`, which was derived
        /// from `baseline` (the rolling median) plus a MAD-scaled margin.
        RegressionDetected = "regression_detected" {
            kind: RegressionKind = name,
            observed: f64 = float,
            baseline: f64 = float,
            threshold: f64 = float,
        },
        /// A causal lifecycle span opened. `span` is unique within the emitting
        /// stream, `parent` names the enclosing span
        /// ([`NO_PARENT`] for the root), and `arg`
        /// qualifies the kind (see [`SpanKind`]).
        /// Emitted by the query service's lifecycle instrumentation — never by
        /// execution operators, whose span detail is derived from the events
        /// they already publish — so the traced hot path gains no new atomics.
        SpanStart = "span_start" {
            span: u32 = int,
            parent: u32 = parent,
            kind: SpanKind = name,
            arg: u32 = int,
        },
        /// The span opened by the matching [`SpanStart`](Self::SpanStart)
        /// closed; its duration is `at_us(end) - at_us(start)`.
        SpanEnd = "span_end" { span: u32 = int },
    }
}

impl TraceEventKind {
    /// The operator index the kind's `op` member carries, if it has one.
    pub fn op(&self) -> Option<u32> {
        let mut op = None;
        self.for_each_member(|_, value| {
            if let Wire::Op(index) = value {
                op = Some(index);
            }
        });
        op
    }
}

/// A timestamped, globally ordered trace event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Publication order across the whole bus (contiguous from 0 unless
    /// sinks drop on overflow).
    pub seq: u64,
    /// Microseconds since the bus was created.
    pub at_us: u64,
    /// What happened.
    pub kind: TraceEventKind,
}

/// A trace consumer. Implementations must be cheap and non-blocking on
/// `publish` — it runs synchronously on the query thread (though only at
/// phase boundaries / refinements).
pub trait TraceSink: Send + Sync {
    /// Consume one event.
    fn publish(&self, event: &TraceEvent);
}

/// The event bus: a timestamp epoch, a sequence counter, and an immutable
/// set of sinks. Publishing takes no locks — one atomic fetch-add for the
/// sequence number plus whatever each sink does.
pub struct EventBus {
    epoch: Instant,
    seq: std::sync::atomic::AtomicU64,
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl fmt::Debug for EventBus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("sinks", &self.sinks.len())
            .field(
                "published",
                &self.seq.load(std::sync::atomic::Ordering::Relaxed),
            )
            .finish()
    }
}

impl EventBus {
    /// Start building a bus.
    pub fn builder() -> EventBusBuilder {
        EventBusBuilder { sinks: Vec::new() }
    }

    /// Shorthand for a bus with exactly one sink.
    pub fn with_sink(sink: Arc<dyn TraceSink>) -> Arc<EventBus> {
        EventBus::builder().sink(sink).build()
    }

    /// Stamp and fan `kind` out to every sink.
    pub fn publish(&self, kind: TraceEventKind) {
        let event = TraceEvent {
            seq: self.seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            at_us: self.epoch.elapsed().as_micros() as u64,
            kind,
        };
        for sink in &self.sinks {
            sink.publish(&event);
        }
    }

    /// Total events published so far.
    pub fn published(&self) -> u64 {
        self.seq.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// The attached sinks (shareable: a caller composing a derived bus —
    /// e.g. a session adding metrics/monitor sinks per query — clones these
    /// so events are stamped once and fan out to every consumer).
    pub fn sinks(&self) -> &[Arc<dyn TraceSink>] {
        &self.sinks
    }

    /// The bus creation instant (`at_us` timestamps are relative to it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }
}

/// Builder for [`EventBus`].
pub struct EventBusBuilder {
    sinks: Vec<Arc<dyn TraceSink>>,
}

impl EventBusBuilder {
    /// Attach a sink.
    pub fn sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sinks.push(sink);
        self
    }

    /// Finish, producing a shareable bus.
    pub fn build(self) -> Arc<EventBus> {
        Arc::new(EventBus {
            epoch: Instant::now(),
            seq: std::sync::atomic::AtomicU64::new(0),
            sinks: self.sinks,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Mutex;

    struct VecSink(Mutex<Vec<TraceEvent>>);
    impl TraceSink for VecSink {
        fn publish(&self, event: &TraceEvent) {
            self.0.lock().push(*event);
        }
    }

    #[test]
    fn events_are_stamped_in_order() {
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        for i in 0..5u64 {
            bus.publish(TraceEventKind::QueryFinished { rows: i });
        }
        let events = sink.0.lock();
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, TraceEventKind::QueryFinished { rows: i as u64 });
        }
        assert!(events.windows(2).all(|w| w[0].at_us <= w[1].at_us));
        assert_eq!(bus.published(), 5);
    }

    #[test]
    fn fans_out_to_all_sinks() {
        let a = Arc::new(VecSink(Mutex::new(Vec::new())));
        let b = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::builder()
            .sink(Arc::clone(&a) as Arc<dyn TraceSink>)
            .sink(Arc::clone(&b) as Arc<dyn TraceSink>)
            .build();
        bus.publish(TraceEventKind::PipelineStarted { pipeline: 3 });
        assert_eq!(a.0.lock().len(), 1);
        assert_eq!(b.0.lock().len(), 1);
    }

    #[test]
    fn concurrent_publication_yields_unique_seqs() {
        let sink = Arc::new(VecSink(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as Arc<dyn TraceSink>);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let bus = Arc::clone(&bus);
                std::thread::spawn(move || {
                    for _ in 0..250 {
                        bus.publish(TraceEventKind::QueryFinished { rows: 0 });
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let mut seqs: Vec<u64> = sink.0.lock().iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (0..1000).collect::<Vec<_>>());
    }
}
