//! Query observability for qprog: trace sinks, progress timelines, and
//! EXPLAIN ANALYZE rendering.
//!
//! The executor publishes [`qprog_exec::trace::TraceEvent`]s through an
//! [`qprog_exec::trace::EventBus`] at phase boundaries and estimate
//! refinements (never per tuple); this crate is the consumer side:
//!
//! - [`sinks`] — pluggable [`TraceSink`](qprog_exec::trace::TraceSink)s:
//!   a lock-free bounded [`RingSink`](sinks::RingSink), a
//!   [`JsonlSink`](sinks::JsonlSink) that streams events as JSON lines,
//!   and a debug-mode [`ValidatorSink`](sinks::ValidatorSink) that flags
//!   events violating the progress model's invariants.
//! - [`timeline`] — a [`TimelineRecorder`](timeline::TimelineRecorder)
//!   that subscribes to a query's progress publications and records them
//!   into a [`ProgressLog`](timeline::ProgressLog) of timestamped
//!   `(K_i, N_i, lo, hi)` trajectories, exportable as CSV or JSON.
//! - [`explain`] — an EXPLAIN ANALYZE renderer comparing actual
//!   cardinalities against optimizer and online estimates (with q-errors,
//!   `getnext()` counts, phase wall-times, and estimator attribution).
//! - [`replay`] — deterministic trace replay: parse the JSONL sink format
//!   back into [`TraceEvent`](qprog_exec::trace::TraceEvent) streams
//!   ([`ReplayedTrace`](replay::ReplayedTrace)) and re-drive any sink
//!   offline, so a production trace can be re-scored and debugged post-hoc.
//! - [`scoring`] — paper-style progress-quality metrics
//!   ([`ProgressScore`](scoring::ProgressScore)) from a live or replayed
//!   trace: mean/max absolute error vs the retrospective oracle,
//!   monotonicity violations, convergence point, per-estimator q-error
//!   summaries.
//! - [`health`] — a per-query [`HealthAnalyzer`](health::HealthAnalyzer)
//!   consuming the live trace stream plus periodic work/ETA samples to
//!   detect stalls, estimate drift/oscillation, and ETA volatility,
//!   publishing typed `HealthTransition` events back onto the query's bus.
//! - [`metrics_sink`] — a [`MetricsSink`](metrics_sink::MetricsSink)
//!   aggregating each query's events into a shared
//!   [`qprog_metrics::Registry`]: fleet-wide tuple counts, phase activity,
//!   refinement rates, and cross-query q-error histograms per estimator,
//!   exposable in Prometheus text format.
//! - [`spans`] — causal span trees ([`SpanTree`](spans::SpanTree))
//!   assembled from a query's events: typed service-lifecycle spans
//!   (submit → queue-wait → dispatch attempts → finalize) merged with
//!   operator/phase/worker/pipeline intervals derived from the standard
//!   execution events, exportable as Chrome trace-event JSON for
//!   Perfetto / `chrome://tracing`.
//! - [`corpus`] — a persistent, size-capped trace corpus: every traced
//!   run's JSONL segment plus an indexed scorecard archived at terminal
//!   time ([`CorpusSink`](corpus::CorpusSink)), with rolling median/MAD
//!   baselines per `(workload, estimator, threads)` that flag
//!   progress-quality regressions as typed `RegressionDetected` events.
//!
//! Everything here runs *observer-side*: attaching no sinks and no
//! recorder leaves the engine's hot paths untouched.

pub mod corpus;
pub mod explain;
pub mod health;
pub mod json;
pub mod metrics_sink;
pub mod replay;
pub mod scoring;
pub mod sinks;
pub mod spans;
pub mod timeline;

pub use corpus::{
    ArchivedRun, Corpus, CorpusConfig, CorpusSink, Regression, RegressionConfig, RunMeta, RunRecord,
};
pub use explain::explain_analyze;
pub use health::{HealthAnalyzer, HealthConfig};
pub use metrics_sink::MetricsSink;
pub use replay::ReplayedTrace;
pub use scoring::{score_events, ProgressScore, QErrorSummary};
pub use sinks::{JsonlSink, RingSink, ValidatorSink};
pub use spans::{SpanNode, SpanTree, Track};
pub use timeline::{ProgressLog, RecordedTimeline, TimelinePoint, TimelineRecorder};
