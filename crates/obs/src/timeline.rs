//! Progress timelines: a running query's published gnm states.
//!
//! A [`TimelineRecorder`] [attaches](TimelineRecorder::attach) to a
//! compiled query as a progress subscriber, so it records exactly what the
//! query publishes — in-thread, at operator batch boundaries, rate-limited
//! by work — with no thread of its own. Each publication becomes a
//! [`TimelinePoint`]: the whole-query gnm fraction with its confidence
//! bounds plus every operator's `(K_i, N_i, lo_i, hi_i)` trajectory. The
//! [`ProgressLog`] handed back after the run exports as CSV or JSON for
//! plotting (the paper's Figs. 2–7 are exactly such trajectories).
//!
//! When a trace bus is attached, the recorder also publishes
//! `PipelineStarted` / `PipelineFinished` events as it observes pipeline
//! state changes (accurate to the publication granularity, as documented
//! on the event). The `ProgressSampled` events themselves come from the
//! query's publisher, not from the recorder.

use std::sync::Arc;
use std::time::Instant;

use qprog_core::gnm::{PipelineState, ProgressSnapshot};
use qprog_exec::sync::Mutex;
use qprog_exec::trace::{EventBus, TraceEventKind};
use qprog_plan::{CompiledQuery, ProgressTracker};
use qprog_types::json::{escape, num};

/// One operator's state at a publication.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpPoint {
    /// `K_i`: `getnext()` calls answered so far.
    pub emitted: u64,
    /// Driver (input) tuples consumed so far.
    pub driver_consumed: u64,
    /// Current `N_i` estimate.
    pub estimate: f64,
    /// Confidence bounds on `N_i`, when the estimator publishes them.
    pub bounds: Option<(f64, f64)>,
    /// Whether the operator has finished (`N_i` exact).
    pub finished: bool,
}

/// One whole-query publication.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelinePoint {
    /// Microseconds since recording started (or since the trace bus epoch,
    /// when one is attached).
    pub at_us: u64,
    /// gnm progress fraction `K/N`.
    pub fraction: f64,
    /// Lower confidence bound on the fraction.
    pub lo: f64,
    /// Upper confidence bound on the fraction.
    pub hi: f64,
    /// Total `getnext()` calls so far (`K`).
    pub current: u64,
    /// Total estimated lifetime `getnext()` calls (`N`).
    pub total: f64,
    /// Per-operator state, in registry order.
    pub ops: Vec<OpPoint>,
}

/// A recorded progress timeline.
#[derive(Debug, Clone, Default)]
pub struct ProgressLog {
    op_names: Vec<String>,
    points: Vec<TimelinePoint>,
}

impl ProgressLog {
    /// Operator names, in registry order (column identity for
    /// [`to_csv`](Self::to_csv)).
    pub fn op_names(&self) -> &[String] {
        &self.op_names
    }

    /// The points, in publication order.
    pub fn points(&self) -> &[TimelinePoint] {
        &self.points
    }

    /// Number of points recorded.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no points were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Count of adjacent points where the progress fraction *decreased*
    /// by more than `tolerance` — the timeline half of the progress-sanity
    /// validation (estimate refinements may wobble the fraction slightly;
    /// sustained regressions indicate an estimator bug).
    pub fn monotonicity_violations(&self, tolerance: f64) -> usize {
        self.points
            .windows(2)
            .filter(|w| w[1].fraction < w[0].fraction - tolerance)
            .count()
    }

    /// CSV export: one row per point with whole-query columns followed by
    /// `emitted`/`estimate` pairs per operator.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("at_us,fraction,lo,hi,current,total");
        for name in &self.op_names {
            let clean = name.replace(',', ";");
            out.push_str(&format!(",{clean}.k,{clean}.n"));
        }
        out.push('\n');
        for p in &self.points {
            out.push_str(&format!(
                "{},{:.6},{:.6},{:.6},{},{:.1}",
                p.at_us, p.fraction, p.lo, p.hi, p.current, p.total
            ));
            for op in &p.ops {
                out.push_str(&format!(",{},{:.1}", op.emitted, op.estimate));
            }
            out.push('\n');
        }
        out
    }

    /// JSON export: `{"ops": [names], "points": [{...}]}`.
    pub fn to_json(&self) -> String {
        let names: Vec<String> = self
            .op_names
            .iter()
            .map(|n| format!("\"{}\"", escape(n)))
            .collect();
        let points: Vec<String> = self
            .points
            .iter()
            .map(|p| {
                let ops: Vec<String> = p
                    .ops
                    .iter()
                    .map(|o| {
                        let bounds = match o.bounds {
                            Some((lo, hi)) => format!("[{},{}]", num(lo), num(hi)),
                            None => "null".to_string(),
                        };
                        format!(
                            "{{\"k\":{},\"driver\":{},\"n\":{},\"bounds\":{},\"finished\":{}}}",
                            o.emitted,
                            o.driver_consumed,
                            num(o.estimate),
                            bounds,
                            o.finished
                        )
                    })
                    .collect();
                format!(
                    "{{\"at_us\":{},\"fraction\":{},\"lo\":{},\"hi\":{},\"current\":{},\"total\":{},\"ops\":[{}]}}",
                    p.at_us,
                    num(p.fraction),
                    num(p.lo),
                    num(p.hi),
                    p.current,
                    num(p.total),
                    ops.join(",")
                )
            })
            .collect();
        format!(
            "{{\"ops\":[{}],\"points\":[{}]}}",
            names.join(","),
            points.join(",")
        )
    }
}

/// Records a query's progress publications into a [`ProgressLog`].
pub struct TimelineRecorder {
    tracker: ProgressTracker,
    bus: Option<Arc<EventBus>>,
    epoch: Instant,
    log: ProgressLog,
    /// Last observed per-pipeline state, for start/finish event edges.
    pipeline_states: Vec<PipelineState>,
}

impl TimelineRecorder {
    /// A recorder over `tracker` (the per-operator state each point
    /// records is read from it).
    pub fn new(tracker: ProgressTracker) -> Self {
        let op_names: Vec<String> = tracker
            .registry()
            .iter()
            .map(|(n, _)| n.to_string())
            .collect();
        TimelineRecorder {
            tracker,
            bus: None,
            epoch: Instant::now(),
            log: ProgressLog {
                op_names,
                points: Vec::new(),
            },
            pipeline_states: Vec::new(),
        }
    }

    /// Publish `PipelineStarted`/`PipelineFinished` edges to `bus` as the
    /// recorder observes pipeline state changes, and timestamp points
    /// against the bus epoch.
    pub fn with_bus(mut self, bus: Arc<EventBus>) -> Self {
        self.epoch = bus.epoch();
        self.bus = Some(bus);
        self
    }

    /// Subscribe to `query`'s progress publications (see
    /// [`CompiledQuery::on_progress`]); the returned handle yields the log.
    pub fn attach(self, query: &CompiledQuery) -> RecordedTimeline {
        let recorder = Arc::new(Mutex::new(self));
        let subscriber = Arc::clone(&recorder);
        query.on_progress(move |snapshot| subscriber.lock().record(snapshot));
        RecordedTimeline(recorder)
    }

    /// Record one published snapshot, with every operator's state now.
    fn record(&mut self, snapshot: &ProgressSnapshot) {
        let at_us = self.epoch.elapsed().as_micros() as u64;
        let ops: Vec<OpPoint> = self
            .tracker
            .registry()
            .iter()
            .map(|(_, m)| OpPoint {
                emitted: m.emitted(),
                driver_consumed: m.driver_consumed(),
                estimate: m.estimated_total(),
                bounds: m.estimated_bounds(),
                finished: m.is_finished(),
            })
            .collect();

        // Pipeline lifecycle edges (observer-derived).
        for p in snapshot.pipelines() {
            if self.pipeline_states.len() <= p.id {
                self.pipeline_states
                    .resize(p.id + 1, PipelineState::Pending);
            }
            let prev = self.pipeline_states[p.id];
            if prev != p.state {
                self.pipeline_states[p.id] = p.state;
                if let Some(bus) = &self.bus {
                    let id = p.id as u32;
                    match (prev, p.state) {
                        (PipelineState::Pending, PipelineState::Running) => {
                            bus.publish(TraceEventKind::PipelineStarted { pipeline: id });
                        }
                        (PipelineState::Pending, PipelineState::Finished) => {
                            // ran to completion between two publications
                            bus.publish(TraceEventKind::PipelineStarted { pipeline: id });
                            bus.publish(TraceEventKind::PipelineFinished { pipeline: id });
                        }
                        (PipelineState::Running, PipelineState::Finished) => {
                            bus.publish(TraceEventKind::PipelineFinished { pipeline: id });
                        }
                        _ => {}
                    }
                }
            }
        }

        // Already monotone, and the bracket already holds it:
        // `ProgressTracker::snapshot` floors the fraction with the
        // high-water mark its clones share.
        let (lo, hi) = snapshot.bounds();
        self.log.points.push(TimelinePoint {
            at_us,
            fraction: snapshot.fraction(),
            lo,
            hi,
            current: snapshot.current(),
            total: snapshot.total(),
            ops,
        });
    }
}

/// An [attached](TimelineRecorder::attach) recorder's log.
pub struct RecordedTimeline(Arc<Mutex<TimelineRecorder>>);

impl RecordedTimeline {
    /// The points recorded so far (after the run: the whole timeline).
    pub fn log(&self) -> ProgressLog {
        self.0.lock().log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::metrics::MetricsRegistry;
    use qprog_exec::trace::{TraceEvent, TraceSink};
    use qprog_plan::pipeline::PipelineSet;

    fn two_op_tracker() -> (ProgressTracker, MetricsRegistry) {
        let mut reg = MetricsRegistry::new();
        reg.register("scan", 100.0);
        reg.register("join", 300.0);
        let mut pipes = PipelineSet::new();
        let p0 = pipes.new_pipeline();
        let p1 = pipes.new_pipeline();
        pipes.assign(p0, 0);
        pipes.assign(p1, 1);
        let tracker = ProgressTracker::new(reg.clone(), pipes, vec![100.0, 300.0], vec![vec![]; 2]);
        (tracker, reg)
    }

    /// Record a snapshot taken now, as a publication would hand it over.
    fn sample(rec: &mut TimelineRecorder) {
        let snapshot = rec.tracker.snapshot();
        rec.record(&snapshot);
    }

    #[test]
    fn samples_capture_per_op_trajectories() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        sample(&mut rec);
        let scan = reg.get(0).unwrap();
        for _ in 0..60 {
            scan.record_emitted();
        }
        scan.set_estimated_total(120.0, None);
        sample(&mut rec);
        let log = rec.log;
        assert_eq!(log.len(), 2);
        assert_eq!(log.op_names(), &["scan".to_string(), "join".to_string()]);
        assert_eq!(log.points()[0].ops[0].emitted, 0);
        assert_eq!(log.points()[1].ops[0].emitted, 60);
        assert_eq!(log.points()[1].ops[0].estimate, 120.0);
        assert!(log.points()[1].fraction > log.points()[0].fraction);
        assert!(log.points().windows(2).all(|w| w[0].at_us <= w[1].at_us));
    }

    #[test]
    fn csv_and_json_exports_are_well_formed() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        reg.get(0).unwrap().record_emitted();
        sample(&mut rec);
        let log = rec.log;
        let csv = log.to_csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "at_us,fraction,lo,hi,current,total,scan.k,scan.n,join.k,join.n"
        );
        let row = lines.next().unwrap();
        assert_eq!(row.split(',').count(), header.split(',').count());
        let json = log.to_json();
        assert!(json.starts_with("{\"ops\":[\"scan\",\"join\"]"));
        assert!(json.contains("\"points\":[{"));
    }

    #[test]
    fn monotonicity_check_counts_regressions() {
        let mut log = ProgressLog::default();
        for f in [0.1, 0.3, 0.2, 0.4, 0.39999] {
            log.points.push(TimelinePoint {
                at_us: 0,
                fraction: f,
                lo: f,
                hi: f,
                current: 0,
                total: 0.0,
                ops: Vec::new(),
            });
        }
        assert_eq!(log.monotonicity_violations(0.01), 1);
        assert_eq!(log.monotonicity_violations(0.0), 2);
    }

    #[test]
    fn published_fraction_is_clamped_monotone() {
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker);
        let scan = reg.get(0).unwrap();
        for _ in 0..60 {
            scan.record_emitted();
        }
        sample(&mut rec);
        let before = rec.log.points().last().unwrap().fraction;
        assert!(before > 0.0);
        // An upward estimate revision shrinks the raw fraction...
        scan.set_estimated_total(10_000.0, None);
        sample(&mut rec);
        let log = rec.log;
        let after = log.points().last().unwrap();
        // ...but the published fraction holds its running max, with the
        // interval kept consistent.
        assert_eq!(after.fraction, before);
        assert!(!after.hi.is_finite() || after.hi >= after.fraction);
        assert_eq!(log.monotonicity_violations(0.0), 0);
    }

    #[test]
    fn pipeline_edges_are_published_once() {
        struct Collect(Mutex<Vec<TraceEvent>>);
        impl TraceSink for Collect {
            fn publish(&self, e: &TraceEvent) {
                self.0.lock().push(*e);
            }
        }
        let sink = Arc::new(Collect(Mutex::new(Vec::new())));
        let bus = EventBus::with_sink(Arc::clone(&sink) as _);
        let (tracker, reg) = two_op_tracker();
        let mut rec = TimelineRecorder::new(tracker).with_bus(bus);
        sample(&mut rec); // both pending: no events
        let scan = reg.get(0).unwrap();
        scan.record_emitted();
        sample(&mut rec); // pipeline 0 running
        sample(&mut rec); // still running: no duplicate
        scan.mark_finished();
        sample(&mut rec); // pipeline 0 finished
                          // Edges only: `ProgressSampled` is the query publisher's to emit.
        let edges: Vec<_> = sink.0.lock().iter().map(|e| e.kind).collect();
        assert_eq!(
            edges,
            vec![
                TraceEventKind::PipelineStarted { pipeline: 0 },
                TraceEventKind::PipelineFinished { pipeline: 0 },
            ]
        );
    }
}
