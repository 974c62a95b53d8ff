//! Persistent trace corpus: an append-only on-disk store of completed
//! query runs, plus the regression engine that watches it.
//!
//! Every archived run contributes two artifacts under the corpus
//! directory:
//!
//! - `run-NNNNNN.jsonl` — the run's full trace, one
//!   [`event_to_json`](crate::json::event_to_json) object per line, so it
//!   round-trips through [`ReplayedTrace`](crate::replay::ReplayedTrace)
//!   byte-identically;
//! - one line appended to `index.jsonl` — a compact record carrying the
//!   run's identity (label, workload, estimator, threads, seed), terminal
//!   state, wall time, and the full [`ProgressScore`] scorecard computed at
//!   terminal time.
//!
//! The store is size-capped: when the retained segments exceed
//! [`CorpusConfig::max_runs`] or [`CorpusConfig::max_trace_bytes`], the
//! oldest runs are evicted (segment deleted, index compacted). Reopen is
//! crash-tolerant in the same spirit as `ReplayedTrace::parse`: torn index
//! lines, missing or corrupt segments, and orphan segments (a crash between
//! segment write and index append) are skipped, garbage-collected, and
//! reported as [`diagnostics`](Corpus::diagnostics) — never errors.
//!
//! On top of the store sits a rolling-baseline regression engine: each new
//! finished run's `mean_abs_err`, convergence point, monotonicity
//! violations, and wall time are compared against the median/MAD of prior
//! finished runs with the same `(workload, estimator, threads)` key. An
//! observation beyond `median + max(k·MAD, floor)` yields a [`Regression`],
//! which [`CorpusSink`] publishes back onto the query's bus as a typed
//! [`TraceEventKind::RegressionDetected`] event (metrics and monitors see
//! it like any other trace event). Archival is advisory throughout: IO
//! failure is counted, never propagated into the query.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

use qprog_exec::sync::Mutex;
use qprog_exec::trace::{EventBus, RegressionKind, TraceEvent, TraceEventKind, TraceSink};
use qprog_types::json;

use crate::replay::ReplayedTrace;
use crate::scoring::{score_events, ProgressScore};

/// Retention and regression-detection settings for a [`Corpus`].
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Maximum archived runs retained; the oldest are evicted beyond this.
    pub max_runs: usize,
    /// Maximum total bytes of trace segments retained.
    pub max_trace_bytes: u64,
    /// Regression-detection thresholds.
    pub regression: RegressionConfig,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            max_runs: 1024,
            max_trace_bytes: 64 * 1024 * 1024,
            regression: RegressionConfig::default(),
        }
    }
}

/// Baseline math for the regression engine. A new run's observation `x`
/// regresses when `x > median + max(mad_k · MAD, floor)` over the prior
/// finished runs with the same `(workload, estimator, threads)` key. The
/// per-metric floors keep deterministic baselines (MAD = 0) from flagging
/// measurement noise; detection stays disarmed until the key has
/// [`min_baseline`](RegressionConfig::min_baseline) runs.
#[derive(Debug, Clone)]
pub struct RegressionConfig {
    /// Baseline runs required before detection arms for a key.
    pub min_baseline: usize,
    /// MAD multiplier on the detection margin.
    pub mad_k: f64,
    /// Absolute floor on the `mean_abs_err` margin (progress-fraction
    /// points).
    pub mean_abs_err_floor: f64,
    /// Absolute floor on the convergence-point margin (oracle-fraction
    /// points; a never-converging run scores 1.0).
    pub convergence_floor: f64,
    /// Absolute floor on the monotonicity-violation margin (0.5 means a
    /// single extra violation over an all-clean baseline flags).
    pub monotonicity_floor: f64,
    /// Relative floor on the wall-time margin, as a fraction of the
    /// baseline median (1.0 = a run must take over 2× the median).
    pub wall_time_floor_frac: f64,
}

impl Default for RegressionConfig {
    fn default() -> Self {
        RegressionConfig {
            min_baseline: 5,
            mad_k: 5.0,
            mean_abs_err_floor: 0.02,
            convergence_floor: 0.2,
            monotonicity_floor: 0.5,
            wall_time_floor_frac: 1.0,
        }
    }
}

impl RegressionConfig {
    /// Compare one observation against its baseline values.
    fn check(
        &self,
        kind: RegressionKind,
        observed: f64,
        values: &[f64],
        floor: f64,
    ) -> Option<Regression> {
        if values.len() < self.min_baseline || !observed.is_finite() {
            return None;
        }
        let baseline = median(values.to_vec());
        if !baseline.is_finite() {
            return None;
        }
        let mad = median(values.iter().map(|v| (v - baseline).abs()).collect());
        let threshold = baseline + (self.mad_k * mad).max(floor);
        (observed > threshold).then_some(Regression {
            kind,
            observed,
            baseline,
            threshold,
        })
    }

    /// All regressions of `score`/`wall_us` against the given baseline
    /// records (callers pre-filter to the run's key and finished state).
    pub fn detect(
        &self,
        score: &ProgressScore,
        wall_us: u64,
        baselines: &[&RunRecord],
    ) -> Vec<Regression> {
        let mut out = Vec::new();
        let pick = |f: fn(&RunRecord) -> f64| baselines.iter().map(|r| f(r)).collect::<Vec<_>>();
        // A run that never entered the convergence band scores worst (1.0).
        fn conv(s: &ProgressScore) -> f64 {
            s.convergence.unwrap_or(1.0)
        }
        if let Some(r) = self.check(
            RegressionKind::MeanAbsErr,
            score.mean_abs_err,
            &pick(|r| r.score.mean_abs_err),
            self.mean_abs_err_floor,
        ) {
            out.push(r);
        }
        if let Some(r) = self.check(
            RegressionKind::Convergence,
            conv(score),
            &pick(|r| conv(&r.score)),
            self.convergence_floor,
        ) {
            out.push(r);
        }
        if let Some(r) = self.check(
            RegressionKind::Monotonicity,
            score.monotonicity_violations as f64,
            &pick(|r| r.score.monotonicity_violations as f64),
            self.monotonicity_floor,
        ) {
            out.push(r);
        }
        let walls = pick(|r| r.wall_us as f64);
        let wall_floor = self.wall_time_floor_frac * median(walls.clone()).max(0.0);
        if let Some(r) = self.check(RegressionKind::WallTime, wall_us as f64, &walls, wall_floor) {
            out.push(r);
        }
        out
    }
}

/// Median of `xs` (NaN for an empty slice). Consumes its input to sort.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.retain(|x| x.is_finite());
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// One detected regression: the observation, the rolling-median baseline
/// it was judged against, and the threshold it crossed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Regression {
    /// Which scorecard metric regressed.
    pub kind: RegressionKind,
    /// The new run's value.
    pub observed: f64,
    /// The baseline median.
    pub baseline: f64,
    /// `baseline + max(k·MAD, floor)`.
    pub threshold: f64,
}

impl Regression {
    /// The typed trace event announcing this regression.
    pub fn to_event_kind(&self) -> TraceEventKind {
        TraceEventKind::RegressionDetected {
            kind: self.kind,
            observed: self.observed,
            baseline: self.baseline,
            threshold: self.threshold,
        }
    }
}

/// Identity of a run being archived; the `(workload, estimator, threads)`
/// triple keys the regression baselines.
#[derive(Debug, Clone)]
pub struct RunMeta {
    /// Human-readable query name (SQL text, plan label, bench id, ...).
    pub label: String,
    /// Baseline key: which recurring workload this run is an instance of.
    pub workload: String,
    /// Estimator label (`off`/`once`/`dne`/`byte`).
    pub estimator: String,
    /// Worker threads the run executed with.
    pub threads: usize,
    /// Data/permutation seed.
    pub seed: u64,
}

impl RunMeta {
    /// A meta whose workload key equals its label.
    pub fn new(label: impl Into<String>, estimator: impl Into<String>) -> RunMeta {
        let label = label.into();
        RunMeta {
            workload: label.clone(),
            label,
            estimator: estimator.into(),
            threads: 1,
            seed: 0,
        }
    }

    /// Set the thread count (part of the baseline key).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the seed (recorded, not part of the baseline key).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One index record: a completed run's identity, terminal state, wall
/// time, and scorecard.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Corpus-assigned run id (monotonic, never reused).
    pub run: u64,
    /// Query name.
    pub label: String,
    /// Baseline workload key.
    pub workload: String,
    /// Estimator label.
    pub estimator: String,
    /// Worker threads.
    pub threads: usize,
    /// Data seed.
    pub seed: u64,
    /// `finished` or an [`AbortKind`](qprog_exec::trace::AbortKind) name
    /// (`unknown` when the trace carried no terminal event).
    pub state: String,
    /// Wall time in µs (largest event timestamp relative to the bus epoch).
    pub wall_us: u64,
    /// Events in the trace segment.
    pub events: u64,
    /// Segment size in bytes (drives retention accounting).
    pub trace_bytes: u64,
    /// Regressions flagged when this run was archived.
    pub regressions: usize,
    /// The scorecard computed at terminal time.
    pub score: ProgressScore,
}

impl RunRecord {
    /// Encode as one flat JSON line (the index format).
    pub fn to_json(&self) -> String {
        let score = self.score.to_json();
        format!(
            "{{\"run\":{},\"label\":\"{}\",\"workload\":\"{}\",\"estimator\":\"{}\",\
             \"threads\":{},\"seed\":{},\"state\":\"{}\",\"wall_us\":{},\"events\":{},\
             \"trace_bytes\":{},\"regressions\":{},{}",
            self.run,
            json::escape(&self.label),
            json::escape(&self.workload),
            json::escape(&self.estimator),
            self.threads,
            self.seed,
            json::escape(&self.state),
            self.wall_us,
            self.events,
            self.trace_bytes,
            self.regressions,
            &score[1..],
        )
    }

    /// Parse one index line back (inverse of [`Self::to_json`]).
    pub fn parse(line: &str) -> Result<RunRecord, String> {
        let parsed = || {
            Some(RunRecord {
                run: json::u64(line, "run")?,
                label: json::str(line, "label")?,
                workload: json::str(line, "workload")?,
                estimator: json::str(line, "estimator")?,
                threads: json::u64(line, "threads")? as usize,
                seed: json::u64(line, "seed")?,
                state: json::str(line, "state")?,
                wall_us: json::u64(line, "wall_us")?,
                events: json::u64(line, "events")?,
                trace_bytes: json::u64(line, "trace_bytes")?,
                regressions: json::u64(line, "regressions")? as usize,
                score: ProgressScore::from_json(line).ok()?,
            })
        };
        parsed().ok_or_else(|| "truncated or malformed index record".to_string())
    }
}

/// The result of archiving one run.
#[derive(Debug, Clone)]
pub struct ArchivedRun {
    /// The index record that was appended.
    pub record: RunRecord,
    /// Regressions detected against the rolling baselines (empty for
    /// aborted runs and under-seeded keys).
    pub regressions: Vec<Regression>,
}

struct CorpusInner {
    /// Surviving index records, oldest first.
    runs: Vec<RunRecord>,
    /// Next run id (monotonic across evictions and reopens).
    next_run: u64,
    /// Total bytes of retained trace segments.
    trace_bytes: u64,
    /// Append handle for `index.jsonl` (recreated after compaction).
    index: Option<fs::File>,
    /// Reopen/GC findings, `ReplayedTrace::parse`-style: advisory, never
    /// fatal.
    diagnostics: Vec<String>,
}

/// The on-disk run store. Cheap to share (`Arc<Corpus>`); all mutation is
/// behind one poison-recovering mutex, and nothing here is on a query's
/// per-tuple path — archival happens once, at terminal time.
pub struct Corpus {
    dir: PathBuf,
    config: CorpusConfig,
    inner: Mutex<CorpusInner>,
}

impl std::fmt::Debug for Corpus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Corpus")
            .field("dir", &self.dir)
            .field("runs", &inner.runs.len())
            .field("trace_bytes", &inner.trace_bytes)
            .field("diagnostics", &inner.diagnostics.len())
            .finish()
    }
}

const INDEX_FILE: &str = "index.jsonl";

fn segment_name(run: u64) -> String {
    format!("run-{run:06}.jsonl")
}

impl Corpus {
    /// Open (or create) a corpus at `dir` with default settings.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Corpus> {
        Corpus::open_with(dir, CorpusConfig::default())
    }

    /// Open (or create) a corpus at `dir`.
    ///
    /// Reopen is crash-tolerant: torn index lines, records whose segment is
    /// missing or fails [`ReplayedTrace::parse`] cleanly, and orphan
    /// segments are skipped/garbage-collected and surfaced through
    /// [`diagnostics`](Self::diagnostics). Only the directory/index IO
    /// itself can fail.
    pub fn open_with(dir: impl Into<PathBuf>, config: CorpusConfig) -> std::io::Result<Corpus> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut runs = Vec::new();
        let mut diagnostics = Vec::new();
        let mut next_run = 0u64;
        let mut skipped_any = false;

        let index_path = dir.join(INDEX_FILE);
        if index_path.exists() {
            let text = fs::read_to_string(&index_path)?;
            for (i, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match RunRecord::parse(line) {
                    Ok(rec) => {
                        next_run = next_run.max(rec.run + 1);
                        // A record is only live if its segment survived
                        // intact; verify with the same tolerant parser
                        // consumers will use.
                        let seg = dir.join(segment_name(rec.run));
                        match fs::read_to_string(&seg) {
                            Ok(jsonl) => {
                                let trace = ReplayedTrace::parse(&jsonl);
                                if trace.errors.is_empty() && !trace.events.is_empty() {
                                    runs.push(rec);
                                } else {
                                    let what = trace
                                        .errors
                                        .first()
                                        .map(|(n, e)| format!("line {n}: {e}"))
                                        .unwrap_or_else(|| "empty segment".to_string());
                                    diagnostics.push(format!(
                                        "run {}: torn trace segment ({what}); run skipped, \
                                         segment removed",
                                        rec.run
                                    ));
                                    let _ = fs::remove_file(&seg);
                                    skipped_any = true;
                                }
                            }
                            Err(e) => {
                                diagnostics.push(format!(
                                    "run {}: trace segment unreadable ({e}); run skipped",
                                    rec.run
                                ));
                                skipped_any = true;
                            }
                        }
                    }
                    Err(e) => {
                        diagnostics.push(format!("index line {}: {e}; line skipped", i + 1));
                        skipped_any = true;
                    }
                }
            }
        }

        // GC segments the surviving index does not own (crash between
        // segment write and index append, or debris from a skipped line).
        let live: std::collections::HashSet<u64> = runs.iter().map(|r| r.run).collect();
        if let Ok(entries) = fs::read_dir(&dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(id) = name
                    .strip_prefix("run-")
                    .and_then(|s| s.strip_suffix(".jsonl"))
                    .and_then(|s| s.parse::<u64>().ok())
                else {
                    continue;
                };
                next_run = next_run.max(id + 1);
                if !live.contains(&id) {
                    diagnostics.push(format!(
                        "orphan trace segment {name} (no index record); removed"
                    ));
                    let _ = fs::remove_file(entry.path());
                }
            }
        }

        let trace_bytes = runs.iter().map(|r| r.trace_bytes).sum();
        let corpus = Corpus {
            dir,
            config,
            inner: Mutex::new(CorpusInner {
                runs,
                next_run,
                trace_bytes,
                index: None,
                diagnostics,
            }),
        };
        if skipped_any {
            // Compact away the skipped lines so the diagnostics do not
            // recur on every reopen.
            let mut inner = corpus.inner.lock();
            corpus.rewrite_index(&mut inner)?;
        }
        Ok(corpus)
    }

    /// The corpus directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Retention and regression settings.
    pub fn config(&self) -> &CorpusConfig {
        &self.config
    }

    /// Retained runs, oldest first.
    pub fn runs(&self) -> Vec<RunRecord> {
        self.inner.lock().runs.clone()
    }

    /// Number of retained runs.
    pub fn len(&self) -> usize {
        self.inner.lock().runs.len()
    }

    /// `true` when no runs are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total bytes of retained trace segments.
    pub fn trace_bytes(&self) -> u64 {
        self.inner.lock().trace_bytes
    }

    /// One run's index record.
    pub fn run(&self, id: u64) -> Option<RunRecord> {
        self.inner.lock().runs.iter().find(|r| r.run == id).cloned()
    }

    /// One run's raw trace JSONL (exactly the bytes archived).
    pub fn trace_jsonl(&self, id: u64) -> std::io::Result<String> {
        if self.run(id).is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("run {id} is not in the corpus"),
            ));
        }
        fs::read_to_string(self.dir.join(segment_name(id)))
    }

    /// Reopen/GC findings (torn segments, truncated index lines, orphans).
    pub fn diagnostics(&self) -> Vec<String> {
        self.inner.lock().diagnostics.clone()
    }

    /// Archive one completed run: score its trace, write the segment,
    /// append the index record, detect regressions against the rolling
    /// baselines, and apply retention. Returns the record plus any
    /// regressions; the caller decides how to announce them (the
    /// [`CorpusSink`] publishes [`RegressionDetected`] trace events).
    ///
    /// [`RegressionDetected`]: TraceEventKind::RegressionDetected
    pub fn archive(
        &self,
        meta: &RunMeta,
        events: &[TraceEvent],
        op_names: &[String],
    ) -> std::io::Result<ArchivedRun> {
        let score = score_events(events);
        let wall_us = events.iter().map(|e| e.at_us).max().unwrap_or(0);
        let state = terminal_state(events);

        // Encode the segment exactly as the JSONL sink would, so replays
        // are byte-identical to a live-written trace.
        let mut jsonl = String::with_capacity(events.len() * 96);
        for event in events {
            crate::json::write_event_json(&mut jsonl, event, op_names);
            jsonl.push('\n');
        }

        let mut inner = self.inner.lock();
        let run = inner.next_run;
        inner.next_run += 1;

        // Baselines come from *prior* finished runs with the same key.
        let regressions = if state == "finished" {
            let baselines: Vec<&RunRecord> = inner
                .runs
                .iter()
                .filter(|r| {
                    r.state == "finished"
                        && r.workload == meta.workload
                        && r.estimator == meta.estimator
                        && r.threads == meta.threads
                })
                .collect();
            self.config.regression.detect(&score, wall_us, &baselines)
        } else {
            Vec::new()
        };

        let record = RunRecord {
            run,
            label: meta.label.clone(),
            workload: meta.workload.clone(),
            estimator: meta.estimator.clone(),
            threads: meta.threads,
            seed: meta.seed,
            state,
            wall_us,
            events: events.len() as u64,
            trace_bytes: jsonl.len() as u64,
            regressions: regressions.len(),
            score,
        };

        // Segment first, index second: a crash in between leaves an orphan
        // segment the next open garbage-collects, never a dangling record.
        fs::write(self.dir.join(segment_name(run)), jsonl.as_bytes())?;
        self.append_index(&mut inner, &record)?;
        inner.trace_bytes += record.trace_bytes;
        inner.runs.push(record.clone());
        self.apply_retention(&mut inner)?;

        Ok(ArchivedRun {
            record,
            regressions,
        })
    }

    fn append_index(&self, inner: &mut CorpusInner, record: &RunRecord) -> std::io::Result<()> {
        if inner.index.is_none() {
            inner.index = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(self.dir.join(INDEX_FILE))?,
            );
        }
        let file = inner.index.as_mut().expect("index handle just ensured");
        let mut line = record.to_json();
        line.push('\n');
        file.write_all(line.as_bytes())?;
        file.flush()
    }

    /// Evict oldest runs past the caps, compacting the index when any
    /// eviction happened.
    fn apply_retention(&self, inner: &mut CorpusInner) -> std::io::Result<()> {
        let mut evicted = false;
        while inner.runs.len() > self.config.max_runs
            || (inner.trace_bytes > self.config.max_trace_bytes && inner.runs.len() > 1)
        {
            let victim = inner.runs.remove(0);
            inner.trace_bytes = inner.trace_bytes.saturating_sub(victim.trace_bytes);
            let _ = fs::remove_file(self.dir.join(segment_name(victim.run)));
            evicted = true;
        }
        if evicted {
            self.rewrite_index(inner)?;
        }
        Ok(())
    }

    /// Atomically replace `index.jsonl` with the surviving records.
    fn rewrite_index(&self, inner: &mut CorpusInner) -> std::io::Result<()> {
        inner.index = None; // close the stale append handle first
        let tmp = self.dir.join("index.jsonl.tmp");
        let mut text = String::new();
        for r in &inner.runs {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        fs::write(&tmp, text.as_bytes())?;
        fs::rename(&tmp, self.dir.join(INDEX_FILE))
    }
}

/// The terminal state a trace records: `finished`, an abort reason name,
/// or `unknown` when no terminal event was captured.
fn terminal_state(events: &[TraceEvent]) -> String {
    for e in events.iter().rev() {
        match e.kind {
            TraceEventKind::QueryFinished { .. } => return "finished".to_string(),
            TraceEventKind::QueryAborted { reason, .. } => return reason.name().to_string(),
            _ => {}
        }
    }
    "unknown".to_string()
}

/// Cap on events buffered per run, so a pathological trace cannot grow the
/// sink without bound (events beyond it are dropped and counted).
const MAX_BUFFERED_EVENTS: usize = 1 << 20;

struct CorpusSinkState {
    events: Vec<TraceEvent>,
    op_names: Vec<String>,
    archived: bool,
    last: Option<ArchivedRun>,
    last_error: Option<String>,
}

/// A per-query [`TraceSink`] that buffers the run's events and archives
/// them into a shared [`Corpus`] on the terminal event
/// (`QueryFinished`/`QueryAborted`), publishing any detected regressions
/// back onto the bus as typed [`RegressionDetected`] events.
///
/// Archival is advisory like the
/// [`JsonlSink`](crate::sinks::JsonlSink): an unwritable corpus is counted
/// ([`dropped`](Self::dropped), [`last_error`](Self::last_error)) but never
/// fails — or poisons — anything on the query or monitor side.
///
/// [`RegressionDetected`]: TraceEventKind::RegressionDetected
pub struct CorpusSink {
    corpus: Arc<Corpus>,
    meta: RunMeta,
    state: Mutex<CorpusSinkState>,
    /// The bus regressions are announced on. Weak on purpose — the sink is
    /// owned by the bus it publishes to, and must not keep it alive.
    bus: Mutex<Option<Weak<EventBus>>>,
    dropped: AtomicU64,
}

impl CorpusSink {
    /// A sink archiving one run under `meta` into `corpus`.
    pub fn new(corpus: Arc<Corpus>, meta: RunMeta) -> CorpusSink {
        CorpusSink {
            corpus,
            meta,
            state: Mutex::new(CorpusSinkState {
                events: Vec::new(),
                op_names: Vec::new(),
                archived: false,
                last: None,
                last_error: None,
            }),
            bus: Mutex::new(None),
            dropped: AtomicU64::new(0),
        }
    }

    /// Attach the bus regressions should be announced on (typically the
    /// same bus this sink receives from).
    pub fn attach_bus(&self, bus: &Arc<EventBus>) {
        *self.bus.lock() = Some(Arc::downgrade(bus));
    }

    /// Annotate operator indices with registry names (post-compile), like
    /// [`MetricsSink::set_op_names`](crate::metrics_sink::MetricsSink::set_op_names).
    pub fn set_op_names(&self, names: Vec<String>) {
        self.state.lock().op_names = names;
    }

    /// The shared corpus this sink archives into.
    pub fn corpus(&self) -> &Arc<Corpus> {
        &self.corpus
    }

    /// The archival result, once the terminal event has been seen.
    pub fn archived_run(&self) -> Option<ArchivedRun> {
        self.state.lock().last.clone()
    }

    /// Events or archives lost (buffer cap overflow, archival IO error).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The most recent archival failure, if any.
    pub fn last_error(&self) -> Option<String> {
        self.state.lock().last_error.clone()
    }
}

impl std::fmt::Debug for CorpusSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorpusSink")
            .field("workload", &self.meta.workload)
            .field("archived", &self.state.lock().archived)
            .finish()
    }
}

impl TraceSink for CorpusSink {
    fn publish(&self, event: &TraceEvent) {
        let (events, op_names) = {
            let mut s = self.state.lock();
            if s.archived {
                // Post-terminal traffic (including our own RegressionDetected
                // echoes fanning back) is not part of the archived run.
                return;
            }
            if s.events.len() >= MAX_BUFFERED_EVENTS {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return;
            }
            s.events.push(*event);
            if !matches!(
                event.kind,
                TraceEventKind::QueryFinished { .. } | TraceEventKind::QueryAborted { .. }
            ) {
                return;
            }
            s.archived = true;
            (std::mem::take(&mut s.events), s.op_names.clone())
        };
        // Terminal: archive outside the state lock (publishing regressions
        // fans back into this sink).
        match self.corpus.archive(&self.meta, &events, &op_names) {
            Ok(run) => {
                let regressions = run.regressions.clone();
                self.state.lock().last = Some(run);
                let bus = self.bus.lock().as_ref().and_then(Weak::upgrade);
                if let Some(bus) = bus {
                    for r in &regressions {
                        bus.publish(r.to_event_kind());
                    }
                }
            }
            Err(e) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.state.lock().last_error = Some(e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_exec::trace::AbortKind;

    fn tmpdir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qprog-corpus-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn ev(seq: u64, at_us: u64, kind: TraceEventKind) -> TraceEvent {
        TraceEvent { seq, at_us, kind }
    }

    /// A synthetic finished run: progress samples offset from the oracle by
    /// `err`, terminating at `wall_us`.
    fn run_events(err: f64, wall_us: u64) -> Vec<TraceEvent> {
        let mut events = Vec::new();
        let mut seq = 0;
        for (i, &(oracle, current)) in [(0.25, 25u64), (0.5, 50), (0.75, 75), (1.0, 100)]
            .iter()
            .enumerate()
        {
            events.push(ev(
                seq,
                wall_us * (i as u64 + 1) / 5,
                TraceEventKind::ProgressSampled {
                    current,
                    total: 100.0,
                    fraction: (oracle + err).min(1.0),
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
            ));
            seq += 1;
        }
        events.push(ev(
            seq,
            wall_us,
            TraceEventKind::QueryFinished { rows: 100 },
        ));
        events
    }

    #[test]
    fn archive_and_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let corpus = Corpus::open(&dir).unwrap();
        let meta = RunMeta::new("q1", "once").with_seed(7).with_threads(2);
        let archived = corpus
            .archive(&meta, &run_events(0.0, 1000), &["scan".to_string()])
            .unwrap();
        assert_eq!(archived.record.run, 0);
        assert_eq!(archived.record.state, "finished");
        assert_eq!(archived.record.wall_us, 1000);
        assert_eq!(archived.record.score.samples, 4);
        assert!(archived.regressions.is_empty());

        // The segment round-trips byte-identically through replay.
        let jsonl = corpus.trace_jsonl(0).unwrap();
        let trace = ReplayedTrace::parse(&jsonl);
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        let mut reencoded = String::new();
        for event in &trace.events {
            crate::json::write_event_json(&mut reencoded, event, &trace.op_names);
            reencoded.push('\n');
        }
        assert_eq!(jsonl, reencoded);
        assert_eq!(score_events(&trace.events), archived.record.score);

        // Reopen sees the same record, cleanly.
        drop(corpus);
        let corpus = Corpus::open(&dir).unwrap();
        assert!(
            corpus.diagnostics().is_empty(),
            "{:?}",
            corpus.diagnostics()
        );
        let runs = corpus.runs();
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0], archived.record);
        // Ids keep advancing after reopen.
        let again = corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        assert_eq!(again.record.run, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn segments_with_retired_bounds_lines_keep_their_runs() {
        // A segment archived before intervals rode on `estimate_refined`
        // carries `bounds_refined` lines; reopening must not tear it.
        let dir = tmpdir("retired");
        let corpus = Corpus::open(&dir).unwrap();
        let meta = RunMeta::new("q8", "once");
        let archived = corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        drop(corpus);
        let seg = dir.join(segment_name(archived.record.run));
        let mut old = String::new();
        for (i, line) in fs::read_to_string(&seg).unwrap().lines().enumerate() {
            old.push_str(&format!(
                "{{\"seq\":{},\"at_us\":{i},\"event\":\"bounds_refined\",\"op\":0,\"lo\":90,\"hi\":110}}\n{line}\n",
                100 + i
            ));
        }
        fs::write(&seg, old).unwrap();

        let corpus = Corpus::open(&dir).unwrap();
        assert!(
            corpus.diagnostics().is_empty(),
            "{:?}",
            corpus.diagnostics()
        );
        assert_eq!(corpus.runs(), vec![archived.record.clone()]);
        let trace = ReplayedTrace::parse(&corpus.trace_jsonl(archived.record.run).unwrap());
        assert!(trace.errors.is_empty(), "{:?}", trace.errors);
        assert_eq!(trace.events.len(), run_events(0.0, 1000).len());
        assert_eq!(score_events(&trace.events), archived.record.score);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn aborted_runs_record_their_reason_and_skip_detection() {
        let dir = tmpdir("abort");
        let corpus = Corpus::open(&dir).unwrap();
        let meta = RunMeta::new("q1", "once");
        let events = vec![ev(
            0,
            500,
            TraceEventKind::QueryAborted {
                reason: AbortKind::Cancelled,
                rows: 3,
            },
        )];
        let archived = corpus.archive(&meta, &events, &[]).unwrap();
        assert_eq!(archived.record.state, "cancelled");
        assert!(archived.regressions.is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn retention_evicts_oldest_and_compacts_index() {
        let dir = tmpdir("retention");
        let corpus = Corpus::open_with(
            &dir,
            CorpusConfig {
                max_runs: 3,
                ..CorpusConfig::default()
            },
        )
        .unwrap();
        let meta = RunMeta::new("q1", "once");
        for _ in 0..5 {
            corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        }
        let ids: Vec<u64> = corpus.runs().iter().map(|r| r.run).collect();
        assert_eq!(ids, vec![2, 3, 4]);
        assert!(!dir.join(segment_name(0)).exists());
        assert!(!dir.join(segment_name(1)).exists());
        assert!(dir.join(segment_name(4)).exists());

        // The compacted index agrees on reopen, and ids are never reused.
        drop(corpus);
        let corpus = Corpus::open(&dir).unwrap();
        assert!(
            corpus.diagnostics().is_empty(),
            "{:?}",
            corpus.diagnostics()
        );
        assert_eq!(
            corpus.runs().iter().map(|r| r.run).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        let next = corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        assert_eq!(next.record.run, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_also_evicts() {
        let dir = tmpdir("bytecap");
        let corpus = Corpus::open_with(
            &dir,
            CorpusConfig {
                max_trace_bytes: 600,
                ..CorpusConfig::default()
            },
        )
        .unwrap();
        let meta = RunMeta::new("q1", "once");
        for _ in 0..4 {
            corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        }
        assert!(corpus.trace_bytes() <= 600 || corpus.len() == 1);
        assert!(corpus.len() < 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn regression_engine_flags_degraded_error_only() {
        let cfg = RegressionConfig::default();
        let clean: Vec<RunRecord> = (0..8)
            .map(|i| RunRecord {
                run: i,
                label: "q".into(),
                workload: "q".into(),
                estimator: "once".into(),
                threads: 1,
                seed: 0,
                state: "finished".into(),
                wall_us: 1000,
                events: 5,
                trace_bytes: 100,
                regressions: 0,
                score: score_events(&run_events(0.0, 1000)),
            })
            .collect();
        let refs: Vec<&RunRecord> = clean.iter().collect();

        // Identical run: nothing flags.
        let same = score_events(&run_events(0.0, 1000));
        assert!(cfg.detect(&same, 1000, &refs).is_empty());

        // Constant +0.08 offset: mean_abs_err regresses, convergence stays
        // inside the ±0.10 band, monotonicity/wall unchanged.
        let degraded = score_events(&run_events(0.08, 1000));
        let found = cfg.detect(&degraded, 1000, &refs);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].kind, RegressionKind::MeanAbsErr);
        assert!(found[0].observed > found[0].threshold);

        // 3× wall time flags exactly the wall-time metric.
        let slow = cfg.detect(&same, 3000, &refs);
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert_eq!(slow[0].kind, RegressionKind::WallTime);

        // Under-seeded baselines stay disarmed.
        assert!(cfg.detect(&degraded, 3000, &refs[..3]).is_empty());
    }

    #[test]
    fn corpus_sink_archives_on_terminal_and_announces_regressions() {
        use crate::sinks::RingSink;
        let dir = tmpdir("sink");
        let corpus = Arc::new(Corpus::open(&dir).unwrap());
        let meta = RunMeta::new("q1", "once");

        // Seed enough clean baselines for detection to arm.
        for _ in 0..6 {
            corpus.archive(&meta, &run_events(0.0, 1000), &[]).unwrap();
        }

        // Degraded run through the sink: terminal archives + publishes.
        let sink = Arc::new(CorpusSink::new(Arc::clone(&corpus), meta));
        let ring = Arc::new(RingSink::with_capacity(64));
        let bus = EventBus::builder()
            .sink(Arc::clone(&sink) as _)
            .sink(Arc::clone(&ring) as _)
            .build();
        sink.attach_bus(&bus);
        for event in run_events(0.08, 1000) {
            bus.publish(event.kind);
        }
        let archived = sink.archived_run().expect("terminal event archives");
        assert_eq!(archived.regressions.len(), 1);
        assert_eq!(corpus.len(), 7);
        let regressions: Vec<TraceEvent> = ring
            .drain()
            .into_iter()
            .filter(|e| matches!(e.kind, TraceEventKind::RegressionDetected { .. }))
            .collect();
        assert_eq!(regressions.len(), 1);
        assert_eq!(sink.dropped(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn archival_failure_is_advisory() {
        let dir = tmpdir("advisory");
        let corpus = Arc::new(Corpus::open(&dir).unwrap());
        // Remove the directory out from under the corpus: segment writes
        // will fail, but publishing must not panic or poison anything.
        fs::remove_dir_all(&dir).unwrap();
        let sink = CorpusSink::new(Arc::clone(&corpus), RunMeta::new("q1", "once"));
        for event in run_events(0.0, 1000) {
            sink.publish(&event);
        }
        assert_eq!(sink.dropped(), 1);
        assert!(sink.last_error().is_some());
        assert!(sink.archived_run().is_none());
    }
}
