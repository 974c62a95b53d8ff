//! Push-down estimation for join pipelines (§4.1.4, Algorithm 1).
//!
//! In a pipeline of hash joins, every build input is fully consumed before
//! the lowest probe input streams, and the builds happen **top-down** (the
//! top join's build is read first, then probing it pulls from the next join
//! down, triggering its build, and so on). Algorithm 1 exploits this order:
//! every join's cardinality estimation is pushed down to the *lowest* probe
//! pass, so all joins in the pipeline converge to exact cardinalities by the
//! time that pass completes — long before upper joins have emitted anything.
//!
//! Three published cases, all handled here:
//!
//! - **Same attribute** (§4.1.4.1): every join probes with the same key the
//!   lowest probe tuple carries; per-join counts multiply
//!   (`N_i^A · N_i^B · …`).
//! - **Different attributes, Case 1** (§4.1.4.2): an upper join's probe key
//!   is a *different column of the lowest probe relation*; each join's
//!   histogram is probed with its own column of the probe tuple.
//! - **Different attributes, Case 2** (§4.1.4.2): an upper join's probe key
//!   originates in the *build relation of a lower join*. While that lower
//!   build streams, the upper histogram is **translated**: for each lower
//!   build tuple `b`, `derived[b.build_key] += upper[b.carried_key]`,
//!   folding the lower join's multiplicity into a histogram that the lowest
//!   probe can look up directly. The translation cascades: if the lower
//!   join's own probe key also comes from a deeper build relation, the
//!   derived histogram is re-translated at *that* build, until every
//!   histogram is keyed by a column of the lowest probe relation. This is
//!   exactly the `histList`/`joinList` bookkeeping of the paper's
//!   Algorithm 1.
//!
//! Join indices are **bottom-up**: join 0 is the lowest (its probe input is
//! the driving stream `C`), join `n−1` is the top. Builds must be fed in
//! execution order, i.e. top-down (`n−1`, `n−2`, …, `0`).

use std::ops::Range;
use std::sync::{Mutex, MutexGuard};

use qprog_types::{QError, QResult, Row, RowBatch};

use crate::confidence::{ConfidenceInterval, PowerSums};
use crate::freq_hist::FreqHist;
use crate::join_est::{JoinKind, ProbeFragment, ProbeTotals};

/// Where a join's probe-side key comes from, relative to the pipeline's
/// driving probe stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrSource {
    /// A column of the lowest probe relation `C` (same-attribute chains and
    /// Case 1).
    Probe {
        /// Column index within the probe tuple.
        col: usize,
    },
    /// A column of the build relation of a lower join (Case 2).
    Build {
        /// Index of the lower join whose build relation carries the key.
        join: usize,
        /// Column index within that build relation's tuples.
        col: usize,
    },
}

/// Static description of one join in the pipeline.
#[derive(Debug, Clone, Copy)]
pub struct JoinSpec {
    /// Column index of the join key within this join's *build* tuples.
    pub build_attr_col: usize,
    /// Where this join's probe-side key originates.
    pub probe_attr: AttrSource,
}

#[derive(Debug)]
struct JoinEstState {
    /// The join's (possibly derived) histogram.
    hist: FreqHist,
    /// Current key source for `hist`; estimation can start once every
    /// state's source is `Probe`.
    source: AttrSource,
    /// Whether no contribution can exceed 64 bits (the product of the
    /// factor histograms' largest counts fits), fixed at probe start.
    fits_u64: bool,
    /// Joins whose multiplicity is folded into `hist` (this join's
    /// derivation chain) — used to assemble multiplicative factor lists.
    chain: Vec<usize>,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Phase {
    /// Waiting for build `usize` to start (counts down from n−1).
    AwaitBuild(usize),
    /// Build `usize` streaming.
    Building(usize),
    /// All builds done; probe tuples streaming.
    Probing,
}

/// One worker's share of the build of join `join`: its rows counted into
/// the join's own histogram and into every pending Case-2 translation.
/// Fragments fold with [`FreqHist::merge`], so any cut builds the same
/// histograms.
#[derive(Debug)]
pub struct PipelineBuildFragment {
    join: usize,
    own: FreqHist,
    /// Translations in flight: `(upper join, its histogram re-keyed by this
    /// build relation's key)`.
    pending: Vec<(usize, FreqHist)>,
    /// Reused batch scratch: the upper counts of the carried keys.
    lanes: Vec<u64>,
}

impl PipelineBuildFragment {
    /// Heap bytes held by the fragment's histograms.
    pub fn memory_allocated(&self) -> usize {
        let pending = self.pending.iter().map(|(_, hist)| hist.memory_allocated());
        self.own.memory_allocated() + pending.sum::<usize>()
    }
}

/// One worker's share of the probe pass: every join's `(t, Σc, Σc²)` since
/// its last [`fold_probe`](PipelineEstimator::fold_probe), and scratch.
#[derive(Debug, Default)]
pub struct PipelineProbeFragment {
    delta: Vec<ProbeFragment>,
    /// Rows of the last batch observed.
    rows: usize,
    /// Reused batch scratch: lane `i` (`lanes[i·n..(i+1)·n]`) holds the
    /// histogram counts of `uniq_factors[i]` at the batch rows still live
    /// when its lowest join is reached.
    lanes: Vec<u64>,
    /// Reused batch scratch: the live rows, once some row has died.
    live: Vec<u32>,
    /// Reused batch scratch: each join's power sums over the batch.
    batch_sums: Vec<PowerSums>,
}

impl PipelineProbeFragment {
    /// Join 0's build-side multiplicities at the rows of the last batch
    /// observed, NULL keys 0 (its count lane, filled over the whole batch).
    pub fn driving_counts(&self) -> &[u64] {
        &self.lanes[..self.rows]
    }
}

/// Online estimator for every join in a hash- or sort-merge-join pipeline.
///
/// The histograms and factor tables change only at the end of a build, so
/// the workers of a drain share the estimator by reference: each observes
/// into its own fragment ([`build_into`](Self::build_into),
/// [`probe_into`](Self::probe_into)) and folds it in. The row and batch
/// methods are the one-worker case.
///
/// # Example
///
/// Two hash joins on the same attribute; builds are fed top-down, then the
/// probe stream converges both estimates:
///
/// ```
/// use qprog_core::pipeline_est::PipelineEstimator;
/// use qprog_types::row;
///
/// let mut est = PipelineEstimator::same_attribute(2, 0, 0, 2).unwrap();
/// est.feed_build(1, [row![1i64], row![1i64]].iter()).unwrap(); // upper build
/// est.feed_build(0, [row![1i64]].iter()).unwrap();             // lower build
/// est.observe_probe(&row![1i64]).unwrap();
/// est.observe_probe(&row![2i64]).unwrap();
/// assert_eq!(est.estimates(), vec![1.0, 2.0]); // lower, upper
/// ```
#[derive(Debug)]
pub struct PipelineEstimator {
    specs: Vec<JoinSpec>,
    states: Vec<JoinEstState>,
    /// Distinct `(join supplying the histogram, probe column)` factors of
    /// all joins, fixed at probe start, in order of the lowest join using
    /// each; each fills one count lane per probe batch (factor lists overlap
    /// heavily in deep pipelines).
    uniq_factors: Vec<(usize, usize)>,
    /// `factor_idx[u]`: positions in `uniq_factors` of join `u`'s factors.
    factor_idx: Vec<Vec<usize>>,
    phase: Phase,
    /// Join 0's semantics, the only join whose probe rows are the driving
    /// stream's; every join above is an inner join.
    kind: JoinKind,
    /// Each join's running totals, bottom-up; probe fragments fold in under
    /// this lock.
    totals: Mutex<Vec<ProbeTotals>>,
    /// The current build's fragment: the workers' fold into it (the first
    /// moved into place), or the row and batch methods feed it.
    building: Option<PipelineBuildFragment>,
    /// The row and batch methods' probe fragment.
    probing: PipelineProbeFragment,
}

impl PipelineEstimator {
    /// Create an estimator for a pipeline of `specs.len()` joins driven by a
    /// probe stream of (known or estimated) size `probe_size`.
    ///
    /// Validation: every `Build` source must point at a strictly lower join,
    /// and no two joins may draw their probe key from the same lower join's
    /// build relation (correlated folds are out of the paper's scope and
    /// would double-count).
    pub fn new(specs: Vec<JoinSpec>, probe_size: u64) -> QResult<Self> {
        if specs.is_empty() {
            return Err(QError::estimation(
                "pipeline must contain at least one join",
            ));
        }
        let mut used_sources = std::collections::HashSet::new();
        for (u, s) in specs.iter().enumerate() {
            if let AttrSource::Build { join, .. } = s.probe_attr {
                if join >= u {
                    return Err(QError::estimation(format!(
                        "join {u} draws its probe key from join {join}, which is not below it"
                    )));
                }
                if !used_sources.insert(join) {
                    return Err(QError::estimation(format!(
                        "two joins draw probe keys from the build relation of join {join}; \
                         correlated folds are unsupported"
                    )));
                }
            }
        }
        let states = specs
            .iter()
            .map(|s| JoinEstState {
                hist: FreqHist::new(),
                source: s.probe_attr,
                fits_u64: false,
                chain: Vec::new(),
            })
            .collect();
        let n = specs.len();
        Ok(PipelineEstimator {
            specs,
            states,
            uniq_factors: Vec::new(),
            factor_idx: Vec::new(),
            phase: Phase::AwaitBuild(n - 1),
            kind: JoinKind::Inner,
            totals: Mutex::new(vec![ProbeTotals::new(probe_size); n]),
            building: None,
            probing: PipelineProbeFragment::default(),
        })
    }

    /// Convenience constructor for a chain of hash joins **on the same
    /// attribute** (§4.1.4.1): `n_joins` joins all probing with probe
    /// column `probe_col`; build key at column `build_col` of each build
    /// relation.
    pub fn same_attribute(
        n_joins: usize,
        build_col: usize,
        probe_col: usize,
        probe_size: u64,
    ) -> QResult<Self> {
        PipelineEstimator::new(
            vec![
                JoinSpec {
                    build_attr_col: build_col,
                    probe_attr: AttrSource::Probe { col: probe_col },
                };
                n_joins
            ],
            probe_size,
        )
    }

    /// Number of joins in the pipeline.
    pub fn num_joins(&self) -> usize {
        self.specs.len()
    }

    /// Set join 0's [`JoinKind`] (default inner): its probe rows contribute
    /// through [`JoinKind::contribution`]. The joins above join 0 extend its
    /// output as inner joins, so any other kind needs a one-join pipeline.
    pub fn set_kind(&mut self, kind: JoinKind) -> QResult<()> {
        if kind != JoinKind::Inner && self.specs.len() > 1 {
            return Err(QError::estimation(format!(
                "a {kind:?} join cannot carry a pipeline of {} joins",
                self.specs.len()
            )));
        }
        self.kind = kind;
        Ok(())
    }

    /// Begin feeding the build relation of `join`. Builds must be fed
    /// top-down (`n−1` first, `0` last).
    pub fn begin_build(&mut self, join: usize) -> QResult<()> {
        match self.phase {
            Phase::AwaitBuild(expect) if expect == join => {}
            _ => {
                return Err(QError::estimation(format!(
                    "begin_build({join}) out of order (phase {:?}); builds are fed top-down",
                    self.phase
                )))
            }
        }
        self.phase = Phase::Building(join);
        Ok(())
    }

    /// A fresh fragment of build `join`, which must be streaming: an empty
    /// histogram of its own and one per upper histogram keyed by a column
    /// of this build relation.
    pub fn build_fragment(&self, join: usize) -> QResult<PipelineBuildFragment> {
        if self.phase != Phase::Building(join) {
            return Err(QError::estimation(format!(
                "build_tuple({join}) outside its build phase ({:?})",
                self.phase
            )));
        }
        let pending = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, st)| matches!(st.source, AttrSource::Build { join: j, .. } if j == join))
            .map(|(u, _)| (u, FreqHist::new()))
            .collect();
        Ok(PipelineBuildFragment {
            join,
            own: FreqHist::new(),
            pending,
            lanes: Vec::new(),
        })
    }

    /// Feed one build tuple of the current build relation (a one-row
    /// [`build_batch`](Self::build_batch)).
    pub fn build_tuple(&mut self, join: usize, row: &Row) -> QResult<()> {
        self.build_batch(join, &RowBatch::from(row))
    }

    /// Feed a batch of the current build relation, column at a time.
    pub fn build_batch(&mut self, join: usize, batch: &RowBatch) -> QResult<()> {
        let mut fragment = match self.building.take() {
            Some(fragment) if fragment.join == join => fragment,
            other => {
                self.building = other;
                self.build_fragment(join)?
            }
        };
        let observed = self.build_into(&mut fragment, batch);
        self.building = Some(fragment);
        observed
    }

    /// Observe a batch of a build relation into one worker's `fragment`.
    /// The phase check and the `core/pipeline/build_tuple` failpoint run
    /// once per batch.
    pub fn build_into(
        &self,
        fragment: &mut PipelineBuildFragment,
        batch: &RowBatch,
    ) -> QResult<()> {
        qprog_fault::fail_point!("core/pipeline/build_tuple");
        let join = fragment.join;
        if self.phase != Phase::Building(join) {
            return Err(QError::estimation(format!(
                "build_tuple({join}) outside its build phase ({:?})",
                self.phase
            )));
        }
        let rows = 0..batch.len();
        let build_keys = batch.col(self.specs[join].build_attr_col);
        // Translate pending upper histograms (Case 2 fold): each build
        // tuple adds the upper count of its carried key under its build
        // key. NULL carried keys count 0 and NULL build keys are skipped.
        fragment.lanes.resize(rows.len(), 0);
        for (u, new_hist) in &mut fragment.pending {
            let AttrSource::Build { col, .. } = self.states[*u].source else {
                unreachable!("pending entries are Build-sourced by construction");
            };
            let carried = batch.col(col);
            self.states[*u].hist.counts_of_column(
                carried,
                rows.clone(),
                None,
                &mut fragment.lanes,
            )?;
            new_hist.observe_column(build_keys, rows.clone(), Some(&fragment.lanes))?;
        }
        // Raw count for this join's own histogram.
        fragment.own.observe_column(build_keys, rows, None)
    }

    /// Heap bytes of the current build's histograms folded in so far.
    pub fn build_memory(&self) -> usize {
        self.building
            .as_ref()
            .map_or(0, PipelineBuildFragment::memory_allocated)
    }

    /// Fold a worker's fragment of the current build in, in chunk order.
    pub fn fold_build(&mut self, fragment: PipelineBuildFragment) {
        match &mut self.building {
            Some(building) => {
                building.own.merge(&fragment.own);
                for ((_, hist), (_, more)) in building.pending.iter_mut().zip(&fragment.pending) {
                    hist.merge(more);
                }
            }
            None => self.building = Some(fragment),
        }
    }

    /// Finish the current build relation, committing translations.
    pub fn end_build(&mut self, join: usize) -> QResult<()> {
        if self.phase != Phase::Building(join) {
            return Err(QError::estimation(format!(
                "end_build({join}) outside its build phase ({:?})",
                self.phase
            )));
        }
        let fragment = match self.building.take() {
            Some(fragment) => fragment,
            None => self.build_fragment(join)?,
        };
        // Nothing reads or writes a join's own histogram before its build.
        self.states[join].hist = fragment.own;
        let new_source = self.specs[join].probe_attr;
        for (u, new_hist) in fragment.pending {
            let st = &mut self.states[u];
            st.hist = new_hist;
            st.source = new_source;
            // The fold subsumes `join`'s multiplicity; if the cascade
            // continues (new_source is Build-sourced), deeper joins are
            // pushed when their builds translate this histogram again.
            st.chain.push(join);
        }
        self.phase = if join == 0 {
            self.compute_factors()?;
            Phase::Probing
        } else {
            Phase::AwaitBuild(join - 1)
        };
        Ok(())
    }

    /// Feed the build relation of `join` from an iterator, bracketing with
    /// [`begin_build`](Self::begin_build)/[`end_build`](Self::end_build).
    pub fn feed_build<'a>(
        &mut self,
        join: usize,
        rows: impl IntoIterator<Item = &'a Row>,
    ) -> QResult<()> {
        self.begin_build(join)?;
        for r in rows {
            self.build_tuple(join, r)?;
        }
        self.end_build(join)
    }

    fn compute_factors(&mut self) -> QResult<()> {
        let built = |st: &JoinEstState| matches!(st.source, AttrSource::Build { .. });
        if self.states.iter().any(built) {
            return Err(QError::internal(
                "histogram still build-sourced after all builds completed",
            ));
        }
        // Join u's factors are the joins ≤ u not folded into any histogram
        // of a join ≤ u, each looked up by its histogram's probe column.
        // The pairs are deduplicated so each (histogram, column) is looked
        // up once per probe tuple no matter how many joins it feeds, and
        // come in order of the lowest join using them.
        let (mut folded, mut uniq) = (vec![false; self.specs.len()], Vec::new());
        self.factor_idx = (0..self.specs.len())
            .map(|u| {
                self.states[u].chain.iter().for_each(|&c| folded[c] = true);
                (0..=u)
                    .filter(|&w| !folded[w])
                    .map(|w| {
                        let AttrSource::Probe { col } = self.states[w].source else {
                            unreachable!("checked above");
                        };
                        uniq.iter().position(|&q| q == (w, col)).unwrap_or_else(|| {
                            uniq.push((w, col));
                            uniq.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        // The histograms are final from here on, so the largest count of
        // each bounds every lane value the probe pass will read.
        for (u, idx) in self.factor_idx.iter().enumerate() {
            let bound = idx.iter().try_fold(1u64, |bound, &i| {
                bound.checked_mul(self.states[uniq[i].0].hist.max_frequency())
            });
            self.states[u].fits_u64 = bound.is_some();
        }
        self.uniq_factors = uniq;
        Ok(())
    }

    /// Observe one tuple of the lowest probe stream; updates every join's
    /// estimate (a one-row [`observe_probe_batch`](Self::observe_probe_batch)).
    pub fn observe_probe(&mut self, row: &Row) -> QResult<()> {
        self.observe_probe_batch(&RowBatch::from(row))
    }

    /// Observe a batch of the lowest probe stream; updates every join's
    /// estimate.
    pub fn observe_probe_batch(&mut self, batch: &RowBatch) -> QResult<()> {
        let mut fragment = std::mem::take(&mut self.probing);
        let observed = self.probe_into(&mut fragment, batch, 0..batch.len());
        if observed.is_ok() {
            drop(self.fold_probe(&mut fragment));
        }
        self.probing = fragment;
        observed
    }

    /// Fold what `fragment` observed since its last fold into every join's
    /// totals; returns them, still locked, for publication.
    pub fn fold_probe(
        &self,
        fragment: &mut PipelineProbeFragment,
    ) -> MutexGuard<'_, Vec<ProbeTotals>> {
        let mut totals = self.totals();
        for (total, delta) in totals.iter_mut().zip(&mut fragment.delta) {
            total.absorb(&std::mem::take(delta));
        }
        totals
    }

    /// Every join's running totals, bottom-up, locked.
    pub fn totals(&self) -> MutexGuard<'_, Vec<ProbeTotals>> {
        self.totals
            .lock()
            .expect("a probe worker panicked while folding into the totals")
    }

    /// Observe rows `rows` of a batch of the lowest probe stream into one
    /// worker's `fragment`. This is the hot path of the framework: the
    /// phase check and the `core/pipeline/observe_probe` failpoint run once
    /// per call, each distinct factor reads its column lane once at most,
    /// and nothing allocates once the fragment's scratch has grown to the
    /// batch size. It walks the joins bottom-up over the rows still live. Join `u`'s
    /// contribution `c_u(r)` counts the join-`u` outputs derived from probe
    /// row `r`, each extending a join-`j` output of `r` (`j < u`), so
    /// `c_j(r) = 0` implies `c_u(r) = 0` for every `u > j`: a row is looked
    /// up and multiplied only up to the first join it misses, and every sum
    /// is the all-rows product's. Join 0 contributes through its
    /// [`JoinKind`]. Nothing is accumulated unless every lane fills without
    /// error.
    pub fn probe_into(
        &self,
        fragment: &mut PipelineProbeFragment,
        batch: &RowBatch,
        rows: Range<usize>,
    ) -> QResult<()> {
        let n = rows.len();
        qprog_fault::fail_point!("core/pipeline/observe_probe");
        if self.phase != Phase::Probing {
            return Err(QError::estimation(format!(
                "observe_probe before builds completed ({:?})",
                self.phase
            )));
        }
        fragment.rows = 0;
        if n == 0 {
            return Ok(());
        }
        let PipelineProbeFragment {
            delta,
            rows: observed,
            lanes,
            live: live_rows,
            batch_sums,
        } = fragment;
        lanes.resize(self.uniq_factors.len() * n, 0);
        live_rows.resize(n, 0);
        batch_sums.clear();
        // Every row is live while `live == n`: the selection is then not
        // materialized, and lanes and products are read contiguously.
        // After that, `live_rows[..live]` are.
        let (mut live, mut filled) = (n, 0);
        for (u, (st, idx)) in self.states.iter().zip(&self.factor_idx).enumerate() {
            // (1) The lanes this join is the lowest user of, at the live
            // rows, column at a time: join 0's over the whole batch.
            let sel = (live < n).then(|| &live_rows[..live]);
            let upto = idx.iter().map(|&i| i + 1).fold(filled, usize::max);
            for (&(w, col), lane) in self.uniq_factors[filled..upto]
                .iter()
                .zip(lanes[filled * n..].chunks_exact_mut(n))
            {
                let hist = &self.states[w].hist;
                hist.counts_of_column(batch.col(col), rows.clone(), sel, lane)?;
            }
            filled = upto;
            // (2) Its contributions over the live rows; the rows it keeps
            // (non-zero product) are the selection for the join above.
            let (dense, mut kept, mut sums) = (live == n, 0, PowerSums::default());
            if let ([i], true) = (idx.as_slice(), dense) {
                // One factor over the whole batch — join 0 always, the only
                // join with a kind: its lane is the product, which fits.
                let lane = &lanes[i * n..(i + 1) * n];
                let kind = if u == 0 { self.kind } else { JoinKind::Inner };
                let contributions = lane.iter().map(|&c| kind.contribution(c));
                if self.states[self.uniq_factors[*i].0].hist.max_frequency() < 1 << 32 {
                    sums.push_small(contributions);
                } else {
                    contributions.for_each(|c| sums.push_u64(c));
                }
                if u + 1 < self.states.len() {
                    for (r, &c) in lane.iter().enumerate() {
                        live_rows[kept] = r as u32;
                        kept += usize::from(c != 0);
                    }
                }
            } else {
                for k in 0..live {
                    let r = if dense { k } else { live_rows[k] as usize };
                    let lane = |i: usize| lanes[i * n + r];
                    let hit = if st.fits_u64 {
                        let c = idx.iter().fold(1u64, |c, &i| c * lane(i));
                        sums.push_u64(c);
                        c != 0
                    } else {
                        let c = idx
                            .iter()
                            .fold(1u128, |c, &i| c.saturating_mul(lane(i) as u128));
                        sums.push(c);
                        c != 0
                    };
                    live_rows[kept] = r as u32;
                    kept += usize::from(hit);
                }
            }
            sums.push_zeros((n - live) as u64);
            batch_sums.push(sums);
            live = kept;
        }
        delta.resize_with(self.states.len(), ProbeFragment::default);
        for (delta, sums) in delta.iter_mut().zip(batch_sums.iter()) {
            delta.0.merge(sums);
        }
        *observed = n;
        Ok(())
    }

    /// Probe tuples observed so far.
    pub fn probe_seen(&self) -> u64 {
        self.totals()[0].probe_seen()
    }

    /// Revise the probe stream size (e.g. once the stream is exhausted and
    /// the exact count is known).
    pub fn set_probe_size(&mut self, probe_size: u64) {
        let totals = self.totals.get_mut();
        for totals in totals.expect("a probe worker panicked while folding into the totals") {
            totals.set_probe_size(probe_size);
        }
    }

    /// Current cardinality estimate for `join`, `Σc / t · max(|C|, t)` (0
    /// before any probe tuple; exactly `Σc` once `t` reaches `|C|`).
    pub fn estimate(&self, join: usize) -> f64 {
        self.totals()[join].estimate()
    }

    /// Estimates for every join, bottom-up.
    pub fn estimates(&self) -> Vec<f64> {
        self.totals().iter().map(ProbeTotals::estimate).collect()
    }

    /// CLT confidence interval for `join`'s estimate, derived from the
    /// power sums of its contributions.
    pub fn confidence_interval(&self, join: usize, z: f64) -> ConfidenceInterval {
        self.totals()[join].confidence_interval(z)
    }

    /// Whether the full probe stream has been observed (estimates exact).
    pub fn converged(&self) -> bool {
        self.phase == Phase::Probing && self.totals()[0].converged()
    }

    /// This join's current histogram (e.g. for aggregation push-down).
    pub fn histogram(&self, join: usize) -> &FreqHist {
        &self.states[join].hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::{row, DataType, Value};
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn int_rows(cols: &[&[i64]]) -> Vec<Row> {
        // cols is column-major: cols[c][r]
        let n = cols[0].len();
        (0..n)
            .map(|r| Row::new(cols.iter().map(|c| c[r].into()).collect()))
            .collect()
    }

    /// Brute-force join sizes of a left-deep pipeline for cross-checking:
    /// stream C through joins bottom-up, materializing intermediate tuples
    /// as vectors of all columns.
    fn brute_force(
        probe: &[Row],
        builds: &[Vec<Row>], // bottom-up
        specs: &[JoinSpec],
    ) -> Vec<u64> {
        let mut sizes = Vec::new();
        // each intermediate tuple = (probe row index, chosen build rows)
        let mut current: Vec<(usize, Vec<usize>)> =
            (0..probe.len()).map(|i| (i, Vec::new())).collect();
        for (u, spec) in specs.iter().enumerate() {
            let mut next = Vec::new();
            for (pi, chosen) in &current {
                let probe_key = match spec.probe_attr {
                    AttrSource::Probe { col } => probe[*pi].key(col).unwrap(),
                    AttrSource::Build { join, col } => builds[join][chosen[join]].key(col).unwrap(),
                };
                if probe_key.is_null() {
                    continue;
                }
                for (bi, brow) in builds[u].iter().enumerate() {
                    let bkey = brow.key(spec.build_attr_col).unwrap();
                    if !bkey.is_null() && bkey == probe_key {
                        let mut c = chosen.clone();
                        c.push(bi);
                        next.push((*pi, c));
                    }
                }
            }
            sizes.push(next.len() as u64);
            current = next;
        }
        sizes
    }

    fn run_pipeline(probe: &[Row], builds: &[Vec<Row>], specs: Vec<JoinSpec>) -> PipelineEstimator {
        let mut est = PipelineEstimator::new(specs, probe.len() as u64).unwrap();
        for j in (0..builds.len()).rev() {
            est.feed_build(j, builds[j].iter()).unwrap();
        }
        assert_eq!(est.phase, Phase::Probing);
        for r in probe {
            est.observe_probe(r).unwrap();
        }
        est
    }

    #[test]
    fn single_join_matches_once_estimator() {
        let build = int_rows(&[&[1, 1, 2, 3]]);
        let probe = int_rows(&[&[1, 2, 2, 9]]);
        let specs = vec![JoinSpec {
            build_attr_col: 0,
            probe_attr: AttrSource::Probe { col: 0 },
        }];
        let est = run_pipeline(&probe, std::slice::from_ref(&build), specs.clone());
        let truth = brute_force(&probe, &[build], &specs);
        assert!(est.converged());
        assert_eq!(est.estimate(0).round() as u64, truth[0]);
        assert_eq!(truth[0], 4); // 1→2 matches, 2→1 each, 9→0
    }

    #[test]
    fn one_join_kinds_match_the_once_estimator() {
        use crate::join_est::OnceJoinEstimator;
        use qprog_types::Key;
        // 1 matches twice, 2 once, 9 and NULL never; the hint is short.
        let probe = [
            Value::Int64(1),
            Value::Int64(2),
            Value::Int64(9),
            Value::Null,
        ];
        let build: Vec<Key> = [1i64, 1, 2, 3].iter().map(|&v| Key::Int(v)).collect();
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let mut est = PipelineEstimator::same_attribute(1, 0, 0, 2).unwrap();
            est.set_kind(kind).unwrap();
            est.feed_build(0, int_rows(&[&[1, 1, 2, 3]]).iter())
                .unwrap();
            let mut once = OnceJoinEstimator::with_kind(build.iter().collect(), 2, kind);
            for v in &probe {
                est.observe_probe(&Row::new(vec![v.clone()])).unwrap();
                once.observe_probe(&Key::from_value(v).unwrap());
                assert_eq!(est.estimate(0).to_bits(), once.estimate().to_bits());
                assert_eq!(
                    est.confidence_interval(0, 2.576),
                    once.confidence_interval(2.576)
                );
            }
        }
        let mut chain = PipelineEstimator::same_attribute(2, 0, 0, 1).unwrap();
        assert!(chain.set_kind(JoinKind::Semi).is_err());
        chain.set_kind(JoinKind::Inner).unwrap();
    }

    #[test]
    fn same_attribute_three_joins_exact_at_convergence() {
        // A ⋈ (B ⋈ (B0 ⋈ C)) all on column 0
        let b0 = int_rows(&[&[1, 1, 2, 5, 5, 5]]);
        let b1 = int_rows(&[&[1, 2, 2, 5]]);
        let b2 = int_rows(&[&[1, 5, 5, 7]]);
        let probe = int_rows(&[&[1, 2, 5, 5, 7, 9]]);
        let builds = vec![b0, b1, b2];
        let mut est = PipelineEstimator::same_attribute(3, 0, 0, probe.len() as u64).unwrap();
        for j in (0..3).rev() {
            est.feed_build(j, builds[j].iter()).unwrap();
        }
        for r in &probe {
            est.observe_probe(r).unwrap();
        }
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 }
            };
            3
        ];
        let truth = brute_force(&probe, &builds, &specs);
        for (u, &t) in truth.iter().enumerate() {
            assert_eq!(
                est.estimate(u).round() as u64,
                t,
                "join {u}: estimate {} vs truth {}",
                est.estimate(u),
                t
            );
        }
    }

    #[test]
    fn case1_different_attributes_exact() {
        // Lower: B0.x = C.x (C col 0); upper: B1.y = C.y (C col 1).
        let b0 = int_rows(&[&[1, 1, 2]]); // x values
        let b1 = int_rows(&[&[10, 20, 20, 30]]); // y values
        let probe = int_rows(&[&[1, 2, 2, 3], &[20, 10, 30, 20]]); // (x, y)
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 1 },
            },
        ];
        let builds = vec![b0, b1];
        let est = run_pipeline(&probe, &builds, specs.clone());
        let truth = brute_force(&probe, &builds, &specs);
        assert_eq!(est.estimate(0).round() as u64, truth[0]);
        assert_eq!(est.estimate(1).round() as u64, truth[1]);
    }

    #[test]
    fn case2_derived_histogram_exact() {
        // Lower: B0.x = C.x; upper: B1.y = B0.y (key carried by B0 col 1).
        let b0 = int_rows(&[&[1, 1, 2, 3], &[100, 200, 100, 300]]); // (x, y)
        let b1 = int_rows(&[&[100, 100, 200, 400]]); // y values
        let probe = int_rows(&[&[1, 1, 2, 3, 9]]); // x only
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 1 },
            },
        ];
        let builds = vec![b0, b1];
        let est = run_pipeline(&probe, &builds, specs.clone());
        let truth = brute_force(&probe, &builds, &specs);
        assert_eq!(est.estimate(0).round() as u64, truth[0]);
        assert_eq!(est.estimate(1).round() as u64, truth[1]);
        assert!(truth[1] > 0, "test data should produce upper-join output");
    }

    #[test]
    fn case2_cascaded_two_levels_exact() {
        // J0: B0.x = C.x; J1: B1.y = B0.y; J2: B2.z = B1.z.
        // J2's histogram must translate twice (at B1's build, then B0's).
        let b0 = int_rows(&[&[1, 1, 2], &[10, 20, 10]]); // (x, y)
        let b1 = int_rows(&[&[10, 10, 20], &[7, 8, 7]]); // (y, z)
        let b2 = int_rows(&[&[7, 7, 8, 9]]); // z
        let probe = int_rows(&[&[1, 2, 2, 4]]);
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 1 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 1, col: 1 },
            },
        ];
        let builds = vec![b0, b1, b2];
        let est = run_pipeline(&probe, &builds, specs.clone());
        let truth = brute_force(&probe, &builds, &specs);
        for u in 0..3 {
            assert_eq!(
                est.estimate(u).round() as u64,
                truth[u],
                "join {u}: {} vs {truth:?}",
                est.estimate(u)
            );
        }
        assert!(truth[2] > 0);
    }

    #[test]
    fn mixed_case_probe_sourced_above_derived() {
        // J0: B0.x = C.x; J1: B1.y = B0.y (derived); J2: B2.w = C.w.
        let b0 = int_rows(&[&[1, 2, 2], &[5, 5, 6]]); // (x, y)
        let b1 = int_rows(&[&[5, 6, 6]]); // y
        let b2 = int_rows(&[&[40, 40, 41]]); // w
        let probe = int_rows(&[&[1, 2, 2], &[40, 41, 42]]); // (x, w)
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 1 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 1 },
            },
        ];
        let builds = vec![b0, b1, b2];
        let est = run_pipeline(&probe, &builds, specs.clone());
        let truth = brute_force(&probe, &builds, &specs);
        for (u, &t) in truth.iter().enumerate() {
            assert_eq!(est.estimate(u).round() as u64, t, "join {u}");
        }
    }

    #[test]
    fn partial_probe_estimates_scale() {
        let b0 = int_rows(&[&[1, 1]]);
        let probe = int_rows(&[&[1, 1, 2, 2]]);
        let specs = vec![JoinSpec {
            build_attr_col: 0,
            probe_attr: AttrSource::Probe { col: 0 },
        }];
        let mut est = PipelineEstimator::new(specs, 4).unwrap();
        est.feed_build(0, b0.iter()).unwrap();
        est.observe_probe(&probe[0]).unwrap();
        // after 1 of 4 probes, one tuple matching ×2 → estimate 2/1·4 = 8
        assert!((est.estimate(0) - 8.0).abs() < 1e-9);
        assert!(!est.converged());
        assert_eq!(est.probe_seen(), 1);
        for r in &probe[1..] {
            est.observe_probe(r).unwrap();
        }
        assert!(est.converged());
        assert_eq!(est.estimate(0).round() as u64, 4);
    }

    #[test]
    fn estimate_never_falls_below_the_output_already_seen() {
        // The hint under-states the probe stream: past it, the estimate is
        // the exact running sum, not Σ·hint/t.
        let mut est = PipelineEstimator::same_attribute(1, 0, 0, 2).unwrap();
        est.feed_build(0, [row![1i64]].iter()).unwrap();
        for _ in 0..4 {
            est.observe_probe(&row![1i64]).unwrap();
        }
        assert_eq!(est.estimate(0), 4.0);
        assert_eq!(est.confidence_interval(0, 4.0).width(), 0.0);
    }

    #[test]
    fn validation_rejects_bad_sources() {
        // Build source not below the join
        let bad = PipelineEstimator::new(
            vec![JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 0 },
            }],
            10,
        );
        assert!(bad.is_err());
        // Shared build source
        let shared = PipelineEstimator::new(
            vec![
                JoinSpec {
                    build_attr_col: 0,
                    probe_attr: AttrSource::Probe { col: 0 },
                },
                JoinSpec {
                    build_attr_col: 0,
                    probe_attr: AttrSource::Build { join: 0, col: 1 },
                },
                JoinSpec {
                    build_attr_col: 0,
                    probe_attr: AttrSource::Build { join: 0, col: 2 },
                },
            ],
            10,
        );
        assert!(shared.is_err());
        // Empty pipeline
        assert!(PipelineEstimator::new(vec![], 10).is_err());
    }

    #[test]
    fn phase_protocol_enforced() {
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            };
            2
        ];
        let mut est = PipelineEstimator::new(specs, 10).unwrap();
        // builds must start from the top join (index 1)
        assert!(est.begin_build(0).is_err());
        est.begin_build(1).unwrap();
        assert!(est.begin_build(0).is_err()); // still building 1
        assert!(est.observe_probe(&row![1i64]).is_err());
        est.end_build(1).unwrap();
        assert!(est.end_build(0).is_err()); // not begun
        est.begin_build(0).unwrap();
        est.build_tuple(0, &row![5i64]).unwrap();
        assert!(est.build_tuple(1, &row![5i64]).is_err());
        est.end_build(0).unwrap();
        assert_eq!(est.phase, Phase::Probing);
        est.observe_probe(&row![5i64]).unwrap();
    }

    #[test]
    fn null_keys_never_join() {
        use qprog_types::Value;
        let build = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int64(1)])];
        let probe = vec![Row::new(vec![Value::Null]), Row::new(vec![Value::Int64(1)])];
        let specs = vec![JoinSpec {
            build_attr_col: 0,
            probe_attr: AttrSource::Probe { col: 0 },
        }];
        let est = run_pipeline(&probe, &[build], specs);
        // only the 1-1 pair joins
        assert_eq!(est.estimate(0).round() as u64, 1);
    }

    /// `rows` as batches of typed lanes, cut wherever a column's type
    /// changes (NULL fits every lane): a column mixing types is no lane.
    fn batches_of(rows: &[Row]) -> Vec<RowBatch> {
        let mut runs: Vec<(Vec<DataType>, Vec<Row>)> = Vec::new();
        for r in rows {
            let types = r.values().iter().map(Value::data_type);
            let fits = |run: &[DataType]| {
                run.iter()
                    .zip(types.clone())
                    .all(|(&a, b)| a == b || a == DataType::Null || b == DataType::Null)
            };
            match runs.last_mut().filter(|(run, _)| fits(run)) {
                Some((run, rows)) => {
                    for (a, b) in run.iter_mut().zip(types) {
                        if *a == DataType::Null {
                            *a = b;
                        }
                    }
                    rows.push(r.clone());
                }
                None => runs.push((types.collect(), vec![r.clone()])),
            }
        }
        runs.into_iter()
            .map(|(types, rows)| {
                let mut batch = RowBatch::with_capacity(types, rows.len());
                for r in rows {
                    batch.push_drain(&mut r.into_values()).unwrap();
                }
                batch
            })
            .collect()
    }

    /// `rows` of one type per column as one batch.
    fn batch_of(rows: &[Row]) -> RowBatch {
        let mut batches = batches_of(rows);
        assert_eq!(batches.len(), 1);
        batches.remove(0)
    }

    #[test]
    fn worker_fragments_fold_to_the_one_worker_state() {
        // J0: B0.x = C.x; J1: B1.y = B0.y (Case 2); J2: B2.z = B1.z (cascade).
        let b0 = int_rows(&[&[1, 1, 2, 3, 2], &[10, 20, 10, 30, 20]]);
        let b1 = int_rows(&[&[10, 10, 20, 30], &[7, 8, 7, 7]]);
        let b2 = int_rows(&[&[7, 7, 8, 9]]);
        let probe = int_rows(&[&[1, 2, 2, 4, 3, 1, 2]]);
        let specs = vec![
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Probe { col: 0 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 0, col: 1 },
            },
            JoinSpec {
                build_attr_col: 0,
                probe_attr: AttrSource::Build { join: 1, col: 1 },
            },
        ];
        let builds = [b0, b1, b2];
        let serial = run_pipeline(&probe, &builds, specs.clone());
        // Half-way through the probe, so the intervals are mid-flight too.
        let size = 2 * probe.len() as u64;
        for workers in [2usize, 3] {
            let mut est = PipelineEstimator::new(specs.clone(), size).unwrap();
            for j in (0..3).rev() {
                est.begin_build(j).unwrap();
                for chunk in builds[j].chunks(builds[j].len().div_ceil(workers)) {
                    let mut fragment = est.build_fragment(j).unwrap();
                    est.build_into(&mut fragment, &batch_of(chunk)).unwrap();
                    est.fold_build(fragment);
                }
                est.end_build(j).unwrap();
            }
            let mut fragments: Vec<PipelineProbeFragment> = probe
                .chunks(probe.len().div_ceil(workers))
                .map(|chunk| {
                    let mut fragment = PipelineProbeFragment::default();
                    est.probe_into(&mut fragment, &batch_of(chunk), 0..chunk.len())
                        .unwrap();
                    fragment
                })
                .collect();
            for fragment in fragments.iter_mut().rev() {
                drop(est.fold_probe(fragment));
            }
            for u in 0..3 {
                assert_eq!(
                    est.histogram(u).iter().count(),
                    serial.histogram(u).iter().count()
                );
                for (key, n) in serial.histogram(u).iter() {
                    assert_eq!(est.histogram(u).count(&key), n, "join {u} {key:?}");
                }
            }
            est.set_probe_size(probe.len() as u64);
            let bits = |e: &PipelineEstimator| {
                e.estimates()
                    .iter()
                    .map(|x| x.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(&est), bits(&serial), "{workers} workers");
            est.set_probe_size(size);
            let mut half = run_pipeline(&probe, &builds, specs.clone());
            half.set_probe_size(size);
            assert_eq!(*est.totals(), *half.totals(), "{workers} workers");
        }
    }

    #[test]
    fn confidence_interval_collapses_at_convergence() {
        let b0 = int_rows(&[&[1, 2, 3]]);
        let probe = int_rows(&[&[1, 2, 3, 4]]);
        let specs = vec![JoinSpec {
            build_attr_col: 0,
            probe_attr: AttrSource::Probe { col: 0 },
        }];
        let est = run_pipeline(&probe, &[b0], specs);
        let ci = est.confidence_interval(0, 4.0);
        assert_eq!(ci.width(), 0.0);
        assert_eq!(ci.estimate.round() as u64, 3);
    }

    #[test]
    fn estimates_vector_is_bottom_up() {
        let b0 = int_rows(&[&[1]]);
        let b1 = int_rows(&[&[1, 1]]);
        let probe = int_rows(&[&[1]]);
        let mut est = PipelineEstimator::same_attribute(2, 0, 0, 1).unwrap();
        est.feed_build(1, b1.iter()).unwrap();
        est.feed_build(0, b0.iter()).unwrap();
        est.observe_probe(&probe[0]).unwrap();
        assert_eq!(est.estimates(), vec![1.0, 2.0]);
    }

    /// Key domains of the differential test, eight values each.
    #[derive(Debug, Clone, Copy)]
    enum Domain {
        Int,
        Str,
        Mixed,
    }

    impl Domain {
        fn value(self, i: i64) -> Value {
            match self {
                Domain::Int => Value::Int64(i),
                Domain::Str => Value::str(format!("k{i}")),
                Domain::Mixed if i % 2 == 0 => Value::Int64(i),
                Domain::Mixed => Value::str(format!("k{i}")),
            }
        }

        fn pick(rng: &mut StdRng) -> Domain {
            [Domain::Int, Domain::Str, Domain::Mixed][rng.random_range(0..3usize)]
        }
    }

    /// A pipeline of `n` joins: each probes with a column of the probe
    /// relation (same attribute, Case 1) or with the carried column of a
    /// lower build no other join draws from (Case 2, cascading when that
    /// lower join is Case 2 itself).
    fn random_specs(rng: &mut StdRng, n: usize) -> Vec<JoinSpec> {
        let mut drawn = vec![false; n];
        (0..n)
            .map(|u| {
                let free: Vec<usize> = (0..u).filter(|&j| !drawn[j]).collect();
                let probe_attr = if !free.is_empty() && rng.random_range(0..2) == 0 {
                    let join = free[rng.random_range(0..free.len())];
                    drawn[join] = true;
                    AttrSource::Build { join, col: 1 }
                } else {
                    AttrSource::Probe {
                        col: rng.random_range(0..2usize),
                    }
                };
                JoinSpec {
                    build_attr_col: 0,
                    probe_attr,
                }
            })
            .collect()
    }

    /// Every join's contribution from one probe row, as the all-rows kernel
    /// formed it: the saturating product of the row's counts in all of the
    /// join's factor histograms.
    fn naive_contributions(est: &PipelineEstimator, row: &Row) -> Vec<u128> {
        est.factor_idx
            .iter()
            .map(|idx| {
                idx.iter().fold(1u128, |c, &i| {
                    let (w, col) = est.uniq_factors[i];
                    let key = row.key(col).unwrap();
                    let n = if key.is_null() {
                        0
                    } else {
                        est.states[w].hist.count(&key)
                    };
                    c.saturating_mul(n as u128)
                })
            })
            .collect()
    }

    /// Differential test of the live-row probe kernel: on seeded random
    /// pipelines (same attribute, Case 1, Case 2 and cascades; joins that
    /// kill most rows and joins that kill none; NULL, string and mixed
    /// keys; products beyond `u64`), every batch leaves every join's
    /// `(n, Σc, Σc²)` equal to the naive all-rows product's, at splits
    /// {1, 7, 1024}, and converged estimates equal the brute-force join
    /// sizes.
    #[test]
    fn live_row_kernel_matches_all_rows_product() {
        const HEAVY_ROWS: usize = 1800; // 1800^6 > u64::MAX
        let mut rng = StdRng::seed_from_u64(0x11fe_0a75);
        let (mut cascades, mut kill_most, mut kill_none, mut wide, mut strings) = (0, 0, 0, 0, 0);
        for case in 0..240 {
            let heavy = case % 40 == 7;
            let n_joins = if heavy {
                6
            } else {
                rng.random_range(1..=5usize)
            };
            let mut specs = random_specs(&mut rng, n_joins);
            // A heavy derived histogram counts R^(depth + 1), which must
            // fit its u64 counts: cascades at most three deep.
            let depth = |specs: &[JoinSpec], mut u: usize| {
                let mut d = 0;
                while let AttrSource::Build { join, .. } = specs[u].probe_attr {
                    (u, d) = (join, d + 1);
                }
                d
            };
            while heavy && (0..n_joins).any(|u| depth(&specs, u) > 3) {
                specs = random_specs(&mut rng, n_joins);
            }
            cascades += specs
                .iter()
                .filter(|s| {
                    matches!(s.probe_attr, AttrSource::Build { join, .. }
                        if matches!(specs[join].probe_attr, AttrSource::Build { .. }))
                })
                .count();
            let null_rate = if rng.random_range(0..2) == 0 { 0 } else { 8 };
            let random_key = |rng: &mut StdRng, dom: Domain, span: i64| {
                if null_rate > 0 && rng.random_range(0..null_rate) == 0 {
                    Value::Null
                } else {
                    dom.value(rng.random_range(0..span))
                }
            };
            let (builds, probe): (Vec<Vec<Row>>, Vec<Row>) = if heavy {
                // Every build is one key, so each match multiplies by R.
                let one = Row::new(vec![Value::Int64(1), Value::Int64(1)]);
                let probe = (0..rng.random_range(1..40usize))
                    .map(|_| {
                        let k = random_key(&mut rng, Domain::Int, 3);
                        Row::new(vec![k.clone(), k])
                    })
                    .collect();
                (vec![vec![one; HEAVY_ROWS]; n_joins], probe)
            } else {
                let probe_dom = [Domain::pick(&mut rng), Domain::pick(&mut rng)];
                let carried_dom: Vec<Domain> =
                    (0..n_joins).map(|_| Domain::pick(&mut rng)).collect();
                let builds = (0..n_joins)
                    .map(|u| {
                        let dom = match specs[u].probe_attr {
                            AttrSource::Probe { col } => probe_dom[col],
                            AttrSource::Build { join, .. } => carried_dom[join],
                        };
                        // Kill most (one key of eight), none (every key at
                        // least once), or a random subset.
                        let keys: Vec<i64> = match rng.random_range(0..3) {
                            0 => vec![0; rng.random_range(1..4usize)],
                            1 => (0..8)
                                .chain((0..rng.random_range(0..8usize)).map(|i| i as i64))
                                .collect(),
                            _ => (0..rng.random_range(0..16usize))
                                .map(|_| rng.random_range(0..8i64))
                                .collect(),
                        };
                        keys.into_iter()
                            .map(|k| {
                                let carried = random_key(&mut rng, carried_dom[u], 8);
                                Row::new(vec![dom.value(k), carried])
                            })
                            .collect()
                    })
                    .collect();
                let probe = (0..rng.random_range(0..200usize))
                    .map(|_| {
                        Row::new(vec![
                            random_key(&mut rng, probe_dom[0], 8),
                            random_key(&mut rng, probe_dom[1], 8),
                        ])
                    })
                    .collect();
                (builds, probe)
            };

            for split in [1usize, 7, 1024] {
                let what = format!("case {case} split {split} specs {specs:?}");
                let mut est = PipelineEstimator::new(specs.clone(), probe.len() as u64).unwrap();
                for j in (0..n_joins).rev() {
                    est.feed_build(j, builds[j].iter()).unwrap();
                }
                let mut expect = vec![PowerSums::default(); n_joins];
                for chunk in probe.chunks(split) {
                    for row in chunk {
                        for (u, c) in naive_contributions(&est, row).into_iter().enumerate() {
                            expect[u].push(c);
                        }
                    }
                    for batch in batches_of(chunk) {
                        est.observe_probe_batch(&batch).unwrap();
                    }
                    for (u, totals) in est.totals().iter().enumerate() {
                        let mut fragment = ProbeFragment::new();
                        fragment.0 = expect[u];
                        let mut want = ProbeTotals::new(probe.len() as u64);
                        want.absorb(&fragment);
                        assert_eq!(*totals, want, "{what} join {u}");
                    }
                }
                if split > 1 {
                    continue;
                }
                // Coverage of the shapes the generator is meant to mix.
                let per_row: Vec<Vec<u128>> =
                    probe.iter().map(|r| naive_contributions(&est, r)).collect();
                for u in 1..n_joins {
                    let alive = |j: usize| per_row.iter().filter(|c| c[j] > 0).count();
                    let (below, here) = (alive(u - 1), alive(u));
                    kill_most += usize::from(here > 0 && 2 * here < below);
                    kill_none += usize::from(here > 0 && here == below);
                }
                wide += per_row
                    .iter()
                    .filter(|c| c.iter().any(|&x| x > u64::MAX as u128))
                    .count();
                strings += probe
                    .iter()
                    .zip(&per_row)
                    .filter(|(r, c)| {
                        c[0] > 0 && r.values().iter().any(|v| matches!(v, Value::Str(_)))
                    })
                    .count();
                if !heavy {
                    assert!(est.converged(), "{what}");
                    let truth = brute_force(&probe, &builds, &specs);
                    for (u, &t) in truth.iter().enumerate() {
                        assert_eq!(est.estimate(u), t as f64, "{what} join {u}");
                    }
                }
            }
        }
        assert!(cascades > 10, "{cascades} cascaded Case-2 joins");
        assert!(
            kill_most > 10 && kill_none > 10,
            "{kill_most} / {kill_none}"
        );
        assert!(wide > 10, "{wide} probe rows beyond u64");
        assert!(strings > 10, "{strings} string-keyed matches");
    }
}
