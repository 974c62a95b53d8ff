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

use qprog_types::{QError, QResult, Row, Value};

use crate::confidence::{ConfidenceInterval, PowerSums};
use crate::freq_hist::FreqHist;

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
    /// `(t, Σc, Σc²)` of the per-probe-tuple output contributions `c` of
    /// this join: `Σc / t · |C|` is the estimate, the rest its interval.
    sums: PowerSums,
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

/// Online estimator for every join in a hash- or sort-merge-join pipeline.
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
    /// Translations in flight during the current build: `(join, new_hist)`.
    pending: Vec<(usize, FreqHist)>,
    /// Per-join multiplicative factor lists, fixed at probe start:
    /// `(join supplying the histogram, probe column for the lookup)`.
    factors: Vec<Vec<(usize, usize)>>,
    /// Distinct factor pairs across all lists; each fills one count lane
    /// per probe batch (factor lists overlap heavily in deep pipelines, so
    /// the naive per-join lookup is quadratic in the chain length).
    uniq_factors: Vec<(usize, usize)>,
    /// `factor_idx[u][k]`: position in `uniq_factors` of `factors[u][k]`.
    factor_idx: Vec<Vec<usize>>,
    /// Reused batch scratch: lane `i` (`lanes[i·n..(i+1)·n]`) holds the
    /// histogram counts of `uniq_factors[i]` for the batch's `n` rows.
    lanes: Vec<u64>,
    probe_size: u64,
    phase: Phase,
}

/// Column `c` of a column-major batch, cut to its `n` rows.
fn batch_col(cols: &[Vec<Value>], c: usize, n: usize) -> QResult<&[Value]> {
    cols.get(c).and_then(|col| col.get(..n)).ok_or_else(|| {
        QError::internal(format!(
            "column {c} with {n} rows out of bounds for batch of arity {}",
            cols.len()
        ))
    })
}

/// `(n, Σc, Σc²)` of one batch, row `r`'s contribution `c` being the
/// product of its counts in the lanes `idx` (layout as
/// `PipelineEstimator::lanes`).
fn batch_power_sums(
    lanes: &[u64],
    prod: &mut [u64],
    n: usize,
    idx: &[usize],
    fits_u64: bool,
) -> PowerSums {
    let mut sums = PowerSums::default();
    if fits_u64 {
        // Lane-at-a-time running product: every pass is a zipped loop over
        // contiguous slices, whatever the number of factors.
        let lane = |k: usize| &lanes[idx[k] * n..][..n];
        prod.copy_from_slice(lane(0));
        for k in 1..idx.len() {
            prod.iter_mut().zip(lane(k)).for_each(|(p, &x)| *p *= x);
        }
        prod.iter().for_each(|&c| sums.push_u64(c));
    } else {
        for r in 0..n {
            sums.push(
                idx.iter()
                    .fold(1u128, |c, &i| c.saturating_mul(lanes[i * n + r] as u128)),
            );
        }
    }
    sums
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
                sums: PowerSums::default(),
                fits_u64: false,
                chain: Vec::new(),
            })
            .collect();
        let n = specs.len();
        Ok(PipelineEstimator {
            specs,
            states,
            pending: Vec::new(),
            factors: Vec::new(),
            uniq_factors: Vec::new(),
            factor_idx: Vec::new(),
            lanes: Vec::new(),
            probe_size,
            phase: Phase::AwaitBuild(n - 1),
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
        // Stage translations for every histogram currently keyed by a
        // column of this build relation.
        self.pending = self
            .states
            .iter()
            .enumerate()
            .filter(|(_, st)| matches!(st.source, AttrSource::Build { join: j, .. } if j == join))
            .map(|(u, _)| (u, FreqHist::new()))
            .collect();
        self.phase = Phase::Building(join);
        Ok(())
    }

    /// Feed one build tuple of the current build relation (a one-row
    /// [`build_batch`](Self::build_batch)).
    pub fn build_tuple(&mut self, join: usize, row: &Row) -> QResult<()> {
        self.build_kernel(join, |c| row.get(c).map(std::slice::from_ref))
    }

    /// Feed the first `n` rows of a column-major batch (`cols[c][r]`) of
    /// the current build relation, column at a time. The phase check and
    /// the `core/pipeline/build_tuple` failpoint run once per batch.
    pub fn build_batch(&mut self, join: usize, cols: &[Vec<Value>], n: usize) -> QResult<()> {
        self.build_kernel(join, |c| batch_col(cols, c, n))
    }

    /// The build-side kernel; `col_of(c)` yields column `c` of the batch.
    fn build_kernel<'a>(
        &mut self,
        join: usize,
        col_of: impl Fn(usize) -> QResult<&'a [Value]>,
    ) -> QResult<()> {
        qprog_fault::fail_point!("core/pipeline/build_tuple");
        if self.phase != Phase::Building(join) {
            return Err(QError::estimation(format!(
                "build_tuple({join}) outside its build phase ({:?})",
                self.phase
            )));
        }
        let build_keys = col_of(self.specs[join].build_attr_col)?;
        // Translate pending upper histograms (Case 2 fold): each build
        // tuple adds the upper count of its carried key under its build
        // key. NULL carried keys count 0 and NULL build keys are skipped.
        self.lanes.resize(build_keys.len(), 0);
        for (u, new_hist) in &mut self.pending {
            let AttrSource::Build { col, .. } = self.states[*u].source else {
                unreachable!("pending entries are Build-sourced by construction");
            };
            self.states[*u]
                .hist
                .counts_of_column(col_of(col)?, &mut self.lanes)?;
            new_hist.observe_column(build_keys, Some(&self.lanes))?;
        }
        // Raw count for this join's own histogram.
        self.states[join].hist.observe_column(build_keys, None)
    }

    /// Finish the current build relation, committing translations.
    pub fn end_build(&mut self, join: usize) -> QResult<()> {
        if self.phase != Phase::Building(join) {
            return Err(QError::estimation(format!(
                "end_build({join}) outside its build phase ({:?})",
                self.phase
            )));
        }
        let new_source = self.specs[join].probe_attr;
        for (u, new_hist) in std::mem::take(&mut self.pending) {
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
        let n = self.specs.len();
        for st in &self.states {
            if let AttrSource::Build { .. } = st.source {
                return Err(QError::internal(
                    "histogram still build-sourced after all builds completed",
                ));
            }
        }
        self.factors = (0..n)
            .map(|u| {
                // Joins ≤ u not folded into any histogram of a join ≤ u.
                let mut folded = vec![false; u + 1];
                for w in 0..=u {
                    for &c in &self.states[w].chain {
                        folded[c] = true;
                    }
                }
                (0..=u)
                    .filter(|&w| !folded[w])
                    .map(|w| {
                        let AttrSource::Probe { col } = self.states[w].source else {
                            unreachable!("checked above");
                        };
                        (w, col)
                    })
                    .collect()
            })
            .collect();
        // Dedup the factor pairs so each (histogram, column) is looked up
        // once per probe tuple no matter how many joins it feeds.
        let mut uniq: Vec<(usize, usize)> = Vec::new();
        self.factor_idx = self
            .factors
            .iter()
            .map(|list| {
                list.iter()
                    .map(|&pair| {
                        uniq.iter().position(|&q| q == pair).unwrap_or_else(|| {
                            uniq.push(pair);
                            uniq.len() - 1
                        })
                    })
                    .collect()
            })
            .collect();
        self.uniq_factors = uniq;
        // The histograms are final from here on, so the largest count of
        // each bounds every lane value the probe pass will read.
        for u in 0..n {
            self.states[u].fits_u64 = self.factors[u]
                .iter()
                .try_fold(1u64, |bound, &(w, _)| {
                    bound.checked_mul(self.states[w].hist.max_frequency())
                })
                .is_some();
        }
        Ok(())
    }

    /// Whether all builds are done and probe tuples may stream.
    pub fn ready_to_probe(&self) -> bool {
        self.phase == Phase::Probing
    }

    /// Observe one tuple of the lowest probe stream; updates every join's
    /// estimate (a one-row [`observe_probe_batch`](Self::observe_probe_batch);
    /// it does not allocate).
    pub fn observe_probe(&mut self, row: &Row) -> QResult<()> {
        self.probe_kernel(1, |c| row.get(c).map(std::slice::from_ref))
    }

    /// Observe the first `n` rows of a column-major batch (`cols[c][r]`) of
    /// the lowest probe stream; updates every join's estimate. This is the
    /// hot path of the framework: the phase check and the
    /// `core/pipeline/observe_probe` failpoint run once per batch, each
    /// distinct factor reads its column once, and nothing allocates once
    /// the lanes have grown to the batch size.
    pub fn observe_probe_batch(&mut self, cols: &[Vec<Value>], n: usize) -> QResult<()> {
        self.probe_kernel(n, |c| batch_col(cols, c, n))
    }

    /// The probe-side kernel; `col_of(c)` yields the `n` values of column
    /// `c`. Nothing is accumulated unless every lane fills without error.
    fn probe_kernel<'a>(
        &mut self,
        n: usize,
        col_of: impl Fn(usize) -> QResult<&'a [Value]>,
    ) -> QResult<()> {
        qprog_fault::fail_point!("core/pipeline/observe_probe");
        if self.phase != Phase::Probing {
            return Err(QError::estimation(format!(
                "observe_probe before builds completed ({:?})",
                self.phase
            )));
        }
        if n == 0 {
            return Ok(());
        }
        // (1) One count lane per distinct factor pair, column at a time.
        self.lanes.resize((self.uniq_factors.len() + 1) * n, 0);
        let (lanes, prod) = self.lanes.split_at_mut(self.uniq_factors.len() * n);
        for (&(w, col), lane) in self.uniq_factors.iter().zip(lanes.chunks_exact_mut(n)) {
            self.states[w].hist.counts_of_column(col_of(col)?, lane)?;
        }
        // (2) Per join, the row-wise product of its lanes.
        for (st, idx) in self.states.iter_mut().zip(&self.factor_idx) {
            st.sums
                .merge(&batch_power_sums(lanes, prod, n, idx, st.fits_u64));
        }
        Ok(())
    }

    /// Probe tuples observed so far.
    pub fn probe_seen(&self) -> u64 {
        self.states[0].sums.count()
    }

    /// Revise the probe stream size (e.g. once the stream is exhausted and
    /// the exact count is known).
    pub fn set_probe_size(&mut self, probe_size: u64) {
        self.probe_size = probe_size;
    }

    /// Fraction of the probe stream observed (clamped to 1).
    pub fn probe_fraction(&self) -> f64 {
        if self.probe_size == 0 {
            1.0
        } else {
            (self.probe_seen() as f64 / self.probe_size as f64).min(1.0)
        }
    }

    /// Current cardinality estimate for `join` (0 before any probe tuple).
    pub fn estimate(&self, join: usize) -> f64 {
        let sums = &self.states[join].sums;
        if sums.count() == 0 {
            return 0.0;
        }
        sums.sum() as f64 / sums.count() as f64 * self.probe_size as f64
    }

    /// Estimates for every join, bottom-up.
    pub fn estimates(&self) -> Vec<f64> {
        (0..self.specs.len()).map(|u| self.estimate(u)).collect()
    }

    /// CLT confidence interval for `join`'s estimate, derived from the
    /// power sums of its contributions.
    pub fn confidence_interval(&self, join: usize, z: f64) -> ConfidenceInterval {
        if self.converged() {
            return ConfidenceInterval::around(self.estimate(join), 0.0);
        }
        let ci = self.states[join].sums.mean_ci(z);
        ConfidenceInterval {
            estimate: self.estimate(join),
            lo: ci.lo * self.probe_size as f64,
            hi: ci.hi * self.probe_size as f64,
        }
    }

    /// Whether the full probe stream has been observed (estimates exact).
    pub fn converged(&self) -> bool {
        self.phase == Phase::Probing && self.probe_seen() >= self.probe_size
    }

    /// This join's current histogram (e.g. for aggregation push-down).
    pub fn histogram(&self, join: usize) -> &FreqHist {
        &self.states[join].hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog_types::row;

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
        assert!(est.ready_to_probe());
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
        assert!((est.probe_fraction() - 0.25).abs() < 1e-12);
        for r in &probe[1..] {
            est.observe_probe(r).unwrap();
        }
        assert!(est.converged());
        assert_eq!(est.estimate(0).round() as u64, 4);
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
        assert!(est.ready_to_probe());
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
}
