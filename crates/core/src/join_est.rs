//! Online join-size estimators (§4.1, §4.1.1–4.1.3 of the paper).
//!
//! [`OnceJoinEstimator`] is the paper's incremental estimator for binary
//! hash and sort-merge joins: the build input's exact frequency histogram is
//! complete before the probe input streams, so after `t` probe tuples the
//! running estimate
//!
//! ```text
//! D_t = (Σ_{s ∈ first t probe tuples} N_R[key(s)]) / t · |S|
//! ```
//!
//! — algebraically identical to the paper's recurrence
//! `D_{t+1} = (D_t·t + N_R[i]·|S|) / (t+1)` but maintained as an exact
//! integer sum to avoid floating-point drift — converges to the *exact*
//! join cardinality at `t = |S|`, i.e. by the end of the probe-side
//! partitioning (or sorting) pass, before any real join work happens.
//!
//! [`SymmetricJoinEstimator`] is the §4.1 "basic scheme" where both streams
//! are observed simultaneously (`D_t = |R||S| Σ_i N_i^R N_i^S / t²`); the
//! paper presents it to motivate the cheaper asymmetric form, and it remains
//! useful when neither input has a preprocessing phase.

use qprog_types::{Key, QResult, Value};

use crate::confidence::{scale_sum, ConfidenceInterval, PowerSums};
use crate::freq_hist::FreqHist;

/// Join semantics, oriented around a completed build side `R` and a
/// streaming probe side `S` (the side the paper's estimators watch).
///
/// The paper notes (§4.1.1) that "similar estimators can be constructed for
/// semijoins and various kinds of outerjoins"; the construction is a
/// different per-probe-tuple *contribution function* in the same running
/// estimate:
///
/// | kind | output rows contributed by a probe tuple with key `i` |
/// |---|---|
/// | `Inner` | `N_R[i]` |
/// | `LeftOuter` (probe-preserving) | `max(N_R[i], 1)` |
/// | `Semi` (probe rows with a match) | `1{N_R[i] > 0}` |
/// | `Anti` (probe rows without a match) | `1{N_R[i] = 0}` |
///
/// Each is an unbiased sample mean on randomly ordered probe input and is
/// exact once the probe stream is exhausted — the same guarantees as the
/// inner-join estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinKind {
    #[default]
    Inner,
    /// Preserve unmatched probe tuples, padding the build columns with
    /// NULLs (SQL `A LEFT JOIN B` with `A` streaming).
    LeftOuter,
    /// Emit each probe tuple at most once, iff it has a build match
    /// (`EXISTS`).
    Semi,
    /// Emit each probe tuple iff it has no build match (`NOT EXISTS`).
    Anti,
}

impl JoinKind {
    /// Output rows a probe tuple contributes given its build-side
    /// multiplicity (`n = N_R[key]`, with NULL keys normalized to `n = 0`).
    #[inline]
    pub fn contribution(self, n: u64) -> u64 {
        match self {
            JoinKind::Inner => n,
            JoinKind::LeftOuter => n.max(1),
            JoinKind::Semi => u64::from(n > 0),
            JoinKind::Anti => u64::from(n == 0),
        }
    }
}

/// The paper's online cardinality estimator ("once") for a binary equi-join
/// with a completed build side.
///
/// # Example
///
/// ```
/// use qprog_core::join_est::OnceJoinEstimator;
/// use qprog_types::Key;
///
/// let build: Vec<Key> = [1i64, 1, 2].iter().map(|&v| Key::Int(v)).collect();
/// let mut est = OnceJoinEstimator::from_build_keys(build.iter(), 4);
/// for v in [1i64, 2, 2, 9] {
///     est.observe_probe(&Key::Int(v));
/// }
/// assert!(est.converged());
/// assert_eq!(est.estimate(), 4.0); // 1 matches twice, each 2 once
/// ```
#[derive(Debug, Clone)]
pub struct OnceJoinEstimator {
    build: FreqHist,
    kind: JoinKind,
    /// The probe tuples observed so far, null-key tuples included.
    totals: ProbeTotals,
    /// Reused scratch: the build-side multiplicities of the last batch.
    counts: Vec<u64>,
}

impl OnceJoinEstimator {
    /// Start estimation from a completed build histogram and the known (or
    /// optimizer-estimated) probe input size `|S|` (inner join).
    pub fn new(build: FreqHist, probe_size: u64) -> Self {
        OnceJoinEstimator::with_kind(build, probe_size, JoinKind::Inner)
    }

    /// Start estimation for an arbitrary [`JoinKind`].
    pub fn with_kind(build: FreqHist, probe_size: u64, kind: JoinKind) -> Self {
        OnceJoinEstimator {
            build,
            kind,
            totals: ProbeTotals::new(probe_size),
            counts: Vec::new(),
        }
    }

    /// Build a histogram from build-side keys, then start estimation.
    pub fn from_build_keys<'a>(keys: impl IntoIterator<Item = &'a Key>, probe_size: u64) -> Self {
        OnceJoinEstimator::new(keys.into_iter().collect(), probe_size)
    }

    /// Observe one probe tuple's join key and return its build-side
    /// multiplicity `N_R[key]` (NULL keys never equi-join and count as 0).
    /// The running estimate accumulates this kind's contribution function.
    pub fn observe_probe(&mut self, key: &Key) -> u64 {
        let mut fragment = ProbeFragment::new();
        let n = fragment.observe(&self.build, self.kind, key);
        self.totals.absorb(&fragment);
        n
    }

    /// Observe a column of probe-side join keys, in order, and return their
    /// build-side multiplicities (one per row, NULL keys 0) — the batch
    /// form of [`observe_probe`](Self::observe_probe), leaving the same
    /// state as observing the rows one by one. A DOUBLE key raises the
    /// type error of [`Key::from_value`] and observes nothing.
    pub fn observe_probe_batch(&mut self, keys: &[Value]) -> QResult<&[u64]> {
        let mut fragment = ProbeFragment::new();
        fragment.observe_batch(&self.build, self.kind, keys, &mut self.counts)?;
        self.totals.absorb(&fragment);
        Ok(&self.counts)
    }

    /// See [`ProbeTotals::set_probe_size`].
    pub fn set_probe_size(&mut self, probe_size: u64) {
        self.totals.set_probe_size(probe_size);
    }

    /// See [`ProbeTotals::probe_seen`].
    pub fn probe_seen(&self) -> u64 {
        self.totals.probe_seen()
    }

    /// See [`ProbeTotals::matched_so_far`].
    pub fn matched_so_far(&self) -> u128 {
        self.totals.matched_so_far()
    }

    /// See [`ProbeTotals::estimate`]; callers should keep using the
    /// optimizer estimate until `probe_seen` is positive.
    pub fn estimate(&self) -> f64 {
        self.totals.estimate()
    }

    /// See [`ProbeTotals::converged`].
    pub fn converged(&self) -> bool {
        self.totals.converged()
    }

    /// See [`ProbeTotals::confidence_interval`].
    pub fn confidence_interval(&self, z: f64) -> ConfidenceInterval {
        self.totals.confidence_interval(z)
    }
}

/// The running totals of one join's probe pass: the power sums of the
/// per-probe-tuple contributions folded in so far, and the probe-size hint
/// `|S|` that scales them. Workers observe slices of the probe stream into
/// private [`ProbeFragment`]s and fold them in here; the whole state is
/// the integer triple `(t, Σc, Σc²)`, so fragments cut at any offset and
/// folded in any order leave bit-equal estimates and intervals.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    sums: PowerSums,
    probe_size: u64,
}

impl ProbeTotals {
    /// Empty totals for a probe input of (known or estimated) size `|S|`.
    pub fn new(probe_size: u64) -> Self {
        ProbeTotals {
            sums: PowerSums::default(),
            probe_size,
        }
    }

    /// Fold in a fragment's probe tuples.
    pub fn absorb(&mut self, fragment: &ProbeFragment) {
        self.sums.merge(&fragment.0);
    }

    /// Probe tuples folded in so far.
    pub fn probe_seen(&self) -> u64 {
        self.sums.count()
    }

    /// Exact number of join output tuples attributable to the probe tuples
    /// folded in so far (the estimate's numerator before scaling).
    pub fn matched_so_far(&self) -> u128 {
        self.sums.sum()
    }

    /// Revise the probe input size (e.g. to the exact count once the input
    /// is exhausted).
    pub fn set_probe_size(&mut self, probe_size: u64) {
        self.probe_size = probe_size;
    }

    /// `D_t = Σ/t · max(|S|, t)`: 0 before any probe tuple, and once `t`
    /// reaches the hint exactly `Σ`, the output the rows seen certainly
    /// produce.
    pub fn estimate(&self) -> f64 {
        scale_sum(self.sums.sum(), self.sums.count(), self.probe_size)
    }

    /// Whether the whole probe input has been folded in, so the estimate is
    /// the exact join cardinality.
    pub fn converged(&self) -> bool {
        self.probe_seen() >= self.probe_size
    }

    /// CLT confidence interval for `D_t` at the two-sided level implied by
    /// `z` (e.g. `z = z_alpha(0.99)`): `|S| · (x̄ ± z·σ̂/√t)`, collapsed
    /// onto the estimate once converged.
    pub fn confidence_interval(&self, z: f64) -> ConfidenceInterval {
        if self.converged() {
            return ConfidenceInterval::around(self.estimate(), 0.0);
        }
        let mean_ci = self.sums.mean_ci(z);
        ConfidenceInterval {
            estimate: self.estimate(),
            lo: mean_ci.lo * self.probe_size as f64,
            hi: mean_ci.hi * self.probe_size as f64,
        }
    }
}

/// Worker-private probe-side accumulation.
///
/// Each worker observes its slice of the probe stream against the shared
/// (completed, read-only) build histogram, accumulating the power sums of
/// the per-tuple contributions (`t = n`, `Σ contribution = Σx`), and folds
/// them into the join's [`ProbeTotals`]. Fragments also merge by integer
/// addition into each other.
#[derive(Debug, Clone, Default)]
pub struct ProbeFragment(pub(crate) PowerSums);

impl ProbeFragment {
    /// An empty fragment.
    pub fn new() -> Self {
        ProbeFragment::default()
    }

    /// Observe one probe tuple against the shared build histogram,
    /// returning its build-side multiplicity (NULL keys count as 0).
    pub fn observe(&mut self, build: &FreqHist, kind: JoinKind, key: &Key) -> u64 {
        let n = if key.is_null() { 0 } else { build.count(key) };
        self.0.push_u64(kind.contribution(n));
        n
    }

    /// Observe a column of probe-side join keys against the shared build
    /// histogram, in order, leaving their build-side multiplicities in
    /// `counts` (resized to one per row). A DOUBLE key raises the type
    /// error of [`Key::from_value`] and observes nothing.
    pub fn observe_batch(
        &mut self,
        build: &FreqHist,
        kind: JoinKind,
        keys: &[Value],
        counts: &mut Vec<u64>,
    ) -> QResult<()> {
        counts.resize(keys.len(), 0);
        build.counts_of_column(keys, None, counts)?;
        for &n in counts.iter() {
            self.0.push_u64(kind.contribution(n));
        }
        Ok(())
    }

    /// Probe tuples this fragment has observed.
    pub fn seen(&self) -> u64 {
        self.0.count()
    }
}

/// The §4.1 "basic scheme": both streams observed simultaneously.
///
/// After `t` tuples from each stream,
/// `D_t = |R||S| · Σ_i N_i^R N_i^S / t²`. Expensive relative to
/// [`OnceJoinEstimator`] (it must correlate two histograms), which is
/// exactly the overhead argument the paper makes before push-down.
#[derive(Debug, Clone, Default)]
pub struct SymmetricJoinEstimator {
    r_hist: FreqHist,
    s_hist: FreqHist,
    r_size: u64,
    s_size: u64,
    /// Incrementally maintained `Σ_i N_i^R N_i^S`.
    cross_sum: u128,
}

impl SymmetricJoinEstimator {
    /// New estimator for streams of (known or estimated) sizes.
    pub fn new(r_size: u64, s_size: u64) -> Self {
        SymmetricJoinEstimator {
            r_size,
            s_size,
            ..SymmetricJoinEstimator::default()
        }
    }

    /// Observe one tuple from `R`.
    pub fn observe_r(&mut self, key: &Key) {
        if key.is_null() {
            return;
        }
        self.r_hist.observe(key);
        // N_R[i] increased by one → cross term increases by N_S[i].
        self.cross_sum += self.s_hist.count(key) as u128;
    }

    /// Observe one tuple from `S`.
    pub fn observe_s(&mut self, key: &Key) {
        if key.is_null() {
            return;
        }
        self.s_hist.observe(key);
        self.cross_sum += self.r_hist.count(key) as u128;
    }

    /// Tuples observed from `R` / `S`.
    pub fn seen(&self) -> (u64, u64) {
        (self.r_hist.total(), self.s_hist.total())
    }

    /// Current estimate `D_t`.
    pub fn estimate(&self) -> f64 {
        let (tr, ts) = self.seen();
        if tr == 0 || ts == 0 {
            return 0.0;
        }
        self.cross_sum as f64 * (self.r_size as f64 / tr as f64) * (self.s_size as f64 / ts as f64)
    }

    /// Whether both streams have been fully observed (estimate is exact).
    pub fn converged(&self) -> bool {
        let (tr, ts) = self.seen();
        tr >= self.r_size && ts >= self.s_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::confidence::z_alpha;

    fn keys(vals: &[i64]) -> Vec<Key> {
        vals.iter().map(|&v| Key::Int(v)).collect()
    }

    /// Exact nested-loop count of the equi-join for cross-checking.
    fn exact_join(r: &[i64], s: &[i64]) -> u64 {
        r.iter()
            .map(|a| s.iter().filter(|&&b| b == *a).count() as u64)
            .sum()
    }

    #[test]
    fn converges_exactly_at_full_probe() {
        let r = [1i64, 1, 2, 3, 3, 3];
        let s = [1i64, 2, 2, 3, 4];
        let build = keys(&r);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), s.len() as u64);
        for k in keys(&s) {
            est.observe_probe(&k);
        }
        assert!(est.converged());
        assert_eq!(est.estimate() as u64, exact_join(&r, &s));
        assert_eq!(est.matched_so_far(), exact_join(&r, &s) as u128);
        assert_eq!(est.confidence_interval(4.0).width(), 0.0);
    }

    #[test]
    fn partial_estimate_is_unbiased_scaling() {
        // Build: one value with multiplicity 2. Probe: half the tuples match.
        let build = keys(&[7, 7]);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), 100);
        for i in 0..50 {
            let k = if i % 2 == 0 { Key::Int(7) } else { Key::Int(0) };
            est.observe_probe(&k);
        }
        // Half of probes match a build value of multiplicity 2 → mean 1.0
        assert!((est.estimate() - 100.0).abs() < 1e-9);
        assert_eq!(est.probe_seen(), 50);
        assert!(!est.converged());
    }

    #[test]
    fn recurrence_form_matches_running_sum() {
        // Verify D_{t+1} = (D_t·t + N_R[i]·|S|)/(t+1) equals our sum form.
        let r = [1i64, 1, 1, 2, 5, 5];
        let s = [1i64, 5, 2, 2, 1, 9, 5, 5];
        let build = keys(&r);
        let histogram: FreqHist = build.iter().collect();
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), s.len() as u64);
        let mut d = 0.0f64;
        let mut t = 0.0f64;
        for k in keys(&s) {
            let hist = histogram.count(&k) as f64;
            d = (d * t + hist * s.len() as f64) / (t + 1.0);
            t += 1.0;
            est.observe_probe(&k);
            assert!((est.estimate() - d).abs() < 1e-9);
        }
    }

    #[test]
    fn null_probe_keys_do_not_join() {
        let build = keys(&[1, 1, 1]);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), 2);
        assert_eq!(est.observe_probe(&Key::Null), 0);
        assert_eq!(est.observe_probe(&Key::Int(1)), 3);
        // t counts the null tuple: 2 seen, sum = 3, |S| = 2 → estimate 3
        assert!((est.estimate() - 3.0).abs() < 1e-9);
        assert!(est.converged());
    }

    #[test]
    fn confidence_interval_covers_truth_and_shrinks() {
        // Random-ish probe stream over a known distribution.
        let r: Vec<i64> = (0..100).map(|i| i % 10).collect(); // each value ×10
        let probe: Vec<i64> = (0..1000).map(|i| (i * 7 + 3) % 20).collect();
        let truth = exact_join(&r, &probe) as f64;
        let build = keys(&r);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), probe.len() as u64);
        let z = z_alpha(0.99);
        let mut last_width = f64::INFINITY;
        for (i, k) in keys(&probe).into_iter().enumerate() {
            est.observe_probe(&k);
            if i == 99 || i == 499 || i == 999 {
                let ci = est.confidence_interval(z);
                assert!(
                    ci.contains(truth),
                    "at t={} interval [{}, {}] missed truth {}",
                    i + 1,
                    ci.lo,
                    ci.hi,
                    truth
                );
                assert!(ci.width() <= last_width);
                last_width = ci.width();
            }
        }
        assert!(est.converged());
    }

    #[test]
    fn zero_sized_probe_is_converged() {
        let est = OnceJoinEstimator::new(FreqHist::new(), 0);
        assert!(est.converged());
        assert_eq!(est.estimate(), 0.0);
    }

    #[test]
    fn estimate_never_falls_below_the_output_already_seen() {
        // The hint under-states the probe input: past it, the estimate is
        // the exact running sum, not Σ·hint/t.
        let build = keys(&[1]);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), 2);
        for _ in 0..4 {
            est.observe_probe(&Key::Int(1));
        }
        assert_eq!(est.estimate(), 4.0);
        assert_eq!(est.confidence_interval(4.0).width(), 0.0);
    }

    #[test]
    fn set_probe_size_rescales() {
        let build = keys(&[4, 4]);
        let mut est = OnceJoinEstimator::from_build_keys(build.iter(), 10);
        est.observe_probe(&Key::Int(4));
        assert!((est.estimate() - 20.0).abs() < 1e-9);
        est.set_probe_size(100);
        assert!((est.estimate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn join_kind_contributions() {
        assert_eq!(JoinKind::Inner.contribution(3), 3);
        assert_eq!(JoinKind::Inner.contribution(0), 0);
        assert_eq!(JoinKind::LeftOuter.contribution(3), 3);
        assert_eq!(JoinKind::LeftOuter.contribution(0), 1);
        assert_eq!(JoinKind::Semi.contribution(3), 1);
        assert_eq!(JoinKind::Semi.contribution(0), 0);
        assert_eq!(JoinKind::Anti.contribution(3), 0);
        assert_eq!(JoinKind::Anti.contribution(0), 1);
    }

    #[test]
    fn kinds_converge_to_exact_counts() {
        let r = [1i64, 1, 2, 3, 3, 3];
        let s = [1i64, 2, 2, 4, 9];
        // truth: inner = 2+1+1 = 4; semi = 3 (keys 1,2,2 match);
        // anti = 2 (4, 9); left outer = 4 + 2 = 6.
        let truths = [
            (JoinKind::Inner, 4u64),
            (JoinKind::Semi, 3),
            (JoinKind::Anti, 2),
            (JoinKind::LeftOuter, 6),
        ];
        for (kind, truth) in truths {
            let hist: FreqHist = keys(&r).iter().collect();
            let mut est = OnceJoinEstimator::with_kind(hist, s.len() as u64, kind);
            for k in keys(&s) {
                est.observe_probe(&k);
            }
            assert!(est.converged());
            assert_eq!(est.estimate().round() as u64, truth, "{kind:?}");
            assert_eq!(est.kind, kind);
        }
    }

    #[test]
    fn kind_estimates_unbiased_midstream() {
        // uniform probe over matched/unmatched halves → semi ≈ |S|/2
        let r: Vec<i64> = (0..50).collect();
        let hist: FreqHist = keys(&r).iter().collect();
        let mut est = OnceJoinEstimator::with_kind(hist, 1000, JoinKind::Semi);
        for i in 0..500 {
            est.observe_probe(&Key::Int(i % 100)); // half the keys match
        }
        assert!((est.estimate() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn absorbed_fragments_match_serial_estimator_exactly() {
        let r = [1i64, 1, 2, 3, 3, 3, 7, 7];
        let s: Vec<i64> = (0..64).map(|i| (i * 13 + 1) % 9).collect();
        for kind in [
            JoinKind::Inner,
            JoinKind::LeftOuter,
            JoinKind::Semi,
            JoinKind::Anti,
        ] {
            let hist: FreqHist = keys(&r).iter().collect();
            let mut serial = OnceJoinEstimator::with_kind(hist.clone(), s.len() as u64, kind);
            for k in keys(&s) {
                serial.observe_probe(&k);
            }
            // Split the probe stream across 4 worker fragments and fold
            // them in a scrambled order.
            let mut frags: Vec<ProbeFragment> = s
                .chunks(s.len() / 4)
                .map(|chunk| {
                    let mut f = ProbeFragment::new();
                    for k in keys(chunk) {
                        f.observe(&hist, kind, &k);
                    }
                    f
                })
                .collect();
            frags.swap(0, 2);
            let mut parallel = OnceJoinEstimator::with_kind(hist, s.len() as u64, kind);
            frags.iter().for_each(|f| parallel.totals.absorb(f));
            assert!(parallel.converged(), "{kind:?}");
            assert_eq!(parallel.matched_so_far(), serial.matched_so_far());
            // bit-identical converged estimates: both are `sum as f64`
            assert_eq!(
                parallel.estimate().to_bits(),
                serial.estimate().to_bits(),
                "{kind:?}"
            );
            assert_eq!(parallel.confidence_interval(4.0).width(), 0.0);
        }
    }

    #[test]
    fn absorbed_splits_give_bit_equal_midflight_intervals() {
        // Skewed multiplicities, so the variance is far from zero.
        let r: Vec<i64> = (0..200).map(|i| (i * i) % 23).collect();
        let s: Vec<i64> = (0..97).map(|i| (i * 13 + 1) % 31).collect();
        let hist: FreqHist = keys(&r).iter().collect();
        let probe = keys(&s);
        let z = z_alpha(0.99);
        // |S| is under-observed on purpose: the estimate is mid-flight.
        let mut serial = OnceJoinEstimator::new(hist.clone(), 1000);
        for k in &probe {
            serial.observe_probe(k);
        }
        assert!(!serial.converged());
        assert!(serial.confidence_interval(z).width() > 0.0);
        let fragment = |chunk: &[Key]| {
            let mut f = ProbeFragment::new();
            for k in chunk {
                f.observe(&hist, JoinKind::Inner, k);
            }
            f
        };
        for cut in 0..=probe.len() {
            let (head, tail) = (fragment(&probe[..cut]), fragment(&probe[cut..]));
            for order in [[&head, &tail], [&tail, &head]] {
                let mut split = OnceJoinEstimator::new(hist.clone(), 1000);
                order.iter().for_each(|f| split.totals.absorb(f));
                assert_eq!(split.totals, serial.totals, "cut {cut}");
                assert_eq!(
                    split.confidence_interval(z),
                    serial.confidence_interval(z),
                    "cut {cut}"
                );
                assert_eq!(split.estimate().to_bits(), serial.estimate().to_bits());
            }
        }
    }

    #[test]
    fn fragment_observation_mirrors_observe_probe() {
        let hist: FreqHist = keys(&[5, 5, 5]).iter().collect();
        let mut f = ProbeFragment::new();
        assert_eq!(f.observe(&hist, JoinKind::Inner, &Key::Int(5)), 3);
        assert_eq!(f.observe(&hist, JoinKind::Inner, &Key::Null), 0);
        assert_eq!(f.observe(&hist, JoinKind::Inner, &Key::Int(8)), 0);
        assert_eq!(f.seen(), 3);
        // mid-stream absorb scales like the serial estimator
        let mut est = OnceJoinEstimator::new(hist, 6);
        est.totals.absorb(&f);
        assert_eq!(est.matched_so_far(), 3);
        assert_eq!(est.probe_seen(), 3);
        assert!((est.estimate() - 6.0).abs() < 1e-9);
        assert!(!est.converged());
    }

    #[test]
    fn symmetric_estimator_converges_to_exact() {
        let r: Vec<i64> = vec![1, 1, 2, 3, 3, 3, 9];
        let s: Vec<i64> = vec![3, 1, 3, 2, 2, 7];
        let mut est = SymmetricJoinEstimator::new(r.len() as u64, s.len() as u64);
        for (a, b) in r.iter().zip(s.iter()) {
            est.observe_r(&Key::Int(*a));
            est.observe_s(&Key::Int(*b));
        }
        est.observe_r(&Key::Int(r[6]));
        assert!(est.converged());
        assert_eq!(est.estimate().round() as u64, exact_join(&r, &s));
    }

    #[test]
    fn symmetric_estimator_cross_sum_matches_direct() {
        let r = vec![5i64, 5, 6, 7];
        let s = vec![5i64, 6, 6];
        let mut est = SymmetricJoinEstimator::new(10, 10);
        for &a in &r {
            est.observe_r(&Key::Int(a));
        }
        for &b in &s {
            est.observe_s(&Key::Int(b));
        }
        // Σ N_R·N_S = (5: 2·1) + (6: 1·2) = 4; scaled by (10/4)(10/3)
        let expect = 4.0 * (10.0 / 4.0) * (10.0 / 3.0);
        assert!((est.estimate() - expect).abs() < 1e-9);
        assert!(!est.converged());
    }

    #[test]
    fn symmetric_estimator_interleaving_invariance() {
        // cross_sum is order-independent
        let r = vec![1i64, 2, 1, 3];
        let s = vec![1i64, 1, 2, 2];
        let mut a = SymmetricJoinEstimator::new(4, 4);
        let mut b = SymmetricJoinEstimator::new(4, 4);
        for i in 0..4 {
            a.observe_r(&Key::Int(r[i]));
            a.observe_s(&Key::Int(s[i]));
        }
        for &x in &r {
            b.observe_r(&Key::Int(x));
        }
        for &x in &s {
            b.observe_s(&Key::Int(x));
        }
        assert_eq!(a.estimate(), b.estimate());
    }

    #[test]
    fn symmetric_ignores_nulls() {
        let mut est = SymmetricJoinEstimator::new(2, 2);
        est.observe_r(&Key::Null);
        est.observe_s(&Key::Null);
        assert_eq!(est.seen(), (0, 0));
        assert_eq!(est.estimate(), 0.0);
    }
}
