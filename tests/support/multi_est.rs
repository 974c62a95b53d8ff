//! Reference estimators for multi-attribute join conditions (§4.1: "this basic
//! formula can be easily adjusted for the case of join conditions involving
//! disjunctions and conjunctions of multiple attributes, using standard
//! probabilistic techniques").
//!
//! - **Conjunction** `R.a = S.x AND R.b = S.y`: a composite key `(a, b)`
//!   reduces this to a single-attribute equi-join — one histogram over the
//!   composite key, same convergence guarantees.
//! - **Disjunction** `R.a = S.x OR R.b = S.y`: per probe tuple with values
//!   `(x, y)`, the exact number of matching build rows is
//!   `N_a[x] + N_b[y] − N_{ab}[(x, y)]` by inclusion–exclusion, so three
//!   build histograms (on `a`, on `b`, and on the pair) make the running
//!   estimate exact-in-expectation per tuple and *exact* at probe
//!   exhaustion — strictly stronger than the probabilistic-independence
//!   adjustment the paper sketches, at the cost of one extra histogram.

use qprog::core::confidence::{scale_sum, PowerSums};
use qprog::core::freq_hist::FreqHist;
use qprog_types::Key;

/// Builder for conjunctive (composite-key) estimation: collapse a
/// multi-column equi-join condition into composite [`Key`]s and use the
/// ordinary `OnceJoinEstimator`.
pub fn conjunction_key(parts: Vec<Key>) -> Key {
    if parts.len() == 1 {
        parts.into_iter().next().expect("length checked")
    } else {
        Key::composite(parts)
    }
}

/// Online estimator for a two-attribute **disjunctive** equi-join
/// `R.a = S.x OR R.b = S.y` with a completed build side.
#[derive(Debug, Clone)]
pub struct DisjunctionJoinEstimator {
    hist_a: FreqHist,
    hist_b: FreqHist,
    hist_ab: FreqHist,
    /// `(t, Σ matches, Σ matches²)` over the probe tuples observed.
    sums: PowerSums,
    /// The probe stream's (known or estimated) size `|S|`.
    probe_size: u64,
}

impl DisjunctionJoinEstimator {
    /// Build the three histograms from build-side key pairs `(a, b)`, for a
    /// probe stream of (known or estimated) size `probe_size`.
    pub fn from_build_pairs<'a>(
        pairs: impl IntoIterator<Item = (&'a Key, &'a Key)>,
        probe_size: u64,
    ) -> Self {
        let mut hist_a = FreqHist::new();
        let mut hist_b = FreqHist::new();
        let mut hist_ab = FreqHist::new();
        for (a, b) in pairs {
            if !a.is_null() {
                hist_a.observe(a);
            }
            if !b.is_null() {
                hist_b.observe(b);
            }
            if !a.is_null() && !b.is_null() {
                hist_ab.observe(&Key::composite(vec![a.clone(), b.clone()]));
            }
        }
        DisjunctionJoinEstimator {
            hist_a,
            hist_b,
            hist_ab,
            sums: PowerSums::default(),
            probe_size,
        }
    }

    /// Observe one probe tuple's `(x, y)` pair; returns the exact number of
    /// build rows it will join with (inclusion–exclusion).
    pub fn observe_probe(&mut self, x: &Key, y: &Key) -> u64 {
        let na = if x.is_null() { 0 } else { self.hist_a.count(x) };
        let nb = if y.is_null() { 0 } else { self.hist_b.count(y) };
        let nab = if x.is_null() || y.is_null() {
            0
        } else {
            self.hist_ab
                .count(&Key::composite(vec![x.clone(), y.clone()]))
        };
        let matches = na + nb - nab;
        self.sums.push_u64(matches);
        matches
    }

    /// Current estimate of the disjunctive join's cardinality:
    /// `Σ/t · max(|S|, t)`, exact once the whole probe stream is seen.
    pub fn estimate(&self) -> f64 {
        scale_sum(self.sums.sum(), self.sums.count(), self.probe_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qprog::core::join_est::OnceJoinEstimator;

    fn pairs(vals: &[(i64, i64)]) -> Vec<(Key, Key)> {
        vals.iter()
            .map(|&(a, b)| (Key::Int(a), Key::Int(b)))
            .collect()
    }

    fn brute_disjunction(build: &[(i64, i64)], probe: &[(i64, i64)]) -> u64 {
        probe
            .iter()
            .map(|&(x, y)| build.iter().filter(|&&(a, b)| a == x || b == y).count() as u64)
            .sum()
    }

    fn brute_conjunction(build: &[(i64, i64)], probe: &[(i64, i64)]) -> u64 {
        probe
            .iter()
            .map(|&(x, y)| build.iter().filter(|&&(a, b)| a == x && b == y).count() as u64)
            .sum()
    }

    #[test]
    fn conjunction_via_composite_keys_is_exact() {
        let build = [(1i64, 10i64), (1, 20), (2, 10), (1, 10)];
        let probe = [(1i64, 10i64), (2, 10), (3, 30), (1, 20)];
        let build_keys: Vec<Key> = pairs(&build)
            .into_iter()
            .map(|(a, b)| conjunction_key(vec![a, b]))
            .collect();
        let mut est = OnceJoinEstimator::from_build_keys(build_keys.iter(), probe.len() as u64);
        for (x, y) in pairs(&probe) {
            est.observe_probe(&conjunction_key(vec![x, y]));
        }
        assert!(est.converged());
        assert_eq!(
            est.estimate().round() as u64,
            brute_conjunction(&build, &probe)
        );
    }

    #[test]
    fn conjunction_key_single_column_passthrough() {
        assert_eq!(conjunction_key(vec![Key::Int(5)]), Key::Int(5));
        assert!(matches!(
            conjunction_key(vec![Key::Int(5), Key::Int(6)]),
            Key::Composite(_)
        ));
    }

    #[test]
    fn disjunction_exact_at_convergence() {
        let build = [(1i64, 10i64), (1, 20), (2, 10), (5, 50)];
        let probe = [(1i64, 10i64), (2, 20), (9, 50), (9, 99)];
        let bp = pairs(&build);
        let mut est = DisjunctionJoinEstimator::from_build_pairs(
            bp.iter().map(|(a, b)| (a, b)),
            probe.len() as u64,
        );
        for (x, y) in pairs(&probe) {
            est.observe_probe(&x, &y);
        }
        assert_eq!(est.sums.count(), est.probe_size);
        assert_eq!(est.estimate(), brute_disjunction(&build, &probe) as f64);
    }

    #[test]
    fn disjunction_inclusion_exclusion_per_tuple() {
        // build row (1, 10) matches probe (1, 10) on BOTH attributes —
        // must be counted once, not twice.
        let build = [(1i64, 10i64)];
        let bp = pairs(&build);
        let mut est = DisjunctionJoinEstimator::from_build_pairs(bp.iter().map(|(a, b)| (a, b)), 1);
        assert_eq!(est.observe_probe(&Key::Int(1), &Key::Int(10)), 1);
    }

    #[test]
    fn disjunction_null_semantics() {
        // NULL never equi-joins; a probe NULL on one side still matches on
        // the other (SQL OR semantics with UNKNOWN treated as false).
        let build = [(1i64, 10i64)];
        let bp = pairs(&build);
        let mut est = DisjunctionJoinEstimator::from_build_pairs(bp.iter().map(|(a, b)| (a, b)), 3);
        assert_eq!(est.observe_probe(&Key::Null, &Key::Int(10)), 1);
        assert_eq!(est.observe_probe(&Key::Int(1), &Key::Null), 1);
        assert_eq!(est.observe_probe(&Key::Null, &Key::Null), 0);
    }

    #[test]
    fn disjunction_randomized_against_brute_force() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        for _ in 0..20 {
            let gen = |rng: &mut StdRng, n: usize| -> Vec<(i64, i64)> {
                (0..n)
                    .map(|_| (rng.random_range(0..8), rng.random_range(0..8)))
                    .collect()
            };
            let build = gen(&mut rng, 30);
            let probe = gen(&mut rng, 25);
            let bp = pairs(&build);
            let mut est = DisjunctionJoinEstimator::from_build_pairs(
                bp.iter().map(|(a, b)| (a, b)),
                probe.len() as u64,
            );
            for (x, y) in pairs(&probe) {
                est.observe_probe(&x, &y);
            }
            assert_eq!(
                est.estimate().round() as u64,
                brute_disjunction(&build, &probe)
            );
        }
    }

    #[test]
    fn disjunction_midstream_scaling() {
        let build = [(1i64, 1i64); 10];
        let bp = pairs(&build);
        let mut est =
            DisjunctionJoinEstimator::from_build_pairs(bp.iter().map(|(a, b)| (a, b)), 100);
        est.observe_probe(&Key::Int(1), &Key::Int(2)); // matches all 10 on a
        assert!((est.estimate() - 1000.0).abs() < 1e-9);
        est.probe_size = 10;
        assert!((est.estimate() - 100.0).abs() < 1e-9);
    }
}
