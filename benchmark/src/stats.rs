//! Order statistics for reporting: every timing is a median with
//! quartiles and a sample count, never a minimum of N.

/// Linear-interpolated quantile (`p` in `[0, 1]`) of an ascending slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            let pos = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile of an unsorted sample.
pub fn quantile(values: &[f64], p: f64) -> f64 {
    quantile_sorted(&sorted(values), p)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Interquartile mean: the mean of the middle half. Steady where a median
/// flips between two quantised levels and a mean follows outliers.
pub fn midmean(values: &[f64]) -> f64 {
    let s = sorted(values);
    let cut = s.len() / 4;
    let mid = &s[cut..s.len() - cut];
    if mid.is_empty() {
        return f64::NAN;
    }
    mid.iter().sum::<f64>() / mid.len() as f64
}

/// Quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        let s = Summary::of(&v);
        assert_eq!((s.n, s.q1, s.q3), (5, 2.0, 4.0));
    }

    #[test]
    fn midmean_ignores_the_tails() {
        assert_eq!(midmean(&[1.0, 2.0, 3.0, 4.0, 100.0, 0.0, 2.5, 3.5]), 2.75);
        assert_eq!(midmean(&[5.0]), 5.0);
        assert!(midmean(&[]).is_nan());
    }

    #[test]
    fn degenerate_samples() {
        assert!(median(&[]).is_nan());
        assert_eq!(median(&[7.5]), 7.5);
    }
}
