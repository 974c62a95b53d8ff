//! SplitMix64: the benchmark's own seeded randomness (think times, key
//! relabelling, row shuffles). The program under test never sees it.

pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }

    /// A random permutation of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<i64> {
        let mut p: Vec<i64> = (0..n as i64).collect();
        self.shuffle(&mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_permutations_are_bijections() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert_eq!(a.next_u64(), b.next_u64());
        let x = a.next_f64();
        assert!((0.0..1.0).contains(&x));
        let mut p = SplitMix(88).permutation(1000);
        assert_ne!(p, (0..1000).collect::<Vec<i64>>());
        p.sort_unstable();
        assert_eq!(p, (0..1000).collect::<Vec<i64>>());
    }
}
