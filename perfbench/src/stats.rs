//! Sample statistics and the order-independent answer checksum.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Nearest-rank percentile of `samples` (`p` in `(0, 100]`): the smallest
/// value with at least `p` percent of the samples at or below it. `None`
/// for an empty sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The 50th nearest-rank percentile, 0 for an empty sample (a layer the
/// workload never touched reports zero time).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// First and third quartile by the method Python's
/// `statistics.quantiles(values, n=4)` uses (exclusive, linear
/// interpolation at positions `(n + 1) · k / 4`), so the spread
/// `bench compare` prints is the one the benchmark's acceptance rule uses.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < 2 {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |k: usize| {
        let pos = (n + 1) * k;
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// An order-independent digest of a bag of rows: each row hashes on its
/// own and the row hashes add up (wrapping), so two answers agree exactly
/// when they hold the same rows the same number of times, in any order.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Checksum {
    /// Rows folded in.
    pub rows: u64,
    /// Wrapping sum of the row hashes.
    pub sum: u64,
}

impl Checksum {
    /// Folds one row in. `DefaultHasher::new()` is keyed with constants,
    /// so digests compare across platforms built in one process.
    pub fn add<T: Hash>(&mut self, row: &T) {
        let mut hasher = DefaultHasher::new();
        row.hash(&mut hasher);
        self.rows += 1;
        self.sum = self.sum.wrapping_add(hasher.finish());
    }

    /// The digest of every row of `rows`.
    pub fn of<T: Hash>(rows: impl IntoIterator<Item = T>) -> Self {
        let mut out = Checksum::default();
        for row in rows {
            out.add(&row);
        }
        out
    }

    /// Folds another digest in (bag union).
    pub fn merge(&mut self, other: Checksum) {
        self.rows += other.rows;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

/// A seeded splitmix64 stream: the only randomness the workloads draw on,
/// so one `--seed` fixes every generated input.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// The stream for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64-bit word.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 95.0), Some(10.0));
        assert_eq!(percentile(&s, 10.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&[7.0], 95.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Unsorted input, 20 samples: rank ceil(0.95 * 20) = 19.
        let mut t: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        t.swap(3, 11);
        assert_eq!(percentile(&t, 95.0), Some(19.0));
        assert_eq!(median(&t), 10.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&s).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q3) = quartiles(&[40.0, 10.0, 20.0]).unwrap();
        assert_eq!((q1, q3), (10.0, 40.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn checksum_ignores_order_but_not_multiplicity() {
        let a = Checksum::of([(1, "x"), (2, "y"), (3, "z")]);
        let b = Checksum::of([(3, "z"), (1, "x"), (2, "y")]);
        assert_eq!(a, b);
        let c = Checksum::of([(1, "x"), (2, "y"), (2, "y")]);
        assert_ne!(a, c);
        let mut d = Checksum::of([(1, "x")]);
        d.merge(Checksum::of([(3, "z"), (2, "y")]));
        assert_eq!(a, d);
    }

    #[test]
    fn rng_is_a_function_of_its_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut items: Vec<u32> = (0..64).collect();
        Rng::new(1).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
