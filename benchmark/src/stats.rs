//! Percentile and quartile arithmetic for timing samples.

/// Linear-interpolated percentile (`p` in 0..=100) of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Sorted copy of `samples` (timings are never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Percentile of unsorted samples.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(samples), p)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// The percentile that headline timings are read at: the fast decile.
///
/// The host is a shared virtual machine whose neighbours slow a run for
/// seconds at a time and never speed it up, so of the repetitions of one
/// piece of work the fast ones estimate its cost and repeat from run to
/// run within a few percent, where the median moves by 15 to 20. Median
/// and quartiles are always reported beside the fast decile.
pub const FAST_PERCENTILE: f64 = 10.0;

/// Fast decile, quartiles and median of a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub fast: f64,
    pub q1: f64,
    pub q2: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(samples: &[f64]) -> Quartiles {
        let s = sorted(samples);
        Quartiles {
            fast: percentile_sorted(&s, FAST_PERCENTILE),
            q1: percentile_sorted(&s, 25.0),
            q2: percentile_sorted(&s, 50.0),
            q3: percentile_sorted(&s, 75.0),
            n: s.len(),
        }
    }

    /// The figures of `f(sample)` for a decreasing `f` (a time turned
    /// into a rate): the order of the quartiles swaps.
    pub fn inverted(&self, f: impl Fn(f64) -> f64) -> Quartiles {
        Quartiles {
            fast: f(self.fast),
            q1: f(self.q3),
            q2: f(self.q2),
            q3: f(self.q1),
            n: self.n,
        }
    }
}

/// The highest percentile that still has ten samples beyond it, or `None`
/// when the sample is too small to support any tail figure above the
/// median.
pub fn highest_supported_tail(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    Some(100.0 * (1.0 - 10.0 / n as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 25.0), 1.75);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }

    #[test]
    fn quartiles_invert() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.q2, q.q3, q.n), (3.0, 5.0, 7.0, 9));
        assert!((q.fast - 1.8).abs() < 1e-12);
        let r = q.inverted(|t| 10.0 / t);
        assert!(r.q1 < r.q2 && r.q2 < r.q3);
        assert_eq!(r.q2, 2.0);
        assert!(
            r.fast > r.q3,
            "the fast decile of a time is the high end of a rate"
        );
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_tail(19), None);
        assert_eq!(highest_supported_tail(100), Some(90.0));
        assert_eq!(highest_supported_tail(1000), Some(99.0));
    }
}
