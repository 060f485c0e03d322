//! Order statistics for samples of host-time measurements.

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The median (Python's `statistics.median`).
    pub median: f64,
    /// First quartile (`statistics.quantiles(values, n=4)[0]`).
    pub q1: f64,
    /// Third quartile (`statistics.quantiles(values, n=4)[2]`).
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarizes `values`. Quartiles follow Python's default `exclusive`
    /// method, so spreads computed here and with
    /// `statistics.quantiles` agree; fewer than two samples make the
    /// quartiles equal the median.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a non-finite value.
    #[must_use]
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n < 2 {
            return Summary {
                median,
                q1: median,
                q3: median,
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }
}

/// One reported metric: the value, how well its samples pin it down, and
/// a summary of those samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// The reported value.
    pub value: f64,
    /// Relative uncertainty of `value`; more samples narrow it, and 0
    /// means a single sample.
    pub uncertainty: f64,
    /// Median, quartiles and count of the samples behind it.
    pub samples: Summary,
}

impl Estimate {
    /// The median of `values`. Its uncertainty is half the width of the
    /// median's 95% notch, `1.57 (q3 - q1) / sqrt(n)` relative to the
    /// median (McGill, Tukey and Larsen, 1978).
    #[must_use]
    pub fn median_of(values: &[f64]) -> Estimate {
        let s = Summary::of(values);
        let uncertainty = if s.n < 2 {
            0.0
        } else {
            1.57 * relative(s.q3 - s.q1, s.median) / (s.n as f64).sqrt()
        };
        Estimate {
            value: s.median,
            uncertainty,
            samples: s,
        }
    }

    /// The smallest of `values`. Its uncertainty is the relative gap to
    /// the second smallest: how far the best sample is from being
    /// confirmed by another.
    #[must_use]
    pub fn min_of(values: &[f64]) -> Estimate {
        let (best, second) = best_two(values);
        Estimate {
            value: best,
            uncertainty: relative(second - best, best),
            samples: Summary::of(values),
        }
    }
}

/// The smallest and second-smallest of `values` (both the smallest when
/// there is one value).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn best_two(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[0], v[1.min(v.len() - 1)])
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn relative(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den.abs()
    }
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values` by linear interpolation
/// between closest ranks; 0 for an empty sample.
#[must_use]
pub fn quantile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let h = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (h - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = Summary::of(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn uncertainty_narrows_with_samples() {
        let few = Estimate::median_of(&[9.0, 10.0, 11.0, 12.0]);
        let many: Vec<f64> = (0..64).map(|i| [9.0, 10.0, 11.0, 12.0][i % 4]).collect();
        let many = Estimate::median_of(&many);
        assert!(many.uncertainty < few.uncertainty / 3.0);
        assert_eq!(Estimate::median_of(&[4.0]).uncertainty, 0.0);
        let e = Estimate::min_of(&[3.0, 1.0, 2.0]);
        assert_eq!((e.value, e.uncertainty, e.samples.median), (1.0, 1.0, 2.0));
        assert!((Estimate::min_of(&[3.0, 1.0, 1.1]).uncertainty - 0.1).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), 3.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.95), 9.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }
}
