//! Order statistics over timing samples. Every summary carries its sample
//! count, so a reported percentile always says how many samples lie beyond
//! it.

/// Median, quartiles and tail percentiles of one sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (mean of the middle pair for an even count).
    pub median: f64,
    /// First quartile, as Python's `statistics.quantiles(data, n=4)` gives it.
    pub q1: f64,
    /// Third quartile, same method.
    pub q3: f64,
    /// Nearest-rank 50th percentile.
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let median = median_sorted(&sorted)?;
        let (q1, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            n: sorted.len(),
            median,
            q1,
            q3,
            p50: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
        })
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// Samples strictly beyond the nearest-rank `pct` percentile.
    pub fn beyond(&self, pct: f64) -> usize {
        self.n - rank(self.n, pct)
    }
}

fn median_sorted(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Python's default (`exclusive`) quartile method; a single sample is its
/// own quartiles.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64) {
    let len = sorted.len();
    if len < 2 {
        return (sorted[0], sorted[0]);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// 1-based nearest rank of the `pct` percentile among `n` samples.
fn rank(n: usize, pct: f64) -> usize {
    ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn percentile_sorted(sorted: &[f64], pct: f64) -> f64 {
    sorted[rank(sorted.len(), pct) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.q3), (0.75, 2.25));
        assert!((s.spread() - 1.5 / 1.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_use_nearest_rank_and_report_the_tail() {
        let data: Vec<f64> = (1..=200).map(f64::from).collect();
        let s = Summary::of(&data).unwrap();
        assert_eq!(s.n, 200);
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.p95, 190.0);
        assert_eq!(s.beyond(95.0), 10);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.p50, one.p95, one.q1, one.q3), (7.0, 7.0, 7.0, 7.0));
        assert_eq!(one.beyond(95.0), 0);
    }

    #[test]
    fn empty_input_has_no_summary() {
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[0.0, 0.0]).unwrap().spread(), 0.0);
    }
}
