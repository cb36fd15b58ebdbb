//! Order statistics with the sample-count rule: a percentile is only
//! reported as measured when at least ten samples lie beyond it.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many of `n` samples lie strictly beyond the `p`-th percentile's
/// rank.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A sorted sample set, summarised on demand.
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(f64::total_cmp);
        Samples(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// The `p`-th percentile, or 0 when there are no samples (a layer the
    /// workload does not exercise).
    pub fn pct(&self, p: f64) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            percentile(&self.0, p)
        }
    }

    /// `p{p} = value unit (n=…)`, flagged when the sample count does not
    /// support the percentile.
    pub fn describe(&self, p: f64, unit: &str) -> String {
        let flag = if p > 50.0 && !supported(self.len(), p) {
            format!(", fewer than {MIN_BEYOND} samples beyond")
        } else {
            String::new()
        };
        format!("p{p} = {:.3} {unit} (n={}{flag})", self.pct(p), self.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50.0), 2.0);
    }

    #[test]
    fn samples_sort_their_input() {
        let s = Samples::new(vec![5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.pct(50.0), 3.0);
        assert_eq!(s.pct(100.0), 5.0);
        assert_eq!(Samples::default().pct(99.0), 0.0);
    }

    #[test]
    fn a_tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(supported(1000, 99.0));
        assert!(!supported(999, 99.0));
        assert!(supported(100, 90.0));
        assert!(!supported(99, 90.0));
        assert!(!supported(0, 50.0));
        assert!(Samples::new(vec![1.0; 500])
            .describe(99.0, "us")
            .contains("fewer than 10"));
        assert!(!Samples::new(vec![1.0; 5000])
            .describe(99.0, "us")
            .contains("fewer"));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
