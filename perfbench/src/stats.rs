//! Order statistics over raw samples. Percentiles are exact nearest-rank
//! order statistics — no bucketing, no interpolation — and every one is
//! reported with the sample count it was taken from.

/// A sorted copy of raw samples.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    pub fn new(mut raw: Vec<f64>) -> Samples {
        raw.sort_by(f64::total_cmp);
        Samples { sorted: raw }
    }

    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// The nearest-rank `q`-quantile: the smallest sample with at least
    /// `q·N` samples at or below it (`NaN` when there are no samples).
    pub fn quantile(&self, q: f64) -> f64 {
        match self.rank(q) {
            Some(r) => self.sorted[r - 1],
            None => f64::NAN,
        }
    }

    /// 1-based rank of the `q`-quantile, `None` without samples.
    pub fn rank(&self, q: f64) -> Option<usize> {
        let n = self.sorted.len();
        (n > 0).then(|| ((q * n as f64).ceil() as usize).clamp(1, n))
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// `"<value> (rank r of N, k beyond)"` — the value with the evidence
    /// behind it.
    pub fn describe(&self, q: f64, scale: f64, unit: &str) -> String {
        match self.rank(q) {
            Some(r) => format!(
                "{:.4} {unit} (rank {r} of {}, {} beyond)",
                self.sorted[r - 1] * scale,
                self.len(),
                self.len() - r
            ),
            None => "n/a (no samples)".to_string(),
        }
    }
}

/// Median of raw values (`NaN` when empty).
pub fn median(raw: &[f64]) -> f64 {
    Samples::new(raw.to_vec()).median()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_an_observed_value() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.quantile(0.5), 50.0);
        assert_eq!(s.quantile(0.9), 90.0);
        assert_eq!(s.quantile(0.99), 99.0);
        assert_eq!(s.quantile(1.0), 100.0);
        assert_eq!(s.rank(0.99), Some(99));
        let three = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(three.median(), 2.0);
        assert!(Samples::default().median().is_nan());
    }
}
