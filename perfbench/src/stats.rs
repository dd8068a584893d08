//! Order statistics over latency samples.

/// Sorted copy of `xs` (NaN-free input).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Quantile `q` in `[0, 1]` of already sorted data, linearly
/// interpolated between the two nearest ranks. `NaN` when empty.
pub fn quantile_sorted(s: &[f64], q: f64) -> f64 {
    if s.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Median of unsorted data.
pub fn median(xs: &[f64]) -> f64 {
    quantile_sorted(&sorted(xs), 0.5)
}

/// Mean; `NaN` when empty.
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The summary every timing in a run record carries: sample count,
/// p50/p90/p99, and p999 only when at least ten samples lie beyond it.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub p999: Option<f64>,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        let s = sorted(xs);
        Summary {
            n: s.len(),
            p50: quantile_sorted(&s, 0.5),
            p90: quantile_sorted(&s, 0.9),
            p99: quantile_sorted(&s, 0.99),
            p999: (s.len() >= 10_000).then(|| quantile_sorted(&s, 0.999)),
        }
    }

    /// JSON object text for the run record.
    pub fn json(&self) -> String {
        let p999 = self.p999.map_or("null".to_string(), num);
        format!(
            "{{\"n\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"p999\": {}}}",
            self.n,
            num(self.p50),
            num(self.p90),
            num(self.p99),
            p999
        )
    }
}

/// A JSON number with every digit `f64` carries (`null` for non-finite).
pub fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile_sorted(&s, 0.5), 2.5);
        assert_eq!(quantile_sorted(&s, 0.0), 1.0);
        assert_eq!(quantile_sorted(&s, 1.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p999_needs_ten_samples_beyond_it() {
        assert!(Summary::of(&vec![1.0; 9_999]).p999.is_none());
        assert!(Summary::of(&vec![1.0; 10_000]).p999.is_some());
    }
}
