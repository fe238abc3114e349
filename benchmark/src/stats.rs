//! Order statistics for timing samples.
//!
//! Timings are reported as a median with quartiles, and as the highest
//! percentile that still has enough samples beyond it to mean something
//! (choosing-metrics §1: "at least ten samples beyond it").

/// Sort a copy of `values` ascending (NaN-free input is the caller's job;
/// a NaN sorts last and poisons nothing before it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// Median of `values`; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the rule the acceptance driver applies to ten runs, so
/// a spread printed here is the spread it will see. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    const N: usize = 4;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..N) {
        let j = (i * m / N).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * N) as f64;
        *slot = (data[j - 1] * (N as f64 - delta) + data[j] * delta) / N as f64;
    }
    Some(out)
}

/// The `p`-th percentile (nearest rank, `0 < p < 100`) of `values`, but
/// only when at least `min_beyond` samples lie beyond that rank — a p90 of
/// twenty samples is two outliers, not a percentile.
pub fn percentile(values: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must be inside (0, 100)");
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    let beyond = v.len() - rank;
    (beyond >= min_beyond).then(|| v[rank - 1])
}

/// Summary of repeated runs of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of values.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile (equals the median below two values).
    pub q1: f64,
    /// Third quartile (equals the median below two values).
    pub q3: f64,
}

impl Summary {
    /// Summarise `values`; `None` when empty.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let median = median(values)?;
        let [q1, _, q3] = quartiles(values).unwrap_or([median; 3]);
        Some(Summary {
            n: values.len(),
            median,
            q1,
            q3,
        })
    }

    /// Interquartile range as a share of the median (0 when the median is).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            Some([15.0, 40.0, 120.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(Summary::of(&[0.0, 0.0, 0.0]).unwrap().spread(), 0.0);
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.n, s.median, s.q1, s.q3), (10, 5.5, 2.75, 8.25));
        assert_eq!(s.spread(), 1.0);
        let one = Summary::of(&[7.0]).unwrap();
        assert_eq!((one.q1, one.q3, one.spread()), (7.0, 7.0, 0.0));
    }

    #[test]
    fn percentile_needs_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples: rank 90, ten beyond.
        assert_eq!(percentile(&hundred, 90.0, 10), Some(90.0));
        // p95 leaves only five beyond.
        assert_eq!(percentile(&hundred, 95.0, 10), None);
        assert_eq!(percentile(&hundred, 95.0, 5), Some(95.0));
        // Twenty samples cannot carry a p90 under the ten-beyond rule.
        assert_eq!(percentile(&hundred[..20], 90.0, 10), None);
        assert_eq!(percentile(&hundred[..20], 50.0, 10), Some(10.0));
        assert_eq!(percentile(&[], 50.0, 0), None);
    }
}
