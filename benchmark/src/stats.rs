//! Order statistics used for every reported number: medians, quartiles
//! (the method of Python's `statistics.quantiles(values, n=4)`), and tail
//! percentiles that refuse to report what the sample cannot support.

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct TooFewSamples {
    /// The percentile asked for, in `(0, 1)`.
    pub p: f64,
    /// Samples available.
    pub samples: usize,
}

impl std::fmt::Display for TooFewSamples {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p{} needs at least ten samples beyond it; only {} samples",
            self.p * 100.0,
            self.samples
        )
    }
}

/// A percentile together with the sample count it was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile.
    pub value: f64,
    /// How many samples the population held.
    pub samples: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p`-th percentile (`0 < p < 1`, nearest rank) of `values`. Refused
/// unless at least ten samples lie beyond it, so a reported tail is never
/// set by a handful of outliers.
pub fn percentile(values: &[f64], p: f64) -> Result<Percentile, TooFewSamples> {
    let n = values.len();
    let rank = (p * n as f64).ceil() as usize;
    if n < 1 || rank < 1 || n - rank.min(n) < 10 {
        return Err(TooFewSamples { p, samples: n });
    }
    Ok(Percentile {
        value: sorted(values)[rank - 1],
        samples: n,
    })
}

/// The median; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method (the default of
/// Python's `statistics.quantiles(values, n=4)`); `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let at = |q: usize| {
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run spread the
/// bounds in `BENCHMARK.json` are set against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn percentile_refuses_unsupported_tails() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let p95 = percentile(&v, 0.95).unwrap();
        assert_eq!((p95.value, p95.samples), (190.0, 200));
        // p95 of 199 samples leaves 9 beyond rank 190.
        assert!(percentile(&v[..199], 0.95).is_err());
        assert!(percentile(&v, 0.99).is_err());
        assert_eq!(percentile(&v[..20], 0.5).unwrap().value, 10.0);
        assert!(percentile(&v[..19], 0.5).is_err());
    }
}
