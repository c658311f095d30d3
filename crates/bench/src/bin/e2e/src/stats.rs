//! Order statistics the benchmark reports: medians, quartiles, the highest
//! percentile a sample supports, and geometric means.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least once.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First and third quartiles by the exclusive method — the default of
/// Python's `statistics.quantiles(v, n=4)` — so quartiles printed here match
/// what a reader recomputes from raw values. One sample is its own quartiles.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn quartiles(v: &[f64]) -> (f64, f64) {
    assert!(!v.is_empty(), "quartiles of no samples");
    let s = sorted(v);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile with at least ten samples beyond it,
/// `p = 1 − 10/n`, as `(p in percent, value)`. `None` below twenty samples,
/// where that percentile would fall under the median.
pub fn tail(v: &[f64]) -> Option<(f64, f64)> {
    let n = v.len();
    if n < 20 {
        return None;
    }
    let s = sorted(v);
    Some((100.0 * (1.0 - 10.0 / n as f64), s[n - 11]))
}

/// Geometric mean of positive values.
pub fn geomean(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "geomean of no values");
    (v.iter().map(|x| x.ln()).sum::<f64>() / v.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), (1.25, 3.75));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..19).map(f64::from).collect();
        assert_eq!(tail(&v), None);
        let v: Vec<f64> = (0..20).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((50.0, 9.0)));
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert!((p - 90.0).abs() < 1e-9);
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
    }
}
