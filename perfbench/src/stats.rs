//! Order statistics for timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(data, n=4)` (the
//! default "exclusive" method), so a value printed here can be checked
//! against the same computation on the raw samples.

/// A sorted copy of `samples`; NaNs sort last.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median, or `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First quartile, median and third quartile, as
/// `statistics.quantiles(samples, n=4)` computes them; `None` for no
/// samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some([v[0]; 3]),
        _ => {
            let (n, m) = (4usize, ld + 1);
            let mut out = [0.0; 3];
            for (i, slot) in (1..n).zip(out.iter_mut()) {
                let j = (i * m / n).clamp(1, ld - 1);
                // Signed: the clamp can push `j * n` past `i * m`.
                let delta = (i * m) as f64 - (j * n) as f64;
                *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
            }
            Some(out)
        }
    }
}

/// The highest whole percentile that still has at least ten samples
/// beyond it (nearest-rank), with its value and the sample count:
/// `(percentile, value, samples)`. `None` below eleven samples, where no
/// percentile has ten samples beyond it.
pub fn tail(samples: &[f64]) -> Option<(u32, f64, usize)> {
    let v = sorted(samples);
    let n = v.len();
    (1..100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, v[rank - 1], n))
    })
}

/// One-line summary of a timing series: median, quartiles and the tail
/// percentile with its sample count.
pub fn summary(samples: &[f64]) -> String {
    let Some([q1, q2, q3]) = quartiles(samples) else {
        return "no samples".into();
    };
    let tail = match tail(samples) {
        Some((p, value, n)) => format!("p{p} {value:.4e} (n={n})"),
        None => format!("no tail percentile (n={} < 11)", samples.len()),
    };
    let min = sorted(samples)[0];
    format!("median {q2:.4e} q1 {q1:.4e} q3 {q3:.4e} min {min:.4e} {tail}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // Reference values from `statistics.quantiles(data, n=4)`.
        let cases: [(&[f64], [f64; 3]); 4] = [
            (&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0], [2.75, 5.5, 8.25]),
            (&[1.0, 2.0, 3.0, 4.0], [1.25, 2.5, 3.75]),
            (&[5.0, 1.0], [0.0, 3.0, 6.0]),
            (&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0, 5.0], [2.0, 4.0, 5.0]),
        ];
        for (data, want) in cases {
            let got = quartiles(data).unwrap();
            for (g, w) in got.iter().zip(want) {
                assert!((g - w).abs() < 1e-12, "{data:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&hundred), Some((90, 90.0, 100)));
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((9, 1.0, 11)));
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        // Order of the input does not matter.
        let mut shuffled = hundred.clone();
        shuffled.reverse();
        assert_eq!(tail(&shuffled), tail(&hundred));
    }
}
