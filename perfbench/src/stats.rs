//! Order statistics and metric-name rules shared by every report the
//! benchmark prints.

/// Median of `values` (mean of the two middle values for an even count;
/// `0.0` for no values).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First, second and third quartile, computed like Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        // Negative or beyond-4 deltas extrapolate, as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    Some(out)
}

/// Percentiles above the median a tail may be reported at, highest
/// first, in tenths of a percent (integer ranks avoid float rounding at
/// exact boundaries).
const TAIL_LADDER: [usize; 5] = [999, 990, 950, 900, 750];

/// Samples a percentile needs beyond it before it is worth reporting.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAIL_LADDER`] with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it, and its nearest-rank value;
/// the median (`50`) when none has; `None` when there are no samples.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(values);
    let n = s.len();
    if n == 0 {
        return None;
    }
    for tenths in TAIL_LADDER {
        // Nearest rank: the percentile is the `rank`-th smallest sample,
        // and `n - rank` samples lie beyond it.
        let rank = (n * tenths).div_ceil(1000).max(1);
        if n - rank >= TAIL_MIN_BEYOND {
            return Some((tenths as f64 / 10.0, s[rank - 1]));
        }
    }
    Some((50.0, median(&s)))
}

/// True if `name` is a legal metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    /// Reference values from Python 3:
    /// `statistics.quantiles([...], n=4)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some([1.5, 3.0, 4.5]));
        // Two values: the outer quartiles extrapolate past the endpoints.
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[4.0]), None);
        // Order of the input does not matter.
        let mut shuffled = ten.clone();
        shuffled.reverse();
        assert_eq!(quartiles(&shuffled), quartiles(&ten));
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let of = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        // 1000 samples: p99 has exactly 10 beyond it, p99.9 only 1.
        assert_eq!(tail(&of(1000)), Some((99.0, 990.0)));
        // 200 samples: p95 has 10 beyond it, p99 only 2.
        assert_eq!(tail(&of(200)), Some((95.0, 190.0)));
        // 100 samples: p90 has 10 beyond it.
        assert_eq!(tail(&of(100)), Some((90.0, 90.0)));
        // 40 samples: p75 has 10 beyond it, p90 only 4.
        assert_eq!(tail(&of(40)), Some((75.0, 30.0)));
        // 39 samples: p75 has only 9 beyond it, so the median it is.
        assert_eq!(tail(&of(39)), Some((50.0, 20.0)));
        assert_eq!(tail(&of(20)), Some((50.0, 10.5)));
        assert_eq!(tail(&of(5)), Some((50.0, 3.0)));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn metric_names_are_checked() {
        for ok in ["session_s", "optimizer.search_ms.p50", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".hidden",
            "-x",
            "has space",
            "per/sec",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
