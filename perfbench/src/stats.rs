//! Sample summaries and the metric-name rule.

/// Tail percentiles considered, lowest first; the report uses the highest
/// one that still has at least [`MIN_BEYOND`] samples beyond it.
const LADDER: [f64; 5] = [90.0, 95.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the middle pair for an even count); `NaN` when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        0.5 * (s[m - 1] + s[m])
    }
}

/// Nearest-rank percentile: the smallest sample with at least `p`% of the
/// samples at or below it. Samples beyond it number `n - ceil(p·n/100)`.
fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Multiply first: `p / 100.0` is inexact for p99.9 and would round the
    // rank up past an exact integer.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// beyond it, with its value; `None` when there are too few samples for
/// any tail percentile (fewer than 100 for p90).
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    LADDER
        .iter()
        .rev()
        .find(|&&p| !xs.is_empty() && xs.len() - rank(xs.len(), p) >= MIN_BEYOND)
        .map(|&p| (p, percentile(xs, p)))
}

/// A one-line summary: median, the qualifying tail percentile, and the
/// sample count.
pub fn describe(xs: &[f64], unit: &str) -> String {
    let tail = match tail(xs) {
        Some((p, v)) => format!(", p{p} {v:.6} {unit}"),
        None => ", no tail percentile".to_string(),
    };
    format!("median {:.6} {unit}{tail} (n = {})", median(xs), xs.len())
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn thousand_samples_leave_exactly_ten_beyond_p99() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, v) = tail(&xs).expect("1000 samples have a tail");
        assert_eq!(p, 99.0);
        assert_eq!(v, 990.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 100 samples: p90 leaves 10 beyond, p95 only 5.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((90.0, 90.0)));
        // 99 samples: p90 is rank 90 with 9 beyond — no tail.
        assert_eq!(tail(&xs[..99]), None);
        assert_eq!(tail(&[]), None);
        // 10 000 samples reach p99.9 (10 beyond) but not p99.99 (1).
        let big: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&big).map(|t| t.0), Some(99.9));
    }

    #[test]
    fn metric_name_charset() {
        for good in [
            "wall_s",
            "blas.gemm_mixed.gflops",
            "msgsim.world_up_ms.event",
            "9a-b",
        ] {
            assert!(valid_name(good), "{good}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "résumé", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
