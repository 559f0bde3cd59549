//! Order statistics for latency samples, and the tail-percentile rule.
//!
//! A timing is reported as its median and its tail: the highest percentile
//! that leaves at least [`MIN_BEYOND`] samples beyond it. Percentiles are
//! whole numbers and ranks are computed in integers, so the rule never
//! suffers a floating-point off-by-one.

/// Samples a reported tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the rule may pick, highest first.
pub const TAIL_CANDIDATES: [u32; 6] = [99, 95, 90, 80, 75, 50];

/// 1-based nearest rank of percentile `pct` among `n ≥ 1` samples:
/// `ceil(pct · n / 100)`, clamped into `1..=n`.
pub fn nearest_rank(pct: u32, n: usize) -> usize {
    (((pct as usize) * n).div_ceil(100)).clamp(1, n.max(1))
}

/// Samples strictly above the nearest-rank percentile `pct` of `n` samples.
/// Non-decreasing in `n`, so a bound that holds at `n` holds beyond it.
pub fn samples_beyond(pct: u32, n: usize) -> usize {
    n.saturating_sub(nearest_rank(pct, n))
}

/// The highest candidate percentile with at least [`MIN_BEYOND`] of `n`
/// samples beyond it, or `None` when `n` is too small for any.
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&pct| samples_beyond(pct, n) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending, non-empty slice.
pub fn percentile(sorted: &[f64], pct: u32) -> f64 {
    sorted[nearest_rank(pct, sorted.len()) - 1]
}

/// Sorted copy of `values` (total order, so NaN cannot scramble it).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median of a non-empty slice (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean, `0` for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_never_leaves_fewer_than_ten_samples_beyond() {
        for n in 1..5000 {
            match tail_percentile(n) {
                Some(pct) => {
                    assert!(samples_beyond(pct, n) >= MIN_BEYOND, "n={n} pct={pct}");
                    // No higher candidate would also qualify.
                    for &higher in TAIL_CANDIDATES.iter().filter(|&&c| c > pct) {
                        assert!(samples_beyond(higher, n) < MIN_BEYOND, "n={n}");
                    }
                }
                None => {
                    for &pct in &TAIL_CANDIDATES {
                        assert!(samples_beyond(pct, n) < MIN_BEYOND, "n={n}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_percentile_fixed_at_the_minimum_count_holds_for_every_larger_count() {
        for min in [20, 50, 100, 200, 1000] {
            let pct = tail_percentile(min).expect("enough samples");
            for n in min..min + 2000 {
                assert!(samples_beyond(pct, n) >= MIN_BEYOND, "min={min} n={n}");
            }
        }
    }

    #[test]
    fn exact_boundaries() {
        // 0.8 · 50 is 40 exactly: rank 40, ten samples beyond.
        assert_eq!(nearest_rank(80, 50), 40);
        assert_eq!(samples_beyond(80, 50), 10);
        assert_eq!(tail_percentile(50), Some(80));
        assert_eq!(tail_percentile(49), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 50), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }
}
