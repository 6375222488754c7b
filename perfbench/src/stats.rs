//! Summary statistics for timing samples.
//!
//! Medians come from the shared `bench::ab::median`. Tail percentiles
//! follow one rule: a percentile is reported only when at least
//! [`MIN_TAIL`] samples lie above it, so a "p99" always rests on real
//! observations rather than on the single slowest one.

/// Samples that must lie strictly above a reported percentile.
pub const MIN_TAIL: usize = 10;

/// Median of `samples` (upper median, as `bench::ab::median`).
pub fn median(samples: &[f64]) -> f64 {
    bench::ab::median(&mut samples.to_vec())
}

/// Nearest-rank lower quartile of `samples`: the end-to-end statistic.
/// The host's interference comes in bursts that slow a run by up to
/// 1.6×, and the share of samples a burst hits changes from run to run,
/// which moves a median between the calm and the slow mode; the lower
/// quartile stays in the calm mode. Panics on an empty sample.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank(25.0, sorted.len()) - 1]
}

#[cfg(test)]
/// Fewest samples for which percentile `p` (in percent) has at least
/// [`MIN_TAIL`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    // Nearest-rank index ceil(p/100 * n) - 1 leaves n - ceil(p/100 * n)
    // samples above it; find the smallest n where that is >= MIN_TAIL.
    let mut n = MIN_TAIL + 1;
    while n - rank(p, n) < MIN_TAIL {
        n += 1;
    }
    n
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `samples`, or `None` when fewer than
/// [`MIN_TAIL`] samples would lie above it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    if n == 0 {
        return None;
    }
    let k = rank(p, n);
    if n - k < MIN_TAIL {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[k - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(samples_needed(50.0), 20);
        assert_eq!(samples_needed(95.0), 200);
        assert_eq!(samples_needed(99.0), 1000);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
        assert_eq!(percentile(&xs[..999], 99.0), None);
        assert_eq!(percentile(&xs[..200], 95.0), Some(190.0));
        assert_eq!(percentile(&xs[..199], 95.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut xs: Vec<f64> = (1..=40).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 50.0), Some(20.0));
        assert_eq!(percentile(&xs, 75.0), Some(30.0));
        assert_eq!(percentile(&xs, 76.0), None);
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        let xs: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&xs), 3.0);
    }

    #[test]
    fn median_matches_the_shared_harness() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0]), 4.0);
    }
}
