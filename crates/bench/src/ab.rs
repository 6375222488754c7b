//! Paired-median interleaved A/B measurement, shared by the `*_ab`
//! benchmark binaries.
//!
//! Designed for noisy shared-CPU hosts: the two variants are timed in
//! adjacent blocks (interleaved within milliseconds, so machine-speed
//! phases hit both equally), the block order alternates between pairs so
//! slow drift cancels, each pair yields a speedup ratio, and the median
//! ratio over many pairs is robust to outliers that make separated
//! minimums incomparable. Each block returns a checksum alongside its
//! time; the harness asserts the two variants agree pair-by-pair, which
//! keeps the optimizer honest and proves the fast path computed the same
//! work as the reference.

/// One paired measurement: median per-block times of both variants and
/// the median of per-pair ratios (`b_ns / a_ns` — how much faster A is).
#[derive(Debug, Clone, Copy)]
pub struct AbStats {
    /// Pairs measured.
    pub pairs: usize,
    /// Median block time of variant A (ns).
    pub a_ns: f64,
    /// Median block time of variant B (ns).
    pub b_ns: f64,
    /// Median of per-pair `b_ns / a_ns` ratios.
    pub speedup: f64,
}

/// The host's CPU model and logical CPU count, for a BENCH file's `host`
/// field.
pub fn host() -> String {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown CPU".to_string());
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!("{model}, {cpus} logical CPUs")
}

/// Median of `v` by total order (upper median). Panics on an empty sample.
pub fn median(v: &mut [f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(|x, y| x.total_cmp(y));
    v[v.len() / 2]
}

/// Time `pairs` adjacent blocks of variant `a` against variant `b`.
///
/// Each closure receives the pair index and runs one block, returning
/// `(elapsed_ns, checksum)`. The checksums of a pair must agree — both
/// variants are required to perform the same logical work on the same
/// seeds — or the harness panics. One throwaway block of each variant
/// runs first to warm caches and lazy initialisation.
pub fn run_paired(
    pairs: usize,
    mut a: impl FnMut(usize) -> (f64, u64),
    mut b: impl FnMut(usize) -> (f64, u64),
) -> AbStats {
    assert!(pairs >= 1, "at least one pair");
    let _ = a(0);
    let _ = b(0);
    let mut ratios = Vec::with_capacity(pairs);
    let mut a_ns = Vec::with_capacity(pairs);
    let mut b_ns = Vec::with_capacity(pairs);
    for p in 0..pairs {
        // Alternate which variant goes first so slow drift cancels.
        let ((ta, ca), (tb, cb)) = if p % 2 == 0 {
            let ra = a(p);
            let rb = b(p);
            (ra, rb)
        } else {
            let rb = b(p);
            let ra = a(p);
            (ra, rb)
        };
        assert_eq!(ca, cb, "variants disagree on pair {p}'s checksum");
        ratios.push(tb / ta);
        a_ns.push(ta);
        b_ns.push(tb);
    }
    AbStats {
        pairs,
        a_ns: median(&mut a_ns),
        b_ns: median(&mut b_ns),
        speedup: median(&mut ratios),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_order_insensitive() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0]), 4.0);
        assert_eq!(median(&mut [7.0]), 7.0);
    }

    #[test]
    fn paired_ratios_use_matching_pair_indices() {
        // Variant A takes 100 ns, variant B 250 ns, both checksum on the
        // pair index: the speedup is exactly 2.5 and every pair was
        // matched against its own counterpart.
        let stats = run_paired(9, |p| (100.0, p as u64), |p| (250.0, p as u64));
        assert_eq!(stats.pairs, 9);
        assert!((stats.speedup - 2.5).abs() < 1e-12);
        assert_eq!(stats.a_ns, 100.0);
        assert_eq!(stats.b_ns, 250.0);
    }

    #[test]
    #[should_panic(expected = "checksum")]
    fn checksum_mismatch_is_fatal() {
        run_paired(2, |_| (1.0, 1), |_| (1.0, 2));
    }
}
