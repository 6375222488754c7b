//! Parameter-sweep grids and the sweep-level view of the shared executor.
//!
//! Every figure in the paper is a sweep over the Power-Down Threshold. A
//! single simulation trajectory is inherently sequential, so the right
//! parallel axes are across sweep points *and* replications — both levels
//! are one flattened task stream on the [`sim_core::Runner`] executor,
//! whose backend seam (`sim_core::exec`) runs the same stream in-process
//! or on any plugged-in backend, such as `repro --worker` subprocesses.
//! This module keeps the published PDT grids and a thin order-preserving
//! `parallel_map` compatibility wrapper for single-level closure sweeps
//! (closures are address-space-bound, so `parallel_map` is always
//! in-process; the portable experiment drivers in [`crate::experiments`]
//! shard).

pub use sim_core::default_threads;

/// The PDT grid of the paper's Figs. 14/15 x-axis (seconds): clustered
/// sample points around the 0.00177 s intra-cycle gap and the 1.00177 s
/// inter-cycle gap, spanning 1 ns to 100 s.
pub const FIG14_15_PDT_GRID: [f64; 24] = [
    1.0e-9, 9.0e-7, 1.0e-6, 1.1e-6, 1.9e-6, 9.0e-6, 0.0017, 0.00176, 0.00177, 0.00178, 0.0019,
    0.005, 0.01, 0.05, 0.1, 0.5, 0.9, 1.0, 1.00177, 1.002, 1.1, 5.0, 10.0, 100.0,
];

/// The PDT grid of Figs. 4–9 (0.001 then 0.05..=1.0 in 0.05 steps).
pub fn fig4_9_pdt_grid() -> Vec<f64> {
    let mut grid = vec![0.001];
    for i in 1..=20 {
        grid.push(i as f64 * 0.05);
    }
    grid
}

/// Map `f` over `inputs` using `threads` worker threads; the output
/// preserves input order. `f` must be `Sync` (called concurrently).
///
/// Compatibility shim over [`sim_core::Runner::map`] — a one-replication-
/// per-point grid on the shared work-stealing executor. Sweeps that also
/// average replications per point should schedule the whole
/// `(point × replication)` grid instead (`Runner::grid`), as the experiment
/// drivers in [`crate::experiments`] do.
pub fn parallel_map<T, R, F>(inputs: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send + Sync,
    F: Fn(&T) -> R + Sync,
{
    sim_core::Runner::new(threads).map(inputs, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_constants_sane() {
        assert_eq!(FIG14_15_PDT_GRID.len(), 24);
        // Strictly increasing.
        for w in FIG14_15_PDT_GRID.windows(2) {
            assert!(w[0] < w[1], "grid must be increasing: {w:?}");
        }
        // Contains the two knees.
        assert!(FIG14_15_PDT_GRID.contains(&0.00177));
        assert!(FIG14_15_PDT_GRID.contains(&1.00177));

        let g = fig4_9_pdt_grid();
        assert_eq!(g.len(), 21);
        assert_eq!(g[0], 0.001);
        assert!((g[20] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = parallel_map(&inputs, 8, |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn parallel_map_single_thread_fallback() {
        let inputs = [1, 2, 3];
        let out = parallel_map(&inputs, 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn parallel_map_empty_input() {
        let inputs: [u32; 0] = [];
        let out: Vec<u32> = parallel_map(&inputs, 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_map_uneven_work() {
        // Work items with wildly different costs still land in order.
        let inputs: Vec<u64> = (0..32).collect();
        let out = parallel_map(&inputs, 4, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, inputs);
    }

    #[test]
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
