//! The published Power-Down-Threshold sweep grids.
//!
//! Every figure in the paper is a sweep over the Power-Down Threshold; the
//! drivers in [`crate::experiments`] run each grid's points and
//! replications as one flattened task stream on the [`sim_core::Runner`]
//! executor.

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
    fn default_threads_positive() {
        assert!(default_threads() >= 1);
    }
}
