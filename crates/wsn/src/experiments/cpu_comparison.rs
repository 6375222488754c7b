//! The three-way CPU comparison: discrete-event simulation vs the
//! supplementary-variable Markov model vs the Petri net.
//!
//! Regenerates Figs. 4–6 (state-time percentages vs Power-Down Threshold),
//! Figs. 7–9 (energy vs threshold) and Tables IV–VI (Δ-energy statistics)
//! for the three published Power-Up Delays (0.001 s, 0.3 s, 10 s).

use super::jobs::{CpuComparisonJob, CPU_COMPARISON_WATCH};
use super::paper_rule;
use crate::metrics::DeltaEnergyTable;
use markov::supplementary::{CpuMarkovParams, CpuPowerRates};
use serde::{Deserialize, Serialize};
use sim_core::{Runner, StoppingRule};

/// One sweep point of the comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuComparisonPoint {
    /// Power-Down Threshold (s).
    pub pdt: f64,
    /// DES `[standby, powerup, idle, active]` fractions.
    pub sim_probs: [f64; 4],
    /// Markov (Eqs. 1–4) fractions.
    pub markov_probs: [f64; 4],
    /// Petri-net fractions.
    pub petri_probs: [f64; 4],
    /// DES energy over the horizon (J).
    pub sim_energy_j: f64,
    /// Markov energy over the horizon (J).
    pub markov_energy_j: f64,
    /// Petri-net energy over the horizon (J).
    pub petri_energy_j: f64,
    /// Replications the stopping rule spent on the two stochastic columns.
    pub replications: u64,
    /// Whether the watched energy CIs settled (`false` means the budget
    /// ran out first).
    pub converged: bool,
}

/// A full sweep at one Power-Up Delay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuComparison {
    /// The fixed Power-Up Delay (s).
    pub power_up_delay: f64,
    /// Simulated horizon (s).
    pub horizon: f64,
    /// Sweep points in threshold order.
    pub points: Vec<CpuComparisonPoint>,
}

/// Configuration of a comparison sweep.
#[derive(Debug, Clone)]
pub struct CpuComparisonConfig {
    /// Arrival rate λ (default 1/s).
    pub lambda: f64,
    /// Service rate μ (default 10/s — mean service 0.1 s, see DESIGN.md).
    pub mu: f64,
    /// Horizon (default 1000 s, Table II).
    pub horizon: f64,
    /// Base RNG seed.
    pub seed: u64,
    /// Executor for the sweep: threads, plus any plugged-in backend
    /// (worker shards, TCP hosts, a service daemon).
    pub exec: Runner,
    /// Replication budget of the two stochastic methods (DES and Petri):
    /// each threshold point runs replications until the 95 % CI of
    /// **both** energy curves settles — i.e. the stopping decision tracks
    /// whichever curve has the wider CI at that point. The Markov column
    /// is a closed form and needs none. Default: [`paper_rule`].
    pub rule: StoppingRule,
}

impl Default for CpuComparisonConfig {
    fn default() -> Self {
        CpuComparisonConfig {
            lambda: 1.0,
            mu: 10.0,
            horizon: 1000.0,
            seed: 0x5EED,
            exec: Runner::with_default_threads(),
            rule: paper_rule(),
        }
    }
}

/// Run the comparison for one Power-Up Delay over the given threshold grid.
///
/// The `(threshold × replication)` grid is described as a portable
/// [`CpuComparisonJob`] and each round of `cfg.rule` is scheduled on the
/// configured executor backend — the in-process pool, `--shards` worker
/// subprocesses or `--hosts` remote peers. Each point runs rounds until
/// both stochastic energy curves' CIs settle (the effective watch is
/// whichever curve is wider — see [`CPU_COMPARISON_WATCH`]), and its
/// observations fold in replication order, so results are
/// **byte-identical** at any thread, shard and host count. The Markov
/// column is a closed form and computed once per point.
pub fn run_cpu_comparison(
    power_up_delay: f64,
    grid: &[f64],
    cfg: &CpuComparisonConfig,
) -> CpuComparison {
    let rates = CpuPowerRates::PXA271;
    let job = CpuComparisonJob {
        lambda: cfg.lambda,
        mu: cfg.mu,
        horizon: cfg.horizon,
        power_up_delay,
        seed: cfg.seed,
        grid: grid.to_vec(),
    };
    let seed_of = |_point: usize, r: u64| petri_core::rng::SimRng::child_seed(cfg.seed, r);
    // Markov closed form (exact, no replications).
    let markov = |pdt: f64| CpuMarkovParams {
        lambda: cfg.lambda,
        mu: cfg.mu,
        power_down_threshold: pdt,
        power_up_delay,
    };
    let adaptive = cfg
        .exec
        .run_adaptive_job(&job, grid.len(), &cfg.rule, &CPU_COMPARISON_WATCH, &seed_of)
        .unwrap_or_else(|e| panic!("CPU comparison failed: {e}"));
    let points = grid
        .iter()
        .zip(adaptive)
        .map(|(&pdt, p)| {
            // Welford means of the per-replication observations, folded
            // in index order by the adaptive runner.
            let mean = |i: usize| p.stats[i].mean();
            let mk = markov(pdt);
            let sol = mk.solve();
            CpuComparisonPoint {
                pdt,
                sim_probs: std::array::from_fn(mean),
                markov_probs: [sol.p_standby, sol.p_powerup, sol.p_idle, sol.p_active],
                petri_probs: std::array::from_fn(|i| mean(5 + i)),
                sim_energy_j: mean(4),
                markov_energy_j: mk.energy_for_duration(&rates, cfg.horizon),
                petri_energy_j: mean(9),
                replications: p.replications,
                converged: p.converged,
            }
        })
        .collect();
    CpuComparison {
        power_up_delay,
        horizon: cfg.horizon,
        points,
    }
}

impl CpuComparison {
    /// The Δ-energy statistics table (Tables IV–VI).
    pub fn delta_table(&self) -> DeltaEnergyTable {
        let sim: Vec<f64> = self.points.iter().map(|p| p.sim_energy_j).collect();
        let markov: Vec<f64> = self.points.iter().map(|p| p.markov_energy_j).collect();
        let petri: Vec<f64> = self.points.iter().map(|p| p.petri_energy_j).collect();
        DeltaEnergyTable::from_curves(&sim, &markov, &petri)
    }

    /// Energy curves `(pdt, sim, markov, petri)` for Figs. 7–9.
    pub fn energy_rows(&self) -> Vec<(f64, f64, f64, f64)> {
        self.points
            .iter()
            .map(|p| (p.pdt, p.sim_energy_j, p.markov_energy_j, p.petri_energy_j))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::fig4_9_pdt_grid;

    /// Eight replications per point, as many as resolve the Markov
    /// model's systematic bias above Monte-Carlo noise at this horizon.
    fn quick_cfg() -> CpuComparisonConfig {
        CpuComparisonConfig {
            horizon: 2000.0,
            exec: Runner::new(2),
            rule: StoppingRule::relative(0.03).with_budget(8, 8, 8),
            ..Default::default()
        }
    }

    #[test]
    fn small_pud_all_three_agree() {
        // Fig. 4/7 regime: at D = 0.001 s the Markov closed form is nearly
        // exact, so all three methods coincide.
        let grid = [0.001, 0.25, 0.5, 1.0];
        let c = run_cpu_comparison(0.001, &grid, &quick_cfg());
        for p in &c.points {
            for i in 0..4 {
                assert!(
                    (p.sim_probs[i] - p.markov_probs[i]).abs() < 0.03,
                    "pdt={} state {i}: sim {} vs markov {}",
                    p.pdt,
                    p.sim_probs[i],
                    p.markov_probs[i]
                );
                assert!(
                    (p.sim_probs[i] - p.petri_probs[i]).abs() < 0.03,
                    "pdt={} state {i}: sim {} vs petri {}",
                    p.pdt,
                    p.sim_probs[i],
                    p.petri_probs[i]
                );
            }
        }
    }

    #[test]
    fn large_pud_markov_fails_petri_tracks() {
        // Fig. 6/9 regime (D = 10 s): the Markov model "completely fails";
        // the Petri net stays "in lock step with the simulator".
        let grid = [0.001, 0.5, 1.0];
        let c = run_cpu_comparison(10.0, &grid, &quick_cfg());
        let t = c.delta_table();
        assert!(
            t.sim_petri.avg < t.sim_markov.avg / 3.0,
            "petri avg Δ {} must be far below markov avg Δ {}",
            t.sim_petri.avg,
            t.sim_markov.avg
        );
    }

    #[test]
    fn energy_rises_with_threshold_at_small_pud() {
        // Fig. 7's shape: more idle time = more energy when waking is cheap.
        let grid = [0.001, 0.5, 1.0];
        let c = run_cpu_comparison(0.001, &grid, &quick_cfg());
        let rows = c.energy_rows();
        assert!(rows[2].1 > rows[0].1, "sim energy must rise: {rows:?}");
        assert!(rows[2].2 > rows[0].2, "markov energy must rise");
        assert!(rows[2].3 > rows[0].3, "petri energy must rise");
    }

    #[test]
    fn energy_falls_with_threshold_at_huge_pud() {
        // Fig. 9's inversion: at D = 10 s, larger thresholds avoid ruinous
        // wake-ups, so energy *decreases* with the threshold.
        let grid = [0.001, 0.5, 1.0];
        let c = run_cpu_comparison(10.0, &grid, &quick_cfg());
        let rows = c.energy_rows();
        assert!(
            rows[2].1 < rows[0].1,
            "sim energy must fall at D=10: {rows:?}"
        );
    }

    #[test]
    fn adaptive_rule_spends_replications_per_point_deterministically() {
        let grid = [0.001, 0.25, 1.0];
        let cfg = CpuComparisonConfig {
            horizon: 400.0,
            rule: StoppingRule::relative(0.05).with_budget(3, 24, 3),
            ..quick_cfg()
        };
        let c = run_cpu_comparison(0.3, &grid, &cfg);
        for p in &c.points {
            assert!(
                (3..=24).contains(&p.replications),
                "budget out of range: {p:?}"
            );
            assert!(p.sim_energy_j > 0.0 && p.petri_energy_j > 0.0);
        }
        // Bit-identical at any thread count, budget decisions included.
        let mut cfg1 = cfg.clone();
        cfg1.exec = Runner::new(1);
        assert_eq!(c, run_cpu_comparison(0.3, &grid, &cfg1));
    }

    #[test]
    fn full_grid_has_21_points() {
        let grid = fig4_9_pdt_grid();
        let cfg = CpuComparisonConfig {
            horizon: 200.0,
            ..quick_cfg()
        };
        let c = run_cpu_comparison(0.3, &grid, &cfg);
        assert_eq!(c.points.len(), 21);
        // Thresholds preserved in order.
        for (p, g) in c.points.iter().zip(grid.iter()) {
            assert_eq!(p.pdt, *g);
        }
    }
}
