//! Figs. 14/15: Power-Down-Threshold sweeps of the node models with full
//! energy breakdowns, plus the paper's optimum-threshold analysis
//! (Sec. VII).

use super::jobs::{decode_obs, NodeSweepJob, NODE_SWEEP_WATCH_TOTAL_J};
use super::paper_rule;
use crate::node::NodePetriResult;
use des::Workload;
use energy::{NodeBreakdown, CC2420_RADIO, PXA271_CPU};
use serde::{Deserialize, Serialize};
use sim_core::{Runner, StoppingRule};

/// One sweep point: threshold, energy breakdown, and wake-up counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSweepPoint {
    /// Power-Down Threshold (s).
    pub pdt: f64,
    /// The eight-series energy breakdown.
    pub breakdown: NodeBreakdown,
    /// CPU wake-ups over the horizon.
    pub cpu_wakeups: f64,
    /// Radio wake-ups over the horizon.
    pub radio_wakeups: f64,
    /// Completed cycles.
    pub cycles: f64,
    /// Replications averaged into this point: 1 for the deterministic
    /// closed model, whatever the stopping rule spent for the open one.
    pub replications: u64,
    /// Whether the point's watched metric settled (always `true` for the
    /// closed model; `false` means the budget ran out first).
    pub converged: bool,
}

impl NodeSweepPoint {
    /// Total node energy (J).
    pub fn total_j(&self) -> f64 {
        self.breakdown.total().joules()
    }
}

/// A full Fig. 14/15 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSweep {
    /// The workload that was swept.
    pub workload: Workload,
    /// Horizon (s); the paper evaluates 15 min = 900 s.
    pub horizon: f64,
    /// Points in threshold order.
    pub points: Vec<NodeSweepPoint>,
}

/// The paper's Sec. VII headline numbers.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OptimumAnalysis {
    /// Threshold minimizing total energy.
    pub optimal_pdt: f64,
    /// Energy at the optimum (J).
    pub optimal_energy_j: f64,
    /// Energy at the smallest swept threshold ("immediately powered down").
    pub immediate_energy_j: f64,
    /// Energy at the largest swept threshold ("never powered down").
    pub never_energy_j: f64,
    /// Percent saved vs immediate power-down (paper: 35 % closed / 55 %
    /// open).
    pub savings_vs_immediate_pct: f64,
    /// Percent saved vs never powering down (paper: 29 % closed / 26 %
    /// open).
    pub savings_vs_never_pct: f64,
}

/// Sweep configuration.
#[derive(Debug, Clone)]
pub struct NodeSweepConfig {
    /// Horizon (s).
    pub horizon: f64,
    /// Base seed.
    pub seed: u64,
    /// Executor for the sweep: threads, plus any plugged-in backend.
    pub exec: Runner,
    /// Replication budget of the *open* (stochastic) model: each point
    /// runs replications until the 95 % CI of its total energy satisfies
    /// the rule. The deterministic closed model ignores it and runs one
    /// replication per point. Default: [`paper_rule`].
    pub rule: StoppingRule,
}

impl Default for NodeSweepConfig {
    fn default() -> Self {
        NodeSweepConfig {
            horizon: 900.0,
            seed: 0xF14,
            exec: Runner::with_default_threads(),
            rule: paper_rule(),
        }
    }
}

/// Run a Fig. 14/15 sweep over `grid` thresholds.
///
/// The `(threshold × replication)` grid is described as a portable
/// [`NodeSweepJob`] and scheduled on the configured executor backend —
/// in-process threads or `--shards` worker subprocesses, byte-identical
/// either way since per-point averages fold in replication order.
///
/// The deterministic closed model needs exactly one replication per
/// point; the open model runs rounds of `cfg.rule` until each point's
/// total-energy CI settles (spending replications only where the noise
/// is).
pub fn run_node_sweep(workload: Workload, grid: &[f64], cfg: &NodeSweepConfig) -> NodeSweep {
    let job = NodeSweepJob {
        workload,
        horizon: cfg.horizon,
        grid: grid.to_vec(),
    };
    let seed_of = |_point: usize, r: u64| petri_core::rng::SimRng::child_seed(cfg.seed, r);
    let points = match workload {
        Workload::Closed { .. } => {
            // The closed model is deterministic, so one replication is
            // exact.
            let per_point = cfg
                .exec
                .run_job(&job, &vec![1; grid.len()], &seed_of)
                .unwrap_or_else(|e| panic!("node sweep grid failed: {e}"));
            grid.iter()
                .zip(per_point)
                .map(|(&pdt, slots)| {
                    let obs =
                        decode_obs(&slots[0], "node-sweep slot").unwrap_or_else(|e| panic!("{e}"));
                    let res = job.result_from_obs(&obs).unwrap_or_else(|e| panic!("{e}"));
                    point_from_mean(pdt, &res, 1, true)
                })
                .collect()
        }
        Workload::Open { .. } => {
            let adaptive = cfg
                .exec
                .run_adaptive_job(
                    &job,
                    grid.len(),
                    &cfg.rule,
                    &[NODE_SWEEP_WATCH_TOTAL_J],
                    &seed_of,
                )
                .unwrap_or_else(|e| panic!("adaptive node sweep failed: {e}"));
            grid.iter()
                .zip(adaptive)
                .map(|(&pdt, p)| {
                    // Means of the per-replication observations, folded in
                    // index order by the adaptive runner.
                    let means: Vec<f64> = p.stats.iter().map(|w| w.mean()).collect();
                    let res = job
                        .result_from_obs(&means)
                        .unwrap_or_else(|e| panic!("{e}"));
                    point_from_mean(pdt, &res, p.replications, p.converged)
                })
                .collect()
        }
    };
    NodeSweep {
        workload,
        horizon: cfg.horizon,
        points,
    }
}

/// Build a sweep point from the mean per-replication result (a single
/// run's result for the closed model).
fn point_from_mean(
    pdt: f64,
    res: &NodePetriResult,
    replications: u64,
    converged: bool,
) -> NodeSweepPoint {
    NodeSweepPoint {
        pdt,
        breakdown: res.breakdown(&PXA271_CPU, &CC2420_RADIO),
        cpu_wakeups: res.cpu_wakeups,
        radio_wakeups: res.radio_wakeups,
        cycles: res.cycles_completed,
        replications,
        converged,
    }
}

impl NodeSweep {
    /// The minimum-energy point.
    pub fn optimum(&self) -> &NodeSweepPoint {
        self.points
            .iter()
            .min_by(|a, b| a.total_j().total_cmp(&b.total_j()))
            .expect("non-empty sweep")
    }

    /// The Sec. VII analysis: optimum vs the two extremes.
    pub fn optimum_analysis(&self) -> OptimumAnalysis {
        let opt = self.optimum();
        let first = self.points.first().expect("non-empty sweep");
        let last = self.points.last().expect("non-empty sweep");
        OptimumAnalysis {
            optimal_pdt: opt.pdt,
            optimal_energy_j: opt.total_j(),
            immediate_energy_j: first.total_j(),
            never_energy_j: last.total_j(),
            savings_vs_immediate_pct: 100.0 * (1.0 - opt.total_j() / first.total_j()),
            savings_vs_never_pct: 100.0 * (1.0 - opt.total_j() / last.total_j()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::FIG14_15_PDT_GRID;

    fn quick_cfg() -> NodeSweepConfig {
        NodeSweepConfig {
            horizon: 300.0,
            exec: Runner::new(2),
            rule: StoppingRule::relative(0.03).with_budget(2, 2, 2),
            ..Default::default()
        }
    }

    #[test]
    fn closed_sweep_has_interior_optimum() {
        let grid = [1e-9, 0.00177, 0.01, 1.0, 100.0];
        let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &quick_cfg());
        let a = sweep.optimum_analysis();
        assert!(a.savings_vs_immediate_pct > 0.0, "{a:?}");
        assert!(a.savings_vs_never_pct > 0.0, "{a:?}");
        // The optimum lands at one of the interior knees, not an extreme.
        assert!(a.optimal_pdt > 1e-9 && a.optimal_pdt < 100.0, "{a:?}");
    }

    #[test]
    fn closed_optimum_at_the_gap() {
        // With the full grid the optimum is the 0.00177 s knee (or a point
        // in its flat basin up to the 1 s event period).
        let cfg = NodeSweepConfig {
            horizon: 300.0,
            ..quick_cfg()
        };
        let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &FIG14_15_PDT_GRID, &cfg);
        let a = sweep.optimum_analysis();
        assert!(
            (0.00177..=1.0).contains(&a.optimal_pdt),
            "optimum at {}",
            a.optimal_pdt
        );
    }

    #[test]
    fn open_sweep_has_interior_optimum() {
        let grid = [1e-9, 0.00177, 0.01, 1.0, 100.0];
        let sweep = run_node_sweep(Workload::Open { rate: 1.0 }, &grid, &quick_cfg());
        let a = sweep.optimum_analysis();
        assert!(a.savings_vs_immediate_pct > 0.0, "{a:?}");
        assert!(a.savings_vs_never_pct > 0.0, "{a:?}");
        for p in &sweep.points {
            assert_eq!(p.replications, 2);
        }
    }

    #[test]
    fn open_sweep_adaptive_spends_replications_per_point() {
        let grid = [1e-9, 0.01, 1.0];
        let cfg = NodeSweepConfig {
            horizon: 150.0,
            rule: StoppingRule::relative(0.08).with_budget(3, 24, 3),
            ..quick_cfg()
        };
        let sweep = run_node_sweep(Workload::Open { rate: 1.0 }, &grid, &cfg);
        for p in &sweep.points {
            assert!(p.replications >= 3, "{p:?}");
            assert!(p.replications <= 24, "{p:?}");
            assert!(p.breakdown.total().joules() > 0.0);
        }
        // Bit-identical at any thread count, budget decisions included.
        let a = run_node_sweep(Workload::Open { rate: 1.0 }, &grid, &cfg);
        let mut cfg1 = cfg.clone();
        cfg1.exec = Runner::new(1);
        let b = run_node_sweep(Workload::Open { rate: 1.0 }, &grid, &cfg1);
        assert_eq!(a, b);
    }

    #[test]
    fn closed_sweep_ignores_open_rule() {
        let grid = [1e-9, 0.01];
        let mut cfg = quick_cfg();
        let plain = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &cfg);
        cfg.rule = StoppingRule::relative(0.01).with_budget(4, 64, 4);
        let ruled = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &cfg);
        assert_eq!(plain, ruled);
    }

    #[test]
    fn wakeups_monotone_nonincreasing_closed() {
        let grid = [1e-9, 0.00177, 0.01, 5.0, 100.0];
        let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &quick_cfg());
        for w in sweep.points.windows(2) {
            assert!(
                w[1].cpu_wakeups <= w[0].cpu_wakeups + 1.0,
                "wakeups must not rise with threshold: {:?}",
                sweep
                    .points
                    .iter()
                    .map(|p| (p.pdt, p.cpu_wakeups))
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn breakdown_series_respond_to_threshold() {
        let grid = [1e-9, 100.0];
        let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &quick_cfg());
        let tiny = &sweep.points[0];
        let huge = &sweep.points[1];
        // Tiny threshold: more wake-up transitional energy.
        assert!(
            tiny.breakdown.cpu.wakeup.joules() > huge.breakdown.cpu.wakeup.joules(),
            "wakeup energy must fall with threshold"
        );
        // Huge threshold: more idle energy.
        assert!(
            huge.breakdown.cpu.idle.joules() > tiny.breakdown.cpu.idle.joules(),
            "idle energy must rise with threshold"
        );
    }
}
