//! Figs. 14/15: Power-Down-Threshold sweeps of the node models with full
//! energy breakdowns, plus the paper's optimum-threshold analysis
//! (Sec. VII).

use super::jobs::{decode_obs, NodeSweepJob, NODE_SWEEP_WATCH_TOTAL_J};
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
    /// Replications actually averaged into this point (fixed mode: the
    /// configured count; adaptive mode: whatever the stopping rule spent).
    pub replications: u64,
    /// Whether the point's watched metric settled (always `true` in fixed
    /// mode; in adaptive mode, `false` means the budget ran out first).
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
    /// Replications averaged per point (1 for the deterministic closed
    /// model).
    pub replications: u32,
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
    /// Fixed replications per point (averaged; use > 1 for the open
    /// model). Ignored for the open model when `open_rule` is set.
    pub replications: u32,
    /// Base seed.
    pub seed: u64,
    /// Executor for the sweep: threads, plus any plugged-in backend.
    pub exec: Runner,
    /// Adaptive replication budget for the *open* (stochastic) model:
    /// when set, each point runs replications until the 95 % CI of its
    /// total energy satisfies the rule instead of a fixed count. `None`
    /// (and the deterministic closed model always) uses
    /// `replications` — the exact-repro escape hatch behind
    /// `repro --fixed-reps`.
    pub open_rule: Option<StoppingRule>,
}

impl Default for NodeSweepConfig {
    fn default() -> Self {
        NodeSweepConfig {
            horizon: 900.0,
            replications: 1,
            seed: 0xF14,
            exec: Runner::with_default_threads(),
            open_rule: None,
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
/// Replications per point are heterogeneous: the deterministic closed
/// model needs exactly one, the open model averages `cfg.replications` —
/// or, with `cfg.open_rule` set, runs adaptive rounds until each point's
/// total-energy CI settles (spending replications only where the noise
/// is).
pub fn run_node_sweep(workload: Workload, grid: &[f64], cfg: &NodeSweepConfig) -> NodeSweep {
    assert!(cfg.replications >= 1, "need at least one replication");
    let job = NodeSweepJob {
        workload,
        horizon: cfg.horizon,
        grid: grid.to_vec(),
    };
    let seed_of = |_point: usize, r: u64| petri_core::rng::SimRng::child_seed(cfg.seed, r);
    let points = match (workload, &cfg.open_rule) {
        (Workload::Open { .. }, Some(rule)) => {
            let adaptive = cfg
                .exec
                .run_adaptive_job(
                    &job,
                    grid.len(),
                    rule,
                    &[NODE_SWEEP_WATCH_TOTAL_J],
                    &seed_of,
                )
                .unwrap_or_else(|e| panic!("adaptive node sweep failed: {e}"));
            grid.iter()
                .zip(adaptive)
                .map(|(&pdt, p)| {
                    // Means of the per-replication observations, folded in
                    // index order by the adaptive runner.
                    let res = NodePetriResult {
                        cpu_probabilities: std::array::from_fn(|i| p.stats[1 + i].mean()),
                        radio_probabilities: std::array::from_fn(|i| p.stats[5 + i].mean()),
                        cpu_wakeups: p.stats[9].mean(),
                        radio_wakeups: p.stats[10].mean(),
                        cycles_completed: p.stats[11].mean(),
                        horizon: cfg.horizon,
                    };
                    point_from_mean(pdt, &res, p.replications, p.converged)
                })
                .collect()
        }
        _ => {
            // The closed model is deterministic, so one replication is
            // exact.
            let reps = match workload {
                Workload::Closed { .. } => 1,
                Workload::Open { .. } => cfg.replications,
            };
            let reps_per_point = vec![reps as u64; grid.len()];
            let per_point = cfg
                .exec
                .run_job(&job, &reps_per_point, &seed_of)
                .unwrap_or_else(|e| panic!("node sweep grid failed: {e}"));
            grid.iter()
                .zip(per_point)
                .map(|(&pdt, slots)| {
                    // Replication-index-ordered fold (deterministic
                    // aggregation).
                    let mut acc = NodeBreakdown::default();
                    let mut cpu_wakeups = 0.0;
                    let mut radio_wakeups = 0.0;
                    let mut cycles = 0.0;
                    for bytes in &slots {
                        let obs =
                            decode_obs(bytes, "node-sweep slot").unwrap_or_else(|e| panic!("{e}"));
                        let out = job.result_from_obs(&obs).unwrap_or_else(|e| panic!("{e}"));
                        let b = out.breakdown(&PXA271_CPU, &CC2420_RADIO);
                        acc.cpu.sleep += b.cpu.sleep;
                        acc.cpu.wakeup += b.cpu.wakeup;
                        acc.cpu.idle += b.cpu.idle;
                        acc.cpu.active += b.cpu.active;
                        acc.radio.sleep += b.radio.sleep;
                        acc.radio.wakeup += b.radio.wakeup;
                        acc.radio.idle += b.radio.idle;
                        acc.radio.active += b.radio.active;
                        cpu_wakeups += out.cpu_wakeups;
                        radio_wakeups += out.radio_wakeups;
                        cycles += out.cycles_completed;
                    }
                    let n = reps as f64;
                    let scale = 1.0 / n;
                    let avg = NodeBreakdown {
                        cpu: energy::ComponentBreakdown {
                            sleep: acc.cpu.sleep * scale,
                            wakeup: acc.cpu.wakeup * scale,
                            idle: acc.cpu.idle * scale,
                            active: acc.cpu.active * scale,
                        },
                        radio: energy::ComponentBreakdown {
                            sleep: acc.radio.sleep * scale,
                            wakeup: acc.radio.wakeup * scale,
                            idle: acc.radio.idle * scale,
                            active: acc.radio.active * scale,
                        },
                    };
                    NodeSweepPoint {
                        pdt,
                        breakdown: avg,
                        cpu_wakeups: cpu_wakeups / n,
                        radio_wakeups: radio_wakeups / n,
                        cycles: cycles / n,
                        replications: reps as u64,
                        converged: true,
                    }
                })
                .collect()
        }
    };
    NodeSweep {
        workload,
        horizon: cfg.horizon,
        replications: cfg.replications,
        points,
    }
}

/// Build a sweep point from the mean per-replication result of the
/// adaptive mode.
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
            replications: 2,
            exec: Runner::new(2),
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
            assert!(p.converged);
        }
    }

    #[test]
    fn open_sweep_adaptive_spends_replications_per_point() {
        let grid = [1e-9, 0.01, 1.0];
        let cfg = NodeSweepConfig {
            horizon: 150.0,
            open_rule: Some(StoppingRule::relative(0.08).with_budget(3, 24, 3)),
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
        cfg.open_rule = Some(StoppingRule::relative(0.01).with_budget(4, 64, 4));
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
