//! Ablations beyond the paper (DESIGN.md §6).
//!
//! * **ABL-ERLANG** — how many exponential stages a true Markov chain needs
//!   before it stops "completely failing" on the deterministic timers.
//! * **ABL-MEMORY** — the Power-Down-Threshold under the three
//!   enabling-memory policies: the published optimum is a property of
//!   race-enable semantics.
//! * **ABL-SEED** — replication count vs confidence-interval width for the
//!   Petri CPU model.
//! * **ABL-TRIGGER** — trigger-driven (Poisson) vs schedule-driven
//!   (periodic) arrivals, the operating-mode comparison of Jung et al.
//!   \[12\] whose power table the paper adopts.

use super::jobs::{decode_obs, SeedAblationJob};
use crate::cpu_model::{build_cpu_model_with_arrival, build_cpu_model_with_memory, CpuModelParams};
use des::{simulate_cpu, CpuSimParams};
use markov::phase::{solve_phase_cpu, PhaseCpuConfig};
use markov::supplementary::CpuMarkovParams;
use petri_core::prelude::*;
use serde::{Deserialize, Serialize};
use sim_core::Runner;

/// One row of the Erlang ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErlangRow {
    /// Erlang stages used for both deterministic timers.
    pub stages: u32,
    /// Phase-type CTMC `[standby, powerup, idle, active]`.
    pub probs: [f64; 4],
    /// Max absolute probability error vs the DES ground truth.
    pub max_abs_error: f64,
}

/// ABL-ERLANG: sweep the stage count at fixed `(T, D)`.
///
/// The DES truth run and each stage count's phase solve are independent
/// units on `exec`, the largest stage count first so the longest solve
/// starts at once; rows come back in `stages` order.
pub fn erlang_ablation(
    power_down_threshold: f64,
    power_up_delay: f64,
    stages: &[u32],
    seed: u64,
    exec: &Runner,
) -> Vec<ErlangRow> {
    // Ground truth from a long DES run.
    let mut des_params = CpuSimParams::paper_defaults(power_down_threshold, power_up_delay);
    des_params.horizon = 50_000.0;

    // `None` is the truth run, `Some(i)` the phase solve for `stages[i]`.
    let mut units: Vec<Option<usize>> = (0..stages.len()).map(Some).collect();
    units.sort_unstable_by_key(|u| std::cmp::Reverse(u.map(|i| stages[i])));
    units.insert(units.len().min(1), None);
    let probs = exec.map(&units, |unit| match *unit {
        None => simulate_cpu(&des_params, seed).probabilities(),
        Some(i) => solve_phase_cpu(&PhaseCpuConfig {
            params: CpuMarkovParams {
                lambda: des_params.lambda,
                mu: des_params.mu,
                power_down_threshold,
                power_up_delay,
            },
            stages: stages[i],
            max_queue: 40,
        })
        .expect("phase chain solvable")
        .probabilities(),
    });

    let mut truth = [0.0; 4];
    let mut solved = vec![[0.0; 4]; stages.len()];
    for (unit, p) in units.into_iter().zip(probs) {
        match unit {
            None => truth = p,
            Some(i) => solved[i] = p,
        }
    }
    stages
        .iter()
        .zip(solved)
        .map(|(&k, probs)| {
            let max_abs_error = probs
                .iter()
                .zip(truth.iter())
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            ErlangRow {
                stages: k,
                probs,
                max_abs_error,
            }
        })
        .collect()
}

/// One row of the memory-policy ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryRow {
    /// The policy applied to the Power-Down-Threshold transition.
    pub policy: MemoryPolicy,
    /// `[standby, powerup, idle, active]` fractions.
    pub probs: [f64; 4],
    /// Wake-ups over the horizon.
    pub wakeups: f64,
}

/// ABL-MEMORY: simulate the CPU net under each memory policy, one
/// independent run per policy on `exec`.
pub fn memory_ablation(
    params: &CpuModelParams,
    horizon: f64,
    seed: u64,
    exec: &Runner,
) -> Vec<MemoryRow> {
    let policies = [
        MemoryPolicy::RaceEnable,
        MemoryPolicy::RaceAge,
        MemoryPolicy::Resample,
    ];
    exec.map(&policies, |&policy| {
        let model = build_cpu_model_with_memory(params, policy);
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(horizon));
        let r_standby = sim.reward_place(model.places.stand_by);
        let r_powerup = sim.reward_place(model.places.powering_up);
        let r_idle = sim.reward_place(model.places.idle);
        let r_active = sim.reward_place(model.places.active);
        let r_wake = sim.reward_firings(model.transitions.t1);
        let out = sim.run(seed).expect("CPU net runs");
        MemoryRow {
            policy,
            probs: [
                out.reward(r_standby),
                out.reward(r_powerup),
                out.reward(r_idle),
                out.reward(r_active),
            ],
            wakeups: out.reward(r_wake),
        }
    })
}

/// One row of the seed-sensitivity ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeedRow {
    /// Replications used.
    pub replications: u64,
    /// Mean standby probability across replications.
    pub mean_standby: f64,
    /// 95 % CI half-width of the standby probability.
    pub ci_half_width: f64,
}

/// ABL-SEED: confidence-interval width vs replication count for the CPU
/// net's standby probability.
///
/// Row `n` uses replications seeded `child_seed(base_seed, 0..n)`, so every
/// row is a prefix of the longest one: simulate `max(counts)` replications
/// once on the executor seam (in-process or sharded — same bytes) and fold
/// each row over its prefix — the same bits as running each row
/// independently, at a fraction of the work.
pub fn seed_ablation(
    params: &CpuModelParams,
    horizon: f64,
    replication_counts: &[u64],
    base_seed: u64,
    exec: &Runner,
) -> Vec<SeedRow> {
    let max_reps = replication_counts.iter().copied().max().unwrap_or(0);
    let job = SeedAblationJob {
        params: *params,
        horizon,
    };
    let mut per_point = exec
        .run_job(&job, &[max_reps], &|_point, i| {
            petri_core::rng::SimRng::child_seed(base_seed, i)
        })
        .unwrap_or_else(|e| panic!("seed ablation grid failed: {e}"));
    let observations: Vec<f64> = per_point
        .pop()
        .expect("one point scheduled")
        .iter()
        .map(|bytes| {
            let obs = decode_obs(bytes, "seed-ablation slot").unwrap_or_else(|e| panic!("{e}"));
            obs[0]
        })
        .collect();
    replication_counts
        .iter()
        .map(|&n| {
            let mut w = Welford::new();
            for &x in &observations[..n as usize] {
                w.push(x);
            }
            let ci = w.confidence_interval(ConfidenceLevel::P95);
            SeedRow {
                replications: n,
                mean_standby: ci.mean,
                ci_half_width: ci.half_width,
            }
        })
        .collect()
}

/// One row of the trigger-vs-schedule ablation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TriggerRow {
    /// True for Poisson ("trigger-driven"), false for periodic
    /// ("schedule-driven") arrivals.
    pub trigger_driven: bool,
    /// `[standby, powerup, idle, active]` fractions.
    pub probs: [f64; 4],
    /// Wake-ups over the horizon.
    pub wakeups: f64,
    /// Energy over the horizon (J) under the PXA271 table.
    pub energy_j: f64,
}

/// ABL-TRIGGER: same mean arrival rate, Poisson vs periodic, same CPU.
///
/// Schedule-driven arrivals are perfectly regular, so for thresholds below
/// the period the CPU sleeps exactly once per job; Poisson arrivals bunch,
/// letting the CPU ride through bursts — the lifetime difference Jung et
/// al. modeled, here answered with the paper's own Petri machinery. The
/// two arrival modes run as independent units on `exec`.
pub fn trigger_ablation(
    params: &CpuModelParams,
    horizon: f64,
    seed: u64,
    exec: &Runner,
) -> Vec<TriggerRow> {
    exec.map(&[true, false], |&trigger_driven| {
        let arrival = if trigger_driven {
            Timing::exponential(params.lambda)
        } else {
            Timing::deterministic(1.0 / params.lambda)
        };
        let model = build_cpu_model_with_arrival(params, arrival);
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(horizon));
        let r_standby = sim.reward_place(model.places.stand_by);
        let r_powerup = sim.reward_place(model.places.powering_up);
        let r_idle = sim.reward_place(model.places.idle);
        let r_active = sim.reward_place(model.places.active);
        let r_wake = sim.reward_firings(model.transitions.t1);
        let out = sim.run(seed).expect("CPU net runs");
        let probs = [
            out.reward(r_standby),
            out.reward(r_powerup),
            out.reward(r_idle),
            out.reward(r_active),
        ];
        let energy_j = energy::PXA271_CPU
            .average(probs[0], probs[1], probs[2], probs[3])
            .over_seconds(horizon)
            .joules();
        TriggerRow {
            trigger_driven,
            probs,
            wakeups: out.reward(r_wake),
            energy_j,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erlang_error_shrinks_with_stages() {
        let rows = erlang_ablation(0.3, 0.3, &[1, 4, 16], 1, &Runner::new(2));
        assert_eq!(rows.len(), 3);
        assert!(
            rows[2].max_abs_error < rows[0].max_abs_error,
            "k=16 err {} !< k=1 err {}",
            rows[2].max_abs_error,
            rows[0].max_abs_error
        );
    }

    #[test]
    fn memory_policies_differ() {
        // Race-age lets the threshold accumulate across interruptions, so
        // the CPU sleeps more than under race-enable.
        let params = CpuModelParams::paper_defaults(0.5, 0.001);
        let rows = memory_ablation(&params, 5000.0, 2, &Runner::new(2));
        let by = |p: MemoryPolicy| rows.iter().find(|r| r.policy == p).unwrap();
        let enable = by(MemoryPolicy::RaceEnable);
        let age = by(MemoryPolicy::RaceAge);
        assert!(
            age.probs[0] > enable.probs[0],
            "race-age standby {} should exceed race-enable {}",
            age.probs[0],
            enable.probs[0]
        );
        // Resample postpones deterministic firings at every marking change:
        // the CPU should essentially never manage to sleep.
        let resample = by(MemoryPolicy::Resample);
        assert!(
            resample.probs[0] <= enable.probs[0] + 0.02,
            "resample standby {} should not exceed race-enable {}",
            resample.probs[0],
            enable.probs[0]
        );
    }

    #[test]
    fn trigger_vs_schedule_differ() {
        // With PDT below the period, periodic arrivals force a sleep/wake
        // per job; Poisson bunching lets some jobs share an awake window,
        // so the trigger-driven CPU wakes fewer times per job.
        let params = CpuModelParams::paper_defaults(0.3, 0.3);
        let rows = trigger_ablation(&params, 10_000.0, 3, &Runner::new(2));
        assert_eq!(rows.len(), 2);
        let trigger = rows.iter().find(|r| r.trigger_driven).unwrap();
        let schedule = rows.iter().find(|r| !r.trigger_driven).unwrap();
        assert!(
            trigger.wakeups < schedule.wakeups,
            "trigger {} vs schedule {}",
            trigger.wakeups,
            schedule.wakeups
        );
        // Both see the same utilization.
        assert!((trigger.probs[3] - schedule.probs[3]).abs() < 0.02);
    }

    #[test]
    fn seed_ci_narrows_with_replications() {
        let params = CpuModelParams::paper_defaults(0.3, 0.3);
        let rows = seed_ablation(&params, 500.0, &[4, 16], 7, &Runner::new(2));
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].ci_half_width < rows[0].ci_half_width,
            "CI must narrow: {rows:?}"
        );
    }
}
