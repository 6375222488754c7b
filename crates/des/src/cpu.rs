//! Exact discrete-event simulation of the power-managed CPU.
//!
//! This is the reproduction of the paper's ground-truth "simulator"
//! (Sec. IV), built strictly from the four modeling assumptions of
//! Sec. III-A:
//!
//! 1. Poisson job arrivals with rate λ;
//! 2. exponential service times with mean 1/μ;
//! 3. the CPU enters standby after idling longer than the Power-Down
//!    Threshold `T`;
//! 4. powering up takes a constant delay `D` (jobs arriving meanwhile
//!    queue up).
//!
//! The simulator tracks exact dwell times in the four power states and
//! integrates energy with the Table III rates, giving the solid "Simulation"
//! curves of Figs. 4–9.

use crate::kernel::Clock;
use crate::rng::DesRng;
use energy::{ComponentPower, Energy, PowerState, StateTimes, StateTracker};
use serde::{Deserialize, Serialize};

/// Parameters of a CPU simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CpuSimParams {
    /// Job arrival rate λ (jobs/s).
    pub lambda: f64,
    /// Service rate μ (jobs/s); mean service time is `1/mu`.
    pub mu: f64,
    /// Power-Down Threshold `T` (s).
    pub power_down_threshold: f64,
    /// Power-Up Delay `D` (s).
    pub power_up_delay: f64,
    /// Simulated horizon (s). The paper uses 1000 s (Table II).
    pub horizon: f64,
}

impl CpuSimParams {
    /// Table II parameters: λ = 1/s, mean service 0.1 s (μ = 10/s),
    /// horizon 1000 s.
    pub fn paper_defaults(power_down_threshold: f64, power_up_delay: f64) -> Self {
        CpuSimParams {
            lambda: 1.0,
            mu: 10.0,
            power_down_threshold,
            power_up_delay,
            horizon: 1000.0,
        }
    }
}

/// Results of one CPU simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuSimResult {
    /// Exact dwell times per power state.
    pub times: StateTimes,
    /// Number of sleep→wake transitions.
    pub wakeups: u64,
    /// Jobs completed within the horizon.
    pub jobs_served: u64,
    /// Jobs generated within the horizon.
    pub jobs_arrived: u64,
}

impl CpuSimResult {
    /// State-probability vector `[standby, powerup, idle, active]`
    /// (fractions of the horizon) — the y-axis of Figs. 4–6.
    pub fn probabilities(&self) -> [f64; 4] {
        [
            self.times.fraction(PowerState::Sleep),
            self.times.fraction(PowerState::Wakeup),
            self.times.fraction(PowerState::Idle),
            self.times.fraction(PowerState::Active),
        ]
    }

    /// Total energy under a power table (Eq. 7) — the y-axis of Figs. 7–9.
    pub fn energy(&self, power: &ComponentPower) -> Energy {
        self.times.energy(power)
    }
}

/// Run the CPU simulation for the given seed.
pub fn simulate_cpu(params: &CpuSimParams, seed: u64) -> CpuSimResult {
    assert!(
        params.lambda > 0.0 && params.mu > 0.0,
        "rates must be positive"
    );
    assert!(
        params.power_down_threshold >= 0.0 && params.power_up_delay >= 0.0,
        "delays must be non-negative"
    );
    assert!(params.horizon > 0.0, "horizon must be positive");

    let mut rng = DesRng::seed_from_u64(seed);
    let mut seq = 0;
    let mut tracker = StateTracker::new(PowerState::Sleep, 0.0);
    let mut buffer: u64 = 0;
    let mut jobs_served = 0u64;
    let mut jobs_arrived = 0u64;

    // The Poisson arrival stream, and the CPU's one pending event: the end
    // of its wake-up, of its service or of its idle threshold, by its
    // power state (idle while it sleeps).
    let mut arrival = Clock::after(0.0, rng.exp(params.lambda), 0, &mut seq);
    let mut cpu = Clock::IDLE;

    loop {
        let arrives = arrival.precedes(&cpu);
        let now = if arrives { arrival.time() } else { cpu.time() };
        if now >= params.horizon {
            break;
        }
        if arrives {
            jobs_arrived += 1;
            buffer += 1;
            // Next arrival (Poisson stream never stops).
            arrival = Clock::after(now, rng.exp(params.lambda), 0, &mut seq);
            match tracker.state() {
                PowerState::Sleep => {
                    // Begin the fixed power-up; jobs queue meanwhile.
                    tracker.transition_to(PowerState::Wakeup, now);
                    cpu = Clock::after(now, params.power_up_delay, 0, &mut seq);
                }
                PowerState::Idle => {
                    // Replace the pending power-down with service.
                    tracker.transition_to(PowerState::Active, now);
                    cpu = Clock::after(now, rng.exp(params.mu), 0, &mut seq);
                }
                // Waking or serving: the job is served after those ahead.
                PowerState::Wakeup | PowerState::Active => {}
            }
            continue;
        }
        match tracker.state() {
            PowerState::Wakeup => {
                // Wake-up only starts on an arrival and jobs are never
                // cancelled (assumption 4), so work is waiting.
                debug_assert!(buffer > 0);
                tracker.transition_to(PowerState::Active, now);
                cpu = Clock::after(now, rng.exp(params.mu), 0, &mut seq);
            }
            PowerState::Active => {
                debug_assert!(buffer > 0);
                buffer -= 1;
                jobs_served += 1;
                cpu = if buffer > 0 {
                    Clock::after(now, rng.exp(params.mu), 0, &mut seq)
                } else {
                    tracker.transition_to(PowerState::Idle, now);
                    // Priority 1: the threshold loses exact ties.
                    Clock::after(now, params.power_down_threshold, 1, &mut seq)
                };
            }
            PowerState::Idle => {
                tracker.transition_to(PowerState::Sleep, now);
                cpu = Clock::IDLE;
            }
            PowerState::Sleep => unreachable!("the CPU clock is idle while asleep"),
        }
    }

    let (times, wakeups) = tracker.finish(params.horizon);
    CpuSimResult {
        times,
        wakeups,
        jobs_served,
        jobs_arrived,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::PXA271_CPU;

    fn run(t: f64, d: f64, seed: u64) -> CpuSimResult {
        let mut p = CpuSimParams::paper_defaults(t, d);
        p.horizon = 5000.0;
        simulate_cpu(&p, seed)
    }

    #[test]
    fn dwell_times_cover_horizon() {
        let r = run(0.1, 0.3, 1);
        assert!((r.times.total() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn active_fraction_near_utilization() {
        // Work conservation: active fraction ≈ rho = 0.1.
        let r = run(0.5, 0.001, 2);
        let [_, _, _, active] = r.probabilities();
        assert!((active - 0.1).abs() < 0.02, "active={active}");
    }

    #[test]
    fn tiny_threshold_sleeps_a_lot() {
        let r = run(0.001, 0.001, 3);
        let [standby, _, idle, _] = r.probabilities();
        assert!(standby > 0.8, "standby={standby}");
        assert!(idle < 0.01, "idle={idle}");
    }

    #[test]
    fn huge_threshold_never_sleeps() {
        let r = run(1e9, 0.001, 4);
        let [standby, powerup, idle, _] = r.probabilities();
        // Starts asleep; wakes once; never sleeps again.
        assert!(standby < 0.01, "standby={standby}");
        assert!(powerup < 0.01);
        assert!(idle > 0.8, "idle={idle}");
        assert!(r.wakeups <= 1);
    }

    #[test]
    fn idle_grows_with_threshold() {
        let small = run(0.01, 0.001, 5).probabilities()[2];
        let large = run(1.0, 0.001, 5).probabilities()[2];
        assert!(large > small, "idle: {small} -> {large}");
    }

    #[test]
    fn wakeups_fall_with_threshold() {
        let many = run(0.001, 0.001, 6).wakeups;
        let few = run(2.0, 0.001, 6).wakeups;
        assert!(few < many, "wakeups: {many} -> {few}");
    }

    #[test]
    fn large_powerup_delay_accumulates_queue() {
        // D = 10 s at lambda = 1/s queues ~10 jobs per wake-up; they all
        // get served (rho < 1), so served ≈ arrived over a long run.
        let r = run(0.001, 10.0, 7);
        assert!(r.jobs_arrived > 0);
        let served_frac = r.jobs_served as f64 / r.jobs_arrived as f64;
        assert!(served_frac > 0.95, "served fraction {served_frac}");
        // Substantial time spent powering up.
        let [_, powerup, _, _] = r.probabilities();
        assert!(powerup > 0.2, "powerup={powerup}");
    }

    #[test]
    fn energy_consistent_with_probabilities() {
        let r = run(0.1, 0.3, 8);
        let e = r.energy(&PXA271_CPU).joules();
        let [s, w, i, a] = r.probabilities();
        let manual = (s * 17.0 + w * 192.976 + i * 88.0 + a * 193.0) * 1e-3 * r.times.total();
        assert!((e - manual).abs() < 1e-9, "{e} vs {manual}");
    }

    #[test]
    fn reproducible_per_seed() {
        let a = run(0.05, 0.3, 42);
        let b = run(0.05, 0.3, 42);
        assert_eq!(a, b);
        let c = run(0.05, 0.3, 43);
        assert_ne!(a.times, c.times);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let r = run(0.2, 0.3, 9);
        let total: f64 = r.probabilities().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_rejected() {
        let mut p = CpuSimParams::paper_defaults(0.1, 0.1);
        p.horizon = 0.0;
        let _ = simulate_cpu(&p, 1);
    }

    fn with_delays(t: f64, d: f64) {
        let _ = simulate_cpu(&CpuSimParams::paper_defaults(t, d), 1);
    }

    #[test]
    #[should_panic(expected = "delays must be non-negative")]
    fn negative_threshold_rejected() {
        with_delays(-0.1, 0.3);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn infinite_threshold_rejected() {
        with_delays(f64::INFINITY, 0.3);
    }

    #[test]
    #[should_panic(expected = "delays must be non-negative")]
    fn negative_power_up_delay_rejected() {
        with_delays(0.1, -0.3);
    }

    #[test]
    #[should_panic(expected = "delays must be non-negative")]
    fn nan_power_up_delay_rejected() {
        with_delays(0.1, f64::NAN);
    }
}
