//! Erlang phase-type expansion of the power-managed CPU.
//!
//! The ABL-ERLANG ablation: the paper argues that deterministic timers
//! (Power-Down Threshold `T`, Power-Up Delay `D`) put the CPU outside the
//! Markov-chain class. The classical repair is to replace each
//! deterministic delay with an Erlang-k distribution (k exponential stages
//! of rate `k/delay`), which *is* Markovian:
//!
//! * `k = 1` — the naive memoryless chain (exponential timers): large error;
//! * `k → ∞` — converges in distribution to the deterministic timers, so
//!   the CTMC steady state converges to the true system's.
//!
//! Plotting error vs `k` quantifies "how non-Markovian" the CPU is, and
//! shows why the paper needed supplementary variables (and why Petri nets
//! are the pragmatic tool: no state-space surgery required).
//!
//! Chains of up to [`Ctmc::DENSE_LIMIT`] states are solved by GTH; the
//! larger ones (`k = 16, 32, 64` at the ablation's queue bound) by flow
//! balance over the chain's stage structure, exact up to rounding. The
//! closed form of [`crate::regenerative`] is the oracle for both.

use crate::ctmc::{Ctmc, CtmcError};
use crate::supplementary::{CpuMarkovParams, CpuPowerRates};

/// Configuration of the phase-type CPU chain.
#[derive(Debug, Clone, Copy)]
pub struct PhaseCpuConfig {
    /// The CPU parameters being approximated.
    pub params: CpuMarkovParams,
    /// Erlang stages for both deterministic timers (k >= 1).
    pub stages: u32,
    /// Queue truncation (states with more queued jobs are dropped).
    pub max_queue: u32,
}

/// Steady-state probabilities of the four CPU macro-states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseCpuSolution {
    /// Probability of standby.
    pub p_standby: f64,
    /// Probability of powering up (any stage).
    pub p_powerup: f64,
    /// Probability of idle (any timer stage).
    pub p_idle: f64,
    /// Probability of active (any queue length >= 1).
    pub p_active: f64,
}

impl PhaseCpuSolution {
    /// The four state probabilities as an array
    /// `[standby, powerup, idle, active]`.
    pub fn probabilities(&self) -> [f64; 4] {
        [self.p_standby, self.p_powerup, self.p_idle, self.p_active]
    }

    /// Average power (mW) under the given rates.
    pub fn average_power_mw(&self, rates: &CpuPowerRates) -> f64 {
        self.p_standby * rates.standby
            + self.p_powerup * rates.powerup
            + self.p_idle * rates.idle
            + self.p_active * rates.active
    }

    /// Energy (J) over a fixed horizon.
    pub fn energy_for_duration(&self, rates: &CpuPowerRates, duration_s: f64) -> f64 {
        self.average_power_mw(rates) * 1e-3 * duration_s
    }
}

/// State-space layout:
/// `Standby` | `PowerUp(stage 1..=k, queue 1..=Q)` | `Busy(queue 1..=Q)` |
/// `IdleTimer(stage 1..=k)`.
struct Layout {
    k: usize,
    q: usize,
}

impl Layout {
    fn standby(&self) -> usize {
        0
    }
    fn powerup(&self, stage: usize, queue: usize) -> usize {
        debug_assert!((1..=self.k).contains(&stage) && (1..=self.q).contains(&queue));
        1 + (stage - 1) * self.q + (queue - 1)
    }
    fn busy(&self, queue: usize) -> usize {
        debug_assert!((1..=self.q).contains(&queue));
        1 + self.k * self.q + (queue - 1)
    }
    fn idle(&self, stage: usize) -> usize {
        debug_assert!((1..=self.k).contains(&stage));
        1 + self.k * self.q + self.q + (stage - 1)
    }
    fn total(&self) -> usize {
        1 + self.k * self.q + self.q + self.k
    }

    /// Sum a steady state over the four macro-states.
    fn macro_states(&self, pi: &[f64]) -> PhaseCpuSolution {
        let mut sol = PhaseCpuSolution {
            p_standby: pi[self.standby()],
            p_powerup: 0.0,
            p_idle: 0.0,
            p_active: 0.0,
        };
        for s in 1..=self.k {
            for queue in 1..=self.q {
                sol.p_powerup += pi[self.powerup(s, queue)];
            }
            sol.p_idle += pi[self.idle(s)];
        }
        for queue in 1..=self.q {
            sol.p_active += pi[self.busy(queue)];
        }
        sol
    }
}

/// Per-stage rates `(r_u, r_d)` of the two Erlang timers; a zero-length
/// timer degenerates to an immediate hop, approximated by a very fast
/// stage.
fn stage_rates(cfg: &PhaseCpuConfig) -> (f64, f64) {
    let p = &cfg.params;
    let k = cfg.stages as f64;
    let rate = |delay: f64| if delay > 0.0 { k / delay } else { 1e12 };
    (rate(p.power_up_delay), rate(p.power_down_threshold))
}

/// Solve the phase-type chain for the macro-state probabilities: by GTH
/// on its [`Ctmc`] up to [`Ctmc::DENSE_LIMIT`] states, by flow balance
/// (`solve_by_flow`, `O(k·q)`) beyond.
pub fn solve_phase_cpu(cfg: &PhaseCpuConfig) -> Result<PhaseCpuSolution, CtmcError> {
    assert!(cfg.stages >= 1, "need at least one Erlang stage");
    assert!(cfg.max_queue >= 1, "need at least one queue slot");
    let lay = Layout {
        k: cfg.stages as usize,
        q: cfg.max_queue as usize,
    };
    if lay.total() > Ctmc::DENSE_LIMIT {
        return Ok(solve_by_flow(cfg));
    }
    Ok(lay.macro_states(&phase_chain(cfg)?.steady_state()?))
}

/// The phase-type CTMC over [`Layout`]'s states.
fn phase_chain(cfg: &PhaseCpuConfig) -> Result<Ctmc, CtmcError> {
    let (lambda, mu) = (cfg.params.lambda, cfg.params.mu);
    let lay = Layout {
        k: cfg.stages as usize,
        q: cfg.max_queue as usize,
    };
    let (k, q) = (lay.k, lay.q);
    let (stage_rate_up, stage_rate_down) = stage_rates(cfg);
    let mut chain = Ctmc::new(lay.total());

    // Standby --lambda--> PowerUp(1, 1).
    chain.add_rate(lay.standby(), lay.powerup(1, 1), lambda)?;

    for s in 1..=k {
        for queue in 1..=q {
            let here = lay.powerup(s, queue);
            // Arrivals during power-up queue.
            if queue < q {
                chain.add_rate(here, lay.powerup(s, queue + 1), lambda)?;
            }
            // Stage completion.
            let next = if s < k {
                lay.powerup(s + 1, queue)
            } else {
                lay.busy(queue)
            };
            chain.add_rate(here, next, stage_rate_up)?;
        }
    }

    for queue in 1..=q {
        let here = lay.busy(queue);
        if queue < q {
            chain.add_rate(here, lay.busy(queue + 1), lambda)?;
        }
        let next = if queue > 1 {
            lay.busy(queue - 1)
        } else {
            lay.idle(1)
        };
        chain.add_rate(here, next, mu)?;
    }

    for s in 1..=k {
        let here = lay.idle(s);
        // A job interrupts the countdown: straight back to busy.
        chain.add_rate(here, lay.busy(1), lambda)?;
        let next = if s < k {
            lay.idle(s + 1)
        } else {
            lay.standby()
        };
        chain.add_rate(here, next, stage_rate_down)?;
    }
    Ok(chain)
}

/// Solve the chain in `O(k·q)` by flow balance, with standby's weight
/// fixed at 1 (`r_u`, `r_d` the stage rates):
///
/// * a power-up state is entered only from the state one arrival below
///   and the stage before, so `U(s,n) = (λU(s,n−1) + r_u·U(s−1,n) +
///   [s=n=1]·λ) / (λ·[n<q] + r_u)`, row by row over the stages;
/// * the idle countdown is a chain into standby: `I(k) = λ/r_d` and
///   `I(s) = I(s+1)(λ+r_d)/r_d`;
/// * `B(1) = I(1)(λ+r_d)/μ` balances idle stage 1, and the cut above
///   busy level `n` gives `B(n+1) = (λB(n) + r_u·Σ_{m>n} U(k,m))/μ`.
///
/// Every term is a sum of positive products, so nothing cancels (the
/// elimination in the spirit of Grassmann, Taksar & Heyman, 1985, done
/// by hand on the chain's stage structure). This replaces uniformized
/// power iteration, which on the `k = 64` chain needs thousands of sweeps
/// because the stage rates dwarf `λ`.
fn solve_by_flow(cfg: &PhaseCpuConfig) -> PhaseCpuSolution {
    let (lambda, mu) = (cfg.params.lambda, cfg.params.mu);
    let (k, q) = (cfg.stages as usize, cfg.max_queue as usize);
    let (r_u, r_d) = stage_rates(cfg);

    // `row[n - 1]` holds U(s, n) for the stage being computed.
    let mut row = vec![0.0; q];
    let mut powerup = 0.0;
    for s in 1..=k {
        let mut below = 0.0;
        for (i, u) in row.iter_mut().enumerate() {
            let inflow = lambda * below + r_u * *u + if s == 1 && i == 0 { lambda } else { 0.0 };
            let out = if i + 1 < q { lambda + r_u } else { r_u };
            *u = inflow / out;
            powerup += *u;
            below = *u;
        }
    }

    let mut idle_stage = lambda / r_d;
    let mut idle = idle_stage;
    for _ in 1..k {
        idle_stage *= (lambda + r_d) / r_d;
        idle += idle_stage;
    }

    // Turn `row` (U(k, ·)) into the flow above each busy level, summed
    // from the top so nothing is subtracted: `row[n - 1] = Σ_{m>n} U(k, m)`.
    let mut above = 0.0;
    for u in row.iter_mut().rev() {
        (*u, above) = (above, above + *u);
    }
    let mut level = idle_stage * (lambda + r_d) / mu;
    let mut busy = level;
    for &flow in &row[..q - 1] {
        level = (lambda * level + r_u * flow) / mu;
        busy += level;
    }

    let total = 1.0 + powerup + idle + busy;
    PhaseCpuSolution {
        p_standby: 1.0 / total,
        p_powerup: powerup / total,
        p_idle: idle / total,
        p_active: busy / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(t: f64, d: f64, k: u32) -> PhaseCpuConfig {
        PhaseCpuConfig {
            params: CpuMarkovParams {
                lambda: 1.0,
                mu: 10.0,
                power_down_threshold: t,
                power_up_delay: d,
            },
            stages: k,
            max_queue: 30,
        }
    }

    /// Past `Ctmc::DENSE_LIMIT` the flow solve agrees with the chain's
    /// own (uniformized power iteration) steady state.
    #[test]
    fn flow_balance_matches_the_ctmc_solver() {
        for k in [16u32, 32, 64] {
            let mut c = cfg(0.3, 0.3, k);
            c.max_queue = 40;
            let lay = Layout {
                k: k as usize,
                q: 40,
            };
            assert!(lay.total() > Ctmc::DENSE_LIMIT);
            let flow = solve_by_flow(&c).probabilities();
            let pi = phase_chain(&c).unwrap().steady_state().unwrap();
            let power = lay.macro_states(&pi).probabilities();
            for (a, b) in flow.iter().zip(power) {
                assert!((a - b).abs() < 1e-10, "k={k}: {flow:?} vs {power:?}");
            }
        }
    }

    #[test]
    fn probabilities_sum_to_one() {
        let s = solve_phase_cpu(&cfg(0.1, 0.3, 4)).unwrap();
        let total = s.p_standby + s.p_powerup + s.p_idle + s.p_active;
        assert!((total - 1.0).abs() < 1e-9, "total={total}");
    }

    #[test]
    fn active_fraction_near_utilization() {
        // Work conservation: long-run busy fraction ~ rho = 0.1 (slightly
        // above because truncation is mild and wake-up adds backlog).
        let s = solve_phase_cpu(&cfg(0.1, 0.001, 8)).unwrap();
        assert!((s.p_active - 0.1).abs() < 0.02, "p_active={}", s.p_active);
    }

    #[test]
    fn more_stages_approach_supplementary_solution_at_small_d() {
        // At D = 0.001 the supplementary-variable solution is essentially
        // exact, so Erlang-k must converge towards it as k grows.
        let exact = cfg(0.3, 0.001, 1).params.solve();
        let mut errs = Vec::new();
        for k in [1u32, 2, 8, 32] {
            let s = solve_phase_cpu(&cfg(0.3, 0.001, k)).unwrap();
            errs.push((s.p_idle - exact.p_idle).abs() + (s.p_standby - exact.p_standby).abs());
        }
        assert!(
            errs.last().unwrap() < &errs[0],
            "error should shrink with k: {errs:?}"
        );
        assert!(errs.last().unwrap() < &0.02, "final error: {errs:?}");
    }

    #[test]
    fn zero_threshold_means_no_idle_mass() {
        let s = solve_phase_cpu(&cfg(0.0, 0.3, 4)).unwrap();
        assert!(s.p_idle < 1e-6, "p_idle={}", s.p_idle);
    }

    #[test]
    fn energy_increases_with_idle_power_share() {
        let rates = CpuPowerRates::PXA271;
        let low_t = solve_phase_cpu(&cfg(0.001, 0.001, 8)).unwrap();
        let high_t = solve_phase_cpu(&cfg(1.0, 0.001, 8)).unwrap();
        let e_low = low_t.energy_for_duration(&rates, 1000.0);
        let e_high = high_t.energy_for_duration(&rates, 1000.0);
        assert!(
            e_high > e_low,
            "more idling must cost more at tiny D: {e_low} vs {e_high}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one Erlang stage")]
    fn zero_stages_rejected() {
        let mut c = cfg(0.1, 0.1, 1);
        c.stages = 0;
        let _ = solve_phase_cpu(&c);
    }
}
