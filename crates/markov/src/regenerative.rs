//! The exact steady state of the power-managed CPU by a regenerative
//! argument: an M/G/1 queue whose first job of each busy period waits out
//! a power-up first (Welch, 1964, "On a generalized M/G/1 queuing process
//! in which the first customer of each busy period receives exceptional
//! service"), with an idle timer in front of standby.
//!
//! A cycle starts when the CPU empties. It idles until the timer expires
//! (with the *sleep probability* `q`, the chance that no job arrives
//! first) or a job arrives. Only after a sleep does the next job pay the
//! power-up delay `D`. Counting expected time per busy-period start and
//! using that the CPU is busy a fraction `ρ = λ/μ` of the time (every job
//! is served, whatever waited for it):
//!
//! ```text
//! den = 1/q + λD
//! p_s = (1-ρ)         / den        (standby)
//! p_u = (1-ρ) λD      / den        (power-up)
//! p_i = (1-ρ)(1/q - 1)/ den        (idle)
//! p_a = ρ                          (active)
//! ```
//!
//! Only the mean power-up time enters, and the timer enters only through
//! `q`: `e^{−λT}` for the paper's deterministic threshold,
//! `(1 + λT/k)^{−k}` for an Erlang-k timer (the ABL-ERLANG chains). With
//! an infinite queue this is exact, so it is the oracle for
//! [`crate::phase::solve_phase_cpu`].
//!
//! It differs from the paper's Eqs. (1)–(4) ([`crate::supplementary`]),
//! which with `q = e^{−λT}` share the standby and idle numerators but put
//! `1 − e^{−λD}` (the chance of an arrival during power-up) where the
//! mean number of arrivals `λD` belongs, in `p_u` and in the denominator,
//! and give active `ρ(e^{λT} + λD)/denom` instead of `ρ`. The two agree
//! as `D → 0`; at `D = 10 s` the paper's form fails (its Figs. 6 and 9).

use crate::phase::PhaseCpuSolution;
use crate::supplementary::CpuMarkovParams;

/// Sleep probability of a deterministic threshold `t`: `e^{−λT}`.
pub fn deterministic_sleep_probability(lambda: f64, t: f64) -> f64 {
    (-lambda * t).exp()
}

/// Sleep probability of an Erlang-`k` threshold of mean `t`:
/// `(1 + λT/k)^{−k}`.
pub fn erlang_sleep_probability(lambda: f64, t: f64, k: u32) -> f64 {
    (1.0 + lambda * t / k as f64).powi(-(k as i32))
}

/// The four macro-state probabilities for `params` (whose
/// `power_down_threshold` enters only through `sleep_prob`).
///
/// Panics unless `0 < sleep_prob <= 1` and the queue is stable (ρ < 1).
pub fn cpu_probabilities(params: &CpuMarkovParams, sleep_prob: f64) -> PhaseCpuSolution {
    assert!(
        sleep_prob > 0.0 && sleep_prob <= 1.0,
        "sleep probability must lie in (0, 1]: {sleep_prob}"
    );
    let rho = params.rho();
    assert!(rho < 1.0, "unstable system: rho = {rho} >= 1");
    let ld = params.lambda * params.power_up_delay;
    let den = 1.0 / sleep_prob + ld;
    PhaseCpuSolution {
        p_standby: (1.0 - rho) / den,
        p_powerup: (1.0 - rho) * ld / den,
        p_idle: (1.0 - rho) * (1.0 / sleep_prob - 1.0) / den,
        p_active: rho,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::birth_death;
    use crate::mm1::Mm1;
    use crate::phase::{solve_phase_cpu, PhaseCpuConfig};

    fn params(t: f64, d: f64) -> CpuMarkovParams {
        CpuMarkovParams {
            lambda: 1.0,
            mu: 10.0,
            power_down_threshold: t,
            power_up_delay: d,
        }
    }

    #[test]
    fn exponential_timers_split_standby_evenly() {
        // k = 1 at T = D = 0.3: p_u = p_i = 0.16875 exactly.
        let q = erlang_sleep_probability(1.0, 0.3, 1);
        let s = cpu_probabilities(&params(0.3, 0.3), q);
        assert!((s.p_standby - 0.5625).abs() < 1e-15, "{s:?}");
        assert!((s.p_powerup - 0.16875).abs() < 1e-15, "{s:?}");
        assert!((s.p_idle - 0.16875).abs() < 1e-15, "{s:?}");
        assert_eq!(s.p_active, 0.1);
    }

    #[test]
    fn erlang_sleep_probability_tends_to_the_deterministic_one() {
        let exact = deterministic_sleep_probability(1.0, 0.5);
        let errs: Vec<f64> = [1, 4, 64, 4096]
            .iter()
            .map(|&k| (erlang_sleep_probability(1.0, 0.5, k) - exact).abs())
            .collect();
        assert!(errs.windows(2).all(|w| w[1] < w[0]), "{errs:?}");
        assert!(errs[3] < 1e-4, "{errs:?}");
    }

    #[test]
    fn agrees_with_eqs_1_to_4_as_d_vanishes() {
        let p = params(0.3, 1e-9);
        let exact = cpu_probabilities(&p, deterministic_sleep_probability(1.0, 0.3));
        let paper = p.solve();
        for (a, b) in exact.probabilities().iter().zip(paper.probabilities()) {
            assert!((a - b).abs() < 1e-8, "{exact:?} vs {paper:?}");
        }
    }

    /// The closed form at its two limits, against the plain queue: a
    /// threshold no idle period outlasts leaves an M/M/1 server (idle
    /// whenever empty), and a zero threshold with a negligible power-up
    /// sends every empty period to standby. π₀ comes from a truncated
    /// birth–death chain and is checked against `Mm1`.
    #[test]
    fn limits_reduce_to_the_plain_queue() {
        let mm1 = Mm1::new(1.0, 10.0);
        let pi = birth_death::steady_state(&[mm1.lambda; 200], &[mm1.mu; 200]);
        assert!(
            (pi[0] - mm1.p_empty()).abs() < 1e-15,
            "{} vs {}",
            pi[0],
            mm1.p_empty()
        );

        // Never sleeps: λT = 40, so q = e^{−40}.
        let p = params(40.0, 0.3);
        let never = cpu_probabilities(&p, deterministic_sleep_probability(p.lambda, 40.0));
        assert!((never.p_idle - pi[0]).abs() < 1e-12, "{never:?}");
        assert!(never.p_standby + never.p_powerup < 1e-12, "{never:?}");
        assert_eq!(never.p_active, mm1.rho());

        // Sleeps at once: T = 0, so q = 1, and D = 1e-9.
        let p = params(0.0, 1e-9);
        let at_once = cpu_probabilities(&p, deterministic_sleep_probability(p.lambda, 0.0));
        assert!((at_once.p_standby - pi[0]).abs() < 1e-8, "{at_once:?}");
        assert_eq!(at_once.p_idle, 0.0, "{at_once:?}");
        assert_eq!(at_once.p_active, mm1.rho());
    }

    /// The phase chain at a queue bound where truncation is negligible
    /// matches the closed form on both of its solvers: GTH (k = 2, 363
    /// states) and flow balance (k ≥ 4, past `Ctmc::DENSE_LIMIT`).
    #[test]
    fn phase_chain_matches_the_closed_form() {
        for (t, d) in [(0.5, 10.0), (2.0, 10.0), (0.1, 0.3), (0.3, 0.001)] {
            for k in [2u32, 4, 16, 64] {
                let p = params(t, d);
                let chain = solve_phase_cpu(&PhaseCpuConfig {
                    params: p,
                    stages: k,
                    max_queue: 120,
                })
                .unwrap();
                let exact = cpu_probabilities(&p, erlang_sleep_probability(p.lambda, t, k));
                let err = (chain.probabilities().iter())
                    .zip(exact.probabilities())
                    .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
                assert!(err < 1e-9, "T={t} D={d} k={k}: {err:e}");
            }
        }
    }
}
