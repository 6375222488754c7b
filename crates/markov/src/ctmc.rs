//! Continuous-time Markov chains: construction and steady-state solution.
//!
//! Two solvers:
//!
//! * **GTH** (Grassmann–Taksar–Heyman) — direct state reduction using only
//!   non-negative quantities; the numerically preferred method for
//!   steady-state chains. `O(n³)`, used up to [`Ctmc::DENSE_LIMIT`] states.
//! * **Uniformized power iteration** — `π ← πP` with `P = I + Q/Λ`; sparse,
//!   memory-light, used for larger chains (e.g. the Erlang phase-type
//!   expansions of [`crate::phase`]).
//!
//! Rates are kept sorted by `(from, to)`, so every sum over them — exit
//! rates, the power iteration, the balance residual, and the edge lists
//! [`Ctmc::for_each_rate`] hands out — runs in one fixed order, and two
//! builds of the same chain solve to the same bits whatever order their
//! rates were added in.

use std::collections::BTreeMap;

/// A CTMC specified by its off-diagonal transition rates.
#[derive(Debug, Clone)]
pub struct Ctmc {
    n: usize,
    /// Off-diagonal rates, aggregated and sorted: `(from, to) -> rate`.
    rates: BTreeMap<(usize, usize), f64>,
}

/// Errors from CTMC construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum CtmcError {
    /// A rate was negative, NaN, or infinite.
    BadRate {
        /// Source state.
        from: usize,
        /// Destination state.
        to: usize,
    },
    /// A state index was out of range.
    StateOutOfRange(usize),
    /// A self-loop rate was supplied (meaningless in a CTMC generator).
    SelfLoop(usize),
    /// The iterative solver did not converge within the iteration budget.
    NoConvergence {
        /// Iterations performed.
        iterations: usize,
        /// Final residual.
        residual: f64,
    },
    /// The chain has no states.
    Empty,
}

impl std::fmt::Display for CtmcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CtmcError::BadRate { from, to } => write!(f, "bad rate on edge {from}->{to}"),
            CtmcError::StateOutOfRange(s) => write!(f, "state {s} out of range"),
            CtmcError::SelfLoop(s) => write!(f, "self-loop rate on state {s}"),
            CtmcError::NoConvergence {
                iterations,
                residual,
            } => write!(
                f,
                "power iteration did not converge after {iterations} iterations (residual {residual:.3e})"
            ),
            CtmcError::Empty => write!(f, "chain has no states"),
        }
    }
}

impl std::error::Error for CtmcError {}

impl Ctmc {
    /// Chains at or below this size use the dense GTH solver.
    pub const DENSE_LIMIT: usize = 512;

    /// New chain with `n` states and no transitions.
    pub fn new(n: usize) -> Self {
        Ctmc {
            n,
            rates: BTreeMap::new(),
        }
    }

    /// Build from an edge list; parallel edges are summed.
    pub fn from_rates(
        n: usize,
        edges: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> Result<Self, CtmcError> {
        let mut c = Ctmc::new(n);
        for (from, to, rate) in edges {
            c.add_rate(from, to, rate)?;
        }
        Ok(c)
    }

    /// Add (accumulate) a transition rate.
    pub fn add_rate(&mut self, from: usize, to: usize, rate: f64) -> Result<(), CtmcError> {
        if from >= self.n {
            return Err(CtmcError::StateOutOfRange(from));
        }
        if to >= self.n {
            return Err(CtmcError::StateOutOfRange(to));
        }
        if from == to {
            return Err(CtmcError::SelfLoop(from));
        }
        if !rate.is_finite() || rate < 0.0 {
            return Err(CtmcError::BadRate { from, to });
        }
        if rate > 0.0 {
            *self.rates.entry((from, to)).or_insert(0.0) += rate;
        }
        Ok(())
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.n
    }

    /// Visit every aggregated off-diagonal rate as `(from, to, rate)`, in
    /// `(from, to)` order.
    pub fn for_each_rate(&self, mut f: impl FnMut(usize, usize, f64)) {
        for (&(from, to), &r) in &self.rates {
            f(from, to, r);
        }
    }

    /// Total exit rate of a state.
    pub fn exit_rate(&self, s: usize) -> f64 {
        self.rates
            .range((s, 0)..=(s, usize::MAX))
            .map(|(_, &r)| r)
            .sum()
    }

    /// Steady-state distribution. Picks GTH for small chains, uniformized
    /// power iteration for large ones; falls back to power iteration when
    /// GTH detects reducibility.
    pub fn steady_state(&self) -> Result<Vec<f64>, CtmcError> {
        if self.n == 0 {
            return Err(CtmcError::Empty);
        }
        if self.n <= Self::DENSE_LIMIT {
            if let Some(pi) = self.try_steady_state_gth() {
                return Ok(pi);
            }
        }
        self.steady_state_power(2_000_000, 1e-12)
    }

    /// GTH state reduction (exact up to floating point; uses only additions,
    /// multiplications and divisions of non-negative quantities, which is
    /// why it is the numerically preferred direct method).
    ///
    /// Requires an **irreducible** chain; panics otherwise. Use
    /// [`Ctmc::steady_state`] for automatic fallback.
    pub fn steady_state_gth(&self) -> Vec<f64> {
        self.try_steady_state_gth()
            .expect("GTH requires an irreducible chain")
    }

    /// GTH that reports reducibility as `None` instead of panicking.
    pub fn try_steady_state_gth(&self) -> Option<Vec<f64>> {
        let n = self.n;
        if n == 0 {
            return None;
        }
        if n == 1 {
            return Some(vec![1.0]);
        }
        // Dense rate matrix (off-diagonal only).
        let mut q = vec![0.0; n * n];
        for (&(f, t), &r) in &self.rates {
            q[f * n + t] += r;
        }

        // GTH elimination of states n-1 down to 1. `s[k]` is state k's
        // total rate into {0..k-1} before normalization.
        let mut s = vec![0.0; n];
        for k in (1..n).rev() {
            let total: f64 = (0..k).map(|j| q[k * n + j]).sum();
            if total <= 0.0 {
                // State k cannot reach lower-indexed states: the chain is
                // reducible and the plain GTH recursion does not apply.
                return None;
            }
            s[k] = total;
            for j in 0..k {
                q[k * n + j] /= total;
            }
            for i in 0..k {
                let qik = q[i * n + k];
                if qik > 0.0 {
                    for j in 0..k {
                        if j != i {
                            q[i * n + j] += qik * q[k * n + j];
                        }
                    }
                }
            }
        }

        // Back-substitution: pi[k] = (Σ_{j<k} pi[j] q[j][k]) / s[k].
        let mut pi = vec![0.0; n];
        pi[0] = 1.0;
        for k in 1..n {
            let inflow: f64 = (0..k).map(|j| pi[j] * q[j * n + k]).sum();
            pi[k] = inflow / s[k];
        }
        let total: f64 = pi.iter().sum();
        for p in pi.iter_mut() {
            *p /= total;
        }
        Some(pi)
    }

    /// Uniformized power iteration: builds `P = I + Q/Λ` (sparse) and
    /// iterates `π ← πP` until the max-norm change is below `tol`.
    pub fn steady_state_power(&self, max_iters: usize, tol: f64) -> Result<Vec<f64>, CtmcError> {
        let n = self.n;
        if n == 0 {
            return Err(CtmcError::Empty);
        }
        // Exit rates and uniformization constant.
        let mut exit = vec![0.0; n];
        for (&(f, _), &r) in &self.rates {
            exit[f] += r;
        }
        let lambda = exit.iter().cloned().fold(0.0, f64::max) * 1.02 + 1e-9;

        // P's columns as CSR: `sources[start[t]..start[t + 1]]` are the
        // `(from, rate / Λ)` entries into `t`, sources ascending, so
        // gathering `next[t]` adds the same terms in the same order as
        // scattering the `(from, to)`-sorted edges would.
        let mut start = vec![0usize; n + 1];
        for &(_, t) in self.rates.keys() {
            start[t + 1] += 1;
        }
        for t in 0..n {
            start[t + 1] += start[t];
        }
        let mut fill = start.clone();
        let mut sources = vec![(0usize, 0.0f64); self.rates.len()];
        for (&(f, t), &r) in &self.rates {
            sources[fill[t]] = (f, r / lambda);
            fill[t] += 1;
        }
        // P's diagonal.
        let stay: Vec<f64> = exit.iter().map(|&e| 1.0 - e / lambda).collect();

        let mut pi = vec![1.0 / n as f64; n];
        let mut next = vec![0.0; n];
        for _ in 0..max_iters {
            // next = pi * P, with P = I + (Q_offdiag - diag(exit))/lambda.
            let mut diff: f64 = 0.0;
            for (t, x) in next.iter_mut().enumerate() {
                let mut acc = pi[t] * stay[t];
                for &(f, p) in &sources[start[t]..start[t + 1]] {
                    acc += pi[f] * p;
                }
                diff = diff.max((acc - pi[t]).abs());
                *x = acc;
            }
            std::mem::swap(&mut pi, &mut next);
            if diff < tol {
                // Normalize (guards drift).
                let total: f64 = pi.iter().sum();
                for p in pi.iter_mut() {
                    *p /= total;
                }
                return Ok(pi);
            }
        }
        let residual = pi
            .iter()
            .zip(next.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        Err(CtmcError::NoConvergence {
            iterations: max_iters,
            residual,
        })
    }

    /// Verify `π·Q ≈ 0` (max-norm of the balance residual).
    pub fn balance_residual(&self, pi: &[f64]) -> f64 {
        let mut flow = vec![0.0; self.n];
        for (&(f, t), &r) in &self.rates {
            flow[f] -= pi[f] * r;
            flow[t] += pi[f] * r;
        }
        flow.iter().cloned().map(f64::abs).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two-state chain: up -(a)-> down, down -(b)-> up.
    /// Steady state: pi_up = b/(a+b), pi_down = a/(a+b).
    #[test]
    fn two_state_analytic() {
        let c = Ctmc::from_rates(2, [(0, 1, 2.0), (1, 0, 3.0)]).unwrap();
        let pi = c.steady_state().unwrap();
        assert!((pi[0] - 0.6).abs() < 1e-12);
        assert!((pi[1] - 0.4).abs() < 1e-12);
        assert!(c.balance_residual(&pi) < 1e-12);
    }

    #[test]
    fn power_matches_gth() {
        let edges = [
            (0usize, 1usize, 1.0),
            (1, 2, 2.0),
            (2, 0, 3.0),
            (2, 1, 0.5),
            (1, 0, 0.25),
        ];
        let c = Ctmc::from_rates(3, edges).unwrap();
        let gth = c.steady_state_gth();
        let pow = c.steady_state_power(1_000_000, 1e-13).unwrap();
        for (a, b) in gth.iter().zip(pow.iter()) {
            assert!((a - b).abs() < 1e-8, "gth={a} pow={b}");
        }
    }

    #[test]
    fn mm1k_queue_distribution() {
        // M/M/1/K birth-death: lambda=1, mu=2, K=5.
        // pi_k ∝ rho^k.
        let k = 5;
        let mut c = Ctmc::new(k + 1);
        for i in 0..k {
            c.add_rate(i, i + 1, 1.0).unwrap();
            c.add_rate(i + 1, i, 2.0).unwrap();
        }
        let pi = c.steady_state().unwrap();
        let rho: f64 = 0.5;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for (i, p) in pi.iter().enumerate() {
            let expect = rho.powi(i as i32) / norm;
            assert!((p - expect).abs() < 1e-12, "state {i}: {p} vs {expect}");
        }
    }

    #[test]
    fn parallel_edges_summed() {
        let c = Ctmc::from_rates(2, [(0, 1, 1.0), (0, 1, 1.0), (1, 0, 2.0)]).unwrap();
        let pi = c.steady_state().unwrap();
        // Effective 2.0 both ways -> uniform.
        assert!((pi[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn error_cases() {
        let mut c = Ctmc::new(2);
        assert!(matches!(c.add_rate(0, 0, 1.0), Err(CtmcError::SelfLoop(0))));
        assert!(matches!(
            c.add_rate(0, 5, 1.0),
            Err(CtmcError::StateOutOfRange(5))
        ));
        assert!(matches!(
            c.add_rate(0, 1, -1.0),
            Err(CtmcError::BadRate { .. })
        ));
        assert!(matches!(
            c.add_rate(0, 1, f64::NAN),
            Err(CtmcError::BadRate { .. })
        ));
        assert!(matches!(Ctmc::new(0).steady_state(), Err(CtmcError::Empty)));
    }

    #[test]
    fn exit_rate_sums_outgoing() {
        let c = Ctmc::from_rates(3, [(0, 1, 1.5), (0, 2, 2.5), (1, 0, 1.0)]).unwrap();
        assert!((c.exit_rate(0) - 4.0).abs() < 1e-12);
        assert!((c.exit_rate(1) - 1.0).abs() < 1e-12);
        assert_eq!(c.exit_rate(2), 0.0);
    }

    #[test]
    fn absorbing_state_gets_all_mass() {
        // 0 -> 1, no way back: state 1 absorbs. GTH declines (reducible),
        // the auto solver falls back to power iteration.
        let c = Ctmc::from_rates(2, [(0, 1, 1.0)]).unwrap();
        assert!(c.try_steady_state_gth().is_none());
        let pi = c.steady_state().unwrap();
        assert!(pi[1] > 0.999, "pi = {pi:?}");
    }

    #[test]
    fn power_iteration_ignores_insertion_order() {
        // 600 states (beyond DENSE_LIMIT, so the power solver runs), three
        // out-rates per state with values whose sums round differently in
        // different orders: (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3).
        let n = 600;
        let edges: Vec<(usize, usize, f64)> = (0..n)
            .flat_map(|i| {
                [
                    (i, (i + 1) % n, 0.1 * (1 + i % 5) as f64),
                    (i, (i * 7 + 3) % n, 0.2 + 0.01 * (i % 3) as f64),
                    (i, (i * 13 + 5) % n, 0.3 / (1 + i % 4) as f64),
                ]
            })
            .filter(|&(f, t, _)| f != t)
            .collect();
        let forward = Ctmc::from_rates(n, edges.iter().copied()).unwrap();
        let reverse = Ctmc::from_rates(n, edges.iter().rev().copied()).unwrap();
        let a = forward.steady_state().unwrap();
        let b = reverse.steady_state().unwrap();
        let bits = |pi: &[f64]| pi.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a), bits(&b));
        assert_eq!(
            forward.balance_residual(&a).to_bits(),
            reverse.balance_residual(&b).to_bits()
        );
        assert!(forward.balance_residual(&a) < 1e-9);
    }

    #[test]
    fn larger_chain_power_solver() {
        // Ring of 600 states (beyond DENSE_LIMIT) with uniform rates:
        // steady state must be uniform.
        let n = 600;
        let mut c = Ctmc::new(n);
        for i in 0..n {
            c.add_rate(i, (i + 1) % n, 1.0).unwrap();
        }
        let pi = c.steady_state().unwrap();
        for &p in &pi {
            assert!((p - 1.0 / n as f64).abs() < 1e-6);
        }
    }
}
