//! Experiment drivers: one module per family of tables/figures.
//!
//! Every published artifact of the paper's evaluation is regenerated by a
//! function here (the `repro` binary and the benches are thin shells over
//! these):
//!
//! * [`cpu_comparison`] — Figs. 4–9 and Tables IV–VI: the three-way
//!   Simulation / Markov / Petri-net comparison of the power-managed CPU.
//! * [`simple_system`] — Tables VIII–X: the simple sensor system and the
//!   (emulated) IMote2 validation.
//! * [`node_energy`] — Figs. 14–15: Power-Down-Threshold sweeps of the
//!   closed and open node models with full energy breakdowns.
//! * [`ablations`] — beyond the paper: Erlang-k Markovization error,
//!   memory-policy sensitivity, seed/replication sensitivity, and the
//!   trigger-vs-schedule workload comparison.
//! * [`validation`] — the Petri-vs-DES cross-check sweep as CSV.
//!
//! Every stochastic sweep estimates its points under one
//! [`StoppingRule`]: replications run in rounds until the watched 95 % CIs
//! settle or the budget runs out (the paper only says its models ran
//! "until steady state probability values were obtained", Sec. V). The
//! deterministic closed workload runs one replication per point instead.

pub mod ablations;
pub mod cpu_comparison;
pub mod jobs;
pub mod node_energy;
pub mod simple_system;
pub mod validation;

use sim_core::StoppingRule;

/// The replication budget of the paper-horizon stochastic sweeps: a 3 %
/// relative CI on the watched metrics, 4 to 64 replications per point in
/// rounds of 4. The driver configs default to it.
pub fn paper_rule() -> StoppingRule {
    StoppingRule::relative(0.03).with_budget(4, 64, 4)
}

/// The budget of the short-horizon smoke run (`repro --quick`): a 10 %
/// relative CI, 2 to 8 replications per point in rounds of 2.
pub fn quick_rule() -> StoppingRule {
    StoppingRule::relative(0.10).with_budget(2, 8, 2)
}
