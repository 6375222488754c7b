//! # markov — Markov-chain substrate
//!
//! The "other side" of the paper's comparison: everything needed to build
//! and solve the Markov models that Shareef & Zhu (2010) pit against their
//! Petri nets.
//!
//! * [`linalg`] — dense matrices, LU solve (self-contained).
//! * [`ctmc`] — continuous-time chains: GTH direct solve and uniformized
//!   power iteration.
//! * [`dtmc`] — discrete-time chains: power iteration (Cesàro-averaged) and
//!   direct solve.
//! * [`uniformization`] — transient CTMC solutions.
//! * [`birth_death`] — closed-form birth–death steady states (the queueing
//!   skeleton of the paper's Fig. 2).
//! * [`absorption`] — hitting times/probabilities (battery-lifetime
//!   analysis, the paper's motivating metric).
//! * [`mm1`] — M/M/1 closed forms (the no-power-management limit).
//! * [`supplementary`] — **equations (1)–(6) of the paper**: the
//!   supplementary-variable solution of the power-managed CPU.
//! * [`phase`] — Erlang phase-type expansion of the deterministic timers
//!   (the ABL-ERLANG ablation: how many exponential stages a true Markov
//!   chain needs to mimic a deterministic delay).
//! * [`regenerative`] — the exact steady state of the power-managed CPU
//!   (Welch 1964), the oracle for [`phase`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod absorption;
pub mod birth_death;
pub mod ctmc;
pub mod dtmc;
pub mod linalg;
pub mod mm1;
pub mod phase;
pub mod regenerative;
pub mod supplementary;
pub mod uniformization;

pub use absorption::{absorb, Absorption, AbsorptionError};
pub use ctmc::{Ctmc, CtmcError};
pub use dtmc::{Dtmc, DtmcError};
pub use linalg::Matrix;
pub use mm1::Mm1;
pub use phase::{solve_phase_cpu, PhaseCpuConfig, PhaseCpuSolution};
pub use supplementary::{CpuMarkovParams, CpuMarkovSolution, CpuPowerRates};
