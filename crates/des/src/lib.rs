//! # des — discrete-event simulation substrate
//!
//! The reproduction of the paper's unpublished ground-truth simulator
//! (Sec. IV) plus a full node-level simulator used to cross-validate the
//! Petri-net models:
//!
//! * `kernel` (crate-private) — one fixed clock per event source, with
//!   the exact tie-breaking order both simulators share.
//! * [`cpu`] — the power-managed CPU simulator built strictly from the
//!   paper's four assumptions (the solid "Simulation" curves of Figs. 4–9).
//! * [`node`] — the whole sensor node (radio + CPU + closed/open workload),
//!   the independent oracle for Figs. 14/15.
//! * [`rng`] — seeded sampling, deliberately separate from petri-core's.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cpu;
mod kernel;
pub mod node;
pub mod rng;

pub use cpu::{simulate_cpu, CpuSimParams, CpuSimResult};
pub use node::{simulate_node, NodeSimParams, NodeSimResult, Workload};
