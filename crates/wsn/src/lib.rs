//! # wsn — the paper's models and experiments
//!
//! Everything specific to Shareef & Zhu (2010), built on the `petri-core`,
//! `markov`, `des`, and `energy` substrates:
//!
//! * [`cpu_model`] — the Fig. 3 CPU EDSPN (Table I parameters).
//! * [`simple_node`] — the Fig. 10 simple sensor system (Tables VIII/IX).
//! * [`node`] — the Fig. 12/13 closed/open node SCPNs (Tables XI/XII),
//!   colored DVS jobs and all.
//! * [`imote2`] — the emulated IMote2 measurement rig (Table X; see
//!   DESIGN.md §4 for the hardware substitution).
//! * [`sweep`] — parallel parameter sweeps and the published PDT grids.
//! * [`metrics`] — Δ-energy statistics (Tables IV–VI).
//! * [`experiments`] — one driver per table/figure family, plus ablations.
//! * [`report`] — text/CSV rendering of every artifact.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod cpu_model;
pub mod experiments;
pub mod imote2;
pub mod metrics;
pub mod node;
pub mod report;
pub mod simple_node;
pub mod sweep;
mod warm;

pub use cpu_model::{
    build_cpu_model, build_cpu_model_with_memory, simulate_cpu_model, CpuModel, CpuModelParams,
    CpuPetriResult,
};
pub use imote2::{run_paper_rig, table_x_comparison, Imote2Measurement, Imote2RigConfig};
pub use metrics::{DeltaEnergyTable, DiffStats};
pub use node::{build_node_model, simulate_node_model, NodeModel, NodePetriResult, NodeRewards};
pub use simple_node::{
    analytic_probabilities, build_simple_node, simulate_simple_node, SimpleNodeParams,
    SimpleNodeProbabilities,
};
