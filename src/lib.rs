//! # wsn-petri — Energy Modeling of Wireless Sensor Nodes Based on Petri Nets
//!
//! A from-scratch Rust reproduction of Shareef & Zhu (2010). This umbrella
//! crate re-exports the seven library crates; see the README for a guided tour
//! and `examples/` for runnable entry points.
//!
//! | Crate | Role |
//! |-------|------|
//! | [`sim_core`] | The simulation core: flattened (sweep × replication) work-stealing grid, deterministic aggregation, adaptive stopping, stats, wire codec, the executor seam, instrumentation, the RNG |
//! | [`sim_runtime`] | Process-crossing backends plugged into the core's seam: worker subprocesses and TCP peers, the supervised fleet, the service daemon; `Exec` selects one |
//! | [`petri_core`] | EDSPN/SCPN modeling + simulation engine (the TimeNET stand-in) |
//! | [`markov`] | CTMC/DTMC solvers + the paper's supplementary-variable equations |
//! | [`des`] | Discrete-event simulators (the paper's ground truth) |
//! | [`energy`] | Typed power/energy units, tables, accounting, breakdowns |
//! | [`wsn`] | The paper's concrete models, sweeps and experiment drivers |
//!
//! ## Thirty-second tour
//!
//! ```
//! use wsn_petri::prelude::*;
//!
//! // The paper's headline question: what Power-Down Threshold minimizes
//! // a sensor node's energy? Sweep the closed-workload node model:
//! let grid = [1e-9, 0.00177, 0.01, 1.0, 100.0];
//! let cfg = NodeSweepConfig { horizon: 120.0, ..Default::default() };
//! let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &cfg);
//! let best = sweep.optimum_analysis();
//! assert!(best.optimal_pdt > 1e-9 && best.optimal_pdt < 100.0); // interior!
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub use des;
pub use energy;
pub use markov;
pub use petri_core;
pub use sim_core;
pub use sim_runtime;
pub use wsn;

/// One-stop imports for the common workflows.
pub mod prelude {
    pub use des::{
        simulate_cpu, simulate_node, CpuSimParams, NodeSimParams, NodeSimResult, Workload,
    };
    pub use energy::{
        Battery, ComponentPower, Energy, NodeBreakdown, Power, PowerState, CC2420_RADIO,
        IMOTE2_MEASURED, PXA271_CPU,
    };
    pub use markov::{CpuMarkovParams, CpuPowerRates, Ctmc, Mm1};
    pub use petri_core::prelude::*;
    pub use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
    pub use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig, OptimumAnalysis};
    pub use wsn::experiments::simple_system::{run_simple_system, run_table_x};
    pub use wsn::{
        analytic_probabilities, build_cpu_model, build_node_model, simulate_cpu_model,
        simulate_node_model, simulate_simple_node, CpuModelParams, SimpleNodeParams,
    };
}
