//! # petri-core — EDSPN / SCPN modeling and simulation
//!
//! A from-scratch Rust implementation of the Petri-net class used by
//! Shareef & Zhu, *"Energy Modeling of Wireless Sensor Nodes Based on Petri
//! Nets"* (2010): **E**xtended **D**eterministic and **S**tochastic **P**etri
//! **N**ets with colored tokens (SCPN), the class supported by the TimeNET
//! 4.0 tool the paper used.
//!
//! Features:
//!
//! * immediate (priority + weight), deterministic, exponential, uniform and
//!   Erlang transitions;
//! * colored tokens with local guards (color filters on input arcs) and
//!   color expressions on output arcs;
//! * TimeNET-style **global guards**: boolean marking expressions such as
//!   `(#Buffer == 0) && (#Idle > 0)`, exactly as in Table XI of the paper;
//! * inhibitor arcs and arc multiplicities;
//! * per-transition memory policies (race-enable / race-age / resample);
//! * reward measures (time-average tokens, predicate probabilities,
//!   throughputs, firing counts) integrated exactly between events;
//! * parallel independent replications on the shared `sim_core`
//!   executor — bit-identical results at any thread count, plus an
//!   adaptive Student-t stopping mode ("run until the estimate settles");
//! * analysis: bounded reachability, P-invariants, structural lints, and
//!   CTMC extraction for exponential-only nets (the bridge to the `markov`
//!   crate used for cross-validation).
//!
//! ## Quick example
//!
//! ```
//! use petri_core::prelude::*;
//!
//! // CPU with a power-down threshold: Idle --(PDT, 0.5 s det)--> Sleep,
//! // cancelled whenever a job is waiting.
//! let mut b = NetBuilder::new("tiny-cpu");
//! let idle = b.place("Idle").tokens(1).build();
//! let sleep = b.place("Sleep").build();
//! let buffer = b.place("Buffer").build();
//! b.transition("arrive", Timing::exponential(0.2))
//!     .output(buffer, 1)
//!     .build();
//! b.transition("serve", Timing::exponential(10.0))
//!     .input(buffer, 1)
//!     .build();
//! b.transition("power_down", Timing::deterministic(0.5))
//!     .input(idle, 1)
//!     .output(sleep, 1)
//!     .guard(Expr::count(buffer).eq_c(0))
//!     .build();
//! let net = b.build().unwrap();
//!
//! let mut sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
//! let p_sleep = sim.reward_place(sleep);
//! let out = sim.run(42).unwrap();
//! assert!(out.reward(p_sleep) > 0.0); // the CPU eventually sleeps
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod analysis;
pub mod arc;
pub mod builder;
pub mod dot;
pub mod error;
pub mod expr;
pub mod ids;
pub mod marking;
pub mod net;
pub mod replicate;
pub mod sim;
pub mod timing;
pub mod token;
pub mod transition;

/// Deterministic random-number streams: the core's one generator.
pub use sim_core::rng;
/// Streaming moments, confidence intervals and batch means, shared with
/// the core's adaptive stopping rule.
pub use sim_core::stats;

/// The common imports for building and simulating nets.
pub mod prelude {
    pub use crate::arc::ColorExpr;
    pub use crate::builder::NetBuilder;
    pub use crate::error::{BuildError, SimError};
    pub use crate::expr::Expr;
    pub use crate::ids::{PlaceId, TransitionId};
    pub use crate::net::Net;
    pub use crate::replicate::{
        run_replications, run_replications_adaptive, run_replications_parallel, AdaptiveSummary,
        ReplicationSummary,
    };
    pub use crate::sim::{RewardId, RewardSpec, SimConfig, SimOutput, Simulator};
    pub use crate::stats::{ConfidenceLevel, Welford};
    pub use crate::timing::{MemoryPolicy, Timing};
    pub use crate::token::{Color, ColorFilter};
    pub use sim_core::StoppingRule;
}
