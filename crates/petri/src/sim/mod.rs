//! Discrete-event simulation of EDSPN/SCPN nets.
//!
//! The public entry point is [`Simulator`]: configure it once (net, horizon,
//! rewards), then call [`Simulator::run`] with as many seeds as you need —
//! each run is one independent, reproducible replication. `Simulator` is
//! `Sync`, so [`crate::replicate`] fans runs out across threads.
//!
//! Two engines implement the semantics below. The **lowered engine**
//! (`lower.rs` compiles each net to a micro-op program, `lowered.rs`
//! executes it, one replication per engine, and replays repeated steps
//! from the step records in `memo.rs`, which a simulator's runs share and
//! which simulators of one net shape can share through [`MemoRecords`])
//! serves every run. The
//! **reference engine** (`reference.rs`, [`Simulator::run_reference`]) is
//! the seed's non-incremental core, kept frozen as the oracle the lowered
//! engine must match bit for bit.
//!
//! # Semantics
//!
//! * Enabled **immediate** transitions fire before simulated time advances
//!   (vanishing markings), highest priority first; equal-priority conflicts
//!   are resolved probabilistically by weight.
//! * **Timed** transitions sample a firing delay when they become enabled;
//!   the [`crate::timing::MemoryPolicy`] governs what happens to the clock
//!   when a transition is disabled before firing.
//! * Two timed transitions scheduled for the same instant fire in
//!   **transition-definition order** (lowest [`crate::ids::TransitionId`]
//!   first). This is load-bearing for threshold models: the paper's optimal
//!   `Power_Down_Threshold` sits *exactly* on a job-arrival boundary, and
//!   definition order decides whether the CPU sleeps at the boundary.
//! * Rewards are integrated exactly between events (token counts and
//!   predicates are piecewise-constant in time).

mod engine;
mod lower;
mod lowered;
mod memo;
pub mod profile;
mod reference;
mod rewards;
mod trace;

pub use engine::{SimConfig, SimOutput, Simulator};
pub use memo::MemoRecords;
pub use rewards::{RewardId, RewardSpec, RewardSpecError};
pub use trace::TraceEvent;

#[cfg(test)]
#[path = "tests/memo_differential.rs"]
mod memo_differential;
