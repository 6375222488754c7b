//! # sim-core — the simulation core every model crate builds on
//!
//! Every evaluation in this workspace is "a sweep over parameter points ×
//! independent replications per point, run until steady-state estimates
//! settle". This crate holds everything that shape needs and nothing about
//! *where* it runs: `petri-core` and `wsn` depend on it alone, and the
//! process-crossing backends (worker subprocesses, TCP peers, the service
//! daemon) live in `sim-runtime` and plug in through one trait object.
//!
//! * [`grid::Runner`] — flattens the `(point × replication)` grid into one
//!   work-stealing task stream over one scoped thread pool, hands per-point
//!   results back in replication-index order (so reductions are
//!   bit-identical at any thread count), cancels on the first error and
//!   reports progress. It is cheap to clone.
//! * [`stopping::StoppingRule`] — the paper's "until steady state
//!   probability values were obtained" as a budget-aware rule: per point,
//!   replications run in rounds until the Student-t CI half-width of the
//!   watched metrics meets a target.
//! * [`exec`] — the **executor seam**: grids described as serializable
//!   [`exec::TaskManifest`]s over [`exec::PortableJob`]s, run by an
//!   [`exec::ExecBackend`]. [`exec::InProcessBackend`] is the default; any
//!   other backend plugs into a runner with [`Runner::with_backend`].
//! * [`wire`] — the hand-rolled little-endian codec manifests, results and
//!   spans travel in.
//! * [`key`] — a dependency-free SHA-256 and the content-addressed
//!   manifest key ([`key::CacheKey`]).
//! * [`stats`] — Welford moments, Student-t confidence intervals and batch
//!   means.
//! * [`obs`] — the one instrumentation layer (histograms and spans behind
//!   one process-global handle and one kill switch, `REPRO_TELEMETRY=off`);
//!   observably inert, so artifacts are byte-identical with it on or off.
//! * [`rng`] — the workspace's one xoshiro256++/SplitMix64 generator,
//!   [`SimRng`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;
pub mod grid;
pub mod key;
pub mod obs;
pub mod rng;
pub mod stats;
pub mod stopping;
pub mod wire;

pub use exec::{ExecBackend, ExecError, InProcessBackend, JobRegistry, PortableJob, TaskManifest};
pub use grid::{default_threads, env_threads, Progress, ProgressFn, Runner, Segment};
pub use rng::SimRng;
pub use stats::{
    describe, student_t_critical, BatchMeans, ConfidenceInterval, ConfidenceLevel, Welford,
};
pub use stopping::{AdaptivePoint, StoppingRule};
