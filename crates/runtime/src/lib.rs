//! # sim-runtime — two-level experiment orchestration
//!
//! Every evaluation in this workspace is "a sweep over parameter points ×
//! independent replications per point, run until steady-state estimates
//! settle". This crate is the one shared executor for that shape, used by
//! `petri_core::replicate`, `wsn::sweep`, every experiment driver and the
//! `repro` binary:
//!
//! * [`grid::Runner`] — flattens the `(point × replication)` grid into one
//!   work-stealing task stream over one scoped thread pool: no idle cores
//!   on wide machines, no oversubscription from nested fan-out, first-error
//!   cancellation, optional progress callbacks.
//! * **Deterministic aggregation** — per-point results come back in
//!   replication-index order, so reductions are bit-identical at any
//!   thread count (1, 2 or 128 workers: same bits).
//! * [`stopping::StoppingRule`] — the paper's "until steady state
//!   probability values were obtained" as a first-class, budget-aware mode:
//!   per point, replications run in rounds until the Student-t CI
//!   half-width of watched metrics meets a target.
//! * [`exec`] — the **executor backend seam**: grids described as
//!   serializable [`exec::TaskManifest`]s over [`exec::PortableJob`]s,
//!   executed by an [`exec::ExecBackend`]. The scoped thread pool is one
//!   backend ([`exec::InProcessBackend`]); [`fleet::backend::WorkerBackend`]
//!   is the other: one work queue that partitions the manifest across
//!   worker links, with **byte-identical** gathers at any link × thread
//!   count. Its connector is the only per-tier code: spawn
//!   `<exe> --worker` subprocesses on pipes (see [`worker`]), or connect
//!   to `<exe> --worker --listen <addr>` TCP peers on other machines.
//!   A broken link's undelivered slots go back on the queue for the
//!   surviving links.
//! * [`remote`] — the framed transports under both connectors (the
//!   [`remote::FrameTransport`] trait over pipes, stdio and TCP), the
//!   shared response drain, and the TCP worker mode.
//! * [`service`] — the **experiment service daemon** over the same seam:
//!   a bounded job queue and scheduler dispatching onto any backend, a
//!   two-tier content-addressed result cache (in-memory LRU over a disk
//!   store, keyed by a SHA-256 of the wire-encoded manifest — a hit is
//!   byte-identical to a fresh run by construction), single-flight
//!   deduplication of identical in-flight requests, a versioned
//!   submit/status/fetch/cancel protocol, and
//!   [`service::ServiceBackend`], which routes any driver's dispatches
//!   through a daemon (`Exec::service`).
//! * [`fleet`] — the **supervised fleet layer** behind the worker
//!   backend and the service tier: the backend itself, a process-global
//!   warm pool of worker links keyed by endpoint (checkout/checkin,
//!   health probes, max-lifetime recycling), a unified
//!   [`fleet::FaultPolicy`] (retry
//!   budget, IO timeout, exponential backoff with seeded jitter,
//!   quarantine of repeat offenders, opt-in shrink-to-zero in-process
//!   fallback) and a deterministic chaos harness
//!   ([`fleet::chaos::FaultInjector`]) proving byte-identical gathers
//!   under injected failure.
//! * [`stats`] — Welford moments, Student-t confidence intervals and batch
//!   means (re-exported by `petri_core::stats` for compatibility).
//! * [`obs`] — the **one instrumentation layer** every tier records
//!   into, behind one process-global [`obs::Obs`] handle and one kill
//!   switch (`REPRO_TELEMETRY=off`). Ending a span is a site's only
//!   recording call: it feeds the span's histogram and, under a job
//!   trace, the bounded span ring with deterministic trace/span IDs
//!   (derived from the manifest SHA-256 + flat slot index). Spans cross
//!   processes over the worker wire protocol and render as Chrome
//!   trace-event JSON (`repro trace`, `GET /jobs/<id>/trace`); histograms
//!   render as Prometheus text on the HTTP gateway ([`service::http`]);
//!   failing dispatches leave a flight record. Observably inert:
//!   recording never touches scheduling, seeding or gather order, so
//!   artifacts are byte-identical with the switch on or off.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;
pub mod fleet;
pub mod grid;
pub mod obs;
pub mod remote;
pub mod service;
pub mod stats;
pub mod stopping;
pub mod wire;
pub mod worker;

pub use exec::{
    Exec, ExecBackend, ExecError, InProcessBackend, JobRegistry, PortableJob, TaskManifest,
};
pub use fleet::backend::{Connector, WorkerBackend};
pub use fleet::{chaos::ChaosConfig, fleet_stats, FaultPolicy, FleetSnapshot, FleetStats};
pub use grid::{default_threads, env_threads, Progress, Runner, Segment};
pub use obs::{obs, Obs};
pub use remote::FrameTransport;
pub use service::{
    Disposition, JobId, JobProgress, JobState, Service, ServiceBackend, ServiceClient,
    ServiceConfig, ServiceError, ServiceHandle, ServiceStats,
};
pub use stats::{
    describe, student_t_critical, BatchMeans, ConfidenceInterval, ConfidenceLevel, Welford,
};
pub use stopping::{AdaptivePoint, StoppingRule};
