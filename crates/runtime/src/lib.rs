//! # sim-runtime — the process-crossing executors behind the core seam
//!
//! `sim-core` owns the simulation core: the work-stealing grid
//! (`Runner`), adaptive stopping, statistics, the wire codec, the
//! executor seam (`ExecBackend`, `PortableJob`, `TaskManifest`) and the
//! instrumentation layer. This crate holds every backend that leaves the
//! process, and plugs each one into a core `Runner` as one
//! `Arc<dyn ExecBackend>`:
//!
//! * [`exec::Exec`] — the CLI-side backend *selection* (threads, shards,
//!   hosts or a service address, plus the fault policy, pool and chaos
//!   settings); [`Exec::runner`] builds the chosen backend and plugs it
//!   into a core `Runner`.
//! * [`fleet::backend::WorkerBackend`] — one work queue that partitions a
//!   manifest across worker links, with **byte-identical** gathers at any
//!   link × thread count. Its connector is the only per-tier code: spawn
//!   `<exe> --worker` subprocesses on pipes (see [`worker`]), or connect
//!   to `<exe> --worker --listen <addr>` TCP peers on other machines.
//!   A broken link's undelivered slots go back on the queue for the
//!   surviving links.
//! * [`remote`] — the framed transports under both connectors (the
//!   [`remote::FrameTransport`] trait over pipes, stdio and TCP), the
//!   shared response drain, and the TCP worker mode.
//! * [`service`] — the **experiment service daemon**: a bounded job queue
//!   and scheduler dispatching onto any backend, a two-tier
//!   content-addressed result cache (in-memory LRU over a disk store,
//!   keyed by the core's SHA-256 manifest key — a hit is byte-identical
//!   to a fresh run by construction), single-flight deduplication, a
//!   versioned submit/status/fetch/cancel protocol, an HTTP/JSON +
//!   `/metrics` gateway, and [`service::ServiceBackend`], which routes any
//!   driver's dispatches through a daemon (`Exec::service`).
//! * [`fleet`] — the **supervised fleet layer**: a process-global warm
//!   pool of worker links keyed by endpoint (checkout/checkin, health
//!   probes, max-lifetime recycling), a unified [`fleet::FaultPolicy`]
//!   (retry budget, IO timeout, exponential backoff with seeded jitter,
//!   quarantine of repeat offenders, opt-in shrink-to-zero in-process
//!   fallback) and a deterministic chaos harness
//!   ([`fleet::chaos::FaultInjector`]) proving byte-identical gathers
//!   under injected failure.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod exec;
pub mod fleet;
pub mod remote;
pub mod service;
pub mod worker;

pub use exec::Exec;
pub use fleet::backend::{Connector, WorkerBackend};
pub use fleet::{chaos::ChaosConfig, fleet_stats, FaultPolicy, FleetSnapshot, FleetStats};
pub use remote::FrameTransport;
pub use service::{
    Disposition, JobId, JobProgress, JobState, Service, ServiceBackend, ServiceClient,
    ServiceConfig, ServiceError, ServiceHandle, ServiceStats,
};

/// Kept for the frozen benchmark, which imports these from here; in-repo
/// code imports them from `sim_core`.
pub use sim_core::{
    ExecBackend, InProcessBackend, PortableJob, Segment, StoppingRule, TaskManifest,
};

/// Kept for the frozen benchmark, which imports `wire::Reader` from here;
/// in-repo code imports `sim_core::wire`.
pub mod wire {
    pub use sim_core::wire::Reader;
}
