//! The executor backend seam: portable task manifests and the backends
//! that run them.
//!
//! Closure grids ([`crate::Runner::grid`]) are bound to one address space.
//! To spread the same flat task stream over worker **subprocesses** and
//! remote hosts, a grid must be *described as data*:
//!
//! * a [`PortableJob`] is the task family — a named, self-encoding recipe
//!   that turns `(point, replication, seed)` into an encoded result;
//! * a [`TaskManifest`] pins down one concrete grid: the job's identity and
//!   payload, the contiguous flat-index [`Segment`]s to run, and one seed
//!   per slot;
//! * an [`ExecBackend`] executes a manifest and hands back per-slot result
//!   bytes in flat-index order.
//!
//! Three backends ship today: [`InProcessBackend`] (the scoped thread
//! pool — the same scheduling core behind `Runner::grid`),
//! [`WorkerBackend`] (contiguous manifest chunks over framed links to
//! `<exe> --worker` subprocesses on pipes or `<exe> --worker --listen`
//! peers over TCP — see [`crate::fleet::backend`]) and the service
//! client ([`crate::service::ServiceBackend`]). Because every fold
//! downstream consumes slots in flat-index order, **any link count ×
//! thread count yields byte-identical results**.

use crate::fleet::backend::{Connector, WorkerBackend};
use crate::fleet::chaos::ChaosConfig;
use crate::fleet::FaultPolicy;
use crate::grid::{run_segments_core, GridPlan, ProgressFn, Segment};
use crate::wire::{self, Reader, WireError};
use std::collections::BTreeMap;

/// Protocol version byte carried by every manifest request frame.
/// Version 2 introduced tagged requests (manifest vs graceful shutdown)
/// and multi-manifest serve loops for the remote TCP subsystem; version 3
/// added a batch-width field, so workers could run contiguous same-point
/// slots on a batched engine; version 4 upgraded the liveness
/// heartbeat to a progress frame (`P`: delivered/total slot counts), so
/// parents can render live per-chunk progress without extra round trips;
/// version 5 added the trace context (`u64` trace ID) to the manifest
/// request and the advisory span-batch response frame (`T`), so worker
/// spans fold back into the parent's job trace; version 6 dropped the
/// batch-width field again, since every slot now runs one replication on
/// one engine.
/// (Bumping the version also rotates the service cache's key space —
/// cached result bytes are identical across versions, but entries written
/// by older binaries describe an older protocol.)
pub const WIRE_VERSION: u8 = 6;

// --- errors --------------------------------------------------------------

/// An executor failure: a task error, a worker-process failure, or a
/// protocol/spawn problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A task reported an error. `flat_index` is the task's global flat
    /// index in the manifest; when several tasks fail, the lowest flat
    /// index wins (matching `Runner::try_grid`).
    Task {
        /// Global flat index of the failing slot.
        flat_index: usize,
        /// Sweep-point index of the failing slot.
        point: usize,
        /// Replication index of the failing slot.
        replication: u64,
        /// The task's error message.
        message: String,
    },
    /// A worker subprocess died (crash, kill, bad exit) before delivering
    /// its shard. `flat_index` is the first slot of the undelivered range.
    Worker {
        /// First global flat index the dead worker still owed.
        flat_index: usize,
        /// What happened to the worker.
        message: String,
    },
    /// Manifest/frame decode failures, spawn failures, registry misses.
    Protocol(String),
    /// The execution fleet is permanently unavailable for this dispatch
    /// — every peer quarantined or the pool exhausted — and in-process
    /// fallback was not enabled. Queued service jobs surface this
    /// instead of aging out silently.
    BackendUnavailable(String),
}

impl ExecError {
    /// The global flat index this error is attributed to, for
    /// lowest-index-wins selection across shards.
    pub fn flat_index(&self) -> usize {
        match self {
            ExecError::Task { flat_index, .. } | ExecError::Worker { flat_index, .. } => {
                *flat_index
            }
            ExecError::Protocol(_) | ExecError::BackendUnavailable(_) => 0,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Task {
                flat_index,
                point,
                replication,
                message,
            } => write!(
                f,
                "task {flat_index} (point {point}, replication {replication}) failed: {message}"
            ),
            ExecError::Worker {
                flat_index,
                message,
            } => write!(f, "worker owning flat index {flat_index} failed: {message}"),
            ExecError::Protocol(m) => write!(f, "executor protocol error: {m}"),
            ExecError::BackendUnavailable(m) => write!(f, "backend unavailable: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<WireError> for ExecError {
    fn from(e: WireError) -> Self {
        ExecError::Protocol(e.to_string())
    }
}

// --- portable jobs -------------------------------------------------------

/// A task family that can be executed outside the caller's address space.
///
/// A portable job must be reconstructible from `(kind, payload)` alone: the
/// worker subprocess looks `kind` up in its [`JobRegistry`] and decodes the
/// payload, so the closure-free triple `(point, replication, seed)` fully
/// determines each slot. Results are returned as encoded bytes; since the
/// caller's fold decodes the same bytes whether the slot ran in-process or
/// in a worker, results are **byte-identical across backends** by
/// construction.
pub trait PortableJob: Sync {
    /// Registry key identifying this job family (stable across the
    /// parent/worker process boundary).
    fn kind(&self) -> &'static str;

    /// Encode the job's parameters; the worker's registry decoder must be
    /// able to rebuild an equivalent job from exactly these bytes.
    fn encode_payload(&self, buf: &mut Vec<u8>);

    /// Run one slot, returning the encoded result. `seed` is the slot's
    /// entry from the manifest's seed table.
    fn run_slot(&self, point: usize, replication: u64, seed: u64) -> Result<Vec<u8>, String>;

    /// Run contiguous same-point slots — replication `base_rep + i` with
    /// `seeds[i]` — returning one result per slot in replication order.
    ///
    /// A plain loop over [`PortableJob::run_slot`]. No backend calls it:
    /// every backend runs one slot at a time. It remains so decorators
    /// that wrap a job can time a run of slots as one unit.
    fn run_batch(
        &self,
        point: usize,
        base_rep: u64,
        seeds: &[u64],
    ) -> Vec<Result<Vec<u8>, String>> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| self.run_slot(point, base_rep + i as u64, seed))
            .collect()
    }
}

/// Decoder for one job kind: payload bytes back to a runnable job.
pub type JobDecoder = fn(&[u8]) -> Result<Box<dyn PortableJob>, WireError>;

/// The worker-side table mapping job kinds to payload decoders.
///
/// A worker process builds one registry at startup (covering every job its
/// binary can run) and serves manifests against it; see
/// [`crate::worker::serve`].
#[derive(Default)]
pub struct JobRegistry {
    decoders: BTreeMap<&'static str, JobDecoder>,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("kinds", &self.kinds().collect::<Vec<_>>())
            .finish()
    }
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a decoder for `kind`; panics on duplicate registration
    /// (two decoders for one kind is always a wiring bug).
    pub fn register(&mut self, kind: &'static str, decoder: JobDecoder) {
        let prev = self.decoders.insert(kind, decoder);
        assert!(prev.is_none(), "job kind {kind:?} registered twice");
    }

    /// Decode a job of the given kind from its payload.
    pub fn decode(&self, kind: &str, payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let decoder = self
            .decoders
            .get(kind)
            .ok_or_else(|| WireError::new(format!("unknown job kind {kind:?}")))?;
        decoder(payload)
    }

    /// The registered kinds, in sorted order.
    pub fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.decoders.keys().copied()
    }
}

// --- manifest ------------------------------------------------------------

/// A fully serialized description of one grid run: which job, which
/// contiguous flat-index segments, and the seed of every slot.
///
/// The manifest is the unit the worker backend partitions and ships to
/// workers; its compact encoding is hand-rolled (see [`crate::wire`])
/// because the offline build's `serde` is a no-op shim.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskManifest {
    /// Job-family key for the worker's [`JobRegistry`].
    pub kind: String,
    /// Job parameters, encoded by [`PortableJob::encode_payload`].
    pub payload: Vec<u8>,
    /// Contiguous replication runs, in flat-index order. Point indices are
    /// global: a shard's sub-manifest keeps the parent's numbering.
    pub segments: Vec<Segment>,
    /// One RNG seed per flat slot, in flat-index order
    /// (`seeds.len() == total_slots()`).
    pub seeds: Vec<u64>,
}

impl TaskManifest {
    /// Build the manifest for `job` over explicit segments, seeding slot
    /// `(point, rep)` with `seed_of(point, rep)`.
    pub fn for_job(
        job: &dyn PortableJob,
        segments: Vec<Segment>,
        seed_of: &dyn Fn(usize, u64) -> u64,
    ) -> Self {
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let seeds = segments
            .iter()
            .flat_map(|seg| (0..seg.count as u64).map(|i| seed_of(seg.point, seg.base_rep + i)))
            .collect();
        TaskManifest {
            kind: job.kind().to_string(),
            payload,
            segments,
            seeds,
        }
    }

    /// Total number of slots across all segments.
    pub fn total_slots(&self) -> usize {
        self.segments.iter().map(|s| s.count).sum()
    }

    /// `(point, replication, seed)` of every slot, in flat-index order.
    pub fn slots(&self) -> Vec<(usize, u64, u64)> {
        self.segments
            .iter()
            .flat_map(|seg| (0..seg.count as u64).map(|i| (seg.point, seg.base_rep + i)))
            .zip(self.seeds.iter())
            .map(|((point, rep), &seed)| (point, rep, seed))
            .collect()
    }

    /// Fail unless the seed table covers every slot exactly (a decoded
    /// manifest's segment counts come off the wire, so their sum is
    /// checked for overflow).
    pub fn validate(&self) -> Result<(), WireError> {
        let total = self
            .segments
            .iter()
            .try_fold(0usize, |sum, s| sum.checked_add(s.count))
            .ok_or_else(|| WireError::new("manifest slot count overflows"))?;
        if self.seeds.len() != total {
            return Err(WireError::new(format!(
                "manifest has {total} slot(s) but {} seed(s)",
                self.seeds.len()
            )));
        }
        Ok(())
    }

    /// Partition into at most `shards` contiguous flat-index chunks of
    /// near-equal size, splitting segments at chunk boundaries. Returns
    /// `(first global flat index, sub-manifest)` per non-empty chunk;
    /// concatenating the chunks' slots in order reproduces `self` exactly.
    pub fn split(&self, shards: usize) -> Vec<(usize, TaskManifest)> {
        let total = self.total_slots();
        if total == 0 {
            return Vec::new();
        }
        let shards = shards.clamp(1, total);
        let plan = GridPlan::new(&self.segments);
        let mut out = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let size = total / shards + usize::from(i < total % shards);
            let end = start + size;
            // Collect the segments overlapping [start, end).
            let mut segments = Vec::new();
            let (mut seg_idx, mut offset) = plan.locate(start);
            let mut remaining = size;
            while remaining > 0 {
                let seg = self.segments[seg_idx];
                let take = (seg.count - offset).min(remaining);
                segments.push(Segment {
                    point: seg.point,
                    base_rep: seg.base_rep + offset as u64,
                    count: take,
                });
                remaining -= take;
                seg_idx += 1;
                // Skip zero-count segments between chunks.
                while seg_idx < self.segments.len() && self.segments[seg_idx].count == 0 {
                    seg_idx += 1;
                }
                offset = 0;
            }
            out.push((
                start,
                TaskManifest {
                    kind: self.kind.clone(),
                    payload: self.payload.clone(),
                    segments,
                    seeds: self.seeds[start..end].to_vec(),
                },
            ));
            start = end;
        }
        out
    }

    /// Append the compact encoding of this manifest.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        wire::put_str(buf, &self.kind);
        wire::put_bytes(buf, &self.payload);
        wire::put_u32(buf, self.segments.len() as u32);
        for seg in &self.segments {
            wire::put_u64(buf, seg.point as u64);
            wire::put_u64(buf, seg.base_rep);
            wire::put_u64(buf, seg.count as u64);
        }
        wire::put_u32(buf, self.seeds.len() as u32);
        for &s in &self.seeds {
            wire::put_u64(buf, s);
        }
    }

    /// Decode a manifest from a [`Reader`] positioned at its first byte.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = r.get_str()?.to_string();
        let payload = r.get_bytes()?.to_vec();
        let nsegs = r.get_count(24, "segment list")?;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let point = r.get_u64()? as usize;
            let base_rep = r.get_u64()?;
            let count = r.get_u64()? as usize;
            segments.push(Segment {
                point,
                base_rep,
                count,
            });
        }
        let nseeds = r.get_count(8, "seed list")?;
        let mut seeds = Vec::with_capacity(nseeds);
        for _ in 0..nseeds {
            seeds.push(r.get_u64()?);
        }
        let m = TaskManifest {
            kind,
            payload,
            segments,
            seeds,
        };
        m.validate()?;
        Ok(m)
    }
}

// --- the seam ------------------------------------------------------------

/// An executor backend: turns a [`TaskManifest`] into per-slot result
/// bytes, in flat-index order.
///
/// This is the single seam future backends (async pools, remote hosts, GPU
/// queues) implement; everything above it — `Runner`, the adaptive
/// stopping rounds, every experiment driver — is backend-agnostic.
pub trait ExecBackend {
    /// Execute every slot of `manifest`, returning one encoded result per
    /// slot in flat-index order. `job` is the already-decoded job for
    /// backends that execute locally; process-crossing backends re-decode
    /// it from the manifest on the far side. On failure, the error with the
    /// lowest flat index is returned.
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError>;

    /// Human-readable backend description (for logs and benches).
    fn label(&self) -> String;
}

/// The scoped-thread-pool backend: the exact scheduling core behind
/// `Runner::grid`, applied to a portable job.
#[derive(Debug, Clone, Copy)]
pub struct InProcessBackend {
    /// Worker threads to schedule onto.
    pub threads: usize,
}

impl InProcessBackend {
    /// A backend with the given worker-thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        InProcessBackend {
            threads: threads.max(1),
        }
    }
}

impl ExecBackend for InProcessBackend {
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        manifest.validate()?;
        let task_err = |flat: usize, message: String| {
            let plan = GridPlan::new(&manifest.segments);
            let (seg_idx, offset) = plan.locate(flat);
            let seg = manifest.segments[seg_idx];
            ExecError::Task {
                flat_index: flat,
                point: seg.point,
                replication: seg.base_rep + offset as u64,
                message,
            }
        };
        let per_segment = run_segments_core(
            self.threads,
            progress,
            &manifest.segments,
            &|flat, point, rep| job.run_slot(point, rep, manifest.seeds[flat]),
        )
        .map_err(|(flat, message)| task_err(flat, message))?;
        // Concatenating per-segment results in segment order IS flat order.
        Ok(per_segment
            .into_iter()
            .flat_map(|(_seg, results)| results)
            .collect())
    }

    fn label(&self) -> String {
        format!("in-process(threads={})", self.threads)
    }
}

// --- worker protocol ---------------------------------------------------

/// Frame tags of the worker protocol.
pub(crate) mod frame {
    // Requests (parent → worker).
    /// Run a manifest: version `u8`, worker-thread count `u32`, trace ID
    /// `u64`, manifest.
    pub const MANIFEST: u8 = b'M';
    /// Graceful shutdown: end the serve loop (and, for a listening
    /// worker, the process) instead of relying on EOF or a kill.
    pub const SHUTDOWN: u8 = b'Q';

    // Responses (worker → parent).
    /// One slot's result: `u64` chunk-local slot index + result bytes.
    pub const RESULT: u8 = b'R';
    /// The chunk failed: `u64` chunk-local slot index + error string.
    pub const ERROR: u8 = b'E';
    /// Chunk complete: `u64` result-frame count (sanity check).
    pub const DONE: u8 = b'D';
    /// Liveness heartbeat (no payload), streamed while a manifest
    /// executes so a remote parent's read timeout can distinguish "slots
    /// are slow" from "the peer's machine silently vanished" (a dead TCP
    /// peer that never sent FIN/RST is otherwise indistinguishable from a
    /// long computation).
    pub const HEARTBEAT: u8 = b'H';
    /// In-flight progress (wire version 4): `u64` slots delivered so far +
    /// `u64` total slots in the chunk. Rides the heartbeat cadence — it is
    /// a liveness tick that also carries completion counts, so parents can
    /// surface per-slot progress. Purely cosmetic: result accounting still
    /// derives from `R` frames alone, and a dropped `P` frame never
    /// affects gathered bytes.
    pub const PROGRESS: u8 = b'P';
    /// Span batch (wire version 5): the worker's recorded trace spans
    /// for the chunk, sent once before the terminal `D`/`E` frame.
    /// Advisory like `P` — the parent folds the spans into its own
    /// collector, and a dropped or garbled batch costs observability
    /// only, never results.
    pub const SPANS: u8 = b'T';
}

// --- execution configuration --------------------------------------------

/// Which backend a [`Runner`](crate::Runner) dispatches portable jobs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BackendSel {
    /// Scoped thread pool in this process.
    InProcess,
    /// Worker subprocesses or remote TCP peers.
    Workers(WorkerBackend),
    /// An experiment service daemon (`<exe> serve --listen <addr>`):
    /// dispatches become submit + fetch against its job queue and
    /// content-addressed result cache.
    Service { addr: String },
}

/// Resolved execution parameters, threaded through every experiment
/// driver: worker threads, shard count, remote hosts, and (for sharded
/// runs) the worker command.
///
/// `shards == 0` and empty `hosts` means "in-process"; `shards >= 1` fans
/// out to that many worker subprocesses, each running `threads` worker
/// threads; a non-empty `hosts` list (which takes precedence over shards)
/// dispatches to remote TCP workers instead; a `service` address (highest
/// precedence) routes dispatches through an experiment service daemon —
/// its job queue, single-flight dedup and content-addressed result cache.
/// Results are identical in every case — the setting only chooses *where*
/// (and, on a cache hit, whether) slots execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exec {
    /// Worker threads (per process — local, per subprocess, or per remote
    /// peer).
    pub threads: usize,
    /// Worker subprocesses; 0 = run in-process.
    pub shards: usize,
    /// Worker argv override for sharded runs (`None`:
    /// `current_exe --worker`).
    pub worker_cmd: Option<Vec<String>>,
    /// Remote worker addresses (`host:port`); non-empty selects the
    /// remote TCP backend.
    pub hosts: Vec<String>,
    /// Experiment service daemon address (`host:port`); `Some` selects
    /// the service backend (precedence over `hosts` and `shards`).
    pub service: Option<String>,
    /// Unified fault policy (retry budget, IO timeout, backoff,
    /// shrink-to-zero fallback) applied to the sharded and remote
    /// tiers.
    pub fault: FaultPolicy,
    /// Keep workers/peers warm in the process-global pool across
    /// dispatches (default `true`; `false` restores the legacy cold
    /// per-dispatch spawn/connect path).
    pub pool: bool,
    /// Deterministic chaos injection on worker links (testing only).
    pub chaos: Option<ChaosConfig>,
}

impl Default for Exec {
    fn default() -> Self {
        Exec::in_process(crate::grid::default_threads())
    }
}

impl Exec {
    /// Execute on the in-process scoped thread pool.
    pub fn in_process(threads: usize) -> Self {
        Exec {
            threads: threads.max(1),
            shards: 0,
            worker_cmd: None,
            hosts: Vec::new(),
            service: None,
            fault: FaultPolicy::default(),
            pool: true,
            chaos: None,
        }
    }

    /// Fan portable jobs out to `shards` worker subprocesses of `threads`
    /// threads each.
    pub fn sharded(threads: usize, shards: usize) -> Self {
        Exec {
            shards: shards.max(1),
            ..Exec::in_process(threads)
        }
    }

    /// Dispatch portable jobs to remote TCP workers
    /// (`<exe> --worker --listen <addr>`), `threads` worker threads per
    /// peer.
    pub fn remote(threads: usize, hosts: Vec<String>) -> Self {
        assert!(
            !hosts.is_empty(),
            "remote execution needs at least one host"
        );
        Exec {
            hosts,
            ..Exec::in_process(threads)
        }
    }

    /// Route portable jobs through an experiment service daemon
    /// (`<exe> serve --listen <addr>`): dispatches become submit + fetch
    /// against its bounded queue, single-flight dedup and two-tier result
    /// cache. `threads` is carried as an advisory hint; the daemon's own
    /// backend configuration governs execution resources.
    pub fn service(threads: usize, addr: String) -> Self {
        assert!(!addr.is_empty(), "service execution needs a daemon address");
        Exec {
            service: Some(addr),
            ..Exec::in_process(threads)
        }
    }

    /// Override the worker command line for sharded runs.
    pub fn with_worker_cmd(mut self, cmd: Vec<String>) -> Self {
        assert!(!cmd.is_empty(), "worker command must have an argv[0]");
        self.worker_cmd = Some(cmd);
        self
    }

    /// Replace the fault policy (retry budget, IO timeout, backoff,
    /// shrink-to-zero fallback).
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// Enable or disable the warm worker/peer pool.
    pub fn with_pool(mut self, pool: bool) -> Self {
        self.pool = pool;
        self
    }

    /// Arm (or disarm) deterministic chaos injection on worker links.
    pub fn with_chaos(mut self, chaos: Option<ChaosConfig>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Whether portable jobs run in worker subprocesses.
    pub fn is_sharded(&self) -> bool {
        self.shards >= 1
    }

    /// Whether portable jobs run on remote TCP workers.
    pub fn is_remote(&self) -> bool {
        !self.hosts.is_empty()
    }

    /// Whether portable jobs are routed through a service daemon.
    pub fn is_service(&self) -> bool {
        self.service.is_some()
    }

    /// A [`Runner`](crate::Runner) on this configuration.
    pub fn runner(&self) -> crate::Runner {
        let mut r = crate::Runner::new(self.threads);
        if let Some(addr) = &self.service {
            r.backend = BackendSel::Service { addr: addr.clone() };
        } else if self.is_remote() || self.is_sharded() {
            let connector = if self.is_remote() {
                Connector::Tcp {
                    hosts: self.hosts.clone(),
                }
            } else {
                Connector::Pipes {
                    links: self.shards,
                    cmd: self.worker_cmd.clone(),
                }
            };
            r.backend = BackendSel::Workers(WorkerBackend {
                pool: self.pool,
                chaos: self.chaos,
                ..WorkerBackend::new(connector, self.threads).with_fault(self.fault)
            });
        }
        r
    }

    /// Short description for logs.
    pub fn label(&self) -> String {
        if let Some(addr) = &self.service {
            format!("service(addr={addr}, threads={})", self.threads)
        } else if !self.hosts.is_empty() {
            format!(
                "remote(hosts={}, threads={})",
                self.hosts.len(),
                self.threads
            )
        } else if self.shards >= 1 {
            format!("sharded(shards={}, threads={})", self.shards, self.threads)
        } else {
            format!("in-process(threads={})", self.threads)
        }
    }
}

impl crate::Runner {
    /// The backend this runner dispatches portable jobs to.
    pub(crate) fn backend_impl(&self) -> Box<dyn ExecBackend> {
        match &self.backend {
            BackendSel::InProcess => Box::new(InProcessBackend::new(self.threads)),
            BackendSel::Workers(w) => Box::new(WorkerBackend {
                worker_threads: self.threads,
                ..w.clone()
            }),
            BackendSel::Service { addr } => Box::new(crate::service::client::ServiceBackend::new(
                addr.clone(),
                self.threads,
            )),
        }
    }

    /// Execute a manifest on this runner's backend (single dispatch site
    /// for fixed grids and adaptive rounds).
    pub(crate) fn dispatch(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        // Establish the job's ambient trace context so slot/engine spans
        // recorded deep in the grid (and shipped into worker requests)
        // attribute to this manifest's deterministic trace ID.
        let tr = crate::trace::tracer();
        let trace = if tr.is_enabled() {
            crate::trace::trace_id_of(manifest)
        } else {
            0
        };
        let _ctx = crate::trace::enter(trace);
        let dispatch_started = tr.start();
        let out = self
            .backend_impl()
            .run_segments(job, manifest, self.progress.as_deref());
        tr.record(
            trace,
            crate::trace::name::DISPATCH,
            crate::trace::cat::SERVICE,
            0,
            dispatch_started,
        );
        if let Err(e) = &out {
            if let Some(path) = crate::trace::flight_record(trace, "dispatch", &e.to_string()) {
                eprintln!("[trace] job failed; flight recording at {}", path.display());
            }
        }
        out
    }

    /// Run a portable `(point × replication)` grid on the configured
    /// backend: `reps[p]` slots for point `p`, slot `(p, r)` seeded with
    /// `seed_of(p, r)`. Returns each point's encoded slot results in
    /// replication order — the portable analogue of
    /// [`Runner::grid`](crate::Runner::grid), byte-identical across
    /// backends and shard/thread counts.
    pub fn run_job(
        &self,
        job: &dyn PortableJob,
        reps: &[u64],
        seed_of: &dyn Fn(usize, u64) -> u64,
    ) -> Result<Vec<Vec<Vec<u8>>>, ExecError> {
        let segments: Vec<Segment> = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        let manifest = TaskManifest::for_job(job, segments, seed_of);
        let flat = self.dispatch(job, &manifest)?;
        let mut flat = flat.into_iter();
        Ok(reps
            .iter()
            .map(|&n| flat.by_ref().take(n as usize).collect())
            .collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Runner;

    /// Trivial arithmetic job used by the unit tests (registered by the
    /// in-crate worker tests too).
    pub(crate) struct MulJob {
        pub factor: u64,
    }

    impl PortableJob for MulJob {
        fn kind(&self) -> &'static str {
            "test-mul"
        }
        fn encode_payload(&self, buf: &mut Vec<u8>) {
            wire::put_u64(buf, self.factor);
        }
        fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
            let mut out = Vec::new();
            // Wrapping, so hostile manifests in the fuzz tests cannot make
            // the job itself panic.
            let v = self.factor.wrapping_mul((point as u64).wrapping_add(1));
            let v = v.wrapping_mul(1000);
            wire::put_u64(&mut out, v.wrapping_add(rep).wrapping_add(seed));
            Ok(out)
        }
    }

    pub(crate) fn decode_mul(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let factor = r.get_u64()?;
        r.finish()?;
        Ok(Box::new(MulJob { factor }))
    }

    fn manifest_for(reps: &[u64]) -> TaskManifest {
        let job = MulJob { factor: 3 };
        let segments = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        TaskManifest::for_job(&job, segments, &|p, r| (p as u64) << 32 | r)
    }

    #[test]
    fn manifest_round_trips_through_wire() {
        let m = manifest_for(&[2, 0, 5, 1]);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = TaskManifest::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m, back);
    }

    /// A short frame declaring `u32::MAX` segments or seeds is rejected
    /// before any allocation sized from the declared count.
    #[test]
    fn manifest_decode_rejects_counts_that_overrun_the_buffer() {
        let decode = |buf: &[u8]| TaskManifest::decode(&mut Reader::new(buf)).unwrap_err();
        let mut buf = Vec::new();
        wire::put_str(&mut buf, "test-mul");
        wire::put_bytes(&mut buf, &[]);
        let prefix = buf.clone();
        wire::put_u32(&mut buf, u32::MAX);
        let err = decode(&buf);
        assert!(
            err.0.contains("segment list of 4294967295 overruns buffer"),
            "{err}"
        );

        let mut buf = prefix;
        wire::put_u32(&mut buf, 0);
        wire::put_u32(&mut buf, u32::MAX);
        wire::put_u64(&mut buf, 7);
        let err = decode(&buf);
        assert!(
            err.0.contains("seed list of 4294967295 overruns buffer"),
            "{err}"
        );
    }

    #[test]
    fn manifest_decode_rejects_overflowing_slot_counts() {
        let m = TaskManifest {
            kind: "test-mul".into(),
            payload: Vec::new(),
            segments: vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: usize::MAX,
                };
                2
            ],
            seeds: vec![1],
        };
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let err = TaskManifest::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// `TaskManifest::decode` reads parent and network bytes: random
        /// bytes, and valid encodings with bytes overwritten, decode or
        /// fail without panicking, and whatever decodes re-encodes to
        /// exactly the bytes it consumed. Valid encodings round-trip, and
        /// every truncation of one is an error.
        #[test]
        fn manifest_decode_survives_hostile_bytes(
            noise in proptest::collection::vec(0u8..255, 0..96),
            reps in proptest::collection::vec(0u64..5, 0..5),
            flips in proptest::collection::vec((0usize..4096, 0u8..255), 1..4),
            cut in 0usize..4096,
        ) {
            let m = manifest_for(&reps);
            let mut buf = Vec::new();
            m.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            proptest::prop_assert_eq!(TaskManifest::decode(&mut r).unwrap(), m);
            proptest::prop_assert!(r.finish().is_ok());
            let cut = cut % buf.len();
            proptest::prop_assert!(TaskManifest::decode(&mut Reader::new(&buf[..cut])).is_err());

            let mut flipped = buf.clone();
            for &(at, byte) in &flips {
                let n = flipped.len();
                flipped[at % n] = byte;
            }
            for bytes in [&noise[..], &flipped[..]] {
                let mut r = Reader::new(bytes);
                if let Ok(m) = TaskManifest::decode(&mut r) {
                    let used = bytes.len() - r.remaining();
                    let mut again = Vec::new();
                    m.encode_into(&mut again);
                    proptest::prop_assert_eq!(&again[..], &bytes[..used]);
                }
            }
        }
    }

    #[test]
    fn manifest_split_covers_all_slots_contiguously() {
        let m = manifest_for(&[3, 0, 7, 1, 4]);
        let total = m.total_slots();
        assert_eq!(total, 15);
        for shards in [1, 2, 3, 4, 15, 99] {
            let chunks = m.split(shards);
            assert_eq!(chunks.len(), shards.min(total));
            let mut expect_start = 0usize;
            let mut all_slots = Vec::new();
            for (start, chunk) in &chunks {
                assert_eq!(*start, expect_start);
                chunk.validate().unwrap();
                assert!(chunk.total_slots() > 0, "empty chunk at {start}");
                expect_start += chunk.total_slots();
                all_slots.extend(chunk.slots());
            }
            assert_eq!(expect_start, total);
            assert_eq!(all_slots, m.slots(), "shards={shards}");
            // Near-equal sizes: max - min <= 1.
            let sizes: Vec<usize> = chunks.iter().map(|(_, c)| c.total_slots()).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1, "uneven split {sizes:?}");
        }
    }

    #[test]
    fn manifest_seed_table_is_per_slot() {
        let m = manifest_for(&[2, 1]);
        let slots = m.slots();
        assert_eq!(
            slots,
            vec![(0, 0, 0), (0, 1, 1), (1, 0, 1 << 32)]
                .into_iter()
                .map(|(p, r, s): (usize, u64, u64)| (p, r, s))
                .collect::<Vec<_>>()
        );
        let mut bad = m.clone();
        bad.seeds.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn in_process_backend_matches_direct_execution() {
        let job = MulJob { factor: 3 };
        let m = manifest_for(&[3, 2, 4]);
        for threads in [1, 2, 8] {
            let flat = InProcessBackend::new(threads)
                .run_segments(&job, &m, None)
                .unwrap();
            let expect: Vec<Vec<u8>> = m
                .slots()
                .iter()
                .map(|&(p, r, s)| job.run_slot(p, r, s).unwrap())
                .collect();
            assert_eq!(flat, expect, "threads={threads}");
        }
    }

    #[test]
    fn run_job_groups_per_point() {
        let job = MulJob { factor: 2 };
        let reps = [2u64, 0, 3];
        let out = Runner::new(4)
            .run_job(&job, &reps, &|p, r| (p as u64) * 10 + r)
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].len(), 2);
        assert!(out[1].is_empty());
        assert_eq!(out[2].len(), 3);
        let mut r = Reader::new(&out[2][1]);
        // point 2, rep 1, seed 21: 2*3*1000 + 1 + 21.
        assert_eq!(r.get_u64().unwrap(), 6022);
    }

    struct FailAt {
        fail_flat: std::collections::BTreeSet<(usize, u64)>,
    }
    impl PortableJob for FailAt {
        fn kind(&self) -> &'static str {
            "test-fail"
        }
        fn encode_payload(&self, _buf: &mut Vec<u8>) {}
        fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
            if self.fail_flat.contains(&(point, rep)) {
                Err(format!("slot ({point},{rep}) refused"))
            } else {
                Ok(vec![1])
            }
        }
    }

    #[test]
    fn in_process_backend_reports_task_error_with_indices() {
        let job = FailAt {
            fail_flat: [(1usize, 2u64)].into_iter().collect(),
        };
        let m = TaskManifest::for_job(
            &job,
            vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: 2,
                },
                Segment {
                    point: 1,
                    base_rep: 0,
                    count: 4,
                },
            ],
            &|_, _| 0,
        );
        let err = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap_err();
        match err {
            ExecError::Task {
                flat_index,
                point,
                replication,
                ..
            } => {
                assert_eq!((flat_index, point, replication), (4, 1, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn registry_round_trip_and_unknown_kind() {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        let job = MulJob { factor: 7 };
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let back = reg.decode("test-mul", &payload).unwrap();
        assert_eq!(back.kind(), "test-mul");
        assert_eq!(
            back.run_slot(0, 0, 0).unwrap(),
            job.run_slot(0, 0, 0).unwrap()
        );
        assert!(reg.decode("nope", &[]).is_err());
    }

    #[test]
    fn exec_config_builds_matching_runner() {
        let e = Exec::in_process(3);
        assert!(!e.is_sharded());
        assert_eq!(e.runner().threads(), 3);
        let s = Exec::sharded(2, 4);
        assert!(s.is_sharded());
        assert!(s.label().contains("shards=4"));
        // Runner built from a sharded Exec dispatches to pipe workers.
        assert!(s.runner().backend_impl().label().contains("sharded"));
    }

    /// A worker backend over `links` pipe workers spawned from `cmd`.
    fn pipes(links: usize, cmd: Vec<String>) -> WorkerBackend {
        WorkerBackend::new(
            Connector::Pipes {
                links,
                cmd: Some(cmd),
            },
            1,
        )
    }

    #[test]
    fn sharded_backend_reports_dead_worker() {
        // `false` exits immediately without speaking the protocol: every
        // shard fails, and the lowest flat index (0) is reported.
        let job = MulJob { factor: 1 };
        let m = manifest_for(&[4, 4]);
        let backend = pipes(2, vec!["/bin/false".into()]);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        match err {
            ExecError::Worker { flat_index, .. } => assert_eq!(flat_index, 0),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn garbage_spewing_worker_is_killed_not_awaited() {
        // A "worker" that writes a bogus oversized frame length and then
        // stalls forever: the gather must kill it and report promptly
        // instead of blocking in wait() behind a process that never exits.
        let job = MulJob { factor: 1 };
        let m = manifest_for(&[2]);
        let backend = pipes(
            1,
            vec![
                "/bin/sh".into(),
                "-c".into(),
                r"printf '\377\377\377\377'; exec sleep 600".into(),
            ],
        );
        let t0 = std::time::Instant::now();
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::Worker { .. }), "{err:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(30),
            "gather hung on a stalled worker"
        );
    }

    #[test]
    fn sharded_backend_reports_unspawnable_worker() {
        let job = MulJob { factor: 1 };
        let m = manifest_for(&[2]);
        let backend = pipes(1, vec!["/nonexistent/worker-binary".into()]);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::Worker { .. }), "{err:?}");
    }
}
