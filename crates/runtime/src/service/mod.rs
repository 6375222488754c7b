//! The experiment service: a persistent daemon with a bounded job queue,
//! a scheduler over the executor backends, and a two-tier
//! content-addressed result cache.
//!
//! Every result in this workspace is a pure function of its
//! [`TaskManifest`] — byte-identical across
//! threads, shards and hosts (PRs 1–4). This module turns that determinism
//! into a serving layer:
//!
//! * [`Service`] — the daemon core: submissions are keyed by a canonical
//!   SHA-256 of the wire-encoded manifest ([`cache::CacheKey`]); repeat
//!   requests are answered from an in-memory LRU over a disk store (a hit
//!   is byte-identical to a fresh run *by construction*); identical
//!   in-flight requests **coalesce onto one execution** (single-flight);
//!   everything else goes through a bounded FIFO queue to dispatcher
//!   threads that run the job on any configured
//!   [`ExecBackend`](sim_core::exec::ExecBackend) — in-process, sharded
//!   subprocesses, or remote TCP hosts;
//! * [`protocol`] — the versioned submit/status/fetch/cancel/stats codec
//!   clients speak over a [`FrameTransport`](crate::remote::FrameTransport)
//!   (responses in request order, so clients can pipeline);
//! * [`client`] — [`client::ServiceClient`] (the verb-level API) and
//!   [`client::ServiceBackend`], an `ExecBackend` that routes a dispatch
//!   through a daemon — which is how every existing experiment driver runs
//!   via the service unchanged (`repro --service <addr>`);
//! * [`serve`] / [`serve_on`] — the TCP front (`repro serve --listen
//!   <addr>`): one connection handler thread per client, shut down by an
//!   explicit protocol verb;
//! * [`http`] — a thin HTTP/1.1 gateway (`repro serve --http <addr>`)
//!   translating `GET /healthz`, `/stats`, `/jobs/<id>`, `/metrics`
//!   (Prometheus text) and `POST /submit` onto the same service core,
//!   for `curl` and monitoring scrapes.

pub mod cache;
pub mod client;
pub mod http;
pub mod protocol;
pub mod queue;

mod scheduler;

pub use client::{ServiceBackend, ServiceClient, ServiceError};
pub use http::{serve_http, SpecParser};
pub use protocol::{Disposition, JobId, JobProgress, JobState, ServiceStats};

use crate::exec::Exec;
use crate::remote::transport::{FrameTransport, TcpTransport};
use cache::{DiskStore, MemCache};
use protocol::{ServiceRequest, ServiceResponse};
use queue::{ClaimedJob, JobTable};
use sim_core::exec::{ExecError, JobRegistry, TaskManifest};
use sim_core::key::CacheKey;
use sim_core::obs::Metric;
use sim_core::wire::WireError;
use sim_core::Runner;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Configuration of a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The backend every job is dispatched onto (threads / shards /
    /// hosts). Must not itself be a service backend.
    pub exec: Exec,
    /// Bound on *queued* (not running) jobs; submissions beyond it are
    /// rejected so a flood degrades loudly instead of accumulating
    /// unbounded state.
    pub queue_capacity: usize,
    /// Dispatcher threads (concurrent jobs). Within-job parallelism comes
    /// from `exec`.
    pub dispatchers: usize,
    /// In-memory LRU capacity, in cached results (0 disables the tier).
    pub mem_cache_entries: usize,
    /// Disk cache directory (`None` disables the persistent tier). The
    /// daemon defaults to `results/cache/`.
    pub cache_dir: Option<PathBuf>,
    /// Byte budget for the disk tier: after every write, least-recently-
    /// used entries are evicted until total entry bytes fit. `None`
    /// (the default) leaves the tier unbounded.
    pub cache_budget: Option<u64>,
    /// Terminal job records kept for late `status`/`fetch` callers.
    pub retain_terminal: usize,
    /// Recent terminal records that keep their result blob pinned in
    /// memory (beyond the cache tiers). Older `Done` jobs drop the blob
    /// and late fetches re-resolve it through the cache by key — so
    /// daemon memory is bounded by this window plus the LRU, not by
    /// every result ever served.
    pub retain_results: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            exec: Exec::default(),
            queue_capacity: 256,
            dispatchers: 1,
            mem_cache_entries: 64,
            cache_dir: Some(PathBuf::from("results/cache")),
            cache_budget: None,
            retain_terminal: 4096,
            retain_results: 64,
        }
    }
}

#[derive(Debug, Default)]
struct StatCounters {
    submitted: AtomicU64,
    hits_mem: AtomicU64,
    hits_disk: AtomicU64,
    coalesced: AtomicU64,
    executed: AtomicU64,
    failed: AtomicU64,
    rejected: AtomicU64,
    cancelled: AtomicU64,
}

/// What a fetch resolved to once the job turned terminal.
#[derive(Debug, Clone)]
pub enum Fetched {
    /// The encoded result blob (see [`cache::decode_blob`]).
    Result(Arc<Vec<u8>>),
    /// The job failed (or was cancelled); the error round-trips to the
    /// client losslessly.
    Failed(ExecError),
}

/// The daemon core. Shared across connection-handler and dispatcher
/// threads behind an `Arc`; all mutable state sits behind one mutex, with
/// two condvars (new work for dispatchers, state transitions for fetch
/// waiters).
pub struct Service {
    cfg: ServiceConfig,
    /// The configured backend, built once; every job dispatches on it.
    runner: Runner,
    registry: Arc<JobRegistry>,
    table: Mutex<JobTable>,
    /// Notified when work is enqueued or the service stops.
    work: Condvar,
    /// Notified on every terminal job transition.
    job_done: Condvar,
    mem: Mutex<MemCache>,
    disk: Option<DiskStore>,
    stats: StatCounters,
    /// The process-global fleet counters at construction. [`Service::stats`]
    /// reports the delta past this baseline, so a service created after
    /// earlier fleet activity in the same process (benches spinning up
    /// several daemons, unit tests) reports only its own degradation.
    fleet_baseline: crate::fleet::FleetSnapshot,
    stopping: AtomicBool,
}

impl std::fmt::Debug for Service {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Service")
            .field("exec", &self.cfg.exec.label())
            .field("queue_capacity", &self.cfg.queue_capacity)
            .field("cache_dir", &self.cfg.cache_dir)
            .finish()
    }
}

impl Service {
    /// Build a service (no dispatcher threads yet — see
    /// [`ServiceHandle::start`] for the running daemon, or drive
    /// [`Service::step`] manually in tests).
    pub fn new(cfg: ServiceConfig, registry: Arc<JobRegistry>) -> Self {
        assert!(
            !cfg.exec.is_service(),
            "a service cannot dispatch onto another service (backend loop)"
        );
        let disk = cfg
            .cache_dir
            .as_ref()
            .map(|dir| DiskStore::new(dir).with_budget(cfg.cache_budget));
        Service {
            table: Mutex::new(JobTable::new(
                cfg.queue_capacity,
                cfg.retain_terminal,
                cfg.retain_results,
            )),
            work: Condvar::new(),
            job_done: Condvar::new(),
            mem: Mutex::new(MemCache::new(cfg.mem_cache_entries)),
            disk,
            stats: StatCounters::default(),
            fleet_baseline: crate::fleet::fleet_stats().snapshot(),
            stopping: AtomicBool::new(false),
            registry,
            runner: cfg.exec.runner(),
            cfg,
        }
    }

    /// The job registry submissions are validated (and in-process
    /// dispatches decoded) against.
    pub fn registry(&self) -> &JobRegistry {
        &self.registry
    }

    /// Submit a manifest. Returns the job to poll/fetch plus where its
    /// answer will come from; `Err` is a request-level rejection (invalid
    /// manifest, unknown job kind, queue full).
    pub fn submit(&self, manifest: TaskManifest) -> Result<(JobId, Disposition), String> {
        let key = CacheKey::of_manifest(&manifest);
        let obs = sim_core::obs::obs();
        let started = obs.start(key.trace_id());
        let out = self.submit_inner(manifest, key);
        obs.end(
            started,
            sim_core::obs::name::SUBMIT,
            sim_core::obs::cat::SERVICE,
            0,
        );
        out
    }

    fn submit_inner(
        &self,
        manifest: TaskManifest,
        key: CacheKey,
    ) -> Result<(JobId, Disposition), String> {
        if self.is_stopping() {
            return Err("service is stopping; submission refused".into());
        }
        manifest
            .validate()
            .map_err(|e| format!("invalid manifest: {e}"))?;
        // Validate kind + payload up front: a submission the workers could
        // never decode must fail at the door, not in a dispatcher.
        self.registry
            .decode(&manifest.kind, &manifest.payload)
            .map_err(|e| format!("unserveable submission: {e}"))?;
        self.stats.submitted.fetch_add(1, Ordering::Relaxed);

        // Optimistic cache probes, each under only its own lock (the
        // guards are dropped before the table is touched — the global
        // lock order is table → mem, never the reverse).
        let probed = { self.mem.lock().expect("mem cache lock").get(&key) };
        if let Some(blob) = probed {
            self.stats.hits_mem.fetch_add(1, Ordering::Relaxed);
            let id = self.table.lock().expect("table lock").admit_hit(key, blob);
            return Ok((id, Disposition::HitMem));
        }
        if let Some(blob) = self.disk.as_ref().and_then(|d| d.get(&key)) {
            self.stats.hits_disk.fetch_add(1, Ordering::Relaxed);
            let blob = Arc::new(blob);
            self.mem
                .lock()
                .expect("mem cache lock")
                .put(key, blob.clone());
            let id = self.table.lock().expect("table lock").admit_hit(key, blob);
            return Ok((id, Disposition::HitDisk));
        }

        // Slow path under the table lock. An identical job may have
        // *published* between the probes above and here (its cache fills
        // happen-before its table completion), so re-check single-flight
        // and the mem tier atomically with the admit — otherwise that
        // window would silently re-execute the job.
        let mut table = self.table.lock().expect("table lock");
        if let Some(live) = table.live(&key) {
            self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
            return Ok((live, Disposition::Coalesced));
        }
        let recheck = { self.mem.lock().expect("mem cache lock").get(&key) };
        if let Some(blob) = recheck {
            self.stats.hits_mem.fetch_add(1, Ordering::Relaxed);
            let id = table.admit_hit(key, blob);
            return Ok((id, Disposition::HitMem));
        }
        match table.admit(key, manifest) {
            Ok((id, Disposition::Queued)) => {
                drop(table);
                self.work.notify_one();
                Ok((id, Disposition::Queued))
            }
            Ok((id, disposition)) => {
                debug_assert_eq!(disposition, Disposition::Coalesced);
                self.stats.coalesced.fetch_add(1, Ordering::Relaxed);
                Ok((id, disposition))
            }
            Err(rejected) => {
                self.stats.rejected.fetch_add(1, Ordering::Relaxed);
                Err(rejected.to_string())
            }
        }
    }

    /// A job's current state, if its record is still retained.
    pub fn status(&self, job: JobId) -> Option<JobState> {
        self.table
            .lock()
            .expect("table lock")
            .get(job)
            .map(|r| r.state)
    }

    /// A job's live progress counters, if its record is still retained.
    /// `total == 0` means no execution ever started (cache hits, or a
    /// queued job no dispatcher has claimed yet).
    pub fn progress(&self, job: JobId) -> Option<JobProgress> {
        self.table
            .lock()
            .expect("table lock")
            .get(job)
            .map(|r| r.progress.snapshot())
    }

    /// Render a job's collected spans as Chrome trace-event JSON (the
    /// trace verb and the gateway's `GET /jobs/<id>/trace`). `None` means
    /// the job id is unknown; a job served with tracing disabled (or
    /// whose spans were evicted from the bounded ring) yields valid JSON
    /// with fewer — possibly zero — events, never an error.
    pub fn trace_json(&self, job: JobId) -> Option<String> {
        let key = self
            .table
            .lock()
            .expect("table lock")
            .get(job)
            .map(|r| r.key)?;
        let trace = key.trace_id();
        let spans = sim_core::obs::obs().spans_for(trace);
        Some(sim_core::obs::render_chrome_trace(trace, &spans))
    }

    /// Block until `job` is terminal; `Err` means the id is unknown (never
    /// submitted, or evicted from terminal retention).
    ///
    /// If the service stops while the job is still queued, the wait ends
    /// with a typed failure instead of blocking forever — dispatchers
    /// exit without claiming it (running jobs still finish and answer
    /// normally).
    pub fn wait(&self, job: JobId) -> Result<Fetched, String> {
        loop {
            if let Some(outcome) = self.wait_for(job, std::time::Duration::from_secs(3600))? {
                return Ok(outcome);
            }
        }
    }

    /// [`Service::wait`] with a bound: gives up after `timeout` with
    /// `Ok(None)` so callers can emit keep-alives (the TCP front sends a
    /// heartbeat frame per expiry, letting clients bound their read
    /// timeouts without mistaking a long job for a dead daemon).
    pub fn wait_for(
        &self,
        job: JobId,
        timeout: std::time::Duration,
    ) -> Result<Option<Fetched>, String> {
        let deadline = std::time::Instant::now() + timeout;
        let (state, key, outcome) = {
            let mut table = self.table.lock().expect("table lock");
            loop {
                let Some(rec) = table.get(job) else {
                    return Err(format!("unknown {job}"));
                };
                if rec.state.is_terminal() {
                    let resolved = match (&rec.result, &rec.error) {
                        (Some(blob), _) => Some(Fetched::Result(blob.clone())),
                        (None, Some(e)) => Some(Fetched::Failed(e.clone())),
                        // An aged Done record dropped its pinned blob;
                        // resolve through the cache tiers below, outside
                        // the table lock.
                        (None, None) => None,
                    };
                    break (rec.state, rec.key, resolved);
                }
                if rec.state == JobState::Queued && self.is_stopping() {
                    return Ok(Some(Fetched::Failed(ExecError::Protocol(format!(
                        "{job} abandoned: service stopped before it was scheduled"
                    )))));
                }
                let now = std::time::Instant::now();
                let Some(remaining) = deadline
                    .checked_duration_since(now)
                    .filter(|d| !d.is_zero())
                else {
                    return Ok(None);
                };
                let (guard, _timed_out) = self
                    .job_done
                    .wait_timeout(table, remaining)
                    .expect("table lock");
                table = guard;
            }
        };
        if let Some(outcome) = outcome {
            return Ok(Some(outcome));
        }
        debug_assert_eq!(state, JobState::Done);
        Ok(Some(match self.lookup_cached(&key) {
            Some(blob) => Fetched::Result(blob),
            None => Fetched::Failed(ExecError::Protocol(format!(
                "{job} finished, but its result aged out of retention and the \
                 cache no longer holds it; resubmit the manifest"
            ))),
        }))
    }

    /// Resolve a blob by key through the cache tiers (memory first, then
    /// disk with promotion). Never called with the table lock held — the
    /// submit path nests mem → table, so table → mem here would invert
    /// the lock order.
    fn lookup_cached(&self, key: &CacheKey) -> Option<Arc<Vec<u8>>> {
        if let Some(blob) = self.mem.lock().expect("mem cache lock").get(key) {
            return Some(blob);
        }
        let blob = Arc::new(self.disk.as_ref()?.get(key)?);
        self.mem
            .lock()
            .expect("mem cache lock")
            .put(*key, blob.clone());
        Some(blob)
    }

    /// Cancel a queued job; `None` means the id is unknown. A job other
    /// submissions coalesced onto, a running job, and terminal jobs are
    /// all refused with the reason (see [`queue::CancelOutcome`]).
    pub fn cancel(&self, job: JobId) -> Option<queue::CancelOutcome> {
        let outcome = self.table.lock().expect("table lock").cancel(job)?;
        if outcome == queue::CancelOutcome::Cancelled {
            self.stats.cancelled.fetch_add(1, Ordering::Relaxed);
            self.job_done.notify_all();
        }
        Some(outcome)
    }

    /// Snapshot the daemon counters. The fleet-degradation counters come
    /// from the process-global fleet (restarts, quarantines, in-process
    /// fallbacks across every backend this daemon dispatched onto),
    /// reported relative to the service's construction-time baseline so
    /// earlier fleet activity in the same process is not attributed to
    /// this daemon; the cache-hygiene counters from the disk tier.
    pub fn stats(&self) -> ServiceStats {
        let fleet = crate::fleet::fleet_stats()
            .snapshot()
            .delta_since(&self.fleet_baseline);
        ServiceStats {
            submitted: self.stats.submitted.load(Ordering::Relaxed),
            hits_mem: self.stats.hits_mem.load(Ordering::Relaxed),
            hits_disk: self.stats.hits_disk.load(Ordering::Relaxed),
            coalesced: self.stats.coalesced.load(Ordering::Relaxed),
            executed: self.stats.executed.load(Ordering::Relaxed),
            failed: self.stats.failed.load(Ordering::Relaxed),
            rejected: self.stats.rejected.load(Ordering::Relaxed),
            cancelled: self.stats.cancelled.load(Ordering::Relaxed),
            restarts: fleet.restarts,
            quarantined: fleet.quarantined,
            fallbacks: fleet.fallbacks,
            cache_evicted: self.disk.as_ref().map_or(0, DiskStore::evicted),
            cache_corrupt: self.disk.as_ref().map_or(0, DiskStore::corrupt_deleted),
        }
    }

    /// Jobs admitted but not yet claimed by a dispatcher.
    pub fn queue_depth(&self) -> usize {
        self.table.lock().expect("table lock").queued_len()
    }

    /// Ask dispatchers (and [`ServiceHandle`] joins) to wind down. New
    /// submissions are refused, queued-job fetch waiters are woken with a
    /// typed failure, and in-flight executions finish normally.
    pub fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        self.work.notify_all();
        self.job_done.notify_all();
    }

    /// Whether [`Service::stop`] has been called.
    pub fn is_stopping(&self) -> bool {
        self.stopping.load(Ordering::SeqCst)
    }

    /// Claim the next queued job, blocking until work arrives or the
    /// service stops (`None`).
    pub(super) fn next_claim(&self) -> Option<ClaimedJob> {
        let mut table = self.table.lock().expect("table lock");
        loop {
            if self.is_stopping() {
                return None;
            }
            if let Some(claimed) = table.claim() {
                return Some(claimed);
            }
            table = self.work.wait(table).expect("table lock");
        }
    }

    /// Execute at most one queued job synchronously (the single-step
    /// variant of a dispatcher thread, for tests and embedding). Returns
    /// whether a job was run.
    pub fn step(&self) -> bool {
        let claimed = { self.table.lock().expect("table lock").claim() };
        match claimed {
            Some(c) => {
                scheduler::execute(self, c);
                true
            }
            None => false,
        }
    }

    /// Publish a finished job: store the blob in both cache tiers, mark
    /// `Done`, wake fetch waiters. (A failed disk write is logged and
    /// ignored — caching is an optimization, never a correctness gate.)
    pub(crate) fn publish_done(&self, job: JobId, key: CacheKey, blob: Arc<Vec<u8>>) {
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.put(&key, &blob) {
                eprintln!("[service] cache write for {job} failed: {e}");
            }
        }
        self.mem
            .lock()
            .expect("mem cache lock")
            .put(key, blob.clone());
        self.table.lock().expect("table lock").complete(job, blob);
        self.job_done.notify_all();
    }

    /// Publish a failed job (failures are deliberately *not* cached: a
    /// transient worker death must not poison the key forever).
    pub(crate) fn publish_failed(&self, job: JobId, error: ExecError) {
        self.stats.executed.fetch_add(1, Ordering::Relaxed);
        self.stats.failed.fetch_add(1, Ordering::Relaxed);
        self.table.lock().expect("table lock").fail(job, error);
        self.job_done.notify_all();
    }
}

/// A running daemon: the service plus its dispatcher threads.
pub struct ServiceHandle {
    service: Arc<Service>,
    dispatchers: Vec<std::thread::JoinHandle<()>>,
}

impl ServiceHandle {
    /// Start `cfg.dispatchers` dispatcher threads over a fresh service.
    pub fn start(cfg: ServiceConfig, registry: Arc<JobRegistry>) -> Self {
        let dispatchers = cfg.dispatchers.max(1);
        let service = Arc::new(Service::new(cfg, registry));
        let threads = (0..dispatchers)
            .map(|_| {
                let svc = service.clone();
                std::thread::spawn(move || scheduler::dispatcher_loop(&svc))
            })
            .collect();
        ServiceHandle {
            service,
            dispatchers: threads,
        }
    }

    /// The shared service core.
    pub fn service(&self) -> Arc<Service> {
        self.service.clone()
    }

    /// Stop the dispatchers and join them. In-flight jobs finish; queued
    /// jobs stay queued (and are lost with the process).
    pub fn stop(mut self) {
        self.service.stop();
        for t in self.dispatchers.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.service.stop();
        for t in self.dispatchers.drain(..) {
            let _ = t.join();
        }
    }
}

// --- the TCP front -------------------------------------------------------

/// Serve the protocol on `addr`, announcing the bound address on stdout
/// as `serving <addr>` (binding port 0 is how harnesses get an ephemeral
/// port). Returns after a client sends the shutdown verb. The caller owns
/// daemon teardown (typically [`ServiceHandle::stop`]).
pub fn serve(service: Arc<Service>, addr: &str) -> Result<(), WireError> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| WireError::new(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| WireError::new(format!("local_addr: {e}")))?;
    println!("serving {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    serve_on(service, listener)
}

/// Concurrent client connections the TCP front accepts; over the cap,
/// new connections are turned away with an in-band error frame instead of
/// growing one OS thread each without bound.
pub const MAX_CONNECTIONS: usize = 1024;

/// How often a blocking fetch emits a keep-alive heartbeat frame, and the
/// floor any client read timeout must comfortably exceed.
pub(crate) const FETCH_KEEPALIVE: std::time::Duration = std::time::Duration::from_millis(500);

/// How long daemon shutdown waits for in-flight request handlers (fetch
/// waiters on running jobs, responses mid-write) to drain before exiting
/// anyway.
const SHUTDOWN_DRAIN: std::time::Duration = std::time::Duration::from_secs(60);

/// [`serve`] over a pre-bound listener (no announcement line).
///
/// Each accepted connection gets its own handler thread (capped at
/// [`MAX_CONNECTIONS`]) running the request loop; responses go back **in
/// request order**, so pipelined clients work and a blocking fetch on one
/// connection never stalls another client. Returns once a connection
/// delivers the shutdown verb — after stopping the service (queued-job
/// waiters get a typed failure) and draining in-flight handlers, so
/// running jobs still answer their waiters before the process exits.
pub fn serve_on(service: Arc<Service>, listener: std::net::TcpListener) -> Result<(), WireError> {
    use std::sync::atomic::AtomicUsize;
    let local = listener
        .local_addr()
        .map_err(|e| WireError::new(format!("local_addr: {e}")))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let connections = Arc::new(AtomicUsize::new(0));
    // Handlers busy processing a request (as opposed to parked in recv on
    // an idle connection); shutdown drains this to zero before returning.
    let busy = Arc::new((Mutex::new(0usize), Condvar::new()));
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                eprintln!("[service {local}] accept failed: {e}");
                std::thread::sleep(std::time::Duration::from_millis(100));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            drain_busy(&busy, local);
            return Ok(());
        }
        if connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
            // Reject loudly and cheaply on the accept thread; never a
            // thread per flood connection.
            let mut t = TcpTransport::new(stream);
            let _ = t
                .send(
                    &ServiceResponse::Err(format!(
                        "connection limit reached ({MAX_CONNECTIONS}); retry later"
                    ))
                    .encode(),
                )
                .and_then(|_| t.flush());
            continue;
        }
        connections.fetch_add(1, Ordering::SeqCst);
        let service = service.clone();
        let shutdown = shutdown.clone();
        let connections = connections.clone();
        let busy = busy.clone();
        std::thread::spawn(move || {
            let mut transport = TcpTransport::new(stream);
            let outcome = handle_connection(&service, &mut transport, &busy);
            connections.fetch_sub(1, Ordering::SeqCst);
            match outcome {
                Ok(true) => {
                    // Stop the service first: new submissions are refused
                    // and fetch waiters on never-to-be-claimed queued jobs
                    // wake with a typed failure, so the busy drain below
                    // cannot deadlock on them.
                    service.stop();
                    shutdown.store(true, Ordering::SeqCst);
                    // Self-connect so the accept loop observes the flag.
                    // A daemon bound to the unspecified address (0.0.0.0 /
                    // [::]) is not connectable at that literal IP on every
                    // platform — aim at loopback on the bound port instead.
                    let mut wake = local;
                    if wake.ip().is_unspecified() {
                        wake.set_ip(match wake.ip() {
                            std::net::IpAddr::V4(_) => {
                                std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST)
                            }
                            std::net::IpAddr::V6(_) => {
                                std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST)
                            }
                        });
                    }
                    if let Err(e) = std::net::TcpStream::connect(wake) {
                        eprintln!(
                            "[service {local}] shutdown wake-up connect failed ({e}); \
                             the accept loop will exit on the next connection"
                        );
                    }
                }
                Ok(false) => {}
                Err(e) => eprintln!("[service {local}] connection {peer}: {e}"),
            }
        });
    }
}

/// Wait (bounded) for in-flight request handlers to finish writing their
/// responses, so fetch waiters whose jobs completed are answered before
/// the process exits.
fn drain_busy(busy: &(Mutex<usize>, Condvar), local: std::net::SocketAddr) {
    let (lock, cv) = busy;
    let deadline = std::time::Instant::now() + SHUTDOWN_DRAIN;
    let mut count = lock.lock().expect("busy lock");
    while *count > 0 {
        let Some(remaining) = deadline.checked_duration_since(std::time::Instant::now()) else {
            eprintln!(
                "[service {local}] shutdown drain timed out with {count} handler(s) in flight"
            );
            return;
        };
        let (guard, _) = cv.wait_timeout(count, remaining).expect("busy lock");
        count = guard;
    }
}

/// RAII increment of the busy-handler count for one request's lifetime.
struct BusyGuard<'a>(&'a (Mutex<usize>, Condvar));

impl<'a> BusyGuard<'a> {
    fn enter(busy: &'a (Mutex<usize>, Condvar)) -> Self {
        *busy.0.lock().expect("busy lock") += 1;
        BusyGuard(busy)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        *self.0 .0.lock().expect("busy lock") -= 1;
        self.0 .1.notify_all();
    }
}

/// Drive one client connection; `Ok(true)` means the client requested
/// daemon shutdown. `busy` is held (via [`BusyGuard`]) from request
/// decode to response flush, so shutdown can drain in-flight answers.
fn handle_connection(
    service: &Service,
    transport: &mut dyn FrameTransport,
    busy: &(Mutex<usize>, Condvar),
) -> Result<bool, WireError> {
    loop {
        let body = match transport
            .recv()
            .map_err(|e| WireError::new(format!("request read failed: {e}")))?
        {
            Some(b) => b,
            None => return Ok(false), // client hung up
        };
        let _busy = BusyGuard::enter(busy);
        // A frame that decodes to garbage gets an in-band error and the
        // connection stays usable (framing is intact — only the body was
        // wrong, e.g. a version mismatch).
        let decoded = ServiceRequest::decode(&body);
        let verb_metric = match &decoded {
            Ok(ServiceRequest::Submit { .. }) => Metric::VerbSubmit,
            Ok(ServiceRequest::Status(_)) => Metric::VerbStatus,
            Ok(ServiceRequest::Fetch(_)) => Metric::VerbFetch,
            Ok(ServiceRequest::Cancel(_)) => Metric::VerbCancel,
            Ok(ServiceRequest::Stats) => Metric::VerbStats,
            Ok(ServiceRequest::Shutdown) => Metric::VerbShutdown,
            Ok(ServiceRequest::Trace(_)) => Metric::VerbTrace,
            Err(_) => Metric::VerbInvalid,
        };
        let verb_started = std::time::Instant::now();
        let response = match decoded {
            Err(e) => ServiceResponse::Err(e.to_string()),
            Ok(ServiceRequest::Submit {
                threads: _advisory,
                manifest,
            }) => match service.submit(manifest) {
                Ok((job, disposition)) => ServiceResponse::Submitted { job, disposition },
                Err(msg) => ServiceResponse::Err(msg),
            },
            Ok(ServiceRequest::Status(job)) => match service.status(job) {
                Some(state) => ServiceResponse::Status { job, state },
                None => ServiceResponse::Err(format!("unknown {job}")),
            },
            Ok(ServiceRequest::Fetch(job)) => loop {
                // Bounded waits with keep-alive frames in between: a
                // client can cap its read timeout well under any job
                // runtime and still tell "long job" from "dead daemon".
                // Once the job has a live progress record the keep-alive
                // carries it; a job with no record yet (or a cache hit,
                // whose total stays 0) keeps the plain heartbeat.
                match service.wait_for(job, FETCH_KEEPALIVE) {
                    Ok(Some(Fetched::Result(blob))) => {
                        // One final progress frame pins the sequence at
                        // done == total before the result lands, so a
                        // watcher never ends on a stale partial count
                        // (ticks are sampled, not exhaustive).
                        if let Some(p) = service.progress(job).filter(|p| p.total > 0) {
                            let done = ServiceResponse::Progress {
                                job,
                                progress: JobProgress { done: p.total, ..p },
                            };
                            transport
                                .send(&done.encode())
                                .and_then(|_| transport.flush())
                                .map_err(|e| {
                                    WireError::new(format!("progress write failed: {e}"))
                                })?;
                        }
                        break ServiceResponse::Result {
                            job,
                            blob: blob.to_vec(),
                        };
                    }
                    Ok(Some(Fetched::Failed(error))) => {
                        break ServiceResponse::Failed { job, error }
                    }
                    Err(msg) => break ServiceResponse::Err(msg),
                    Ok(None) => {
                        let keep_alive = match service.progress(job).filter(|p| p.total > 0) {
                            Some(progress) => ServiceResponse::Progress { job, progress },
                            None => ServiceResponse::Heartbeat,
                        };
                        transport
                            .send(&keep_alive.encode())
                            .and_then(|_| transport.flush())
                            .map_err(|e| WireError::new(format!("keep-alive write failed: {e}")))?;
                    }
                }
            },
            Ok(ServiceRequest::Cancel(job)) => match service.cancel(job) {
                Some(queue::CancelOutcome::Cancelled) => ServiceResponse::Ok,
                Some(queue::CancelOutcome::Shared { waiters }) => ServiceResponse::Err(format!(
                    "{job} is shared: {waiters} other submission(s) coalesced onto it; \
                     refusing to cancel work they are waiting on"
                )),
                Some(queue::CancelOutcome::NotQueued(state)) => {
                    ServiceResponse::Err(format!("{job} is {state}; only queued jobs cancel"))
                }
                None => ServiceResponse::Err(format!("unknown {job}")),
            },
            Ok(ServiceRequest::Stats) => ServiceResponse::Stats(service.stats()),
            Ok(ServiceRequest::Trace(job)) => match service.trace_json(job) {
                Some(json) => ServiceResponse::Trace { job, json },
                None => ServiceResponse::Err(format!("unknown {job}")),
            },
            Ok(ServiceRequest::Shutdown) => {
                let send = transport
                    .send(&ServiceResponse::Ok.encode())
                    .and_then(|_| transport.flush());
                if let Err(e) = send {
                    return Err(WireError::new(format!("shutdown ack failed: {e}")));
                }
                return Ok(true);
            }
        };
        sim_core::obs::obs().record_duration(verb_metric, verb_started.elapsed());
        transport
            .send(&response.encode())
            .and_then(|_| transport.flush())
            .map_err(|e| WireError::new(format!("response write failed: {e}")))?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use sim_core::exec::{ExecBackend, InProcessBackend, PortableJob};
    use sim_core::grid::Segment;

    fn registry() -> Arc<JobRegistry> {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        reg.register("test-svc-fail", |_p| {
            struct Boom;
            impl PortableJob for Boom {
                fn kind(&self) -> &'static str {
                    "test-svc-fail"
                }
                fn encode_payload(&self, _buf: &mut Vec<u8>) {}
                fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
                    if point == 0 && rep == 1 {
                        Err("svc boom".into())
                    } else {
                        Ok(vec![0])
                    }
                }
            }
            Ok(Box::new(Boom))
        });
        Arc::new(reg)
    }

    fn mul_manifest(mix: u64, reps: u64) -> TaskManifest {
        TaskManifest::for_job(
            &MulJob { factor: 3 },
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: reps as usize,
            }],
            &|p, r| mix ^ ((p as u64) << 32) ^ r,
        )
    }

    fn mem_only_cfg() -> ServiceConfig {
        ServiceConfig {
            exec: Exec::in_process(1),
            cache_dir: None,
            ..Default::default()
        }
    }

    fn unique_dir(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "svc-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn expected_blob(manifest: &TaskManifest) -> Vec<u8> {
        let job = MulJob { factor: 3 };
        let slots = InProcessBackend::new(1)
            .run_segments(&job, manifest, None)
            .unwrap();
        cache::encode_blob(&slots)
    }

    #[test]
    fn submit_step_fetch_round_trips_and_repeat_hits_memory() {
        let svc = Service::new(mem_only_cfg(), registry());
        let m = mul_manifest(1, 3);
        let (job, d) = svc.submit(m.clone()).unwrap();
        assert_eq!(d, Disposition::Queued);
        assert_eq!(svc.status(job), Some(JobState::Queued));
        assert!(svc.step());
        assert!(!svc.step(), "queue drained");
        assert_eq!(svc.status(job), Some(JobState::Done));
        let Fetched::Result(blob) = svc.wait(job).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(*blob, expected_blob(&m), "served bytes == direct bytes");

        // Identical resubmission: answered from memory, born Done, same
        // bytes, no second execution.
        let (job2, d2) = svc.submit(m).unwrap();
        assert_eq!(d2, Disposition::HitMem);
        assert_ne!(job2, job);
        let Fetched::Result(blob2) = svc.wait(job2).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(blob, blob2);
        let s = svc.stats();
        assert_eq!((s.submitted, s.executed, s.hits_mem), (2, 1, 1));
    }

    #[test]
    fn disk_tier_survives_a_service_restart() {
        let dir = unique_dir("disk");
        let cfg = ServiceConfig {
            exec: Exec::in_process(1),
            cache_dir: Some(dir.clone()),
            ..Default::default()
        };
        let m = mul_manifest(7, 2);
        let first_blob;
        {
            let svc = Service::new(cfg.clone(), registry());
            let (job, _) = svc.submit(m.clone()).unwrap();
            svc.step();
            let Fetched::Result(blob) = svc.wait(job).unwrap() else {
                panic!("expected a result");
            };
            first_blob = blob.to_vec();
        }
        // A brand-new service over the same directory: disk hit, no
        // execution, identical bytes.
        let svc = Service::new(cfg, registry());
        let (job, d) = svc.submit(m).unwrap();
        assert_eq!(d, Disposition::HitDisk);
        let Fetched::Result(blob) = svc.wait(job).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(*blob, first_blob);
        assert_eq!(svc.stats().executed, 0);
        // And the blob is now promoted: a third submission hits memory.
        assert_eq!(
            svc.submit(mul_manifest(7, 2)).unwrap().1,
            Disposition::HitMem
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn single_flight_coalesces_and_all_waiters_get_the_same_bytes() {
        let svc = Service::new(mem_only_cfg(), registry());
        let m = mul_manifest(3, 4);
        let (a, da) = svc.submit(m.clone()).unwrap();
        let (b, db) = svc.submit(m.clone()).unwrap();
        assert_eq!((da, db), (Disposition::Queued, Disposition::Coalesced));
        assert_eq!(a, b, "coalesced submission shares the job");
        assert!(svc.step());
        assert!(!svc.step(), "one execution for two submissions");
        let Fetched::Result(blob) = svc.wait(a).unwrap() else {
            panic!("expected a result");
        };
        assert_eq!(*blob, expected_blob(&m));
        let s = svc.stats();
        assert_eq!((s.coalesced, s.executed), (1, 1));
    }

    #[test]
    fn failures_propagate_losslessly_and_are_not_cached() {
        let svc = Service::new(mem_only_cfg(), registry());
        let m = TaskManifest {
            kind: "test-svc-fail".into(),
            payload: Vec::new(),
            segments: vec![Segment {
                point: 0,
                base_rep: 0,
                count: 3,
            }],
            seeds: vec![0; 3],
        };
        let (job, _) = svc.submit(m.clone()).unwrap();
        svc.step();
        assert_eq!(svc.status(job), Some(JobState::Failed));
        let Fetched::Failed(e) = svc.wait(job).unwrap() else {
            panic!("expected a failure");
        };
        match e {
            ExecError::Task {
                flat_index,
                point,
                replication,
                ref message,
            } => {
                assert_eq!((flat_index, point, replication), (1, 0, 1));
                assert_eq!(message, "svc boom");
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Resubmission is fresh work — failures never become cache hits.
        let (_job2, d) = svc.submit(m).unwrap();
        assert_eq!(d, Disposition::Queued);
        assert_eq!(svc.stats().failed, 1);
    }

    #[test]
    fn bounded_queue_rejects_and_invalid_submissions_fail_at_the_door() {
        let cfg = ServiceConfig {
            queue_capacity: 1,
            ..mem_only_cfg()
        };
        let svc = Service::new(cfg, registry());
        svc.submit(mul_manifest(1, 1)).unwrap();
        let err = svc.submit(mul_manifest(2, 1)).unwrap_err();
        assert!(err.contains("queue full"), "{err}");
        assert_eq!(svc.stats().rejected, 1);

        // Unknown job kind.
        let mut bad = mul_manifest(3, 1);
        bad.kind = "never-registered".into();
        assert!(svc.submit(bad).unwrap_err().contains("unserveable"));
        // Seed table mismatch.
        let mut bad = mul_manifest(3, 2);
        bad.seeds.pop();
        assert!(svc.submit(bad).unwrap_err().contains("invalid manifest"));
    }

    #[test]
    fn cancel_verb_semantics() {
        let svc = Service::new(mem_only_cfg(), registry());
        let (a, _) = svc.submit(mul_manifest(1, 1)).unwrap();
        let (b, _) = svc.submit(mul_manifest(2, 1)).unwrap();
        assert_eq!(svc.cancel(b), Some(queue::CancelOutcome::Cancelled));
        assert_eq!(svc.status(b), Some(JobState::Cancelled));
        let Fetched::Failed(e) = svc.wait(b).unwrap() else {
            panic!("cancelled job must fetch as a failure");
        };
        assert!(e.to_string().contains("cancelled"), "{e}");
        // Only the surviving job executes.
        assert!(svc.step());
        assert!(!svc.step());
        assert_eq!(svc.status(a), Some(JobState::Done));
        assert_eq!(
            svc.cancel(a),
            Some(queue::CancelOutcome::NotQueued(JobState::Done))
        );
        assert_eq!(svc.cancel(JobId(12345)), None);
        assert_eq!(svc.stats().cancelled, 1);
    }

    #[test]
    fn blocking_fetch_streams_heartbeats_and_bounded_waits_time_out() {
        // wait_for semantics first: with no dispatcher, a bounded wait on
        // a queued job expires with Ok(None).
        let svc = Service::new(mem_only_cfg(), registry());
        let (job, _) = svc.submit(mul_manifest(1, 1)).unwrap();
        assert!(matches!(
            svc.wait_for(job, std::time::Duration::from_millis(30)),
            Ok(None)
        ));

        // Over TCP: a job slower than the keep-alive interval makes the
        // daemon emit heartbeat frames before the result, and a client
        // whose read timeout is far below the job runtime still gets the
        // answer (the liveness-parity contract with the remote backend).
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        reg.register("test-slow", |p| {
            struct Slow(u64);
            impl PortableJob for Slow {
                fn kind(&self) -> &'static str {
                    "test-slow"
                }
                fn encode_payload(&self, buf: &mut Vec<u8>) {
                    sim_core::wire::put_u64(buf, self.0);
                }
                fn run_slot(&self, _p: usize, _r: u64, seed: u64) -> Result<Vec<u8>, String> {
                    std::thread::sleep(std::time::Duration::from_millis(self.0));
                    Ok(vec![seed as u8])
                }
            }
            let mut r = sim_core::wire::Reader::new(p);
            let ms = r.get_u64()?;
            r.finish()?;
            Ok(Box::new(Slow(ms)))
        });
        let handle = ServiceHandle::start(
            ServiceConfig {
                exec: Exec::in_process(1),
                cache_dir: None,
                ..Default::default()
            },
            Arc::new(reg),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = handle.service();
        let server = std::thread::spawn(move || serve_on(svc, listener).unwrap());

        struct Slow(u64);
        impl PortableJob for Slow {
            fn kind(&self) -> &'static str {
                "test-slow"
            }
            fn encode_payload(&self, buf: &mut Vec<u8>) {
                sim_core::wire::put_u64(buf, self.0);
            }
            fn run_slot(&self, _p: usize, _r: u64, seed: u64) -> Result<Vec<u8>, String> {
                Ok(vec![seed as u8])
            }
        }
        let slow = TaskManifest::for_job(
            &Slow(1300), // ≈ 2–3 keep-alive intervals
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 1,
            }],
            &|_, _| 7,
        );
        // Raw transport so the heartbeat frames are visible.
        let mut t = TcpTransport::new(std::net::TcpStream::connect(addr).unwrap());
        t.set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        t.send(
            &ServiceRequest::Submit {
                threads: 1,
                manifest: slow,
            }
            .encode(),
        )
        .unwrap();
        let submitted = ServiceResponse::decode(&t.recv().unwrap().unwrap()).unwrap();
        let ServiceResponse::Submitted { job, .. } = submitted else {
            panic!("unexpected {submitted:?}");
        };
        t.send(&ServiceRequest::Fetch(job).encode()).unwrap();
        t.flush().unwrap();
        let mut keep_alives = 0;
        let mut last_progress: Option<protocol::JobProgress> = None;
        let result = loop {
            match ServiceResponse::decode(&t.recv().unwrap().unwrap()).unwrap() {
                ServiceResponse::Heartbeat => keep_alives += 1,
                ServiceResponse::Progress { progress, .. } => {
                    keep_alives += 1;
                    if let Some(prev) = last_progress {
                        assert!(progress.done >= prev.done, "progress must be monotone");
                    }
                    last_progress = Some(progress);
                }
                other => break other,
            }
        };
        assert!(
            keep_alives >= 1,
            "a 1.3 s job must keep-alive at least once before answering"
        );
        let final_p = last_progress.expect("an executed job streams progress frames");
        assert_eq!(
            (final_p.done, final_p.total),
            (1, 1),
            "the final progress frame pins done == total"
        );
        match result {
            ServiceResponse::Result { blob, .. } => {
                assert_eq!(cache::decode_blob(&blob).unwrap(), vec![vec![7u8]]);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The high-level client consumes heartbeats transparently, with a
        // read timeout far below the job runtime.
        let mut client =
            ServiceClient::connect(&addr.to_string(), std::time::Duration::from_secs(2)).unwrap();
        let slow2 = TaskManifest::for_job(
            &Slow(1300),
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 1,
            }],
            &|_, _| 9, // distinct seed → no cache hit
        );
        let (job2, _) = client.submit(&slow2, 1).unwrap();
        assert_eq!(client.fetch(job2).unwrap(), vec![vec![9u8]]);

        client.shutdown().unwrap();
        crate::remote::transport::join_within(server);
        handle.stop();
    }

    #[test]
    fn dead_silent_daemon_times_out_instead_of_hanging() {
        // A listener that accepts and never answers: the client's read
        // timeout must surface an error, not hang the caller forever.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let hold = std::thread::spawn(move || {
            let (_stream, _) = listener.accept().unwrap();
            std::thread::sleep(std::time::Duration::from_secs(20));
        });
        let mut client =
            ServiceClient::connect(&addr.to_string(), std::time::Duration::from_millis(600))
                .unwrap();
        let t0 = std::time::Instant::now();
        let err = client.status(JobId(1)).unwrap_err();
        assert!(matches!(err, ServiceError::Io(_)), "{err:?}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "silent daemon must time out promptly"
        );
        drop(client);
        drop(hold); // detached sleeper dies with the test process
    }

    #[test]
    fn stop_unblocks_queued_fetch_waiters_and_refuses_new_work() {
        // Regression: stop() used to notify only the dispatcher condvar,
        // leaving a fetch waiter on a still-queued job blocked forever.
        let svc = Arc::new(Service::new(mem_only_cfg(), registry()));
        let (job, _) = svc.submit(mul_manifest(1, 2)).unwrap();
        let waiter = {
            let svc = svc.clone();
            std::thread::spawn(move || svc.wait(job))
        };
        // Give the waiter time to park on the condvar.
        std::thread::sleep(std::time::Duration::from_millis(50));
        svc.stop();
        let outcome = crate::remote::transport::join_within(waiter).unwrap();
        let Fetched::Failed(e) = outcome else {
            panic!("queued job must fail once the service stops");
        };
        assert!(e.to_string().contains("abandoned"), "{e}");
        // And the door is closed for new work.
        let err = svc.submit(mul_manifest(2, 2)).unwrap_err();
        assert!(err.contains("stopping"), "{err}");
    }

    #[test]
    fn aged_done_records_resolve_via_cache_tiers_or_fail_typed() {
        // With a pinned-result window of 1 and no cache tiers at all,
        // only the most recent result stays fetchable — older fetches get
        // a typed "aged out" failure, never a hang or wrong bytes.
        let cfg = ServiceConfig {
            exec: Exec::in_process(1),
            cache_dir: None,
            mem_cache_entries: 0,
            retain_results: 1,
            ..Default::default()
        };
        let svc = Service::new(cfg, registry());
        let ma = mul_manifest(1, 2);
        let mb = mul_manifest(2, 2);
        let (a, _) = svc.submit(ma.clone()).unwrap();
        svc.step();
        let (b, _) = svc.submit(mb.clone()).unwrap();
        svc.step();
        // B is inside the window; A's blob was unpinned and nothing else
        // holds it.
        let Fetched::Result(blob_b) = svc.wait(b).unwrap() else {
            panic!("recent result must fetch");
        };
        assert_eq!(*blob_b, expected_blob(&mb));
        let Fetched::Failed(e) = svc.wait(a).unwrap() else {
            panic!("aged result without cache tiers must fail typed");
        };
        assert!(e.to_string().contains("aged out"), "{e}");

        // Same shape with the disk tier on: the aged fetch resolves from
        // disk with the exact executed bytes.
        let dir = unique_dir("aged");
        let cfg = ServiceConfig {
            exec: Exec::in_process(1),
            cache_dir: Some(dir.clone()),
            mem_cache_entries: 0,
            retain_results: 1,
            ..Default::default()
        };
        let svc = Service::new(cfg, registry());
        let (a, _) = svc.submit(ma.clone()).unwrap();
        svc.step();
        let (b2, _) = svc.submit(mb).unwrap();
        svc.step();
        let _ = b2;
        let Fetched::Result(blob_a) = svc.wait(a).unwrap() else {
            panic!("aged result must resolve from the disk tier");
        };
        assert_eq!(*blob_a, expected_blob(&ma));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dispatcher_threads_drain_the_queue() {
        let handle = ServiceHandle::start(
            ServiceConfig {
                dispatchers: 2,
                ..mem_only_cfg()
            },
            registry(),
        );
        let svc = handle.service();
        let mut jobs = Vec::new();
        for mix in 0..6u64 {
            let (job, _) = svc.submit(mul_manifest(mix, 2)).unwrap();
            jobs.push((job, mul_manifest(mix, 2)));
        }
        for (job, m) in jobs {
            let Fetched::Result(blob) = svc.wait(job).unwrap() else {
                panic!("expected a result");
            };
            assert_eq!(*blob, expected_blob(&m));
        }
        assert_eq!(svc.stats().executed, 6);
        handle.stop();
    }

    #[test]
    fn tcp_front_serves_pipelined_requests_in_order() {
        let handle = ServiceHandle::start(mem_only_cfg(), registry());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = handle.service();
        let server = std::thread::spawn(move || serve_on(svc, listener).unwrap());

        let m = mul_manifest(11, 2);
        let mut t = TcpTransport::new(std::net::TcpStream::connect(addr).unwrap());
        // Pipeline: submit, fetch (ids are deterministic in a fresh
        // daemon: first job is 1), identical resubmit, stats — one write
        // burst, four in-order responses.
        for req in [
            ServiceRequest::Submit {
                threads: 1,
                manifest: m.clone(),
            },
            ServiceRequest::Fetch(JobId(1)),
            ServiceRequest::Submit {
                threads: 1,
                manifest: m.clone(),
            },
            ServiceRequest::Stats,
        ] {
            t.send(&req.encode()).unwrap();
        }
        t.flush().unwrap();
        let mut responses = Vec::new();
        while responses.len() < 4 {
            let body = t.recv().unwrap().expect("response frame");
            match ServiceResponse::decode(&body).unwrap() {
                // Keep-alive frames (including the fetch's final progress
                // frame) are not responses; pipelined accounting skips
                // them exactly like the client does.
                ServiceResponse::Heartbeat | ServiceResponse::Progress { .. } => {}
                resp => responses.push(resp),
            }
        }
        assert_eq!(
            responses[0],
            ServiceResponse::Submitted {
                job: JobId(1),
                disposition: Disposition::Queued
            }
        );
        match &responses[1] {
            ServiceResponse::Result { job, blob } => {
                assert_eq!(*job, JobId(1));
                assert_eq!(*blob, expected_blob(&m));
            }
            other => panic!("unexpected {other:?}"),
        }
        match &responses[2] {
            ServiceResponse::Submitted { disposition, .. } => {
                // The fetch before it guarantees the first job is done, so
                // the resubmission is a memory hit.
                assert_eq!(*disposition, Disposition::HitMem);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &responses[3] {
            ServiceResponse::Stats(s) => {
                assert_eq!(s.hits_mem, 1);
                assert_eq!(s.executed, 1);
            }
            other => panic!("unexpected {other:?}"),
        }

        // A garbled request gets an in-band error; the connection and the
        // daemon survive.
        let mut body = ServiceRequest::Stats.encode();
        body[1] = protocol::SERVICE_WIRE_VERSION + 9;
        t.send(&body).unwrap();
        t.flush().unwrap();
        match ServiceResponse::decode(&t.recv().unwrap().unwrap()).unwrap() {
            ServiceResponse::Err(msg) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }

        // Shutdown verb ends the accept loop.
        t.send(&ServiceRequest::Shutdown.encode()).unwrap();
        t.flush().unwrap();
        assert_eq!(
            ServiceResponse::decode(&t.recv().unwrap().unwrap()).unwrap(),
            ServiceResponse::Ok
        );
        crate::remote::transport::join_within(server);
        handle.stop();
    }

    #[test]
    fn unknown_kind_rejected_over_tcp_and_unknown_job_errors() {
        let handle = ServiceHandle::start(mem_only_cfg(), registry());
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = handle.service();
        let server = std::thread::spawn(move || serve_on(svc, listener).unwrap());

        let mut t = TcpTransport::new(std::net::TcpStream::connect(addr).unwrap());
        let mut m = mul_manifest(1, 1);
        m.kind = "nope".into();
        t.send(
            &ServiceRequest::Submit {
                threads: 1,
                manifest: m,
            }
            .encode(),
        )
        .unwrap();
        t.send(&ServiceRequest::Status(JobId(777)).encode())
            .unwrap();
        t.send(&ServiceRequest::Fetch(JobId(777)).encode()).unwrap();
        t.flush().unwrap();
        for _ in 0..3 {
            match ServiceResponse::decode(&t.recv().unwrap().unwrap()).unwrap() {
                ServiceResponse::Err(_) => {}
                other => panic!("expected an error, got {other:?}"),
            }
        }
        t.send(&ServiceRequest::Shutdown.encode()).unwrap();
        t.flush().unwrap();
        let _ = t.recv();
        crate::remote::transport::join_within(server);
        handle.stop();
    }

    #[test]
    fn service_refuses_a_service_backend() {
        let result = std::panic::catch_unwind(|| {
            Service::new(
                ServiceConfig {
                    exec: Exec::service(1, "127.0.0.1:1".into()),
                    ..Default::default()
                },
                registry(),
            )
        });
        assert!(result.is_err(), "service-on-service must be refused");
    }
}
