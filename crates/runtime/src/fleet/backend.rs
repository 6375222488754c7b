//! The worker backend: manifest chunks over framed links to worker
//! subprocesses (pipes) or `--worker --listen` peers (TCP).
//!
//! One work queue serves both tiers. The manifest is split into one
//! contiguous chunk per endpoint, and each endpoint gets a drain thread
//! that opens its link, claims chunks until the queue is empty, and
//! streams the results straight into the manifest-wide gather table. The
//! only per-tier code is the [`Connector`]: which endpoints to open, and
//! which error to raise when none opens.
//!
//! **Failure semantics.** A task error travels in-band (`E` frame) and is
//! deterministic, so it is never retried; across links the lowest global
//! flat index wins, exactly as in `Runner::try_grid`. There is deliberately
//! no cancellation on the first error: killing sibling links could discard
//! a lower-index failure not yet reported. A *broken link* (dead worker,
//! dropped connection, protocol violation, silent peer past the IO
//! timeout) is different: slots are seeded and pure, so the chunk's
//! undelivered remainder goes back on the queue for any link to take —
//! retry cannot change a single output byte — up to the fault policy's
//! retry budget, after which it runs in-process (`fault.fallback`) or
//! surfaces as [`ExecError::Worker`]. The broken link's thread backs off,
//! then replaces its link once when it next claims work: a pipe worker is
//! respawned, a TCP peer reconnected; if that fails the thread retires and
//! the surviving links take the rest. Links are liveness-checked before
//! every chunk, so work is never committed to a worker that died while
//! idle. TCP hosts that keep failing are quarantined (see
//! [`crate::fleet::supervisor`]) and skipped. The quarantine table belongs
//! to the backend and is shared by its clones, so a service, which keeps
//! one backend, remembers a flapping host across requests.
//!
//! A backend is handed the [`WorkerPool`] it checks links out of and
//! parks them in, so back-to-back dispatches — adaptive stopping rounds,
//! service job floods — reuse warm workers. The CLI and the service hand
//! every backend the process default ([`pool()`](crate::fleet::pool::pool));
//! tests hand each backend a private one, so unrelated backends never
//! share a link. Without a pool, each dispatch opens fresh links and ends
//! each healthy one with [`Link::close`]: a pipe worker gets the shutdown
//! frame and must exit 0.

use crate::fleet::chaos::{ChaosConfig, FaultInjector};
use crate::fleet::pool::{Endpoint, Link, WorkerPool};
use crate::fleet::supervisor::Quarantine;
use crate::fleet::{fleet_stats, FaultPolicy, FleetStats};
use crate::remote::protocol::{
    collect_results, drain_chunk, encode_manifest_request, keep_lowest_error,
    undelivered_remainder, ChunkSink, Drained,
};
use crate::remote::transport::FrameTransport as _;
use sim_core::exec::{ExecBackend, ExecError, InProcessBackend, PortableJob, TaskManifest};
use sim_core::grid::{Progress, ProgressFn};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Where a [`WorkerBackend`] gets its links.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Connector {
    /// `links` worker subprocesses spawned from `cmd` and spoken to over
    /// their stdin/stdout pipes (`cmd: None` re-enters
    /// `current_exe --worker`).
    Pipes {
        /// Worker subprocesses per dispatch.
        links: usize,
        /// Worker argv override.
        cmd: Option<Vec<String>>,
    },
    /// One TCP link per `host:port` peer (`<exe> --worker --listen`).
    Tcp {
        /// Peer addresses.
        hosts: Vec<String>,
    },
}

impl Connector {
    /// The endpoints to open for a dispatch of `slots` slots: no more
    /// pipe workers than slots, and every host not in `quarantine` (if
    /// that leaves none, the fleet is unavailable).
    fn endpoints(&self, slots: usize, quarantine: &Quarantine) -> Result<Vec<Endpoint>, ExecError> {
        match self {
            Connector::Pipes { links, cmd } => {
                let cmd = match cmd {
                    Some(cmd) => cmd.clone(),
                    None => {
                        let exe = std::env::current_exe().map_err(|e| {
                            ExecError::Protocol(format!("cannot resolve current_exe: {e}"))
                        })?;
                        vec![exe.to_string_lossy().into_owned(), "--worker".into()]
                    }
                };
                Ok(vec![Endpoint::Pipe(cmd); (*links).clamp(1, slots)])
            }
            Connector::Tcp { hosts } => {
                let usable: Vec<Endpoint> = hosts
                    .iter()
                    .filter(|h| !quarantine.is_quarantined(h))
                    .map(|h| Endpoint::Tcp(h.clone()))
                    .collect();
                if usable.is_empty() {
                    return Err(ExecError::BackendUnavailable(format!(
                        "all {} remote peer(s) quarantined (hosts {hosts:?})",
                        hosts.len()
                    )));
                }
                if usable.len() < hosts.len() {
                    eprintln!(
                        "[remote] {} quarantined peer(s) skipped",
                        hosts.len() - usable.len()
                    );
                }
                Ok(usable)
            }
        }
    }

    /// The error when not a single link opened: a worker failure for
    /// pipes, a protocol error for unreachable hosts.
    fn unreachable(&self, failures: &[String]) -> ExecError {
        let why = failures.join("; ");
        match self {
            Connector::Pipes { .. } => ExecError::Worker {
                flat_index: 0,
                message: format!("no worker could be started: {why}"),
            },
            Connector::Tcp { hosts } => {
                ExecError::Protocol(format!("no reachable remote peer among {hosts:?}: {why}"))
            }
        }
    }
}

/// The one process-crossing backend: a [`TaskManifest`] fanned out over
/// framed links, gathered in global flat-index order — so the fold
/// downstream is **byte-identical** to [`InProcessBackend`] at any link
/// × thread count. See the [module docs](self) for failure handling.
#[derive(Debug, Clone)]
pub struct WorkerBackend {
    /// Which links to open.
    pub connector: Connector,
    /// Worker threads *per link*, carried in every request frame.
    pub worker_threads: usize,
    /// Per-peer TCP connect timeout (pipe links ignore it).
    pub connect_timeout: Duration,
    /// Unified fault policy: chunk retry budget, the silent-peer IO
    /// timeout (executing workers heartbeat every ~500 ms), backoff, and
    /// the opt-in shrink-to-zero in-process fallback.
    pub fault: FaultPolicy,
    /// The pool links are checked out of and parked in across dispatches
    /// (`None`: fresh links per dispatch, closed afterwards).
    pub pool: Option<Arc<WorkerPool>>,
    /// Failure streaks and quarantine windows of this backend's TCP hosts,
    /// shared by its clones.
    pub quarantine: Arc<Quarantine>,
    /// Deterministic frame-fault injection (chaos testing); `None` is a
    /// passthrough.
    pub chaos: Option<ChaosConfig>,
}

impl WorkerBackend {
    /// A backend over `connector` with `worker_threads` threads per link,
    /// parking its links in `pool`, with the default fault policy and an
    /// empty quarantine table.
    pub fn new(connector: Connector, worker_threads: usize, pool: Option<Arc<WorkerPool>>) -> Self {
        WorkerBackend {
            connector,
            worker_threads: worker_threads.max(1),
            connect_timeout: Duration::from_secs(10),
            fault: FaultPolicy::default(),
            pool,
            quarantine: Arc::default(),
            chaos: None,
        }
    }

    /// Replace the fault policy.
    pub fn with_fault(mut self, fault: FaultPolicy) -> Self {
        self.fault = fault;
        self
    }

    /// A link to `ep` for the start of a dispatch: a warm one from the
    /// pool, else a fresh one with the policy's capped backoff between
    /// attempts.
    fn open(&self, ep: &Endpoint, salt: u64) -> Result<Link, String> {
        if let Some(link) = self.checkout(ep) {
            return Ok(link);
        }
        let attempts = self.fault.retry_budget + 1;
        let mut last = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(self.fault.backoff_delay(attempt - 1, salt));
            }
            match ep.open(self.connect_timeout) {
                Ok(link) => return Ok(self.ready(ep, link)),
                Err(e) => {
                    self.record(ep, false);
                    last = format!("{ep}: {e}");
                }
            }
        }
        Err(format!("{last} (after {attempts} attempt(s))"))
    }

    /// Replace a broken link with one attempt: a respawned worker or a
    /// reconnected peer, counted in the fleet stats.
    fn relink(&self, ep: &Endpoint) -> Option<Link> {
        let link = match self.checkout(ep) {
            Some(link) => link,
            None => match ep.open(self.connect_timeout) {
                Ok(link) => self.ready(ep, link),
                Err(e) => {
                    self.record(ep, false);
                    eprintln!("[fleet] {ep}: cannot replace the broken link: {e}");
                    return None;
                }
            },
        };
        let stats = fleet_stats();
        FleetStats::bump(match ep {
            Endpoint::Pipe(_) => &stats.restarts,
            Endpoint::Tcp(_) => &stats.reconnects,
        });
        Some(link)
    }

    fn checkout(&self, ep: &Endpoint) -> Option<Link> {
        let link = self.pool.as_ref()?.checkout(ep)?;
        Some(self.ready(ep, link))
    }

    /// Ready a link for work: clear its host's failure streak and bound
    /// its reads (workers heartbeat) and writes (healthy workers drain
    /// their requests promptly).
    fn ready(&self, ep: &Endpoint, link: Link) -> Link {
        self.record(ep, true);
        link.set_io_timeout(self.fault.io_timeout);
        link
    }

    /// Dispatch one chunk over `link` (wrapped in the chaos injector, a
    /// passthrough unless armed) and drain its responses into the gather
    /// table.
    fn dispatch(&self, link: &mut Link, chunk: &Pending, g: &Gather<'_>) -> (Drained, Vec<bool>) {
        let slots = chunk.manifest.slots();
        let mut delivered = vec![false; slots.len()];
        let mut t = FaultInjector::new(link.transport(), self.chaos);
        let request = encode_manifest_request(
            self.worker_threads,
            &chunk.manifest,
            sim_core::obs::current(),
        );
        let outcome = match t.send(&request).and_then(|_| t.flush()) {
            Err(e) => Drained::Broken(format!("request write failed: {e}")),
            Ok(()) => drain_chunk(
                &mut t,
                ChunkSink {
                    slots: &slots,
                    global_flat: &chunk.global_flat,
                    results: &g.results,
                    delivered: &mut delivered,
                    completed: &g.completed,
                    grand_total: g.results.len(),
                    progress: g.progress,
                },
            ),
        };
        (outcome, delivered)
    }

    /// One endpoint's drain thread: open a link, then claim and dispatch
    /// chunks until the queue is empty.
    fn drive(&self, ep: &Endpoint, salt: u64, job: &dyn PortableJob, g: &Gather<'_>) {
        let obs = sim_core::obs::obs();
        let started = obs.start(sim_core::obs::current());
        let mut link = match self.open(ep, salt) {
            Ok(link) => Some(link),
            Err(why) => return g.lock().open_failures.push(why),
        };
        obs.end(
            started,
            sim_core::obs::name::POOL_CHECKOUT,
            sim_core::obs::cat::FLEET,
            salt,
        );
        g.lock().opened += 1;
        let mut served: Option<usize> = None;
        let mut breaks = 0;
        while let Some(chunk) = g.claim() {
            let Some(mut l) = link.take().or_else(|| self.relink(ep)) else {
                return g.settle(Some(chunk), None);
            };
            if !l.is_alive() {
                // Died while idle: the chunk was never dispatched, so it
                // costs no retry budget.
                l.discard();
                g.settle(Some(chunk), None);
            } else {
                match self.dispatch(&mut l, &chunk, g) {
                    (Drained::Complete, _) => {
                        let start = chunk.global_flat[0];
                        served = Some(served.map_or(start, |s| s.min(start)));
                        link = Some(l);
                        g.settle(None, None);
                        continue;
                    }
                    (Drained::TaskError(e), _) => {
                        link = Some(l);
                        g.settle(None, Some(e));
                        continue;
                    }
                    (Drained::Broken(why), delivered) => {
                        self.record(ep, false);
                        let why = format!("{}: {why}", l.transport().peer());
                        l.discard();
                        self.requeue(chunk, &delivered, &why, job, g);
                    }
                }
            }
            // Back off before claiming again, so an idle sibling takes
            // the remainder first.
            std::thread::sleep(self.fault.backoff_delay(breaks, salt));
            breaks += 1;
        }
        let Some(link) = link else { return };
        if let Some(pool) = &self.pool {
            pool.checkin(ep, link);
        } else if let Err(e) = link.close() {
            g.lock().errors.push(ExecError::Worker {
                flat_index: served.unwrap_or(0),
                message: format!("{ep} did not shut down cleanly: {e}"),
            });
        }
    }

    /// Settle a chunk whose link broke: its undelivered remainder goes
    /// back on the queue while the retry budget lasts.
    fn requeue(
        &self,
        chunk: Pending,
        delivered: &[bool],
        why: &str,
        job: &dyn PortableJob,
        g: &Gather<'_>,
    ) {
        // `None`: every slot landed before the break (e.g. the stream died
        // after the last R frame but before D).
        let Some((manifest, global_flat)) =
            undelivered_remainder(&chunk.manifest, &chunk.global_flat, delivered)
        else {
            return g.settle(None, None);
        };
        let rest = Pending {
            manifest,
            global_flat,
            dispatches: chunk.dispatches + 1,
        };
        if rest.dispatches <= self.fault.retry_budget {
            eprintln!(
                "[fleet] {why}; re-dispatching {} slot(s) (attempt {} of {})",
                rest.global_flat.len(),
                rest.dispatches + 1,
                self.fault.retry_budget + 1,
            );
            g.settle(Some(rest), None);
        } else {
            let err = self.give_up(rest, why, job, g);
            g.settle(None, err);
        }
    }

    /// Work no link will deliver: run it in-process under
    /// `fault.fallback`, else report a worker error at its first slot.
    fn give_up(
        &self,
        rest: Pending,
        why: &str,
        job: &dyn PortableJob,
        g: &Gather<'_>,
    ) -> Option<ExecError> {
        let n = rest.global_flat.len();
        if !self.fault.fallback {
            return Some(ExecError::Worker {
                flat_index: rest.global_flat[0],
                message: format!(
                    "{why} ({n} slot(s) undelivered after {} dispatch attempt(s))",
                    rest.dispatches
                ),
            });
        }
        eprintln!(
            "[fleet] fleet exhausted for {n} slot(s) ({why}); degrading: running them in-process"
        );
        FleetStats::bump(&fleet_stats().fallbacks);
        // Sequential flat order: the first task failure is the
        // remainder's lowest-index failure.
        for (&flat, (point, replication, seed)) in
            rest.global_flat.iter().zip(rest.manifest.slots())
        {
            match job.run_slot(point, replication, seed) {
                Ok(bytes) => g.deliver(flat, point, replication, bytes),
                Err(message) => {
                    return Some(ExecError::Task {
                        flat_index: flat,
                        point,
                        replication,
                        message,
                    })
                }
            }
        }
        None
    }

    /// Charge (or clear) a TCP host's quarantine record. Pipe workers are
    /// interchangeable and never quarantined.
    fn record(&self, ep: &Endpoint, ok: bool) {
        if let Endpoint::Tcp(host) = ep {
            if ok {
                self.quarantine.record_success(host);
            } else {
                self.quarantine.record_failure(host);
            }
        }
    }

    /// The whole dispatch in-process, when there is no fleet to run it.
    fn fall_back(
        &self,
        why: ExecError,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        if !self.fault.fallback {
            return Err(why);
        }
        eprintln!("[fleet] no worker fleet available ({why}); degrading: running the whole dispatch in-process");
        FleetStats::bump(&fleet_stats().fallbacks);
        InProcessBackend::new(self.worker_threads).run_segments(job, manifest, progress)
    }
}

/// One unit of dispatchable work: a sub-manifest plus the global flat
/// index of each of its slots (contiguous for the initial split; possibly
/// gappy for a re-dispatched remainder).
struct Pending {
    manifest: TaskManifest,
    global_flat: Vec<usize>,
    /// Dispatch attempts already made on this work.
    dispatches: usize,
}

/// The work queue the drain threads share.
#[derive(Default)]
struct Queue {
    pending: Vec<Pending>,
    /// Chunks currently being driven by some link.
    in_flight: usize,
    /// Error candidates; the lowest global flat index wins at the end.
    errors: Vec<ExecError>,
    /// Links that opened, and why the others did not.
    opened: usize,
    open_failures: Vec<String>,
}

/// Gather state shared by the drain threads: the queue plus the
/// manifest-wide result table.
struct Gather<'a> {
    queue: Mutex<Queue>,
    work: Condvar,
    results: Vec<OnceLock<Vec<u8>>>,
    completed: AtomicUsize,
    progress: Option<&'a ProgressFn>,
}

impl Gather<'_> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Queue> {
        self.queue.lock().expect("gather mutex never poisoned")
    }

    /// Block until a chunk is available or all work is finished; `None`
    /// means the gather is complete (or failed) and the link may retire.
    fn claim(&self) -> Option<Pending> {
        let mut q = self.lock();
        loop {
            if let Some(chunk) = q.pending.pop() {
                q.in_flight += 1;
                return Some(chunk);
            }
            if q.in_flight == 0 {
                self.work.notify_all();
                return None;
            }
            q = self.work.wait(q).expect("gather mutex never poisoned");
        }
    }

    /// Mark a claimed chunk finished, optionally pushing follow-up work
    /// (a remainder) and/or an error candidate.
    fn settle(&self, requeue: Option<Pending>, error: Option<ExecError>) {
        let mut q = self.lock();
        q.in_flight -= 1;
        q.pending.extend(requeue);
        q.errors.extend(error);
        self.work.notify_all();
    }

    /// Land one slot's result and tick progress.
    fn deliver(&self, flat: usize, point: usize, replication: u64, bytes: Vec<u8>) {
        // Only a remainder no link delivered is run in-process, so the
        // cell is still empty.
        let _ = self.results[flat].set(bytes);
        let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(cb) = self.progress {
            cb(Progress {
                point,
                replication,
                completed,
                total: self.results.len(),
            });
        }
    }
}

impl ExecBackend for WorkerBackend {
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        manifest.validate()?;
        let total = manifest.total_slots();
        if total == 0 {
            return Ok(Vec::new());
        }
        let endpoints = match self.connector.endpoints(total, &self.quarantine) {
            Ok(eps) => eps,
            Err(e) => return self.fall_back(e, job, manifest, progress),
        };
        let pending = manifest
            .split(endpoints.len())
            .into_iter()
            .map(|(start, m)| Pending {
                global_flat: (start..start + m.total_slots()).collect(),
                manifest: m,
                dispatches: 0,
            })
            .collect();
        let g = Gather {
            queue: Mutex::new(Queue {
                pending,
                ..Queue::default()
            }),
            work: Condvar::new(),
            results: (0..total).map(|_| OnceLock::new()).collect(),
            completed: AtomicUsize::new(0),
            progress,
        };
        std::thread::scope(|scope| {
            for (i, ep) in endpoints.iter().enumerate() {
                let g = &g;
                scope.spawn(move || self.drive(ep, i as u64, job, g));
            }
        });

        let q = std::mem::take(&mut *g.lock());
        if q.opened == 0 {
            for f in &q.open_failures {
                eprintln!("[fleet] link unavailable: {f}");
            }
            let e = self.connector.unreachable(&q.open_failures);
            return self.fall_back(e, job, manifest, progress);
        }
        let mut first_error = None;
        for e in q.errors {
            keep_lowest_error(&mut first_error, e);
        }
        // Chunks stranded because every link retired.
        for chunk in q.pending {
            if let Some(e) = self.give_up(chunk, "no surviving worker link", job, &g) {
                keep_lowest_error(&mut first_error, e);
            }
        }
        if let Some(e) = first_error {
            return Err(e);
        }
        collect_results(g.results)
    }

    fn label(&self) -> String {
        let (tier, links, per) = match &self.connector {
            Connector::Pipes { links, .. } => ("sharded(shards", *links, "worker"),
            Connector::Tcp { hosts } => ("remote(hosts", hosts.len(), "peer"),
        };
        let threads = self.worker_threads;
        format!("{tier}={links}, threads/{per}={threads})")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{frame, tests::MulJob};
    use crate::fleet::pool::pool;
    use crate::fleet::supervisor::QUARANTINE_THRESHOLD;
    use sim_core::grid::Segment;
    use sim_core::wire;

    /// A `count`-slot manifest of [`MulJob`] at point 0.
    fn manifest(job: &MulJob, count: usize) -> TaskManifest {
        let segment = Segment {
            point: 0,
            base_rep: 0,
            count,
        };
        TaskManifest::for_job(job, vec![segment], &|_, _| 7)
    }

    /// The framed `R` result for chunk-local slot 0, optionally followed
    /// by `D` closing a one-slot chunk.
    fn reply(bytes: &[u8], done: bool) -> Vec<u8> {
        let mut result = Vec::new();
        wire::put_u8(&mut result, frame::RESULT);
        wire::put_u64(&mut result, 0);
        wire::put_bytes(&mut result, bytes);
        let mut out = Vec::new();
        wire::write_frame(&mut out, &result).unwrap();
        if done {
            let mut d = Vec::new();
            wire::put_u8(&mut d, frame::DONE);
            wire::put_u64(&mut d, 1);
            wire::write_frame(&mut out, &d).unwrap();
        }
        out
    }

    /// A scripted pipe worker: it writes `reply` up front, whatever it is
    /// asked, then runs the shell snippet `then`.
    fn scripted(reply: &[u8], then: &str) -> Vec<String> {
        let printf: String = reply.iter().map(|b| format!("\\{b:03o}")).collect();
        vec![
            "/bin/sh".into(),
            "-c".into(),
            format!("printf '{printf}'; {then}"),
        ]
    }

    /// A one-link pipe backend over a private pool.
    fn pipes(cmd: Vec<String>) -> WorkerBackend {
        let connector = Connector::Pipes {
            links: 1,
            cmd: Some(cmd),
        };
        WorkerBackend::new(connector, 1, Some(Arc::default()))
    }

    /// With the pool off, a dispatch leaves nothing parked for its
    /// endpoint: the pipe worker gets the shutdown frame after its chunk
    /// and is reaped, and only a clean exit 0 counts as success.
    #[test]
    fn pool_off_shuts_the_worker_down_and_parks_nothing() {
        let job = MulJob { factor: 3 };
        let m = manifest(&job, 1);
        let expect = job.run_slot(0, 0, 7).unwrap();
        // The worker logs every request byte it is sent until stdin closes.
        let log = std::env::temp_dir().join(format!("pool-off-{}.requests", std::process::id()));
        let worker = |exit: u8| {
            let then = format!("cat > '{}'; exit {exit}", log.display());
            scripted(&reply(&expect, true), &then)
        };
        let run = |cmd| {
            WorkerBackend {
                pool: None,
                ..pipes(cmd)
            }
            .run_segments(&job, &m, None)
        };

        assert_eq!(run(worker(0)).unwrap(), vec![expect.clone()]);
        assert_eq!(pool().idle(&Endpoint::Pipe(worker(0))), 0);
        let requests = std::fs::read(&log).unwrap();
        let mut rest = &requests[..];
        let tags: Vec<u8> = std::iter::from_fn(|| wire::read_frame(&mut rest).unwrap())
            .map(|body| body[0])
            .collect();
        assert_eq!(tags, [frame::MANIFEST, frame::SHUTDOWN]);

        let err = run(worker(3)).unwrap_err();
        assert!(
            matches!(err, ExecError::Worker { flat_index: 0, .. }),
            "{err:?}"
        );
        let _ = std::fs::remove_file(&log);
    }

    /// A worker that dies mid-chunk is respawned, and each respawn gets
    /// only the slots still undelivered: this scripted worker delivers the
    /// first slot of whatever chunk it is sent and then exits.
    #[test]
    fn broken_pipe_link_is_respawned_for_the_undelivered_remainder() {
        let job = MulJob { factor: 3 };
        let fault = FaultPolicy::default()
            .with_retry_budget(10)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(2));
        let backend = pipes(scripted(&reply(b"slot", false), "sleep 0.2")).with_fault(fault);
        let before = fleet_stats().snapshot().restarts;
        let out = backend
            .run_segments(&job, &manifest(&job, 3), None)
            .unwrap();
        assert_eq!(out, vec![b"slot".to_vec(); 3]);
        assert!(fleet_stats().snapshot().restarts >= before + 2);
    }

    /// Every host quarantined: the dispatch fails typed without a connect,
    /// or runs in-process when the fallback is armed.
    #[test]
    fn fully_quarantined_fleet_is_unavailable_or_falls_back() {
        let host = "127.0.0.1:3".to_string();
        let tcp = || {
            let hosts = vec![host.clone()];
            WorkerBackend::new(Connector::Tcp { hosts }, 1, Some(Arc::default()))
        };
        let backend = tcp();
        // Failures charged through a clone land in the backend's table.
        let clone = backend.clone();
        for _ in 0..QUARANTINE_THRESHOLD {
            clone.quarantine.record_failure(&host);
        }
        let job = MulJob { factor: 3 };
        let m = manifest(&job, 4);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::BackendUnavailable(_)), "{err:?}");
        let armed = backend.with_fault(FaultPolicy::default().with_fallback(true));
        assert_eq!(
            armed.run_segments(&job, &m, None).unwrap(),
            InProcessBackend::new(1)
                .run_segments(&job, &m, None)
                .unwrap()
        );
        // Another backend keeps its own table.
        assert!(!tcp().quarantine.is_quarantined(&host));
    }
}
