//! Backend selection: which executor a run's portable jobs go to, and the
//! frame tags of the worker protocol.
//!
//! The seam itself — [`PortableJob`](sim_core::PortableJob),
//! [`TaskManifest`], [`ExecBackend`](sim_core::ExecBackend) and the
//! in-process backend — lives in `sim-core`. [`Exec`] is the CLI-side
//! selection: [`Exec::runner`] builds the chosen process-crossing backend
//! ([`WorkerBackend`] over pipes or TCP, or a [`ServiceBackend`]) and plugs
//! it into a core [`Runner`]. Because every fold downstream consumes slots
//! in flat-index order, **any backend × link × thread count yields
//! byte-identical results**.

use crate::fleet::backend::{Connector, WorkerBackend};
use crate::fleet::chaos::ChaosConfig;
use crate::fleet::FaultPolicy;
use crate::service::ServiceBackend;
use sim_core::Runner;
use std::sync::Arc;

/// Kept for the frozen benchmark, which imports it from here; in-repo
/// code imports `sim_core::exec::TaskManifest`.
pub use sim_core::exec::TaskManifest;

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
    /// Keep workers/peers warm in the process default pool
    /// ([`crate::fleet::pool::pool`]) across dispatches (default `true`;
    /// `false` spawns/connects fresh links per dispatch).
    pub pool: bool,
    /// Deterministic chaos injection on worker links (testing only).
    pub chaos: Option<ChaosConfig>,
}

impl Default for Exec {
    fn default() -> Self {
        Exec::in_process(sim_core::default_threads())
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

    /// A core [`Runner`] on this configuration, with the selected backend
    /// built once and plugged in (none for in-process).
    pub fn runner(&self) -> Runner {
        let runner = Runner::new(self.threads);
        if let Some(addr) = &self.service {
            return runner.with_backend(Arc::new(ServiceBackend::new(addr.clone(), self.threads)));
        }
        let connector = if self.is_remote() {
            Connector::Tcp {
                hosts: self.hosts.clone(),
            }
        } else if self.is_sharded() {
            Connector::Pipes {
                links: self.shards,
                cmd: self.worker_cmd.clone(),
            }
        } else {
            return runner;
        };
        let pool = self.pool.then(|| crate::fleet::pool::pool().clone());
        runner.with_backend(Arc::new(WorkerBackend {
            chaos: self.chaos,
            ..WorkerBackend::new(connector, self.threads, pool).with_fault(self.fault)
        }))
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use sim_core::exec::{ExecBackend, ExecError, PortableJob};
    use sim_core::grid::Segment;
    use sim_core::wire::{self, Reader, WireError};

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
    fn exec_config_builds_matching_runner() {
        let e = Exec::in_process(3);
        assert!(!e.is_sharded());
        assert_eq!(e.runner().threads(), 3);
        let s = Exec::sharded(2, 4);
        assert!(s.is_sharded());
        assert!(s.label().contains("shards=4"));
        // Runner built from a sharded Exec dispatches to pipe workers.
        assert!(format!("{:?}", s.runner()).contains("sharded"));
    }

    /// A worker backend over `links` pipe workers spawned from `cmd`,
    /// parking its links in a private pool.
    fn pipes(links: usize, cmd: Vec<String>) -> WorkerBackend {
        WorkerBackend::new(
            Connector::Pipes {
                links,
                cmd: Some(cmd),
            },
            1,
            Some(Default::default()),
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
