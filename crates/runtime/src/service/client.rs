//! The client half of the experiment service: a verb-level API over one
//! daemon connection, and the [`ExecBackend`] adapter that lets every
//! existing experiment driver execute through a daemon unchanged.
//!
//! [`ServiceClient`] speaks the [`protocol`](super::protocol) verbs —
//! submit, status, fetch (blocking), cancel, stats, shutdown — over a
//! single TCP connection; because the daemon answers in request order, a
//! client may pipeline several submissions before fetching any of them.
//!
//! [`ServiceBackend`] plugs the client into the
//! [`ExecBackend`] seam: a dispatch becomes
//! submit + fetch, so `Exec::service(threads, addr)` routes a whole
//! experiment driver (fixed grids and adaptive rounds alike) through the
//! daemon's queue, single-flight dedup and result cache — with bytes
//! identical to direct execution by the cache-key construction.

use super::cache::decode_blob;
use super::protocol::{
    Disposition, JobId, JobProgress, JobState, ServiceRequest, ServiceResponse, ServiceStats,
};
use crate::remote::transport::{FrameTransport, TcpTransport};
use sim_core::exec::{ExecBackend, ExecError, PortableJob, TaskManifest};
use sim_core::grid::ProgressFn;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A client-side failure talking to the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// Connection / transport problem.
    Io(String),
    /// The daemon rejected the request or answered out of protocol.
    Protocol(String),
    /// The fetched job failed; the executor error round-trips losslessly.
    Exec(ExecError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Io(m) => write!(f, "service I/O error: {m}"),
            ServiceError::Protocol(m) => write!(f, "service error: {m}"),
            ServiceError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<ServiceError> for ExecError {
    fn from(e: ServiceError) -> Self {
        match e {
            ServiceError::Exec(inner) => inner,
            other => ExecError::Protocol(other.to_string()),
        }
    }
}

/// One connection to an experiment service daemon.
pub struct ServiceClient {
    transport: TcpTransport,
}

impl ServiceClient {
    /// Connect to a daemon at `addr` (`host:port`). `timeout` bounds both
    /// the connect and every per-frame read: a blocking fetch is kept
    /// alive by daemon heartbeat frames (emitted every ~500 ms while the
    /// job runs — see the service's fetch keep-alive), so a peer silent
    /// for longer than `timeout` is a dead daemon, not a long job, and
    /// the call fails instead of hanging forever.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, ServiceError> {
        let sock = addr
            .to_socket_addrs()
            .map_err(|e| ServiceError::Io(format!("{addr}: cannot resolve: {e}")))?
            .next()
            .ok_or_else(|| ServiceError::Io(format!("{addr}: resolves to no address")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)
            .map_err(|e| ServiceError::Io(format!("{addr}: connect failed: {e}")))?;
        let transport = TcpTransport::new(stream);
        let _ = transport.set_read_timeout(Some(timeout));
        Ok(ServiceClient { transport })
    }

    /// Send one request frame (without reading the response — the
    /// pipelining building block).
    pub fn send(&mut self, request: &ServiceRequest) -> Result<(), ServiceError> {
        self.transport
            .send(&request.encode())
            .and_then(|_| self.transport.flush())
            .map_err(|e| ServiceError::Io(format!("request write failed: {e}")))
    }

    /// Read one response frame, keep-alives included.
    fn recv_response(&mut self) -> Result<ServiceResponse, ServiceError> {
        let body = self
            .transport
            .recv()
            .map_err(|e| ServiceError::Io(format!("response read failed: {e}")))?
            .ok_or_else(|| ServiceError::Io("daemon closed the connection".into()))?;
        ServiceResponse::decode(&body).map_err(|e| ServiceError::Protocol(e.to_string()))
    }

    /// Read the next response frame. Keep-alives (plain heartbeats and
    /// progress frames, emitted by the daemon while a fetch waits) are
    /// consumed transparently.
    pub fn recv(&mut self) -> Result<ServiceResponse, ServiceError> {
        loop {
            let resp = self.recv_response()?;
            if !matches!(
                resp,
                ServiceResponse::Heartbeat | ServiceResponse::Progress { .. }
            ) {
                return Ok(resp);
            }
        }
    }

    fn round_trip(&mut self, request: &ServiceRequest) -> Result<ServiceResponse, ServiceError> {
        self.send(request)?;
        match self.recv()? {
            ServiceResponse::Err(msg) => Err(ServiceError::Protocol(msg)),
            other => Ok(other),
        }
    }

    /// Submit a manifest; returns the job id and where its answer will
    /// come from (queued, cache hit, or coalesced onto in-flight work).
    pub fn submit(
        &mut self,
        manifest: &TaskManifest,
        threads: usize,
    ) -> Result<(JobId, Disposition), ServiceError> {
        match self.round_trip(&ServiceRequest::Submit {
            threads: threads as u32,
            manifest: manifest.clone(),
        })? {
            ServiceResponse::Submitted { job, disposition } => Ok((job, disposition)),
            other => Err(ServiceError::Protocol(format!(
                "unexpected submit response {other:?}"
            ))),
        }
    }

    /// A job's current state.
    pub fn status(&mut self, job: JobId) -> Result<JobState, ServiceError> {
        match self.round_trip(&ServiceRequest::Status(job))? {
            ServiceResponse::Status { state, .. } => Ok(state),
            other => Err(ServiceError::Protocol(format!(
                "unexpected status response {other:?}"
            ))),
        }
    }

    /// Block until `job` is terminal; returns the raw result blob.
    pub fn fetch_blob(&mut self, job: JobId) -> Result<Vec<u8>, ServiceError> {
        match self.round_trip(&ServiceRequest::Fetch(job))? {
            ServiceResponse::Result { blob, .. } => Ok(blob),
            ServiceResponse::Failed { error, .. } => Err(ServiceError::Exec(error)),
            other => Err(ServiceError::Protocol(format!(
                "unexpected fetch response {other:?}"
            ))),
        }
    }

    /// Block until `job` is terminal; returns its per-slot result bytes in
    /// flat-index order — exactly what direct backend execution yields.
    pub fn fetch(&mut self, job: JobId) -> Result<Vec<Vec<u8>>, ServiceError> {
        let blob = self.fetch_blob(job)?;
        decode_blob(&blob).map_err(|e| ServiceError::Protocol(format!("result blob: {e}")))
    }

    /// [`Self::fetch_blob`] with a live progress callback: every progress
    /// frame the daemon streams while the job runs — ending with a final
    /// `done == total` frame just before the result — is handed to
    /// `on_progress` in arrival order. Progress is cosmetic: the returned
    /// bytes are identical to a plain fetch, and a daemon that streams no
    /// progress (cache hits answer instantly) simply never calls back.
    pub fn fetch_blob_with_progress(
        &mut self,
        job: JobId,
        on_progress: &mut dyn FnMut(JobProgress),
    ) -> Result<Vec<u8>, ServiceError> {
        self.send(&ServiceRequest::Fetch(job))?;
        loop {
            match self.recv_response()? {
                ServiceResponse::Heartbeat => {}
                ServiceResponse::Progress { progress, .. } => on_progress(progress),
                ServiceResponse::Result { blob, .. } => return Ok(blob),
                ServiceResponse::Failed { error, .. } => return Err(ServiceError::Exec(error)),
                ServiceResponse::Err(msg) => return Err(ServiceError::Protocol(msg)),
                other => {
                    return Err(ServiceError::Protocol(format!(
                        "unexpected fetch response {other:?}"
                    )))
                }
            }
        }
    }

    /// [`Self::fetch`] with a live progress callback (see
    /// [`Self::fetch_blob_with_progress`]).
    pub fn fetch_with_progress(
        &mut self,
        job: JobId,
        on_progress: &mut dyn FnMut(JobProgress),
    ) -> Result<Vec<Vec<u8>>, ServiceError> {
        let blob = self.fetch_blob_with_progress(job, on_progress)?;
        decode_blob(&blob).map_err(|e| ServiceError::Protocol(format!("result blob: {e}")))
    }

    /// Cancel a queued job.
    pub fn cancel(&mut self, job: JobId) -> Result<(), ServiceError> {
        match self.round_trip(&ServiceRequest::Cancel(job))? {
            ServiceResponse::Ok => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "unexpected cancel response {other:?}"
            ))),
        }
    }

    /// Snapshot the daemon counters.
    pub fn stats(&mut self) -> Result<ServiceStats, ServiceError> {
        match self.round_trip(&ServiceRequest::Stats)? {
            ServiceResponse::Stats(s) => Ok(s),
            other => Err(ServiceError::Protocol(format!(
                "unexpected stats response {other:?}"
            ))),
        }
    }

    /// Fetch a job's collected spans as Chrome trace-event JSON.
    pub fn trace(&mut self, job: JobId) -> Result<String, ServiceError> {
        match self.round_trip(&ServiceRequest::Trace(job))? {
            ServiceResponse::Trace { json, .. } => Ok(json),
            other => Err(ServiceError::Protocol(format!(
                "unexpected trace response {other:?}"
            ))),
        }
    }

    /// Ask the daemon to shut down (acknowledged before it exits).
    pub fn shutdown(&mut self) -> Result<(), ServiceError> {
        match self.round_trip(&ServiceRequest::Shutdown)? {
            ServiceResponse::Ok => Ok(()),
            other => Err(ServiceError::Protocol(format!(
                "unexpected shutdown response {other:?}"
            ))),
        }
    }
}

/// `ExecBackend` over a service daemon: a dispatch is one submit + one
/// blocking fetch on a fresh connection.
///
/// The daemon executes (or cache-answers) the manifest on *its* configured
/// backend; slot bytes come back in flat-index order, so every fold
/// downstream is byte-identical to local execution. A caller's progress
/// callback is fed from the daemon's streamed progress frames (sampled at
/// the keep-alive cadence, so ticks are coarser than local execution —
/// cosmetic only); adaptive drivers still work — each round is its own
/// dispatch.
#[derive(Debug, Clone)]
pub struct ServiceBackend {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Advisory worker-thread count carried in the submit verb.
    pub worker_threads: usize,
    /// Connection timeout.
    pub connect_timeout: Duration,
}

impl ServiceBackend {
    /// A backend submitting to the daemon at `addr`.
    pub fn new(addr: String, worker_threads: usize) -> Self {
        ServiceBackend {
            addr,
            worker_threads: worker_threads.max(1),
            connect_timeout: Duration::from_secs(10),
        }
    }
}

impl ExecBackend for ServiceBackend {
    fn run_segments(
        &self,
        _job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        manifest.validate()?;
        let mut client =
            ServiceClient::connect(&self.addr, self.connect_timeout).map_err(ExecError::from)?;
        let (job, _disposition) = client
            .submit(manifest, self.worker_threads)
            .map_err(ExecError::from)?;
        let slots = match progress {
            Some(cb) => {
                let mut forward = |p: JobProgress| {
                    cb(sim_core::grid::Progress {
                        point: p.point as usize,
                        replication: p.replication,
                        completed: p.done as usize,
                        total: p.total as usize,
                    });
                };
                client
                    .fetch_with_progress(job, &mut forward)
                    .map_err(ExecError::from)?
            }
            None => client.fetch(job).map_err(ExecError::from)?,
        };
        if slots.len() != manifest.total_slots() {
            return Err(ExecError::Protocol(format!(
                "service returned {} slot(s) for a {}-slot manifest",
                slots.len(),
                manifest.total_slots()
            )));
        }
        Ok(slots)
    }

    fn label(&self) -> String {
        format!(
            "service(addr={}, threads={})",
            self.addr, self.worker_threads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::exec::Exec;
    use crate::service::{ServiceConfig, ServiceHandle};
    use sim_core::exec::{InProcessBackend, JobRegistry};
    use sim_core::grid::Segment;
    use std::sync::Arc;

    fn start_daemon() -> (
        ServiceHandle,
        std::net::SocketAddr,
        std::thread::JoinHandle<()>,
    ) {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        let handle = ServiceHandle::start(
            ServiceConfig {
                exec: Exec::in_process(2),
                cache_dir: None,
                ..Default::default()
            },
            Arc::new(reg),
        );
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = handle.service();
        let server = std::thread::spawn(move || {
            crate::service::serve_on(svc, listener).unwrap();
        });
        (handle, addr, server)
    }

    fn mul_manifest(mix: u64, reps: &[u64]) -> TaskManifest {
        let segments = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        TaskManifest::for_job(&MulJob { factor: 3 }, segments, &|p, r| {
            mix ^ ((p as u64) << 32) ^ r
        })
    }

    fn stop(
        handle: ServiceHandle,
        addr: std::net::SocketAddr,
        server: std::thread::JoinHandle<()>,
    ) {
        let mut c = ServiceClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        c.shutdown().unwrap();
        crate::remote::transport::join_within(server);
        handle.stop();
    }

    #[test]
    fn service_backend_matches_in_process_bytes_and_hits_cache_on_repeat() {
        let (handle, addr, server) = start_daemon();
        let job = MulJob { factor: 3 };
        let m = mul_manifest(5, &[3, 1, 4]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let backend = ServiceBackend::new(addr.to_string(), 2);
        assert_eq!(backend.run_segments(&job, &m, None).unwrap(), baseline);
        // Second dispatch: same bytes, answered from cache.
        assert_eq!(backend.run_segments(&job, &m, None).unwrap(), baseline);
        let mut c = ServiceClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let s = c.stats().unwrap();
        assert_eq!(s.executed, 1, "repeat dispatch must not re-execute");
        assert_eq!(s.hits(), 1);
        assert!(backend.label().contains("service"));
        stop(handle, addr, server);
    }

    #[test]
    fn client_verbs_round_trip_over_tcp() {
        let (handle, addr, server) = start_daemon();
        let mut c = ServiceClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let m = mul_manifest(8, &[2]);
        let (job, d) = c.submit(&m, 1).unwrap();
        assert_eq!(d, Disposition::Queued);
        let slots = c.fetch(job).unwrap();
        assert_eq!(slots.len(), 2);
        assert_eq!(c.status(job).unwrap(), JobState::Done);
        // Unknown job id errors cleanly.
        assert!(matches!(
            c.status(JobId(999_999)),
            Err(ServiceError::Protocol(_))
        ));
        stop(handle, addr, server);
    }

    #[test]
    fn fetch_with_progress_streams_a_final_done_frame() {
        let (handle, addr, server) = start_daemon();
        let mut c = ServiceClient::connect(&addr.to_string(), Duration::from_secs(5)).unwrap();
        let m = mul_manifest(21, &[3, 2]);
        let (job, d) = c.submit(&m, 1).unwrap();
        assert_eq!(d, Disposition::Queued);
        let mut seen: Vec<JobProgress> = Vec::new();
        let slots = c.fetch_with_progress(job, &mut |p| seen.push(p)).unwrap();
        assert_eq!(slots.len(), 5);
        // A fast job may skip the sampled keep-alive ticks entirely, but
        // the final done == total frame is unconditional for executed
        // work, and the sequence can never regress.
        assert!(!seen.is_empty(), "executed jobs stream a final frame");
        assert!(seen.windows(2).all(|w| w[0].done <= w[1].done), "{seen:?}");
        let last = seen.last().unwrap();
        assert_eq!((last.done, last.total), (5, 5), "{seen:?}");

        // The backend adapter forwards the frames into the standard
        // progress-callback shape.
        let job_impl = MulJob { factor: 3 };
        let m2 = mul_manifest(22, &[2]);
        let backend = ServiceBackend::new(addr.to_string(), 1);
        let ticks = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = ticks.clone();
        let cb = move |p: sim_core::grid::Progress| {
            sink.lock().unwrap().push((p.completed, p.total));
        };
        let out = backend.run_segments(&job_impl, &m2, Some(&cb)).unwrap();
        assert_eq!(out.len(), 2);
        let ticks = ticks.lock().unwrap().clone();
        assert_eq!(ticks.last().copied(), Some((2, 2)), "{ticks:?}");
        stop(handle, addr, server);
    }

    #[test]
    fn unreachable_daemon_is_a_protocol_error() {
        let backend = ServiceBackend {
            addr: "127.0.0.1:1".into(),
            worker_threads: 1,
            connect_timeout: Duration::from_millis(300),
        };
        let job = MulJob { factor: 1 };
        let m = mul_manifest(0, &[1]);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::Protocol(_)), "{err:?}");
    }
}
