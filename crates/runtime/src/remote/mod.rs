//! The transports and the framed worker protocol, and the TCP worker
//! mode.
//!
//! The frame protocol and per-slot seed manifests of [`crate::exec`]
//! already carry everything a worker needs; this module adds the
//! transports that carry them between processes and **off the machine**:
//!
//! * [`transport::FrameTransport`] — the one framed-channel trait behind
//!   the worker serve loop and the parent-side drain (stdio pipes and
//!   TCP), plus [`probe_live`], the nonblocking-`peek` liveness probe for
//!   TCP peers;
//! * `protocol` — request framing and the one response drain that turns
//!   a worker's frame stream back into ordered slot results;
//! * [`serve_listener`] — the TCP worker mode (`<exe> --worker --listen
//!   <addr>`): accept connections, serve manifest requests per connection,
//!   exit on an explicit shutdown frame.
//!
//! The parent side — one [`WorkerBackend`](crate::fleet::backend::WorkerBackend)
//! for pipe workers and TCP peers alike — lives in [`crate::fleet`].

pub(crate) mod protocol;
pub mod transport;

pub use transport::{probe_live, FrameTransport, PipeTransport, StdioTransport, TcpTransport};

use crate::exec::JobRegistry;
use crate::wire::WireError;
use crate::worker::{serve, ServeOutcome};
use std::net::TcpListener;

/// Send the graceful-shutdown frame on `transport`: the receiving worker
/// finishes its serve loop (and, in listen mode, exits the process)
/// instead of being killed or left to infer EOF. Harnesses like
/// `bench::remote::LocalCluster` use this for clean teardown.
pub fn send_shutdown(transport: &mut dyn FrameTransport) -> std::io::Result<()> {
    transport.send(&protocol::encode_shutdown_request())?;
    transport.flush()
}

/// Serve the TCP worker mode: bind `addr`, announce the bound address on
/// stdout (`listening <addr>` — the only stdout line; with port 0 this is
/// how a harness learns the ephemeral port), then accept connections and
/// serve each **on its own thread** until the peer hangs up. Returns after
/// any connection sends an explicit shutdown frame.
///
/// A protocol failure on one connection is logged to stderr and does not
/// take the worker down, and a connection whose parent silently vanished
/// (power loss, partition — no FIN/RST, so its read blocks forever)
/// wedges only its own detached thread: the accept loop keeps serving
/// fresh dispatches, so one dead parent can never make the host unusable,
/// and wedged threads die with the process rather than delaying shutdown.
/// Workers therefore survive any number of backend dispatches, adaptive
/// rounds, and sibling crashes; only the shutdown frame (or a signal)
/// ends the process.
pub fn serve_listener(registry: std::sync::Arc<JobRegistry>, addr: &str) -> Result<(), WireError> {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    let listener =
        TcpListener::bind(addr).map_err(|e| WireError::new(format!("bind {addr}: {e}")))?;
    let local = listener
        .local_addr()
        .map_err(|e| WireError::new(format!("local_addr: {e}")))?;
    println!("listening {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    let shutdown = Arc::new(AtomicBool::new(false));
    loop {
        let (stream, peer) = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => {
                // Persistent accept errors (e.g. fd exhaustion) must not
                // become a 100%-CPU hot loop; back off.
                eprintln!("[worker {local}] accept failed: {e}");
                std::thread::sleep(std::time::Duration::from_millis(100));
                continue;
            }
        };
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
        let registry = registry.clone();
        let shutdown = shutdown.clone();
        std::thread::spawn(move || {
            let mut transport = TcpTransport::new(stream);
            match serve(&registry, &mut transport) {
                Ok(ServeOutcome::Shutdown) => {
                    shutdown.store(true, Ordering::SeqCst);
                    // Self-connect to unblock the accept loop so it
                    // observes the flag and returns.
                    let _ = std::net::TcpStream::connect(local);
                }
                Ok(ServeOutcome::Eof) => {}
                Err(e) => eprintln!("[worker {local}] connection {peer}: {e}"),
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::exec::{ExecBackend, ExecError, InProcessBackend, PortableJob, TaskManifest};
    use crate::fleet::backend::{Connector, WorkerBackend};
    use crate::fleet::pool::WorkerPool;
    use crate::fleet::FaultPolicy;
    use crate::grid::Segment;
    use crate::remote::transport::join_within;
    use crate::wire;
    use std::net::{Shutdown, TcpStream};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    fn registry() -> JobRegistry {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        reg
    }

    /// An in-process TCP worker serving jobs from its own registry.
    struct Peer {
        addr: String,
        /// Connections accepted so far.
        accepted: Arc<AtomicUsize>,
        handle: std::thread::JoinHandle<()>,
    }

    /// Spawn a peer listening on `addr` (port 0 = ephemeral). Mirrors
    /// `serve_listener`: each connection is served on its own thread (the
    /// backend's warm pool keeps connections open across dispatches, so a
    /// sequential accept loop would never see the shutdown connection),
    /// and the accept loop returns once any connection delivers the
    /// shutdown frame. Before returning it shuts down every stream it
    /// accepted, so a link parked in the pool fails its liveness probe
    /// instead of outliving the peer.
    fn spawn_peer(addr: &str, reg: fn() -> JobRegistry) -> Peer {
        let listener = TcpListener::bind(addr).unwrap();
        let local = listener.local_addr().unwrap();
        let accepted = Arc::new(AtomicUsize::new(0));
        let count = accepted.clone();
        let handle = std::thread::spawn(move || {
            let shutdown = Arc::new(AtomicBool::new(false));
            let mut streams = Vec::new();
            loop {
                let (stream, _) = listener.accept().unwrap();
                count.fetch_add(1, Ordering::SeqCst);
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                streams.push(stream.try_clone().unwrap());
                let shutdown = shutdown.clone();
                std::thread::spawn(move || {
                    let mut t = TcpTransport::new(stream);
                    if let Ok(ServeOutcome::Shutdown) = serve(&reg(), &mut t) {
                        shutdown.store(true, Ordering::SeqCst);
                        // Unblock the accept loop so it observes the flag.
                        let _ = TcpStream::connect(local);
                    }
                });
            }
            for stream in streams {
                let _ = stream.shutdown(Shutdown::Both);
            }
        });
        Peer {
            addr: local.to_string(),
            accepted,
            handle,
        }
    }

    /// A `test-mul` peer on an ephemeral loopback port.
    fn spawn_worker() -> (String, std::thread::JoinHandle<()>) {
        let peer = spawn_peer("127.0.0.1:0", registry);
        (peer.addr, peer.handle)
    }

    fn shutdown_peer(addr: &str) {
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
        t.send(&protocol::encode_shutdown_request()).unwrap();
        t.flush().unwrap();
    }

    /// A worker backend over TCP peers at `hosts`, parking its links in a
    /// private pool: no other test's backend can check them out.
    fn tcp(hosts: Vec<String>, threads: usize) -> WorkerBackend {
        tcp_in(hosts, threads, Arc::default())
    }

    /// A worker backend over TCP peers at `hosts` that parks its links in
    /// `pool`.
    fn tcp_in(hosts: Vec<String>, threads: usize, pool: Arc<WorkerPool>) -> WorkerBackend {
        WorkerBackend::new(Connector::Tcp { hosts }, threads, Some(pool))
    }

    fn mul_manifest(reps: &[u64]) -> TaskManifest {
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
    fn remote_backend_matches_in_process_bytes_at_any_host_count() {
        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[3, 1, 5, 2]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        for peers in [1usize, 2, 4] {
            let workers: Vec<_> = (0..peers).map(|_| spawn_worker()).collect();
            let hosts: Vec<String> = workers.iter().map(|(a, _)| a.clone()).collect();
            let backend = tcp(hosts.clone(), 2);
            let out = backend.run_segments(&job, &m, None).unwrap();
            assert_eq!(baseline, out, "peers={peers}");
            assert!(backend.label().contains("remote"));
            for (addr, handle) in workers {
                shutdown_peer(&addr);
                join_within(handle);
            }
        }
    }

    #[test]
    fn remote_backend_serves_multiple_dispatches_per_worker() {
        // Adaptive rounds dispatch several manifests; the worker must
        // survive reconnects.
        let (addr, handle) = spawn_worker();
        // Factor must match `mul_manifest`'s payload: the remote side
        // re-decodes the job from the manifest, the local side uses ours.
        let job = MulJob { factor: 3 };
        let backend = tcp(vec![addr.clone()], 1);
        for reps in [[2u64, 1], [1, 3]] {
            let m = mul_manifest(&reps);
            let expect = InProcessBackend::new(1)
                .run_segments(&job, &m, None)
                .unwrap();
            assert_eq!(backend.run_segments(&job, &m, None).unwrap(), expect);
        }
        shutdown_peer(&addr);
        join_within(handle);
    }

    #[test]
    fn dead_peer_chunk_redispatches_to_survivor_bit_identically() {
        // Peer 0 is a saboteur: it reads the request, streams the first
        // R frame, then drops the connection. Peer 1 is a real worker.
        // The gather must re-dispatch the undelivered remainder and still
        // produce the exact in-process bytes.
        let saboteur = TcpListener::bind("127.0.0.1:0").unwrap();
        let sab_addr = saboteur.local_addr().unwrap().to_string();
        let sab = std::thread::spawn(move || {
            let (stream, _) = saboteur.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let req = t.recv().unwrap().unwrap();
            // Decode the manifest to answer slot 0 honestly first.
            let mut r = wire::Reader::new(&req);
            assert_eq!(r.get_u8().unwrap(), crate::exec::frame::MANIFEST);
            let _version = r.get_u8().unwrap();
            let _threads = r.get_u32().unwrap();
            let _trace = r.get_u64().unwrap();
            let m = TaskManifest::decode(&mut r).unwrap();
            let job = MulJob { factor: 3 };
            let (p, rep, seed) = m.slots()[0];
            let mut body = Vec::new();
            wire::put_u8(&mut body, crate::exec::frame::RESULT);
            wire::put_u64(&mut body, 0);
            wire::put_bytes(&mut body, &job.run_slot(p, rep, seed).unwrap());
            t.send(&body).unwrap();
            t.flush().unwrap();
            // ... then die mid-chunk.
        });
        let (good_addr, good_handle) = spawn_worker();

        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[4, 4]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let backend = tcp(vec![sab_addr, good_addr.clone()], 1);
        let out = backend.run_segments(&job, &m, None).unwrap();
        assert_eq!(baseline, out);
        join_within(sab);
        shutdown_peer(&good_addr);
        join_within(good_handle);
    }

    #[test]
    fn silently_stalled_peer_times_out_and_redispatches() {
        // Unlike a dropped connection, a *stalled* peer (machine vanished
        // without FIN/RST, network partition) keeps the socket open and
        // just goes quiet. The saboteur answers one slot, then holds the
        // connection silently; the parent's read timeout must classify it
        // dead — real workers heartbeat every 500 ms, so silence is never
        // "slow slots" — and re-dispatch the remainder to the healthy
        // peer, bit-identically.
        let saboteur = TcpListener::bind("127.0.0.1:0").unwrap();
        let sab_addr = saboteur.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            let (stream, _) = saboteur.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let req = t.recv().unwrap().unwrap();
            let mut r = wire::Reader::new(&req);
            assert_eq!(r.get_u8().unwrap(), crate::exec::frame::MANIFEST);
            let _version = r.get_u8().unwrap();
            let _threads = r.get_u32().unwrap();
            let _trace = r.get_u64().unwrap();
            let m = TaskManifest::decode(&mut r).unwrap();
            let job = MulJob { factor: 3 };
            let (p, rep, seed) = m.slots()[0];
            let mut body = Vec::new();
            wire::put_u8(&mut body, crate::exec::frame::RESULT);
            wire::put_u64(&mut body, 0);
            wire::put_bytes(&mut body, &job.run_slot(p, rep, seed).unwrap());
            t.send(&body).unwrap();
            t.flush().unwrap();
            // ... then go silent with the connection held open. The test
            // process exits long before this sleep ends.
            std::thread::sleep(Duration::from_secs(60));
        });
        let (good_addr, good_handle) = spawn_worker();

        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[4, 4]);
        let baseline = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let backend = tcp(vec![sab_addr, good_addr.clone()], 1)
            .with_fault(FaultPolicy::default().with_io_timeout(Some(Duration::from_millis(1500))));
        let t0 = std::time::Instant::now();
        let out = backend.run_segments(&job, &m, None).unwrap();
        assert_eq!(baseline, out);
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "stall detection took {:?}",
            t0.elapsed()
        );
        shutdown_peer(&good_addr);
        join_within(good_handle);
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_worker_error() {
        // A peer that accepts, swallows the request, and hangs up without
        // answering: the dispatch breaks mid-chunk, and with no surviving
        // peer to re-dispatch to, the gather must surface a Worker error
        // attributed to the first undelivered slot.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let _request = t.recv().unwrap();
            // Drop without replying: EOF mid-chunk on the parent side.
        });
        let job = MulJob { factor: 1 };
        let m = mul_manifest(&[3]);
        let backend = tcp(vec![addr], 1).with_fault(FaultPolicy::default().with_retry_budget(1));
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        match err {
            ExecError::Worker { flat_index, .. } => assert_eq!(flat_index, 0),
            other => panic!("unexpected error {other:?}"),
        }
        join_within(handle);
    }

    #[test]
    fn unreachable_host_is_a_protocol_error() {
        let job = MulJob { factor: 1 };
        let m = mul_manifest(&[2]);
        // Loopback port 1: nothing listens there, connect is refused.
        let mut backend = tcp(vec!["127.0.0.1:1".into()], 1).with_fault(
            FaultPolicy::default()
                .with_retry_budget(0)
                .with_io_timeout(None),
        );
        backend.connect_timeout = Duration::from_millis(500);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        assert!(matches!(err, ExecError::Protocol(_)), "{err:?}");
    }

    #[test]
    fn task_error_from_remote_peer_keeps_lowest_flat_index() {
        struct FailFrom(usize);
        impl PortableJob for FailFrom {
            fn kind(&self) -> &'static str {
                "test-fail-from"
            }
            fn encode_payload(&self, buf: &mut Vec<u8>) {
                wire::put_u64(buf, self.0 as u64);
            }
            fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
                if point >= self.0 {
                    Err(format!("refused ({point},{rep})"))
                } else {
                    Ok(vec![1])
                }
            }
        }
        // Worker-side registry including the failing job.
        fn reg() -> JobRegistry {
            let mut reg = JobRegistry::new();
            reg.register("test-fail-from", |p| {
                let mut r = wire::Reader::new(p);
                let from = r.get_u64()? as usize;
                r.finish()?;
                Ok(Box::new(FailFrom(from)))
            });
            reg
        }
        let Peer { addr, handle, .. } = spawn_peer("127.0.0.1:0", reg);
        let job = FailFrom(1);
        let m = TaskManifest::for_job(
            &job,
            vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: 3,
                },
                Segment {
                    point: 1,
                    base_rep: 0,
                    count: 3,
                },
                Segment {
                    point: 2,
                    base_rep: 0,
                    count: 3,
                },
            ],
            &|_, _| 0,
        );
        let backend = tcp(vec![addr.clone()], 2);
        let err = backend.run_segments(&job, &m, None).unwrap_err();
        match err {
            ExecError::Task {
                flat_index,
                point,
                replication,
                ..
            } => assert_eq!((flat_index, point, replication), (3, 1, 0)),
            other => panic!("unexpected error {other:?}"),
        }
        shutdown_peer(&addr);
        join_within(handle);
    }

    #[test]
    fn parked_link_to_a_stopped_peer_is_not_reused_on_its_rebound_port() {
        // Peer A serves one dispatch, so the warm pool parks its link,
        // then stops. Both backends below share that one pool.
        let job = MulJob { factor: 3 };
        let m = mul_manifest(&[2, 1]);
        let expect = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap();
        let pool = Arc::new(WorkerPool::default());
        let a = spawn_peer("127.0.0.1:0", registry);
        let out = tcp_in(vec![a.addr.clone()], 1, pool.clone()).run_segments(&job, &m, None);
        assert_eq!(out.unwrap(), expect);
        shutdown_peer(&a.addr);
        join_within(a.handle);
        // Peer B binds A's exact address. A new backend dispatching there
        // must reach B, not A's parked link.
        let b = spawn_peer(&a.addr, registry);
        let out = tcp_in(vec![b.addr.clone()], 1, pool).run_segments(&job, &m, None);
        assert_eq!(out.unwrap(), expect);
        let deadline = Instant::now() + Duration::from_secs(10);
        while b.accepted.load(Ordering::SeqCst) == 0 {
            assert!(
                Instant::now() < deadline,
                "peer B accepted no connection: the dispatch ran on peer A's parked link"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        shutdown_peer(&b.addr);
        join_within(b.handle);
    }
}
