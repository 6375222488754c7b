//! Worker links and the process-global warm pool that keeps them.
//!
//! A [`Link`] is one framed connection to a worker: a `--worker`
//! subprocess on pipes, or a `--worker --listen` peer over TCP. Its
//! [`Endpoint`] says how to open one; everything after that — dispatch,
//! liveness checks, recycling — is the same for both.
//!
//! The pool keeps idle links on one shelf per endpoint:
//!
//! * **checkout** pops an idle link and health-checks it (`try_wait` for
//!   a subprocess, a socket liveness probe for a peer); dead or over-age
//!   links are discarded and the next candidate tried. A miss returns
//!   `None` and the caller opens a link cold.
//! * **checkin** parks a healthy link for the next dispatch, unless the
//!   recycling policy retires it (served [`MAX_DISPATCHES`], or the
//!   endpoint's shelf is full).
//!
//! Each worker backend is handed the pool it parks links in. The CLI and
//! the service hand every backend the process default ([`pool()`]),
//! because the service constructs a fresh `ExecBackend` per dispatch — a
//! pool per backend would never be warm. Tests give each backend a
//! private pool, so a link parked by one test is never checked out by
//! another. Pooled subprocesses need no teardown hook:
//! a worker idles blocked in `recv` on its stdin pipe, so parent exit
//! closes the pipe, the serve loop sees EOF, and the worker exits 0.

use super::{fleet_stats, FleetStats};
use crate::remote::protocol::encode_shutdown_request;
use crate::remote::transport::{probe_live, FrameTransport, PipeTransport, TcpTransport};
use std::collections::HashMap;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A pooled link is retired after serving this many dispatches
/// (max-lifetime recycling bounds leaked state in long-lived workers).
pub const MAX_DISPATCHES: u64 = 256;

/// Idle links older than this are discarded on checkout instead of being
/// health-probed and reused.
pub const MAX_IDLE_AGE: Duration = Duration::from_secs(300);

/// At most this many idle links are parked per endpoint; surplus
/// checkins are discarded.
pub const MAX_IDLE_PER_KEY: usize = 8;

/// Where a link goes, and the key its idle links are shelved under.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Endpoint {
    /// A worker subprocess spawned from this argv, spoken to over its
    /// stdin/stdout pipes.
    Pipe(Vec<String>),
    /// A `--worker --listen` peer at `host:port`.
    Tcp(String),
}

impl Endpoint {
    /// Open a fresh link: spawn the worker subprocess, or connect to the
    /// peer (bounded by `connect_timeout`) and liveness-probe it.
    pub fn open(&self, connect_timeout: Duration) -> io::Result<Link> {
        let conn = match self {
            Endpoint::Pipe(cmd) => {
                let (exe, args) = cmd.split_first().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::InvalidInput, "empty worker command")
                })?;
                let mut child = Command::new(exe)
                    .args(args)
                    .stdin(Stdio::piped())
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()?;
                let stdin = child.stdin.take().expect("piped stdin");
                let stdout = child.stdout.take().expect("piped stdout");
                FleetStats::bump(&fleet_stats().spawned);
                Conn::Pipe(child, PipeTransport::new(stdin, stdout))
            }
            Endpoint::Tcp(host) => {
                let addr = host.to_socket_addrs()?.next().ok_or_else(|| {
                    io::Error::new(io::ErrorKind::NotFound, "resolves to no address")
                })?;
                let t = TcpTransport::new(TcpStream::connect_timeout(&addr, connect_timeout)?);
                if !probe_live(t.stream()) {
                    return Err(io::Error::new(
                        io::ErrorKind::ConnectionAborted,
                        "dead right after connect",
                    ));
                }
                Conn::Tcp(t)
            }
        };
        Ok(Link {
            conn,
            dispatches: 0,
            parked_at: Instant::now(),
        })
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Pipe(cmd) => write!(f, "worker {:?}", cmd.first().map_or("", String::as_str)),
            Endpoint::Tcp(host) => write!(f, "peer {host}"),
        }
    }
}

enum Conn {
    Pipe(Child, PipeTransport),
    Tcp(TcpTransport),
}

/// One live framed connection to a worker.
pub struct Link {
    conn: Conn,
    /// Dispatches this link has served so far.
    pub dispatches: u64,
    parked_at: Instant,
}

impl Link {
    /// The framed transport to the worker.
    pub fn transport(&mut self) -> &mut dyn FrameTransport {
        match &mut self.conn {
            Conn::Pipe(_, t) => t,
            Conn::Tcp(t) => t,
        }
    }

    /// Bound every blocking read and write on a TCP link (a peer that
    /// goes silent past it counts as dead); pipe links have no timeout —
    /// a dead subprocess shows up as EOF.
    pub fn set_io_timeout(&self, timeout: Option<Duration>) {
        if let Conn::Tcp(t) = &self.conn {
            let _ = t.set_read_timeout(timeout);
            let _ = t.set_write_timeout(timeout);
        }
    }

    /// Whether the worker is still there: the subprocess has not exited,
    /// or the peer's socket probes live.
    pub fn is_alive(&mut self) -> bool {
        match &mut self.conn {
            Conn::Pipe(child, _) => matches!(child.try_wait(), Ok(None)),
            Conn::Tcp(t) => probe_live(t.stream()),
        }
    }

    /// Drop the link after a failure: a subprocess is killed and reaped
    /// (killing one that already exited is harmless), a socket closes.
    pub fn discard(self) {
        if let Conn::Pipe(mut child, _) = self.conn {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// End a healthy link instead of parking it. A subprocess gets the
    /// shutdown frame and its stdin closed, and must then exit 0; a TCP
    /// link just closes, because the shutdown frame would stop the
    /// listening worker for every other client.
    pub fn close(self) -> io::Result<()> {
        let Conn::Pipe(mut child, mut t) = self.conn else {
            return Ok(());
        };
        let sent = t.send(&encode_shutdown_request()).and_then(|_| t.flush());
        t.close_write();
        if let Err(e) = sent {
            let _ = child.kill();
            let _ = child.wait();
            return Err(e);
        }
        let status = child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!(
                "worker exited without success ({status})"
            )))
        }
    }
}

/// The warm pool: one shelf of idle links per endpoint.
#[derive(Default)]
pub struct WorkerPool {
    idle: Mutex<HashMap<Endpoint, Vec<Link>>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").finish_non_exhaustive()
    }
}

/// The process default pool, shared by every backend the CLI and the
/// service construct.
pub fn pool() -> &'static Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    POOL.get_or_init(Arc::default)
}

impl WorkerPool {
    /// Check out a warm, health-checked link to `ep`. `None` means no
    /// healthy idle link: the caller opens one cold. Idle links that
    /// died, aged out, or hit the dispatch cap are discarded on the way.
    pub fn checkout(&self, ep: &Endpoint) -> Option<Link> {
        loop {
            let mut link = self.idle.lock().unwrap().get_mut(ep).and_then(Vec::pop)?;
            if link.parked_at.elapsed() > MAX_IDLE_AGE || link.dispatches >= MAX_DISPATCHES {
                FleetStats::bump(&fleet_stats().recycled);
                link.discard();
                continue;
            }
            if !link.is_alive() {
                link.discard();
                continue;
            }
            FleetStats::bump(&fleet_stats().pool_hits);
            return Some(link);
        }
    }

    /// Park a healthy link after a dispatch (or retire it if the
    /// recycling policy says so).
    pub fn checkin(&self, ep: &Endpoint, mut link: Link) {
        link.dispatches += 1;
        link.parked_at = Instant::now();
        if link.dispatches < MAX_DISPATCHES {
            let mut shelves = self.idle.lock().unwrap();
            let shelf = shelves.entry(ep.clone()).or_default();
            if shelf.len() < MAX_IDLE_PER_KEY {
                shelf.push(link);
                return;
            }
        }
        FleetStats::bump(&fleet_stats().recycled);
        link.discard();
    }

    /// Discard every idle link (tests; also useful before fork-like
    /// operations). Subprocesses are killed and reaped; sockets close.
    pub fn drain(&self) {
        let links: Vec<Link> = {
            let mut shelves = self.idle.lock().unwrap();
            shelves.drain().flat_map(|(_, v)| v).collect()
        };
        for link in links {
            link.discard();
        }
    }

    /// Number of idle links parked for `ep` (tests/diagnostics).
    pub fn idle(&self, ep: &Endpoint) -> usize {
        self.idle.lock().unwrap().get(ep).map_or(0, Vec::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn cat_cmd() -> Endpoint {
        Endpoint::Pipe(vec!["/bin/cat".into()])
    }

    const T: Duration = Duration::from_secs(5);

    fn child(link: &mut Link) -> &mut Child {
        match &mut link.conn {
            Conn::Pipe(child, _) => child,
            Conn::Tcp(_) => panic!("not a pipe link"),
        }
    }

    #[test]
    fn checkout_return_reuses_the_same_subprocess() {
        let pool = WorkerPool::default();
        let mut w = cat_cmd().open(T).unwrap();
        let pid = child(&mut w).id();
        pool.checkin(&cat_cmd(), w);
        assert_eq!(pool.idle(&cat_cmd()), 1);
        let mut w2 = pool.checkout(&cat_cmd()).unwrap();
        assert_eq!(
            child(&mut w2).id(),
            pid,
            "warm checkout must reuse the member"
        );
        assert_eq!(w2.dispatches, 1);
        w2.discard();
        pool.drain();
    }

    #[test]
    fn dead_idle_workers_are_skipped_on_checkout() {
        let pool = WorkerPool::default();
        let mut dead = cat_cmd().open(T).unwrap();
        let _ = child(&mut dead).kill();
        let _ = child(&mut dead).wait();
        let dead_pid = child(&mut dead).id();
        pool.checkin(&cat_cmd(), dead);
        let fresh = pool.checkout(&cat_cmd()).or_else(|| cat_cmd().open(T).ok());
        let mut fresh = fresh.unwrap();
        assert_ne!(
            child(&mut fresh).id(),
            dead_pid,
            "dead member must be discarded"
        );
        fresh.discard();
        pool.drain();
    }

    #[test]
    fn dispatch_cap_retires_members() {
        let pool = WorkerPool::default();
        let mut w = cat_cmd().open(T).unwrap();
        w.dispatches = MAX_DISPATCHES - 1;
        pool.checkin(&cat_cmd(), w);
        assert_eq!(
            pool.idle(&cat_cmd()),
            0,
            "member at the dispatch cap is retired, not parked"
        );
        pool.drain();
    }

    #[test]
    fn idle_shelf_is_bounded() {
        let pool = WorkerPool::default();
        let members: Vec<_> = (0..MAX_IDLE_PER_KEY + 2)
            .map(|_| cat_cmd().open(T).unwrap())
            .collect();
        for w in members {
            pool.checkin(&cat_cmd(), w);
        }
        assert_eq!(pool.idle(&cat_cmd()), MAX_IDLE_PER_KEY);
        pool.drain();
    }

    #[test]
    fn peer_checkout_probes_liveness() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let accepted = std::sync::Arc::new(Mutex::new(Vec::new()));
        let keep = accepted.clone();
        let addr2 = addr.clone();
        let server = std::thread::spawn(move || {
            for stream in listener.incoming().take(2) {
                keep.lock().unwrap().push(stream.unwrap());
            }
            addr2
        });
        let pool = WorkerPool::default();
        let ep = Endpoint::Tcp(addr.clone());
        assert!(pool.checkout(&ep).is_none(), "cold pool misses");
        pool.checkin(&ep, ep.open(T).unwrap());
        assert_eq!(pool.idle(&ep), 1);
        let live = pool.checkout(&ep).expect("live idle peer");
        assert_eq!(live.dispatches, 1);
        drop(live);
        // Park a connection, then close the server side: the probe must
        // reject it on the next checkout.
        let t = ep.open(T).unwrap();
        let _ = crate::remote::transport::join_within(server);
        accepted.lock().unwrap().clear(); // server-side FIN on both
        pool.checkin(&ep, t);
        assert!(
            pool.checkout(&ep).is_none(),
            "dead idle peer must be probed out"
        );
    }
}
