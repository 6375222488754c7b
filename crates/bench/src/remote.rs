//! Process harnesses for the distributed suites: real `repro` daemon and
//! worker processes on loopback ephemeral ports.
//!
//! Three consumers share the spawn/announce/teardown machinery here:
//! [`LocalCluster`] (a set of `repro --worker --listen` TCP workers — the
//! remote determinism suite and `remote_ab`), [`LocalService`] (one
//! `repro serve --listen` experiment-service daemon — the service suite
//! and `service_ab`), and ad-hoc experiments. The shared core is
//! [`AnnouncedProc`]: spawn a child with piped stdout, wait for its
//! one-line `<prefix> <addr>` announcement (how a process bound to port 0
//! publishes its ephemeral port — no fixed-port races, no sleep
//! guessing), and kill + reap it on drop so a failing test never leaks
//! daemons.

use sim_runtime::remote::TcpTransport;
use sim_runtime::{Exec, ServiceClient};
use std::io::{BufRead, BufReader};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Resolve the sibling `repro` binary next to the current executable —
/// how the `*_ab` bench binaries find their worker/daemon. Panics with a
/// build hint when it is missing.
pub fn sibling_repro_bin() -> String {
    let exe = std::env::current_exe().expect("current_exe");
    let repro = exe.parent().expect("target dir").join("repro");
    assert!(
        repro.exists(),
        "worker/daemon binary {repro:?} missing — build with `cargo build --release -p bench`"
    );
    repro.to_string_lossy().into_owned()
}

/// A spawned child process that announced its bound address on stdout.
///
/// Dropping kills and reaps the child (the un-graceful fallback); harness
/// types layer their protocol-level shutdown on top.
pub struct AnnouncedProc {
    child: Child,
    /// Announced addresses, one per expected prefix, in announcement
    /// order. [`AnnouncedProc::addr`] is the last one — the primary
    /// protocol address for every existing single-announcement consumer.
    addrs: Vec<String>,
}

impl AnnouncedProc {
    /// Spawn `bin args...` with the given extra environment, piped stdout
    /// and inherited stderr, then block until it prints a line of the form
    /// `<announce_prefix> <addr>`; anything else is an error (and the
    /// child is reaped).
    pub fn spawn(
        bin: &str,
        args: &[&str],
        env: &[(String, String)],
        announce_prefix: &str,
    ) -> std::io::Result<Self> {
        Self::spawn_seq(bin, args, env, &[announce_prefix])
    }

    /// [`AnnouncedProc::spawn`] for processes that announce several
    /// addresses on consecutive stdout lines in a fixed order — e.g.
    /// `repro serve --http` prints `http <addr>` before `serving <addr>`.
    /// Each line must carry the matching prefix from `prefixes`.
    pub fn spawn_seq(
        bin: &str,
        args: &[&str],
        env: &[(String, String)],
        prefixes: &[&str],
    ) -> std::io::Result<Self> {
        assert!(!prefixes.is_empty(), "need at least one announce prefix");
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd.spawn()?;
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut addrs = Vec::with_capacity(prefixes.len());
        for announce_prefix in prefixes {
            let mut line = String::new();
            reader.read_line(&mut line)?;
            // Require the full "<prefix> " word boundary: a line that
            // merely starts with the prefix (e.g. "listening-error: ...")
            // is a malformed announcement, not an address.
            let expected = format!("{announce_prefix} ");
            match line.trim().strip_prefix(&expected) {
                Some(a) if !a.trim().is_empty() => addrs.push(a.trim().to_string()),
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(std::io::Error::other(format!(
                        "process announced {line:?} instead of {announce_prefix:?} + address"
                    )));
                }
            }
        }
        Ok(AnnouncedProc { child, addrs })
    }

    /// The announced `host:port` (the last announcement when the process
    /// made several — the primary protocol address).
    pub fn addr(&self) -> &str {
        self.addrs.last().expect("at least one announcement")
    }

    /// The `i`-th announced address, in [`AnnouncedProc::spawn_seq`]
    /// prefix order.
    pub fn announced(&self, i: usize) -> &str {
        &self.addrs[i]
    }

    /// Hard-kill the child (idempotent).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }

    /// Reap the child after a graceful protocol-level shutdown.
    pub fn wait(&mut self) {
        let _ = self.child.wait();
    }
}

impl Drop for AnnouncedProc {
    fn drop(&mut self) {
        self.kill();
    }
}

// --- worker cluster ------------------------------------------------------

/// A set of loopback TCP workers backing [`Exec::remote`] runs — the
/// smallest honest stand-in for a multi-host deployment: every worker is
/// a separate OS process speaking the real protocol end to end, so
/// everything except the physical network hop is exercised.
///
/// Dropping the cluster kills any worker still running; prefer
/// [`LocalCluster::shutdown`] for a graceful end (shutdown frame, then
/// wait) when the workers are healthy.
pub struct LocalCluster {
    workers: Vec<AnnouncedProc>,
}

impl LocalCluster {
    /// Spawn `n` workers of `worker_bin` (`<bin> --worker --listen
    /// 127.0.0.1:0`), waiting for each to announce its address.
    pub fn spawn(worker_bin: &str, n: usize) -> std::io::Result<Self> {
        Self::spawn_with_env(worker_bin, n, |_| Vec::new())
    }

    /// [`LocalCluster::spawn`] with extra environment variables per worker
    /// index — how the failure suites arm some workers (one, or the whole
    /// fleet) with a [`CrashJob`](crate::shard::CrashJob)'s variable.
    pub fn spawn_with_env(
        worker_bin: &str,
        n: usize,
        env_of: impl Fn(usize) -> Vec<(String, String)>,
    ) -> std::io::Result<Self> {
        assert!(n >= 1, "a cluster needs at least one worker");
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            workers.push(AnnouncedProc::spawn(
                worker_bin,
                &["--worker", "--listen", "127.0.0.1:0"],
                &env_of(i),
                "listening",
            )?);
        }
        Ok(LocalCluster { workers })
    }

    /// The workers' `host:port` addresses, in spawn order.
    pub fn hosts(&self) -> Vec<String> {
        self.workers.iter().map(|w| w.addr().to_string()).collect()
    }

    /// An [`Exec`] dispatching to the first `hosts` workers with `threads`
    /// worker threads per peer.
    pub fn exec(&self, threads: usize, hosts: usize) -> Exec {
        Exec::remote(
            threads,
            self.hosts().into_iter().take(hosts.max(1)).collect(),
        )
    }

    /// Hard-kill worker `i` (the external peer-death probe). Idempotent.
    pub fn kill(&mut self, i: usize) {
        self.workers[i].kill();
    }

    /// Gracefully stop every worker: send each a shutdown frame, then wait
    /// for it to exit on its own. Workers that no longer accept (e.g.
    /// already crashed) are reaped by the `Drop` kill instead.
    pub fn shutdown(mut self) {
        for w in &mut self.workers {
            if let Ok(addr) = w.addr().parse::<std::net::SocketAddr>() {
                if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(1000)) {
                    let mut t = TcpTransport::new(stream);
                    if sim_runtime::remote::send_shutdown(&mut t).is_ok() {
                        w.wait();
                    }
                }
            }
        }
        // Drop reaps whatever did not exit gracefully.
    }
}

// --- service daemon ------------------------------------------------------

/// One real `repro serve --listen 127.0.0.1:0` experiment-service daemon
/// on an ephemeral loopback port — the harness behind the service
/// determinism/caching suite and the `service_ab` bench.
///
/// Dropping kills the daemon; prefer [`LocalService::shutdown`] (the
/// protocol stop verb, then wait) when it is healthy.
pub struct LocalService {
    proc: AnnouncedProc,
    /// The HTTP gateway address, when spawned with
    /// [`LocalService::spawn_with_http`].
    http: Option<String>,
}

impl LocalService {
    /// Spawn a daemon with extra `repro serve` flags (backend selection,
    /// queue capacity, cache directory, ...) and wait for its
    /// `serving <addr>` announcement.
    ///
    /// Tests should always pass an explicit `--cache-dir` under a unique
    /// temp directory (or `--no-disk-cache`): the daemon's default cache
    /// location is relative to its working directory, and concurrent
    /// tests must not share entries.
    pub fn spawn(repro_bin: &str, extra_args: &[&str]) -> std::io::Result<Self> {
        Self::spawn_with_env(repro_bin, extra_args, &[])
    }

    /// [`LocalService::spawn`] with extra environment variables (such as
    /// `REPRO_TELEMETRY`) set in the daemon only, not in the spawning
    /// process.
    pub fn spawn_with_env(
        repro_bin: &str,
        extra_args: &[&str],
        env: &[(String, String)],
    ) -> std::io::Result<Self> {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0"];
        args.extend_from_slice(extra_args);
        Ok(LocalService {
            proc: AnnouncedProc::spawn(repro_bin, &args, env, "serving")?,
            http: None,
        })
    }

    /// [`LocalService::spawn_with_env`] with the HTTP gateway enabled on
    /// its own ephemeral port (`--http 127.0.0.1:0`); the gateway address
    /// is available from [`LocalService::http_addr`]. The daemon announces
    /// `http <addr>` before `serving <addr>`, in that order.
    pub fn spawn_with_http(
        repro_bin: &str,
        extra_args: &[&str],
        env: &[(String, String)],
    ) -> std::io::Result<Self> {
        let mut args = vec!["serve", "--listen", "127.0.0.1:0", "--http", "127.0.0.1:0"];
        args.extend_from_slice(extra_args);
        let proc = AnnouncedProc::spawn_seq(repro_bin, &args, env, &["http", "serving"])?;
        let http = Some(proc.announced(0).to_string());
        Ok(LocalService { proc, http })
    }

    /// The daemon's `host:port`.
    pub fn addr(&self) -> &str {
        self.proc.addr()
    }

    /// The HTTP gateway's `host:port`, when spawned with
    /// [`LocalService::spawn_with_http`].
    pub fn http_addr(&self) -> Option<&str> {
        self.http.as_deref()
    }

    /// An [`Exec`] routing every dispatch through this daemon.
    pub fn exec(&self, threads: usize) -> Exec {
        Exec::service(threads, self.addr().to_string())
    }

    /// A fresh client connection to the daemon.
    pub fn client(&self) -> ServiceClient {
        ServiceClient::connect(self.addr(), Duration::from_secs(10))
            .expect("service daemon accepts connections")
    }

    /// Gracefully stop the daemon (protocol stop verb, then reap). A
    /// daemon that no longer accepts connections (e.g. it already
    /// crashed — the interesting failure a test wants surfaced) is left
    /// for the `Drop` kill instead of panicking here and masking it.
    pub fn shutdown(mut self) {
        if let Ok(mut client) = ServiceClient::connect(self.addr(), Duration::from_secs(10)) {
            if client.shutdown().is_ok() {
                self.proc.wait();
            }
        }
        // Drop reaps a daemon that refused (or never saw) the verb.
    }
}

// Spawning real workers/daemons needs the repro binary
// (`CARGO_BIN_EXE_repro`), which cargo only provides to integration
// tests — the harnesses are exercised end to end by
// `tests/remote_determinism.rs` and `tests/service.rs`.
