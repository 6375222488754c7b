//! An experiment-service daemon served from the test process itself, for
//! suites that arm the daemon's backend through the API
//! (`ServiceConfig.exec`, e.g. `Exec::with_chaos`) rather than through a
//! `repro serve` command line.

use sim_runtime::service::serve_on;
use sim_runtime::{Exec, ServiceClient, ServiceConfig, ServiceHandle};
use std::time::Duration;

/// A running daemon: dispatchers from [`ServiceHandle::start`] and the
/// protocol's TCP front (`serve_on`) on an ephemeral loopback port.
pub struct InProcessDaemon {
    handle: ServiceHandle,
    /// The daemon's `host:port`.
    pub addr: String,
    server: std::thread::JoinHandle<()>,
}

impl InProcessDaemon {
    /// Start a daemon on `exec` with the `repro --worker` registry and no
    /// disk cache.
    pub fn start(exec: Exec) -> Self {
        let cfg = ServiceConfig {
            exec,
            cache_dir: None,
            ..Default::default()
        };
        let handle =
            ServiceHandle::start(cfg, std::sync::Arc::new(bench::shard::worker_registry()));
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address").to_string();
        let service = handle.service();
        let server = std::thread::spawn(move || serve_on(service, listener).expect("serve"));
        InProcessDaemon {
            handle,
            addr,
            server,
        }
    }

    /// A fresh client connection to the daemon.
    pub fn client(&self) -> ServiceClient {
        ServiceClient::connect(&self.addr, Duration::from_secs(10))
            .expect("service daemon accepts connections")
    }

    /// Stop the daemon: the protocol stop verb ends the TCP front, then
    /// the dispatchers are joined.
    pub fn shutdown(self) {
        self.client().shutdown().expect("stop verb");
        self.server.join().expect("TCP front exits cleanly");
        self.handle.stop();
    }
}
