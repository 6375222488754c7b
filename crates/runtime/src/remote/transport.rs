//! Framed transports: one trait, every byte stream the executor speaks.
//!
//! The worker protocol (length-prefixed request/response frames, see
//! [`crate::wire`]) used to be read and written with code inlined at each
//! endpoint — the worker's stdin/stdout loop in [`crate::worker`] and the
//! shard drain loop in [`crate::exec`]. [`FrameTransport`] is the one seam
//! those endpoints now share, so the same serve loop and the same response
//! drain run over:
//!
//! * [`StdioTransport`] — this process's stdin/stdout (the classic
//!   `<exe> --worker` subprocess mode);
//! * [`PipeTransport`] — the parent's half of a worker subprocess's
//!   stdin/stdout pipes;
//! * [`TcpTransport`] — a connected socket (the remote backend and
//!   `--worker --listen` mode), crossing the machine boundary.
//!
//! Transports are `Send` (the worker streams result frames from its pool
//! threads under a mutex) but deliberately **not** `Sync`: callers decide
//! how to serialize access.

use crate::wire;
use std::io::{self, Write};
use std::net::TcpStream;

/// A bidirectional, length-prefixed frame channel.
///
/// `send` writes one frame; `recv` blocks for the next one, returning
/// `Ok(None)` on clean end-of-stream (peer closed before a length prefix).
/// Implementations must make a `send`ed frame visible to the peer after
/// `flush` at the latest.
pub trait FrameTransport: Send {
    /// Write one frame (length prefix + body).
    fn send(&mut self, body: &[u8]) -> io::Result<()>;

    /// Read the next frame; `Ok(None)` on clean EOF before a frame starts.
    /// EOF *inside* a frame is an error (the peer died mid-write).
    fn recv(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Flush buffered writes through to the peer.
    fn flush(&mut self) -> io::Result<()>;

    /// Human-readable peer description for diagnostics.
    fn peer(&self) -> String;
}

/// A mutable borrow of a transport is itself a transport, so pooled
/// (owned, long-lived) transports can be wrapped per-dispatch — e.g. by
/// a [`FaultInjector`](crate::fleet::chaos::FaultInjector) — without
/// giving up ownership.
impl<T: FrameTransport + ?Sized> FrameTransport for &mut T {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        (**self).send(body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        (**self).recv()
    }

    fn flush(&mut self) -> io::Result<()> {
        (**self).flush()
    }

    fn peer(&self) -> String {
        (**self).peer()
    }
}

// --- stdio (worker side) -------------------------------------------------

/// The worker half of the subprocess protocol: frames over this process's
/// own stdin/stdout. Diagnostics belong on stderr — stdout carries nothing
/// but frames.
pub struct StdioTransport {
    stdin: io::Stdin,
    stdout: io::Stdout,
}

impl StdioTransport {
    /// A transport over this process's stdin/stdout.
    pub fn new() -> Self {
        StdioTransport {
            stdin: io::stdin(),
            stdout: io::stdout(),
        }
    }
}

impl Default for StdioTransport {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameTransport for StdioTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        wire::write_frame(&mut self.stdout, body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        wire::read_frame(&mut self.stdin)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stdout.flush()
    }

    fn peer(&self) -> String {
        "stdio".into()
    }
}

// --- pipes (parent side) -------------------------------------------------

/// The parent half of a worker subprocess's pipes: requests down the
/// child's stdin, responses up its stdout.
///
/// [`PipeTransport::close_write`] drops the write half early so a worker
/// blocked mid-read sees EOF instead of waiting forever — the parent has
/// nothing more to say once the manifest and the shutdown frame are out.
pub struct PipeTransport {
    writer: Option<std::process::ChildStdin>,
    reader: std::process::ChildStdout,
}

impl PipeTransport {
    /// A transport over a spawned child's piped stdin/stdout.
    pub fn new(writer: std::process::ChildStdin, reader: std::process::ChildStdout) -> Self {
        PipeTransport {
            writer: Some(writer),
            reader,
        }
    }

    /// Close the write half (the child's stdin). Further `send`s error.
    pub fn close_write(&mut self) {
        self.writer = None;
    }
}

impl FrameTransport for PipeTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        let w = self.writer.as_mut().ok_or_else(|| {
            io::Error::new(io::ErrorKind::BrokenPipe, "worker stdin already closed")
        })?;
        wire::write_frame(w, body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        wire::read_frame(&mut self.reader)
    }

    fn flush(&mut self) -> io::Result<()> {
        match self.writer.as_mut() {
            Some(w) => w.flush(),
            None => Ok(()),
        }
    }

    fn peer(&self) -> String {
        "worker subprocess".into()
    }
}

// --- TCP -----------------------------------------------------------------

/// Frames over a connected TCP socket — the transport that leaves the
/// machine. Used on both sides: the remote backend's connection to a
/// `--worker --listen` peer, and that worker's accepted connection back.
pub struct TcpTransport {
    stream: TcpStream,
    peer: String,
}

impl TcpTransport {
    /// Wrap a connected stream. Sets `TCP_NODELAY` (frames are small and
    /// latency-sensitive; Nagle would batch the per-slot result stream).
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        let peer = stream
            .peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<unknown peer>".into());
        TcpTransport { stream, peer }
    }

    /// The underlying socket (for liveness probes — see [`probe_live`]).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Bound every blocking `recv` by `timeout`: a peer silent for longer
    /// fails the read instead of blocking forever. Executing workers
    /// stream heartbeat frames well inside any sane bound (see the worker
    /// protocol), so only a genuinely vanished peer trips it.
    pub fn set_read_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Bound every blocking `send` by `timeout`: a peer that stops
    /// reading (vanished between the liveness probe and the request
    /// write, with the request larger than the socket buffer) fails the
    /// write instead of blocking the dispatcher forever.
    pub fn set_write_timeout(&self, timeout: Option<std::time::Duration>) -> io::Result<()> {
        self.stream.set_write_timeout(timeout)
    }
}

impl FrameTransport for TcpTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        wire::write_frame(&mut self.stream, body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        wire::read_frame(&mut self.stream)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.stream.flush()
    }

    fn peer(&self) -> String {
        self.peer.clone()
    }
}

/// Poll-style liveness probe of a connected peer, without consuming stream
/// data: flip the socket to nonblocking, `peek` one byte, flip back.
///
/// * `WouldBlock` — peer idle but connected: **alive**;
/// * `Ok(n > 0)` — response bytes already queued: **alive**;
/// * `Ok(0)` — orderly shutdown (EOF): **dead**;
/// * any other error (reset, aborted): **dead**.
///
/// Interrupted probes retry; a socket whose mode cannot be restored is
/// reported dead (its blocking reads would spin). The worker backend
/// probes peers after connect and before every chunk dispatch, so a peer
/// that died while idle never gets work committed to it.
pub fn probe_live(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let verdict = loop {
        let mut byte = [0u8; 1];
        break match stream.peek(&mut byte) {
            Ok(0) => false,
            Ok(_) => true,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => true,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => false,
        };
    };
    stream.set_nonblocking(false).is_ok() && verdict
}

// --- in-memory (tests) ---------------------------------------------------

/// Test transport: frames decoded from a pre-filled input buffer, responses
/// appended to an output buffer.
#[cfg(test)]
pub(crate) struct MemTransport {
    pub input: io::Cursor<Vec<u8>>,
    pub output: Vec<u8>,
}

#[cfg(test)]
impl MemTransport {
    pub fn new(input: Vec<u8>) -> Self {
        MemTransport {
            input: io::Cursor::new(input),
            output: Vec::new(),
        }
    }
}

#[cfg(test)]
impl FrameTransport for MemTransport {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        wire::write_frame(&mut self.output, body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        wire::read_frame(&mut self.input)
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn peer(&self) -> String {
        "memory".into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    #[test]
    fn mem_transport_round_trips_frames() {
        let mut staged = Vec::new();
        wire::write_frame(&mut staged, b"one").unwrap();
        wire::write_frame(&mut staged, b"").unwrap();
        let mut t = MemTransport::new(staged);
        assert_eq!(t.recv().unwrap().unwrap(), b"one");
        assert_eq!(t.recv().unwrap().unwrap(), b"");
        assert!(t.recv().unwrap().is_none());
        t.send(b"reply").unwrap();
        let mut r = &t.output[..];
        assert_eq!(wire::read_frame(&mut r).unwrap().unwrap(), b"reply");
    }

    #[test]
    fn tcp_transport_round_trips_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream);
            let got = t.recv().unwrap().unwrap();
            t.send(&got).unwrap();
            t.flush().unwrap();
            // Clean close → client sees Ok(None).
        });
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap());
        t.send(b"ping").unwrap();
        t.flush().unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), b"ping");
        assert!(t.recv().unwrap().is_none());
        server.join().unwrap();
    }

    #[test]
    fn probe_classifies_live_and_dead_peers() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        // Connected and idle: alive from both ends.
        assert!(probe_live(&client));
        assert!(probe_live(&server));
        // Peer hangs up: EOF → dead (may need a beat to propagate).
        drop(server);
        let dead = (0..100).any(|_| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            !probe_live(&client)
        });
        assert!(dead, "closed peer still probes alive");
    }

    #[test]
    fn probe_leaves_stream_data_intact() {
        use std::io::Read;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"xyz").unwrap();
        server.flush().unwrap();
        // Wait until the bytes are visible, probing as we go.
        let mut seen = false;
        for _ in 0..100 {
            if probe_live(&client) {
                seen = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert!(seen);
        let mut buf = [0u8; 3];
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"xyz");
    }
}
