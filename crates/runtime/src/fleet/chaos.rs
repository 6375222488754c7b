//! Deterministic chaos harness: seeded frame-level fault injection.
//!
//! [`FaultInjector`] wraps any [`FrameTransport`] and — when armed —
//! drops or garbles/truncates frames, or kills the connection after N
//! frames, with every decision drawn from a [`SimRng`] seeded from
//! `ChaosConfig::seed` and a per-connection counter. The same seed
//! therefore yields the same fault schedule run-to-run. Every injected
//! fault is **connection-fatal or stream-corrupting, never silent**:
//! pipes to shard workers have no read timeout, so a silently swallowed
//! frame would wedge the drain forever, whereas a failed `send`/`recv`
//! surfaces as `Drained::Broken` and goes through the ordinary supervisor
//! retry path.
//!
//! Chaos is a test harness, not a production control surface: it is
//! armed only through the API (`Exec::with_chaos`, or a daemon's
//! `ServiceConfig.exec`), never from flags or the environment.

use crate::remote::transport::FrameTransport;
use sim_core::SimRng;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

/// Frame-fault schedule for a [`FaultInjector`]. Rates are per-mille
/// (integer, so the config stays `Eq` and embeddable in `Exec`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosConfig {
    /// Master seed; combined with a per-connection counter.
    pub seed: u64,
    /// Per-mille chance each `send`/`recv` fails (connection-fatal).
    pub drop_per_mille: u32,
    /// Per-mille chance a frame body is bit-flipped and truncated (the
    /// receiver sees a protocol violation and abandons the stream).
    pub garble_per_mille: u32,
    /// Fail the connection outright after this many frames.
    pub kill_after: Option<u64>,
}

impl ChaosConfig {
    /// A config with the given seed and no faults armed (builders add
    /// them).
    pub fn seeded(seed: u64) -> Self {
        ChaosConfig {
            seed,
            drop_per_mille: 0,
            garble_per_mille: 0,
            kill_after: None,
        }
    }

    /// Set the per-mille frame-drop rate.
    pub fn with_drop(mut self, per_mille: u32) -> Self {
        self.drop_per_mille = per_mille;
        self
    }

    /// Set the per-mille frame-garble rate.
    pub fn with_garble(mut self, per_mille: u32) -> Self {
        self.garble_per_mille = per_mille;
        self
    }

    /// Kill each connection after `n` frames.
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Does this schedule actually inject anything?
    pub fn armed(&self) -> bool {
        self.drop_per_mille > 0 || self.garble_per_mille > 0 || self.kill_after.is_some()
    }
}

fn chaos_err(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::ConnectionAborted, format!("[chaos] {what}"))
}

/// Monotone per-process connection counter: each wrapped connection gets
/// its own fault stream, so concurrent shards/peers fault independently
/// but reproducibly.
static CONN_SEQ: AtomicU64 = AtomicU64::new(0);

struct InjectorState {
    cfg: ChaosConfig,
    rng: SimRng,
    frames: u64,
}

/// A [`FrameTransport`] wrapper that injects deterministic faults.
/// Disarmed (`cfg == None` or a no-fault config), it is a pure
/// passthrough.
pub struct FaultInjector<T: FrameTransport> {
    inner: T,
    state: Option<InjectorState>,
}

impl<T: FrameTransport> FaultInjector<T> {
    /// Wrap `inner`; `cfg: None` (or a config with no faults armed)
    /// yields a passthrough.
    pub fn new(inner: T, cfg: Option<ChaosConfig>) -> Self {
        let state = cfg.filter(|c| c.armed()).map(|cfg| {
            let conn = CONN_SEQ.fetch_add(1, Ordering::Relaxed);
            InjectorState {
                cfg,
                rng: SimRng::seed_from_u64(cfg.seed ^ conn.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                frames: 0,
            }
        });
        FaultInjector { inner, state }
    }

    /// The wrapped transport.
    pub fn inner(&self) -> &T {
        &self.inner
    }

    /// Unwrap.
    pub fn into_inner(self) -> T {
        self.inner
    }
}

/// Corrupt a frame body in place: flip bits at both ends and truncate
/// the tail, so the receiver's decoder sees a structurally broken frame
/// (bad tag / short buffer), never a silently-wrong result payload.
fn garble(body: &[u8]) -> Vec<u8> {
    let mut g = body.to_vec();
    if let Some(first) = g.first_mut() {
        *first ^= 0xA5;
    }
    if let Some(last) = g.last_mut() {
        *last ^= 0x5A;
    }
    let keep = (g.len() - g.len() / 3).max(1);
    g.truncate(keep);
    g
}

impl<T: FrameTransport> FrameTransport for FaultInjector<T> {
    fn send(&mut self, body: &[u8]) -> io::Result<()> {
        if let Some(st) = &mut self.state {
            st.frames += 1;
            if st.cfg.kill_after.is_some_and(|n| st.frames > n) {
                return Err(chaos_err("connection killed (frame budget exhausted)"));
            }
            if st.rng.chance(st.cfg.drop_per_mille) {
                return Err(chaos_err("outbound frame dropped"));
            }
            if st.rng.chance(st.cfg.garble_per_mille) {
                return self.inner.send(&garble(body));
            }
        }
        self.inner.send(body)
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        if let Some(st) = &mut self.state {
            st.frames += 1;
            if st.cfg.kill_after.is_some_and(|n| st.frames > n) {
                return Err(chaos_err("connection killed (frame budget exhausted)"));
            }
            // Faults roll before the read: a "dropped" inbound frame is
            // a dead connection (the caller discards the transport, so
            // the undrained stream is never observed).
            if st.rng.chance(st.cfg.drop_per_mille) {
                return Err(chaos_err("inbound frame dropped"));
            }
            let got = self.inner.recv()?;
            if let Some(body) = got {
                if st.rng.chance(st.cfg.garble_per_mille) {
                    return Ok(Some(garble(&body)));
                }
                return Ok(Some(body));
            }
            return Ok(None);
        }
        self.inner.recv()
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }

    fn peer(&self) -> String {
        match &self.state {
            Some(_) => format!("{} [chaos]", self.inner.peer()),
            None => self.inner.peer(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::transport::MemTransport;
    use sim_core::wire;

    fn staged(frames: &[&[u8]]) -> MemTransport {
        let mut buf = Vec::new();
        for f in frames {
            wire::write_frame(&mut buf, f).unwrap();
        }
        MemTransport::new(buf)
    }

    #[test]
    fn disarmed_injector_is_a_passthrough() {
        let mut t = FaultInjector::new(staged(&[b"alpha", b"beta"]), None);
        t.send(b"req").unwrap();
        assert_eq!(t.recv().unwrap().unwrap(), b"alpha");
        assert_eq!(t.recv().unwrap().unwrap(), b"beta");
        assert!(t.recv().unwrap().is_none());
        let out = t.into_inner().output;
        let mut r = &out[..];
        assert_eq!(wire::read_frame(&mut r).unwrap().unwrap(), b"req");
        // A seeded config with zero rates is also disarmed.
        let z = FaultInjector::new(staged(&[]), Some(ChaosConfig::seeded(1)));
        assert!(z.state.is_none());
    }

    #[test]
    fn full_drop_rate_fails_immediately_and_deterministically() {
        let cfg = Some(ChaosConfig::seeded(9).with_drop(1000));
        let mut t = FaultInjector::new(staged(&[b"x"]), cfg);
        let e = t.send(b"req").unwrap_err();
        assert!(e.to_string().contains("[chaos]"), "{e}");
        let mut t = FaultInjector::new(staged(&[b"x"]), cfg);
        assert!(t.recv().is_err());
    }

    #[test]
    fn kill_after_budget_fails_the_connection() {
        let cfg = Some(ChaosConfig::seeded(3).with_kill_after(2));
        let mut t = FaultInjector::new(staged(&[b"a", b"b", b"c"]), cfg);
        assert_eq!(t.recv().unwrap().unwrap(), b"a");
        assert_eq!(t.recv().unwrap().unwrap(), b"b");
        let e = t.recv().unwrap_err();
        assert!(e.to_string().contains("frame budget"), "{e}");
    }

    #[test]
    fn garbled_frames_are_structurally_corrupt_not_silently_wrong() {
        let cfg = Some(ChaosConfig::seeded(5).with_garble(1000));
        let mut t = FaultInjector::new(staged(&[b"hello world"]), cfg);
        let got = t.recv().unwrap().unwrap();
        assert_ne!(got, b"hello world");
        assert!(got.len() < b"hello world".len(), "garble truncates");
    }

    #[test]
    fn same_seed_gives_same_fault_schedule() {
        // Two injector pairs created from a fresh connection-counter
        // parity: drive many frames and compare which indices fail.
        let cfg = ChaosConfig::seeded(77).with_drop(200);
        let schedule = |conn_seed: u64| -> Vec<bool> {
            let mut rng = SimRng::seed_from_u64(cfg.seed ^ conn_seed);
            (0..100).map(|_| rng.chance(cfg.drop_per_mille)).collect()
        };
        assert_eq!(schedule(0), schedule(0));
        assert_ne!(schedule(0), schedule(1));
    }
}
