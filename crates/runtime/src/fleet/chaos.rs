//! Deterministic chaos harness: seeded frame-level fault injection and
//! env-armable worker crash/stall points.
//!
//! Two halves, one seed:
//!
//! * [`FaultInjector`] wraps any [`FrameTransport`] and — when armed —
//!   drops, delays, garbles/truncates frames or kills the connection
//!   after N frames, with every decision drawn from a [`SimRng`]
//!   seeded from `ChaosConfig::seed` and a per-connection counter. The
//!   same seed therefore yields the same fault schedule run-to-run.
//!   Every injected fault is **connection-fatal or stream-corrupting,
//!   never silent**: pipes to shard workers have no read timeout, so a
//!   silently swallowed frame would wedge the drain forever, whereas a
//!   failed `send`/`recv` surfaces as `Drained::Broken` and goes through
//!   the ordinary supervisor retry path.
//! * Worker-side crash/stall points ([`worker_chaos`]) arm via
//!   `REPRO_CHAOS_*` environment variables and fire inside the slot
//!   loop, exercising crash-mid-slot and heartbeat-stall recovery in
//!   real subprocesses. Decisions mix the process id into the seed so a
//!   *restarted* worker rolls fresh faults and the fleet makes forward
//!   progress; result bytes are unaffected by construction (slots are
//!   seeded pure functions).
//!
//! Environment contract (everything disarmed unless `REPRO_CHAOS_SEED`
//! is set):
//!
//! | Variable | Meaning |
//! |---|---|
//! | `REPRO_CHAOS_SEED` | master seed; arms the harness |
//! | `REPRO_CHAOS_DROP` | per-mille chance a frame send/recv fails |
//! | `REPRO_CHAOS_GARBLE` | per-mille chance a frame body is corrupted |
//! | `REPRO_CHAOS_DELAY` | per-mille chance a frame is delayed |
//! | `REPRO_CHAOS_DELAY_MS` | delay duration (default 20 ms) |
//! | `REPRO_CHAOS_KILL_AFTER` | kill each connection after N frames |
//! | `REPRO_CHAOS_WORKER_CRASH` | per-mille chance a worker exits(3) before delivering a slot |
//! | `REPRO_CHAOS_WORKER_STALL` | per-mille chance a worker goes silent mid-slot |
//! | `REPRO_CHAOS_WORKER_STALL_MS` | stall duration (default 1500 ms) |

use crate::remote::transport::FrameTransport;
use sim_core::SimRng;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

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
    /// Per-mille chance a frame is delayed by [`delay_ms`](Self::delay_ms).
    pub delay_per_mille: u32,
    /// Injected delay duration in milliseconds.
    pub delay_ms: u64,
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
            delay_per_mille: 0,
            delay_ms: 20,
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

    /// Set the per-mille frame-delay rate and duration.
    pub fn with_delay(mut self, per_mille: u32, ms: u64) -> Self {
        self.delay_per_mille = per_mille;
        self.delay_ms = ms;
        self
    }

    /// Kill each connection after `n` frames.
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after = Some(n);
        self
    }

    /// Read the chaos schedule from `REPRO_CHAOS_*` environment
    /// variables; `None` (fully disarmed) unless `REPRO_CHAOS_SEED` is
    /// set. Unparsable values disarm their fault rather than erroring —
    /// chaos is a test harness, not a production control surface.
    pub fn from_env() -> Option<Self> {
        let seed = env_u64("REPRO_CHAOS_SEED")?;
        let mut cfg = ChaosConfig::seeded(seed);
        cfg.drop_per_mille = env_u64("REPRO_CHAOS_DROP").unwrap_or(0).min(1000) as u32;
        cfg.garble_per_mille = env_u64("REPRO_CHAOS_GARBLE").unwrap_or(0).min(1000) as u32;
        cfg.delay_per_mille = env_u64("REPRO_CHAOS_DELAY").unwrap_or(0).min(1000) as u32;
        cfg.delay_ms = env_u64("REPRO_CHAOS_DELAY_MS").unwrap_or(cfg.delay_ms);
        cfg.kill_after = env_u64("REPRO_CHAOS_KILL_AFTER");
        Some(cfg)
    }

    /// Does this schedule actually inject anything?
    pub fn armed(&self) -> bool {
        self.drop_per_mille > 0
            || self.garble_per_mille > 0
            || self.delay_per_mille > 0
            || self.kill_after.is_some()
    }
}

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok().and_then(|v| v.trim().parse().ok())
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
            if st.rng.chance(st.cfg.delay_per_mille) {
                std::thread::sleep(Duration::from_millis(st.cfg.delay_ms));
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
            if st.rng.chance(st.cfg.delay_per_mille) {
                std::thread::sleep(Duration::from_millis(st.cfg.delay_ms));
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

// --- worker-side crash/stall points ---------------------------------------

/// Env-armed crash/stall schedule for the worker slot loop.
#[derive(Debug, Clone, Copy)]
pub struct WorkerChaos {
    seed: u64,
    crash_per_mille: u32,
    stall_per_mille: u32,
    stall_ms: u64,
}

impl WorkerChaos {
    /// Deterministic per-slot decision stream. The process id is mixed
    /// in so a restarted worker re-rolls — otherwise a slot whose roll
    /// says "crash" would crash every replacement worker and the fleet
    /// could never finish. Byte-identity of results is independent of
    /// these rolls (seeded pure slots).
    fn roll(&self, slot_seed: u64, salt: u64) -> SimRng {
        let mut s = self.seed ^ salt;
        let a = sim_core::rng::splitmix64(&mut s);
        let mut s2 = a ^ (std::process::id() as u64) ^ slot_seed;
        SimRng::seed_from_u64(sim_core::rng::splitmix64(&mut s2))
    }

    /// Should the worker exit(3) instead of delivering this slot?
    pub fn roll_crash(&self, slot_seed: u64) -> bool {
        self.roll(slot_seed, 0xC4A5).chance(self.crash_per_mille)
    }

    /// Should the worker go silent (heartbeats included) before
    /// delivering this slot? Returns the stall duration.
    pub fn roll_stall(&self, slot_seed: u64) -> Option<Duration> {
        if self.roll(slot_seed, 0x57A1).chance(self.stall_per_mille) {
            Some(Duration::from_millis(self.stall_ms))
        } else {
            None
        }
    }
}

/// The worker-side chaos schedule, armed from the environment once per
/// process; `None` when `REPRO_CHAOS_SEED` is unset or no worker fault
/// rate is configured.
pub fn worker_chaos() -> Option<&'static WorkerChaos> {
    static CHAOS: OnceLock<Option<WorkerChaos>> = OnceLock::new();
    CHAOS
        .get_or_init(|| {
            let seed = env_u64("REPRO_CHAOS_SEED")?;
            let crash = env_u64("REPRO_CHAOS_WORKER_CRASH").unwrap_or(0).min(1000) as u32;
            let stall = env_u64("REPRO_CHAOS_WORKER_STALL").unwrap_or(0).min(1000) as u32;
            if crash == 0 && stall == 0 {
                return None;
            }
            Some(WorkerChaos {
                seed,
                crash_per_mille: crash,
                stall_per_mille: stall,
                stall_ms: env_u64("REPRO_CHAOS_WORKER_STALL_MS").unwrap_or(1500),
            })
        })
        .as_ref()
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

    #[test]
    fn env_config_arms_only_with_seed() {
        // Serialised via a lock-free convention: these env vars are not
        // used elsewhere in the test binary.
        std::env::remove_var("REPRO_CHAOS_SEED");
        assert!(ChaosConfig::from_env().is_none());
        std::env::set_var("REPRO_CHAOS_SEED", "42");
        std::env::set_var("REPRO_CHAOS_DROP", "15");
        let cfg = ChaosConfig::from_env().unwrap();
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.drop_per_mille, 15);
        assert!(cfg.armed());
        std::env::remove_var("REPRO_CHAOS_SEED");
        std::env::remove_var("REPRO_CHAOS_DROP");
    }
}
