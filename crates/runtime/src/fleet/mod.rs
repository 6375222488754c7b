//! The supervised execution fleet: the worker backend, its warm link
//! pool, a unified fault policy, and a deterministic chaos harness.
//!
//! * [`backend`] — [`WorkerBackend`](backend::WorkerBackend), the one
//!   backend for worker subprocesses and remote TCP peers: a work queue of
//!   manifest chunks drained by one thread per link, with broken links'
//!   remainders re-queued for the survivors. A small
//!   [`Connector`](backend::Connector) is all that differs per tier.
//! * [`pool`] — a process-global [`WorkerPool`](pool::WorkerPool) that
//!   keeps links warm across dispatches on one shelf per endpoint
//!   (checkout/checkin, health probes on checkout, max-dispatch
//!   recycling), so a flood of small service jobs reuses one fleet
//!   instead of respawning it per job.
//! * [`FaultPolicy`] + [`supervisor`] — one configurable retry budget /
//!   IO timeout / exponential-backoff-with-jitter policy shared by every
//!   tier, plus a quarantine table for repeat offenders and the opt-in
//!   shrink-to-zero fallback that degrades to in-process execution
//!   (loudly, and counted in [`FleetStats`]) instead of failing.
//! * [`chaos`] — a seeded [`FaultInjector`](chaos::FaultInjector) that
//!   wraps any [`FrameTransport`](crate::remote::transport::FrameTransport)
//!   and drops/delays/garbles frames deterministically, plus env-armable
//!   crash/stall points in the worker slot loop. The chaos test suite
//!   uses it to prove byte-identical gathers under every failure mode.
//!
//! Determinism note: replication slots are seeded pure functions, so
//! *which* worker runs a slot (or how many times it is retried) can never
//! change the bytes it produces. The fleet layer therefore only has to
//! preserve the existing gather-order invariants (results land by flat
//! index; the lowest-flat-index error wins) to keep every recovery path
//! bit-identical to a fault-free run.

pub mod backend;
pub mod chaos;
pub mod pool;
pub mod supervisor;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Duration;

/// Seed for the deterministic backoff jitter.
const BACKOFF_SEED: u64 = 0x5EED_F1EE7;

/// Unified fault-handling policy shared by every execution tier.
///
/// Backoff between retries is exponential with deterministic jitter drawn
/// from a core [`SimRng`](sim_core::SimRng) seeded by `BACKOFF_SEED`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPolicy {
    /// Read/write timeout on TCP links; `None` disables timeouts (pipe
    /// links have no timeout either way — worker death is detected as
    /// EOF).
    pub io_timeout: Option<Duration>,
    /// How many times a failed dispatch (worker crash, dead peer,
    /// unspawnable subprocess) is retried before giving up.
    pub retry_budget: usize,
    /// First backoff delay; doubles per attempt.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// When the fleet shrinks to zero (every retry exhausted, every
    /// peer quarantined), run the undelivered slots in-process instead
    /// of failing the job. Off by default: tests and callers that want
    /// failures surfaced as errors keep them; chaos runs and hardened
    /// daemons opt in.
    pub fallback: bool,
}

impl Default for FaultPolicy {
    fn default() -> Self {
        FaultPolicy {
            io_timeout: Some(Duration::from_secs(15)),
            retry_budget: 2,
            backoff_base: Duration::from_millis(100),
            backoff_cap: Duration::from_secs(5),
            fallback: false,
        }
    }
}

impl FaultPolicy {
    /// Replace the retry budget.
    pub fn with_retry_budget(mut self, budget: usize) -> Self {
        self.retry_budget = budget;
        self
    }

    /// Replace the IO timeout (`None` disables).
    pub fn with_io_timeout(mut self, t: Option<Duration>) -> Self {
        self.io_timeout = t;
        self
    }

    /// Opt in or out of the shrink-to-zero in-process fallback.
    pub fn with_fallback(mut self, on: bool) -> Self {
        self.fallback = on;
        self
    }

    /// Replace the backoff window.
    pub fn with_backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff_base = base;
        self.backoff_cap = cap;
        self
    }

    /// Deterministic backoff delay before retry `attempt` (0-based) of
    /// the work unit identified by `salt`: exponential growth capped at
    /// [`backoff_cap`](Self::backoff_cap), with seeded jitter in the
    /// upper half of the window so concurrent retries de-correlate
    /// without a wall-clock or OS entropy source.
    pub fn backoff_delay(&self, attempt: usize, salt: u64) -> Duration {
        let base = self.backoff_base.as_millis() as u64;
        let cap = self.backoff_cap.as_millis() as u64;
        let exp = base
            .saturating_mul(1u64.checked_shl(attempt.min(32) as u32).unwrap_or(u64::MAX))
            .min(cap.max(1));
        let mut rng = sim_core::SimRng::seed_from_u64(
            BACKOFF_SEED ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ attempt as u64,
        );
        let jitter = rng.next_below(exp / 2 + 1);
        let delay = Duration::from_millis(exp / 2 + jitter);
        // Every retry tier (sharded, remote) sleeps exactly what this
        // returns, so one recording site covers them all.
        sim_core::obs::obs().record_duration(sim_core::obs::Metric::FleetBackoffWait, delay);
        delay
    }
}

/// The fleet's deterministic RNG for backoff jitter and chaos-fault
/// scheduling: the core generator, under the name the frozen benchmark
/// imports.
pub use sim_core::rng::SimRng as FleetRng;

// --- process-global degradation counters ----------------------------------

/// Process-global fleet health counters, surfaced through the service
/// `stats` verb so degradation is loud rather than silent.
#[derive(Debug, Default)]
pub struct FleetStats {
    /// Worker subprocesses spawned (cold starts).
    pub spawned: AtomicU64,
    /// Dispatches served by a pooled (warm) worker or peer connection.
    pub pool_hits: AtomicU64,
    /// Workers restarted after a crash / broken pipe.
    pub restarts: AtomicU64,
    /// Remote peers reconnected after a dead connection.
    pub reconnects: AtomicU64,
    /// Offenders placed in quarantine after repeated failures.
    pub quarantined: AtomicU64,
    /// Jobs (or job remainders) that degraded to in-process execution
    /// because the fleet shrank to zero.
    pub fallbacks: AtomicU64,
    /// Pooled members retired by the max-dispatch / idle-age recycling
    /// policy.
    pub recycled: AtomicU64,
}

/// Plain-value snapshot of [`FleetStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetSnapshot {
    /// See [`FleetStats::spawned`].
    pub spawned: u64,
    /// See [`FleetStats::pool_hits`].
    pub pool_hits: u64,
    /// See [`FleetStats::restarts`].
    pub restarts: u64,
    /// See [`FleetStats::reconnects`].
    pub reconnects: u64,
    /// See [`FleetStats::quarantined`].
    pub quarantined: u64,
    /// See [`FleetStats::fallbacks`].
    pub fallbacks: u64,
    /// See [`FleetStats::recycled`].
    pub recycled: u64,
}

impl FleetSnapshot {
    /// Every counter as `(name, value)`, in declaration order — the one
    /// source the gateway's `/metrics` extras and the bench's per-phase
    /// delta reports both render from.
    pub fn fields(&self) -> [(&'static str, u64); 7] {
        [
            ("spawned", self.spawned),
            ("pool_hits", self.pool_hits),
            ("restarts", self.restarts),
            ("reconnects", self.reconnects),
            ("quarantined", self.quarantined),
            ("fallbacks", self.fallbacks),
            ("recycled", self.recycled),
        ]
    }

    /// Counter movement since `baseline` (saturating): the fleet counters
    /// are process-global and never reset, so phase-scoped reporting —
    /// e.g. each `service_ab` phase — subtracts a snapshot taken at the
    /// phase boundary instead of reading absolutes.
    pub fn delta_since(&self, baseline: &FleetSnapshot) -> FleetSnapshot {
        FleetSnapshot {
            spawned: self.spawned.saturating_sub(baseline.spawned),
            pool_hits: self.pool_hits.saturating_sub(baseline.pool_hits),
            restarts: self.restarts.saturating_sub(baseline.restarts),
            reconnects: self.reconnects.saturating_sub(baseline.reconnects),
            quarantined: self.quarantined.saturating_sub(baseline.quarantined),
            fallbacks: self.fallbacks.saturating_sub(baseline.fallbacks),
            recycled: self.recycled.saturating_sub(baseline.recycled),
        }
    }
}

impl FleetStats {
    /// Atomically read every counter.
    pub fn snapshot(&self) -> FleetSnapshot {
        FleetSnapshot {
            spawned: self.spawned.load(Ordering::Relaxed),
            pool_hits: self.pool_hits.load(Ordering::Relaxed),
            restarts: self.restarts.load(Ordering::Relaxed),
            reconnects: self.reconnects.load(Ordering::Relaxed),
            quarantined: self.quarantined.load(Ordering::Relaxed),
            fallbacks: self.fallbacks.load(Ordering::Relaxed),
            recycled: self.recycled.load(Ordering::Relaxed),
        }
    }

    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// The process-global fleet counters.
pub fn fleet_stats() -> &'static FleetStats {
    static STATS: OnceLock<FleetStats> = OnceLock::new();
    STATS.get_or_init(FleetStats::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_capped_and_grows() {
        let p = FaultPolicy::default();
        let a = p.backoff_delay(0, 7);
        let b = p.backoff_delay(0, 7);
        assert_eq!(a, b, "same (seed, salt, attempt) must give same delay");
        assert_ne!(
            p.backoff_delay(0, 7),
            p.backoff_delay(0, 8),
            "different salts must de-correlate"
        );
        // Exponential window: attempt n delay lies in [2^n*base/2, 2^n*base].
        for attempt in 0..4 {
            let d = p.backoff_delay(attempt, 1).as_millis() as u64;
            let window = 100u64 << attempt;
            assert!(d >= window / 2 && d <= window, "attempt {attempt}: {d}ms");
        }
        // Capped far beyond the doubling range.
        assert!(p.backoff_delay(40, 1) <= p.backoff_cap);
    }

    #[test]
    fn fleet_rng_is_reproducible() {
        let mut a = FleetRng::seed_from_u64(42);
        let mut b = FleetRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = FleetRng::seed_from_u64(43);
        assert_ne!(a.next_u64(), c.next_u64());
        // chance(0) never fires; chance(1000) always fires.
        assert!(!a.chance(0));
        assert!(a.chance(1000));
    }

    /// Backoff jitter and chaos schedules draw from `FleetRng`; these
    /// streams were captured from the fleet's own xoshiro256++ before it
    /// became the core generator, so a change to either shows up here.
    #[test]
    fn fleet_rng_streams_are_pinned() {
        type Pinned = ([u64; 16], [u64; 16], [bool; 16]);
        let (f, t) = (false, true);
        let pinned: [(u64, Pinned); 2] = [
            (
                0,
                (
                    [
                        0x53175d61490b23df,
                        0x61da6f3dc380d507,
                        0x5c0fdf91ec9a7bfc,
                        0x02eebf8c3bbe5e1a,
                        0x7eca04ebaf4a5eea,
                        0x0543c37757f08d9a,
                        0xdb7490c75ab5026e,
                        0xd87343e6464bc959,
                        0x4b7da0a02389f0ff,
                        0x1300fc58c0424c16,
                        0x5084843206c19968,
                        0x10ea073de9aa4dfc,
                        0x1aae554343960cc1,
                        0x1804139f10fae720,
                        0x10d790e7b8ac10fa,
                        0x667d2bffdd1496f7,
                    ],
                    [
                        503, 255, 180, 330, 874, 858, 806, 553, 407, 710, 720, 380, 409, 520, 418,
                        423,
                    ],
                    [f, f, t, f, f, f, f, f, f, f, f, f, f, f, f, f],
                ),
            ),
            (
                BACKOFF_SEED,
                (
                    [
                        0x2254e8f35aaa1d68,
                        0x48791a0a024a5ee0,
                        0x20ae71a0077e4208,
                        0x781a0aa69b68a9f2,
                        0x8a6bfb84f25af146,
                        0xa25a18d83bdabc40,
                        0x4a9a8e825ed89033,
                        0x5a09cd373ed706e9,
                        0x9cd839568321758a,
                        0xec43b0ee91f8bcc9,
                        0xb64c02276ac58dd3,
                        0xdb887195dbced28c,
                        0x4430629436462709,
                        0x08b48f51560065d5,
                        0xdb1e188127978102,
                        0x37a224d5bc4f3b2b,
                    ],
                    [
                        976, 288, 96, 2, 486, 16, 955, 905, 474, 449, 99, 612, 169, 157, 858, 835,
                    ],
                    [f, f, t, t, f, t, f, f, f, f, t, f, t, t, f, f],
                ),
            ),
        ];
        for (seed, (raw, below, chance)) in pinned {
            let mut rng = FleetRng::seed_from_u64(seed);
            assert_eq!(raw.map(|_| rng.next_u64()), raw, "next_u64, seed {seed:#x}");
            let mut rng = FleetRng::seed_from_u64(seed);
            assert_eq!(
                below.map(|_| rng.next_below(1000)),
                below,
                "next_below, seed {seed:#x}"
            );
            let mut rng = FleetRng::seed_from_u64(seed);
            assert_eq!(
                chance.map(|_| rng.chance(250)),
                chance,
                "chance, seed {seed:#x}"
            );
        }
    }

    #[test]
    fn policy_builders_compose() {
        let p = FaultPolicy::default()
            .with_retry_budget(5)
            .with_io_timeout(None)
            .with_fallback(true)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(8));
        assert_eq!(p.retry_budget, 5);
        assert_eq!(p.io_timeout, None);
        assert!(p.fallback);
        assert!(p.backoff_delay(20, 0) <= Duration::from_millis(8));
    }
}
