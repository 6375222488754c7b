//! The [`Simulator`]: configuration, rewards, and the run entry points.
//!
//! A `Simulator` holds a net (borrowed, or shared through an `Arc` so the
//! simulator can be kept), its [`SimConfig`] and its reward set. On the
//! first run it lowers them, in one pass ([`super::lower`]), to a
//! `LoweredNet`: the micro-op program, the side tables its slow paths
//! read, and the start state every run clones. That program is shared by
//! every later run until a reward is added. The step memo's records
//! ([`super::memo`]) are kept per program shape in the simulator's
//! [`MemoRecords`], which [`Simulator::share_memo`] can share with other
//! simulators: each run starts from the record its shape's earlier runs
//! left, and a run that kept its memo offers back what it added.
//! [`Simulator::run`] is the one entry point: each call builds one
//! `LoweredEngine` ([`super::lowered`]) and runs one replication on it.
//!
//! The seed's non-incremental engine is preserved in [`super::reference`]
//! as the executable specification; [`Simulator::run_reference`] runs it.
//! Both engines consume the RNG in exactly the same order, so trajectories
//! are **bit-identical** — the differential suites prove it per commit,
//! and debug builds shadow the first run of every simulator with it.

use super::lower::LoweredNet;
use super::memo::MemoRecords;
use super::rewards::{RewardId, RewardSpec, RewardSpecError};
use super::trace::TraceEvent;
use crate::error::SimError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::Net;
use std::sync::{Arc, OnceLock};

/// Run-independent simulation configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulated time horizon (seconds).
    pub end_time: f64,
    /// Rewards are only accumulated after this much simulated time
    /// (steady-state warm-up deletion). Default 0.
    pub warmup: f64,
    /// Abort with [`SimError::ImmediateLivelock`] after this many firings
    /// without time advancing. Default 100 000.
    pub max_zero_time_firings: u64,
    /// Abort with [`SimError::TokenOverflow`] if any place exceeds this
    /// token count. Default 1 000 000.
    pub max_tokens_per_place: usize,
    /// Record up to this many firings in the output trace. Default 0 (off).
    pub trace_capacity: usize,
}

impl SimConfig {
    /// Config with the given horizon and library defaults for everything
    /// else.
    pub fn for_horizon(end_time: f64) -> Self {
        SimConfig {
            end_time,
            warmup: 0.0,
            max_zero_time_firings: 100_000,
            max_tokens_per_place: 1_000_000,
            trace_capacity: 0,
        }
    }

    /// Builder-style: set the warm-up window.
    pub fn with_warmup(mut self, warmup: f64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Builder-style: enable trace recording.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }
}

/// Token limit actually enforced by the engines: place counts are stored
/// as `u32` (saturating), so limits at or above `u32::MAX` are clamped to
/// keep the overflow guard effective.
pub(crate) fn effective_token_limit(cfg: &SimConfig) -> usize {
    cfg.max_tokens_per_place.min(u32::MAX as usize - 1)
}

/// Results of one simulation run.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// The configured horizon actually simulated.
    pub end_time: f64,
    /// `end_time - warmup`: the window over which rewards were measured.
    pub observed_time: f64,
    /// One value per configured reward, in [`RewardId`] order.
    pub rewards: Vec<f64>,
    /// Total firings per transition over the whole run (including warm-up).
    pub firing_counts: Vec<u64>,
    /// Marking at the end of the run.
    pub final_marking: Marking,
    /// Recorded firings (empty unless `trace_capacity > 0`).
    pub trace: Vec<TraceEvent>,
    /// Firings not recorded because the trace buffer filled up.
    pub trace_dropped: u64,
}

impl SimOutput {
    /// Value of a configured reward.
    #[inline]
    pub fn reward(&self, id: RewardId) -> f64 {
        self.rewards[id.index()]
    }

    /// Total number of firings across all transitions.
    pub fn total_firings(&self) -> u64 {
        self.firing_counts.iter().sum()
    }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// The net a simulator runs: borrowed from the caller, or shared.
#[derive(Debug, Clone)]
enum NetRef<'a> {
    Borrowed(&'a Net),
    Shared(Arc<Net>),
}

impl std::ops::Deref for NetRef<'_> {
    type Target = Net;

    fn deref(&self) -> &Net {
        match self {
            NetRef::Borrowed(net) => net,
            NetRef::Shared(net) => net,
        }
    }
}

/// A configured, reusable simulator for one net.
///
/// The lowered program (net × rewards × config) is built once, on the
/// first run, and immutable afterwards; the step memo's records grow as
/// runs offer what they added. [`Simulator::run`] takes `&self`, so
/// independent replications can run concurrently on multiple threads, and
/// no output depends on which runs came before.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    net: NetRef<'a>,
    pub(super) cfg: SimConfig,
    pub(super) rewards: Vec<RewardSpec>,
    /// Lazily-built lowered program, shared by every run. Invalidated when
    /// a reward is added.
    pub(super) lowered: OnceLock<LoweredNet>,
    /// The step memo's records, one per program shape, shared by every
    /// run and by the simulators handed the same handle.
    pub(super) record: MemoRecords,
    /// Debug builds check the first run per simulator against the
    /// reference engine and its start state against a rescan (cheap,
    /// once-per-net oracles on top of the differential suites).
    #[allow(dead_code)]
    pub(super) shadow_once: OnceLock<()>,
}

impl Simulator<'static> {
    /// Create a simulator that holds its own share of `net`, so it can be
    /// kept beyond any borrow (a warm simulator reused across calls).
    pub fn shared(net: Arc<Net>, cfg: SimConfig) -> Self {
        Self::with_net(NetRef::Shared(net), cfg)
    }
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `net` with the given configuration.
    pub fn new(net: &'a Net, cfg: SimConfig) -> Self {
        Self::with_net(NetRef::Borrowed(net), cfg)
    }

    fn with_net(net: NetRef<'a>, cfg: SimConfig) -> Self {
        Simulator {
            net,
            cfg,
            rewards: Vec::new(),
            lowered: OnceLock::new(),
            record: MemoRecords::new(),
            shadow_once: OnceLock::new(),
        }
    }

    /// The lowered program for this simulator, building it on first use.
    pub(super) fn lowered_net(&self) -> &LoweredNet {
        self.lowered
            .get_or_init(|| LoweredNet::build(&self.net, &self.rewards, &self.cfg))
    }

    /// Register a reward measure; the returned id indexes
    /// [`SimOutput::rewards`].
    pub fn reward(&mut self, spec: RewardSpec) -> Result<RewardId, RewardSpecError> {
        spec.validate(&self.net)?;
        let id = RewardId(self.rewards.len());
        self.rewards.push(spec);
        // The lowered program bakes the reward set in: rebuild it on the
        // next run. Its shape changes with it, so that run starts from the
        // new shape's record.
        self.lowered.take();
        Ok(id)
    }

    /// Share the step memo's records with every simulator handed
    /// `records`: a run then starts from the record that runs of any of
    /// them left for a program of its shape (the same net structure,
    /// rewards and token bound, whatever its rates, delays and uniform
    /// bounds), and offers back what it added. Records hold only what the
    /// marking determines, so sharing changes no output, only how many
    /// steps each run interprets.
    pub fn share_memo(&mut self, records: &MemoRecords) {
        self.record = records.clone();
    }

    /// Convenience: time-average token count of a place.
    pub fn reward_place(&mut self, p: PlaceId) -> RewardId {
        self.reward(RewardSpec::PlaceTokens(p))
            .expect("place id from the same net")
    }

    /// Convenience: fraction of time a predicate holds.
    pub fn reward_predicate(&mut self, e: crate::expr::Expr) -> Result<RewardId, RewardSpecError> {
        self.reward(RewardSpec::Predicate(e))
    }

    /// Convenience: firing count of a transition.
    pub fn reward_firings(&mut self, t: TransitionId) -> RewardId {
        self.reward(RewardSpec::FiringCount(t))
            .expect("transition id from the same net")
    }

    /// The net this simulator runs.
    pub fn net(&self) -> &Net {
        &self.net
    }

    /// Number of configured rewards.
    pub fn reward_count(&self) -> usize {
        self.rewards.len()
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Execute one independent run with the given seed on the lowered
    /// engine, starting from the memo record the earlier runs of its
    /// program's shape left.
    ///
    /// This is the one site that records engine metrics: each successful
    /// run's event count goes into `engine_run_events` (whose count and
    /// sum are the run and event totals), after the run so it never
    /// touches seeding or results.
    pub fn run(&self, seed: u64) -> Result<SimOutput, SimError> {
        #[cfg(debug_assertions)]
        let first = self.shadow_once.set(()).is_ok();
        #[cfg(debug_assertions)]
        if first {
            super::lowered::debug_assert_start_state(self.lowered_net(), &self.net);
        }
        let rec = self.record.get(&self.lowered_net().shape);
        let engine = super::lowered::LoweredEngine::starting_from(self, seed, rec);
        let (out, memo) = engine.run_keeping_memo();
        if let Ok(o) = &out {
            self.record.offer(memo);
            sim_core::obs::obs().record(sim_core::obs::Metric::EngineRunEvents, o.total_firings());
        }
        #[cfg(debug_assertions)]
        if first {
            super::lowered::debug_assert_outputs_eq(&out, &self.run_reference(seed));
        }
        out
    }

    /// Execute one run on the **reference engine** — the original
    /// non-incremental core kept as an executable specification (see
    /// [`super::reference`]). Same seed ⇒ bit-identical output to
    /// [`Simulator::run`]; used by differential tests and benchmarks.
    pub fn run_reference(&self, seed: u64) -> Result<SimOutput, SimError> {
        super::reference::ReferenceEngine::new(&self.net, &self.cfg, &self.rewards, seed).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::expr::Expr;
    use crate::timing::{MemoryPolicy, Timing};

    /// Single deterministic transition cycling one token: P -> T(1s) -> P.
    #[test]
    fn deterministic_clock_fires_once_per_second() {
        let mut b = NetBuilder::new("clock");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(1.0))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.5));
        let firings = sim.reward_firings(t);
        let out = sim.run(1).unwrap();
        // Fires at t = 1, 2, ..., 10.
        assert_eq!(out.reward(firings), 10.0);
    }

    /// Immediate transitions fire before any time passes.
    #[test]
    fn immediates_fire_at_time_zero() {
        let mut b = NetBuilder::new("imm");
        let a = b.place("a").tokens(3).build();
        let z = b.place("z").build();
        b.transition("move", Timing::immediate())
            .input(a, 1)
            .output(z, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(z), 3);
        assert_eq!(out.final_marking.count(a), 0);
    }

    /// Higher-priority immediates win conflicts outright.
    #[test]
    fn immediate_priority_wins() {
        let mut b = NetBuilder::new("pri");
        let a = b.place("a").tokens(1).build();
        let hi = b.place("hi").build();
        let lo = b.place("lo").build();
        b.transition("to_lo", Timing::immediate_pri(1))
            .input(a, 1)
            .output(lo, 1)
            .build();
        b.transition("to_hi", Timing::immediate_pri(2))
            .input(a, 1)
            .output(hi, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        for seed in 0..20 {
            let out = sim.run(seed).unwrap();
            assert_eq!(out.final_marking.count(hi), 1, "seed {seed}");
            assert_eq!(out.final_marking.count(lo), 0, "seed {seed}");
        }
    }

    /// Equal-priority immediates split according to weight.
    #[test]
    fn immediate_weights_split_conflicts() {
        let mut b = NetBuilder::new("weights");
        let src = b.place("src").build();
        let left = b.place("left").build();
        let right = b.place("right").build();
        // Token generator: one token per second.
        b.transition("gen", Timing::deterministic(1.0))
            .output(src, 1)
            .build();
        b.transition(
            "to_left",
            Timing::Immediate {
                priority: 1,
                weight: 1.0,
            },
        )
        .input(src, 1)
        .output(left, 1)
        .build();
        b.transition(
            "to_right",
            Timing::Immediate {
                priority: 1,
                weight: 3.0,
            },
        )
        .input(src, 1)
        .output(right, 1)
        .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(4000.0));
        let out = sim.run(99).unwrap();
        let l = out.final_marking.count(left) as f64;
        let r = out.final_marking.count(right) as f64;
        let frac = r / (l + r);
        assert!((frac - 0.75).abs() < 0.03, "frac={frac}");
    }

    /// Time-average token count of a place fed at rate 1 and drained at
    /// rate 2 matches M/M/1 with rho = 0.5: E[N] = rho/(1-rho) = 1.
    #[test]
    fn mm1_queue_length() {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(2.0))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(60_000.0).with_warmup(1000.0));
        let n = sim.reward_place(q);
        let out = sim.run(7).unwrap();
        let avg = out.reward(n);
        assert!((avg - 1.0).abs() < 0.08, "E[N]={avg}");
    }

    /// Guards gate enabling: a transition whose guard is false never fires.
    #[test]
    fn guard_blocks_firing() {
        let mut b = NetBuilder::new("guard");
        let p = b.place("p").tokens(1).build();
        let gate = b.place("gate").build(); // stays empty
        let out_p = b.place("out").build();
        let t = b
            .transition("t", Timing::deterministic(0.1))
            .input(p, 1)
            .output(out_p, 1)
            .guard(Expr::count(gate).gt_c(0))
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let f = sim.reward_firings(t);
        let out = sim.run(1).unwrap();
        assert_eq!(out.reward(f), 0.0);
        assert_eq!(out.final_marking.count(p), 1);
    }

    /// Inhibitor arcs disable while tokens are present.
    #[test]
    fn inhibitor_blocks_firing() {
        let mut b = NetBuilder::new("inh");
        let p = b.place("p").tokens(1).build();
        let blocker = b.place("blocker").tokens(1).build();
        let out_p = b.place("out").build();
        b.transition("t", Timing::deterministic(0.1))
            .input(p, 1)
            .output(out_p, 1)
            .inhibitor(blocker, 1)
            .build();
        // Drain the blocker at t = 5.
        b.transition("unblock", Timing::deterministic(5.0))
            .input(blocker, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(out_p), 1);
        // Fired only after the blocker drained (t = 5.1), not at 0.1.
    }

    /// RaceEnable: disabling a deterministic transition discards its clock.
    /// A PDT-style timer that keeps getting interrupted never fires.
    #[test]
    fn race_enable_restarts_clock() {
        let mut b = NetBuilder::new("race");
        let idle = b.place("idle").tokens(1).build();
        let buf = b.place("buf").build();
        let slept = b.place("slept").build();
        // Job arrives every 0.5 s and is served instantly.
        b.transition("arrive", Timing::deterministic(0.5))
            .output(buf, 1)
            .build();
        b.transition("serve", Timing::immediate())
            .input(buf, 1)
            .build();
        // Sleep timer: 0.8 s of continuous idleness required; the guard
        // breaks every 0.5 s when a job lands.
        b.transition("sleep", Timing::deterministic(0.8))
            .input(idle, 1)
            .output(slept, 1)
            .guard(Expr::count(buf).eq_c(0))
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let out = sim.run(1).unwrap();
        assert_eq!(
            out.final_marking.count(slept),
            0,
            "timer must restart on every interruption"
        );
    }

    /// RaceAge: the same interrupted timer accumulates age and eventually
    /// fires.
    #[test]
    fn race_age_accumulates() {
        let mut b = NetBuilder::new("age");
        let idle = b.place("idle").tokens(1).build();
        let buf = b.place("buf").build();
        let slept = b.place("slept").build();
        b.transition("arrive", Timing::deterministic(0.5))
            .output(buf, 1)
            .build();
        b.transition("serve", Timing::deterministic(0.1))
            .input(buf, 1)
            .build();
        b.transition("sleep", Timing::deterministic(0.8))
            .input(idle, 1)
            .output(slept, 1)
            .guard(Expr::count(buf).eq_c(0))
            .memory(MemoryPolicy::RaceAge)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let out = sim.run(1).unwrap();
        assert_eq!(
            out.final_marking.count(slept),
            1,
            "aged timer must eventually fire"
        );
    }

    /// Immediate livelock is detected, not spun on.
    #[test]
    fn immediate_livelock_detected() {
        let mut b = NetBuilder::new("livelock");
        let a = b.place("a").tokens(1).build();
        let z = b.place("z").build();
        b.transition("ab", Timing::immediate())
            .input(a, 1)
            .output(z, 1)
            .build();
        b.transition("ba", Timing::immediate())
            .input(z, 1)
            .output(a, 1)
            .build();
        let net = b.build().unwrap();
        let mut cfg = SimConfig::for_horizon(1.0);
        cfg.max_zero_time_firings = 1000;
        let sim = Simulator::new(&net, cfg);
        assert!(matches!(
            sim.run(1),
            Err(SimError::ImmediateLivelock { .. })
        ));
    }

    /// Unbounded generators trip the token-overflow guard instead of eating
    /// all memory.
    #[test]
    fn token_overflow_detected() {
        let mut b = NetBuilder::new("overflow");
        let q = b.place("q").build();
        b.transition("gen", Timing::deterministic(0.001))
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut cfg = SimConfig::for_horizon(1e9);
        cfg.max_tokens_per_place = 500;
        let sim = Simulator::new(&net, cfg);
        assert!(matches!(sim.run(1), Err(SimError::TokenOverflow { .. })));
    }

    /// Same seed, same trajectory; different seed, different trajectory.
    #[test]
    fn reproducibility() {
        let mut b = NetBuilder::new("repro");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.5))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0));
        let n = sim.reward_place(q);
        let a = sim.run(42).unwrap();
        let b2 = sim.run(42).unwrap();
        let c = sim.run(43).unwrap();
        assert_eq!(a.reward(n), b2.reward(n));
        assert_eq!(a.firing_counts, b2.firing_counts);
        assert_ne!(a.reward(n), c.reward(n));
    }

    /// Predicate rewards measure conjunction states.
    #[test]
    fn predicate_reward_measures_fraction() {
        let mut b = NetBuilder::new("pred");
        let p = b.place("p").tokens(1).build();
        let q = b.place("q").build();
        // Token oscillates: 1 s in p, 1 s in q.
        b.transition("pq", Timing::deterministic(1.0))
            .input(p, 1)
            .output(q, 1)
            .build();
        b.transition("qp", Timing::deterministic(1.0))
            .input(q, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(1000.0));
        let in_p = sim.reward_predicate(Expr::count(p).gt_c(0)).unwrap();
        let out = sim.run(1).unwrap();
        assert!((out.reward(in_p) - 0.5).abs() < 1e-9);
    }

    /// Warm-up deletion removes the initial transient from rewards.
    #[test]
    fn warmup_excluded_from_rewards() {
        let mut b = NetBuilder::new("warm");
        let p = b.place("p").tokens(1).build();
        let q = b.place("q").build();
        // One-shot move at t = 1: p empty afterwards.
        b.transition("move", Timing::deterministic(1.0))
            .input(p, 1)
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(11.0).with_warmup(1.0));
        let avg_p = sim.reward_place(p);
        let out = sim.run(1).unwrap();
        // After warm-up the token is always in q.
        assert_eq!(out.reward(avg_p), 0.0);
        assert_eq!(out.observed_time, 10.0);
    }

    /// Trace recording captures firings in time order.
    #[test]
    fn trace_records_firings() {
        let mut b = NetBuilder::new("trace");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(2.0))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(7.0).with_trace(10));
        let out = sim.run(1).unwrap();
        let times: Vec<f64> = out.trace.iter().map(|e| e.time).collect();
        assert_eq!(times, vec![2.0, 4.0, 6.0]);
        assert!(out.trace.iter().all(|e| e.transition == t));
    }

    /// Simultaneous deterministic firings resolve in definition order.
    #[test]
    fn simultaneous_firings_use_definition_order() {
        let mut b = NetBuilder::new("tie");
        let a = b.place("a").tokens(1).build();
        let winner = b.place("winner").build();
        let loser = b.place("loser").build();
        // Both want the single token at exactly t = 1.0.
        b.transition("first", Timing::deterministic(1.0))
            .input(a, 1)
            .output(winner, 1)
            .build();
        b.transition("second", Timing::deterministic(1.0))
            .input(a, 1)
            .output(loser, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(2.0));
        for seed in 0..10 {
            let out = sim.run(seed).unwrap();
            assert_eq!(out.final_marking.count(winner), 1, "seed {seed}");
            assert_eq!(out.final_marking.count(loser), 0, "seed {seed}");
        }
    }

    /// Colored tokens flow through Transfer output arcs unchanged.
    #[test]
    fn color_transfer_pipeline() {
        use crate::arc::ColorExpr;
        use crate::token::{Color, ColorFilter};
        let mut b = NetBuilder::new("colors");
        let src = b
            .place("src")
            .token_colored(Color(1))
            .token_colored(Color(2))
            .build();
        let fast = b.place("fast").build();
        let slow = b.place("slow").build();
        let mid = b.place("mid").build();
        // Move everything to mid, preserving colors.
        b.transition("stage", Timing::immediate())
            .input(src, 1)
            .output_colored(mid, 1, ColorExpr::Transfer { arc_index: 0 })
            .build();
        // Color-filtered consumers.
        b.transition("take1", Timing::immediate())
            .input_filtered(mid, 1, ColorFilter::Eq(Color(1)))
            .output(fast, 1)
            .build();
        b.transition("take2", Timing::immediate())
            .input_filtered(mid, 1, ColorFilter::Eq(Color(2)))
            .output(slow, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(5).unwrap();
        assert_eq!(out.final_marking.count(fast), 1);
        assert_eq!(out.final_marking.count(slow), 1);
    }

    /// Throughput reward equals firings / observed time.
    #[test]
    fn throughput_reward() {
        let mut b = NetBuilder::new("thru");
        let p = b.place("p").tokens(1).build();
        let t = b
            .transition("tick", Timing::deterministic(0.25))
            .input(p, 1)
            .output(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(100.0));
        let thru = sim.reward(RewardSpec::Throughput(t)).unwrap();
        let out = sim.run(1).unwrap();
        assert!((out.reward(thru) - 4.0).abs() < 0.05);
    }

    /// Deterministic(0) transitions advance state without advancing time and
    /// do not livelock when they terminate.
    #[test]
    fn zero_delay_deterministic_ok() {
        let mut b = NetBuilder::new("zerodelay");
        let a = b.place("a").tokens(5).build();
        let z = b.place("z").build();
        b.transition("move", Timing::deterministic(0.0))
            .input(a, 1)
            .output(z, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(1.0));
        let out = sim.run(1).unwrap();
        assert_eq!(out.final_marking.count(z), 5);
    }

    /// A filtered input arc on a provably-uncolored place folds to
    /// constant-false: the transition is structurally dead, never fires,
    /// and never panics.
    #[test]
    fn impossible_filter_on_uncolored_place_is_dead() {
        use crate::token::{Color, ColorFilter};
        let mut b = NetBuilder::new("deadfilter");
        let p = b.place("p").tokens(2).build();
        let q = b.place("q").build();
        let t = b
            .transition("never", Timing::immediate())
            .input_filtered(p, 1, ColorFilter::Eq(Color(5)))
            .output(q, 1)
            .build();
        b.transition("drain", Timing::deterministic(1.0))
            .input(p, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let f = sim.reward_firings(t);
        let out = sim.run(3).unwrap();
        assert_eq!(out.reward(f), 0.0);
        assert_eq!(out.final_marking.count(q), 0);
    }

    /// Token limits at or above the u32 count ceiling are clamped so the
    /// overflow guard stays effective (counts saturate, never wrap).
    #[test]
    fn token_limit_clamped_below_u32_ceiling() {
        let mut cfg = SimConfig::for_horizon(1.0);
        cfg.max_tokens_per_place = usize::MAX;
        assert_eq!(effective_token_limit(&cfg), u32::MAX as usize - 1);
        cfg.max_tokens_per_place = 500;
        assert_eq!(effective_token_limit(&cfg), 500);
    }

    /// Lazy heap invalidation: cancelled and rescheduled transitions
    /// never fire at their stale times, and ties at one instant resolve in
    /// definition order.
    #[test]
    fn stale_schedule_entries_are_ignored() {
        let mut b = NetBuilder::new("stale");
        let p = b.place("p").tokens(1).build();
        let gate = b.place("gate").tokens(1).build();
        let out = b.place("out").build();
        // `slow` keeps getting cancelled: `flap` empties the gate every
        // 0.3 s (disabling `slow` via its guard) and refills it instantly.
        b.transition("slow", Timing::deterministic(1.0))
            .input(p, 1)
            .output(out, 1)
            .guard(Expr::count(gate).gt_c(0))
            .build();
        let refill = b.place("refill").build();
        b.transition("flap", Timing::deterministic(0.3))
            .input(gate, 1)
            .output(refill, 1)
            .build();
        b.transition("restore", Timing::immediate())
            .input(refill, 1)
            .output(gate, 1)
            .build();
        let net = b.build().unwrap();
        let sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        let out_m = sim.run(3).unwrap();
        // RaceEnable: the 1.0 s timer restarts on every 0.3 s interruption
        // and can never elapse.
        assert_eq!(out_m.final_marking.count(out), 0);
        assert_eq!(out_m.final_marking.count(p), 1);
    }

    /// Runs of one net that stop at different horizons each match the
    /// reference engine run to the same horizon: a run retires at its own
    /// end time, mid-way between events.
    #[test]
    fn per_lane_horizons_retire_mid_batch() {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(0.9))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        for (seed, h) in [(7u64, 25.0), (8, 400.0), (9, 3.0), (10, 100.0)] {
            let mut sim = Simulator::new(&net, SimConfig::for_horizon(h));
            sim.reward_place(q);
            let out = sim.run(seed).unwrap();
            let reference = sim.run_reference(seed).unwrap();
            assert_eq!(out.rewards, reference.rewards);
            assert_eq!(out.firing_counts, reference.firing_counts);
            assert_eq!(out.final_marking, reference.final_marking);
            assert_eq!(out.observed_time, reference.observed_time);
            assert_eq!(out.observed_time, h);
        }
    }
}
