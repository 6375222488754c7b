//! The reference engine: the original, non-incremental simulation core.
//!
//! This is the seed implementation kept as an executable specification.
//! Every enabling check rescans the transition's arcs and tree-walks its
//! guard ([`Expr::eval_bool`]); `fire_immediates` rescans every immediate
//! transition per vanishing-loop iteration; reward counters are found by a
//! linear scan per firing; the event heap uses lazy invalidation with
//! generation counters.
//!
//! It is the one semantic oracle. The production engine
//! ([`super::lowered`], behind `Simulator::run`)
//! must produce **bit-identical trajectories** (same seeds → same firing
//! counts, rewards, traces, final marking, and errors):
//! `Simulator::run_reference` exposes this path so differential tests,
//! the debug-build shadow run and benchmarks can prove and price that
//! equivalence. Keep the semantics here frozen — fix bugs in both engines
//! or not at all.

use super::engine::{SimConfig, SimOutput};
use super::rewards::RewardSpec;
use super::trace::TraceBuffer;
use crate::error::SimError;
use crate::ids::TransitionId;
use crate::marking::Marking;
use crate::net::Net;
use crate::rng::SimRng;
use crate::timing::MemoryPolicy;
use crate::token::Color;
use crate::transition::Transition;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Heap key for pending timed firings. Min-order: earliest time first; ties
/// broken by transition-definition order.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapKey {
    time: f64,
    tid: u32,
    gen: u64,
}

impl Eq for HeapKey {}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the *smallest* key on
        // top.
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.tid.cmp(&self.tid))
            .then_with(|| other.gen.cmp(&self.gen))
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Per-transition scheduling state.
#[derive(Debug, Clone, Default)]
struct SchedState {
    /// Generation counter; heap entries with a stale generation are ignored.
    gen: u64,
    /// Pending firing time, if scheduled.
    fire_at: Option<f64>,
    /// Frozen remaining delay (RaceAge policy only).
    remaining: Option<f64>,
}

/// Per-reward accumulator.
#[derive(Debug, Clone)]
enum RewardAcc {
    /// Integral of token count over observed time.
    PlaceTokens {
        place: crate::ids::PlaceId,
        integral: f64,
    },
    /// Integral of the indicator over observed time.
    Predicate {
        expr: crate::expr::Expr,
        integral: f64,
    },
    /// Post-warmup firing counter, reported as rate.
    Throughput { tid: TransitionId, count: u64 },
    /// Post-warmup firing counter, reported raw.
    FiringCount { tid: TransitionId, count: u64 },
}

pub(crate) struct ReferenceEngine<'a> {
    net: &'a Net,
    cfg: &'a SimConfig,
    /// `cfg.max_tokens_per_place` clamped below the u32 count ceiling
    /// (shared with the lowered engine so both fail identically).
    max_tokens: usize,
    rng: SimRng,
    now: f64,
    marking: Marking,
    heap: BinaryHeap<HeapKey>,
    sched: Vec<SchedState>,
    firing_counts: Vec<u64>,
    accs: Vec<RewardAcc>,
    /// Cached ids of immediate transitions (checked every vanishing loop).
    immediates: Vec<TransitionId>,
    /// Cached ids of timed transitions with the Resample policy (re-checked
    /// after every firing regardless of adjacency).
    resamplers: Vec<TransitionId>,
    /// Scratch: colors consumed by the current firing, grouped by arc.
    consumed: Vec<Color>,
    consumed_offsets: Vec<usize>,
    /// Scratch: transitions to re-check after a firing.
    recheck: Vec<TransitionId>,
    recheck_flag: Vec<bool>,
    trace: TraceBuffer,
    zero_time_firings: u64,
}

impl<'a> ReferenceEngine<'a> {
    pub(crate) fn new(net: &'a Net, cfg: &'a SimConfig, rewards: &[RewardSpec], seed: u64) -> Self {
        let nt = net.num_transitions();
        let accs = rewards
            .iter()
            .map(|spec| match spec {
                RewardSpec::PlaceTokens(p) => RewardAcc::PlaceTokens {
                    place: *p,
                    integral: 0.0,
                },
                RewardSpec::Predicate(e) => RewardAcc::Predicate {
                    expr: e.clone(),
                    integral: 0.0,
                },
                RewardSpec::Throughput(t) => RewardAcc::Throughput { tid: *t, count: 0 },
                RewardSpec::FiringCount(t) => RewardAcc::FiringCount { tid: *t, count: 0 },
            })
            .collect();
        let immediates = net
            .transition_ids()
            .filter(|t| net.transition(*t).timing.is_immediate())
            .collect();
        let resamplers = net
            .transition_ids()
            .filter(|t| {
                let tr = net.transition(*t);
                !tr.timing.is_immediate() && tr.memory == MemoryPolicy::Resample
            })
            .collect();
        ReferenceEngine {
            net,
            cfg,
            max_tokens: super::engine::effective_token_limit(cfg),
            rng: SimRng::seed_from_u64(seed),
            now: 0.0,
            marking: net.initial_marking(),
            heap: BinaryHeap::with_capacity(nt * 2),
            sched: vec![SchedState::default(); nt],
            firing_counts: vec![0; nt],
            accs,
            immediates,
            resamplers,
            consumed: Vec::with_capacity(8),
            consumed_offsets: Vec::with_capacity(8),
            recheck: Vec::with_capacity(nt),
            recheck_flag: vec![false; nt],
            trace: TraceBuffer::new(cfg.trace_capacity),
            zero_time_firings: 0,
        }
    }

    // ---- enabling ----

    #[inline]
    fn is_enabled(&self, t: &Transition) -> bool {
        for arc in &t.inputs {
            if self.marking.count_matching(arc.place, &arc.filter) < arc.multiplicity as usize {
                return false;
            }
        }
        for inh in &t.inhibitors {
            if self.marking.count_matching(inh.place, &inh.filter) >= inh.threshold as usize {
                return false;
            }
        }
        if let Some(g) = &t.guard {
            if !g.eval_bool(&self.marking) {
                return false;
            }
        }
        true
    }

    // ---- scheduling ----

    fn schedule(&mut self, tid: TransitionId, fire_at: f64) {
        let s = &mut self.sched[tid.index()];
        s.gen += 1;
        s.fire_at = Some(fire_at);
        self.heap.push(HeapKey {
            time: fire_at,
            tid: tid.0,
            gen: s.gen,
        });
    }

    fn cancel(&mut self, tid: TransitionId) -> Option<f64> {
        let s = &mut self.sched[tid.index()];
        let fire_at = s.fire_at.take();
        if fire_at.is_some() {
            s.gen += 1; // invalidate the heap entry lazily
        }
        fire_at
    }

    /// Bring one timed transition's schedule in line with its enabling
    /// status.
    fn recheck_timed(&mut self, tid: TransitionId) {
        let net = self.net;
        let t = net.transition(tid);
        debug_assert!(!t.timing.is_immediate());
        let enabled = self.is_enabled(t);
        let scheduled = self.sched[tid.index()].fire_at.is_some();
        match (enabled, scheduled) {
            (true, false) => {
                let delay = match t.memory {
                    MemoryPolicy::RaceAge => self.sched[tid.index()]
                        .remaining
                        .take()
                        .unwrap_or_else(|| t.timing.sample_delay(&mut self.rng)),
                    _ => t.timing.sample_delay(&mut self.rng),
                };
                self.schedule(tid, self.now + delay);
            }
            (true, true) => {
                if t.memory == MemoryPolicy::Resample {
                    self.cancel(tid);
                    let delay = t.timing.sample_delay(&mut self.rng);
                    self.schedule(tid, self.now + delay);
                }
                // RaceEnable / RaceAge: clock keeps running.
            }
            (false, true) => {
                let fire_at = self.cancel(tid).expect("scheduled implies fire_at");
                if t.memory == MemoryPolicy::RaceAge {
                    self.sched[tid.index()].remaining = Some((fire_at - self.now).max(0.0));
                }
            }
            (false, false) => {}
        }
    }

    /// Mark a transition for re-check (deduplicated).
    #[inline]
    fn mark_recheck(&mut self, tid: TransitionId) {
        if !self.recheck_flag[tid.index()] {
            self.recheck_flag[tid.index()] = true;
            self.recheck.push(tid);
        }
    }

    /// Re-check every timed transition whose enabling may have changed after
    /// `fired` consumed/produced tokens.
    fn update_schedules_after(&mut self, fired: TransitionId) {
        self.recheck.clear();
        let net = self.net;
        let t = net.transition(fired);
        // Collect affected transitions from the dependency index.
        for arc_place in t
            .inputs
            .iter()
            .map(|a| a.place)
            .chain(t.outputs.iter().map(|a| a.place))
        {
            for &tid in net.affected_by(arc_place) {
                self.mark_recheck(tid);
            }
        }
        // The fired transition's own clock was consumed by firing.
        self.mark_recheck(fired);
        // Resample-policy transitions re-sample on *every* marking change.
        for i in 0..self.resamplers.len() {
            let tid = self.resamplers[i];
            self.mark_recheck(tid);
        }

        for i in 0..self.recheck.len() {
            let tid = self.recheck[i];
            self.recheck_flag[tid.index()] = false;
            if !net.transition(tid).timing.is_immediate() {
                self.recheck_timed(tid);
            }
        }
        self.recheck.clear();
    }

    // ---- firing ----

    fn fire(&mut self, tid: TransitionId) -> Result<(), SimError> {
        let net = self.net;
        let t: &Transition = &net.transitions()[tid.index()];
        self.consumed.clear();
        self.consumed_offsets.clear();
        for arc in &t.inputs {
            self.consumed_offsets.push(self.consumed.len());
            for _ in 0..arc.multiplicity {
                let c = self
                    .marking
                    .withdraw(arc.place, &arc.filter)
                    .expect("transition fired while not enabled");
                self.consumed.push(c);
            }
        }
        for arc in &t.outputs {
            for _ in 0..arc.multiplicity {
                let c = arc
                    .color
                    .eval(&self.consumed, &self.consumed_offsets, &mut self.rng);
                self.marking.deposit(arc.place, c);
            }
            if self.marking.count(arc.place) > self.max_tokens {
                return Err(SimError::TokenOverflow {
                    place: arc.place.index(),
                    time: self.now,
                    limit: self.cfg.max_tokens_per_place,
                });
            }
        }
        self.firing_counts[tid.index()] += 1;
        if self.cfg.trace_capacity > 0 {
            self.trace.record(self.now, tid);
        }
        if self.now >= self.cfg.warmup {
            for acc in &mut self.accs {
                match acc {
                    RewardAcc::Throughput { tid: rt, count } if *rt == tid => *count += 1,
                    RewardAcc::FiringCount { tid: rt, count } if *rt == tid => *count += 1,
                    _ => {}
                }
            }
        }
        Ok(())
    }

    /// Fire enabled immediates (highest priority first, weighted conflicts)
    /// until none remain enabled.
    fn fire_immediates(&mut self) -> Result<(), SimError> {
        // Scratch buffers reused across iterations.
        let mut candidates: Vec<TransitionId> = Vec::new();
        let mut weights: Vec<f64> = Vec::new();
        loop {
            let mut best_pri: Option<u8> = None;
            candidates.clear();
            for &tid in &self.immediates {
                let t = self.net.transition(tid);
                let pri = t.timing.priority().expect("immediate");
                // Skip transitions that cannot beat the current best.
                if let Some(bp) = best_pri {
                    if pri < bp {
                        continue;
                    }
                }
                if self.is_enabled(t) {
                    match best_pri {
                        Some(bp) if pri > bp => {
                            best_pri = Some(pri);
                            candidates.clear();
                            candidates.push(tid);
                        }
                        Some(_) => candidates.push(tid),
                        None => {
                            best_pri = Some(pri);
                            candidates.push(tid);
                        }
                    }
                }
            }
            let Some(_) = best_pri else { break };
            let chosen = if candidates.len() == 1 {
                candidates[0]
            } else {
                weights.clear();
                weights.extend(
                    candidates
                        .iter()
                        .map(|&c| self.net.transition(c).timing.weight().expect("immediate")),
                );
                candidates[self.rng.weighted_choice(&weights)]
            };
            self.fire(chosen)?;
            self.update_schedules_after(chosen);
            self.bump_zero_time_counter()?;
        }
        Ok(())
    }

    #[inline]
    fn bump_zero_time_counter(&mut self) -> Result<(), SimError> {
        self.zero_time_firings += 1;
        if self.zero_time_firings > self.cfg.max_zero_time_firings {
            return Err(SimError::ImmediateLivelock {
                time: self.now,
                limit: self.cfg.max_zero_time_firings,
            });
        }
        Ok(())
    }

    // ---- reward integration ----

    /// Integrate rewards over `[self.now, until)`, clipping to the warm-up
    /// boundary.
    fn integrate_rewards(&mut self, until: f64) {
        let from = self.now.max(self.cfg.warmup);
        let dt = until - from;
        if dt <= 0.0 {
            return;
        }
        for acc in &mut self.accs {
            match acc {
                RewardAcc::PlaceTokens { place, integral } => {
                    *integral += self.marking.count(*place) as f64 * dt;
                }
                RewardAcc::Predicate { expr, integral } => {
                    if expr.eval_bool(&self.marking) {
                        *integral += dt;
                    }
                }
                RewardAcc::Throughput { .. } | RewardAcc::FiringCount { .. } => {}
            }
        }
    }

    // ---- main loop ----

    pub(crate) fn run(mut self) -> Result<SimOutput, SimError> {
        // Initial scheduling pass over all transitions.
        for tid in self.net.transition_ids() {
            if !self.net.transition(tid).timing.is_immediate() {
                self.recheck_timed(tid);
            }
        }
        self.fire_immediates()?;

        loop {
            // Find the next valid timed event.
            let next = loop {
                match self.heap.peek() {
                    None => break None,
                    Some(key) => {
                        let s = &self.sched[key.tid as usize];
                        let valid = s.gen == key.gen && s.fire_at == Some(key.time);
                        if valid {
                            break Some(*key);
                        }
                        self.heap.pop();
                    }
                }
            };

            match next {
                Some(key) if key.time < self.cfg.end_time => {
                    self.heap.pop();
                    let tid = TransitionId(key.tid);
                    self.integrate_rewards(key.time);
                    if key.time > self.now {
                        self.zero_time_firings = 0;
                    }
                    self.now = key.time;
                    // Consume the schedule entry.
                    self.sched[tid.index()].fire_at = None;
                    self.sched[tid.index()].gen += 1;
                    self.fire(tid)?;
                    self.bump_zero_time_counter()?;
                    self.update_schedules_after(tid);
                    self.fire_immediates()?;
                }
                _ => {
                    // No more events before the horizon: integrate the tail
                    // and stop.
                    self.integrate_rewards(self.cfg.end_time);
                    self.now = self.cfg.end_time;
                    break;
                }
            }
        }

        let observed = (self.cfg.end_time - self.cfg.warmup).max(0.0);
        let rewards = self
            .accs
            .iter()
            .map(|acc| match acc {
                RewardAcc::PlaceTokens { integral, .. } => {
                    if observed > 0.0 {
                        integral / observed
                    } else {
                        0.0
                    }
                }
                RewardAcc::Predicate { integral, .. } => {
                    if observed > 0.0 {
                        integral / observed
                    } else {
                        0.0
                    }
                }
                RewardAcc::Throughput { count, .. } => {
                    if observed > 0.0 {
                        *count as f64 / observed
                    } else {
                        0.0
                    }
                }
                RewardAcc::FiringCount { count, .. } => *count as f64,
            })
            .collect();

        Ok(SimOutput {
            end_time: self.cfg.end_time,
            observed_time: observed,
            rewards,
            firing_counts: self.firing_counts,
            final_marking: self.marking,
            trace_dropped: self.trace.dropped,
            trace: self.trace.into_events(),
        })
    }
}
