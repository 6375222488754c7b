//! Direct-threaded execution of lowered stepping programs — the production
//! engine.
//!
//! [`LoweredEngine`] runs one replication: `Simulator::run` builds one per
//! seed and advances it to its horizon in [`Hot::run_memo`], a fused loop
//! that replays the steps it has recorded and executes the net's
//! [`LoweredNet`] micro-op program for the rest ([`Hot::run`] is the same
//! loop without the memo, for a run that gave it up). The program is
//! self-contained: a run starts from a clone of its start state and reads
//! its ops, side tables and run limits, plus the [`Net`] for the generic
//! firing path and the debug oracles.
//!
//! What makes it fast:
//!
//! * **Replay, not re-interpretation.** A step — one timed firing from a
//!   tangible marking plus its immediate cascade — depends only on that
//!   marking and the fired transition, and the paper's nets visit a few
//!   dozen tangible markings over tens of thousands of firings. The
//!   [`Memo`] keys each marking exactly (counts, plus every bag in FIFO
//!   order) and, from a marking's second interpreted step on, records what
//!   each step did: the fired transitions, the counter hooks, the re-checks
//!   that acted and the next marking. The record belongs to the program's
//!   shape, so a run starts from what earlier runs of programs of that
//!   shape recorded, whatever their rates and delays. The next
//!   time a run takes a recorded step it replays the record: it bumps the
//!   step's hit count, writes the trace of a traced run, and runs the
//!   acting re-checks, each already resolved by the state byte it saw
//!   (sample Exp(rate) and schedule, schedule at a fixed delay, cancel;
//!   other re-checks run their op), reading the rate or delay from the
//!   run's own program, so clocks are drawn exactly as the interpreter
//!   would draw them. Firing counts and
//!   hooks are added as `hits × record` when the memo phase ends, or at
//!   the warm-up boundary. Token moves, condition flips, the re-check walk
//!   and the cascade are skipped; the marking and enabling state go stale
//!   and are restored from the target's snapshot only when the run next
//!   interprets. A state with a snapshot also keeps its scheduled timed
//!   transitions, and the next-event scan there reads only those clocks.
//!   Rewards integrate over the marking's memoized non-zero terms. This is
//!   vanishing-marking elimination (Ajmone Marsan, Balbo & Conte, 1984),
//!   done lazily on the states the runs visit. A first visit costs a key and
//!   a hash lookup, and a run whose states do not repeat, or a net without
//!   immediates whose steps mostly miss, gives the memo up (see
//!   [`super::memo`]).
//! * **Owned inline state.** [`Hot`] owns every per-run vector (the
//!   marking and its dense count vector included), so the hot loop reaches
//!   each one through the single `&mut self` pointer, with no second
//!   indirection and no aliasing the optimizer has to assume.
//! * **Monomorphized ops.** The per-event work is a walk over flat op
//!   words with parameters inline; distribution sampling, memory-policy
//!   handling and colored-vs-dense firing are all resolved per net, not
//!   per event (the loops are instantiated per `GEN` const parameter,
//!   selected once in [`LoweredEngine::drive_variant`], and the
//!   interpreter once more per `REC`, so recording costs nothing on steps
//!   it does not keep).
//! * **A timed-only scan.** The next event is the earliest clock among the
//!   net's timed transitions (an immediate's clock is always `+inf`),
//!   found by a scan in ascending tid order with a select-based minimum
//!   and no data-dependent branch. The paper's nets have at most 20
//!   transitions, so the clocks span a few cache lines; at a memo state
//!   the scan reads only the clocks scheduled there.
//! * **A one-candidate immediate path.** When exactly one immediate is
//!   enabled, the cascade fires it outright; the priority pass, the
//!   conflict set and the weighted RNG draw run only when two or more are
//!   enabled.
//! * **A tight reward loop.** Time-averaged place rewards integrate in one
//!   multiply-add loop over `(place, accumulator)` pairs; only predicate
//!   rewards go through the dispatched integration program. Every reward
//!   owns its accumulator, so the split keeps each sum's addition order.

//! # Determinism
//!
//! Each run owns its RNG, marking, schedule, counters and accumulators.
//! The op program replays the reference engine's exact operation
//! sequence: same RNG draw order, same comparison order, same error
//! precedence, same event order (the scan's minimum `(fire_at, tid)` over
//! the live clocks is the reference heap's next valid pop). Outputs are
//! therefore **bit-identical** to `Simulator::run_reference` —
//! `tests/lowered_differential.rs` and the CI repro byte-comparison prove
//! it, and debug builds additionally shadow the first run per simulator
//! with the reference engine, check its precomputed start state against a
//! rescan of the initial marking, and cross-check the incremental enabling
//! state against full rescans on every visited transition.
//!
//! A replayed step is bit-identical to the interpreted one
//! (`sim/tests/memo_differential.rs` covers each rule):
//!
//! * **The key is exact.** Withdrawals take the oldest matching token, so
//!   FIFO order is part of the key ([`Marking::memo_key`]), not the sorted
//!   colors of `Marking::canonical_key`.
//! * **Enabling is a function of the marking.** At a tangible marking every
//!   timed transition is scheduled exactly when it is enabled (each firing
//!   re-checks every transition that reads a place it touched), so the
//!   state bytes each re-check sees are the same on every visit. Debug
//!   builds assert it: whenever the interpreter lands on a known marking,
//!   its live enabling state must equal the snapshot.
//! * **Draws stay in order.** A replay runs the acting re-checks in their
//!   recorded order against the live clocks: a resolved one does exactly
//!   what `re_op` does for the state byte it saw, and the rest go through
//!   the interpreter's own `re_op`/`ra_op`/`rs_op` with that byte. So the
//!   RNG is drawn at the same points and a RaceAge clock's frozen
//!   remaining delay is consumed as before. A step that drew the RNG for a
//!   choice (a weighted immediate conflict, a `ColorExpr::Choice` of two
//!   or more colors) is recorded as never replayable and always
//!   interpreted.
//! * **Rewards add the same products.** A term is `count * dt` or `1.0 *
//!   dt`, the exact values the full pass adds; the dropped zero terms add
//!   `+0.0`, which changes no accumulator because every accumulator starts
//!   at `+0.0` and only grows by non-negative terms (a replay integrates
//!   up to an event time, so `dt` is finite and `0.0 * dt` is `+0.0`; the
//!   tail to the horizon runs the full pass). Replayed counter hooks count
//!   only past the warm-up boundary (the hits before it are drained
//!   without them when the run crosses it), and every firing of a step
//!   shares one instant.
//! * **The scan finds the same clock.** At a tangible marking the clocks
//!   not scheduled hold `+inf`, so scanning only the scheduled ones, in
//!   the same ascending order, finds the same minimum and tie.
//! * **Errors are the interpreter's.** A step that overflowed a place never
//!   completed, so it was never recorded; a replay that would push the
//!   zero-time firing count past its limit is refused, and the step is
//!   interpreted so the livelock error comes from the same firing.

use super::engine::{SimConfig, SimOutput, Simulator};
use super::lower::{
    dec_f64, IntegOp, LoweredNet, LoweredReward, CNT_INV, HDR_GENERIC, MOV_ADD, MOV_COLOR,
    NOT_QUEUED, OP_C_FGE, OP_C_FLT, OP_C_GUARD, OP_HOOK, OP_RA_DET, OP_RA_ERL, OP_RA_EXP,
    OP_RA_UNI, OP_RE_DET, OP_RE_ERL, OP_RE_EXP, OP_RE_UNI, OP_RS_DET, OP_RS_ERL, OP_RS_EXP,
    OP_RS_UNI, RECHECK_STRIDE, ST_ENABLED, ST_SCHEDULED, TID_IMMEDIATE,
};
use super::memo::{Memo, Record, NONE, NO_REPLAY};
use super::trace::TraceBuffer;
use crate::arc::ColorExpr;
use crate::error::SimError;
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::Net;
use crate::rng::SimRng;
use crate::token::Color;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Assert two engine results are bit-identical (debug oracle).
#[cfg(debug_assertions)]
pub(super) fn debug_assert_outputs_eq(
    lowered: &Result<SimOutput, SimError>,
    reference: &Result<SimOutput, SimError>,
) {
    match (lowered, reference) {
        (Ok(a), Ok(b)) => {
            debug_assert_eq!(a.rewards, b.rewards, "lowered rewards diverged");
            debug_assert_eq!(a.firing_counts, b.firing_counts, "firing counts diverged");
            debug_assert_eq!(a.final_marking, b.final_marking, "final marking diverged");
            debug_assert_eq!(a.trace, b.trace, "trace diverged");
            debug_assert_eq!(a.trace_dropped, b.trace_dropped);
            debug_assert_eq!(a.observed_time, b.observed_time);
        }
        (Err(a), Err(b)) => debug_assert_eq!(a, b, "lowered error diverged"),
        (a, b) => panic!("lowered engine diverged from the reference engine: {a:?} vs {b:?}"),
    }
}

/// Assert the lowered start state matches a rescan of the initial marking:
/// each transition's enabled bit, and the enabled immediates in tid order
/// (debug oracle).
#[cfg(debug_assertions)]
pub(super) fn debug_assert_start_state(lw: &LoweredNet, net: &Net) {
    let marking = net.initial_marking();
    let st = &lw.start;
    let mut rescan = Vec::new();
    for (ti, t) in net.transitions().iter().enumerate() {
        let enabled = is_enabled_slow(&marking, t);
        debug_assert_eq!(
            st.unsat[ti] == 0,
            enabled,
            "precomputed start state diverged from rescan for {:?}",
            t.name
        );
        if enabled && t.timing.is_immediate() {
            rescan.push(ti as u32);
        }
    }
    debug_assert_eq!(
        st.enabled_imm[..st.imm_len as usize],
        rescan[..],
        "precomputed enabled immediates diverged from rescan"
    );
}

// ---------------------------------------------------------------------------
// The run's state
// ---------------------------------------------------------------------------

/// One replication's mutable state: per-transition arenas of length
/// `nt`, per-condition arenas of length `nc`, the marking, the schedule,
/// the counters and accumulators. Every vector is owned inline, so the
/// hot loop reaches each one (the marking's count vector included)
/// through a single pointer held by `&mut self`. The run's constants ride
/// along: the net (read only by the generic firing path and the debug
/// oracles) and the run flags.
///
/// The program is not held here: the hot-loop methods take it as their
/// own `&LoweredNet` argument, so the optimizer knows the loop's stores
/// never change it.
struct Hot<'n> {
    net: &'n Net,
    trace_on: bool,
    /// `REPRO_PROFILE` armed: wrap every fire section and every reward
    /// integration step in a clock read.
    profile_on: bool,
    /// Calibrated clock-pair cost subtracted from every profiled sample
    /// (zero when disarmed).
    timer_ns: u64,
    rng: SimRng,
    now: f64,
    zero: u64,
    imm_len: u32,
    /// Reward integration steps and nanoseconds timed by the profiler.
    integ_steps: u64,
    integ_ns: u64,
    marking: Marking,
    fire_at: Vec<f64>,
    remaining: Vec<f64>,
    sched_state: Vec<u8>,
    cond_true: Vec<bool>,
    unsat: Vec<u32>,
    enabled_imm: Vec<u32>,
    imm_pos: Vec<u32>,
    firing_counts: Vec<u64>,
    acc_f: Vec<f64>,
    acc_c: Vec<u64>,
    profile_ns: Vec<u64>,
    trace: TraceBuffer,
    guard_scratch: Vec<i64>,
    consumed: Vec<Color>,
    consumed_offsets: Vec<usize>,
    candidates: Vec<u32>,
    weights: Vec<f64>,
    /// Step recorder, filled while the interpreter runs a step the memo
    /// keeps: fired tids in order, counter-hook accumulators, and
    /// `(op offset, sched_state)` pairs of the re-checks that acted.
    rec_fired: Vec<u32>,
    rec_hooks: Vec<u32>,
    rec_rech: Vec<u32>,
    /// The step drew the RNG for a choice, so it must never be replayed.
    rec_rng: bool,
    /// Profiler: nanoseconds of memo bookkeeping on interpreted steps.
    memo_ns: u64,
    /// Profiler: replayed firings per `(immediate, trigger)`.
    replay_notes: BTreeMap<(u32, u32), u64>,
}

impl Hot<'_> {
    // ---- debug oracles: full-rescan cross-checks ----

    #[cfg(debug_assertions)]
    fn oracle_sched(&self, t2: usize) {
        let t = self.net.transition(TransitionId(t2 as u32));
        debug_assert_eq!(
            self.unsat[t2] == 0,
            is_enabled_slow(&self.marking, t),
            "lowered enabled bit diverged from rescan for {:?}",
            t.name
        );
        let s = self.sched_state[t2];
        debug_assert_eq!(s & ST_ENABLED != 0, self.unsat[t2] == 0);
        debug_assert!(s & ST_SCHEDULED != 0 || self.fire_at[t2] == f64::INFINITY);
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn oracle_sched(&self, __t2: usize) {}

    #[cfg(debug_assertions)]
    fn oracle_imm_index(&self) {
        for (ti, t) in self.net.transitions().iter().enumerate() {
            if t.timing.is_immediate() {
                debug_assert_eq!(
                    self.imm_pos[ti] != NOT_QUEUED,
                    is_enabled_slow(&self.marking, t),
                    "lowered enabled-immediates index diverged for {:?}",
                    t.name
                );
            }
        }
    }

    #[cfg(not(debug_assertions))]
    #[inline(always)]
    fn oracle_imm_index(&self) {}

    // ---- enabled-immediates index ----

    #[inline(always)]
    fn imm_insert(&mut self, tid: u32) {
        debug_assert_eq!(self.imm_pos[tid as usize], NOT_QUEUED);
        let len = self.imm_len;
        self.imm_pos[tid as usize] = len;
        self.enabled_imm[len as usize] = tid;
        self.imm_len = len + 1;
    }

    #[inline(always)]
    fn imm_remove(&mut self, tid: u32) {
        let i = self.imm_pos[tid as usize];
        debug_assert_ne!(i, NOT_QUEUED);
        self.imm_pos[tid as usize] = NOT_QUEUED;
        let last = self.imm_len - 1;
        self.imm_len = last;
        let moved = self.enabled_imm[last as usize];
        if i < last {
            self.enabled_imm[i as usize] = moved;
            self.imm_pos[moved as usize] = i;
        }
    }

    /// Apply a condition truth flip to the watched transition's unsat
    /// counter, enabled bit, and (for immediates) the enabled index.
    #[inline(always)]
    fn apply_flip(&mut self, tidflags: u32, now_true: bool) {
        let ti = (tidflags & !TID_IMMEDIATE) as usize;
        let is_imm = tidflags & TID_IMMEDIATE != 0;
        if now_true {
            self.unsat[ti] -= 1;
            if self.unsat[ti] == 0 {
                self.sched_state[ti] |= ST_ENABLED;
                if is_imm {
                    self.imm_insert(ti as u32);
                }
            }
        } else {
            if self.unsat[ti] == 0 {
                self.sched_state[ti] &= !ST_ENABLED;
                if is_imm {
                    self.imm_remove(ti as u32);
                }
            }
            self.unsat[ti] += 1;
        }
    }

    // ---- scheduling ----

    #[inline(always)]
    fn schedule(&mut self, ti: usize, at: f64) {
        self.fire_at[ti] = at;
        self.sched_state[ti] |= ST_SCHEDULED;
    }

    #[inline(always)]
    fn cancel(&mut self, ti: usize) -> f64 {
        debug_assert_ne!(self.sched_state[ti] & ST_SCHEDULED, 0);
        self.sched_state[ti] &= !ST_SCHEDULED;
        let at = self.fire_at[ti];
        self.fire_at[ti] = f64::INFINITY;
        at
    }

    /// Next event: the earliest clock of `timed`, lowest tid on ties. It
    /// is not consumed.
    ///
    /// Only timed transitions are read: an immediate's clock is always
    /// +inf. `timed` is every timed transition, or the ones scheduled at
    /// the current memo state; the rest hold +inf. So the scan needs no
    /// sentinel test, and the min is two selects on one `<` per clock,
    /// with no data-dependent branch. Walking `timed` in ascending tid
    /// order with strict `<` keeps the lowest tid on ties, the reference
    /// engine's `(time, tid)` order (no reachable schedule time is NaN or
    /// -0.0, so `<` agrees with `total_cmp` here). An all-idle run
    /// surfaces `(inf, 0)`, which the caller's `time < end` guard retires.
    #[inline(always)]
    fn next_event(&self, timed: &[u32]) -> (f64, u32) {
        let mut best_t = f64::INFINITY;
        let mut best_ti = 0u32;
        for &ti in timed {
            let at = self.fire_at[ti as usize];
            let earlier = at < best_t;
            best_t = if earlier { at } else { best_t };
            best_ti = if earlier { ti } else { best_ti };
        }
        (best_t, best_ti)
    }

    // ---- fire section execution ----

    /// One token move: plain subtract, or plain add with the overflow
    /// check (the only error a dense fire can raise). `GEN` instantiations
    /// also carry color-slot moves.
    #[inline(always)]
    fn exec_mov<const GEN: bool>(
        &mut self,
        lw: &LoweredNet,
        pw: u32,
        m: u32,
    ) -> Result<(), SimError> {
        if GEN && pw & MOV_COLOR != 0 {
            return self.exec_color_mov(lw, pw, m);
        }
        if pw & MOV_ADD == 0 {
            self.marking.sub_plain(pw, m);
        } else {
            let p = pw & !MOV_ADD;
            let c = self.marking.add_plain(p, m);
            if c as usize > lw.max_tokens {
                return Err(SimError::TokenOverflow {
                    place: p as usize,
                    time: self.now,
                    limit: lw.token_limit,
                });
            }
        }
        Ok(())
    }

    /// One color-slot move: withdraw the slot's color from its place's bag
    /// (FIFO-oldest first, as the reference engine's filtered withdraw
    /// does), or append it with the per-arc overflow check.
    #[inline(always)]
    fn exec_color_mov(&mut self, lw: &LoweredNet, pw: u32, m: u32) -> Result<(), SimError> {
        let slot = pw & !(MOV_ADD | MOV_COLOR);
        if pw & MOV_ADD == 0 {
            self.marking.withdraw_slot(slot, m);
        } else {
            let (place, c) = self.marking.deposit_slot(slot, m);
            if c as usize > lw.max_tokens {
                return Err(SimError::TokenOverflow {
                    place,
                    time: self.now,
                    limit: lw.token_limit,
                });
            }
        }
        Ok(())
    }

    /// One count-condition record: re-evaluate the threshold and apply
    /// the flip if the truth value changed.
    #[inline(always)]
    fn exec_cnt(&mut self, pw: u32, need: u32, ci: usize, tf: u32) {
        let now_true = (self.marking.count_raw(pw & !CNT_INV) >= need) == (pw & CNT_INV == 0);
        if now_true != self.cond_true[ci] {
            self.cond_true[ci] = now_true;
            self.apply_flip(tf, now_true);
        }
    }

    /// Execute transition `ti`'s fire section, attributing its wall time
    /// when the profiler is armed. The disarmed path is a single
    /// well-predicted branch in front of [`Hot::exec_fire_inner`]; the
    /// armed path reads the monotonic clock twice and folds the delta,
    /// less the calibrated timer cost, into the run's per-transition
    /// nanosecond counters (flushed to
    /// [`super::profile`] when the run finishes).
    #[inline(always)]
    fn exec_fire<const GEN: bool, const REC: bool>(
        &mut self,
        lw: &LoweredNet,
        ti: usize,
        ops: &[u32],
    ) -> Result<(), SimError> {
        if !self.profile_on {
            return self.exec_fire_inner::<GEN, REC>(lw, ti, ops);
        }
        let t0 = Instant::now();
        let res = self.exec_fire_inner::<GEN, REC>(lw, ti, ops);
        self.profile_ns[ti] += super::profile::sample_ns(t0, self.timer_ns);
        res
    }

    /// Execute transition `ti`'s fire section: the counted token-move and
    /// count-condition segments run with no opcode dispatch; the
    /// dispatched tail carries counter hooks and (in `GEN = true`
    /// instantiations only) the colored/filtered/guard-program slow paths.
    /// `REC` instantiations also record the fired tid and its hooks.
    #[inline(always)]
    fn exec_fire_inner<const GEN: bool, const REC: bool>(
        &mut self,
        lw: &LoweredNet,
        ti: usize,
        ops: &[u32],
    ) -> Result<(), SimError> {
        let hdr = ops[0];
        if REC {
            self.rec_fired.push(ti as u32);
        }
        // The dominant tiny shape — one move, one count condition, no
        // tail — runs fully unrolled, skipping the segment iterators (the
        // header test already excludes generic fires).
        if hdr == 0x0001_0001 && ops.len() == 7 {
            self.exec_mov::<GEN>(lw, ops[1], ops[2])?;
            self.exec_cnt(ops[3], ops[4], ops[5] as usize, ops[6]);
            self.firing_counts[ti] += 1;
            if self.trace_on {
                self.trace.record(self.now, TransitionId(ti as u32));
            }
            return Ok(());
        }
        let n_mov = (hdr & 0xffff) as usize;
        let n_cnt = ((hdr >> 16) & 0x7fff) as usize;
        let mut pos = 1;
        if GEN && hdr & HDR_GENERIC != 0 {
            self.fire_generic(lw, ops[pos] as usize)?;
            pos += 1;
        }
        debug_assert!(GEN || hdr & HDR_GENERIC == 0);
        for mov in ops[pos..pos + 2 * n_mov].chunks_exact(2) {
            self.exec_mov::<GEN>(lw, mov[0], mov[1])?;
        }
        pos += 2 * n_mov;
        for rec in ops[pos..pos + 4 * n_cnt].chunks_exact(4) {
            self.exec_cnt(rec[0], rec[1], rec[2] as usize, rec[3]);
        }
        pos += 4 * n_cnt;
        let mut pc = pos;
        while pc < ops.len() {
            let w = ops[pc];
            match w & 0xff {
                OP_HOOK => {
                    if REC {
                        self.rec_hooks.push(w >> 8);
                    }
                    if self.now >= lw.warmup {
                        self.acc_c[(w >> 8) as usize] += 1;
                    }
                    pc += 1;
                }
                OP_C_FGE if GEN => {
                    let filter = &lw.filters[ops[pc + 1] as usize];
                    let n = self.marking.count_matching(PlaceId(ops[pc + 2]), filter);
                    let now_true = n >= ops[pc + 3] as usize;
                    let (ci, tf) = ((w >> 8) as usize, ops[pc + 4]);
                    pc += 5;
                    if now_true != self.cond_true[ci] {
                        self.cond_true[ci] = now_true;
                        self.apply_flip(tf, now_true);
                    }
                }
                OP_C_FLT if GEN => {
                    let filter = &lw.filters[ops[pc + 1] as usize];
                    let n = self.marking.count_matching(PlaceId(ops[pc + 2]), filter);
                    let now_true = n < ops[pc + 3] as usize;
                    let (ci, tf) = ((w >> 8) as usize, ops[pc + 4]);
                    pc += 5;
                    if now_true != self.cond_true[ci] {
                        self.cond_true[ci] = now_true;
                        self.apply_flip(tf, now_true);
                    }
                }
                OP_C_GUARD if GEN => {
                    let prog = &lw.guards[ops[pc + 1] as usize];
                    let now_true = prog.eval_bool(&self.marking, &mut self.guard_scratch);
                    let (ci, tf) = ((w >> 8) as usize, ops[pc + 2]);
                    pc += 3;
                    if now_true != self.cond_true[ci] {
                        self.cond_true[ci] = now_true;
                        self.apply_flip(tf, now_true);
                    }
                }
                _ => unreachable!("invalid op in fire tail"),
            }
        }
        self.firing_counts[ti] += 1;
        if self.trace_on {
            self.trace.record(self.now, TransitionId(ti as u32));
        }
        Ok(())
    }

    /// The generic colored firing path (withdraw per input arc, evaluate
    /// color expressions, deposit per output arc) — byte-for-byte the
    /// reference engine's, including error precedence.
    fn fire_generic(&mut self, lw: &LoweredNet, ti: usize) -> Result<(), SimError> {
        let t = &self.net.transitions()[ti];
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
            if matches!(&arc.color, ColorExpr::Choice(pairs) if pairs.len() > 1) {
                self.rec_rng = true;
            }
            for _ in 0..arc.multiplicity {
                let c = arc.color.eval(
                    &self.consumed[..],
                    &self.consumed_offsets[..],
                    &mut self.rng,
                );
                self.marking.deposit(arc.place, c);
            }
            if self.marking.count(arc.place) > lw.max_tokens {
                return Err(SimError::TokenOverflow {
                    place: arc.place.index(),
                    time: self.now,
                    limit: lw.token_limit,
                });
            }
        }
        Ok(())
    }

    // ---- recheck section execution ----

    /// Handle one RaceEnable re-check (caller already skipped settled
    /// states): sample on enable, cancel on disable.
    #[inline(always)]
    fn re_op(&mut self, t2: usize, s: u8, sample: impl FnOnce(&mut SimRng) -> f64) {
        if s & ST_ENABLED != 0 {
            let d = sample(&mut self.rng);
            self.schedule(t2, self.now + d);
        } else {
            self.cancel(t2);
        }
    }

    /// Handle one RaceAge re-check: like RaceEnable, but a disabled clock
    /// freezes its remaining delay and a re-enable restores it.
    #[inline(always)]
    fn ra_op(&mut self, t2: usize, s: u8, sample: impl FnOnce(&mut SimRng) -> f64) {
        if s & ST_ENABLED != 0 {
            let d = if !self.remaining[t2].is_nan() {
                let r = self.remaining[t2];
                self.remaining[t2] = f64::NAN;
                r
            } else {
                sample(&mut self.rng)
            };
            self.schedule(t2, self.now + d);
        } else {
            let at = self.cancel(t2);
            self.remaining[t2] = (at - self.now).max(0.0);
        }
    }

    /// Handle one Resample re-check (caller only skipped fully-idle
    /// states): redraw while enabled-and-scheduled, else schedule/cancel.
    #[inline(always)]
    fn rs_op(&mut self, t2: usize, s: u8, sample: impl FnOnce(&mut SimRng) -> f64) {
        let enabled = s & ST_ENABLED != 0;
        let scheduled = s & ST_SCHEDULED != 0;
        if enabled && scheduled {
            // Redraw the clock in place.
            let d = sample(&mut self.rng);
            self.fire_at[t2] = self.now + d;
        } else if enabled {
            let d = sample(&mut self.rng);
            self.schedule(t2, self.now + d);
        } else {
            self.cancel(t2);
        }
    }

    /// Execute a recheck program (a transition's recheck section, or the
    /// startup program): one fixed-stride monomorphized record per timed
    /// transition whose clock may need attention. The common path — the
    /// clock is already settled and nothing changes — walks the section
    /// with **no opcode dispatch at all**; parameters are only decoded
    /// when a clock actually has to be sampled or cancelled. `REC`
    /// instantiations record each record that acts, resolved by the state
    /// byte it saw ([`resolve`]), with its offset in the op arena (`base`
    /// is the section's).
    #[inline(always)]
    fn exec_recheck<const REC: bool>(&mut self, ops: &[u32], base: usize) {
        const SETTLED: u8 = ST_ENABLED | ST_SCHEDULED;
        for (i, rec) in ops.chunks_exact(RECHECK_STRIDE).enumerate() {
            let w = rec[0];
            let t2 = (w >> 8) as usize;
            let s = self.sched_state[t2];
            self.oracle_sched(t2);
            let op = w & 0xff;
            // A fully idle clock is always left alone; an
            // enabled-and-scheduled one only matters to Resample (whose
            // ST_RESAMPLE bit also keeps `s` from equalling SETTLED).
            let active = s & SETTLED != 0 && (s != SETTLED || op >= OP_RS_EXP);
            if !active {
                continue;
            }
            if REC {
                self.rec_rech
                    .extend([resolve(rec, s), (base + i * RECHECK_STRIDE) as u32]);
            }
            self.recheck_op(rec, s);
        }
    }

    /// Apply one re-check record `rec` that acts, given the state byte
    /// `s` its transition had: sample, redraw or cancel its clock.
    #[inline(always)]
    fn recheck_op(&mut self, rec: &[u32], s: u8) {
        let w = rec[0];
        let t2 = (w >> 8) as usize;
        match w & 0xff {
            OP_RE_EXP => {
                let rate = dec_f64(rec, 1);
                self.re_op(t2, s, move |r| r.exp(rate));
            }
            OP_RE_DET => {
                let delay = dec_f64(rec, 1);
                self.re_op(t2, s, move |_| delay);
            }
            OP_RE_UNI => {
                let (low, high) = (dec_f64(rec, 1), dec_f64(rec, 3));
                self.re_op(t2, s, move |r| r.uniform(low, high));
            }
            OP_RE_ERL => {
                let (rate, k) = (dec_f64(rec, 1), rec[3]);
                self.re_op(t2, s, move |r| erlang(r, rate, k));
            }
            OP_RA_EXP => {
                let rate = dec_f64(rec, 1);
                self.ra_op(t2, s, move |r| r.exp(rate));
            }
            OP_RA_DET => {
                let delay = dec_f64(rec, 1);
                self.ra_op(t2, s, move |_| delay);
            }
            OP_RA_UNI => {
                let (low, high) = (dec_f64(rec, 1), dec_f64(rec, 3));
                self.ra_op(t2, s, move |r| r.uniform(low, high));
            }
            OP_RA_ERL => {
                let (rate, k) = (dec_f64(rec, 1), rec[3]);
                self.ra_op(t2, s, move |r| erlang(r, rate, k));
            }
            OP_RS_EXP => {
                let rate = dec_f64(rec, 1);
                self.rs_op(t2, s, move |r| r.exp(rate));
            }
            OP_RS_DET => {
                let delay = dec_f64(rec, 1);
                self.rs_op(t2, s, move |_| delay);
            }
            OP_RS_UNI => {
                let (low, high) = (dec_f64(rec, 1), dec_f64(rec, 3));
                self.rs_op(t2, s, move |r| r.uniform(low, high));
            }
            OP_RS_ERL => {
                let (rate, k) = (dec_f64(rec, 1), rec[3]);
                self.rs_op(t2, s, move |r| erlang(r, rate, k));
            }
            _ => unreachable!("invalid op in recheck section"),
        }
    }

    // ---- rewards / livelock ----

    /// Integrate time-based rewards over `[now, until)`, clipped to the
    /// warm-up boundary, attributing the step's wall time to the run's
    /// integration counters when the profiler is armed. `terms` are the
    /// current state's memoized reward terms, when the live marking is
    /// stale.
    #[inline(always)]
    fn integrate(&mut self, lw: &LoweredNet, until: f64, terms: Option<&[(u32, f64)]>) {
        if lw.integ_places.is_empty() && lw.integ.is_empty() {
            return;
        }
        if !self.profile_on {
            return self.integrate_inner(lw, until, terms);
        }
        let t0 = Instant::now();
        self.integrate_inner(lw, until, terms);
        self.integ_steps += 1;
        self.integ_ns += super::profile::sample_ns(t0, self.timer_ns);
    }

    #[inline(always)]
    fn integrate_inner(&mut self, lw: &LoweredNet, until: f64, terms: Option<&[(u32, f64)]>) {
        let from = self.now.max(lw.warmup);
        let dt = until - from;
        if dt <= 0.0 {
            return;
        }
        if let Some(terms) = terms {
            // The same products the full pass adds, less its `+ 0.0`s.
            for &(acc, mult) in terms {
                self.acc_f[acc as usize] += mult * dt;
            }
            return;
        }
        // Every reward owns its accumulator, so running the place table
        // before the predicate program keeps each sum's addition order.
        let counts = self.marking.counts();
        for &(place, acc) in &lw.integ_places {
            self.acc_f[acc as usize] += counts[place as usize] as f64 * dt;
        }
        for op in &lw.integ {
            let (holds, acc) = self.predicate(lw, op);
            if holds {
                self.acc_f[acc as usize] += dt;
            }
        }
    }

    /// Whether predicate reward `op` holds on the live marking, and its
    /// accumulator.
    #[inline(always)]
    fn predicate(&mut self, lw: &LoweredNet, op: &IntegOp) -> (bool, u32) {
        match *op {
            IntegOp::PredCnt {
                place,
                need,
                lt,
                acc,
            } => ((self.marking.count_raw(place) >= need) != lt, acc),
            IntegOp::AnyNonEmpty { lo, hi, acc } => {
                let counts = self.marking.counts();
                let any = lw.any_places[lo as usize..hi as usize]
                    .iter()
                    .any(|&i| counts[i as usize] != 0);
                (any, acc)
            }
            IntegOp::Pred { prog, acc } => {
                let prog = lw.preds[prog as usize]
                    .as_ref()
                    .expect("predicate reward has a compiled program");
                (prog.eval_bool(&self.marking, &mut self.guard_scratch), acc)
            }
        }
    }

    /// Append the live marking's reward terms to `out`: `(accumulator,
    /// multiplier)` per time-based reward, in integration order, with zero
    /// terms dropped.
    fn reward_terms(&mut self, lw: &LoweredNet, out: &mut Vec<(u32, f64)>) {
        for &(place, acc) in &lw.integ_places {
            let n = self.marking.count_raw(place);
            if n != 0 {
                out.push((acc, n as f64));
            }
        }
        for op in &lw.integ {
            if let (true, acc) = self.predicate(lw, op) {
                out.push((acc, 1.0));
            }
        }
    }

    #[inline(always)]
    fn bump_zero(&mut self, lw: &LoweredNet) -> Result<(), SimError> {
        self.zero += 1;
        if self.zero > lw.max_zero {
            return Err(SimError::ImmediateLivelock {
                time: self.now,
                limit: lw.max_zero,
            });
        }
        Ok(())
    }

    // ---- immediate cascade ----

    /// Fire enabled immediates until none remain (highest priority first,
    /// weighted conflicts, definition order on ties — the reference engine's
    /// `fire_immediates`, with fire → recheck → zero-bump order).
    #[inline(always)]
    fn immediates<const GEN: bool, const REC: bool>(
        &mut self,
        lw: &LoweredNet,
    ) -> Result<(), SimError> {
        loop {
            self.oracle_imm_index();
            let chosen = match self.imm_len {
                0 => return Ok(()),
                // A lone enabled immediate fires outright: no priority
                // pass, no conflict set, no RNG draw.
                1 => self.enabled_imm[0],
                _ => self.choose_immediate(lw),
            };
            let ti = chosen as usize;
            let (f0, f1, r1) = lw.sections(ti);
            self.exec_fire::<GEN, REC>(lw, ti, &lw.ops[f0..f1])?;
            self.exec_recheck::<REC>(&lw.ops[f1..r1], f1);
            self.bump_zero(lw)?;
        }
    }

    /// Pick the next immediate among several enabled ones: the highest
    /// priority wins; equal-priority conflicts are resolved by weight,
    /// drawing from the RNG only when at least two candidates remain.
    fn choose_immediate(&mut self, lw: &LoweredNet) -> u32 {
        self.candidates.clear();
        let mut best_pri = 0u8;
        for i in 0..self.imm_len as usize {
            let tid = self.enabled_imm[i];
            let pri = lw.imm_choice[tid as usize].0;
            if self.candidates.is_empty() || pri > best_pri {
                best_pri = pri;
                self.candidates.clear();
                self.candidates.push(tid);
            } else if pri == best_pri {
                self.candidates.push(tid);
            }
        }
        if self.candidates.len() == 1 {
            return self.candidates[0];
        }
        self.candidates.sort_unstable();
        self.weights.clear();
        for i in 0..self.candidates.len() {
            self.weights
                .push(lw.imm_choice[self.candidates[i] as usize].1);
        }
        self.rec_rng = true;
        self.candidates[self.rng.weighted_choice(&self.weights[..])]
    }

    // ---- run lifecycle ----

    /// The pre-loop work: run the startup recheck program
    /// (initial scheduling pass), then the time-zero immediate cascade.
    fn start<const GEN: bool>(&mut self, lw: &LoweredNet) -> Result<(), SimError> {
        self.exec_recheck::<false>(&lw.init_ops, 0);
        self.immediates::<GEN, false>(lw)
    }

    /// The next event before `end` among the clocks of `timed`. `time <
    /// end` (not `>=`) mirrors the reference engine's `e.time <
    /// cfg.end_time` guard, including a NaN horizon.
    #[inline(always)]
    fn take_event(&self, timed: &[u32], end: f64) -> Option<(f64, usize)> {
        let (time, tid) = self.next_event(timed);
        (time < end).then_some((time, tid as usize))
    }

    /// Advance the clock to the event at `time` and consume transition
    /// `ti`'s schedule entry (rewards up to `time` are already
    /// integrated).
    #[inline(always)]
    fn enter(&mut self, time: f64, ti: usize) {
        if time > self.now {
            self.zero = 0;
        }
        self.now = time;
        self.fire_at[ti] = f64::INFINITY;
        self.sched_state[ti] &= !ST_SCHEDULED;
    }

    /// Interpret one step: fire timed transition `ti`, then the reference
    /// engine's zero-bump → recheck → immediates order. `REC` records it.
    #[inline(always)]
    fn step<const GEN: bool, const REC: bool>(
        &mut self,
        lw: &LoweredNet,
        ti: usize,
    ) -> Result<(), SimError> {
        let (f0, f1, r1) = lw.sections(ti);
        self.exec_fire::<GEN, REC>(lw, ti, &lw.ops[f0..f1])?;
        self.bump_zero(lw)?;
        self.exec_recheck::<REC>(&lw.ops[f1..r1], f1);
        self.immediates::<GEN, REC>(lw)
    }

    /// Replay a recorded step of trigger `ti` (the clock is already
    /// entered): the zero-time bumps, the trace entries of a traced run,
    /// and the re-checks that acted, in their recorded order, so the RNG
    /// draws come in the interpreter's order and live clocks stay live.
    /// Firing counts and counter hooks are added later from the edge's hit
    /// count ([`Hot::drain_hits`]). The marking and the enabling state are
    /// left stale.
    #[inline(always)]
    fn replay(&mut self, lw: &LoweredNet, ti: usize, fired: &[u32], rech: &[u32]) {
        let t0 = self.profile_on.then(Instant::now);
        self.zero += fired.len() as u64;
        if self.trace_on {
            for &t in fired {
                self.trace.record(self.now, TransitionId(t));
            }
        }
        for r in rech.chunks_exact(2) {
            // `arg` is the re-checked tid, or for `R_OP` the state byte.
            let (w, off) = (r[0], r[1] as usize);
            let arg = (w >> 8) as usize;
            match w & 0xff {
                R_EXP => {
                    let d = self.rng.exp(dec_f64(&lw.ops[off..], 1));
                    self.schedule(arg, self.now + d);
                }
                R_DET => self.schedule(arg, self.now + dec_f64(&lw.ops[off..], 1)),
                R_CANCEL => {
                    self.cancel(arg);
                }
                _ => self.recheck_op(&lw.ops[off..off + RECHECK_STRIDE], arg as u8),
            }
        }
        if let Some(t0) = t0 {
            self.profile_ns[ti] += super::profile::sample_ns(t0, self.timer_ns);
        }
    }

    /// Add the memo's replays since the last drain to the firing counts,
    /// the counter hooks when they ran past the warm-up boundary (`warm`),
    /// and the profiler's replay notes.
    fn drain_hits(&mut self, m: &mut Memo, warm: bool) {
        m.drain_hits(warm, |hits, fired, hooks| {
            for &t in fired {
                self.firing_counts[t as usize] += hits;
            }
            if warm {
                for &h in hooks {
                    self.acc_c[h as usize] += hits;
                }
            }
            if self.profile_on {
                for &t in &fired[1..] {
                    *self.replay_notes.entry((t, fired[0])).or_insert(0) += hits;
                }
            }
        });
    }

    /// Bring the marking and the enabling state up to memo state `s`
    /// after replays left them stale. Clocks were kept live by the
    /// replays, and the enabled-immediates index is empty at every
    /// tangible marking.
    fn materialize(&mut self, m: &Memo, s: u32) {
        self.marking.load_memo_key(m.key(s));
        let (cond, unsat, sched) = m
            .snapshot_of(s)
            .expect("a replayed step's target has a snapshot");
        debug_assert_eq!(self.imm_len, 0);
        debug_assert!(
            sched
                .iter()
                .zip(&self.sched_state)
                .all(|(a, b)| (a ^ b) & !ST_ENABLED == 0),
            "replayed clocks diverged from the snapshot's"
        );
        self.cond_true.copy_from_slice(cond);
        self.unsat.copy_from_slice(unsat);
        self.sched_state.copy_from_slice(sched);
    }

    /// Add the time since `t0` to the memo bookkeeping counter (profiler).
    #[inline(always)]
    fn memo_timed(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.memo_ns += super::profile::sample_ns(t0, self.timer_ns);
        }
    }

    /// Drive the run from post-`start` state with the step memo: replay
    /// each step already recorded from the current state, interpret (and
    /// on a state's second interpreted step, record) the rest. A state
    /// with a snapshot scans only its scheduled clocks. Returns
    /// `Ok(false)` when the run gives the memo up, with the live state
    /// current, and `Ok(true)` once the run has reached its horizon;
    /// either way the replays' counts are drained.
    fn run_memo<const GEN: bool>(
        &mut self,
        m: &mut Memo,
        lw: &LoweredNet,
        end: f64,
    ) -> Result<bool, SimError> {
        let (mut cur, _) = m.land(&self.marking);
        let mut stale = false;
        // Replayed hooks count only past the warm-up boundary, so the hits
        // before it are drained (hooks dropped) when the run crosses it.
        let mut warm = self.now >= lw.warmup;
        loop {
            let timed = m.scan_list(cur).unwrap_or(&lw.timed);
            let Some((time, ti)) = self.take_event(timed, end) else {
                break;
            };
            if !warm && time >= lw.warmup {
                self.drain_hits(m, false);
                warm = true;
            }
            m.count_step();
            let e = m.edge(cur, ti);
            if e < NO_REPLAY {
                let step = m.step(e);
                let zero = if time > self.now { 0 } else { self.zero };
                // A replay that would cross the livelock limit is
                // interpreted instead, so the error is the interpreter's.
                if zero + step.fired.len() as u64 <= lw.max_zero {
                    self.integrate(lw, time, Some(m.terms(cur)));
                    self.enter(time, ti);
                    self.replay(lw, ti, step.fired, step.rech);
                    cur = step.next;
                    m.hit(e);
                    stale = true;
                    continue;
                }
                m.count_refused();
            }
            let t0 = self.profile_on.then(Instant::now);
            if stale {
                self.materialize(m, cur);
                stale = false;
            }
            let record = m.step_out(cur) && e == NONE;
            if record {
                m.ensure_terms(cur, |out| self.reward_terms(lw, out));
                self.rec_fired.clear();
                self.rec_hooks.clear();
                self.rec_rech.clear();
                self.rec_rng = false;
            }
            self.memo_timed(t0);
            self.integrate(lw, time, None);
            self.enter(time, ti);
            if record {
                self.step::<GEN, true>(lw, ti)?;
            } else {
                self.step::<GEN, false>(lw, ti)?;
            }
            let t0 = self.profile_on.then(Instant::now);
            let (next, _) = m.land(&self.marking);
            #[cfg(debug_assertions)]
            if let Some(snap) = m.snapshot_of(next) {
                debug_assert!(
                    snap == (&self.cond_true[..], &self.unsat[..], &self.sched_state[..]),
                    "enabling state at a known marking diverged from its snapshot"
                );
            }
            if record {
                if self.rec_rng {
                    m.add_no_replay(cur, ti);
                } else {
                    m.snapshot(
                        next,
                        &self.cond_true,
                        &self.unsat,
                        &self.sched_state,
                        &lw.timed,
                    );
                    m.add_edge(
                        cur,
                        ti,
                        next,
                        &self.rec_fired,
                        &self.rec_hooks,
                        &self.rec_rech,
                    );
                }
            }
            cur = next;
            let give_up = m.count_miss();
            self.memo_timed(t0);
            if give_up {
                self.drain_hits(m, warm);
                return Ok(false);
            }
        }
        if stale {
            self.materialize(m, cur);
        }
        self.drain_hits(m, warm);
        self.integrate(lw, end, None);
        self.now = end;
        Ok(true)
    }

    /// Drive the run to its horizon on the interpreter alone (after the
    /// memo gave up): the whole main loop, fused, one instantiation per
    /// firing variant (dense or colored).
    fn run<const GEN: bool>(&mut self, lw: &LoweredNet, end: f64) -> Result<(), SimError> {
        while let Some((time, ti)) = self.take_event(&lw.timed, end) {
            self.integrate(lw, time, None);
            self.enter(time, ti);
            self.step::<GEN, false>(lw, ti)?;
        }
        // No more events before the horizon: integrate the tail and
        // retire.
        self.integrate(lw, end, None);
        self.now = end;
        Ok(())
    }
}

/// Full-rescan enabling check (debug oracle).
#[cfg(debug_assertions)]
fn is_enabled_slow(marking: &Marking, t: &crate::transition::Transition) -> bool {
    t.inputs
        .iter()
        .all(|a| marking.count_matching(a.place, &a.filter) >= a.multiplicity as usize)
        && t.inhibitors
            .iter()
            .all(|a| marking.count_matching(a.place, &a.filter) < a.threshold as usize)
        && t.guard.as_ref().is_none_or(|g| g.eval_bool(marking))
}

/// Resolved re-check kinds a recorded step stores, in the low byte of
/// its first word (the re-checked tid above it) with the record's op
/// offset as the second: sample Exp(rate) and schedule, schedule at a
/// fixed delay, cancel. Every other re-check is [`R_OP`]: the first word
/// holds the state byte it saw, and a replay runs the record's op.
const R_EXP: u32 = 0;
const R_DET: u32 = 1;
const R_CANCEL: u32 = 2;
const R_OP: u32 = 3;

/// The first word a recorded step stores for re-check record `rec`, which
/// acted on seeing state byte `s` (see [`R_EXP`]).
fn resolve(rec: &[u32], s: u8) -> u32 {
    let (w, enabled) = (rec[0], s & ST_ENABLED != 0);
    match w & 0xff {
        OP_RE_EXP if enabled => R_EXP | w & !0xff,
        OP_RE_DET if enabled => R_DET | w & !0xff,
        OP_RE_EXP | OP_RE_DET | OP_RE_UNI | OP_RE_ERL if !enabled => R_CANCEL | w & !0xff,
        _ => R_OP | (s as u32) << 8,
    }
}

/// Erlang-k delay: sum of k exponential draws (the reference engine's
/// order).
#[inline(always)]
fn erlang(rng: &mut SimRng, rate: f64, k: u32) -> f64 {
    let mut total = 0.0;
    for _ in 0..k {
        total += rng.exp(rate);
    }
    total
}

// ---------------------------------------------------------------------------
// The lowered engine
// ---------------------------------------------------------------------------

/// One replication of the lowered engine: the net's program and
/// configuration, plus the run's [`Hot`] state and step [`Memo`].
pub(super) struct LoweredEngine<'e> {
    lw: &'e LoweredNet,
    cfg: &'e SimConfig,
    hot: Hot<'e>,
    memo: Memo,
}

impl<'e> LoweredEngine<'e> {
    /// A run of `sim` on `seed` whose memo starts from the record `rec`.
    pub(super) fn starting_from(sim: &'e Simulator<'_>, seed: u64, rec: Arc<Record>) -> Self {
        let net = sim.net();
        let lw = sim.lowered_net();
        let nt = net.num_transitions();
        let st = &lw.start;
        let profile_on = super::profile::armed();
        let hot = Hot {
            net,
            trace_on: sim.cfg.trace_capacity > 0,
            profile_on,
            timer_ns: if profile_on {
                super::profile::timer_cost_ns()
            } else {
                0
            },
            rng: SimRng::seed_from_u64(seed),
            now: 0.0,
            zero: 0,
            imm_len: st.imm_len,
            integ_steps: 0,
            integ_ns: 0,
            marking: net.initial_marking(),
            fire_at: vec![f64::INFINITY; nt],
            remaining: vec![f64::NAN; nt],
            sched_state: st.sched_state.clone(),
            cond_true: st.cond_true.clone(),
            unsat: st.unsat.clone(),
            enabled_imm: st.enabled_imm.clone(),
            imm_pos: st.imm_pos.clone(),
            firing_counts: vec![0; nt],
            acc_f: vec![0.0; lw.n_integ],
            acc_c: vec![0; lw.n_count],
            profile_ns: vec![0; nt],
            trace: TraceBuffer::new(sim.cfg.trace_capacity),
            guard_scratch: Vec::with_capacity(lw.stack_len),
            consumed: Vec::with_capacity(8),
            consumed_offsets: Vec::with_capacity(8),
            candidates: Vec::with_capacity(4),
            weights: Vec::with_capacity(4),
            rec_fired: Vec::new(),
            rec_hooks: Vec::new(),
            rec_rech: Vec::new(),
            rec_rng: false,
            memo_ns: 0,
            replay_notes: BTreeMap::new(),
        };
        LoweredEngine {
            lw,
            cfg: &sim.cfg,
            memo: Memo::new(
                rec,
                nt,
                st.cond_true.len(),
                hot.marking.counts().len(),
                st.enabled_imm.is_empty(),
            ),
            hot,
        }
    }

    /// Run the variant the program's feature flags select.
    fn drive_variant(&mut self) -> Result<(), SimError> {
        match self.lw.colored {
            false => self.drive::<false>(),
            true => self.drive::<true>(),
        }
    }

    /// A run of `sim` on `seed` from an empty record (a cold run).
    #[cfg(test)]
    pub(super) fn new(sim: &'e Simulator<'_>, seed: u64) -> Self {
        Self::starting_from(sim, seed, Arc::default())
    }

    /// Run the replication to its horizon; also report the run's memo
    /// statistics.
    #[cfg(test)]
    pub(super) fn run(self) -> (Result<SimOutput, SimError>, super::memo::MemoStats) {
        let (res, memo) = self.run_keeping_memo();
        (res, memo.stats())
    }

    /// Time this run's firings and keep its replay notes, as an armed
    /// profiler does, without touching the process-global table.
    #[cfg(test)]
    pub(super) fn profiled(mut self) -> Self {
        self.hot.profile_on = true;
        self
    }

    /// Run the replication to its horizon on the variant selected by the
    /// program's feature flags, and hand back its memo (the record it
    /// grew, and its statistics).
    pub(super) fn run_keeping_memo(mut self) -> (Result<SimOutput, SimError>, Memo) {
        let res = self.drive_variant();
        match res {
            Ok(()) => {
                let (out, memo) = self.finalize();
                (Ok(out), memo)
            }
            Err(e) => (Err(e), self.memo),
        }
    }

    /// Drive the run to completion: start, the memoized main loop, and the
    /// interpreter alone for the rest of a run that gave the memo up.
    fn drive<const GEN: bool>(&mut self) -> Result<(), SimError> {
        let (lw, end) = (self.lw, self.cfg.end_time);
        self.hot.start::<GEN>(lw)?;
        if !self.hot.run_memo::<GEN>(&mut self.memo, lw, end)? {
            self.hot.run::<GEN>(lw, end)?;
        }
        Ok(())
    }

    /// Package the finished run's output.
    fn finalize(self) -> (SimOutput, Memo) {
        let hot = self.hot;
        if super::profile::armed() {
            // Flush the run's profile counters into the process-global
            // table.
            let names = hot.net.transitions();
            for (ti, t) in names.iter().enumerate() {
                super::profile::record(&t.name, hot.firing_counts[ti], hot.profile_ns[ti]);
            }
            super::profile::record(
                super::profile::INTEGRATION_ROW,
                hot.integ_steps,
                hot.integ_ns,
            );
            let stats = self.memo.stats();
            super::profile::record(super::profile::MEMO_MISS_ROW, stats.misses, hot.memo_ns);
            for (&(t, trigger), &n) in &hot.replay_notes {
                super::profile::record_replayed(
                    &names[t as usize].name,
                    &names[trigger as usize].name,
                    n,
                );
            }
            super::profile::record_memo_run(stats.states as u64, stats.misses, stats.gave_up);
        }
        let end = self.cfg.end_time;
        let observed = (end - self.cfg.warmup).max(0.0);
        let per_time = |x: f64| if observed > 0.0 { x / observed } else { 0.0 };
        let rewards = self
            .lw
            .reward_map
            .iter()
            .map(|rm| match *rm {
                LoweredReward::Integral(i) => per_time(hot.acc_f[i as usize]),
                LoweredReward::Rate(i) => per_time(hot.acc_c[i as usize] as f64),
                LoweredReward::Count(i) => hot.acc_c[i as usize] as f64,
            })
            .collect();
        let out = SimOutput {
            end_time: end,
            observed_time: observed,
            rewards,
            firing_counts: hot.firing_counts,
            final_marking: hot.marking,
            trace_dropped: hot.trace.dropped,
            trace: hot.trace.into_events(),
        };
        (out, self.memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::sim::SimConfig;
    use crate::timing::Timing;

    fn mm1(rho: f64) -> Net {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(rho))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        b.build().unwrap()
    }

    #[test]
    fn lowered_matches_reference_on_mm1() {
        let net = mm1(0.8);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0).with_trace(16));
        sim.reward_place(crate::ids::PlaceId::from_index(0));
        for seed in 0..20u64 {
            let a = sim.run(seed).unwrap();
            let b = sim.run_reference(seed).unwrap();
            assert_eq!(a.rewards, b.rewards);
            assert_eq!(a.firing_counts, b.firing_counts);
            assert_eq!(a.final_marking, b.final_marking);
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn lowered_errors_match_the_reference() {
        // An open generator against a tiny token bound: both engines must
        // report the same overflow at the same time.
        let net = mm1(5.0);
        let mut cfg = SimConfig::for_horizon(10_000.0);
        cfg.max_tokens_per_place = 40;
        let sim = Simulator::new(&net, cfg);
        for seed in 0..10u64 {
            match (sim.run(seed), sim.run_reference(seed)) {
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("expected overflow from both engines: {a:?} vs {b:?}"),
            }
        }
    }
}
