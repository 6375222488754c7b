//! The lowering pass: compile one (net × rewards) into a flat micro-op
//! program that the lowered engine ([`super::lowered`]) executes directly.
//!
//! The input is the simulator's `CompiledSim` ([`super::engine`]): dense
//! condition tables, CSR indices, optional dense firing plans, and
//! per-transition timing scalars. Walking those tables per event would
//! mean matching on the distribution kind and memory policy of every
//! re-scheduled transition, chasing `Option<DensePlan>` and CSR
//! indirections, and re-dispatching on condition kinds that are invariant
//! for a given net. This module makes all of those decisions **once per
//! simulator** and serializes the result into one contiguous `u32` arena:
//!
//! * Each transition gets a **fire section** — SUB/ADD count ops on places
//!   and color slots (or one generic-fire op for transitions that need an
//!   RNG draw or a multi-color filter) followed by inline condition
//!   re-evaluation ops (place, threshold, and watching transition baked
//!   into the op stream, in a precomputed first-touch order that visits
//!   each condition once) and counter-reward hook ops.
//! * Each transition gets a **recheck section** — one op per timed
//!   transition whose clock may need attention after the firing, with the
//!   *(memory policy × distribution kind)* pair monomorphized into the
//!   opcode itself and the distribution parameters inlined as immediate
//!   words. An exponential RaceEnable re-check is a single opcode.
//! * A **startup program** replays the reference engine's initial
//!   scheduling pass (every timed transition re-checked in definition
//!   order).
//! * Time-based rewards become a flat `(place, accumulator)` table for
//!   time-averaged token counts plus a short integration program for
//!   predicates (single comparisons and "any place non-empty" predicates
//!   read counts directly); counter rewards become hook ops.
//!
//! The program encodes *what the reference engine does*, in the exact same
//! order, drawing from the RNG at the exact same points — the lowered
//! engine's outputs are bit-identical to the reference engine's, which
//! `tests/lowered_differential.rs` proves on every variant. Feature
//! specialization (scan-vs-heap scheduling, colored-vs-count-only firing)
//! is selected once per net and baked into const-generic instantiations of
//! the hot loop, so the per-event path has no dynamic dispatch left.

use super::engine::{
    CompiledSim, Simulator, TimingKind, COND_GUARD, COND_INHIB_ANY, COND_INHIB_FILTERED,
    COND_INPUT_ANY, COND_INPUT_FILTERED,
};
use super::rewards::RewardSpec;
use crate::expr::{CmpOp, CompiledExpr, Expr};
use crate::ids::PlaceId;
use crate::net::{ColorCountAt, Net};
use crate::timing::MemoryPolicy;

/// Reduce a bare `count(place) cmp constant` program — or a
/// `count_color(place, color) cmp constant` one whose color count is dense
/// — to an equivalent threshold on one entry of the marking's count
/// vector: the boolean is `(count >= need) ^ lt` — i.e. `count >= need`
/// when `lt` is false, `count < need` when true. Counts are `u32`, so
/// every comparison against an in-range constant has such a form
/// (including the always-true/always-false degenerate ends); only `==` /
/// `!=` against a nonzero constant does not.
fn count_cmp_threshold(net: &Net, prog: &CompiledExpr) -> Option<(u32, bool, u32)> {
    const MAX: i64 = u32::MAX as i64;
    let (p, op, v) = match prog.as_count_cmp() {
        Some(cmp) => cmp,
        None => {
            let (p, c, op, v) = prog.as_color_count_cmp()?;
            match net.color_count_at(PlaceId(p), c) {
                ColorCountAt::Dense(i) => (i, op, v),
                // The count is always zero: a constant, written as the
                // always-true `count >= 0` or always-false `count < 0`.
                ColorCountAt::AlwaysZero => return Some((p, !op.apply(0, v), 0)),
                ColorCountAt::Bag => return None,
            }
        }
    };
    let (lt, need) = match op {
        // `count >= v` / `count > v`: v at or below zero is always true
        // (GE with need 0), past the count ceiling never true (LT 0).
        CmpOp::Ge if v <= 0 => (false, 0),
        CmpOp::Ge if v > MAX => (true, 0),
        CmpOp::Ge => (false, v),
        CmpOp::Gt if v < 0 => (false, 0),
        CmpOp::Gt if v >= MAX => (true, 0),
        CmpOp::Gt => (false, v + 1),
        // `count < v` / `count <= v`: mirrored.
        CmpOp::Lt if v <= 0 => (true, 0),
        CmpOp::Lt if v > MAX => (false, 0),
        CmpOp::Lt => (true, v),
        CmpOp::Le if v < 0 => (true, 0),
        CmpOp::Le if v >= MAX => (false, 0),
        CmpOp::Le => (true, v + 1),
        // Equality only reduces at the range ends.
        CmpOp::Eq if v == 0 => (true, 1),
        CmpOp::Eq if !(0..=MAX).contains(&v) => (true, 0),
        CmpOp::Ne if v == 0 => (false, 1),
        CmpOp::Ne if !(0..=MAX).contains(&v) => (false, 0),
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    Some((p, lt, need as u32))
}

/// If predicate `e` is an `Or` of `(sum of counts) > 0` / `>= 1` terms,
/// push the dense count indices it reads into `out` and return true: the
/// predicate then holds exactly when one of them is non-zero (counts are
/// never negative). Color counts the color-flow analysis proves zero drop
/// out; a color count kept only in a bag rejects the shape.
fn any_nonempty(net: &Net, e: &Expr, out: &mut Vec<u32>) -> bool {
    match e {
        Expr::Or(a, b) => any_nonempty(net, a, out) && any_nonempty(net, b, out),
        Expr::Cmp(sum, CmpOp::Gt, k) if **k == Expr::Const(0) => count_sum(net, sum, out),
        Expr::Cmp(sum, CmpOp::Ge, k) if **k == Expr::Const(1) => count_sum(net, sum, out),
        _ => false,
    }
}

/// Push the count indices of a sum of counts (see [`any_nonempty`]).
fn count_sum(net: &Net, e: &Expr, out: &mut Vec<u32>) -> bool {
    match e {
        Expr::Add(a, b) => count_sum(net, a, out) && count_sum(net, b, out),
        Expr::Count(p, None) => {
            out.push(p.index() as u32);
            true
        }
        Expr::Count(p, Some(c)) => match net.color_count_at(*p, *c) {
            ColorCountAt::Dense(i) => {
                out.push(i);
                true
            }
            ColorCountAt::AlwaysZero => true,
            ColorCountAt::Bag => false,
        },
        _ => false,
    }
}

/// Transition-count ceiling for the scan scheduler. Below it, the next
/// event is found by scanning the clocks of the timed transitions in the
/// run's `fire_at` vector (at 32 transitions the vector is 256 bytes —
/// four cache lines); above it, a lazy-deletion 4-ary heap takes over.
pub(super) const SCAN_MAX_TRANSITIONS: usize = 32;

// ---------------------------------------------------------------------------
// Op encoding
// ---------------------------------------------------------------------------
//
// A transition's **fire section** is segment-structured so the dense
// common case executes with *zero opcode dispatch*: one header word
// (segment counts + generic-fire flag), then `n_mov` two-word token moves,
// then `n_cnt` four-word count-condition records, then a variable
// dispatched tail that only carries the rare slow-path work (counter-
// reward hooks, filtered conditions, complex guard programs). Recheck
// sections use fixed-stride opcode records (see below); there the opcode
// *is* the monomorphized (policy × kind) pair.

/// Fire header: bits 0–15 = token-move count, bits 16–30 = count-condition
/// record count, bit 31 = generic fire (one trailing tid word).
pub(super) const HDR_GENERIC: u32 = 1 << 31;
/// Token-move place word, bit 31: add (with overflow check) instead of
/// subtract.
pub(super) const MOV_ADD: u32 = 1 << 31;
/// Token-move place word, bit 30: the index is a color slot, so the move
/// also withdraws the slot's color from (or appends it to) the place's
/// FIFO bag.
pub(super) const MOV_COLOR: u32 = 1 << 30;
/// Count-condition place word, bit 31: the condition is `count < need`
/// instead of `count >= need`. Record layout: `[place|inv, need, ci, tid|flags]`.
pub(super) const CNT_INV: u32 = 1 << 31;

// Tail ops: opcode in the low 8 bits, a 24-bit argument in the high bits,
// trailing immediate words with length implied by the opcode.

/// Tail: bump counter accumulator `arg` if past warm-up.
pub(super) const OP_HOOK: u32 = 0;
/// Tail: filtered input condition `arg`: `count_matching(word2,
/// filters[word1]) >= word3`; `word4` = tid|flags.
pub(super) const OP_C_FGE: u32 = 1;
/// Tail: filtered inhibitor condition (same layout as [`OP_C_FGE`],
/// comparison inverted).
pub(super) const OP_C_FLT: u32 = 2;
/// Tail: guard condition `arg` evaluated via compiled program `word1`;
/// `word2` = tid|flags.
pub(super) const OP_C_GUARD: u32 = 3;

// Recheck ops: `arg` = the timed transition to re-check. The opcode fully
// determines (memory policy, distribution kind); parameters are inline.
// Layout: base + kind, policy blocks of 4 (RE, RA, RS). Unlike fire ops,
// every recheck record is padded to a fixed [`RECHECK_STRIDE`]-word
// stride: the executor's common path (clock already settled, nothing to
// do) then walks the section without any opcode dispatch, and parameters
// are only decoded when a clock actually changes.

/// RaceEnable × Exponential re-check: `word1..2` = rate.
pub(super) const OP_RE_EXP: u32 = 9;
/// RaceEnable × Deterministic: `word1..2` = delay (no RNG draw).
pub(super) const OP_RE_DET: u32 = 10;
/// RaceEnable × Uniform: `word1..2` = low, `word3..4` = high.
pub(super) const OP_RE_UNI: u32 = 11;
/// RaceEnable × Erlang: `word1..2` = rate, `word3` = stage count.
pub(super) const OP_RE_ERL: u32 = 12;
/// RaceAge × Exponential (frozen-remaining handling baked in).
pub(super) const OP_RA_EXP: u32 = 13;
/// RaceAge × Deterministic.
pub(super) const OP_RA_DET: u32 = 14;
/// RaceAge × Uniform.
pub(super) const OP_RA_UNI: u32 = 15;
/// RaceAge × Erlang.
pub(super) const OP_RA_ERL: u32 = 16;
/// Resample × Exponential (redraws while enabled-and-scheduled).
pub(super) const OP_RS_EXP: u32 = 17;
/// Resample × Deterministic.
pub(super) const OP_RS_DET: u32 = 18;
/// Resample × Uniform.
pub(super) const OP_RS_UNI: u32 = 19;
/// Resample × Erlang.
pub(super) const OP_RS_ERL: u32 = 20;

/// Bit 31 of a condition op's tid word: the watched transition is
/// immediate (flips maintain the enabled-immediates index).
pub(super) const TID_IMMEDIATE: u32 = 1 << 31;

/// Fixed width of one recheck record (op word + up to two f64 parameters),
/// so the settled-skip walk needs no per-record length decoding.
pub(super) const RECHECK_STRIDE: usize = 5;

/// Split an `f64` into two immediate words (little end first).
fn push_f64(ops: &mut Vec<u32>, x: f64) {
    let b = x.to_bits();
    ops.push(b as u32);
    ops.push((b >> 32) as u32);
}

/// Reassemble an `f64` from two immediate words at `ops[i..i+2]`.
#[inline(always)]
pub(super) fn dec_f64(ops: &[u32], i: usize) -> f64 {
    f64::from_bits(ops[i] as u64 | (ops[i + 1] as u64) << 32)
}

// ---------------------------------------------------------------------------
// Reward lowering
// ---------------------------------------------------------------------------

/// One predicate step of the reward integration program, run per time
/// advance (time-averaged token counts live in
/// [`LoweredNet::integ_places`] instead).
#[derive(Debug, Clone, Copy)]
pub(super) enum IntegOp {
    /// `acc_f[acc] += dt` when `(count(place) >= need) ^ lt` holds (a
    /// `count cmp const` predicate lowered to its threshold form).
    PredCnt {
        /// Watched count index (a place, or a color slot).
        place: u32,
        /// Threshold (see [`count_cmp_threshold`]).
        need: u32,
        /// Invert the comparison (`count < need`).
        lt: bool,
        /// Target slot in the run's `f64` accumulators.
        acc: u32,
    },
    /// `acc_f[acc] += dt` when any of the counts `any_places[lo..hi]` is
    /// non-zero (an "any place non-empty" predicate, see [`any_nonempty`]).
    AnyNonEmpty {
        /// Start of the watched count indices in the side table.
        lo: u32,
        /// End of the watched count indices in the side table.
        hi: u32,
        /// Target slot in the run's `f64` accumulators.
        acc: u32,
    },
    /// `acc_f[acc] += dt` when predicate `prog` holds.
    Pred {
        /// Index into the simulator's compiled predicate programs.
        prog: u32,
        /// Target slot in the run's `f64` accumulators.
        acc: u32,
    },
}

/// How one registered reward is reported at finalize, mapping the
/// [`super::rewards::RewardId`] order onto the dense accumulator stripes.
#[derive(Debug, Clone, Copy)]
pub(super) enum LoweredReward {
    /// Time integral in `acc_f[i]`, reported as average over observed time.
    Integral(u32),
    /// Counter in `acc_c[i]`, reported as rate over observed time.
    Rate(u32),
    /// Counter in `acc_c[i]`, reported raw.
    Count(u32),
}

// ---------------------------------------------------------------------------
// The lowered program
// ---------------------------------------------------------------------------

/// A complete lowered stepping program for one (net × rewards): one
/// contiguous op arena plus the section table, the startup program, the
/// reward integration program, and the feature-specialization flags that
/// select the hot-loop instantiation.
#[derive(Debug, Clone)]
pub(crate) struct LoweredNet {
    /// The op arena. Transition `ti`'s fire section is
    /// `ops[sec[2*ti]..sec[2*ti+1]]`, its recheck section
    /// `ops[sec[2*ti+1]..sec[2*ti+2]]`.
    pub(super) ops: Vec<u32>,
    /// Section offsets, length `2 * nt + 1`.
    pub(super) sec: Vec<u32>,
    /// Startup program: the initial scheduling pass (each timed transition
    /// re-checked once, in definition order), as recheck ops.
    pub(super) init_ops: Vec<u32>,
    /// Scan scheduling selected (`nt <= SCAN_MAX_TRANSITIONS`).
    pub(super) scan: bool,
    /// Timed transitions in ascending tid order: the only clocks the scan
    /// scheduler reads (an immediate's clock is always `+inf`).
    pub(super) timed: Vec<u32>,
    /// Colored/generic features present (color-slot moves, generic fire,
    /// filtered conditions, or guard programs) — selects the hot-loop
    /// variant that carries the slow paths.
    pub(super) colored: bool,
    /// Time-averaged token-count rewards, `acc_f[acc] += count(place) *
    /// dt` per `(place, acc)` pair.
    pub(super) integ_places: Vec<(u32, u32)>,
    /// The remaining (predicate) reward integration program.
    pub(super) integ: Vec<IntegOp>,
    /// Count indices watched by [`IntegOp::AnyNonEmpty`] ops.
    pub(super) any_places: Vec<u32>,
    /// Number of `f64` accumulators per run.
    pub(super) n_integ: usize,
    /// Number of counter accumulators per run.
    pub(super) n_count: usize,
    /// Per-reward finalize mapping, in registration order.
    pub(super) reward_map: Vec<LoweredReward>,
}

impl LoweredNet {
    /// Lower `sim`'s compiled net and reward set into a flat program.
    pub(crate) fn build(sim: &Simulator<'_>) -> Self {
        let net = sim.net;
        let cs = &sim.compiled;
        let nt = net.num_transitions();
        let nc = cs.conds.len();
        let np = net.num_places();
        assert!(nc < (1 << 24), "condition index must fit a 24-bit op arg");
        // With at most 16 color slots per place, this also keeps every
        // count index clear of the move flag bits.
        assert!(np < (1 << 24), "place index must fit a 24-bit op arg");
        assert!(nt < (1 << 24), "transition index must fit a 24-bit op arg");

        // --- rewards: dense accumulator slots + finalize mapping ---
        let mut integ_places = Vec::new();
        let mut integ = Vec::new();
        let mut any_places = Vec::new();
        let mut reward_map = Vec::with_capacity(sim.rewards.len());
        let mut counter_idx = vec![u32::MAX; sim.rewards.len()];
        let (mut n_integ, mut n_count) = (0u32, 0u32);
        for (i, spec) in sim.rewards.iter().enumerate() {
            match spec {
                RewardSpec::PlaceTokens(p) => {
                    integ_places.push((p.index() as u32, n_integ));
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Predicate(e) => {
                    let prog = sim.pred_progs[i]
                        .as_ref()
                        .expect("predicate reward has a compiled program");
                    let lo = any_places.len();
                    integ.push(match count_cmp_threshold(net, prog) {
                        Some((place, lt, need)) => IntegOp::PredCnt {
                            place,
                            need,
                            lt,
                            acc: n_integ,
                        },
                        None if any_nonempty(net, e, &mut any_places) => IntegOp::AnyNonEmpty {
                            lo: lo as u32,
                            hi: any_places.len() as u32,
                            acc: n_integ,
                        },
                        None => {
                            any_places.truncate(lo);
                            IntegOp::Pred {
                                prog: i as u32,
                                acc: n_integ,
                            }
                        }
                    });
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Throughput(_) => {
                    counter_idx[i] = n_count;
                    reward_map.push(LoweredReward::Rate(n_count));
                    n_count += 1;
                }
                RewardSpec::FiringCount(_) => {
                    counter_idx[i] = n_count;
                    reward_map.push(LoweredReward::Count(n_count));
                    n_count += 1;
                }
            }
        }
        assert!(n_integ < (1 << 24) && n_count < (1 << 24));

        // --- per-transition fire + recheck sections ---
        let mut ops: Vec<u32> = Vec::new();
        let mut sec: Vec<u32> = Vec::with_capacity(2 * nt + 1);
        sec.push(0);
        let mut colored = false;
        let mut seen = vec![false; nc];
        let mut trow: Vec<u32> = Vec::new();
        let mut tail: Vec<u32> = Vec::new();
        for ti in 0..nt {
            // Header slot (counts patched once the section is laid out).
            let hdr_at = ops.len();
            ops.push(0);
            let mut hdr = 0u32;
            // Token movement: the dense plan inlined as flagged
            // (place, multiplicity) pairs, or one generic-fire tid word.
            let mut n_mov = 0u32;
            match &cs.plans[ti] {
                Some(plan) => {
                    // Count indices past the places are color slots.
                    let mut mov = |ops: &mut Vec<u32>, i: u32, m: u32, add: u32| {
                        let slot = if i as usize >= np { MOV_COLOR } else { 0 };
                        colored |= slot != 0;
                        ops.extend([i | slot | add, m]);
                        n_mov += 1;
                    };
                    let (i0, i1) = plan.ins;
                    for &(i, m) in &cs.plan_dat[i0 as usize..i1 as usize] {
                        mov(&mut ops, i, m, 0);
                    }
                    let (o0, o1) = plan.outs;
                    for &(i, m) in &cs.plan_dat[o0 as usize..o1 as usize] {
                        mov(&mut ops, i, m, MOV_ADD);
                    }
                }
                None => {
                    colored = true;
                    hdr |= HDR_GENERIC;
                    ops.push(ti as u32);
                }
            }
            assert!(n_mov < (1 << 16), "token moves must fit the header");
            // Conditions whose truth can change when `ti` fires, from the
            // precomputed first-touch row (all token moves complete before
            // any condition re-evaluation, so the flat row is equivalent
            // to the per-place walk + epoch dedup; conditions never draw
            // RNG and their flips commute, so splitting them into the
            // count segment + dispatched tail preserves bit-identity).
            trow.clear();
            for &p in cs.touched.row(ti) {
                for &ci in cs.place_conds.row(p as usize) {
                    if !seen[ci as usize] {
                        seen[ci as usize] = true;
                        trow.push(ci);
                    }
                }
            }
            for &ci in &trow {
                seen[ci as usize] = false;
            }
            let mut n_cnt = 0u32;
            tail.clear();
            for &ci in &trow {
                let cond = &cs.conds[ci as usize];
                let mut tf = cond.tid;
                if cs.hot[cond.tid as usize].kind == TimingKind::Immediate {
                    tf |= TID_IMMEDIATE;
                }
                let mut cnt_rec = |ops: &mut Vec<u32>, place: u32, inv: bool, need: u32| {
                    ops.extend([place | if inv { CNT_INV } else { 0 }, need, ci, tf]);
                    n_cnt += 1;
                };
                match cond.kind {
                    COND_INPUT_ANY => cnt_rec(&mut ops, cond.place, false, cond.need),
                    COND_INHIB_ANY => cnt_rec(&mut ops, cond.place, true, cond.need),
                    COND_INPUT_FILTERED => {
                        colored = true;
                        tail.extend([OP_C_FGE | ci << 8, cond.aux, cond.place, cond.need, tf]);
                    }
                    COND_INHIB_FILTERED => {
                        colored = true;
                        tail.extend([OP_C_FLT | ci << 8, cond.aux, cond.place, cond.need, tf]);
                    }
                    COND_GUARD => {
                        // A `count(p) cmp const` guard lowers to the same
                        // threshold record as a plain arc condition; only
                        // structurally complex guards keep the compiled
                        // postfix program (and force the slow-path
                        // hot-loop variant).
                        match count_cmp_threshold(net, &cs.guards[cond.aux as usize]) {
                            Some((p, inv, need)) => cnt_rec(&mut ops, p, inv, need),
                            None => {
                                colored = true;
                                tail.extend([OP_C_GUARD | ci << 8, cond.aux, tf]);
                            }
                        }
                    }
                    _ => unreachable!("invalid condition kind"),
                }
            }
            assert!(n_cnt < (1 << 15), "count conditions must fit the header");
            ops.extend_from_slice(&tail);
            // Counter-reward hooks (post-warmup increments).
            for &ri in &sim.firing_hooks[ti] {
                ops.push(OP_HOOK | counter_idx[ri as usize] << 8);
            }
            ops[hdr_at] = hdr | n_mov | n_cnt << 16;
            sec.push(ops.len() as u32);

            // Recheck section: monomorphized (policy × kind) ops over the
            // compiled recheck row (reference traversal order).
            for &t2 in cs.recheck_timed.row(ti) {
                emit_recheck(&mut ops, cs, t2);
            }
            sec.push(ops.len() as u32);
        }

        // Startup program: the reference engine's initial pass re-checks every
        // timed transition in definition order.
        let timed: Vec<u32> = (0..nt as u32)
            .filter(|&t2| cs.hot[t2 as usize].kind != TimingKind::Immediate)
            .collect();
        let mut init_ops = Vec::new();
        for &t2 in &timed {
            emit_recheck(&mut init_ops, cs, t2);
        }

        LoweredNet {
            ops,
            sec,
            init_ops,
            scan: nt <= SCAN_MAX_TRANSITIONS,
            timed,
            colored,
            integ_places,
            integ,
            any_places,
            n_integ: n_integ as usize,
            n_count: n_count as usize,
            reward_map,
        }
    }
}

/// Emit the monomorphized re-check record for timed transition `t2`,
/// padded to [`RECHECK_STRIDE`] words.
fn emit_recheck(ops: &mut Vec<u32>, cs: &CompiledSim, t2: u32) {
    let hot = &cs.hot[t2 as usize];
    let kind = match hot.kind {
        TimingKind::Exponential => 0,
        TimingKind::Deterministic => 1,
        TimingKind::Uniform => 2,
        TimingKind::Erlang => 3,
        TimingKind::Immediate => unreachable!("immediates are never re-checked"),
    };
    let policy = match hot.memory {
        MemoryPolicy::RaceEnable => 0,
        MemoryPolicy::RaceAge => 1,
        MemoryPolicy::Resample => 2,
    };
    let start = ops.len();
    ops.push((OP_RE_EXP + 4 * policy + kind) | t2 << 8);
    match hot.kind {
        TimingKind::Exponential | TimingKind::Deterministic => push_f64(ops, hot.a),
        TimingKind::Uniform => {
            push_f64(ops, hot.a);
            push_f64(ops, hot.b);
        }
        TimingKind::Erlang => {
            push_f64(ops, hot.a);
            ops.push(hot.k);
        }
        TimingKind::Immediate => unreachable!(),
    }
    ops.resize(start + RECHECK_STRIDE, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::ColorExpr;
    use crate::builder::NetBuilder;
    use crate::sim::SimConfig;
    use crate::timing::Timing;
    use crate::token::{Color, ColorFilter};

    /// Every fire-section op of `lw` that leaves the dense count path
    /// (generic fires and tail ops other than counter hooks), by
    /// transition, plus the number of color-slot moves.
    fn slow_paths(lw: &LoweredNet) -> (Vec<(usize, &'static str)>, usize) {
        let mut slow = Vec::new();
        let mut color_moves = 0;
        for ti in 0..(lw.sec.len() - 1) / 2 {
            let ops = &lw.ops[lw.sec[2 * ti] as usize..lw.sec[2 * ti + 1] as usize];
            let hdr = ops[0];
            let mut pc = 1;
            if hdr & HDR_GENERIC != 0 {
                slow.push((ti, "HDR_GENERIC"));
                pc += 1;
            }
            let n_mov = (hdr & 0xffff) as usize;
            color_moves += ops[pc..pc + 2 * n_mov]
                .chunks_exact(2)
                .filter(|m| m[0] & MOV_COLOR != 0)
                .count();
            pc += 2 * n_mov + 4 * ((hdr >> 16) & 0x7fff) as usize;
            while pc < ops.len() {
                let (name, len) = match ops[pc] & 0xff {
                    OP_HOOK => ("", 1),
                    OP_C_FGE => ("OP_C_FGE", 5),
                    OP_C_FLT => ("OP_C_FLT", 5),
                    OP_C_GUARD => ("OP_C_GUARD", 3),
                    op => panic!("unknown tail op {op}"),
                };
                if !name.is_empty() {
                    slow.push((ti, name));
                }
                pc += len;
            }
        }
        (slow, color_moves)
    }

    /// The paper's Fig. 12 node SCPN in miniature, with every shape the
    /// node model uses: colored `Const` job deposits into `Buffer`,
    /// `Eq`-filtered DVS withdrawals (including levels no transition ever
    /// deposits), the conjunctive `cpu_done` guard, `count cmp const`
    /// guards on the colored buffer, and the node model's reward set.
    #[test]
    fn node_scpn_shapes_lower_to_dense_count_ops() {
        use crate::expr::Expr;
        let mut b = NetBuilder::new("node-shapes");
        let wait = b.place("Wait").tokens(1).build();
        let rx_start = b.place("RxStart").build();
        let rx_data = b.place("RxData").build();
        let rx_handle = b.place("RxHandle").build();
        let comp_handle = b.place("CompHandle").build();
        let tx_start = b.place("TxStart").build();
        let tx_handle = b.place("TxHandle").build();
        let buffer = b.place("Buffer").build();
        let cpu_sleep = b.place("Cpu_Sleep").tokens(1).build();
        let cpu_wake = b.place("Cpu_Wake").build();
        let cpu_idle = b.place("Cpu_Idle").build();
        let cpu_active = b.place("Cpu_Active").build();
        let (comm, comp) = (Color(2), Color(4));
        let cpu_done = || {
            Expr::count(buffer)
                .eq_c(0)
                .and(Expr::count(cpu_idle).gt_c(0))
        };
        let cycle_start = b
            .transition("T0", Timing::deterministic(1.0))
            .input(wait, 1)
            .output(rx_start, 1)
            .build();
        b.transition("Listen_R", Timing::deterministic(0.01))
            .input(rx_start, 1)
            .output(rx_data, 1)
            .build();
        b.transition("Transmitting_Receiving_R", Timing::deterministic(0.005))
            .input(rx_data, 1)
            .output(rx_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(comm))
            .build();
        b.transition("T17", Timing::immediate_pri(1))
            .input(rx_handle, 1)
            .output(comp_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(comp))
            .guard(cpu_done())
            .build();
        let comp_done = b
            .transition("T19", Timing::immediate_pri(1))
            .input(comp_handle, 1)
            .output(tx_start, 1)
            .guard(cpu_done())
            .build();
        b.transition("Transmitting_Receiving_T", Timing::deterministic(0.015))
            .input(tx_start, 1)
            .output(tx_handle, 1)
            .output_colored(buffer, 1, ColorExpr::Const(comm))
            .build();
        b.transition("Wait_Begin", Timing::immediate_pri(1))
            .input(tx_handle, 1)
            .output(wait, 1)
            .guard(cpu_done())
            .build();
        let cpu_wakeup = b
            .transition("Cpu_T1", Timing::immediate_pri(4))
            .input(cpu_sleep, 1)
            .output(cpu_wake, 1)
            .guard(Expr::count(buffer).gt_c(0))
            .build();
        b.transition("Power_Up_Delay", Timing::deterministic(0.002))
            .input(cpu_wake, 1)
            .output(cpu_idle, 1)
            .build();
        b.transition("Cpu_T5", Timing::immediate_pri(2))
            .input(cpu_idle, 1)
            .output(cpu_active, 1)
            .guard(Expr::count(buffer).gt_c(0))
            .build();
        b.transition("Cpu_T6", Timing::immediate_pri(3))
            .input(cpu_active, 1)
            .output(cpu_idle, 1)
            .guard(Expr::count(buffer).eq_c(0))
            .build();
        for level in [1, 2, 3, 4] {
            b.transition(format!("DVS_{level}"), Timing::deterministic(0.003))
                .input(cpu_active, 1)
                .input_filtered(buffer, 1, ColorFilter::Eq(Color(level)))
                .output(cpu_active, 1)
                .build();
        }
        b.transition("Power_Down_Threshold", Timing::deterministic(0.1))
            .input(cpu_idle, 1)
            .output(cpu_sleep, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(50.0).with_trace(64));
        for p in [cpu_sleep, cpu_wake, cpu_idle, cpu_active] {
            sim.reward_place(p);
        }
        sim.reward_predicate(Expr::count(wait).gt_c(0)).unwrap();
        sim.reward_predicate(
            Expr::count(rx_start)
                .gt_c(0)
                .or(Expr::count(tx_start).gt_c(0)),
        )
        .unwrap();
        sim.reward_predicate(
            Expr::count(rx_data)
                .add(Expr::count(rx_handle))
                .add(Expr::count(tx_handle))
                .gt_c(0),
        )
        .unwrap();
        sim.reward_predicate(Expr::count(comp_handle).gt_c(0))
            .unwrap();
        for t in [cycle_start, comp_done, cpu_wakeup] {
            sim.reward_firings(t);
        }

        let lw = LoweredNet::build(&sim);
        let (slow, color_moves) = slow_paths(&lw);
        assert!(slow.is_empty(), "slow-path ops left: {slow:?}");
        // Three Const deposits and four Eq withdrawals on `Buffer`.
        assert_eq!(color_moves, 7);
        assert!(lw.colored, "color-slot moves need the colored variant");
        assert!(
            !lw.integ.iter().any(|op| matches!(op, IntegOp::Pred { .. })),
            "{:?}",
            lw.integ
        );
        assert_eq!(
            lw.integ
                .iter()
                .filter(|op| matches!(op, IntegOp::AnyNonEmpty { .. }))
                .count(),
            2
        );
        // And the dense program still runs the reference engine's
        // trajectory.
        for seed in 0..4 {
            let (a, b) = (sim.run(seed).unwrap(), sim.run_reference(seed).unwrap());
            assert_eq!(a.rewards, b.rewards);
            assert_eq!(a.firing_counts, b.firing_counts);
            assert_eq!(a.final_marking, b.final_marking);
            assert_eq!(a.trace, b.trace);
        }
    }

    /// The shapes that must stay on the generic path still do: a real
    /// `Choice` deposit (it draws from the RNG), an `In` filter over two
    /// colors, a `!=` comparison against a nonzero constant, and a
    /// predicate that is not an "any place non-empty" shape.
    #[test]
    fn rng_and_multi_color_shapes_stay_generic() {
        use crate::expr::Expr;
        let mut b = NetBuilder::new("generic");
        let src = b.place("src").build();
        let sink = b.place("sink").build();
        b.transition("gen", Timing::exponential(1.0))
            .output_colored(
                src,
                1,
                ColorExpr::Choice(vec![(Color(1), 1.0), (Color(2), 1.0)]),
            )
            .build();
        b.transition("take", Timing::exponential(2.0))
            .input_filtered(src, 1, ColorFilter::In(vec![Color(1), Color(2)]))
            .output(sink, 1)
            .guard(Expr::count(sink).ne(Expr::constant(3)))
            .build();
        b.transition("drain", Timing::exponential(3.0))
            .input(sink, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(20.0));
        sim.reward_predicate(Expr::count(src).add(Expr::count(sink)).gt_c(1))
            .unwrap();
        let lw = LoweredNet::build(&sim);
        let (slow, _) = slow_paths(&lw);
        for want in ["HDR_GENERIC", "OP_C_FGE", "OP_C_GUARD"] {
            assert!(
                slow.iter().any(|&(_, s)| s == want),
                "{want} missing: {slow:?}"
            );
        }
        assert!(matches!(lw.integ[..], [IntegOp::Pred { .. }]));
    }

    #[test]
    fn f64_immediates_round_trip() {
        for x in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, 1e-300, -42.25] {
            let mut ops = Vec::new();
            push_f64(&mut ops, x);
            assert_eq!(dec_f64(&ops, 0).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn sections_are_contiguous_and_cover_the_arena() {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(0.8))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(10.0));
        sim.reward_place(crate::ids::PlaceId::from_index(0));
        let lw = LoweredNet::build(&sim);
        assert_eq!(lw.sec.len(), 2 * net.num_transitions() + 1);
        assert_eq!(lw.sec[0], 0);
        assert!(lw.sec.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*lw.sec.last().unwrap() as usize, lw.ops.len());
        assert!(lw.scan);
        assert!(!lw.colored);
        assert_eq!(lw.n_integ, 1);
        assert_eq!(lw.integ_places, [(0, 0)]);
        assert!(lw.integ.is_empty());
        assert_eq!(lw.timed, [0, 1]);
        assert_eq!(lw.n_count, 0);
        // Two exponential RaceEnable transitions: the startup program is
        // two stride-padded OP_RE_EXP records with inline rates.
        assert_eq!(lw.init_ops.len(), 2 * RECHECK_STRIDE);
        assert_eq!(lw.init_ops[0] & 0xff, OP_RE_EXP);
        assert_eq!(dec_f64(&lw.init_ops, 1), 0.8);
        assert_eq!(lw.init_ops[RECHECK_STRIDE] & 0xff, OP_RE_EXP);
        assert_eq!(dec_f64(&lw.init_ops, RECHECK_STRIDE + 1), 1.0);
    }
}
