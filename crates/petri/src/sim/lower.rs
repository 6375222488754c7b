//! The lowering pass: the one compile step from a [`Net`] (plus its reward
//! set and [`SimConfig`]) to the flat micro-op program that the lowered
//! engine ([`super::lowered`]) executes directly.
//!
//! [`LoweredNet::build`] walks the net once. Every decision that is
//! invariant for a given net is made here, **once per simulator**, and
//! serialized into one contiguous `u32` arena; the intermediate tables it
//! needs along the way (condition records, the place → condition index,
//! count firing plans, re-check rows) are locals of the pass:
//!
//! * **Enabling conditions.** Every input arc, inhibitor arc and top-level
//!   guard conjunct becomes a condition record. Filters on provably
//!   uncolored places fold away; a filter that can select only one color
//!   of a slotted colored place, and a guard conjunct of the form
//!   `count cmp const`, become a threshold on one entry of the marking's
//!   count vector.
//! * Each transition gets a **fire section** — SUB/ADD count ops on places
//!   and color slots (or one generic-fire op for transitions that need an
//!   RNG draw or a multi-color filter) followed by inline condition
//!   re-evaluation ops (place, threshold, and watching transition baked
//!   into the op stream, in a first-touch order that visits each condition
//!   once) and counter-reward hook ops.
//! * Each transition gets a **recheck section** — one op per timed
//!   transition whose clock may need attention after the firing, in
//!   exactly the reference engine's traversal order (that order decides
//!   which transition consumes which RNG draw), with the *(memory policy ×
//!   distribution kind)* pair monomorphized into the opcode itself and the
//!   distribution parameters inlined as immediate words. An exponential
//!   RaceEnable re-check is a single opcode.
//! * A **startup program** replays the reference engine's initial
//!   scheduling pass (every timed transition re-checked in definition
//!   order), and the **start state** — which conditions hold, which
//!   transitions are enabled, and the enabled immediates in tid order — is
//!   evaluated once on the initial marking, for every run to clone.
//! * Time-based rewards become a flat `(place, accumulator)` table for
//!   time-averaged token counts plus a short integration program for
//!   predicates (single comparisons and "any place non-empty" predicates
//!   read counts directly); counter rewards become hook ops.
//!
//! The program encodes *what the reference engine does*, in the exact same
//! order, drawing from the RNG at the exact same points — the lowered
//! engine's outputs are bit-identical to the reference engine's, which
//! `tests/lowered_differential.rs` proves on every variant. Feature
//! specialization (colored-vs-count-only firing) is selected once per net
//! and baked into const-generic instantiations of the hot loop, so the
//! per-event path has no dynamic dispatch left.

use super::engine::{effective_token_limit, SimConfig};
use super::rewards::RewardSpec;
use crate::arc::{ColorExpr, InputArc};
use crate::expr::{CmpOp, CompiledExpr, Expr};
use crate::ids::PlaceId;
use crate::net::{ColorCountAt, Net};
use crate::timing::{MemoryPolicy, Timing};
use crate::token::{Color, ColorFilter};
use crate::transition::Transition;
use std::sync::Arc;

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

/// Collect the top-level conjuncts of `e` (`e` itself unless it is an
/// `And`), left to right.
fn split_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::And(a, b) => {
            split_conjuncts(a, out);
            split_conjuncts(b, out);
        }
        _ => out.push(e),
    }
}

/// The one color `filter` can select in colored place `p`: the `Eq`
/// filter's color, or the only slotted color the filter matches (a place's
/// slots cover its whole color domain).
fn single_color(net: &Net, p: PlaceId, filter: &ColorFilter) -> Option<Color> {
    if let ColorFilter::Eq(c) = filter {
        return Some(*c);
    }
    let mut matching = net.slot_colors(p).iter().filter(|&&c| filter.matches(c));
    match (matching.next(), matching.next()) {
        (Some(&c), None) => Some(c),
        _ => None,
    }
}

/// The color a transition's input arc withdraws, when it is known at
/// compile time: plain for a count-only place whose filter admits plain
/// tokens, the [`single_color`] for a colored place.
fn withdrawn_color(net: &Net, a: &InputArc) -> Option<Color> {
    if net.place_may_hold_colors(a.place) {
        single_color(net, a.place, &a.filter)
    } else {
        a.filter.matches(Color::NONE).then_some(Color::NONE)
    }
}

/// Fill `plan` with a transition's count firing plan — (count index,
/// multiplicity) pairs for its input arcs, then its output arcs, in arc
/// order — when every arc resolves to one dense count: input arcs with a
/// [`withdrawn_color`] that has a count, and output colors that are
/// constant, a one-entry `Choice` (which draws no RNG), or a `Transfer`
/// from such an input. `None` sends the transition down the generic path.
fn count_plan(net: &Net, t: &Transition, plan: &mut Vec<(u32, u32)>) -> Option<()> {
    plan.clear();
    let at = |p: PlaceId, c: Option<Color>| match net.color_count_at(p, c?) {
        ColorCountAt::Dense(i) => Some(i),
        _ => None,
    };
    for a in &t.inputs {
        plan.push((at(a.place, withdrawn_color(net, a))?, a.multiplicity));
    }
    for a in &t.outputs {
        let c = match &a.color {
            ColorExpr::Const(c) => Some(*c),
            ColorExpr::Choice(pairs) if pairs.len() == 1 => Some(pairs[0].0),
            // A real Choice consumes an RNG draw; keep the generic path so
            // the stream stays aligned.
            ColorExpr::Choice(_) => None,
            ColorExpr::Transfer { arc_index } => withdrawn_color(net, &t.inputs[*arc_index]),
        };
        plan.push((at(a.place, c)?, a.multiplicity));
    }
    Some(())
}

/// What one enabling condition tests. A transition is enabled iff all of
/// its conditions hold; the engine tracks the number of currently-false
/// conditions per transition.
enum Test {
    /// `(count(idx) >= need) != inv` on one entry of the count vector (a
    /// place total or a color slot): an arc, or a guard conjunct reduced
    /// by [`count_cmp_threshold`].
    Count { idx: u32, need: u32, inv: bool },
    /// The same over `count_matching(place, filters[filter])`.
    Filtered {
        place: u32,
        filter: u32,
        need: u32,
        inv: bool,
    },
    /// Guard conjunct program `guards[prog]`.
    Guard(u32),
}

/// The condition an input (`inv = false`) or inhibitor (`inv = true`) arc
/// on `place` contributes, or `None` when its filter can never match: an
/// input arc then keeps its transition dead, an inhibitor never trips.
fn arc_test(
    net: &Net,
    place: PlaceId,
    filter: &ColorFilter,
    need: u32,
    inv: bool,
    filters: &mut Vec<ColorFilter>,
) -> Option<Test> {
    let p = place.index() as u32;
    match (filter, net.place_may_hold_colors(place)) {
        (ColorFilter::Any, _) => Some(Test::Count { idx: p, need, inv }),
        (f, true) => match single_color(net, place, f).map(|c| net.color_count_at(place, c)) {
            // One color slot holds every token the filter can match: a
            // plain threshold on that count.
            Some(ColorCountAt::Dense(idx)) => Some(Test::Count { idx, need, inv }),
            Some(ColorCountAt::AlwaysZero) => None,
            _ => {
                filters.push(f.clone());
                Some(Test::Filtered {
                    place: p,
                    filter: (filters.len() - 1) as u32,
                    need,
                    inv,
                })
            }
        },
        (f, false) if f.matches(Color::NONE) => Some(Test::Count { idx: p, need, inv }),
        _ => None,
    }
}

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

// Per-transition scheduling state byte: lets the post-firing re-check ops
// skip settled transitions on a single byte compare.
/// Transition is enabled (unsatisfied-condition counter is zero).
pub(super) const ST_ENABLED: u8 = 0b001;
/// Transition has a pending event.
pub(super) const ST_SCHEDULED: u8 = 0b010;
/// Transition has the Resample memory policy (static).
pub(super) const ST_RESAMPLE: u8 = 0b100;

/// `imm_pos` entry of an immediate that is not in the enabled index.
pub(super) const NOT_QUEUED: u32 = u32::MAX;

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
    /// `acc_f[acc] += dt` when predicate program `preds[prog]` holds.
    Pred {
        /// Index of the reward, and of its program in [`LoweredNet::preds`].
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

/// The enabling state every run starts from. It depends only on the net's
/// initial marking, so lowering evaluates it once and each run clones it.
#[derive(Debug, Clone)]
pub(super) struct StartState {
    /// Truth of each condition, by condition index.
    pub(super) cond_true: Vec<bool>,
    /// Number of false conditions per transition (zero = enabled), plus
    /// one per input arc whose filter can never match.
    pub(super) unsat: Vec<u32>,
    /// [`ST_ENABLED`] and [`ST_RESAMPLE`] bits per transition.
    pub(super) sched_state: Vec<u8>,
    /// The enabled-immediates index: the first `imm_len` entries are the
    /// enabled immediates in tid order; the vector has one entry per
    /// immediate.
    pub(super) enabled_imm: Vec<u32>,
    pub(super) imm_len: u32,
    /// Position of each transition in `enabled_imm`, or [`NOT_QUEUED`].
    pub(super) imm_pos: Vec<u32>,
}

/// A complete lowered stepping program for one (net × rewards × config):
/// one contiguous op arena plus the section table, the startup program and
/// start state, the reward integration program, the side tables the slow
/// paths read, the run limits, and the feature-specialization flags that
/// select the hot-loop instantiation. Runs read nothing else from the
/// simulator (the generic firing path and the debug oracles read the
/// [`Net`]).
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
    /// Timed transitions in ascending tid order: the only clocks the
    /// next-event scan reads (an immediate's clock is always `+inf`).
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
    /// Color filters of [`OP_C_FGE`] / [`OP_C_FLT`] conditions.
    pub(super) filters: Vec<ColorFilter>,
    /// Guard conjunct programs, one per guard condition ([`OP_C_GUARD`]).
    pub(super) guards: Vec<CompiledExpr>,
    /// Predicate programs by reward index, for [`IntegOp::Pred`].
    pub(super) preds: Vec<Option<CompiledExpr>>,
    /// `(priority, weight)` by tid, for immediate conflict resolution.
    pub(super) imm_choice: Vec<(u8, f64)>,
    /// Scratch stack the largest guard or predicate program needs.
    pub(super) stack_len: usize,
    /// The enabling state at time zero, before the startup program.
    pub(super) start: StartState,
    /// Rewards accumulate from this time on ([`SimConfig::warmup`]).
    pub(super) warmup: f64,
    /// [`SimConfig::max_zero_time_firings`].
    pub(super) max_zero: u64,
    /// The token bound enforced ([`effective_token_limit`]).
    pub(super) max_tokens: usize,
    /// The token bound reported in overflow errors
    /// ([`SimConfig::max_tokens_per_place`]).
    pub(super) token_limit: usize,
    /// What a step record of this program depends on ([`shape`]).
    pub(super) shape: Arc<[u32]>,
}

impl LoweredNet {
    /// Bounds of transition `ti`'s fire and recheck sections in
    /// [`LoweredNet::ops`] — `(fire_start, fire_end, recheck_end)`,
    /// fetched with one bounds-checked access per fired event.
    #[inline(always)]
    pub(super) fn sections(&self, ti: usize) -> (usize, usize, usize) {
        let s = &self.sec[2 * ti..2 * ti + 3];
        (s[0] as usize, s[1] as usize, s[2] as usize)
    }

    /// Lower `net`, its reward set and its run limits into a flat program.
    pub(crate) fn build(net: &Net, rewards: &[RewardSpec], cfg: &SimConfig) -> Self {
        let nt = net.num_transitions();
        let np = net.num_places();
        let trans = net.transitions();
        // With at most 16 color slots per place, this also keeps every
        // count index clear of the move flag bits.
        assert!(np < (1 << 24), "place index must fit a 24-bit op arg");
        assert!(nt < (1 << 24), "transition index must fit a 24-bit op arg");

        // --- rewards: dense accumulator slots + finalize mapping ---
        let mut integ_places = Vec::new();
        let mut integ = Vec::new();
        let mut any_places = Vec::new();
        let mut preds = vec![None; rewards.len()];
        let mut reward_map = Vec::with_capacity(rewards.len());
        // Counter accumulators bumped when each transition fires.
        let mut hooks: Vec<Vec<u32>> = vec![Vec::new(); nt];
        let (mut n_integ, mut n_count) = (0u32, 0u32);
        for (i, spec) in rewards.iter().enumerate() {
            match spec {
                RewardSpec::PlaceTokens(p) => {
                    integ_places.push((p.index() as u32, n_integ));
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Predicate(e) => {
                    let prog = CompiledExpr::compile(e);
                    let lo = any_places.len();
                    integ.push(match count_cmp_threshold(net, &prog) {
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
                            preds[i] = Some(prog);
                            IntegOp::Pred {
                                prog: i as u32,
                                acc: n_integ,
                            }
                        }
                    });
                    reward_map.push(LoweredReward::Integral(n_integ));
                    n_integ += 1;
                }
                RewardSpec::Throughput(t) | RewardSpec::FiringCount(t) => {
                    hooks[t.index()].push(n_count);
                    reward_map.push(if matches!(spec, RewardSpec::Throughput(_)) {
                        LoweredReward::Rate(n_count)
                    } else {
                        LoweredReward::Count(n_count)
                    });
                    n_count += 1;
                }
            }
        }
        assert!(n_integ < (1 << 24) && n_count < (1 << 24));

        // --- enabling conditions, indexed by the places they read ---
        let mut conds: Vec<(u32, Test)> = Vec::new();
        let mut filters = Vec::new();
        let mut guards: Vec<CompiledExpr> = Vec::new();
        let mut place_conds: Vec<Vec<u32>> = vec![Vec::new(); np];
        let mut unsat = vec![0u32; nt];
        let mut conjuncts: Vec<&Expr> = Vec::new();
        let mut guard_places: Vec<PlaceId> = Vec::new();
        for (ti, t) in trans.iter().enumerate() {
            let tid = ti as u32;
            let inputs = t
                .inputs
                .iter()
                .map(|a| (a.place, &a.filter, a.multiplicity, false));
            let inhibitors = t
                .inhibitors
                .iter()
                .map(|a| (a.place, &a.filter, a.threshold, true));
            for (place, filter, need, inv) in inputs.chain(inhibitors) {
                match arc_test(net, place, filter, need, inv, &mut filters) {
                    Some(test) => {
                        place_conds[place.index()].push(conds.len() as u32);
                        conds.push((tid, test));
                    }
                    // An input arc no token can satisfy: structurally dead.
                    None if !inv => unsat[ti] += 1,
                    None => {}
                }
            }
            // A guard's top-level conjuncts become separate conditions,
            // each watching only its own places: the unsat counter ANDs
            // them, and a conjunct of the form `count cmp const` lowers to
            // a plain count threshold.
            if let Some(g) = &t.guard {
                conjuncts.clear();
                split_conjuncts(g, &mut conjuncts);
                for conj in &conjuncts {
                    let prog = CompiledExpr::compile(conj);
                    let test = match count_cmp_threshold(net, &prog) {
                        Some((idx, inv, need)) => Test::Count { idx, need, inv },
                        None => Test::Guard(guards.len() as u32),
                    };
                    guards.push(prog);
                    guard_places.clear();
                    conj.collect_places(&mut guard_places);
                    guard_places.sort_unstable();
                    guard_places.dedup();
                    for gp in &guard_places {
                        place_conds[gp.index()].push(conds.len() as u32);
                    }
                    conds.push((tid, test));
                }
            }
        }
        let nc = conds.len();
        assert!(nc < (1 << 24), "condition index must fit a 24-bit op arg");
        let is_imm = |t: u32| trans[t as usize].timing.is_immediate();
        let resamplers: Vec<u32> = (0..nt as u32)
            .filter(|&t| !is_imm(t) && trans[t as usize].memory == MemoryPolicy::Resample)
            .collect();

        // --- per-transition fire + recheck sections ---
        let mut ops: Vec<u32> = Vec::new();
        let mut sec: Vec<u32> = Vec::with_capacity(2 * nt + 1);
        sec.push(0);
        let mut colored = false;
        let mut seen_cond = vec![false; nc];
        let mut seen_t = vec![false; nt];
        let mut plan: Vec<(u32, u32)> = Vec::new();
        let mut touched: Vec<u32> = Vec::new();
        let mut row: Vec<u32> = Vec::new();
        let mut tail: Vec<u32> = Vec::new();
        for (ti, t) in trans.iter().enumerate() {
            // Header slot (counts patched once the section is laid out).
            let hdr_at = ops.len();
            ops.push(0);
            let mut hdr = 0u32;
            // Token movement: the count plan inlined as flagged
            // (place, multiplicity) pairs, or one generic-fire tid word.
            let mut n_mov = 0u32;
            if count_plan(net, t, &mut plan).is_some() {
                for (k, &(i, m)) in plan.iter().enumerate() {
                    // Count indices past the places are color slots.
                    let slot = if i as usize >= np { MOV_COLOR } else { 0 };
                    let add = if k >= t.inputs.len() { MOV_ADD } else { 0 };
                    colored |= slot != 0;
                    ops.extend([i | slot | add, m]);
                }
                n_mov = plan.len() as u32;
            } else {
                colored = true;
                hdr |= HDR_GENERIC;
                ops.push(ti as u32);
            }
            assert!(n_mov < (1 << 16), "token moves must fit the header");
            // The places whose count the firing changes (inputs then
            // outputs, first occurrence kept), and the conditions watching
            // them in first-touch order (all token moves complete before
            // any condition re-evaluation, so the flat row is equivalent
            // to a per-place walk; conditions never draw RNG and their
            // flips commute, so splitting them into the count segment +
            // dispatched tail preserves bit-identity).
            touched.clear();
            for a in t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place))
            {
                let p = a.index() as u32;
                if !touched.contains(&p) {
                    touched.push(p);
                }
            }
            row.clear();
            for &p in &touched {
                for &ci in &place_conds[p as usize] {
                    if !seen_cond[ci as usize] {
                        seen_cond[ci as usize] = true;
                        row.push(ci);
                    }
                }
            }
            let mut n_cnt = 0u32;
            tail.clear();
            for &ci in &row {
                seen_cond[ci as usize] = false;
                let (tid, test) = &conds[ci as usize];
                let tf = *tid | if is_imm(*tid) { TID_IMMEDIATE } else { 0 };
                match *test {
                    Test::Count { idx, need, inv } => {
                        ops.extend([idx | if inv { CNT_INV } else { 0 }, need, ci, tf]);
                        n_cnt += 1;
                    }
                    Test::Filtered {
                        place,
                        filter,
                        need,
                        inv,
                    } => {
                        colored = true;
                        let op = if inv { OP_C_FLT } else { OP_C_FGE };
                        tail.extend([op | ci << 8, filter, place, need, tf]);
                    }
                    // Only structurally complex guards keep the compiled
                    // postfix program (and force the slow-path hot-loop
                    // variant).
                    Test::Guard(prog) => {
                        colored = true;
                        tail.extend([OP_C_GUARD | ci << 8, prog, tf]);
                    }
                }
            }
            assert!(n_cnt < (1 << 15), "count conditions must fit the header");
            ops.extend_from_slice(&tail);
            // Counter-reward hooks (post-warmup increments).
            ops.extend(hooks[ti].iter().map(|&c| OP_HOOK | c << 8));
            ops[hdr_at] = hdr | n_mov | n_cnt << 16;
            sec.push(ops.len() as u32);

            // Recheck section, in the reference engine's order: the
            // transitions watching each place an arc touches, then the
            // fired transition itself (its clock was consumed by firing),
            // then every Resample transition (they re-sample on every
            // marking change), each once. Only timed transitions are
            // re-scheduled: the reference engine skips immediates here
            // too, drawing no RNG.
            row.clear();
            let arc_places = t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place));
            let watchers = arc_places.flat_map(|p| net.affected_by(p).iter().map(|t2| t2.0));
            for t2 in watchers
                .chain([ti as u32])
                .chain(resamplers.iter().copied())
            {
                if !seen_t[t2 as usize] {
                    seen_t[t2 as usize] = true;
                    row.push(t2);
                }
            }
            for &t2 in &row {
                seen_t[t2 as usize] = false;
                if !is_imm(t2) {
                    emit_recheck(&mut ops, &trans[t2 as usize], t2);
                }
            }
            sec.push(ops.len() as u32);
        }

        // Startup program: the reference engine's initial pass re-checks
        // every timed transition in definition order.
        let timed: Vec<u32> = (0..nt as u32).filter(|&t| !is_imm(t)).collect();
        let mut init_ops = Vec::new();
        for &t2 in &timed {
            emit_recheck(&mut init_ops, &trans[t2 as usize], t2);
        }

        // --- start state: every condition on the initial marking ---
        let stack_len = guards
            .iter()
            .chain(preds.iter().flatten())
            .map(CompiledExpr::stack_needed)
            .max()
            .unwrap_or(0);
        let marking = net.initial_marking();
        let mut stack = Vec::with_capacity(stack_len);
        let cond_true: Vec<bool> = conds
            .iter()
            .map(|(tid, test)| {
                let holds = match *test {
                    Test::Count { idx, need, inv } => (marking.count_raw(idx) >= need) != inv,
                    Test::Filtered {
                        place,
                        filter,
                        need,
                        inv,
                    } => {
                        let n = marking.count_matching(PlaceId(place), &filters[filter as usize]);
                        (n >= need as usize) != inv
                    }
                    Test::Guard(prog) => guards[prog as usize].eval_bool(&marking, &mut stack),
                };
                unsat[*tid as usize] += !holds as u32;
                holds
            })
            .collect();
        let mut sched_state = vec![0u8; nt];
        let mut enabled_imm = Vec::new();
        let mut imm_pos = vec![NOT_QUEUED; nt];
        let mut imm_choice = vec![(0u8, 0.0f64); nt];
        for (ti, t) in trans.iter().enumerate() {
            let enabled = unsat[ti] == 0;
            if let Timing::Immediate { priority, weight } = t.timing {
                imm_choice[ti] = (priority, weight);
                if enabled {
                    imm_pos[ti] = enabled_imm.len() as u32;
                    enabled_imm.push(ti as u32);
                }
            } else if t.memory == MemoryPolicy::Resample {
                sched_state[ti] = ST_RESAMPLE;
            }
            if enabled {
                sched_state[ti] |= ST_ENABLED;
            }
        }
        let imm_len = enabled_imm.len() as u32;
        enabled_imm.resize(trans.iter().filter(|t| t.timing.is_immediate()).count(), 0);

        let mut lw = LoweredNet {
            ops,
            sec,
            init_ops,
            timed,
            colored,
            integ_places,
            integ,
            any_places,
            n_integ: n_integ as usize,
            n_count: n_count as usize,
            reward_map,
            filters,
            guards,
            preds,
            imm_choice,
            stack_len,
            start: StartState {
                cond_true,
                unsat,
                sched_state,
                enabled_imm,
                imm_len,
                imm_pos,
            },
            warmup: cfg.warmup,
            max_zero: cfg.max_zero_time_firings,
            max_tokens: effective_token_limit(cfg),
            token_limit: cfg.max_tokens_per_place,
            shape: Arc::default(),
        };
        lw.shape = shape(net, &lw, marking.counts().len());
        lw
    }
}

/// Append `ws` to `out` behind its length.
fn field(out: &mut Vec<u32>, ws: impl IntoIterator<Item = u32>) {
    let at = out.len();
    out.push(0);
    out.extend(ws);
    out[at] = (out.len() - at - 1) as u32;
}

/// Zero the timing parameters (rate, delay, uniform bounds) of each
/// re-check record in `recs`; an Erlang record keeps its stage count.
fn zero_timing(recs: &mut [u32]) {
    for rec in recs.chunks_exact_mut(RECHECK_STRIDE) {
        // Kinds 0..4 are exponential, deterministic, uniform, Erlang.
        let uniform = ((rec[0] & 0xff) - OP_RE_EXP) % 4 == 2;
        rec[1..if uniform { 5 } else { 3 }].fill(0);
    }
}

/// The shape of `lw`, lowered from `net` with `counts` count entries per
/// marking: everything a step record depends on. That is every program
/// word with each re-check's timing parameters zeroed, the start state,
/// the immediates' priorities and weights, the run's token bound, the
/// marking layout, and the text of each slow-path table entry an op reads
/// (a color filter, a guard or predicate program, the arcs of a transition
/// that fires generically). Programs of one shape differ only in their rates,
/// delays and uniform bounds, which no record holds: a replay reads them
/// from its own program, so such programs share records
/// ([`super::memo::MemoRecords`]). The words are kept whole rather than
/// hashed, so two programs share a record only if their shapes are equal.
fn shape(net: &Net, lw: &LoweredNet, counts: usize) -> Arc<[u32]> {
    let (nt, st) = (net.num_transitions(), &lw.start);
    let mut out = Vec::with_capacity(2 * (lw.ops.len() + lw.init_ops.len()) + 16 * nt);
    out.extend([nt as u32, st.cond_true.len() as u32, counts as u32]);
    let at = out.len() + 1;
    field(&mut out, lw.ops.iter().copied());
    for ti in 0..nt {
        let (_, f1, r1) = lw.sections(ti);
        zero_timing(&mut out[at + f1..at + r1]);
    }
    field(&mut out, lw.sec.iter().copied());
    let at = out.len() + 1;
    field(&mut out, lw.init_ops.iter().copied());
    zero_timing(&mut out[at..]);
    field(&mut out, lw.timed.iter().copied());
    let sizes = [lw.colored as usize, lw.n_integ, lw.n_count, lw.max_tokens];
    let integ = lw.integ.iter().flat_map(|op| match *op {
        IntegOp::PredCnt {
            place,
            need,
            lt,
            acc,
        } => [0, place, need, lt as u32, acc],
        IntegOp::AnyNonEmpty { lo, hi, acc } => [1, lo, hi, acc, 0],
        IntegOp::Pred { prog, acc } => [2, prog, acc, 0, 0],
    });
    let rewards = lw.reward_map.iter().flat_map(|r| match *r {
        LoweredReward::Integral(i) => [0, i],
        LoweredReward::Rate(i) => [1, i],
        LoweredReward::Count(i) => [2, i],
    });
    let choices = lw.imm_choice.iter().flat_map(|&(prio, w)| {
        let b = w.to_bits();
        [prio as u32, b as u32, (b >> 32) as u32]
    });
    field(&mut out, sizes.map(|n| n as u32));
    field(&mut out, lw.integ_places.iter().flat_map(|&(p, a)| [p, a]));
    field(&mut out, integ);
    field(&mut out, lw.any_places.iter().copied());
    field(&mut out, rewards);
    field(&mut out, st.cond_true.iter().map(|&b| b as u32));
    field(&mut out, st.unsat.iter().copied());
    field(&mut out, st.sched_state.iter().map(|&b| b as u32));
    field(&mut out, st.enabled_imm.iter().copied());
    field(&mut out, st.imm_pos.iter().copied().chain([st.imm_len]));
    field(&mut out, choices);
    for p in net.place_ids() {
        let slots = net.slot_colors(p).iter().map(|c| c.0);
        field(&mut out, slots.chain([net.place_may_hold_colors(p) as u32]));
    }
    // The slow paths' table entries, as text, in the order the ops that
    // read them appear: the paper's nets have none, so they format nothing.
    let mut text = |s: String| field(&mut out, s.into_bytes().chunks(4).map(pack));
    for (ti, t) in net.transitions().iter().enumerate() {
        let (f0, f1, _) = lw.sections(ti);
        let ops = &lw.ops[f0..f1];
        let mut pc = 1;
        if ops[0] & HDR_GENERIC != 0 {
            text(format!("{:?}{:?}", t.inputs, t.outputs));
            pc += 1;
        }
        pc += 2 * (ops[0] & 0xffff) as usize + 4 * (ops[0] >> 16 & 0x7fff) as usize;
        while pc < ops.len() {
            pc += match ops[pc] & 0xff {
                OP_C_FGE | OP_C_FLT => {
                    text(format!("{:?}", lw.filters[ops[pc + 1] as usize]));
                    5
                }
                OP_C_GUARD => {
                    text(format!("{:?}", lw.guards[ops[pc + 1] as usize]));
                    3
                }
                _ => 1,
            };
        }
    }
    for op in &lw.integ {
        if let IntegOp::Pred { prog, .. } = *op {
            text(format!("{:?}", lw.preds[prog as usize]));
        }
    }
    out.into()
}

/// Up to four bytes as one little-endian word, zero-padded.
fn pack(bytes: &[u8]) -> u32 {
    let mut b = [0; 4];
    b[..bytes.len()].copy_from_slice(bytes);
    u32::from_le_bytes(b)
}

/// Emit the monomorphized re-check record for timed transition `t2`
/// (`t`), padded to [`RECHECK_STRIDE`] words.
fn emit_recheck(ops: &mut Vec<u32>, t: &Transition, t2: u32) {
    let policy = match t.memory {
        MemoryPolicy::RaceEnable => 0,
        MemoryPolicy::RaceAge => 1,
        MemoryPolicy::Resample => 2,
    };
    let op = |kind: u32| (OP_RE_EXP + 4 * policy + kind) | t2 << 8;
    let start = ops.len();
    match t.timing {
        Timing::Exponential { rate } => {
            ops.push(op(0));
            push_f64(ops, rate);
        }
        Timing::Deterministic { delay } => {
            ops.push(op(1));
            push_f64(ops, delay);
        }
        Timing::Uniform { low, high } => {
            ops.push(op(2));
            push_f64(ops, low);
            push_f64(ops, high);
        }
        Timing::Erlang { k, rate } => {
            ops.push(op(3));
            push_f64(ops, rate);
            ops.push(k);
        }
        Timing::Immediate { .. } => unreachable!("immediates are never re-checked"),
    }
    ops.resize(start + RECHECK_STRIDE, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arc::ColorExpr;
    use crate::builder::NetBuilder;
    use crate::expr::Expr;
    use crate::sim::Simulator;

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

    /// A test net and the rewards registered on it, in order.
    type NetCase = (Net, Vec<RewardSpec>);

    /// A simulator for `net` with `rewards` registered in order.
    fn sim_with<'n>(net: &'n Net, cfg: SimConfig, rewards: &[RewardSpec]) -> Simulator<'n> {
        let mut sim = Simulator::new(net, cfg);
        for r in rewards {
            sim.reward(r.clone()).unwrap();
        }
        sim
    }

    /// The paper's Fig. 12 node SCPN in miniature, with every shape the
    /// node model uses: colored `Const` job deposits into `Buffer`,
    /// `Eq`-filtered DVS withdrawals (including levels no transition ever
    /// deposits), the conjunctive `cpu_done` guard, `count cmp const`
    /// guards on the colored buffer, and the node model's reward set.
    fn node_shapes() -> NetCase {
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
        let mut rewards: Vec<RewardSpec> = [cpu_sleep, cpu_wake, cpu_idle, cpu_active]
            .map(RewardSpec::PlaceTokens)
            .into();
        rewards.extend(
            [
                Expr::count(wait).gt_c(0),
                Expr::count(rx_start)
                    .gt_c(0)
                    .or(Expr::count(tx_start).gt_c(0)),
                Expr::count(rx_data)
                    .add(Expr::count(rx_handle))
                    .add(Expr::count(tx_handle))
                    .gt_c(0),
                Expr::count(comp_handle).gt_c(0),
            ]
            .map(RewardSpec::Predicate),
        );
        rewards.extend([cycle_start, comp_done, cpu_wakeup].map(RewardSpec::FiringCount));
        (net, rewards)
    }

    /// The shapes that must stay on the generic path: a real `Choice`
    /// deposit (it draws from the RNG), an `In` filter over two colors, a
    /// `!=` comparison against a nonzero constant, and a predicate that is
    /// not an "any place non-empty" shape.
    fn generic_shapes() -> NetCase {
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
        let pred = Expr::count(src).add(Expr::count(sink)).gt_c(1);
        (net, vec![RewardSpec::Predicate(pred)])
    }

    fn mm1() -> NetCase {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(0.8))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(1.0))
            .input(q, 1)
            .build();
        (b.build().unwrap(), vec![RewardSpec::PlaceTokens(q)])
    }

    /// A net of 36 transitions, wider than any paper net: a ring of places
    /// worked by every (memory policy × distribution) re-check opcode,
    /// prioritized and weighted immediates, inhibitors and threshold
    /// guards, with every reward kind.
    fn wide_shapes() -> NetCase {
        let mut b = NetBuilder::new("wide-shapes");
        let ring: Vec<PlaceId> = (0..12)
            .map(|i| b.place(format!("p{i}")).tokens(i % 3 / 2).build())
            .collect();
        let timings = [
            Timing::exponential(1.5),
            Timing::deterministic(0.4),
            Timing::uniform(0.1, 0.9),
            Timing::erlang(3, 4.0),
        ];
        let policies = [
            MemoryPolicy::RaceEnable,
            MemoryPolicy::RaceAge,
            MemoryPolicy::Resample,
        ];
        let mut tids = Vec::new();
        for i in 0..36 {
            let (from, to) = (ring[i % 12], ring[(i + 1 + i / 12) % 12]);
            let timing = match i % 6 {
                5 => Timing::Immediate {
                    priority: (i % 4) as u8,
                    weight: 1.0 + i as f64,
                },
                k => timings[k % 4],
            };
            let mut t = b
                .transition(format!("t{i}"), timing)
                .input(from, 1)
                .output(to, 1)
                .memory(policies[i % 3]);
            if i % 7 == 2 {
                t = t.inhibitor(ring[(i + 6) % 12], 2);
            }
            if i % 5 == 1 {
                t = t.guard(Expr::count(ring[(i + 3) % 12]).lt_c(3));
            }
            tids.push(t.build());
        }
        let net = b.build().unwrap();
        let rewards = vec![
            RewardSpec::PlaceTokens(ring[0]),
            RewardSpec::Predicate(Expr::count(ring[4]).ge_c(1)),
            RewardSpec::Throughput(tids[3]),
            RewardSpec::FiringCount(tids[11]),
            RewardSpec::PlaceTokens(ring[7]),
        ];
        (net, rewards)
    }

    /// SHA-256 over every word of `lw`'s lowered program, hex-encoded.
    fn program_digest(lw: &LoweredNet) -> String {
        let mut words: Vec<u32> = Vec::new();
        let mut field = |ws: &[u32]| {
            words.push(ws.len() as u32);
            words.extend_from_slice(ws);
        };
        field(&lw.ops);
        field(&lw.sec);
        field(&lw.init_ops);
        field(&lw.timed);
        field(
            &lw.integ_places
                .iter()
                .flat_map(|&(p, a)| [p, a])
                .collect::<Vec<_>>(),
        );
        let integ: Vec<u32> = lw
            .integ
            .iter()
            .flat_map(|op| match *op {
                IntegOp::PredCnt {
                    place,
                    need,
                    lt,
                    acc,
                } => vec![0, place, need, lt as u32, acc],
                IntegOp::AnyNonEmpty { lo, hi, acc } => vec![1, lo, hi, acc],
                IntegOp::Pred { prog, acc } => vec![2, prog, acc],
            })
            .collect();
        field(&integ);
        field(&lw.any_places);
        field(&[lw.colored as u32]);
        let rewards: Vec<u32> = lw
            .reward_map
            .iter()
            .flat_map(|r| match *r {
                LoweredReward::Integral(i) => [0, i],
                LoweredReward::Rate(i) => [1, i],
                LoweredReward::Count(i) => [2, i],
            })
            .collect();
        field(&rewards);
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        sim_core::key::sha256(&bytes)
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }

    /// Lowering emits the same program, word for word, as the two-pass
    /// compiler it replaced: these digests hash that compiler's program
    /// words (re-hashed without the scheduler flag when the heap scheduler
    /// was removed), so any renumbered condition, reordered re-check or
    /// changed opcode shows up here before it shows up in a trajectory.
    #[test]
    fn lowered_programs_match_pinned_digests() {
        let cases = [
            (
                "node-shapes",
                node_shapes(),
                "4f42b6b7a09a3799da2aea8c52b23e3e0abc0c89decf5ac24bf28bf625414377",
            ),
            (
                "generic",
                generic_shapes(),
                "d38ab97884415fc52a75e672770c0233cbb0a4e6fae07275f516b33779a1ddf9",
            ),
            (
                "mm1",
                mm1(),
                "e5029c52fe8319bee1119ac2d953e602d40a7a982aa603804dcb5d07c5de4a08",
            ),
            (
                "wide-shapes",
                wide_shapes(),
                "876043b53d205c2605178a0b5404834f111701dae1b4bc78172361067901a51e",
            ),
        ];
        let mut got = Vec::new();
        for (name, (net, rewards), want) in cases {
            let sim = sim_with(&net, SimConfig::for_horizon(50.0), &rewards);
            let digest = program_digest(sim.lowered_net());
            if digest != want {
                got.push(format!("{name}: {digest}"));
            }
        }
        assert!(
            got.is_empty(),
            "lowered programs changed:\n{}",
            got.join("\n")
        );
    }

    /// The shape ignores the timing parameter words and nothing else: new
    /// rates, delays and uniform bounds everywhere change the program but
    /// not its shape, while any op kind, Erlang stage count, memory policy,
    /// immediate priority or weight, guard program, arc or reward changes
    /// the shape.
    #[test]
    fn the_shape_ignores_timing_parameters_only() {
        let lower = |net: &Net, rewards: &[RewardSpec]| {
            let sim = sim_with(net, SimConfig::for_horizon(50.0), rewards);
            let lw = sim.lowered_net();
            (lw.ops.clone(), lw.shape.clone())
        };
        let (net, rewards) = wide_shapes();
        let (ops, shape) = lower(&net, &rewards);
        let mut retimed = net.clone();
        for t in &mut retimed.transitions {
            t.timing = match t.timing {
                Timing::Exponential { rate } => Timing::exponential(rate * 3.0),
                Timing::Deterministic { delay } => Timing::deterministic(delay + 0.25),
                Timing::Uniform { low, high } => Timing::uniform(low / 2.0, high * 2.0),
                Timing::Erlang { k, rate } => Timing::erlang(k, rate + 1.0),
                imm => imm,
            };
        }
        let (new_ops, new_shape) = lower(&retimed, &rewards);
        assert_ne!(new_ops, ops);
        assert_eq!(new_shape, shape);
        let horizon = sim_with(&net, SimConfig::for_horizon(9.0), &rewards);
        assert_eq!(
            horizon.lowered_net().shape,
            shape,
            "the horizon is no program word"
        );
        // t0 is exponential RaceEnable, t1 deterministic, t2 uniform,
        // t3 Erlang-3 and t5 immediate.
        type Edit = fn(&mut Transition);
        let edits: [(&str, Edit); 7] = [
            ("exp -> det", |t| t.timing = Timing::deterministic(1.5)),
            ("det -> uniform", |t| t.timing = Timing::uniform(0.1, 0.4)),
            ("uniform -> Erlang", |t| t.timing = Timing::erlang(3, 2.0)),
            ("Erlang stages", |t| t.timing = Timing::erlang(4, 4.0)),
            ("memory policy", |t| t.memory = MemoryPolicy::RaceAge),
            ("weight", |t| {
                t.timing = Timing::Immediate {
                    priority: 1,
                    weight: 7.0,
                }
            }),
            ("priority", |t| {
                t.timing = Timing::Immediate {
                    priority: 2,
                    weight: 6.0,
                }
            }),
        ];
        for ((what, edit), ti) in edits.into_iter().zip([0, 1, 2, 3, 0, 5, 5]) {
            let mut edited = net.clone();
            edit(&mut edited.transitions[ti]);
            assert_ne!(lower(&edited, &rewards).1, shape, "{what}");
        }
        let mut fewer = rewards.clone();
        fewer.pop();
        let mut swapped = rewards.clone();
        swapped[2] = RewardSpec::FiringCount(crate::ids::TransitionId(3));
        let mut moved = rewards.clone();
        moved[0] = RewardSpec::PlaceTokens(PlaceId(1));
        for (what, r) in [("fewer", fewer), ("kind", swapped), ("place", moved)] {
            assert_ne!(lower(&net, &r).1, shape, "reward {what}");
        }
        // A slow path's table entry: generic_shapes' guard program
        // `count(sink) != 3`, whose constant no op word holds.
        let (net, rewards) = generic_shapes();
        let mut other = net.clone();
        other.transitions[1].guard = Some(Expr::count(PlaceId(1)).ne(Expr::constant(4)));
        let (a, b) = (lower(&net, &rewards), lower(&other, &rewards));
        assert_eq!(a.0, b.0);
        assert_ne!(a.1, b.1);
        // Arcs: mm1 against itself with one more arc of each kind.
        let arcs = |extra: u8| {
            let mut b = NetBuilder::new("mm1");
            let q = b.place("q").build();
            let mut arrive = b
                .transition("arrive", Timing::exponential(0.8))
                .output(q, 1);
            if extra == 1 {
                arrive = arrive.inhibitor(q, 9);
            }
            arrive.build();
            let serve = b.transition("serve", Timing::exponential(1.0)).input(q, 1);
            match extra {
                2 => serve.output(q, 1),
                3 => serve.guard(Expr::count(q).lt_c(5)),
                _ => serve,
            }
            .build();
            lower(&b.build().unwrap(), &[RewardSpec::PlaceTokens(q)]).1
        };
        let (net, rewards) = mm1();
        let plain = lower(&net, &rewards).1;
        assert_eq!(arcs(0), plain);
        for extra in 1..=3 {
            assert_ne!(arcs(extra), plain, "extra arc {extra}");
        }
    }

    /// The wide net's program runs the reference engine's trajectory.
    #[test]
    fn wide_shapes_run_the_reference_trajectory() {
        let (net, rewards) = wide_shapes();
        let sim = sim_with(&net, SimConfig::for_horizon(40.0).with_trace(64), &rewards);
        assert!(net.num_transitions() > 32);
        for seed in 0..4 {
            let (a, b) = (sim.run(seed).unwrap(), sim.run_reference(seed).unwrap());
            assert_eq!(a.rewards, b.rewards);
            assert_eq!(a.firing_counts, b.firing_counts);
            assert_eq!(a.final_marking, b.final_marking);
            assert_eq!(a.trace, b.trace);
            assert!(a.total_firings() > 0);
        }
    }

    #[test]
    fn node_scpn_shapes_lower_to_dense_count_ops() {
        let (net, rewards) = node_shapes();
        let sim = sim_with(&net, SimConfig::for_horizon(50.0).with_trace(64), &rewards);
        let lw = sim.lowered_net();
        let (slow, color_moves) = slow_paths(lw);
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

    #[test]
    fn rng_and_multi_color_shapes_stay_generic() {
        let (net, rewards) = generic_shapes();
        let sim = sim_with(&net, SimConfig::for_horizon(20.0), &rewards);
        let lw = sim.lowered_net();
        let (slow, _) = slow_paths(lw);
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
        let (net, rewards) = mm1();
        let sim = sim_with(&net, SimConfig::for_horizon(10.0), &rewards);
        let lw = sim.lowered_net();
        assert_eq!(lw.sec.len(), 2 * net.num_transitions() + 1);
        assert_eq!(lw.sec[0], 0);
        assert!(lw.sec.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*lw.sec.last().unwrap() as usize, lw.ops.len());
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
