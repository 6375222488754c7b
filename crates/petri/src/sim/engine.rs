//! The [`Simulator`]: configuration, compiled net structure, and the run
//! entry points.
//!
//! A `Simulator` compiles its net once into a `CompiledSim` — the static
//! tables every run shares — and hands runs to the lowered engine
//! ([`super::lowered`]), which executes the net's micro-op program
//! ([`super::lower`]). [`Simulator::run`] is the one entry point: each call
//! builds one `LoweredEngine` and runs one replication on it.
//!
//! `CompiledSim` flattens the net into dense, index-addressed tables:
//!
//! * **Enabling conditions.** Every input arc, inhibitor arc, and guard
//!   conjunct becomes a condition record, indexed (CSR adjacency) by the
//!   places it reads, so a firing re-evaluates only the conditions
//!   watching the places it touched. Filters on provably-uncolored places
//!   fold at compile time; a filter that can select only one color of a
//!   slotted colored place becomes a threshold on that color's count.
//! * **Guards** are split at their top-level `And`s, and each conjunct
//!   compiles to a flat postfix program ([`crate::expr`]'s
//!   `CompiledExpr`) over the marking's dense count vector.
//! * **Count firing plans** for every transition whose arcs each withdraw
//!   from or deposit into one entry of the count vector (a place, or a
//!   color slot) without an RNG draw: straight `u32` add/sub, plus the bag
//!   update for color slots.
//! * **Re-check lists**: per fired transition, the timed transitions to
//!   re-schedule, in exactly the reference engine's traversal order — the
//!   order determines which transition consumes which RNG draw.
//! * **Timing scalars** per transition, split from the cold `Transition`
//!   fields.
//!
//! The seed's non-incremental engine is preserved in [`super::reference`]
//! as the executable specification; [`Simulator::run_reference`] runs it.
//! Both engines consume the RNG in exactly the same order, so trajectories
//! are **bit-identical** — the differential suites prove it per commit,
//! and debug builds shadow the first run of every simulator with it.

use super::rewards::{RewardId, RewardSpec, RewardSpecError};
use super::trace::TraceEvent;
use crate::arc::ColorExpr;
use crate::error::SimError;
use crate::expr::{CompiledExpr, Expr};
use crate::ids::{PlaceId, TransitionId};
use crate::marking::Marking;
use crate::net::{ColorCountAt, Net};
use crate::timing::{MemoryPolicy, Timing};
use crate::token::{Color, ColorFilter};
use crate::transition::Transition;

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
// Compiled static structure
// ---------------------------------------------------------------------------

/// Compressed sparse rows: `row(i)` is a contiguous `&[u32]` — one shared
/// allocation instead of a `Vec<Vec<u32>>`'s per-row pointer chase.
#[derive(Debug, Clone, Default)]
pub(super) struct Csr {
    off: Vec<u32>,
    dat: Vec<u32>,
}

impl Csr {
    fn from_rows(rows: &[Vec<u32>]) -> Csr {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let mut dat = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        off.push(0);
        for row in rows {
            dat.extend_from_slice(row);
            off.push(dat.len() as u32);
        }
        Csr { off, dat }
    }

    #[inline]
    pub(super) fn row(&self, i: usize) -> &[u32] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }
}

/// Timing discriminant, split out so the lowering pass never matches on the
/// full [`Timing`] enum through the `Transition` struct (and its cold
/// fields).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum TimingKind {
    Immediate,
    Deterministic,
    Exponential,
    Uniform,
    Erlang,
}

/// Dense per-transition scheduling scalars: everything the re-check ops and
/// immediate conflict resolution need, packed away from the cold
/// `Transition` fields (name strings, arc vectors).
#[derive(Debug, Clone)]
pub(super) struct TransHot {
    pub(super) kind: TimingKind,
    pub(super) memory: MemoryPolicy,
    pub(super) priority: u8,
    pub(super) weight: f64,
    /// Deterministic delay / exponential rate / uniform low / Erlang rate.
    pub(super) a: f64,
    /// Uniform high.
    pub(super) b: f64,
    /// Erlang stage count.
    pub(super) k: u32,
}

impl TransHot {
    fn from_timing(timing: &Timing, memory: MemoryPolicy) -> Self {
        let (kind, priority, weight, a, b, k) = match *timing {
            Timing::Immediate { priority, weight } => {
                (TimingKind::Immediate, priority, weight, 0.0, 0.0, 0)
            }
            Timing::Deterministic { delay } => (TimingKind::Deterministic, 0, 0.0, delay, 0.0, 0),
            Timing::Exponential { rate } => (TimingKind::Exponential, 0, 0.0, rate, 0.0, 0),
            Timing::Uniform { low, high } => (TimingKind::Uniform, 0, 0.0, low, high, 0),
            Timing::Erlang { k, rate } => (TimingKind::Erlang, 0, 0.0, rate, 0.0, k),
        };
        TransHot {
            kind,
            memory,
            priority,
            weight,
            a,
            b,
            k,
        }
    }
}

// Condition kinds (SoA record, 16 bytes; filters/guards live in side
// tables referenced through `aux`).
pub(super) const COND_INPUT_ANY: u8 = 0;
pub(super) const COND_INHIB_ANY: u8 = 1;
pub(super) const COND_INPUT_FILTERED: u8 = 2;
pub(super) const COND_INHIB_FILTERED: u8 = 3;
pub(super) const COND_GUARD: u8 = 4;

/// One elementary enabling condition. A transition is enabled iff all of
/// its conditions hold; the engine tracks the number of currently-false
/// conditions per transition.
#[derive(Debug, Clone)]
pub(super) struct Cond {
    pub(super) tid: u32,
    pub(super) kind: u8,
    /// Watched count index (arc conditions; unused for guards): a place
    /// total, or a color slot for a filter that selects one color.
    pub(super) place: u32,
    /// Required token count (inputs) / inhibition threshold (inhibitors).
    pub(super) need: u32,
    /// Index into the filter or guard side table.
    pub(super) aux: u32,
}

/// Precompiled count firing plan: every input arc withdraws from one entry
/// of the marking's dense count vector and every output arc deposits into
/// one, with no RNG draw. Entries below the place count are count-only
/// places (plain `u32` arithmetic); entries at or above it are color slots
/// (the slot's color is withdrawn from or appended to the place's FIFO bag
/// as well).
#[derive(Debug, Clone, Copy)]
pub(super) struct DensePlan {
    /// Range of (count index, multiplicity) input entries in `plan_dat`.
    pub(super) ins: (u32, u32),
    /// Range of (count index, multiplicity) output entries in `plan_dat`.
    pub(super) outs: (u32, u32),
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

/// Where the count of tokens matching `filter` in colored place `p` lives,
/// when a single color slot holds all of them (or none can exist).
fn filtered_count_at(net: &Net, p: PlaceId, filter: &ColorFilter) -> Option<ColorCountAt> {
    single_color(net, p, filter).map(|c| net.color_count_at(p, c))
}

/// The color a transition's input arc withdraws, when it is known at
/// compile time: plain for a count-only place whose filter admits plain
/// tokens, the [`single_color`] for a colored place.
fn withdrawn_color(net: &Net, a: &crate::arc::InputArc) -> Option<Color> {
    if net.place_may_hold_colors(a.place) {
        single_color(net, a.place, &a.filter)
    } else {
        a.filter.matches(Color::NONE).then_some(Color::NONE)
    }
}

/// Append a transition's count firing plan — (count index, multiplicity)
/// pairs in arc order — to `plan_dat`, when every arc resolves to one
/// dense count: input arcs with a [`withdrawn_color`] that has a count,
/// and output colors that are constant, a one-entry `Choice` (which draws
/// no RNG), or a `Transfer` from such an input. Anything else fires
/// through the generic path, and `plan_dat` is left as it was.
fn count_plan(net: &Net, t: &Transition, plan_dat: &mut Vec<(u32, u32)>) -> Option<DensePlan> {
    let start = plan_dat.len();
    let at = |p: PlaceId, c: Option<Color>| match net.color_count_at(p, c?) {
        ColorCountAt::Dense(i) => Some(i),
        _ => None,
    };
    let mut resolve = || {
        for a in &t.inputs {
            plan_dat.push((at(a.place, withdrawn_color(net, a))?, a.multiplicity));
        }
        let outs_start = plan_dat.len() as u32;
        for a in &t.outputs {
            let c = match &a.color {
                ColorExpr::Const(c) => Some(*c),
                ColorExpr::Choice(pairs) if pairs.len() == 1 => Some(pairs[0].0),
                // A real Choice consumes an RNG draw; keep the generic
                // path so the stream stays aligned.
                ColorExpr::Choice(_) => None,
                ColorExpr::Transfer { arc_index } => withdrawn_color(net, &t.inputs[*arc_index]),
            };
            plan_dat.push((at(a.place, c)?, a.multiplicity));
        }
        Some(DensePlan {
            ins: (start as u32, outs_start),
            outs: (outs_start, plan_dat.len() as u32),
        })
    };
    let plan = resolve();
    if plan.is_none() {
        plan_dat.truncate(start);
    }
    plan
}

/// Everything the engine precomputes per [`Simulator`] — shared, immutable,
/// reused by every run.
#[derive(Debug, Clone)]
pub(crate) struct CompiledSim {
    pub(super) conds: Vec<Cond>,
    pub(super) filters: Vec<ColorFilter>,
    pub(super) guards: Vec<CompiledExpr>,
    /// Place → indices of conditions that read it (ascending tid).
    pub(super) place_conds: Csr,
    /// Conditions that folded to constant-false at compile time (an input
    /// arc whose filter can never match an uncolored place) keep their
    /// transition permanently disabled via this base count.
    pub(super) base_unsat: Vec<u32>,
    /// Transition → places whose token count changes when it fires
    /// (inputs then outputs, deduplicated, arc order preserved).
    pub(super) touched: Csr,
    /// Transition → timed transitions to re-schedule after it fires, in
    /// exactly the reference engine's traversal order (dependency index
    /// over touched places, then self, then Resample transitions).
    pub(super) recheck_timed: Csr,
    pub(super) hot: Vec<TransHot>,
    pub(super) immediates: Vec<TransitionId>,
    pub(super) plans: Vec<Option<DensePlan>>,
    pub(super) plan_dat: Vec<(u32, u32)>,
    /// Scratch capacity needed by the largest guard program.
    pub(super) guard_stack: usize,
}

impl CompiledSim {
    fn build(net: &Net) -> Self {
        let nt = net.num_transitions();
        let np = net.num_places();
        let mut conds: Vec<Cond> = Vec::new();
        let mut filters: Vec<ColorFilter> = Vec::new();
        let mut guards: Vec<CompiledExpr> = Vec::new();
        let mut place_cond_rows: Vec<Vec<u32>> = vec![Vec::new(); np];
        let mut base_unsat = vec![0u32; nt];
        let mut touched_rows: Vec<Vec<u32>> = Vec::with_capacity(nt);
        let mut hot = Vec::with_capacity(nt);
        let mut plans: Vec<Option<DensePlan>> = Vec::with_capacity(nt);
        let mut plan_dat: Vec<(u32, u32)> = Vec::new();
        let mut guard_stack = 0usize;
        let mut guard_places: Vec<PlaceId> = Vec::new();
        let mut conjuncts: Vec<&Expr> = Vec::new();

        for (ti, t) in net.transitions().iter().enumerate() {
            let tid = ti as u32;
            hot.push(TransHot::from_timing(&t.timing, t.memory));

            // --- enabling conditions ---
            for arc in &t.inputs {
                let p = arc.place.index();
                let colored = net.place_may_hold_colors(arc.place);
                let cond = match (&arc.filter, colored) {
                    (ColorFilter::Any, _) => Some(Cond {
                        tid,
                        kind: COND_INPUT_ANY,
                        place: p as u32,
                        need: arc.multiplicity,
                        aux: 0,
                    }),
                    (f, true) => match filtered_count_at(net, arc.place, f) {
                        // One color slot holds every token the filter can
                        // match: a plain threshold on that count.
                        Some(ColorCountAt::Dense(i)) => Some(Cond {
                            tid,
                            kind: COND_INPUT_ANY,
                            place: i,
                            need: arc.multiplicity,
                            aux: 0,
                        }),
                        Some(ColorCountAt::AlwaysZero) => None,
                        _ => {
                            filters.push(f.clone());
                            Some(Cond {
                                tid,
                                kind: COND_INPUT_FILTERED,
                                place: p as u32,
                                need: arc.multiplicity,
                                aux: (filters.len() - 1) as u32,
                            })
                        }
                    },
                    (f, false) if f.matches(Color::NONE) => Some(Cond {
                        tid,
                        kind: COND_INPUT_ANY,
                        place: p as u32,
                        need: arc.multiplicity,
                        aux: 0,
                    }),
                    // An uncolored place can never satisfy this filter: the
                    // transition is structurally dead.
                    _ => None,
                };
                match cond {
                    Some(cond) => {
                        place_cond_rows[p].push(conds.len() as u32);
                        conds.push(cond);
                    }
                    None => base_unsat[ti] += 1,
                }
            }

            for inh in &t.inhibitors {
                let p = inh.place.index();
                let colored = net.place_may_hold_colors(inh.place);
                let cond = match (&inh.filter, colored) {
                    (ColorFilter::Any, _) => Some(Cond {
                        tid,
                        kind: COND_INHIB_ANY,
                        place: p as u32,
                        need: inh.threshold,
                        aux: 0,
                    }),
                    (f, true) => match filtered_count_at(net, inh.place, f) {
                        Some(ColorCountAt::Dense(i)) => Some(Cond {
                            tid,
                            kind: COND_INHIB_ANY,
                            place: i,
                            need: inh.threshold,
                            aux: 0,
                        }),
                        Some(ColorCountAt::AlwaysZero) => None,
                        _ => {
                            filters.push(f.clone());
                            Some(Cond {
                                tid,
                                kind: COND_INHIB_FILTERED,
                                place: p as u32,
                                need: inh.threshold,
                                aux: (filters.len() - 1) as u32,
                            })
                        }
                    },
                    (f, false) if f.matches(Color::NONE) => Some(Cond {
                        tid,
                        kind: COND_INHIB_ANY,
                        place: p as u32,
                        need: inh.threshold,
                        aux: 0,
                    }),
                    // The filter can never match: the inhibitor never trips.
                    _ => None,
                };
                if let Some(cond) = cond {
                    place_cond_rows[p].push(conds.len() as u32);
                    conds.push(cond);
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
                    guard_stack = guard_stack.max(prog.stack_needed());
                    guards.push(prog);
                    guard_places.clear();
                    conj.collect_places(&mut guard_places);
                    guard_places.sort_unstable();
                    guard_places.dedup();
                    for gp in &guard_places {
                        place_cond_rows[gp.index()].push(conds.len() as u32);
                    }
                    conds.push(Cond {
                        tid,
                        kind: COND_GUARD,
                        place: 0,
                        need: 0,
                        aux: (guards.len() - 1) as u32,
                    });
                }
            }

            // --- touched places (inputs then outputs, dedup) ---
            let mut tp: Vec<u32> = Vec::with_capacity(t.inputs.len() + t.outputs.len());
            for place in t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place))
            {
                let p = place.index() as u32;
                if !tp.contains(&p) {
                    tp.push(p);
                }
            }
            touched_rows.push(tp);

            // --- count firing plan ---
            plans.push(count_plan(net, t, &mut plan_dat));
        }

        // --- static re-check lists, in the reference engine's order ---
        let resamplers: Vec<u32> = (0..nt)
            .filter(|&ti| {
                hot[ti].kind != TimingKind::Immediate && hot[ti].memory == MemoryPolicy::Resample
            })
            .map(|ti| ti as u32)
            .collect();
        let mut recheck_rows: Vec<Vec<u32>> = Vec::with_capacity(nt);
        let mut seen = vec![false; nt];
        for (ti, t) in net.transitions().iter().enumerate() {
            let mut row: Vec<u32> = Vec::new();
            let mark = |row: &mut Vec<u32>, seen: &mut Vec<bool>, tid: u32| {
                if !seen[tid as usize] {
                    seen[tid as usize] = true;
                    row.push(tid);
                }
            };
            for place in t
                .inputs
                .iter()
                .map(|a| a.place)
                .chain(t.outputs.iter().map(|a| a.place))
            {
                for &tid in net.affected_by(place) {
                    mark(&mut row, &mut seen, tid.0);
                }
            }
            // The fired transition's own clock was consumed by firing.
            mark(&mut row, &mut seen, ti as u32);
            // Resample-policy transitions re-sample on every marking change.
            for &r in &resamplers {
                mark(&mut row, &mut seen, r);
            }
            for &tid in &row {
                seen[tid as usize] = false;
            }
            // Only timed transitions are re-scheduled (the reference engine
            // skips immediates here too, drawing no RNG), so pre-filter.
            row.retain(|&tid| hot[tid as usize].kind != TimingKind::Immediate);
            recheck_rows.push(row);
        }

        let immediates = net
            .transition_ids()
            .filter(|t| net.transition(*t).timing.is_immediate())
            .collect();

        CompiledSim {
            conds,
            filters,
            guards,
            place_conds: Csr::from_rows(&place_cond_rows),
            base_unsat,
            touched: Csr::from_rows(&touched_rows),
            recheck_timed: Csr::from_rows(&recheck_rows),
            hot,
            immediates,
            plans,
            plan_dat,
            guard_stack,
        }
    }

    /// Evaluate one condition against a marking.
    #[inline(always)]
    pub(super) fn eval_cond(&self, marking: &Marking, scratch: &mut Vec<i64>, cond: &Cond) -> bool {
        match cond.kind {
            COND_INPUT_ANY => marking.count_raw(cond.place) >= cond.need,
            COND_INHIB_ANY => marking.count_raw(cond.place) < cond.need,
            COND_INPUT_FILTERED => {
                let filter = &self.filters[cond.aux as usize];
                marking.count_matching(PlaceId(cond.place), filter) >= cond.need as usize
            }
            COND_INHIB_FILTERED => {
                let filter = &self.filters[cond.aux as usize];
                marking.count_matching(PlaceId(cond.place), filter) < cond.need as usize
            }
            COND_GUARD => self.guards[cond.aux as usize].eval_bool(marking, scratch),
            _ => unreachable!("invalid condition kind"),
        }
    }
}

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

/// A configured, reusable simulator for one net.
///
/// Static structure (flattened enabling conditions, compiled guard
/// programs, dense firing plans, per-transition timing scalars and re-check
/// lists) is built once here; immutable afterwards. [`Simulator::run`]
/// takes `&self`, so independent replications can run concurrently on
/// multiple threads.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    pub(super) net: &'a Net,
    pub(super) cfg: SimConfig,
    pub(super) rewards: Vec<RewardSpec>,
    /// Compiled predicate programs, parallel to `rewards` (None for
    /// non-predicate rewards).
    pub(super) pred_progs: Vec<Option<CompiledExpr>>,
    /// `firing_hooks[t]` = indices of counter rewards watching transition
    /// `t`; built here so runs share it instead of rebuilding per seed.
    pub(super) firing_hooks: Vec<Vec<u32>>,
    pub(super) compiled: CompiledSim,
    /// Lazily-built lowered program (net × rewards × config), shared by
    /// every run. Invalidated when a reward is added.
    pub(super) lowered: std::sync::OnceLock<super::lower::LoweredNet>,
    /// Debug builds shadow the first run per simulator with the reference
    /// engine and assert identical output (cheap, once-per-net oracle on
    /// top of the differential suites).
    #[allow(dead_code)]
    pub(super) shadow_once: std::sync::OnceLock<()>,
}

impl<'a> Simulator<'a> {
    /// Create a simulator for `net` with the given configuration.
    pub fn new(net: &'a Net, cfg: SimConfig) -> Self {
        let firing_hooks = vec![Vec::new(); net.num_transitions()];
        Simulator {
            net,
            cfg,
            rewards: Vec::new(),
            pred_progs: Vec::new(),
            firing_hooks,
            compiled: CompiledSim::build(net),
            lowered: std::sync::OnceLock::new(),
            shadow_once: std::sync::OnceLock::new(),
        }
    }

    /// The lowered program for this simulator, building it on first use.
    pub(super) fn lowered_net(&self) -> &super::lower::LoweredNet {
        self.lowered
            .get_or_init(|| super::lower::LoweredNet::build(self))
    }

    /// Register a reward measure; the returned id indexes
    /// [`SimOutput::rewards`]. Predicate expressions are compiled to flat
    /// programs here, at setup time.
    pub fn reward(&mut self, spec: RewardSpec) -> Result<RewardId, RewardSpecError> {
        spec.validate(self.net)?;
        let prog = match &spec {
            RewardSpec::Predicate(e) => Some(CompiledExpr::compile(e)),
            _ => None,
        };
        let id = RewardId(self.rewards.len());
        if let RewardSpec::Throughput(t) | RewardSpec::FiringCount(t) = &spec {
            self.firing_hooks[t.index()].push(id.0 as u32);
        }
        self.rewards.push(spec);
        self.pred_progs.push(prog);
        // The lowered program bakes the reward set in; rebuild on next run.
        self.lowered.take();
        Ok(id)
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
        self.net
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
    /// engine.
    ///
    /// This is the one site that records engine metrics: each successful
    /// run's event count goes into `engine_run_events` (whose count and
    /// sum are the run and event totals), after the run so it never
    /// touches seeding or results.
    pub fn run(&self, seed: u64) -> Result<SimOutput, SimError> {
        let out = super::lowered::LoweredEngine::new(self, seed).run();
        if let Ok(o) = &out {
            sim_runtime::obs().record(sim_runtime::obs::Metric::EngineRunEvents, o.total_firings());
        }
        #[cfg(debug_assertions)]
        if self.shadow_once.set(()).is_ok() {
            super::lowered::debug_assert_outputs_eq(&out, &self.run_reference(seed));
        }
        out
    }

    /// Execute one run on the **reference engine** — the original
    /// non-incremental core kept as an executable specification (see
    /// [`super::reference`]). Same seed ⇒ bit-identical output to
    /// [`Simulator::run`]; used by differential tests and benchmarks.
    pub fn run_reference(&self, seed: u64) -> Result<SimOutput, SimError> {
        super::reference::ReferenceEngine::new(self.net, &self.cfg, &self.rewards, seed).run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::expr::Expr;
    use crate::timing::Timing;

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

    /// Replications of one net that stop at different horizons each match
    /// the reference engine run to the same horizon: a run retires at its
    /// own end time, mid-way between events, whatever its neighbours do.
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
