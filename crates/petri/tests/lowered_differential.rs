//! Differential tests for the lowered micro-op engine: the one executor
//! behind `Simulator::run` must reproduce the reference engine
//! (`run_reference`) **bit for bit** — identical firing counts, reward
//! values, final markings, traces, and errors — for every seed, across
//! every feature the compiler lowers: uncolored and colored nets,
//! reducible and program-fallback guards, inhibitors, immediate priorities
//! and weights, multi-token arcs, all three memory policies, nets of over
//! 32 transitions (tied clocks and all-idle schedules included), traces,
//! and warm-up windows. Runs stopped at arbitrary horizons and runs that end
//! in an error are checked in `batch_differential.rs`.
//!
//! Both engines share one RNG and are written to consume draws in the same
//! order, so any divergence is a real bug in the lowering pass or the
//! direct-threaded executor, not floating-point noise — hence `assert_eq`
//! on `f64` values, not tolerances.

use petri_core::arc::ColorExpr;
use petri_core::prelude::*;
use petri_core::sim::RewardSpec;
use proptest::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..25;

fn assert_same_output(a: &SimOutput, b: &SimOutput, ctx: &str) {
    assert_eq!(
        a.firing_counts, b.firing_counts,
        "{ctx}: firing counts diverged"
    );
    assert_eq!(a.rewards, b.rewards, "{ctx}: rewards diverged");
    assert_eq!(
        a.final_marking, b.final_marking,
        "{ctx}: final markings diverged"
    );
    assert_eq!(a.trace, b.trace, "{ctx}: traces diverged");
    assert_eq!(a.trace_dropped, b.trace_dropped, "{ctx}: trace_dropped");
    assert_eq!(a.observed_time, b.observed_time, "{ctx}: observed_time");
}

fn assert_same_result(a: &Result<SimOutput, SimError>, b: &Result<SimOutput, SimError>, ctx: &str) {
    match (a, b) {
        (Ok(a), Ok(b)) => assert_same_output(a, b, ctx),
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: errors diverged"),
        (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
    }
}

/// The full cross-engine check on `seeds`: the lowered engine vs the
/// reference engine on every seed.
fn assert_identical_on(sim: &Simulator<'_>, label: &str, seeds: &[u64]) {
    for &seed in seeds {
        let lowered = sim.run(seed);
        let reference = sim.run_reference(seed);
        assert_same_result(&lowered, &reference, &format!("{label} seed {seed}"));
    }
}

fn assert_lowered_identical(sim: &Simulator<'_>, label: &str) {
    let seeds: Vec<u64> = SEEDS.collect();
    assert_identical_on(sim, label, &seeds);
}

// --- net shapes (mirroring tests/differential.rs, plus the wide nets) ---

#[test]
fn lowered_differential_mm1_with_traces() {
    let mut b = NetBuilder::new("mm1");
    let q = b.place("q").build();
    let arrive = b
        .transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(2.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0).with_trace(64));
    sim.reward_place(q);
    sim.reward(RewardSpec::Throughput(arrive)).unwrap();
    assert_lowered_identical(&sim, "mm1");
}

#[test]
fn lowered_differential_colored_dvs_with_warmup() {
    let dvs1 = Color(1);
    let dvs2 = Color(2);
    let dvs3 = Color(3);
    let mut b = NetBuilder::new("dvs");
    let buffer = b.place("Buffer").build();
    let stage = b.place("Stage").build();
    let idle = b.place("Idle").tokens(1).build();
    let slept = b.place("Slept").build();
    let done = b.place("Done").build();
    b.transition("gen", Timing::exponential(0.8))
        .output_colored(
            buffer,
            1,
            ColorExpr::Choice(vec![(dvs1, 0.5), (dvs2, 0.3), (dvs3, 0.2)]),
        )
        .build();
    b.transition("dispatch", Timing::immediate())
        .input(buffer, 1)
        .output_colored(stage, 1, ColorExpr::Transfer { arc_index: 0 })
        .build();
    b.transition("exec1", Timing::exponential(10.0))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs1))
        .output(done, 1)
        .build();
    b.transition("exec2", Timing::exponential(5.0))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs2))
        .output(done, 1)
        .build();
    b.transition("exec3", Timing::exponential(2.5))
        .input_filtered(stage, 1, ColorFilter::Eq(dvs3))
        .output(done, 1)
        .build();
    b.transition("sleep", Timing::deterministic(0.7))
        .input(idle, 1)
        .output(slept, 1)
        .inhibitor(stage, 1)
        .guard(Expr::count(buffer).eq_c(0))
        .build();
    b.transition("wake", Timing::exponential(1.0))
        .input(slept, 1)
        .output(idle, 1)
        .build();
    b.transition("collect", Timing::deterministic(2.0))
        .input(done, 1)
        .guard(Expr::count(done).gt_c(0))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_warmup(20.0));
    sim.reward_place(buffer);
    sim.reward_predicate(Expr::count_color(stage, dvs1).gt_c(0))
        .unwrap();
    assert_lowered_identical(&sim, "colored-dvs");
}

/// A guard the lowering pass cannot reduce to a count threshold
/// (`#a + #b <= 3` is not a single-place compare), forcing the
/// program-fallback tail op while the rest of the net stays dense.
#[test]
fn lowered_differential_unreducible_guard() {
    let mut b = NetBuilder::new("guard-fallback");
    let a = b.place("a").build();
    let z = b.place("z").build();
    b.transition("gen_a", Timing::exponential(2.0))
        .output(a, 1)
        .build();
    b.transition("gen_z", Timing::exponential(1.5))
        .output(z, 1)
        .build();
    b.transition("drain", Timing::exponential(3.0))
        .input(a, 1)
        .guard(Expr::count(a).add(Expr::count(z)).le_c(3))
        .build();
    b.transition("drain_z", Timing::exponential(2.0))
        .input(z, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    sim.reward_place(a);
    assert_lowered_identical(&sim, "guard-fallback");
}

fn memory_policy_net(policy: MemoryPolicy) -> Net {
    let mut b = NetBuilder::new("memory");
    let idle = b.place("idle").tokens(1).build();
    let buf = b.place("buf").build();
    let slept = b.place("slept").build();
    b.transition("arrive", Timing::exponential(1.4))
        .output(buf, 1)
        .build();
    b.transition("serve", Timing::exponential(6.0))
        .input(buf, 1)
        .build();
    b.transition("sleep", Timing::uniform(0.3, 1.1))
        .input(idle, 1)
        .output(slept, 1)
        .guard(Expr::count(buf).eq_c(0))
        .memory(policy)
        .build();
    b.transition("wake", Timing::erlang(3, 9.0))
        .input(slept, 1)
        .output(idle, 1)
        .build();
    b.build().unwrap()
}

#[test]
fn lowered_differential_memory_policies() {
    for policy in [
        MemoryPolicy::RaceEnable,
        MemoryPolicy::RaceAge,
        MemoryPolicy::Resample,
    ] {
        let net = memory_policy_net(policy);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
        sim.reward_place(net.place_by_name("slept").unwrap());
        assert_lowered_identical(&sim, &format!("memory-{policy:?}"));
    }
}

#[test]
fn lowered_differential_immediate_conflicts() {
    let mut b = NetBuilder::new("conflicts");
    let src = b.place("src").build();
    let a = b.place("a").build();
    let z = b.place("z").build();
    let gate = b.place("gate").tokens(1).build();
    b.transition("gen", Timing::exponential(3.0))
        .output(src, 1)
        .build();
    b.transition(
        "hi",
        Timing::Immediate {
            priority: 2,
            weight: 1.0,
        },
    )
    .input(src, 1)
    .output(a, 1)
    .inhibitor(a, 4)
    .build();
    b.transition(
        "lo1",
        Timing::Immediate {
            priority: 1,
            weight: 1.0,
        },
    )
    .input(src, 1)
    .output(z, 1)
    .build();
    b.transition(
        "lo2",
        Timing::Immediate {
            priority: 1,
            weight: 2.5,
        },
    )
    .input(src, 1)
    .output(z, 2)
    .build();
    b.transition("drain_a", Timing::deterministic(0.9))
        .input(a, 1)
        .guard(Expr::count(gate).gt_c(0))
        .build();
    b.transition("drain_z", Timing::exponential(4.0))
        .input(z, 1)
        .build();
    b.transition("flap", Timing::uniform(0.2, 0.6))
        .input(gate, 1)
        .output(gate, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0));
    sim.reward_place(a);
    sim.reward_place(z);
    assert_lowered_identical(&sim, "immediate-conflicts");
}

/// Multi-token arcs: a deterministic mover that needs and emits three
/// tokens, between exponential stages.
#[test]
fn lowered_differential_tandem_multi_token_arcs() {
    let mut b = NetBuilder::new("tandem");
    let p0 = b.place("p0").build();
    let p1 = b.place("p1").build();
    let p2 = b.place("p2").build();
    b.transition("source", Timing::exponential(2.0))
        .output(p0, 1)
        .build();
    b.transition("batch", Timing::deterministic(0.4))
        .input(p0, 3)
        .output(p1, 3)
        .build();
    b.transition("step", Timing::exponential(3.0))
        .input(p1, 1)
        .output(p2, 1)
        .build();
    b.transition("sink", Timing::exponential(2.5))
        .input(p2, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    sim.reward_place(p0);
    sim.reward_place(p1);
    assert_lowered_identical(&sim, "tandem-multi-token");
}

/// A 40-stage tandem line: more than 32 transitions, so the next-event
/// scan walks 41 clocks where the reference engine pops its heap.
#[test]
fn lowered_differential_wide_net_40_stage_tandem() {
    const STAGES: usize = 40;
    let mut b = NetBuilder::new("wide-tandem");
    let places: Vec<_> = (0..STAGES)
        .map(|i| b.place(format!("p{i}")).build())
        .collect();
    b.transition("source", Timing::exponential(1.5))
        .output(places[0], 1)
        .build();
    for i in 0..STAGES - 1 {
        b.transition(format!("t{i}"), Timing::exponential(2.0 + (i % 3) as f64))
            .input(places[i], 1)
            .output(places[i + 1], 1)
            .build();
    }
    b.transition("sink", Timing::exponential(2.0))
        .input(places[STAGES - 1], 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(60.0).with_trace(32));
    sim.reward_place(net.place_by_name("p0").unwrap());
    sim.reward_place(net.place_by_name("p20").unwrap());
    assert_lowered_identical(&sim, "wide-tandem");
}

/// 42 transitions whose deterministic clocks tie at every multiple of
/// 0.25: 30 self-loops with delays of 0.25 to 1.0, and two groups of three
/// that contend for one token and hand it back through an immediate.
/// Tied clocks fire lowest tid first, so the RaceEnable group's first
/// member wins every round, and the RaceAge group's members resume with
/// zero remaining delay and fire one after another at the same instant.
#[test]
fn lowered_differential_wide_net_tied_clocks_fire_lowest_tid_first() {
    let mut b = NetBuilder::new("wide-ties");
    for i in 0..30 {
        let p = b.place(format!("a{i}")).tokens(1).build();
        let delay = 0.25 * (i % 4 + 1) as f64;
        b.transition(format!("loop{i}"), Timing::deterministic(delay))
            .input(p, 1)
            .output(p, 1)
            .build();
    }
    let mut groups = Vec::new();
    for (name, policy) in [
        ("enable", MemoryPolicy::RaceEnable),
        ("age", MemoryPolicy::RaceAge),
    ] {
        let shared = b.place(format!("{name}_tok")).tokens(1).build();
        let members: Vec<TransitionId> = (0..3)
            .map(|j| {
                let held = b.place(format!("{name}_held{j}")).build();
                let t = b
                    .transition(format!("{name}{j}"), Timing::deterministic(1.0))
                    .input(shared, 1)
                    .output(held, 1)
                    .memory(policy)
                    .build();
                b.transition(format!("{name}_back{j}"), Timing::immediate())
                    .input(held, 1)
                    .output(shared, 1)
                    .build();
                t
            })
            .collect();
        groups.push(members);
    }
    let net = b.build().unwrap();
    assert!(net.num_transitions() > 32);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(20.0).with_trace(4096));
    sim.reward_place(net.place_by_name("enable_tok").unwrap());
    sim.reward_firings(groups[1][2]);
    assert_identical_on(&sim, "wide-ties", &[0, 1, 2]);

    let out = sim.run(0).unwrap();
    assert_eq!(out.trace_dropped, 0);
    let timed: Vec<_> = out
        .trace
        .iter()
        .filter(|e| !net.transition(e.transition).timing.is_immediate())
        .collect();
    for w in timed.windows(2) {
        if w[0].time == w[1].time {
            assert!(w[0].transition < w[1].transition, "{:?}", w);
        }
    }
    let count = |t: TransitionId| out.firing_counts[t.index()];
    assert_eq!(count(groups[0][0]), 19);
    assert_eq!(count(groups[0][1]) + count(groups[0][2]), 0);
    assert!(groups[1].iter().all(|&t| count(t) == 19));
}

/// 35 transitions, none of whose 34 timed ones is ever enabled: after the
/// time-zero immediate the schedule is empty, and the run must still
/// reach its horizon and integrate the tail.
#[test]
fn lowered_differential_wide_net_never_schedules() {
    let mut b = NetBuilder::new("wide-idle");
    let start = b.place("start").tokens(1).build();
    let done = b.place("done").build();
    let never = b.place("never").build();
    b.transition("go", Timing::immediate())
        .input(start, 1)
        .output(done, 1)
        .build();
    let timings = [
        Timing::exponential(1.0),
        Timing::deterministic(0.5),
        Timing::uniform(0.1, 0.9),
        Timing::erlang(2, 3.0),
    ];
    for i in 0..34 {
        b.transition(format!("t{i}"), timings[i % 4])
            .input(never, 1)
            .output(done, 1)
            .build();
    }
    let net = b.build().unwrap();
    assert!(net.num_transitions() > 32);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(50.0).with_trace(8));
    sim.reward_place(done);
    assert_lowered_identical(&sim, "wide-idle");

    let out = sim.run(0).unwrap();
    assert_eq!(out.total_firings(), 1);
    assert_eq!(out.rewards, [1.0]);
    assert_eq!(out.end_time, 50.0);
}

/// Error outcomes must match exactly too: an overflowing run trips the
/// same `TokenOverflow` (place, time, limit) on both engines.
#[test]
fn lowered_differential_token_overflow_errors() {
    let mut b = NetBuilder::new("boom");
    let q = b.place("q").build();
    b.transition("gen", Timing::exponential(5.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(1.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut cfg = SimConfig::for_horizon(10_000.0);
    cfg.max_tokens_per_place = 40;
    let sim = Simulator::new(&net, cfg);
    let mut overflowed = 0;
    for seed in SEEDS {
        let lowered = sim.run(seed);
        assert_same_result(
            &lowered,
            &sim.run_reference(seed),
            &format!("boom seed {seed}"),
        );
        if matches!(lowered, Err(SimError::TokenOverflow { .. })) {
            overflowed += 1;
        }
    }
    assert!(
        overflowed > 0,
        "overflow net never overflowed (vacuous test)"
    );
}

// --- fast paths of the scan scheduler, the immediate cascade and the ------
// --- reward loop ------------------------------------------------------------

/// The scan scheduler reads only the timed transitions, in ascending tid
/// order. Here timed transitions sit between immediates in tid order, and
/// their deterministic delays tie at every whole and half instant, so the
/// lowest-tid tie rule decides the firing order at each tie.
#[test]
fn lowered_differential_scan_ties_between_interleaved_immediates() {
    let mut b = NetBuilder::new("interleaved-ties");
    let clk_a = b.place("clk_a").tokens(1).build();
    let clk_b = b.place("clk_b").tokens(1).build();
    let clk_c = b.place("clk_c").tokens(1).build();
    let x = b.place("x").build();
    let y = b.place("y").build();
    let z = b.place("z").build();
    let sink = b.place("sink").build();
    let imm_x = b
        .transition("imm_x", Timing::immediate())
        .input(x, 1)
        .output(y, 1)
        .build();
    let tick_a = b
        .transition("tick_a", Timing::deterministic(1.0))
        .input(clk_a, 1)
        .output(clk_a, 1)
        .output(x, 1)
        .build();
    let imm_y = b
        .transition("imm_y", Timing::immediate_pri(2))
        .input(y, 1)
        .output(z, 1)
        .build();
    let tick_b = b
        .transition("tick_b", Timing::deterministic(1.0))
        .input(clk_b, 1)
        .output(clk_b, 1)
        .output(y, 1)
        .build();
    b.transition("imm_z", Timing::immediate())
        .input(z, 2)
        .output(sink, 1)
        .build();
    let tick_c = b
        .transition("tick_c", Timing::deterministic(0.5))
        .input(clk_c, 1)
        .output(clk_c, 1)
        .output(z, 1)
        .build();
    b.transition("drain", Timing::exponential(3.0))
        .input(sink, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(40.0).with_trace(4096));
    sim.reward_place(z);
    sim.reward_place(sink);
    assert_lowered_identical(&sim, "interleaved-ties");

    // The tie rule itself: at every whole instant the three ticks fire in
    // tid order, each followed by the immediates it enables.
    let out = sim.run(0).unwrap();
    assert_eq!(out.trace_dropped, 0);
    let ticks: Vec<_> = out
        .trace
        .iter()
        .filter(|e| e.time == 1.0 && [tick_a, tick_b, tick_c].contains(&e.transition))
        .map(|e| e.transition)
        .collect();
    assert_eq!(ticks, [tick_a, tick_b, tick_c]);
    let at_one: Vec<_> = out
        .trace
        .iter()
        .filter(|e| e.time == 1.0)
        .map(|e| e.transition)
        .collect();
    assert_eq!(&at_one[..3], [tick_a, imm_x, imm_y]);
}

/// The cascade alternates between exactly one enabled immediate (fired
/// without an RNG draw) and two equal-priority ones (one weighted draw).
/// An extra or missing draw in either case would shift every later
/// exponential delay, so the differential check sees it.
#[test]
fn lowered_differential_one_and_several_enabled_immediates() {
    let mut b = NetBuilder::new("one-then-several");
    let src = b.place("src").build();
    let one = b.place("one").tokens(1).build();
    let many = b.place("many").build();
    let done = b.place("done").build();
    let px = b.place("px").build();
    let py = b.place("py").build();
    b.transition("gen", Timing::exponential(2.0))
        .output(src, 1)
        .build();
    let solo = b
        .transition("solo", Timing::immediate())
        .input(src, 1)
        .input(one, 1)
        .output(done, 1)
        .output(many, 1)
        .build();
    let pick_x = b
        .transition("pick_x", Timing::immediate())
        .input(src, 1)
        .input(many, 1)
        .output(px, 1)
        .output(one, 1)
        .build();
    let pick_y = b
        .transition(
            "pick_y",
            Timing::Immediate {
                priority: 1,
                weight: 3.0,
            },
        )
        .input(src, 1)
        .input(many, 1)
        .output(py, 1)
        .output(one, 1)
        .build();
    for (name, p) in [("drain_done", done), ("drain_x", px), ("drain_y", py)] {
        b.transition(name, Timing::exponential(5.0))
            .input(p, 1)
            .build();
    }
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0).with_trace(64));
    sim.reward_place(px);
    sim.reward_place(py);
    assert_lowered_identical(&sim, "one-then-several");

    // Both cases really occur, and they alternate.
    let out = sim.run(3).unwrap();
    let fired = |t: TransitionId| out.firing_counts[t.index()];
    let (n_solo, n_x, n_y) = (fired(solo), fired(pick_x), fired(pick_y));
    assert!(n_x > 0 && n_y > 0, "no weighted conflict was resolved");
    assert!(n_solo.abs_diff(n_x + n_y) <= 1, "{n_solo} vs {n_x} + {n_y}");
}

/// Every reward shape, registered interleaved: place averages between
/// threshold predicates, "any place non-empty" predicates, general
/// predicate programs and firing counters. The lowered engine integrates
/// place averages in one loop ahead of the predicate program, so each
/// reward must still be reported at its registration index.
#[test]
fn lowered_differential_interleaved_reward_shapes() {
    let mut b = NetBuilder::new("reward-shapes");
    let a = b.place("a").build();
    let c = b.place("c").build();
    let d = b.place("d").build();
    let gen = b
        .transition("gen", Timing::exponential(2.0))
        .output(a, 1)
        .build();
    b.transition("move", Timing::exponential(1.5))
        .input(a, 1)
        .output(c, 1)
        .build();
    b.transition("split", Timing::uniform(0.1, 0.9))
        .input(c, 1)
        .output(d, 2)
        .build();
    let drain = b
        .transition("drain", Timing::exponential(4.0))
        .input(d, 1)
        .build();
    let net = b.build().unwrap();
    let specs = vec![
        RewardSpec::PlaceTokens(c),
        RewardSpec::Predicate(Expr::count(a).gt_c(1)),
        RewardSpec::Throughput(gen),
        RewardSpec::PlaceTokens(a),
        RewardSpec::Predicate(Expr::count(a).gt_c(0).or(Expr::count(d).gt_c(0))),
        RewardSpec::Predicate(Expr::count(a).add(Expr::count(c)).gt_c(2)),
        RewardSpec::PlaceTokens(d),
        RewardSpec::FiringCount(drain),
        RewardSpec::Predicate(Expr::count(d).lt_c(3)),
        RewardSpec::PlaceTokens(a),
    ];
    let cfg = SimConfig::for_horizon(150.0).with_warmup(10.0);
    let mut sim = Simulator::new(&net, cfg.clone());
    for spec in &specs {
        sim.reward(spec.clone()).unwrap();
    }
    assert_lowered_identical(&sim, "reward-shapes");

    // Each reported value is the one its spec yields when registered
    // alone.
    for seed in 0..5 {
        let all = sim.run(seed).unwrap().rewards;
        assert_eq!(all.len(), specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let mut alone = Simulator::new(&net, cfg.clone());
            alone.reward(spec.clone()).unwrap();
            let want = alone.run(seed).unwrap().rewards[0];
            assert_eq!(all[i].to_bits(), want.to_bits(), "reward {i} ({spec:?})");
        }
    }
}

// --- randomized cross-engine agreement -------------------------------------

/// One random uncolored transition description.
#[derive(Debug, Clone)]
struct RandTransition {
    timing: u8,
    rate: f64,
    lo: f64,
    span: f64,
    k: u32,
    priority: u8,
    weight: f64,
    policy: u8,
    input: (usize, u32),
    output: Option<(usize, u32)>,
    inhibitor: Option<(usize, u32)>,
    guard: Option<(usize, i64)>,
}

fn arb_transition(places: usize) -> impl Strategy<Value = RandTransition> {
    (
        0u8..5,
        0.5f64..5.0,
        0.05f64..0.5,
        0.01f64..1.0,
        1u32..4,
        1u8..4,
        0.5f64..3.0,
        0u8..3,
        (0..places, 1u32..3),
        proptest::option::of((0..places, 1u32..3)),
        proptest::option::of((0..places, 1u32..4)),
        proptest::option::of((0..places, 0i64..4)),
    )
        .prop_map(
            |(
                timing,
                rate,
                lo,
                span,
                k,
                priority,
                weight,
                policy,
                input,
                output,
                inhibitor,
                guard,
            )| {
                RandTransition {
                    timing,
                    rate,
                    lo,
                    span,
                    k,
                    priority,
                    weight,
                    policy,
                    input,
                    output,
                    inhibitor,
                    guard,
                }
            },
        )
}

fn build_random_net(tokens: &[u32], transitions: &[RandTransition]) -> Net {
    let mut b = NetBuilder::new("random");
    let places: Vec<_> = tokens
        .iter()
        .enumerate()
        .map(|(i, &n)| b.place(format!("p{i}")).tokens(n as usize).build())
        .collect();
    for (i, t) in transitions.iter().enumerate() {
        let timing = match t.timing {
            0 => Timing::exponential(t.rate),
            1 => Timing::deterministic(t.lo),
            2 => Timing::uniform(t.lo, t.lo + t.span),
            3 => Timing::erlang(t.k, t.rate),
            _ => Timing::Immediate {
                priority: t.priority,
                weight: t.weight,
            },
        };
        let policy = match t.policy {
            0 => MemoryPolicy::RaceEnable,
            1 => MemoryPolicy::RaceAge,
            _ => MemoryPolicy::Resample,
        };
        let mut tb = b
            .transition(format!("t{i}"), timing)
            .input(places[t.input.0], t.input.1)
            .memory(policy);
        if let Some((p, m)) = t.output {
            tb = tb.output(places[p], m);
        }
        if let Some((p, th)) = t.inhibitor {
            tb = tb.inhibitor(places[p], th);
        }
        if let Some((p, c)) = t.guard {
            tb = tb.guard(Expr::count(places[p]).le_c(c));
        }
        tb.build();
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random small nets: the lowered engine must agree bit-for-bit with
    /// the reference engine on
    /// the outcome, whether that outcome is a clean run, an immediate
    /// livelock, or a token overflow.
    #[test]
    fn random_nets_agree_across_all_engines(
        tokens in proptest::collection::vec(0u32..4, 2..5),
        transitions in proptest::collection::vec(arb_transition(2), 2..6),
        seed in 0u64..10_000,
    ) {
        // Arc place indices were drawn against the minimum place count;
        // clamp them into range for the actual vector length.
        let np = tokens.len();
        let transitions: Vec<RandTransition> = transitions
            .into_iter()
            .map(|mut t| {
                t.input.0 %= np;
                if let Some(o) = &mut t.output { o.0 %= np; }
                if let Some(i) = &mut t.inhibitor { i.0 %= np; }
                if let Some(g) = &mut t.guard { g.0 %= np; }
                t
            })
            .collect();
        let net = build_random_net(&tokens, &transitions);
        let mut cfg = SimConfig::for_horizon(25.0);
        cfg.max_tokens_per_place = 200;
        // Livelocking nets error after this many zero-time firings; the
        // check is the same at any limit, and a small one keeps the debug
        // build fast.
        cfg.max_zero_time_firings = 5_000;
        let mut sim = Simulator::new(&net, cfg);
        sim.reward_place(net.place_by_name("p0").unwrap());
        let seeds: Vec<u64> = (seed..seed + 33).collect();
        assert_identical_on(&sim, "random net", &seeds);
    }
}

// --- random guard trees, predicate rewards and colored nets ----------------

/// SplitMix64 step: expression trees are grown from one drawn seed, so a
/// failing case reproduces from its printed inputs.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn below(state: &mut u64, n: u64) -> u64 {
    splitmix(state) % n
}

/// A count term: a place total, or (with `colors > 0`) sometimes the count
/// of one color `0..colors` in it.
fn rand_count(g: &mut u64, places: &[PlaceId], colors: u32) -> Expr {
    let p = places[below(g, places.len() as u64) as usize];
    if colors > 0 && below(g, 2) == 0 {
        Expr::count_color(p, Color(below(g, colors as u64) as u32))
    } else {
        Expr::count(p)
    }
}

/// `count cmp k` or `count + count cmp k` with every comparison operator
/// and `k` in `0..4` — so `==`/`!=` against nonzero constants (which have
/// no threshold form) come up as often as the reducible shapes.
fn rand_cmp(g: &mut u64, places: &[PlaceId], colors: u32) -> Expr {
    let mut lhs = rand_count(g, places, colors);
    if below(g, 3) == 0 {
        lhs = lhs.add(rand_count(g, places, colors));
    }
    let k = Expr::constant(below(g, 4) as i64);
    match below(g, 6) {
        0 => lhs.eq(k),
        1 => lhs.ne(k),
        2 => lhs.lt(k),
        3 => lhs.le(k),
        4 => lhs.gt(k),
        _ => lhs.ge(k),
    }
}

/// A random `And`/`Or`/`Not` tree of comparisons, at most `depth` deep.
fn rand_guard(g: &mut u64, places: &[PlaceId], colors: u32, depth: u32) -> Expr {
    let pick = if depth == 0 { 0 } else { below(g, 5) };
    match pick {
        0 | 1 => rand_cmp(g, places, colors),
        2 => rand_guard(g, places, colors, depth - 1).and(rand_guard(g, places, colors, depth - 1)),
        3 => rand_guard(g, places, colors, depth - 1).or(rand_guard(g, places, colors, depth - 1)),
        _ => rand_guard(g, places, colors, depth - 1).not(),
    }
}

/// An "any place non-empty" predicate: an `Or` of one to three sums of
/// one to three counts, each compared `> 0` or `>= 1`.
fn rand_any_nonempty(g: &mut u64, places: &[PlaceId], colors: u32) -> Expr {
    let mut any: Option<Expr> = None;
    for _ in 0..1 + below(g, 3) {
        let mut sum = rand_count(g, places, colors);
        for _ in 0..below(g, 3) {
            sum = sum.add(rand_count(g, places, colors));
        }
        let term = if below(g, 2) == 0 {
            sum.gt_c(0)
        } else {
            sum.ge_c(1)
        };
        any = Some(match any {
            Some(e) => e.or(term),
            None => term,
        });
    }
    any.expect("at least one term")
}

/// Register the predicate rewards the lowering pass specializes (single
/// comparisons, "any place non-empty" shapes) next to arbitrary trees that
/// stay on the program path.
fn add_random_predicates(sim: &mut Simulator<'_>, g: &mut u64, places: &[PlaceId], colors: u32) {
    sim.reward_predicate(rand_any_nonempty(g, places, colors))
        .unwrap();
    sim.reward_predicate(rand_any_nonempty(g, places, colors))
        .unwrap();
    sim.reward_predicate(rand_cmp(g, places, colors)).unwrap();
    sim.reward_predicate(rand_guard(g, places, colors, 3))
        .unwrap();
}

fn random_timing(t: &RandTransition) -> (Timing, MemoryPolicy) {
    let timing = match t.timing {
        0 => Timing::exponential(t.rate),
        1 => Timing::deterministic(t.lo),
        2 => Timing::uniform(t.lo, t.lo + t.span),
        3 => Timing::erlang(t.k, t.rate),
        _ => Timing::Immediate {
            priority: t.priority,
            weight: t.weight,
        },
    };
    let policy = match t.policy {
        0 => MemoryPolicy::RaceEnable,
        1 => MemoryPolicy::RaceAge,
        _ => MemoryPolicy::Resample,
    };
    (timing, policy)
}

/// A small-net config whose livelock and overflow limits keep the debug
/// build fast while still exercising both error outcomes.
fn random_config(warmup: bool) -> SimConfig {
    let mut cfg = SimConfig::for_horizon(25.0);
    if warmup {
        cfg = cfg.with_warmup(5.0);
    }
    cfg.max_tokens_per_place = 200;
    cfg.max_zero_time_firings = 5_000;
    cfg
}

/// One random colored transition: a base uncolored description plus the
/// color filter of its input and inhibitor arcs, the color expression of
/// its output arc, and an optional guard-tree seed.
#[derive(Debug, Clone)]
struct RandColored {
    base: RandTransition,
    /// (kind: 0 Any / 1 Eq / 2 In / 3 Ne, color a, color b).
    in_filter: (u8, u32, u32),
    /// (kind: 0 plain / 1 Const / 2 Choice / 3 one-entry Choice /
    /// 4 Transfer / 5 Choice over more colors than a place slots, a, b).
    out_color: (u8, u32, u32),
    /// Same encoding as `in_filter`.
    inh_filter: (u8, u32, u32),
    guard_seed: Option<u64>,
}

fn arb_colored(places: usize) -> impl Strategy<Value = RandColored> {
    (
        arb_transition(places),
        (0u8..4, 0u32..4, 0u32..4),
        (0u8..6, 0u32..4, 0u32..4),
        (0u8..4, 0u32..4, 0u32..4),
        proptest::option::of(0u64..u64::MAX),
    )
        .prop_map(
            |(base, in_filter, out_color, inh_filter, guard_seed)| RandColored {
                base,
                in_filter,
                out_color,
                inh_filter,
                guard_seed,
            },
        )
}

fn filter_of((kind, a, b): (u8, u32, u32)) -> ColorFilter {
    match kind {
        0 => ColorFilter::Any,
        1 => ColorFilter::Eq(Color(a)),
        2 => ColorFilter::In(vec![Color(a), Color(b)]),
        _ => ColorFilter::Ne(Color(a)),
    }
}

fn color_expr_of((kind, a, b): (u8, u32, u32)) -> ColorExpr {
    match kind {
        0 => ColorExpr::Const(Color::NONE),
        1 => ColorExpr::Const(Color(a)),
        2 => ColorExpr::Choice(vec![(Color(a), 1.0), (Color(b), 2.0)]),
        3 => ColorExpr::Choice(vec![(Color(a), 1.0)]),
        4 => ColorExpr::Transfer { arc_index: 0 },
        _ => ColorExpr::Choice((1..=20).map(|c| (Color(c), 1.0)).collect()),
    }
}

fn build_colored_net(
    tokens: &[u32],
    init_colors: &[u32],
    transitions: &[RandColored],
) -> (Net, Vec<PlaceId>) {
    let mut b = NetBuilder::new("random-colored");
    let places: Vec<_> = tokens
        .iter()
        .zip(init_colors)
        .enumerate()
        .map(|(i, (&n, &c))| {
            let mut pb = b.place(format!("p{i}"));
            for _ in 0..n {
                pb = pb.token_colored(Color(c));
            }
            pb.build()
        })
        .collect();
    // A colored job source keeps colors flowing into the first place.
    b.transition("feed", Timing::exponential(1.0))
        .output_colored(
            places[0],
            1,
            ColorExpr::Choice(vec![(Color(1), 1.0), (Color(2), 1.0), (Color(3), 1.0)]),
        )
        .build();
    for (i, t) in transitions.iter().enumerate() {
        let (timing, policy) = random_timing(&t.base);
        let mut tb = b
            .transition(format!("t{i}"), timing)
            .input_filtered(
                places[t.base.input.0],
                t.base.input.1,
                filter_of(t.in_filter),
            )
            .memory(policy);
        if let Some((p, m)) = t.base.output {
            tb = tb.output_colored(places[p], m, color_expr_of(t.out_color));
        }
        if let Some((p, th)) = t.base.inhibitor {
            tb = tb.inhibitor_filtered(places[p], th, filter_of(t.inh_filter));
        }
        if let Some(seed) = t.guard_seed {
            let mut g = seed;
            tb = tb.guard(rand_guard(&mut g, &places, 4, 2));
        }
        tb.build();
    }
    (b.build().unwrap(), places)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random uncolored nets whose guards are random `And`/`Or`/`Not`
    /// trees (split into per-conjunct conditions, reducible conjuncts
    /// lowered to count thresholds) and whose predicate rewards mix
    /// "any place non-empty" shapes with arbitrary trees: the lowered
    /// engine must match the reference engine bit for bit, errors
    /// included.
    #[test]
    fn random_guard_trees_and_predicates_agree(
        tokens in proptest::collection::vec(0u32..4, 2..5),
        transitions in proptest::collection::vec(arb_transition(2), 2..6),
        guard_seeds in proptest::collection::vec(proptest::option::of(0u64..u64::MAX), 6),
        pred_seed in 0u64..u64::MAX,
        warmup in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let mut b = NetBuilder::new("random-guards");
        let places: Vec<_> = tokens
            .iter()
            .enumerate()
            .map(|(i, &n)| b.place(format!("p{i}")).tokens(n as usize).build())
            .collect();
        let np = places.len();
        for (i, (t, gs)) in transitions.iter().zip(&guard_seeds).enumerate() {
            let (timing, policy) = random_timing(t);
            let mut tb = b
                .transition(format!("t{i}"), timing)
                .input(places[t.input.0 % np], t.input.1)
                .memory(policy);
            if let Some((p, m)) = t.output {
                tb = tb.output(places[p % np], m);
            }
            if let Some((p, th)) = t.inhibitor {
                tb = tb.inhibitor(places[p % np], th);
            }
            if let Some(seed) = gs {
                let mut g = *seed;
                tb = tb.guard(rand_guard(&mut g, &places, 0, 3));
            }
            tb.build();
        }
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, random_config(warmup == 1));
        sim.reward_place(places[0]);
        let mut g = pred_seed;
        add_random_predicates(&mut sim, &mut g, &places, 0);
        let seeds: Vec<u64> = (seed..seed + 33).collect();
        assert_identical_on(&sim, "random guards", &seeds);
    }

    /// Random colored nets: `Const`/`Choice`/one-entry-`Choice`/`Transfer`
    /// deposits (plus a Choice wide enough to leave a place without color
    /// slots), `Any`/`Eq`/`In`/`Ne` input and inhibitor filters, and guard
    /// trees and predicates over `count_color` — every shape the lowering
    /// pass moves onto per-color counts, next to the ones it must leave on
    /// the generic path, checked against the reference engine.
    #[test]
    fn random_colored_nets_agree(
        tokens in proptest::collection::vec(0u32..3, 2..5),
        init_colors in proptest::collection::vec(0u32..4, 4),
        transitions in proptest::collection::vec(arb_colored(2), 2..6),
        pred_seed in 0u64..u64::MAX,
        warmup in 0u8..2,
        seed in 0u64..10_000,
    ) {
        let np = tokens.len();
        let transitions: Vec<RandColored> = transitions
            .into_iter()
            .map(|mut t| {
                t.base.input.0 %= np;
                if let Some(o) = &mut t.base.output { o.0 %= np; }
                if let Some(i) = &mut t.base.inhibitor { i.0 %= np; }
                t
            })
            .collect();
        let (net, places) = build_colored_net(&tokens, &init_colors[..np], &transitions);
        let mut sim = Simulator::new(&net, random_config(warmup == 1));
        sim.reward_place(places[0]);
        let mut g = pred_seed;
        add_random_predicates(&mut sim, &mut g, &places, 4);
        let seeds: Vec<u64> = (seed..seed + 33).collect();
        assert_identical_on(&sim, "random colored net", &seeds);
    }
}
