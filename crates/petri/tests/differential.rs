//! Differential tests: the production engine (`Simulator::run`) must
//! reproduce the reference engine (`Simulator::run_reference`) **bit for
//! bit** — identical firing counts, identical reward values, identical
//! final markings — for the same seed, across every feature the engine
//! supports: uncolored and colored nets, guards, inhibitors, priorities and
//! weights, and all three memory policies.
//!
//! Both engines share one RNG implementation and are written to consume
//! draws in the same order, so any divergence is a real semantic bug in the
//! lowered engine, not floating-point noise — hence `assert_eq` on
//! `f64` values, not tolerances.

use petri_core::arc::ColorExpr;
use petri_core::prelude::*;
use petri_core::sim::RewardSpec;

const SEEDS: std::ops::Range<u64> = 0..25;

/// Run both engines on every seed and require identical outputs: `run`
/// (the lowered engine) and the reference engine.
fn assert_identical(sim: &Simulator<'_>, label: &str) {
    for seed in SEEDS {
        let fast = sim
            .run(seed)
            .unwrap_or_else(|e| panic!("{label}/run seed {seed}: {e}"));
        let reference = sim
            .run_reference(seed)
            .unwrap_or_else(|e| panic!("{label}/reference seed {seed}: {e}"));
        assert_eq!(
            fast.firing_counts, reference.firing_counts,
            "{label} seed {seed}: firing counts diverged"
        );
        assert_eq!(
            fast.rewards, reference.rewards,
            "{label} seed {seed}: rewards diverged"
        );
        assert_eq!(
            fast.final_marking, reference.final_marking,
            "{label} seed {seed}: final markings diverged"
        );
        assert_eq!(
            fast.trace, reference.trace,
            "{label} seed {seed}: traces diverged"
        );
    }
}

/// Uncolored open M/M/1 — the dense count-vector fast path.
#[test]
fn differential_mm1() {
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
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(2_000.0).with_trace(64));
    sim.reward_place(q);
    sim.reward(RewardSpec::Throughput(arrive)).unwrap();
    assert_identical(&sim, "mm1");
}

/// A DVS-style colored net: a generator emits jobs of three service classes
/// (weighted Choice), a buffer holds them, class-filtered executors drain
/// them at different speeds, and a guard-gated idle timer watches the
/// buffer — colors, filters, Transfer arcs, guards, and immediates at once.
#[test]
fn differential_colored_dvs() {
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
    // Stage the job, color preserved, waking the CPU.
    b.transition("dispatch", Timing::immediate())
        .input(buffer, 1)
        .output_colored(stage, 1, ColorExpr::Transfer { arc_index: 0 })
        .build();
    // Per-class service speeds.
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
    // Idle timer: requires an empty buffer and stage; inhibited by staged
    // work; RaceEnable restart semantics.
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
    // Drain finished jobs, colored-count guard exercises #place[color].
    b.transition("collect", Timing::deterministic(2.0))
        .input(done, 1)
        .guard(Expr::count(done).gt_c(0))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0).with_warmup(20.0));
    sim.reward_place(buffer);
    sim.reward_predicate(Expr::count_color(stage, dvs1).gt_c(0))
        .unwrap();
    assert_identical(&sim, "colored-dvs");
}

/// One net per memory policy: an interrupted deterministic timer under
/// RaceEnable (clock restarts), RaceAge (clock freezes and resumes), and
/// Resample (clock redrawn at every marking change).
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
    // Uniform timer so Resample actually re-draws different delays.
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
fn differential_race_enable() {
    let net = memory_policy_net(MemoryPolicy::RaceEnable);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(800.0));
    let slept = net.place_by_name("slept").unwrap();
    sim.reward_place(slept);
    assert_identical(&sim, "race-enable");
}

#[test]
fn differential_race_age() {
    let net = memory_policy_net(MemoryPolicy::RaceAge);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(800.0));
    let slept = net.place_by_name("slept").unwrap();
    sim.reward_place(slept);
    assert_identical(&sim, "race-age");
}

#[test]
fn differential_resample() {
    let net = memory_policy_net(MemoryPolicy::Resample);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(800.0));
    let slept = net.place_by_name("slept").unwrap();
    sim.reward_place(slept);
    assert_identical(&sim, "resample");
}

/// Immediate priority ladders and weighted conflicts, with inhibitors
/// feeding back — stresses the enabled-immediates index.
#[test]
fn differential_immediate_conflicts() {
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
    // The gate flaps, forcing guard-driven enable/disable churn.
    b.transition("flap", Timing::uniform(0.2, 0.6))
        .input(gate, 1)
        .output(gate, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(400.0));
    sim.reward_place(a);
    sim.reward_place(z);
    assert_identical(&sim, "immediate-conflicts");
}

/// Multi-token arcs and multi-place invariant chains (tandem), uncolored.
#[test]
fn differential_tandem_batching() {
    let mut b = NetBuilder::new("tandem");
    let p0 = b.place("p0").build();
    let p1 = b.place("p1").build();
    let p2 = b.place("p2").build();
    b.transition("source", Timing::exponential(2.0))
        .output(p0, 1)
        .build();
    // Batch mover: needs 3 tokens, emits 3.
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
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(600.0));
    sim.reward_place(p0);
    sim.reward_place(p1);
    assert_identical(&sim, "tandem-batching");
}
