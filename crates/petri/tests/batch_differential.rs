//! Differential tests over a batch of replications: every seed of a
//! replication set, and every horizon a run may stop at, must give from
//! `Simulator::run` (one replication per lowered engine) exactly what the
//! reference engine (`Simulator::run_reference`) gives — **bit for bit** —
//! across uncolored and colored nets, guards, inhibitors, priorities and
//! weights, all three memory policies, traces, warm-up windows, a net
//! wider than 32 transitions, runs that stop mid-way between events, and
//! runs that end in an error.
//!
//! Replications never interact and each consumes its RNG exactly as the
//! reference does, so any divergence is a real bug, not floating-point
//! noise — hence `assert_eq` on `f64` values, not tolerances.

use petri_core::arc::ColorExpr;
use petri_core::prelude::*;
use petri_core::sim::RewardSpec;
use proptest::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..33;

fn assert_same_output(a: &SimOutput, b: &SimOutput, label: &str, seed: u64) {
    let ctx = format!("{label} seed {seed}");
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

/// Run every seed of the batch on the lowered engine and on the reference
/// engine, and require bit-identical per-replication results.
fn assert_batch_identical(sim: &Simulator<'_>, label: &str) {
    for seed in SEEDS {
        match (sim.run_reference(seed), sim.run(seed)) {
            (Ok(a), Ok(b)) => assert_same_output(&a, &b, label, seed),
            (Err(a), Err(b)) => assert_eq!(a, b, "{label} seed {seed}: errors diverged"),
            (a, b) => panic!("{label} seed {seed}: reference {a:?} vs lowered {b:?}"),
        }
    }
}

// --- the differential nets (same shapes as tests/differential.rs) ---

fn mm1_net() -> Net {
    let mut b = NetBuilder::new("mm1");
    let q = b.place("q").build();
    b.transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(2.0))
        .input(q, 1)
        .build();
    b.build().unwrap()
}

fn mm1_rewards(net: &Net, sim: &mut Simulator<'_>) {
    sim.reward_place(net.place_by_name("q").unwrap());
    sim.reward(RewardSpec::Throughput(
        net.transition_by_name("arrive").unwrap(),
    ))
    .unwrap();
}

fn dvs_net() -> Net {
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
    b.build().unwrap()
}

fn dvs_rewards(net: &Net, sim: &mut Simulator<'_>) {
    sim.reward_place(net.place_by_name("Buffer").unwrap());
    sim.reward_predicate(Expr::count_color(net.place_by_name("Stage").unwrap(), Color(1)).gt_c(0))
        .unwrap();
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

fn memory_rewards(net: &Net, sim: &mut Simulator<'_>) {
    sim.reward_place(net.place_by_name("slept").unwrap());
}

fn conflicts_net() -> Net {
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
    b.build().unwrap()
}

fn conflicts_rewards(net: &Net, sim: &mut Simulator<'_>) {
    sim.reward_place(net.place_by_name("a").unwrap());
    sim.reward_place(net.place_by_name("z").unwrap());
}

// --- per-net lowered-vs-reference identity over the seed batch ---

#[test]
fn batch_differential_mm1() {
    let net = mm1_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0).with_trace(64));
    mm1_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "mm1");
}

#[test]
fn batch_differential_colored_dvs() {
    let net = dvs_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_warmup(20.0));
    dvs_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "colored-dvs");
}

#[test]
fn batch_differential_race_enable() {
    let net = memory_policy_net(MemoryPolicy::RaceEnable);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    memory_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "race-enable");
}

#[test]
fn batch_differential_race_age() {
    let net = memory_policy_net(MemoryPolicy::RaceAge);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    memory_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "race-age");
}

#[test]
fn batch_differential_resample() {
    let net = memory_policy_net(MemoryPolicy::Resample);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    memory_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "resample");
}

#[test]
fn batch_differential_immediate_conflicts() {
    let net = conflicts_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0));
    conflicts_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "immediate-conflicts");
}

/// A 40-stage tandem line: more than 32 transitions, so the next-event
/// scan walks 41 clocks where the reference engine pops its heap.
#[test]
fn batch_differential_wide_net() {
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
    assert_batch_identical(&sim, "wide-tandem");
}

// --- runs that stop at their own horizon, mid-way between events, and
// --- runs that end in an error, must each match the reference engine run
// --- to that horizon.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mid_batch_retirement_is_bit_identical(
        horizons in proptest::collection::vec(0.5f64..250.0, 2..12),
        seed0 in 0u64..1_000,
    ) {
        let net = dvs_net();
        for (i, &h) in horizons.iter().enumerate() {
            let seed = seed0 + i as u64;
            let mut sim = Simulator::new(&net, SimConfig::for_horizon(h).with_warmup(5.0));
            dvs_rewards(&net, &mut sim);
            let scalar = sim.run_reference(seed).unwrap();
            let lowered = sim.run(seed).unwrap();
            prop_assert_eq!(&lowered.firing_counts, &scalar.firing_counts);
            prop_assert_eq!(&lowered.rewards, &scalar.rewards);
            prop_assert_eq!(&lowered.final_marking, &scalar.final_marking);
            prop_assert_eq!(lowered.observed_time, scalar.observed_time);
        }
    }

    #[test]
    fn mixed_horizons_under_memory_policies(
        horizons in proptest::collection::vec(1.0f64..300.0, 2..9),
        seed0 in 0u64..1_000,
    ) {
        for policy in [MemoryPolicy::RaceEnable, MemoryPolicy::RaceAge, MemoryPolicy::Resample] {
            let net = memory_policy_net(policy);
            for (i, &h) in horizons.iter().enumerate() {
                let seed = seed0 + 31 * i as u64;
                let mut sim = Simulator::new(&net, SimConfig::for_horizon(h));
                memory_rewards(&net, &mut sim);
                let scalar = sim.run_reference(seed).unwrap();
                let lowered = sim.run(seed).unwrap();
                prop_assert_eq!(&lowered.firing_counts, &scalar.firing_counts);
                prop_assert_eq!(&lowered.rewards, &scalar.rewards);
                prop_assert_eq!(&lowered.final_marking, &scalar.final_marking);
            }
        }
    }
}

/// A run that trips `TokenOverflow` fails with exactly the reference error,
/// and short runs of the same net still finish cleanly and match.
#[test]
fn erroring_lanes_match_scalar_errors() {
    let mut b = NetBuilder::new("boom");
    let q = b.place("q").build();
    b.transition("gen", Timing::exponential(5.0))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(1.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    // Long runs overflow; the 0.5 s runs finish cleanly.
    let runs = [(3u64, 10_000.0), (4, 0.5), (5, 10_000.0), (6, 0.5)];
    let mut lowered = Vec::new();
    for (seed, h) in runs {
        let mut cfg = SimConfig::for_horizon(h);
        cfg.max_tokens_per_place = 40;
        let sim = Simulator::new(&net, cfg);
        let out = sim.run(seed);
        match (sim.run_reference(seed), &out) {
            (Ok(a), Ok(b)) => assert_same_output(&a, b, "boom", seed),
            (Err(a), Err(b)) => assert_eq!(&a, b, "seed {seed}: errors diverged"),
            (a, b) => panic!("seed {seed}: reference {a:?} vs lowered {b:?}"),
        }
        lowered.push(out);
    }
    // The long runs really did overflow and the short ones did not (the
    // test is not vacuous).
    assert!(matches!(lowered[0], Err(SimError::TokenOverflow { .. })));
    assert!(lowered[1].is_ok());
}
