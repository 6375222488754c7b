//! Differential tests for batched execution: `Simulator::run_batch` (and
//! its per-lane-horizon variant) must reproduce the reference engine
//! (`Simulator::run_reference`) **bit for bit** — per replication, at every
//! batch width — across every feature the engine supports: uncolored and
//! colored nets, guards, inhibitors, priorities and weights, all three
//! memory policies, traces, warm-up windows, and lanes that retire
//! mid-batch (per-lane horizons and per-lane errors).
//!
//! Lanes never interact and each consumes its RNG exactly as a scalar run
//! does, so any divergence is a real indexing/striping bug in the batch
//! machinery, not floating-point noise — hence `assert_eq` on `f64`
//! values, not tolerances.

use petri_core::arc::ColorExpr;
use petri_core::prelude::*;
use petri_core::sim::RewardSpec;
use proptest::prelude::*;

/// The batch widths every net is checked at (1 = degenerate batch, primes
/// and non-divisors of the seed count to exercise ragged tail chunks).
const WIDTHS: [usize; 5] = [1, 2, 3, 8, 33];
const SEEDS: std::ops::Range<u64> = 0..33;

fn assert_same_output(a: &SimOutput, b: &SimOutput, label: &str, seed: u64, width: usize) {
    let ctx = format!("{label} seed {seed} width {width}");
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

/// Run the reference engine once per seed, then every batch width over the
/// same seeds, and require bit-identical per-replication results.
fn assert_batch_identical(sim: &Simulator<'_>, label: &str) {
    let seeds: Vec<u64> = SEEDS.collect();
    let scalar: Vec<_> = seeds.iter().map(|&s| sim.run_reference(s)).collect();
    for &w in &WIDTHS {
        for (ci, chunk) in seeds.chunks(w).enumerate() {
            for (j, res) in sim.run_batch(chunk).iter().enumerate() {
                let i = ci * w + j;
                match (&scalar[i], res) {
                    (Ok(a), Ok(b)) => assert_same_output(a, b, label, seeds[i], w),
                    (Err(a), Err(b)) => {
                        assert_eq!(a, b, "{label} seed {} width {w}: errors diverged", seeds[i])
                    }
                    (a, b) => panic!(
                        "{label} seed {} width {w}: reference {a:?} vs batched {b:?}",
                        seeds[i]
                    ),
                }
            }
        }
    }
}

// --- the seven differential nets (same shapes as tests/differential.rs) ---

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

fn tandem_net() -> Net {
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
    b.build().unwrap()
}

fn tandem_rewards(net: &Net, sim: &mut Simulator<'_>) {
    sim.reward_place(net.place_by_name("p0").unwrap());
    sim.reward_place(net.place_by_name("p1").unwrap());
}

// --- per-net batch-vs-reference identity at every width ---

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

#[test]
fn batch_differential_tandem_batching() {
    let net = tandem_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    tandem_rewards(&net, &mut sim);
    assert_batch_identical(&sim, "tandem-batching");
}

/// A 40-stage tandem line: with more than 32 transitions the engine
/// falls back from the stripe-scan scheduler to the per-lane lazy-deletion
/// heaps, so this net keeps the heap path under differential coverage.
#[test]
fn batch_differential_wide_net_heap_scheduler() {
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
    assert_batch_identical(&sim, "wide-tandem-heap");
}

// --- mid-batch retirement: lanes with different horizons, and lanes that
// --- error, must each match the reference engine run to that lane's
// --- horizon.

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn mid_batch_retirement_is_bit_identical(
        horizons in proptest::collection::vec(0.5f64..250.0, 2..12),
        seed0 in 0u64..1_000,
    ) {
        let net = dvs_net();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(250.0).with_warmup(5.0));
        dvs_rewards(&net, &mut sim);
        let seeds: Vec<u64> = (0..horizons.len() as u64).map(|i| seed0 + i).collect();
        let batched = sim.run_batch_with_horizons(&seeds, &horizons);
        for (i, (&seed, &h)) in seeds.iter().zip(&horizons).enumerate() {
            let mut cfg = sim.config().clone();
            cfg.end_time = h;
            let mut oracle = Simulator::new(&net, cfg);
            dvs_rewards(&net, &mut oracle);
            let scalar = oracle.run_reference(seed).unwrap();
            let b = batched[i].as_ref().unwrap();
            prop_assert_eq!(&b.firing_counts, &scalar.firing_counts);
            prop_assert_eq!(&b.rewards, &scalar.rewards);
            prop_assert_eq!(&b.final_marking, &scalar.final_marking);
            prop_assert_eq!(b.observed_time, scalar.observed_time);
        }
    }

    #[test]
    fn mixed_horizons_under_memory_policies(
        horizons in proptest::collection::vec(1.0f64..300.0, 2..9),
        seed0 in 0u64..1_000,
    ) {
        for policy in [MemoryPolicy::RaceEnable, MemoryPolicy::RaceAge, MemoryPolicy::Resample] {
            let net = memory_policy_net(policy);
            let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
            memory_rewards(&net, &mut sim);
            let seeds: Vec<u64> = (0..horizons.len() as u64).map(|i| seed0 + 31 * i).collect();
            let batched = sim.run_batch_with_horizons(&seeds, &horizons);
            for (i, (&seed, &h)) in seeds.iter().zip(&horizons).enumerate() {
                let mut cfg = sim.config().clone();
                cfg.end_time = h;
                let mut oracle = Simulator::new(&net, cfg);
                memory_rewards(&net, &mut oracle);
                let scalar = oracle.run_reference(seed).unwrap();
                let b = batched[i].as_ref().unwrap();
                prop_assert_eq!(&b.firing_counts, &scalar.firing_counts);
                prop_assert_eq!(&b.rewards, &scalar.rewards);
                prop_assert_eq!(&b.final_marking, &scalar.final_marking);
            }
        }
    }
}

/// A lane that trips `TokenOverflow` retires with exactly the reference error
/// while its batchmates run to their horizons undisturbed.
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
    let mut cfg = SimConfig::for_horizon(10_000.0);
    cfg.max_tokens_per_place = 40;
    let sim = Simulator::new(&net, cfg);
    // Long lanes overflow; the 0.5 s lane finishes cleanly first.
    let seeds = [3u64, 4, 5, 6];
    let horizons = [10_000.0, 0.5, 10_000.0, 0.5];
    let batched = sim.run_batch_with_horizons(&seeds, &horizons);
    for (i, (&seed, &h)) in seeds.iter().zip(&horizons).enumerate() {
        let mut cfg = sim.config().clone();
        cfg.end_time = h;
        let oracle = Simulator::new(&net, cfg);
        match (oracle.run_reference(seed), &batched[i]) {
            (Ok(a), Ok(b)) => assert_same_output(&a, b, "boom", seed, 4),
            (Err(a), Err(b)) => assert_eq!(&a, b, "lane {i}: errors diverged"),
            (a, b) => panic!("lane {i}: reference {a:?} vs batched {b:?}"),
        }
    }
    // The long lanes really did overflow (the test is not vacuous).
    assert!(matches!(batched[0], Err(SimError::TokenOverflow { .. })));
}
