//! Differential tests for the lowered engine's step memo: runs that replay
//! recorded steps must match the reference engine (`run_reference`) **bit
//! for bit** — rewards, firing counts, final marking, trace and errors —
//! on 25 seeds per net. Each net targets one path of the memo, and each
//! test asserts from the run's memo statistics (crate-private, hence an
//! in-crate module) that the path really ran:
//!
//! * steps that draw the RNG for a choice (a weighted immediate conflict,
//!   a multi-color `ColorExpr::Choice`) are recorded but never replayed;
//! * markings that differ only in the FIFO order of a colored place are
//!   distinct states;
//! * a net wider than 32 transitions and all three memory policies replay
//!   through the same re-check ops;
//! * counter hooks and predicate rewards replay under the warm-up test;
//! * a zero-time livelock crossing the limit on a recorded step, and a
//!   token overflow, end in the reference engine's error;
//! * a net whose states never repeat gives the memo up mid-run, and one
//!   that gives it up after replays drains their counts first;
//! * a RaceAge clock disabled at a state stays out of that state's scan
//!   list, and its frozen delay resumes;
//! * replays before the warm-up boundary count firings but not hooks;
//! * traced and profiled runs count the same firings as plain ones;
//! * nets that differ only in a delay and a rate share one record, and a
//!   net of another shape handed the same records starts from an empty
//!   one.
//!
//! Those statistics come from cold runs (an empty record each). Every net
//! is also run warm: on one simulator reused across the seeds, so each run
//! starts from the record the earlier ones left, on two threads sharing
//! one simulator, and on a fresh simulator per seed. All must match the
//! reference engine, so no output depends on which run recorded what.

use super::lowered::LoweredEngine;
use super::memo::{MemoRecords, MemoStats};
use crate::builder::TransitionBuilder;
use crate::prelude::*;

const SEEDS: std::ops::Range<u64> = 0..25;

/// One run on the lowered engine, with its memo statistics.
fn run_with_memo_stats(sim: &Simulator<'_>, seed: u64) -> (Result<SimOutput, SimError>, MemoStats) {
    LoweredEngine::new(sim, seed).run()
}

fn assert_same_result(a: &Result<SimOutput, SimError>, b: &Result<SimOutput, SimError>, ctx: &str) {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.firing_counts, b.firing_counts, "{ctx}: firing counts");
            let bits = |o: &SimOutput| o.rewards.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{ctx}: rewards");
            assert_eq!(a.final_marking, b.final_marking, "{ctx}: final marking");
            assert_eq!(a.trace, b.trace, "{ctx}: trace");
            assert_eq!(a.trace_dropped, b.trace_dropped, "{ctx}: trace_dropped");
            assert_eq!(a.observed_time, b.observed_time, "{ctx}: observed_time");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "{ctx}: errors"),
        (a, b) => panic!("{ctx}: {a:?} vs {b:?}"),
    }
}

/// Run every seed on both engines, assert identical results, and return
/// the memo statistics summed over the seeds (`gave_up` counts runs).
fn check(sim: &Simulator<'_>, label: &str) -> (MemoStats, usize) {
    let mut sum = MemoStats::default();
    let (mut gave_up, mut kept) = (0, 0);
    for seed in SEEDS {
        let (memo, stats) = run_with_memo_stats(sim, seed);
        assert_same_result(
            &memo,
            &sim.run_reference(seed),
            &format!("{label} seed {seed}"),
        );
        // The production entry point agrees with itself.
        assert_same_result(&sim.run(seed), &memo, &format!("{label} seed {seed} (run)"));
        sum.states += stats.states;
        sum.edges += stats.edges;
        sum.rng_edges += stats.rng_edges;
        sum.replayed += stats.replayed;
        sum.misses += stats.misses;
        sum.refused += stats.refused;
        gave_up += stats.gave_up as usize;
        kept += (memo.is_ok() && !stats.gave_up) as usize;
    }
    check_warm(sim, label, kept > 0);
    (sum, gave_up)
}

/// A new simulator of `sim`'s net, configuration and rewards.
fn fresh<'n>(sim: &Simulator<'n>) -> Simulator<'n> {
    let mut s = sim.clone();
    s.lowered.take();
    s.record = MemoRecords::new();
    s
}

/// Run every seed on one simulator reused across the seeds, on a fresh
/// simulator per seed, and on one simulator shared by two threads, and
/// assert each run matches the reference engine. The reused simulator's
/// runs start warm exactly when some cold run kept its memo (`kept`): a
/// run that gives the memo up or fails publishes nothing.
fn check_warm(sim: &Simulator<'_>, label: &str, kept: bool) {
    let reference: Vec<_> = SEEDS.map(|seed| sim.run_reference(seed)).collect();
    let reused = fresh(sim);
    for (seed, want) in SEEDS.zip(&reference) {
        let ctx = format!("{label} seed {seed}");
        assert_same_result(&reused.run(seed), want, &format!("{ctx} (reused)"));
        assert_same_result(&fresh(sim).run(seed), want, &format!("{ctx} (fresh)"));
    }
    assert_eq!(
        reused.record.states() > 0,
        kept,
        "{label}: published record"
    );
    let shared = fresh(sim);
    std::thread::scope(|scope| {
        for thread in 0..2 {
            let (shared, reference) = (&shared, &reference);
            scope.spawn(move || {
                for (seed, want) in SEEDS.zip(reference) {
                    let ctx = format!("{label} seed {seed} (thread {thread})");
                    assert_same_result(&shared.run(seed), want, &ctx);
                }
            });
        }
    });
}

/// A source feeding a bounded buffer, drained by two equal-priority
/// immediates that split by weight: every draining step draws the RNG.
#[test]
fn weighted_immediate_conflicts_are_never_replayed() {
    let mut b = NetBuilder::new("weighted");
    let src = b.place("src").build();
    let left = b.place("left").build();
    let right = b.place("right").build();
    b.transition("gen", Timing::exponential(1.0))
        .output(src, 1)
        .build();
    for (name, out, weight) in [("to_left", left, 1.0), ("to_right", right, 3.0)] {
        b.transition(
            name,
            Timing::Immediate {
                priority: 1,
                weight,
            },
        )
        .input(src, 1)
        .output(out, 1)
        .build();
    }
    b.transition("drain_left", Timing::exponential(2.0))
        .input(left, 1)
        .build();
    b.transition("drain_right", Timing::exponential(2.5))
        .input(right, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(400.0).with_trace(512));
    sim.reward_place(left);
    sim.reward_place(right);
    let (stats, _) = check(&sim, "weighted");
    assert!(stats.rng_edges > 0, "{stats:?}");
    assert!(stats.replayed > 0, "the draining steps replay: {stats:?}");
}

/// A generator whose token color is a two-way `Choice`: the deposit draws
/// the RNG, so its steps are interpreted every time.
#[test]
fn multi_color_choices_are_never_replayed() {
    let mut b = NetBuilder::new("choice");
    let buf = b.place("buf").build();
    let (c1, c2) = (Color(1), Color(2));
    b.transition("gen", Timing::exponential(1.0))
        .output_colored(buf, 1, ColorExpr::Choice(vec![(c1, 1.0), (c2, 2.0)]))
        .inhibitor(buf, 3)
        .build();
    b.transition("fast", Timing::exponential(3.0))
        .input_filtered(buf, 1, ColorFilter::Eq(c1))
        .build();
    b.transition("slow", Timing::exponential(1.5))
        .input_filtered(buf, 1, ColorFilter::Eq(c2))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(400.0).with_trace(512));
    sim.reward_place(buf);
    let (stats, _) = check(&sim, "choice");
    assert!(stats.rng_edges > 0, "{stats:?}");
    assert!(stats.replayed > 0, "the consuming steps replay: {stats:?}");
}

/// Two colors arrive in random order into a buffer that a consumer drains
/// oldest first, forwarding the color to color-routed immediates. Buffers
/// `[1, 2]` and `[2, 1]` hold the same tokens but fire differently, so a
/// memo keyed on sorted colors would replay the wrong step.
#[test]
fn fifo_order_tells_states_apart() {
    let mut b = NetBuilder::new("fifo");
    let buf = b.place("buf").build();
    let out = b.place("out").build();
    let (c1, c2) = (Color(1), Color(2));
    for (name, c, rate) in [("gen1", c1, 1.0), ("gen2", c2, 1.3)] {
        b.transition(name, Timing::exponential(rate))
            .output_colored(buf, 1, ColorExpr::Const(c))
            .inhibitor(buf, 2)
            .build();
    }
    b.transition("take", Timing::exponential(2.0))
        .input(buf, 1)
        .output_colored(out, 1, ColorExpr::Transfer { arc_index: 0 })
        .build();
    let route1 = b
        .transition("route1", Timing::immediate())
        .input_filtered(out, 1, ColorFilter::Eq(c1))
        .build();
    let route2 = b
        .transition("route2", Timing::immediate())
        .input_filtered(out, 1, ColorFilter::Eq(c2))
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(500.0).with_trace(512));
    sim.reward_firings(route1);
    sim.reward_firings(route2);
    let (stats, _) = check(&sim, "fifo");
    // 7 buffer contents: [], [1], [2], [1, 1], [1, 2], [2, 1], [2, 2].
    assert!(stats.states >= 7 * SEEDS.count() / 2, "{stats:?}");
    assert!(stats.replayed > stats.misses, "{stats:?}");
}

/// One token on a ring of 12 places worked by 36 transitions, cycling
/// every (memory policy × distribution) pair, with inhibitors, guards and
/// prioritized immediates.
#[test]
fn wide_ring_and_every_memory_policy_replay() {
    let mut b = NetBuilder::new("wide-ring");
    let ring: Vec<PlaceId> = (0..12)
        .map(|i| b.place(format!("p{i}")).tokens((i == 0) as usize).build())
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
    for i in 0..36 {
        let (from, to) = (ring[i % 12], ring[(i + 1 + i / 12) % 12]);
        let timing = match i % 9 {
            8 => Timing::immediate_pri((i % 3) as u8),
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
            t = t.guard(Expr::count(ring[(i + 3) % 12]).lt_c(2));
        }
        t.build();
    }
    let net = b.build().unwrap();
    assert!(net.num_transitions() > 32);
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0).with_trace(256));
    sim.reward_place(ring[0]);
    sim.reward_predicate(Expr::count(ring[5]).ge_c(1)).unwrap();
    let (stats, gave_up) = check(&sim, "wide-ring");
    assert!(stats.replayed > stats.misses, "{stats:?}");
    assert_eq!(gave_up, 0);
}

/// A sleep timer broken by job arrivals under each memory policy: RaceAge
/// replays keep the frozen remaining delay live, Resample replays redraw.
#[test]
fn memory_policies_replay_identically() {
    for policy in [
        MemoryPolicy::RaceEnable,
        MemoryPolicy::RaceAge,
        MemoryPolicy::Resample,
    ] {
        let mut b = NetBuilder::new("timer");
        let idle = b.place("idle").tokens(1).build();
        let buf = b.place("buf").build();
        let slept = b.place("slept").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(buf, 1)
            .inhibitor(buf, 3)
            .build();
        b.transition("serve", Timing::uniform(0.2, 0.6))
            .input(buf, 1)
            .memory(policy)
            .build();
        b.transition("sleep", Timing::deterministic(0.8))
            .input(idle, 1)
            .output(slept, 1)
            .guard(Expr::count(buf).eq_c(0))
            .memory(policy)
            .build();
        b.transition("wake", Timing::erlang(2, 3.0))
            .input(slept, 1)
            .output(idle, 1)
            .memory(policy)
            .build();
        let net = b.build().unwrap();
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(400.0).with_trace(256));
        sim.reward_place(buf);
        sim.reward_place(slept);
        let (stats, _) = check(&sim, &format!("{policy:?}"));
        assert!(stats.replayed > 10 * stats.misses, "{policy:?}: {stats:?}");
    }
}

/// Counter hooks and every predicate shape, with a warm-up window that
/// starts after records exist: replays before it must not count.
#[test]
fn warm_up_hooks_and_predicates_replay() {
    let mut b = NetBuilder::new("warm");
    let q = b.place("q").build();
    let r = b.place("r").build();
    let arrive = b
        .transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .inhibitor(q, 4)
        .build();
    let hop = b
        .transition("hop", Timing::immediate())
        .input(q, 1)
        .output(r, 1)
        .guard(Expr::count(r).lt_c(2))
        .build();
    b.transition("serve", Timing::exponential(1.2))
        .input(r, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(
        &net,
        SimConfig::for_horizon(600.0)
            .with_warmup(150.0)
            .with_trace(64),
    );
    sim.reward_place(q);
    sim.reward(RewardSpec::Throughput(arrive)).unwrap();
    sim.reward_firings(hop);
    sim.reward_predicate(Expr::count(r).ge_c(2)).unwrap();
    sim.reward_predicate(Expr::count(q).gt_c(0).or(Expr::count(r).gt_c(0)))
        .unwrap();
    // Not a threshold or "any non-empty" shape: the predicate program.
    sim.reward_predicate(Expr::count(q).add(Expr::count(r)).eq_c(3))
        .unwrap();
    let (stats, _) = check(&sim, "warm");
    assert!(stats.replayed > 10 * stats.misses, "{stats:?}");
}

/// A token bouncing between two places through zero-delay timed
/// transitions, with an immediate in one step: time never advances, every
/// step is recorded after two visits and replayed, and the replay that
/// would cross the limit is interpreted so the error is the reference's.
#[test]
fn livelock_limit_crossed_on_a_recorded_step() {
    let mut b = NetBuilder::new("bounce");
    let a = b.place("a").tokens(1).build();
    let z = b.place("z").build();
    let y = b.place("y").build();
    b.transition("az", Timing::deterministic(0.0))
        .input(a, 1)
        .output(z, 1)
        .build();
    b.transition("zy", Timing::immediate())
        .input(z, 1)
        .output(y, 1)
        .build();
    b.transition("ya", Timing::deterministic(0.0))
        .input(y, 1)
        .output(a, 1)
        .build();
    let net = b.build().unwrap();
    for limit in [999, 1000, 1001] {
        let mut cfg = SimConfig::for_horizon(1.0).with_trace(16);
        cfg.max_zero_time_firings = limit;
        let sim = Simulator::new(&net, cfg);
        let (stats, _) = check(&sim, &format!("bounce limit {limit}"));
        assert!(stats.refused > 0 && stats.replayed > 0, "{stats:?}");
        assert!(matches!(
            sim.run(0),
            Err(SimError::ImmediateLivelock { .. })
        ));
    }
}

/// A queue that drifts up to a small token bound after revisiting its
/// states many times: replays run until the overflowing step, which is
/// interpreted and never recorded.
#[test]
fn token_overflow_after_replays() {
    let mut b = NetBuilder::new("drift");
    let q = b.place("q").build();
    b.transition("arrive", Timing::exponential(1.05))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(1.0))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut cfg = SimConfig::for_horizon(1e7).with_trace(64);
    cfg.max_tokens_per_place = 12;
    let mut sim = Simulator::new(&net, cfg);
    sim.reward_place(q);
    let (stats, _) = check(&sim, "drift");
    assert!(stats.replayed > stats.misses, "{stats:?}");
    for seed in SEEDS {
        assert!(matches!(sim.run(seed), Err(SimError::TokenOverflow { .. })));
    }
}

/// A 64-stage tandem line: almost every step finds a new marking, so each
/// run gives the memo up after its first check and finishes on the
/// interpreter.
#[test]
fn tandem_64_gives_the_memo_up_mid_run() {
    let mut b = NetBuilder::new("tandem");
    let places: Vec<_> = (0..64).map(|i| b.place(format!("p{i}")).build()).collect();
    b.transition("source", Timing::exponential(1.0))
        .output(places[0], 1)
        .build();
    for i in 0..63 {
        b.transition(format!("t{i}"), Timing::exponential(2.0))
            .input(places[i], 1)
            .output(places[i + 1], 1)
            .build();
    }
    b.transition("sink", Timing::exponential(2.0))
        .input(places[63], 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(60.0).with_trace(4096));
    sim.reward_place(places[0]);
    sim.reward_place(places[63]);
    let (stats, gave_up) = check(&sim, "tandem/64");
    assert_eq!(gave_up, SEEDS.count(), "{stats:?}");
    for seed in SEEDS {
        let (out, st) = run_with_memo_stats(&sim, seed);
        assert!(st.misses < out.unwrap().total_firings(), "{st:?}");
    }
}

/// A sleep timer under RaceAge, disabled while jobs wait: at those states
/// its clock is frozen, so it must stay out of their scan lists, and the
/// replay that re-enables it must resume the frozen delay (the reference
/// engine checks the times).
#[test]
fn race_age_clock_leaves_the_scan_list_and_resumes() {
    let mut b = NetBuilder::new("race-age");
    let buf = b.place("buf").build();
    b.transition("arrive", Timing::exponential(1.0))
        .output(buf, 1)
        .inhibitor(buf, 3)
        .build();
    b.transition("serve", Timing::exponential(2.5))
        .input(buf, 1)
        .build();
    let tick = b
        .transition("tick", Timing::deterministic(0.7))
        .inhibitor(buf, 1)
        .memory(MemoryPolicy::RaceAge)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(400.0).with_trace(256));
    sim.reward_firings(tick);
    let (stats, _) = check(&sim, "race-age");
    assert!(stats.replayed > 10 * stats.misses, "{stats:?}");
    let (out, memo) = LoweredEngine::new(&sim, 3).run_keeping_memo();
    out.unwrap();
    let mut frozen_states = 0;
    for s in 0..memo.stats().states as u32 {
        let Some(list) = memo.scan_list(s) else {
            continue;
        };
        let mut m = net.initial_marking();
        m.load_memo_key(memo.key(s));
        let waiting = m.count(buf) > 0;
        assert_eq!(list.contains(&tick.0), !waiting, "state {s}: {list:?}");
        frozen_states += waiting as usize;
    }
    assert!(frozen_states > 0, "no state with the clock frozen was kept");
}

/// Counter hooks on a timed and an immediate transition, with a warm-up
/// boundary the run crosses while replaying: the hits before it add
/// firings but no hook counts, the hits after it both.
#[test]
fn warm_up_boundary_crossed_during_replays() {
    let mut b = NetBuilder::new("warm-replay");
    let q = b.place("q").build();
    let r = b.place("r").build();
    let arrive = b
        .transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .inhibitor(q, 3)
        .build();
    let hop = b
        .transition("hop", Timing::immediate())
        .input(q, 1)
        .output(r, 1)
        .inhibitor(r, 2)
        .build();
    b.transition("serve", Timing::exponential(1.5))
        .input(r, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(
        &net,
        SimConfig::for_horizon(500.0)
            .with_warmup(120.0)
            .with_trace(64),
    );
    sim.reward_firings(arrive);
    sim.reward(RewardSpec::Throughput(hop)).unwrap();
    sim.reward_place(r);
    check(&sim, "warm-replay");
    for seed in SEEDS {
        let (_, st) = run_with_memo_stats(&sim, seed);
        assert!(
            st.cold_replays > 0 && st.replayed > 2 * st.cold_replays,
            "seed {seed}: {st:?}"
        );
    }
}

/// A queue that cycles through a few states, replaying, until a
/// deterministic switch starts an unbounded generator: from then on every
/// step lands on a new marking and the run gives the memo up. The
/// replays' firing and hook counts must be drained before the
/// interpreter finishes the run.
#[test]
fn giving_up_after_replays_drains_the_hits_first() {
    let mut b = NetBuilder::new("switch");
    let a = b.place("a").tokens(1).build();
    let z = b.place("z").build();
    let armed = b.place("armed").tokens(1).build();
    let on = b.place("on").build();
    let pile = b.place("pile").build();
    let ping = b
        .transition("ping", Timing::exponential(2.0))
        .input(a, 1)
        .output(z, 1)
        .build();
    b.transition("pong", Timing::exponential(2.0))
        .input(z, 1)
        .output(a, 1)
        .build();
    b.transition("switch", Timing::deterministic(40.0))
        .input(armed, 1)
        .output(on, 1)
        .build();
    b.transition("flood", Timing::exponential(40.0))
        .input(on, 1)
        .output(on, 1)
        .output(pile, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(60.0).with_trace(64));
    sim.reward_firings(ping);
    sim.reward_place(pile);
    let (_, gave_up) = check(&sim, "switch");
    assert_eq!(gave_up, SEEDS.count());
    for seed in SEEDS {
        let (out, st) = run_with_memo_stats(&sim, seed);
        assert!(st.replayed > 0, "seed {seed}: {st:?}");
        assert!(
            st.misses < out.unwrap().total_firings(),
            "seed {seed}: {st:?}"
        );
    }
}

/// The same seeds traced and untraced, profiled and not: the firing
/// counts (drained from hit counts, or walked per replay for the trace)
/// and every reward bit agree.
#[test]
fn traced_and_profiled_runs_count_the_same_firings() {
    let mut b = NetBuilder::new("modes");
    let q = b.place("q").build();
    let r = b.place("r").build();
    b.transition("arrive", Timing::exponential(1.0))
        .output(q, 1)
        .inhibitor(q, 3)
        .build();
    let hop = b
        .transition("hop", Timing::immediate())
        .input(q, 1)
        .output(r, 1)
        .guard(Expr::count(r).lt_c(2))
        .build();
    b.transition("serve", Timing::uniform(0.3, 0.9))
        .input(r, 1)
        .build();
    let net = b.build().unwrap();
    let sim_with = |trace| {
        let mut sim = Simulator::new(
            &net,
            SimConfig::for_horizon(300.0)
                .with_warmup(50.0)
                .with_trace(trace),
        );
        sim.reward_place(q);
        sim.reward_firings(hop);
        sim
    };
    let (plain, traced) = (sim_with(0), sim_with(4096));
    for seed in SEEDS {
        let base = run_with_memo_stats(&plain, seed);
        assert!(base.1.replayed > 0, "{:?}", base.1);
        let base = base.0.unwrap();
        let runs = [
            LoweredEngine::new(&traced, seed).run().0,
            LoweredEngine::new(&plain, seed).profiled().run().0,
            LoweredEngine::new(&traced, seed).profiled().run().0,
        ];
        for (i, out) in runs.into_iter().enumerate() {
            let out = out.unwrap();
            assert_eq!(
                out.firing_counts, base.firing_counts,
                "seed {seed} mode {i}"
            );
            let bits = |o: &SimOutput| o.rewards.iter().map(|r| r.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&base), "seed {seed} mode {i}");
            if i != 1 {
                assert_eq!(out.trace.len() as u64, out.total_firings(), "seed {seed}");
            }
        }
    }
}

/// Two tokens on a ring of 12 places (78 markings), with an immediate
/// that never fires so the states rule alone judges the memo.
fn ring_of_two() -> Net {
    let mut b = NetBuilder::new("ring");
    let ring: Vec<PlaceId> = (0..12)
        .map(|i| {
            b.place(format!("p{i}"))
                .tokens(2 * (i == 0) as usize)
                .build()
        })
        .collect();
    for i in 0..12 {
        b.transition(format!("t{i}"), Timing::exponential(1.0))
            .input(ring[i], 1)
            .output(ring[(i + 1) % 12], 1)
            .build();
    }
    let never = b.place("never").build();
    b.transition("dead", Timing::immediate())
        .input(never, 1)
        .output(ring[0], 1)
        .build();
    b.build().unwrap()
}

/// A simulator's record outgrows a run's first checkpoints: a warm run
/// that carries more states than its first 64 steps keeps the memo, adds
/// no states, and replays most of its steps, while runs stay identical to
/// the reference.
#[test]
fn a_warm_run_keeps_the_memo_with_a_record_larger_than_its_checks() {
    let net = ring_of_two();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
    sim.reward_place(PlaceId::from_index(0));
    // Warm it just past 64 states, so later runs still find steps to add.
    for seed in SEEDS {
        sim.run(seed).unwrap();
        if sim.record.states() > 64 {
            break;
        }
    }
    assert!(sim.record.states() > 64, "{}", sim.record.states());
    let (mut misses, mut replayed) = (0, 0);
    for seed in 100..125 {
        let rec = sim.record.get(&sim.lowered_net().shape);
        let engine = LoweredEngine::starting_from(&sim, seed, rec);
        let (out, memo) = engine.run_keeping_memo();
        let st = memo.stats();
        assert!(!st.gave_up && st.states == 0, "seed {seed}: {st:?}");
        assert_same_result(&out, &sim.run_reference(seed), &format!("ring seed {seed}"));
        (misses, replayed) = (misses + st.misses, replayed + st.replayed);
    }
    assert!(
        misses > 0 && replayed > 10 * misses,
        "{misses} misses, {replayed} replays"
    );
}

/// Adding a reward changes the lowered program's shape: the next run
/// starts cold and records into the new program's accumulators, beside
/// the old shape's record.
#[test]
fn a_reward_added_after_runs_starts_the_next_run_cold() {
    let net = ring_of_two();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0));
    sim.reward_place(PlaceId::from_index(0));
    sim.run(1).unwrap();
    assert!(sim.record.states() > 0);
    let fired = sim.reward_firings(TransitionId(3));
    let rec = sim.record.get(&sim.lowered_net().shape);
    assert_eq!((rec.state_count(), sim.record.shapes()), (0, 1));
    let (out, memo) = LoweredEngine::starting_from(&sim, 2, rec).run_keeping_memo();
    assert!(memo.stats().states > 0, "{:?}", memo.stats());
    assert_same_result(&out, &sim.run_reference(2), "ring after a reward");
    assert_same_result(
        &sim.run(2),
        &sim.run_reference(2),
        "ring after a reward (run)",
    );
    assert!(sim.run(3).unwrap().reward(fired) > 0.0);
}

/// The paper's CPU net in small: Poisson arrivals into a bounded buffer,
/// a CPU that wakes on the first job (immediate), powers up for a fixed
/// delay, serves at an exponential rate, and sleeps after `pdt` idle.
/// `edit` may change the power-down transition before the net is built.
fn sleepy_cpu(
    rate: f64,
    pdt: f64,
    edit: impl FnOnce(TransitionBuilder<'_>) -> TransitionBuilder<'_>,
) -> Net {
    let mut b = NetBuilder::new("sleepy-cpu");
    let standby = b.place("standby").tokens(1).build();
    let waking = b.place("waking").build();
    let idle = b.place("idle").build();
    let active = b.place("active").build();
    let buf = b.place("buf").build();
    b.transition("arrive", Timing::exponential(rate))
        .output(buf, 1)
        .inhibitor(buf, 6)
        .build();
    b.transition("wake", Timing::immediate_pri(2))
        .input(standby, 1)
        .output(waking, 1)
        .guard(Expr::count(buf).gt_c(0))
        .build();
    b.transition("power_up", Timing::deterministic(0.3))
        .input(waking, 1)
        .output(idle, 1)
        .build();
    b.transition("start", Timing::immediate())
        .input(idle, 1)
        .input(buf, 1)
        .output(active, 1)
        .build();
    b.transition("serve", Timing::exponential(2.0))
        .input(active, 1)
        .output(idle, 1)
        .build();
    edit(
        b.transition("power_down", Timing::deterministic(pdt))
            .input(idle, 1)
            .output(standby, 1),
    )
    .build();
    b.build().unwrap()
}

/// A simulator of `net` over 300 s with its four CPU-state rewards and
/// the buffer's mean, on `records`.
fn sleepy_sim<'n>(net: &'n Net, records: &MemoRecords) -> Simulator<'n> {
    let mut sim = Simulator::new(net, SimConfig::for_horizon(300.0).with_trace(64));
    for p in ["standby", "waking", "idle", "active", "buf"] {
        sim.reward_place(net.place_by_name(p).unwrap());
    }
    sim.share_memo(records);
    sim
}

/// Run every seed on `sim`'s production path and assert each matches the
/// reference engine.
fn check_runs(sim: &Simulator<'_>, label: &str) {
    for seed in SEEDS {
        let ctx = format!("{label} seed {seed}");
        assert_same_result(&sim.run(seed), &sim.run_reference(seed), &ctx);
    }
}

/// Two nets that differ only in one deterministic delay and one
/// exponential rate lower to programs of one shape and share a record:
/// the second net's first run finds almost every state the first net's
/// runs recorded, and both match the reference engine.
#[test]
fn nets_that_differ_in_a_delay_and_a_rate_share_a_record() {
    let (slow, fast) = (sleepy_cpu(1.0, 0.4, |t| t), sleepy_cpu(1.4, 0.9, |t| t));
    let records = MemoRecords::new();
    let (a, b) = (sleepy_sim(&slow, &records), sleepy_sim(&fast, &records));
    let (la, lb) = (a.lowered_net(), b.lowered_net());
    assert_ne!(la.ops, lb.ops, "the programs carry their own parameters");
    assert_eq!(la.shape, lb.shape);
    let cold = run_with_memo_stats(&b, 0).1;
    check_runs(&a, "slow");
    assert_eq!(records.shapes(), 1);
    let known = records.states();
    let (out, memo) =
        LoweredEngine::starting_from(&b, 0, records.get(&lb.shape)).run_keeping_memo();
    let warm = memo.stats();
    assert_same_result(&out, &b.run_reference(0), "fast, first run");
    assert!(
        known > 10 && warm.states <= 2,
        "{known} known, added {warm:?}"
    );
    assert!(warm.replayed > 5 * warm.misses, "{warm:?}");
    assert!(
        cold.states > 5 * warm.states.max(1),
        "cold {cold:?}, warm {warm:?}"
    );
    check_runs(&b, "fast");
    assert_eq!(records.shapes(), 1);
}

/// A net of another shape handed the same records starts from an empty
/// record: its first run adds exactly what a cold run adds, and every run
/// matches the reference engine. The other shapes here are the same net
/// with a RaceAge power-down clock, and with one extra (inhibitor) arc.
#[test]
fn a_net_of_another_shape_starts_from_an_empty_record() {
    let base = sleepy_cpu(1.0, 0.4, |t| t);
    let others = [
        (
            "race-age",
            sleepy_cpu(1.0, 0.4, |t| t.memory(MemoryPolicy::RaceAge)),
        ),
        ("extra arc", {
            let active = base.place_by_name("active").unwrap();
            sleepy_cpu(1.0, 0.4, move |t| t.inhibitor(active, 1))
        }),
    ];
    for (label, net) in &others {
        let records = MemoRecords::new();
        check_runs(&sleepy_sim(&base, &records), "base");
        let known = records.states();
        let sim = sleepy_sim(net, &records);
        let shape = &sim.lowered_net().shape;
        assert_ne!(*shape, sleepy_sim(&base, &records).lowered_net().shape);
        let (out, memo) =
            LoweredEngine::starting_from(&sim, 0, records.get(shape)).run_keeping_memo();
        let (shared, cold) = (memo.stats(), run_with_memo_stats(&sim, 0).1);
        assert_same_result(&out, &sim.run_reference(0), label);
        assert_eq!(shared, cold, "{label}");
        assert!(shared.states > 0, "{label}: {shared:?}");
        check_runs(&sim, label);
        assert_eq!(records.shapes(), 2, "{label}");
        assert_eq!(
            records
                .get(&sleepy_sim(&base, &records).lowered_net().shape)
                .state_count(),
            known,
            "{label}: the base record is untouched"
        );
    }
}
