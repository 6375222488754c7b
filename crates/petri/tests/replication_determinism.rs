//! Cross-thread-count determinism of the replication machinery: the same
//! `(net, seed, replication count)` must produce **byte-identical**
//! `ReplicationSummary` moments at 1, 2 and 8 worker threads — the
//! guarantee the `sim_core` grid's index-ordered fold provides. Checked
//! as properties over random parameters, for an uncolored and a colored
//! net, and for the adaptive stopping mode (replication budget included).

use petri_core::prelude::*;
use petri_core::replicate::{
    run_replications, run_replications_adaptive, run_replications_parallel,
};
use proptest::prelude::*;

/// Uncolored open M/M/c-ish net with a batching server.
fn uncolored_net(arrival: f64, service: f64) -> Net {
    let mut b = NetBuilder::new("mmq");
    let q = b.place("q").build();
    let busy = b.place("busy").build();
    b.transition("arrive", Timing::exponential(arrival))
        .output(q, 1)
        .build();
    b.transition("start", Timing::immediate())
        .input(q, 1)
        .output(busy, 1)
        .build();
    b.transition("serve", Timing::exponential(service))
        .input(busy, 1)
        .build();
    b.build().unwrap()
}

/// A colored net in the DVS style: weighted job classes, class-filtered
/// executors, a guard-gated deterministic sleep timer.
fn colored_net(rate: f64) -> Net {
    let fast = Color(1);
    let slow = Color(2);
    let mut b = NetBuilder::new("colored");
    let buffer = b.place("buffer").build();
    let idle = b.place("idle").tokens(1).build();
    let slept = b.place("slept").build();
    b.transition("gen", Timing::exponential(rate))
        .output_colored(buffer, 1, ColorExpr::Choice(vec![(fast, 0.6), (slow, 0.4)]))
        .build();
    b.transition("exec_fast", Timing::exponential(8.0))
        .input_filtered(buffer, 1, ColorFilter::Eq(fast))
        .build();
    b.transition("exec_slow", Timing::exponential(3.0))
        .input_filtered(buffer, 1, ColorFilter::Eq(slow))
        .build();
    b.transition("sleep", Timing::deterministic(0.9))
        .input(idle, 1)
        .output(slept, 1)
        .guard(Expr::count(buffer).eq_c(0))
        .build();
    b.transition("wake", Timing::exponential(1.5))
        .input(slept, 1)
        .output(idle, 1)
        .build();
    b.build().unwrap()
}

fn assert_summaries_bit_identical(sim: &Simulator<'_>, seed: u64, reps: u64) {
    let seq = run_replications(sim, seed, reps).unwrap();
    for threads in [1usize, 2, 8] {
        let par = run_replications_parallel(sim, seed, reps, threads).unwrap();
        assert_eq!(seq.replications, par.replications, "threads={threads}");
        // Welford derives PartialEq: exact f64 comparison of (n, mean, m2).
        assert_eq!(seq.rewards, par.rewards, "threads={threads}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Uncolored net: parallel summaries are the sequential bits.
    #[test]
    fn uncolored_summary_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        reps in 3u64..12,
        arrival in 0.5f64..2.0,
    ) {
        let net = uncolored_net(arrival, 4.0);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(300.0));
        let q = net.place_by_name("q").unwrap();
        sim.reward_place(q);
        let busy = net.place_by_name("busy").unwrap();
        sim.reward_place(busy);
        assert_summaries_bit_identical(&sim, seed, reps);
    }

    /// Colored net (Choice arcs, filters, guarded deterministic timer):
    /// same guarantee.
    #[test]
    fn colored_summary_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        reps in 3u64..10,
        rate in 0.4f64..1.5,
    ) {
        let net = colored_net(rate);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(200.0).with_warmup(10.0));
        let buffer = net.place_by_name("buffer").unwrap();
        sim.reward_place(buffer);
        let slept = net.place_by_name("slept").unwrap();
        sim.reward_place(slept);
        assert_summaries_bit_identical(&sim, seed, reps);
    }

    /// Adaptive mode: the number of replications the stopping rule spends
    /// AND the resulting moments match across thread counts.
    #[test]
    fn adaptive_identical_across_thread_counts(
        seed in 0u64..1_000_000,
        rel in 0.05f64..0.3,
    ) {
        let net = uncolored_net(1.0, 3.0);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(150.0));
        let q = net.place_by_name("q").unwrap();
        let r = sim.reward_place(q);
        let rule = StoppingRule::relative(rel).with_budget(4, 48, 4);
        let base = run_replications_adaptive(&sim, seed, &rule, &[r.index()], 1).unwrap();
        for threads in [2usize, 8] {
            let other =
                run_replications_adaptive(&sim, seed, &rule, &[r.index()], threads).unwrap();
            prop_assert_eq!(base.summary.replications, other.summary.replications);
            prop_assert_eq!(base.converged, other.converged);
            prop_assert_eq!(&base.summary.rewards, &other.summary.rewards);
        }
        // Replaying the spent budget as a fixed count reproduces the bits.
        let fixed = run_replications(&sim, seed, base.summary.replications).unwrap();
        prop_assert_eq!(&base.summary.rewards, &fixed.rewards);
    }
}
