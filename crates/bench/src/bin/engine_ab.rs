//! Paired A/B measurement of the production (lowered) engine on the shared
//! [`bench::ab`] harness: adjacent interleaved blocks, alternating order,
//! median of per-pair ratios — robust to the drift of noisy shared-CPU
//! hosts. Writes `BENCH_engine.json`-ready numbers to stdout.
//!
//! Two arms per net:
//! * `scalar` — `Simulator::run` against the reference engine
//!   (`Simulator::run_reference`, the frozen seed core);
//! * `batch W` — `Simulator::run_batch` at widths {1, 4, 16, 64} against a
//!   loop of scalar `Simulator::run` calls over the same replications.
//!
//! Every block runs the same replication set on the same seeds and
//! checksums the *full* per-replication output (per-transition firing
//! counts and reward bit patterns), so the harness itself asserts the
//! variants are byte-identical, not just that they fired the same number
//! of events.
//!
//! The nets: mm1, tandem lines of 4/16/64 stages, the paper's fig. 3 CPU
//! net, and the paper's node SCPN under closed and open workloads (colored
//! DVS jobs — the expensive transitions of the nets the paper runs).
//!
//! ```text
//! cargo run --release -p bench --bin engine_ab [pairs_per_case]
//! ```

use des::{NodeSimParams, Workload};
use petri_core::prelude::*;
use std::time::Instant;

/// Replications per batched-arm block — divisible by every measured width.
const BATCH_REPS: u64 = 64;

/// Batch widths to sweep (1 = the batched call at width one, isolating the
/// per-call overhead from the batching win).
const WIDTHS: [usize; 4] = [1, 4, 16, 64];

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

fn tandem_net(n: usize) -> Net {
    let mut b = NetBuilder::new("tandem");
    let places: Vec<_> = (0..n).map(|i| b.place(format!("p{i}")).build()).collect();
    b.transition("source", Timing::exponential(1.0))
        .output(places[0], 1)
        .build();
    for i in 0..n - 1 {
        b.transition(format!("t{i}"), Timing::exponential(2.0))
            .input(places[i], 1)
            .output(places[i + 1], 1)
            .build();
    }
    b.transition("sink", Timing::exponential(2.0))
        .input(places[n - 1], 1)
        .build();
    b.build().unwrap()
}

/// FNV-style fold of one output's identity-relevant bits: per-transition
/// firing counts and the exact bit patterns of every reward.
fn fold_output(mut h: u64, out: &SimOutput) -> u64 {
    for &c in &out.firing_counts {
        h = (h ^ c).wrapping_mul(0x100_0000_01b3);
    }
    for &r in &out.rewards {
        h = (h ^ r.to_bits()).wrapping_mul(0x100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One scalar block: `runs` replications one at a time through `run_one`,
/// returning elapsed ns and the full-output checksum.
fn time_scalar(
    seed0: u64,
    runs: u64,
    run_one: impl Fn(u64) -> Result<SimOutput, SimError>,
) -> (f64, u64) {
    let t0 = Instant::now();
    let mut h = FNV_OFFSET;
    for i in 0..runs {
        h = fold_output(h, &run_one(seed0 + i).unwrap());
    }
    (t0.elapsed().as_nanos() as f64, h)
}

/// One batched block: the same `runs` replications on the same seeds,
/// advanced `width` lanes at a time.
fn time_batched(sim: &Simulator<'_>, seed0: u64, runs: u64, width: usize) -> (f64, u64) {
    let seeds: Vec<u64> = (0..runs).map(|i| seed0 + i).collect();
    let t0 = Instant::now();
    let mut h = FNV_OFFSET;
    for chunk in seeds.chunks(width) {
        for out in sim.run_batch(chunk) {
            h = fold_output(h, &out.unwrap());
        }
    }
    (t0.elapsed().as_nanos() as f64, h)
}

/// Firings of `runs` replications from seed 1 — the ns/event denominator
/// (identical for every variant, which the checksums enforce).
fn events(sim: &Simulator<'_>, runs: u64) -> u64 {
    (0..runs)
        .map(|i| sim.run(1 + i).unwrap().total_firings())
        .sum()
}

/// Both arms for one net: scalar lowered vs reference over
/// `scalar_runs`-replication blocks, then batched vs scalar lowered at
/// every width over [`BATCH_REPS`]-replication blocks.
fn measure(label: &str, sim: &Simulator<'_>, scalar_runs: u64, pairs: usize) {
    // Pair `p` of a `runs`-replication sweep starts at this seed, so every
    // block runs fresh seeds and both variants of a pair run the same ones.
    let seed0 = |runs: u64, p: usize| (p as u64) * runs + 1;
    let ev = events(sim, scalar_runs) as f64;
    let stats = bench::ab::run_paired(
        pairs,
        |p| time_scalar(seed0(scalar_runs, p), scalar_runs, |s| sim.run(s)),
        |p| time_scalar(seed0(scalar_runs, p), scalar_runs, |s| sim.run_reference(s)),
    );
    println!(
        "{label:<16} scalar   : reference {:7.1} ns/event  lowered {:7.1} ns/event  \
         median paired speedup {:5.2}x",
        stats.b_ns / ev,
        stats.a_ns / ev,
        stats.speedup,
    );
    let ev = events(sim, BATCH_REPS) as f64;
    for width in WIDTHS {
        let stats = bench::ab::run_paired(
            pairs,
            |p| time_batched(sim, seed0(BATCH_REPS, p), BATCH_REPS, width),
            |p| time_scalar(seed0(BATCH_REPS, p), BATCH_REPS, |s| sim.run(s)),
        );
        println!(
            "{label:<16} batch {width:>2} : scalar    {:7.1} ns/event  batched {:7.1} ns/event  \
             median paired speedup {:5.2}x",
            stats.b_ns / ev,
            stats.a_ns / ev,
            stats.speedup,
        );
    }
}

fn main() {
    let pairs: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    println!(
        "paired A/B, {pairs} pairs per case (median of adjacent-block ratios; \
         same seeds, full-output checksums)"
    );

    let net = mm1_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(2_000.0));
    sim.reward_place(PlaceId::from_index(0));
    measure("mm1/2k_seconds", &sim, 8, pairs);

    for (n, horizon) in [(4usize, 1_000.0), (16, 250.0), (64, 60.0)] {
        let net = tandem_net(n);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(horizon));
        sim.reward_place(PlaceId::from_index(0));
        measure(&format!("tandem/{n}"), &sim, 4, pairs);
    }

    let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(0.1, 0.3));
    let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(1_000.0));
    sim.reward_place(model.places.buffer);
    measure("fig3_cpu_1000s", &sim, 6, pairs);

    for (label, workload) in [
        ("node_closed_300s", Workload::Closed { interval: 1.0 }),
        ("node_open_300s", Workload::Open { rate: 1.0 }),
    ] {
        let mut params = NodeSimParams::paper_defaults(workload, 0.1);
        params.horizon = 300.0;
        let model = wsn::build_node_model(&params);
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(params.horizon));
        let p = &model.places;
        for place in [p.cpu_sleep, p.cpu_wake, p.cpu_idle, p.cpu_active] {
            sim.reward_place(place);
        }
        measure(label, &sim, 2, pairs);
    }
}
