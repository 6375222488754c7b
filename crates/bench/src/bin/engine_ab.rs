//! Paired A/B measurement of the production (lowered) engine on the shared
//! [`bench::ab`] harness: adjacent interleaved blocks, alternating order,
//! median of per-pair ratios — robust to the drift of noisy shared-CPU
//! hosts. Prints one line per measurement and, with `--out FILE`, writes
//! the results as the JSON document committed as `BENCH_engine.json`.
//!
//! One arm per net: `Simulator::run` against the reference engine
//! (`Simulator::run_reference`, the frozen seed core).
//!
//! Every block runs the same replication set on the same seeds and
//! checksums the *full* per-replication output (per-transition firing
//! counts and reward bit patterns), so the harness itself asserts the
//! two engines are byte-identical, not just that they fired the same
//! number of events.
//!
//! The nets: mm1, tandem lines of 4/16/64 stages, the paper's fig. 3 CPU
//! net, and the paper's node SCPN under closed and open workloads (colored
//! DVS jobs) with the full reward set `wsn::simulate_node_model` registers
//! — place averages, radio-state predicates and firing counters — so the
//! per-time-step reward integration is priced too. Each row reuses one
//! simulator, as a sweep point does, so its runs start from the step
//! record the earlier runs left. The paper's nets and mm1 revisit a few
//! dozen markings, so their rows measure the engine's step memo
//! replaying; the tandem lines rarely repeat a step (the 16- and 64-stage
//! lines rarely even a marking), so each of their runs gives the memo up
//! at its first check, publishes nothing, and their rows price that
//! give-up path: the misses before it, then the plain interpreter.
//!
//! ```text
//! cargo run --release -p bench --bin engine_ab [pairs_per_case] [--out FILE]
//! ```

use des::{NodeSimParams, Workload};
use petri_core::prelude::*;
use std::time::Instant;

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

/// Firings of `runs` replications from seed 1 — the ns/event denominator
/// (identical for every variant, which the checksums enforce).
fn events(sim: &Simulator<'_>, runs: u64) -> u64 {
    (0..runs)
        .map(|i| sim.run(1 + i).unwrap().total_firings())
        .sum()
}

/// One net's measurement: the median ns/event of the reference and of the
/// lowered engine, and the median paired speedup of the lowered engine.
struct NetResult {
    label: String,
    reference_ns: f64,
    lowered_ns: f64,
    speedup: f64,
}

/// Lowered vs reference over `runs`-replication blocks.
fn measure(label: &str, sim: &Simulator<'_>, runs: u64, pairs: usize) -> NetResult {
    // Pair `p` starts at this seed, so every block runs fresh seeds and
    // both engines of a pair run the same ones.
    let seed0 = |p: usize| (p as u64) * runs + 1;
    let ev = events(sim, runs) as f64;
    let stats = bench::ab::run_paired(
        pairs,
        |p| time_scalar(seed0(p), runs, |s| sim.run(s)),
        |p| time_scalar(seed0(p), runs, |s| sim.run_reference(s)),
    );
    let r = NetResult {
        label: label.to_string(),
        reference_ns: stats.b_ns / ev,
        lowered_ns: stats.a_ns / ev,
        speedup: stats.speedup,
    };
    // The spread over the pairs tells host drift from a change: one
    // binary's median alone drifts between processes.
    println!(
        "{label:<16} reference {:7.1} ns/event  lowered {:7.1} ns/event  \
         paired speedup min {:5.2}x / median {:5.2}x / max {:5.2}x",
        r.reference_ns, r.lowered_ns, stats.speedup_min, r.speedup, stats.speedup_max,
    );
    r
}

/// Render the results as the `BENCH_engine.json` document.
fn render_json(results: &[NetResult], pairs: usize) -> String {
    let scalar = results
        .iter()
        .map(|r| {
            format!(
                "    \"{}\": {{ \"reference_ns_per_event\": {:.1}, \"lowered_ns_per_event\": {:.1}, \"speedup\": {:.2} }}",
                r.label, r.reference_ns, r.lowered_ns, r.speedup
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        r#"{{
  "what": "Event throughput of the lowered engine (sim/lower.rs + sim/lowered.rs + sim/memo.rs, the one production engine behind Simulator::run). `scalar`: Simulator::run against the reference engine (Simulator::run_reference, the frozen seed algorithm and the semantic oracle). Node nets register the full reward set of wsn::simulate_node_model. Each row reuses one simulator, so its runs start from the step record earlier runs left. mm1 and the paper's nets replay memoized steps; the tandem lines give the step memo up early in every run, so their rows price the give-up path.",
  "command": "cargo run --release -p bench --bin engine_ab -- {pairs} --out BENCH_engine.json",
  "host": "{host}",
  "methodology": "Paired A/B on the shared bench::ab harness: adjacent interleaved blocks, alternating order, {pairs} pairs per case; ns/event are median block times over the firings of the block, speedup is the median of per-pair ratios. Every pair's two blocks run the same seeds and must agree on a checksum of every firing count and reward bit pattern, so each row compares byte-identical work.",
  "scalar": {{
{scalar}
  }}
}}
"#,
        host = bench::ab::host(),
    )
}

fn main() {
    let mut pairs: usize = 11;
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(path) => out = Some(path),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            n => match n.parse() {
                Ok(n) if n >= 1 => pairs = n,
                _ => {
                    eprintln!("usage: engine_ab [pairs_per_case] [--out FILE]");
                    std::process::exit(2);
                }
            },
        }
    }
    println!(
        "paired A/B, {pairs} pairs per case (median of adjacent-block ratios; \
         same seeds, full-output checksums)"
    );

    let mut results = Vec::new();
    let net = mm1_net();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(2_000.0));
    sim.reward_place(PlaceId::from_index(0));
    results.push(measure("mm1/2k_seconds", &sim, 8, pairs));

    for (n, horizon) in [(4usize, 1_000.0), (16, 250.0), (64, 60.0)] {
        let net = tandem_net(n);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(horizon));
        sim.reward_place(PlaceId::from_index(0));
        results.push(measure(&format!("tandem/{n}"), &sim, 4, pairs));
    }

    let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(0.1, 0.3));
    let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(1_000.0));
    sim.reward_place(model.places.buffer);
    results.push(measure("fig3_cpu_1000s", &sim, 6, pairs));

    for (label, workload) in [
        ("node_closed_300s", Workload::Closed { interval: 1.0 }),
        ("node_open_300s", Workload::Open { rate: 1.0 }),
    ] {
        let mut params = NodeSimParams::paper_defaults(workload, 0.1);
        params.horizon = 300.0;
        let model = wsn::build_node_model(&params);
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(params.horizon));
        model.register_rewards(&mut sim);
        results.push(measure(label, &sim, 2, pairs));
    }

    if let Some(path) = out {
        if let Err(e) = std::fs::write(&path, render_json(&results, pairs)) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {path}");
    }
}
