//! Paired A/B measurement of the production (lowered) engine on the shared
//! [`bench::ab`] harness: adjacent interleaved blocks, alternating order,
//! median of per-pair ratios — robust to the drift of noisy shared-CPU
//! hosts. Prints one line per measurement and, with `--out FILE`, writes
//! the results as the JSON document committed as `BENCH_engine.json`.
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
//! DVS jobs) with the full reward set `wsn::simulate_node_model` registers
//! — place averages, radio-state predicates and firing counters — so the
//! per-time-step reward integration is priced too.
//!
//! ```text
//! cargo run --release -p bench --bin engine_ab [pairs_per_case] [--out FILE]
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

/// One measured arm: the median ns/event of the baseline and of the
/// variant, and the median paired speedup of the variant.
struct Arm {
    base_ns: f64,
    ns: f64,
    speedup: f64,
}

/// Both arms of one net: scalar lowered vs reference, then batched vs
/// scalar lowered per width.
struct NetResult {
    label: String,
    scalar: Arm,
    batch: Vec<(usize, Arm)>,
}

/// Both arms for one net: scalar lowered vs reference over
/// `scalar_runs`-replication blocks, then batched vs scalar lowered at
/// every width over [`BATCH_REPS`]-replication blocks.
fn measure(label: &str, sim: &Simulator<'_>, scalar_runs: u64, pairs: usize) -> NetResult {
    // Pair `p` of a `runs`-replication sweep starts at this seed, so every
    // block runs fresh seeds and both variants of a pair run the same ones.
    let seed0 = |runs: u64, p: usize| (p as u64) * runs + 1;
    let ev = events(sim, scalar_runs) as f64;
    let stats = bench::ab::run_paired(
        pairs,
        |p| time_scalar(seed0(scalar_runs, p), scalar_runs, |s| sim.run(s)),
        |p| time_scalar(seed0(scalar_runs, p), scalar_runs, |s| sim.run_reference(s)),
    );
    let scalar = Arm {
        base_ns: stats.b_ns / ev,
        ns: stats.a_ns / ev,
        speedup: stats.speedup,
    };
    println!(
        "{label:<16} scalar   : reference {:7.1} ns/event  lowered {:7.1} ns/event  \
         median paired speedup {:5.2}x",
        scalar.base_ns, scalar.ns, scalar.speedup,
    );
    let ev = events(sim, BATCH_REPS) as f64;
    let mut batch = Vec::new();
    for width in WIDTHS {
        let stats = bench::ab::run_paired(
            pairs,
            |p| time_batched(sim, seed0(BATCH_REPS, p), BATCH_REPS, width),
            |p| time_scalar(seed0(BATCH_REPS, p), BATCH_REPS, |s| sim.run(s)),
        );
        let arm = Arm {
            base_ns: stats.b_ns / ev,
            ns: stats.a_ns / ev,
            speedup: stats.speedup,
        };
        println!(
            "{label:<16} batch {width:>2} : scalar    {:7.1} ns/event  batched {:7.1} ns/event  \
             median paired speedup {:5.2}x",
            arm.base_ns, arm.ns, arm.speedup,
        );
        batch.push((width, arm));
    }
    NetResult {
        label: label.to_string(),
        scalar,
        batch,
    }
}

/// Render the results as the `BENCH_engine.json` document.
fn render_json(results: &[NetResult], pairs: usize) -> String {
    let arm = |a: &Arm, base: &str, variant: &str| {
        format!(
            "{{ \"{base}_ns_per_event\": {:.1}, \"{variant}_ns_per_event\": {:.1}, \"speedup\": {:.2} }}",
            a.base_ns, a.ns, a.speedup
        )
    };
    let rows = |f: &dyn Fn(&NetResult) -> String| {
        results
            .iter()
            .map(|r| format!("    \"{}\": {}", r.label, f(r)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let scalar = rows(&|r| arm(&r.scalar, "reference", "lowered"));
    let batch = rows(&|r| {
        let widths: Vec<String> = r
            .batch
            .iter()
            .map(|(w, a)| format!("      \"width_{w}\": {}", arm(a, "scalar", "batched")))
            .collect();
        format!("{{\n{}\n    }}", widths.join(",\n"))
    });
    format!(
        r#"{{
  "what": "Event throughput of the lowered engine (sim/lower.rs + sim/lowered.rs, the one production engine behind Simulator::run and Simulator::run_batch). `scalar`: Simulator::run against the reference engine (Simulator::run_reference, the frozen seed algorithm and the semantic oracle). `batch`: Simulator::run_batch at widths 1/4/16/64 against a loop of scalar runs over the same 64 replications. Node nets register the full reward set of wsn::simulate_node_model.",
  "command": "cargo run --release -p bench --bin engine_ab -- {pairs} --out BENCH_engine.json",
  "host": "{host}",
  "methodology": "Paired A/B on the shared bench::ab harness: adjacent interleaved blocks, alternating order, {pairs} pairs per case; ns/event are median block times over the firings of the block, speedup is the median of per-pair ratios. Every pair's two blocks run the same seeds and must agree on a checksum of every firing count and reward bit pattern, so each row compares byte-identical work.",
  "scalar": {{
{scalar}
  }},
  "batch": {{
{batch}
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
