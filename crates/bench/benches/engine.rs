//! Engine micro-benchmarks: event throughput of the petri-core simulator.
//!
//! Not a paper artifact, but the quantity that bounds every experiment's
//! wall-clock (the paper laments TimeNET taking "an hour to stabilize";
//! these benches document how far from that we are).
//!
//! Every net is benchmarked on both engines — `engine/*` runs the lowered
//! production engine, `engine_reference/*` the seed's non-incremental
//! core (`Simulator::run_reference`) — from one binary, so before/after numbers
//! share codegen flags and machine conditions. The differential test suite
//! proves the trajectories are bit-identical, so any delta is pure engine
//! overhead. NOTE: on drifting shared-CPU hosts prefer the paired
//! `bench --bin engine_ab` driver for the headline ratios.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use petri_core::prelude::*;

/// M/M/1: the minimal open stochastic net.
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

/// A tandem of `n` exponential stages (tests the incremental enabling
/// index as net size grows).
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

/// Group prefix for an engine selector.
fn prefix(reference: bool) -> &'static str {
    if reference {
        "engine_reference"
    } else {
        "engine"
    }
}

/// One run of whichever engine the benchmark targets.
fn run_once(sim: &Simulator<'_>, seed: u64, reference: bool) -> petri_core::sim::SimOutput {
    if reference {
        sim.run_reference(seed).unwrap()
    } else {
        sim.run(seed).unwrap()
    }
}

fn bench_mm1(c: &mut Criterion, reference: bool) {
    let net = mm1_net();
    let sim = Simulator::new(&net, SimConfig::for_horizon(10_000.0));
    // ~30k firings per run at these rates.
    let mut g = c.benchmark_group(format!("{}/mm1", prefix(reference)));
    g.throughput(Throughput::Elements(30_000));
    g.bench_function("10k_seconds", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_once(&sim, seed, reference)
        })
    });
    g.finish();
}

fn bench_tandem(c: &mut Criterion, reference: bool) {
    let mut g = c.benchmark_group(format!("{}/tandem", prefix(reference)));
    for n in [4usize, 16, 64] {
        let net = tandem_net(n);
        let sim = Simulator::new(&net, SimConfig::for_horizon(1000.0));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                run_once(&sim, seed, reference)
            })
        });
    }
    g.finish();
}

fn bench_cpu_net_events(c: &mut Criterion, reference: bool) {
    let model = wsn::build_cpu_model(&wsn::CpuModelParams::paper_defaults(0.1, 0.3));
    let sim = Simulator::new(&model.net, SimConfig::for_horizon(1000.0));
    c.bench_function(&format!("{}/fig3_cpu_1000s", prefix(reference)), |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            run_once(&sim, seed, reference)
        })
    });
}

fn all_incremental(c: &mut Criterion) {
    bench_mm1(c, false);
    bench_tandem(c, false);
    bench_cpu_net_events(c, false);
}

fn all_reference(c: &mut Criterion) {
    bench_mm1(c, true);
    bench_tandem(c, true);
    bench_cpu_net_events(c, true);
}

criterion_group! {
    name = benches;
    // Short windows: these benches document magnitudes, not micro-regressions.
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(20);
    targets = all_incremental, all_reference
}
criterion_main!(benches);
