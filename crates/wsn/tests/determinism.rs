//! Every sweep-based experiment driver must produce **bit-identical**
//! output at 1, 2 and 8 worker threads — the acceptance bar for the
//! flattened `(point × replication)` grid. The result structs all derive
//! `PartialEq` over raw `f64`s, so `assert_eq!` is an exact bits check.
//!
//! (Shard-count invariance — the same drivers across worker subprocesses —
//! is covered by `crates/bench/tests/shard_determinism.rs`, which owns the
//! `repro` worker binary.)

use des::Workload;
use sim_core::{Runner, StoppingRule};
use wsn::experiments::ablations::{
    erlang_ablation, memory_ablation, seed_ablation, trigger_ablation,
};
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::validation::run_validation;
use wsn::CpuModelParams;

#[test]
fn cpu_comparison_identical_across_thread_counts() {
    let grid = [0.001, 0.3, 0.7, 1.0];
    let run = |threads| {
        run_cpu_comparison(
            0.3,
            &grid,
            &CpuComparisonConfig {
                horizon: 300.0,
                exec: Runner::new(threads),
                rule: StoppingRule::relative(0.03).with_budget(3, 3, 3),
                ..Default::default()
            },
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn node_sweep_identical_across_thread_counts_open() {
    // The open workload is the stochastic one: replications actually
    // average, so fold order matters.
    let grid = [1e-9, 0.00177, 0.1, 10.0];
    let run = |threads| {
        run_node_sweep(
            Workload::Open { rate: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 150.0,
                exec: Runner::new(threads),
                rule: StoppingRule::relative(0.03).with_budget(4, 4, 4),
                ..Default::default()
            },
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn node_sweep_identical_across_thread_counts_closed() {
    let grid = [1e-9, 0.00177, 1.0];
    let run = |threads| {
        run_node_sweep(
            Workload::Closed { interval: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 150.0,
                exec: Runner::new(threads),
                ..Default::default()
            },
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn node_sweep_adaptive_identical_across_thread_counts() {
    // The adaptive budget itself (how many replications each point gets)
    // must also be thread-count-invariant.
    let grid = [1e-9, 0.01, 1.0];
    let run = |threads| {
        run_node_sweep(
            Workload::Open { rate: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 120.0,
                exec: Runner::new(threads),
                rule: StoppingRule::relative(0.08).with_budget(3, 18, 3),
                ..Default::default()
            },
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn validation_identical_across_thread_counts() {
    let grid = [1e-9, 0.01, 1.0, 100.0];
    let run = |threads| {
        run_validation(
            Workload::Closed { interval: 1.0 },
            &grid,
            120.0,
            9,
            &Runner::new(threads),
            &wsn::experiments::paper_rule(),
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn validation_adaptive_identical_across_thread_counts() {
    let grid = [0.01, 1.0];
    let rule = StoppingRule::relative(0.1).with_budget(3, 12, 3);
    let run = |threads| {
        run_validation(
            Workload::Open { rate: 1.0 },
            &grid,
            150.0,
            9,
            &Runner::new(threads),
            &rule,
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn seed_ablation_identical_across_thread_counts() {
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    let run = |threads| seed_ablation(&params, 200.0, &[3, 9], 0xCAFE, &Runner::new(threads));
    let base = run(1);
    assert_eq!(base, run(2));
    assert_eq!(base, run(8));
}

#[test]
fn ablation_tail_identical_across_thread_counts() {
    // ABL-ERLANG, ABL-MEMORY and ABL-TRIGGER run their independent units
    // on the executor; the rows must not depend on how many threads ran
    // them or in which order the units finished.
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    let run = |threads| {
        let exec = Runner::new(threads);
        (
            erlang_ablation(0.3, 0.3, &[1, 4, 16], 42, &exec),
            memory_ablation(&params, 2000.0, 7, &exec),
            trigger_ablation(&params, 2000.0, 17, &exec),
        )
    };
    let base = run(1);
    assert_eq!(base, run(2));
}
