//! Acceptance suite for the sharded executor: the worker backend over pipes must be
//! **byte-identical** to the in-process backend for every portable job and
//! every experiment driver at shards ∈ {1, 2, 4} × threads ∈ {1, 2}, and
//! worker failures must propagate with lowest-flat-index-wins semantics
//! (matching `Runner::try_grid`).
//!
//! The worker subprocess is the real `repro --worker` binary
//! (`CARGO_BIN_EXE_repro`), so these tests cover the full wire protocol:
//! manifest encode → frame over stdin → registry decode → in-worker
//! scheduling → per-slot result frames → ordered gather.

use bench::shard::{CrashJob, FailJob, Mm1ReplicationJob};
use des::Workload;
use proptest::prelude::*;
use sim_core::{ExecError, StoppingRule};
use sim_runtime::Exec;
use wsn::experiments::ablations::seed_ablation;
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::validation::run_validation;
use wsn::CpuModelParams;

/// The real worker binary.
fn worker_cmd() -> Vec<String> {
    vec![
        env!("CARGO_BIN_EXE_repro").to_string(),
        "--worker".to_string(),
    ]
}

fn sharded(threads: usize, shards: usize) -> Exec {
    Exec::sharded(threads, shards).with_worker_cmd(worker_cmd())
}

const SHARD_GRID: [usize; 3] = [1, 2, 4];
const THREAD_GRID: [usize; 2] = [1, 2];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Uncolored net: an M/M/1 replication grid produces the same bytes
    /// in-process and under every shard × thread combination.
    #[test]
    fn mm1_uncolored_bit_identical_across_shards(base_seed in 0u64..10_000) {
        let job = Mm1ReplicationJob {
            horizon: 200.0,
            warmup: 20.0,
            mu_grid: vec![2.0, 5.0, 10.0],
        };
        let reps = [3u64, 1, 4];
        let seed_of = move |p: usize, r: u64| base_seed ^ ((p as u64) << 32) ^ r;
        let baseline = Exec::in_process(1)
            .runner()
            .run_job(&job, &reps, &seed_of)
            .unwrap();
        for shards in SHARD_GRID {
            for threads in THREAD_GRID {
                let out = sharded(threads, shards)
                    .runner()
                    .run_job(&job, &reps, &seed_of)
                    .unwrap();
                prop_assert!(
                    baseline == out,
                    "shards={} threads={} diverged",
                    shards,
                    threads
                );
            }
        }
    }
}

/// Colored net (the Fig. 12/13 node SCPN with DVS job colors): the
/// open-workload sweep driver at a fixed 3-replication budget is
/// bit-identical across backends.
#[test]
fn colored_node_sweep_driver_identical_across_shards() {
    let grid = [1e-9, 0.00177, 0.1, 10.0];
    let run = |exec: Exec| {
        run_node_sweep(
            Workload::Open { rate: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 120.0,
                exec: exec.runner(),
                rule: StoppingRule::relative(0.03).with_budget(3, 3, 3),
                ..Default::default()
            },
        )
    };
    let baseline = run(Exec::in_process(2));
    for shards in SHARD_GRID {
        for threads in THREAD_GRID {
            assert_eq!(baseline, run(sharded(threads, shards)), "shards={shards}");
        }
    }
}

/// The adaptive open sweep: budget decisions (replications per point) and
/// folded statistics are identical when rounds run across worker shards.
#[test]
fn adaptive_node_sweep_identical_across_shards() {
    let grid = [1e-9, 0.01, 1.0];
    let run = |exec: Exec| {
        run_node_sweep(
            Workload::Open { rate: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 100.0,
                exec: exec.runner(),
                rule: StoppingRule::relative(0.08).with_budget(3, 12, 3),
                ..Default::default()
            },
        )
    };
    let baseline = run(Exec::in_process(1));
    for shards in SHARD_GRID {
        assert_eq!(baseline, run(sharded(2, shards)), "shards={shards}");
    }
}

/// The closed node sweep (deterministic single-replication points).
#[test]
fn closed_node_sweep_driver_identical_across_shards() {
    let grid = [1e-9, 0.00177, 1.0];
    let run = |exec: Exec| {
        run_node_sweep(
            Workload::Closed { interval: 1.0 },
            &grid,
            &NodeSweepConfig {
                horizon: 120.0,
                exec: exec.runner(),
                ..Default::default()
            },
        )
    };
    let baseline = run(Exec::in_process(2));
    for shards in SHARD_GRID {
        assert_eq!(baseline, run(sharded(1, shards)), "shards={shards}");
    }
}

/// The three-way CPU comparison driver (DES + colored-free CPU net +
/// closed-form Markov column).
#[test]
fn cpu_comparison_driver_identical_across_shards() {
    let grid = [0.001, 0.3, 1.0];
    let run = |exec: Exec| {
        run_cpu_comparison(
            0.3,
            &grid,
            &CpuComparisonConfig {
                horizon: 150.0,
                exec: exec.runner(),
                rule: StoppingRule::relative(0.03).with_budget(2, 2, 2),
                ..Default::default()
            },
        )
    };
    let baseline = run(Exec::in_process(2));
    for shards in SHARD_GRID {
        for threads in THREAD_GRID {
            assert_eq!(baseline, run(sharded(threads, shards)), "shards={shards}");
        }
    }
}

/// The Petri-vs-DES validation driver: the single-run closed sweep and the
/// open sweep under its stopping rule.
#[test]
fn validation_driver_identical_across_shards() {
    let grid = [1e-9, 0.01, 1.0];
    let rule = StoppingRule::relative(0.1).with_budget(3, 9, 3);
    let closed = |exec: Exec| {
        run_validation(
            Workload::Closed { interval: 1.0 },
            &grid,
            100.0,
            9,
            &exec.runner(),
            &rule,
        )
    };
    let open = |exec: Exec| {
        run_validation(
            Workload::Open { rate: 1.0 },
            &grid,
            100.0,
            9,
            &exec.runner(),
            &rule,
        )
    };
    let closed_base = closed(Exec::in_process(2));
    let open_base = open(Exec::in_process(2));
    for shards in SHARD_GRID {
        assert_eq!(closed_base, closed(sharded(2, shards)), "shards={shards}");
        assert_eq!(open_base, open(sharded(1, shards)), "shards={shards}");
    }
}

/// The seed-ablation driver (prefix-folded replication grid).
#[test]
fn seed_ablation_driver_identical_across_shards() {
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    let run = |exec: Exec| seed_ablation(&params, 150.0, &[3, 8], 0xCAFE, &exec.runner());
    let baseline = run(Exec::in_process(2));
    for shards in SHARD_GRID {
        assert_eq!(baseline, run(sharded(2, shards)), "shards={shards}");
    }
}

/// Every slot from `(1, 1)` on fails, in every shard that owns one: the
/// surfaced error must be exactly the boundary slot — the lowest global
/// flat index — matching `try_grid`'s lowest-index-wins contract.
#[test]
fn lowest_index_task_error_wins_across_shards() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    let job = FailJob {
        fail_point: 1,
        fail_rep: 1,
    };
    let reps = [3u64, 3, 3]; // boundary slot = flat index 4
    for shards in SHARD_GRID {
        for threads in THREAD_GRID {
            let err = sharded(threads, shards)
                .runner()
                .run_job(&job, &reps, &|_, _| 0)
                .unwrap_err();
            match err {
                ExecError::Task {
                    flat_index,
                    point,
                    replication,
                    ref message,
                } => {
                    assert_eq!(
                        (flat_index, point, replication),
                        (4, 1, 1),
                        "shards={shards} threads={threads}: {message}"
                    );
                }
                other => panic!("expected task error, got {other:?}"),
            }
        }
    }
}

/// Kill workers mid-run (the job calls `process::exit` from a boundary
/// slot on): the gather must surface a worker error at the lowest slot a
/// dead worker left while the other shards complete normally.
#[test]
fn killed_worker_propagates_error() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    // 8 slots; 4 shards of 2. Every slot from (2, 0) on crashes, so the
    // third and fourth shards (slots 4..8) die; the lowest failing flat
    // index, 4, is the one reported.
    let reps = [2u64, 2, 2, 2];
    let job = CrashJob {
        crash_point: 2,
        crash_rep: 0,
        env_var: String::new(),
    };
    let err = sharded(1, 4)
        .runner()
        .run_job(&job, &reps, &|_, _| 0)
        .unwrap_err();
    match err {
        ExecError::Worker {
            flat_index,
            ref message,
        } => {
            assert_eq!(flat_index, 4, "{message}");
        }
        other => panic!("expected worker error, got {other:?}"),
    }
    // Same grid with the crash slot out of range completes fine.
    let ok_job = CrashJob {
        crash_point: 99,
        crash_rep: 0,
        env_var: String::new(),
    };
    let out = sharded(1, 4)
        .runner()
        .run_job(&ok_job, &reps, &|_, _| 7)
        .unwrap();
    assert_eq!(out.iter().map(Vec::len).sum::<usize>(), 8);
}

/// A worker command that is not a protocol speaker at all.
#[test]
fn non_protocol_worker_is_a_worker_error() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    let job = Mm1ReplicationJob {
        horizon: 50.0,
        warmup: 0.0,
        mu_grid: vec![2.0],
    };
    let exec = Exec::sharded(1, 2).with_worker_cmd(vec!["/bin/true".into()]);
    let err = exec.runner().run_job(&job, &[2], &|_, _| 1).unwrap_err();
    assert!(matches!(err, ExecError::Worker { .. }), "{err:?}");
}
