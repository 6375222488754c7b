//! Acceptance suite for the remote TCP executor: the worker backend over TCP must be
//! **byte-identical** to the in-process backend for every portable job and
//! every experiment driver at hosts ∈ {1, 2, 4} × threads ∈ {1, 2} over
//! loopback, peer failures must propagate with lowest-flat-index-wins
//! semantics (matching the shard suite), and a peer killed mid-run must be
//! survivable: its undelivered chunk re-dispatches to the remaining peers
//! and the gathered bytes still equal the in-process run exactly.
//!
//! Workers are real `repro --worker --listen` processes
//! (`CARGO_BIN_EXE_repro`) on ephemeral loopback ports, spawned through
//! `bench::remote::LocalCluster` — the full TCP protocol end to end:
//! manifest frame over the socket → registry decode → in-worker scheduling
//! → per-slot result frames → ordered gather → graceful shutdown frames at
//! teardown.

use bench::remote::LocalCluster;
use bench::shard::{CrashJob, FailJob, Mm1ReplicationJob};
use des::Workload;
use proptest::prelude::*;
use sim_core::{ExecError, StoppingRule};
use sim_runtime::{Backend, Connector, Exec};
use wsn::experiments::ablations::seed_ablation;
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::validation::run_validation;
use wsn::CpuModelParams;

fn repro_bin() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

const HOST_GRID: [usize; 3] = [1, 2, 4];
const THREAD_GRID: [usize; 2] = [1, 2];

#[test]
fn cluster_spawns_announces_and_shuts_down() {
    let cluster = LocalCluster::spawn(repro_bin(), 2).expect("cluster spawns");
    let hosts = cluster.hosts();
    assert_eq!(hosts.len(), 2);
    for h in &hosts {
        assert!(h.starts_with("127.0.0.1:"), "{h}");
    }
    let exec = cluster.exec(2, 2);
    assert!(matches!(
        exec.backend,
        Backend::Workers(Connector::Tcp { .. })
    ));
    assert!(exec.label().contains("hosts=2"));
    cluster.shutdown();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Uncolored net: an M/M/1 replication grid produces the same bytes
    /// in-process and under every host × thread combination.
    #[test]
    fn mm1_uncolored_bit_identical_across_hosts(base_seed in 0u64..10_000) {
        let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
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
        for hosts in HOST_GRID {
            for threads in THREAD_GRID {
                let out = cluster
                    .exec(threads, hosts)
                    .runner()
                    .run_job(&job, &reps, &seed_of)
                    .unwrap();
                prop_assert!(
                    baseline == out,
                    "hosts={} threads={} diverged",
                    hosts,
                    threads
                );
            }
        }
        cluster.shutdown();
    }
}

/// Colored net (the Fig. 12/13 node SCPN with DVS job colors): the
/// open-workload sweep driver at a fixed 3-replication budget is
/// bit-identical across hosts.
#[test]
fn colored_node_sweep_driver_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
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
    for hosts in HOST_GRID {
        for threads in THREAD_GRID {
            assert_eq!(
                baseline,
                run(cluster.exec(threads, hosts)),
                "hosts={hosts} threads={threads}"
            );
        }
    }
    cluster.shutdown();
}

/// The adaptive open sweep: budget decisions (replications per point) and
/// folded statistics are identical when rounds run across remote peers —
/// each round is a fresh set of connections against the same workers.
#[test]
fn adaptive_node_sweep_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
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
    for hosts in HOST_GRID {
        assert_eq!(baseline, run(cluster.exec(2, hosts)), "hosts={hosts}");
    }
    cluster.shutdown();
}

/// The closed node sweep (deterministic single-replication points).
#[test]
fn closed_node_sweep_driver_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
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
    for hosts in HOST_GRID {
        assert_eq!(baseline, run(cluster.exec(1, hosts)), "hosts={hosts}");
    }
    cluster.shutdown();
}

/// The three-way CPU comparison driver (its stopping rule watches the
/// wider of the DES/Petri energy CIs per point), at a fixed 2-replication
/// budget over the thread grid and adaptively at one thread.
#[test]
fn cpu_comparison_driver_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
    let grid = [0.001, 0.3, 1.0];
    let run = |exec: Exec, rule: StoppingRule| {
        run_cpu_comparison(
            0.3,
            &grid,
            &CpuComparisonConfig {
                horizon: 150.0,
                exec: exec.runner(),
                rule,
                ..Default::default()
            },
        )
    };
    let fixed_rule = StoppingRule::relative(0.08).with_budget(2, 2, 2);
    let adaptive_rule = StoppingRule::relative(0.08).with_budget(2, 8, 2);
    let fixed = |exec: Exec| run(exec, fixed_rule);
    let adaptive = |exec: Exec| run(exec, adaptive_rule);
    let fixed_base = fixed(Exec::in_process(2));
    let adaptive_base = adaptive(Exec::in_process(2));
    for hosts in HOST_GRID {
        for threads in THREAD_GRID {
            assert_eq!(
                fixed_base,
                fixed(cluster.exec(threads, hosts)),
                "fixed hosts={hosts} threads={threads}"
            );
        }
        assert_eq!(
            adaptive_base,
            adaptive(cluster.exec(1, hosts)),
            "adaptive hosts={hosts}"
        );
    }
    cluster.shutdown();
}

/// The Petri-vs-DES validation driver: the single-run closed sweep and the
/// open sweep under its stopping rule.
#[test]
fn validation_driver_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
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
    for hosts in HOST_GRID {
        assert_eq!(closed_base, closed(cluster.exec(2, hosts)), "hosts={hosts}");
        assert_eq!(open_base, open(cluster.exec(1, hosts)), "hosts={hosts}");
    }
    cluster.shutdown();
}

/// The seed-ablation driver (prefix-folded replication grid).
#[test]
fn seed_ablation_driver_identical_across_hosts() {
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    let run = |exec: Exec| seed_ablation(&params, 150.0, &[3, 8], 0xCAFE, &exec.runner());
    let baseline = run(Exec::in_process(2));
    for hosts in HOST_GRID {
        assert_eq!(baseline, run(cluster.exec(2, hosts)), "hosts={hosts}");
    }
    cluster.shutdown();
}

/// Every slot from `(1, 1)` on fails, on every peer that owns one: the
/// surfaced error must be exactly the boundary slot — the lowest global
/// flat index — matching the shard suite and `try_grid`.
#[test]
fn lowest_index_task_error_wins_across_hosts() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    let cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
    let job = FailJob {
        fail_point: 1,
        fail_rep: 1,
    };
    let reps = [3u64, 3, 3]; // boundary slot = flat index 4
    for hosts in HOST_GRID {
        for threads in THREAD_GRID {
            let err = cluster
                .exec(threads, hosts)
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
                        "hosts={hosts} threads={threads}: {message}"
                    );
                }
                other => panic!("expected task error, got {other:?}"),
            }
        }
    }
    cluster.shutdown();
}

/// Kill one peer mid-run: worker 0 is armed (via environment variable) to
/// `exit(3)` at a slot inside its chunk; the survivors must absorb the
/// re-dispatched remainder and the gathered bytes must equal the
/// in-process baseline **exactly** — seeded pure slots make retry
/// invisible in the output.
#[test]
fn killed_peer_redispatch_produces_identical_bytes() {
    const ARM: &str = "BENCH_REMOTE_SELFTEST_CRASH";
    let cluster = LocalCluster::spawn_with_env(repro_bin(), 3, |i| {
        if i == 0 {
            vec![(ARM.to_string(), "1".to_string())]
        } else {
            Vec::new()
        }
    })
    .expect("cluster spawns");
    let reps = [2u64, 2, 2, 2, 2, 2]; // 12 slots; 3 chunks of 4
    let job = CrashJob {
        // Boundary (0, 0): the armed worker dies on the first slot of
        // whichever chunk it claims — the kill is schedule-independent.
        crash_point: 0,
        crash_rep: 0,
        env_var: ARM.into(),
    };
    // The test process does not set ARM, so the in-process baseline (and
    // every unarmed worker) treats the slot as a normal success.
    let baseline = Exec::in_process(1)
        .runner()
        .run_job(&job, &reps, &|p, r| (p as u64) * 100 + r)
        .unwrap();
    let out = cluster
        .exec(1, 3)
        .runner()
        .run_job(&job, &reps, &|p, r| (p as u64) * 100 + r)
        .unwrap();
    assert_eq!(baseline, out, "re-dispatched gather diverged");
    cluster.shutdown();
}

/// Externally killing a peer *between* dispatches is also survivable: the
/// liveness probe routes around the corpse and results stay identical.
#[test]
fn externally_killed_idle_peer_is_routed_around() {
    let mut cluster = LocalCluster::spawn(repro_bin(), 3).expect("cluster spawns");
    let job = Mm1ReplicationJob {
        horizon: 100.0,
        warmup: 10.0,
        mu_grid: vec![2.0, 5.0],
    };
    let reps = [3u64, 3];
    let exec = cluster.exec(1, 3);
    let baseline = Exec::in_process(1)
        .runner()
        .run_job(&job, &reps, &|p, r| (p as u64) << 16 | r)
        .unwrap();
    // First dispatch: all three peers healthy.
    assert_eq!(
        baseline,
        exec.runner()
            .run_job(&job, &reps, &|p, r| (p as u64) << 16 | r)
            .unwrap()
    );
    // Kill one worker, then dispatch again against the same host list:
    // the dead peer's chunk must re-route to the survivors.
    cluster.kill(0);
    assert_eq!(
        baseline,
        exec.runner()
            .run_job(&job, &reps, &|p, r| (p as u64) << 16 | r)
            .unwrap(),
        "gather diverged after an idle peer was killed"
    );
    cluster.shutdown();
}

/// With every peer dead, the error is a worker failure (or, when nothing
/// connects at all, a protocol error) — never a hang.
#[test]
fn all_peers_dead_is_an_error_not_a_hang() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    let mut cluster = LocalCluster::spawn(repro_bin(), 2).expect("cluster spawns");
    let exec = cluster.exec(1, 2);
    cluster.kill(0);
    cluster.kill(1);
    let job = Mm1ReplicationJob {
        horizon: 50.0,
        warmup: 0.0,
        mu_grid: vec![2.0],
    };
    let err = exec.runner().run_job(&job, &[2], &|_, _| 1).unwrap_err();
    assert!(
        matches!(err, ExecError::Worker { .. } | ExecError::Protocol(_)),
        "{err:?}"
    );
}
