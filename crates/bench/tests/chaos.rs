//! Chaos acceptance suite for the supervised execution fleet: under
//! deterministic fault injection — dropped/garbled frames, per-connection
//! kill budgets, crash-armed workers, externally killed peers, and a
//! fleet shrunk to zero — every tier (sharded subprocesses, remote TCP
//! peers, the experiment-service daemon) must still gather **exactly**
//! the bytes of an undisturbed in-process run. Faults may cost retries,
//! restarts, reconnections, quarantines, or a loud in-process fallback;
//! they may never cost a bit of output.
//!
//! The injection is seeded (`ChaosConfig`, armed through
//! `Exec::with_chaos`), so a failing schedule is re-runnable; workers are
//! the real `repro` binary (`CARGO_BIN_EXE_repro`), so recovery is
//! exercised over the real wire protocol end to end.

mod common;

use bench::remote::LocalCluster;
use bench::shard::{CrashJob, Mm1ReplicationJob};
use common::InProcessDaemon;
use des::Workload;
use sim_core::PortableJob;
use sim_runtime::{fleet_stats, ChaosConfig, Exec, FaultPolicy};
use std::time::Duration;
use wsn::experiments::jobs::{CpuComparisonJob, NodeSweepJob};

fn repro_bin() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

fn worker_cmd() -> Vec<String> {
    vec![repro_bin().to_string(), "--worker".to_string()]
}

/// The fault policy chaos runs use: deep retry budget, fast backoff (the
/// suite injects faults by the dozen and must not sleep through real
/// backoff), a real IO timeout for wedged peers, and the loud in-process
/// fallback as the last line — so every test terminates with correct
/// bytes no matter how hostile the schedule.
fn chaos_fault() -> FaultPolicy {
    FaultPolicy::default()
        .with_retry_budget(12)
        .with_io_timeout(Some(Duration::from_secs(10)))
        .with_fallback(true)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(8))
}

fn mm1_job() -> Mm1ReplicationJob {
    Mm1ReplicationJob {
        horizon: 150.0,
        warmup: 15.0,
        mu_grid: vec![2.0, 5.0, 10.0],
    }
}

/// Run the M/M/1 replication grid on `exec` and return the gathered
/// result bytes.
fn run_mm1(exec: Exec, base_seed: u64, reps: &[u64; 3]) -> Vec<Vec<Vec<u8>>> {
    run(&mm1_job(), exec, base_seed, reps)
}

/// Run `job`'s replication grid on `exec` and return the gathered result
/// bytes.
fn run(job: &dyn PortableJob, exec: Exec, base_seed: u64, reps: &[u64]) -> Vec<Vec<Vec<u8>>> {
    let seed_of = move |p: usize, r: u64| base_seed ^ ((p as u64) << 32) ^ r;
    exec.runner()
        .run_job(job, reps, &seed_of)
        .expect("chaos run completes (retries/fallback absorb the faults)")
}

/// Per-mille frame-fault rates: clean, light (1%), heavy (10%).
const DROP_GRID: [u32; 3] = [0, 10, 100];

/// Sharded tier: dropped and garbled pipe frames at every rate must cost
/// at most worker restarts, never bytes.
#[test]
fn sharded_tier_bit_identical_under_frame_chaos() {
    let reps = [3u64, 1, 4];
    let baseline = run_mm1(Exec::in_process(1), 0xC4A05, &reps);
    for drop in DROP_GRID {
        let chaos = ChaosConfig::seeded(0xC4A0 + drop as u64)
            .with_drop(drop)
            .with_garble(drop / 2);
        for shards in [1usize, 2] {
            let out = run_mm1(
                Exec::sharded(2, shards)
                    .with_worker_cmd(worker_cmd())
                    .with_fault(chaos_fault())
                    .with_chaos(Some(chaos)),
                0xC4A05,
                &reps,
            );
            assert_eq!(baseline, out, "drop={drop}‰ shards={shards} diverged");
        }
    }
}

/// Remote tier: dropped and garbled TCP frames at every rate must cost at
/// most re-dispatches to surviving peers (or the fallback), never bytes.
#[test]
fn remote_tier_bit_identical_under_frame_chaos() {
    let cluster = LocalCluster::spawn(repro_bin(), 3).expect("cluster spawns");
    let reps = [3u64, 2, 4];
    let baseline = run_mm1(Exec::in_process(1), 0xB0A7, &reps);
    for drop in DROP_GRID {
        let chaos = ChaosConfig::seeded(0xB0A7 ^ u64::from(drop))
            .with_drop(drop)
            .with_garble(drop / 2);
        let out = run_mm1(
            cluster
                .exec(2, 3)
                .with_fault(chaos_fault())
                .with_chaos(Some(chaos)),
            0xB0A7,
            &reps,
        );
        assert_eq!(baseline, out, "drop={drop}‰ diverged");
    }
    cluster.shutdown();
}

/// A per-connection frame budget (`kill_after`) kills every worker pipe
/// mid-chunk: the supervisor must restart workers, re-dispatch only the
/// undelivered remainder, and still gather identical bytes — with the
/// restarts visible in the fleet counters.
#[test]
fn connection_kill_budget_forces_restarts_and_identical_bytes() {
    let reps = [5u64, 4, 5]; // 14 slots: every chunk outlives a 6-frame budget
    let baseline = run_mm1(Exec::in_process(1), 0xD1E, &reps);
    let before = fleet_stats().snapshot();
    let out = run_mm1(
        Exec::sharded(1, 2)
            .with_worker_cmd(worker_cmd())
            .with_fault(chaos_fault())
            .with_chaos(Some(ChaosConfig::seeded(0xD1E).with_kill_after(6))),
        0xD1E,
        &reps,
    );
    assert_eq!(baseline, out);
    let after = fleet_stats().snapshot();
    assert!(
        after.restarts > before.restarts,
        "a 6-frame budget over 7-slot chunks must have restarted workers \
         (before {}, after {})",
        before.restarts,
        after.restarts
    );
}

/// Kill one worker process before every job — the external peer-death
/// flood. Each job must re-dispatch the dead peer's chunks to survivors
/// and stay byte-identical, down to a single live worker.
#[test]
fn kill_one_worker_before_every_job_keeps_results_identical() {
    let mut cluster = LocalCluster::spawn(repro_bin(), 4).expect("cluster spawns");
    let hosts = cluster.hosts();
    let reps = [3u64, 3, 3];
    for round in 0..4usize {
        if round > 0 {
            cluster.kill(round - 1);
        }
        let seed = 0xF100D + round as u64;
        let baseline = run_mm1(Exec::in_process(1), seed, &reps);
        let out = run_mm1(
            Exec::remote(2, hosts.clone()).with_fault(chaos_fault()),
            seed,
            &reps,
        );
        assert_eq!(
            baseline, out,
            "round {round} ({round} dead peer(s)) diverged"
        );
    }
    cluster.shutdown();
}

/// A whole crash-armed fleet: every worker carries the [`CrashJob`]'s
/// arming variable, so each dies on the first slot at or past the
/// mid-grid boundary it claims. Re-dispatch runs out of workers mid-job,
/// and the in-process fallback (the test process does not set the
/// variable) must finish every job byte-identically.
#[test]
fn crash_armed_workers_degrade_to_identical_results() {
    const ARM: &str = "BENCH_CHAOS_SELFTEST_CRASH";
    let cluster =
        LocalCluster::spawn_with_env(repro_bin(), 3, |_| vec![(ARM.to_string(), "1".to_string())])
            .expect("cluster spawns");
    let hosts = cluster.hosts();
    let reps = [4u64, 3, 4];
    let job = CrashJob {
        crash_point: 1,
        crash_rep: 1,
        env_var: ARM.into(),
    };
    let before = fleet_stats().snapshot();
    for round in 0..2u64 {
        let seed = 0xCAFE ^ (round << 8);
        let baseline = run(&job, Exec::in_process(1), seed, &reps);
        let out = run(
            &job,
            Exec::remote(2, hosts.clone()).with_fault(chaos_fault()),
            seed,
            &reps,
        );
        assert_eq!(baseline, out, "round {round} diverged");
    }
    let after = fleet_stats().snapshot();
    assert!(
        after.fallbacks >= before.fallbacks + 2,
        "both rounds must fall back in-process (before {}, after {})",
        before.fallbacks,
        after.fallbacks
    );
    // Crashed workers cannot take the shutdown frame; Drop reaps them.
}

/// The fleet shrunk to zero: no reachable peer, and a worker command that
/// dies instantly. With the fallback armed both backends must degrade to
/// in-process execution — bit-identical, and counted in the fleet stats.
#[test]
fn fleet_shrunk_to_zero_falls_back_in_process_bit_identically() {
    let reps = [2u64, 3, 2];
    let baseline = run_mm1(Exec::in_process(1), 0x2E80, &reps);
    let fast = FaultPolicy::default()
        .with_retry_budget(0)
        .with_fallback(true)
        .with_backoff(Duration::from_millis(1), Duration::from_millis(2));
    let before = fleet_stats().snapshot();
    let remote = run_mm1(
        Exec::remote(2, vec!["127.0.0.1:1".into()]).with_fault(fast),
        0x2E80,
        &reps,
    );
    assert_eq!(baseline, remote, "remote fallback diverged");
    let sharded = run_mm1(
        Exec::sharded(2, 2)
            .with_worker_cmd(vec!["/bin/false".into()])
            .with_fault(fast),
        0x2E80,
        &reps,
    );
    assert_eq!(baseline, sharded, "sharded fallback diverged");
    let after = fleet_stats().snapshot();
    assert!(
        after.fallbacks >= before.fallbacks + 2,
        "both degraded runs must be counted (before {}, after {})",
        before.fallbacks,
        after.fallbacks
    );
}

/// Service tier: a daemon whose backend is armed with frame chaos through
/// its `ServiceConfig.exec` serves results byte-identical to direct
/// execution, and its `stats` verb carries the counts over the versioned
/// wire.
#[test]
fn service_tier_bit_identical_with_chaos_armed_daemon() {
    let chaos = ChaosConfig::seeded(7).with_drop(40).with_garble(10);
    let daemon = InProcessDaemon::start(
        Exec::sharded(2, 2)
            .with_worker_cmd(worker_cmd())
            .with_fault(chaos_fault())
            .with_chaos(Some(chaos)),
    );
    let reps = [3u64, 2, 3];
    let baseline = run_mm1(Exec::in_process(1), 0x5E2C, &reps);
    let out = run_mm1(Exec::service(2, daemon.addr.clone()), 0x5E2C, &reps);
    assert_eq!(baseline, out, "service under chaos diverged");
    let stats = daemon.client().stats().expect("stats verb");
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.executed, 1);
    daemon.shutdown();
}

/// The paper's own jobs — a CPU-comparison sweep (figs 4–9) and open and
/// closed node sweeps (figs 14/15) at quick horizons — over two pipe
/// workers with drop, garble and a per-connection kill budget armed
/// together, must gather exactly the in-process bytes.
#[test]
fn paper_jobs_bit_identical_over_chaos_armed_workers() {
    let cpu = CpuComparisonJob {
        lambda: 1.0,
        mu: 10.0,
        horizon: 300.0,
        power_up_delay: 0.3,
        seed: 0x5EED,
        grid: vec![0.001, 0.3, 2.0],
    };
    let node = |workload| NodeSweepJob {
        workload,
        horizon: 200.0,
        grid: vec![0.00177, 0.1, 1.0],
    };
    let open = node(Workload::Open { rate: 1.0 });
    let closed = node(Workload::Closed { interval: 1.0 });
    let jobs: [&dyn PortableJob; 3] = [&cpu, &open, &closed];
    let reps = [4u64, 3, 4]; // 11 slots: every chunk outlives a 6-frame budget
    let chaos = ChaosConfig::seeded(0x9A9E)
        .with_drop(15)
        .with_garble(5)
        .with_kill_after(6);
    let before = fleet_stats().snapshot();
    for (i, job) in jobs.into_iter().enumerate() {
        let baseline = run(job, Exec::in_process(1), 0x9A9E, &reps);
        let out = run(
            job,
            Exec::sharded(2, 2)
                .with_worker_cmd(worker_cmd())
                .with_fault(chaos_fault())
                .with_chaos(Some(chaos)),
            0x9A9E,
            &reps,
        );
        assert_eq!(baseline, out, "{} (job {i}) diverged", job.kind());
    }
    let after = fleet_stats().snapshot();
    assert!(
        after.restarts > before.restarts,
        "a 6-frame budget over 5- and 6-slot chunks must have restarted workers \
         (before {}, after {})",
        before.restarts,
        after.restarts
    );
}
