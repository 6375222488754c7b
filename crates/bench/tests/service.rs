//! Acceptance suite for the experiment service daemon: results served
//! through a real `repro serve` process must be **byte-identical** to
//! direct execution for every experiment driver, a repeated submission
//! must be answered from the content-addressed cache without
//! re-simulation (observable via the daemon's hit/executed counters),
//! concurrent identical submissions must coalesce onto one execution
//! (single-flight), the disk tier must survive a daemon restart, and
//! failures/cancellations/queue-bounds must propagate as typed errors —
//! never as wrong bytes.
//!
//! The daemon is a real process on an ephemeral loopback port, spawned
//! through `bench::remote::LocalService` (the same announce-line harness
//! as the worker cluster), speaking the versioned service protocol end to
//! end: submit frame → cache/queue/scheduler → backend execution →
//! result blob → client decode.

use bench::remote::LocalService;
use bench::shard::{FailJob, Mm1ReplicationJob};
use des::Workload;
use sim_core::{ExecError, Runner, StoppingRule, TaskManifest};
use sim_runtime::service::cache::decode_blob;
use sim_runtime::{Backend, Disposition, Exec, JobState, ServiceError};
use wsn::experiments::ablations::seed_ablation;
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::validation::run_validation;
use wsn::CpuModelParams;

fn repro_bin() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

/// A unique scratch directory for one test's disk cache.
fn unique_dir(tag: &str) -> std::path::PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static SEQ: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "repro-service-test-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn mm1_manifest(horizon: f64, reps: u64, seed: u64) -> TaskManifest {
    let job = Mm1ReplicationJob {
        horizon,
        warmup: horizon * 0.1,
        mu_grid: vec![2.0, 5.0],
    };
    let segments = (0..job.mu_grid.len())
        .map(|point| sim_core::Segment {
            point,
            base_rep: 0,
            count: reps as usize,
        })
        .collect();
    TaskManifest::for_job(&job, segments, &|p, r| seed ^ ((p as u64) << 32) ^ r)
}

#[test]
fn service_spawns_announces_and_shuts_down() {
    let dir = unique_dir("spawn");
    let svc = LocalService::spawn(
        repro_bin(),
        &["--threads", "1", "--cache-dir", dir.to_str().unwrap()],
    )
    .expect("daemon spawns");
    assert!(svc.addr().starts_with("127.0.0.1:"), "{}", svc.addr());
    let exec = svc.exec(2);
    assert_eq!(exec.backend, Backend::Service(svc.addr().to_string()));
    assert!(exec.label().contains("service"));
    let stats = svc.client().stats().expect("stats verb");
    assert_eq!(stats.submitted, 0);
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every experiment driver, executed through the daemon, must produce
/// results equal to direct in-process execution — and a second identical
/// run must be answered from the cache (no further backend executions).
#[test]
fn every_driver_served_is_identical_to_direct_execution() {
    let dir = unique_dir("drivers");
    let svc = LocalService::spawn(
        repro_bin(),
        &["--threads", "2", "--cache-dir", dir.to_str().unwrap()],
    )
    .expect("daemon spawns");
    let served = svc.exec(2);

    // CPU comparison at a fixed 2-replication budget and adaptively.
    let grid = [0.001, 0.3, 1.0];
    let cpu = |exec: Exec, rule: StoppingRule| {
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
    let fixed = StoppingRule::relative(0.08).with_budget(2, 2, 2);
    assert_eq!(
        cpu(Exec::in_process(2), fixed),
        cpu(served.clone(), fixed),
        "cpu fixed diverged"
    );
    let rule = StoppingRule::relative(0.08).with_budget(2, 8, 2);
    assert_eq!(
        cpu(Exec::in_process(1), rule),
        cpu(served.clone(), rule),
        "cpu adaptive diverged"
    );

    // Node sweep: closed (deterministic), open at a fixed 3-replication
    // budget, open adaptive.
    let node = |exec: Exec, workload: Workload, rule: StoppingRule| {
        run_node_sweep(
            workload,
            &[1e-9, 0.01, 1.0],
            &NodeSweepConfig {
                horizon: 100.0,
                exec: exec.runner(),
                rule,
                ..Default::default()
            },
        )
    };
    let node_fixed = StoppingRule::relative(0.08).with_budget(3, 3, 3);
    let closed = Workload::Closed { interval: 1.0 };
    assert_eq!(
        node(Exec::in_process(2), closed, node_fixed),
        node(served.clone(), closed, node_fixed),
        "closed node sweep diverged"
    );
    let open = Workload::Open { rate: 1.0 };
    assert_eq!(
        node(Exec::in_process(1), open, node_fixed),
        node(served.clone(), open, node_fixed),
        "open node sweep diverged"
    );
    let open_rule = StoppingRule::relative(0.08).with_budget(3, 9, 3);
    assert_eq!(
        node(Exec::in_process(1), open, open_rule),
        node(served.clone(), open, open_rule),
        "adaptive node sweep diverged"
    );

    // Validation: single-run closed + open under its rule.
    let vrule = StoppingRule::relative(0.1).with_budget(3, 9, 3);
    let vgrid = [1e-9, 0.01, 1.0];
    assert_eq!(
        run_validation(
            Workload::Closed { interval: 1.0 },
            &vgrid,
            100.0,
            9,
            &Runner::new(2),
            &vrule
        ),
        run_validation(
            Workload::Closed { interval: 1.0 },
            &vgrid,
            100.0,
            9,
            &served.runner(),
            &vrule
        ),
        "closed validation diverged"
    );
    assert_eq!(
        run_validation(
            Workload::Open { rate: 1.0 },
            &vgrid,
            100.0,
            9,
            &Runner::new(1),
            &vrule
        ),
        run_validation(
            Workload::Open { rate: 1.0 },
            &vgrid,
            100.0,
            9,
            &served.runner(),
            &vrule
        ),
        "adaptive validation diverged"
    );

    // Seed ablation (prefix-folded replication grid).
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    assert_eq!(
        seed_ablation(&params, 150.0, &[3, 8], 0xCAFE, &Runner::new(2)),
        seed_ablation(&params, 150.0, &[3, 8], 0xCAFE, &served.runner()),
        "seed ablation diverged"
    );

    // Uncolored mm1 through the raw run_job path.
    let job = Mm1ReplicationJob {
        horizon: 120.0,
        warmup: 12.0,
        mu_grid: vec![2.0, 5.0, 10.0],
    };
    let reps = [3u64, 1, 4];
    let seed_of = |p: usize, r: u64| 77u64 ^ ((p as u64) << 32) ^ r;
    assert_eq!(
        Exec::in_process(1)
            .runner()
            .run_job(&job, &reps, &seed_of)
            .unwrap(),
        served.runner().run_job(&job, &reps, &seed_of).unwrap(),
        "mm1 run_job diverged"
    );

    // Every dispatch so far executed exactly once; repeat the whole CPU
    // fixed-budget sweep and the budget must be paid entirely by the
    // cache. (Cache hits may already have happened above: e.g. an
    // adaptive sweep's first round re-issues the same manifest as a
    // fixed-budget run of the same size — exactly the cross-caller dedup
    // the service exists for.) Repeating a whole driver now must be
    // answered entirely from the cache: identical results, zero further
    // executions.
    let mut client = svc.client();
    let before = client.stats().unwrap();
    assert!(before.executed > 0);
    assert_eq!(
        cpu(Exec::in_process(2), fixed),
        cpu(served.clone(), fixed),
        "cached cpu fixed diverged"
    );
    let after = client.stats().unwrap();
    assert_eq!(
        after.executed, before.executed,
        "repeat run must not re-execute anything"
    );
    assert!(
        after.hits() > before.hits(),
        "repeat run must hit the cache"
    );

    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeat_submission_is_answered_from_cache_with_identical_bytes() {
    let svc = LocalService::spawn(repro_bin(), &["--threads", "1", "--no-disk-cache"])
        .expect("daemon spawns");
    let m = mm1_manifest(100.0, 2, 0xAB);
    let mut client = svc.client();
    let (job1, d1) = client.submit(&m, 1).unwrap();
    assert_eq!(d1, Disposition::Queued);
    let bytes1 = client.fetch_blob(job1).unwrap();
    let (job2, d2) = client.submit(&m, 1).unwrap();
    assert_eq!(d2, Disposition::HitMem, "repeat must be a memory hit");
    assert_ne!(job2, job1, "each submission gets its own job id");
    let bytes2 = client.fetch_blob(job2).unwrap();
    assert_eq!(bytes1, bytes2, "cached bytes must equal executed bytes");
    // The blob decodes to one result per slot.
    assert_eq!(decode_blob(&bytes1).unwrap().len(), m.total_slots());
    let s = client.stats().unwrap();
    assert_eq!((s.executed, s.hits_mem), (1, 1));
    svc.shutdown();
}

#[test]
fn concurrent_identical_submissions_coalesce_single_flight() {
    // One dispatcher + a slow blocker job in front: the identical pair
    // behind it cannot have completed when the second submission arrives,
    // so coalescing is deterministic, not a timing accident.
    let svc = LocalService::spawn(
        repro_bin(),
        &["--threads", "1", "--dispatchers", "1", "--no-disk-cache"],
    )
    .expect("daemon spawns");
    let blocker = mm1_manifest(150_000.0, 1, 0xB10C);
    let target = mm1_manifest(80.0, 2, 0x51F);

    let mut c1 = svc.client();
    let mut c2 = svc.client();
    let (_blocker_job, d) = c1.submit(&blocker, 1).unwrap();
    assert_eq!(d, Disposition::Queued);
    let (a, da) = c1.submit(&target, 1).unwrap();
    let (b, db) = c2.submit(&target, 1).unwrap();
    assert_eq!(da, Disposition::Queued);
    assert_eq!(db, Disposition::Coalesced, "identical in-flight submission");
    assert_eq!(a, b, "both callers share one job");
    // Both connections fetch the same bytes from the one execution.
    let h1 = std::thread::spawn(move || c1.fetch_blob(a).unwrap());
    let bytes2 = c2.fetch_blob(b).unwrap();
    let bytes1 = h1.join().unwrap();
    assert_eq!(bytes1, bytes2);
    let mut c3 = svc.client();
    let s = c3.stats().unwrap();
    assert_eq!(s.coalesced, 1);
    assert_eq!(
        s.executed, 2,
        "blocker + one target execution (the coalesced submission adds none)"
    );
    svc.shutdown();
}

#[test]
fn disk_cache_survives_a_daemon_restart() {
    let dir = unique_dir("restart");
    let m = mm1_manifest(90.0, 2, 0xD15C);
    let bytes_first;
    {
        let svc = LocalService::spawn(
            repro_bin(),
            &["--threads", "1", "--cache-dir", dir.to_str().unwrap()],
        )
        .expect("daemon spawns");
        let mut client = svc.client();
        let (job, _) = client.submit(&m, 1).unwrap();
        bytes_first = client.fetch_blob(job).unwrap();
        svc.shutdown();
    }
    // A brand-new daemon process over the same cache directory answers
    // from disk without executing anything.
    let svc = LocalService::spawn(
        repro_bin(),
        &["--threads", "1", "--cache-dir", dir.to_str().unwrap()],
    )
    .expect("daemon respawns");
    let mut client = svc.client();
    let (job, d) = client.submit(&m, 1).unwrap();
    assert_eq!(d, Disposition::HitDisk);
    assert_eq!(client.fetch_blob(job).unwrap(), bytes_first);
    let s = client.stats().unwrap();
    assert_eq!((s.executed, s.hits_disk), (0, 1));
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn task_errors_propagate_losslessly_and_are_never_cached() {
    // Failing on purpose: keep the post-mortems out of the shared
    // flight-record directory.
    std::env::set_var("REPRO_FLIGHT_DIR", "off");
    let svc = LocalService::spawn(repro_bin(), &["--threads", "1", "--no-disk-cache"])
        .expect("daemon spawns");
    let job = FailJob {
        fail_point: 1,
        fail_rep: 1,
    };
    let segments = (0..3)
        .map(|point| sim_core::Segment {
            point,
            base_rep: 0,
            count: 3,
        })
        .collect();
    let m = TaskManifest::for_job(&job, segments, &|_, _| 0);
    let mut client = svc.client();
    let (id, _) = client.submit(&m, 1).unwrap();
    match client.fetch_blob(id) {
        Err(ServiceError::Exec(ExecError::Task {
            flat_index,
            point,
            replication,
            ..
        })) => assert_eq!((flat_index, point, replication), (4, 1, 1)),
        other => panic!("expected the boundary task error, got {other:?}"),
    }
    assert_eq!(client.status(id).unwrap(), JobState::Failed);
    // And through the backend seam the error is indistinguishable from a
    // local one.
    let err = svc
        .exec(1)
        .runner()
        .run_job(&job, &[3, 3, 3], &|_, _| 0)
        .unwrap_err();
    match err {
        ExecError::Task {
            flat_index,
            point,
            replication,
            ..
        } => assert_eq!((flat_index, point, replication), (4, 1, 1)),
        other => panic!("unexpected {other:?}"),
    }
    // Failures are not cached: resubmission queues fresh work.
    let (_id3, d) = client.submit(&m, 1).unwrap();
    assert_eq!(d, Disposition::Queued);
    svc.shutdown();
}

#[test]
fn status_cancel_and_queue_bound_verbs() {
    let svc = LocalService::spawn(
        repro_bin(),
        &[
            "--threads",
            "1",
            "--dispatchers",
            "1",
            "--queue-capacity",
            "1",
            "--no-disk-cache",
        ],
    )
    .expect("daemon spawns");
    let mut client = svc.client();
    // A long blocker occupies the single dispatcher...
    let blocker = mm1_manifest(150_000.0, 1, 0xB10C2);
    let (blocker_id, _) = client.submit(&blocker, 1).unwrap();
    // ...give the dispatcher a moment to claim it, freeing the queue slot.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        match client.status(blocker_id).unwrap() {
            JobState::Running | JobState::Done => break,
            _ if std::time::Instant::now() > deadline => panic!("blocker never claimed"),
            _ => std::thread::sleep(std::time::Duration::from_millis(20)),
        }
    }
    // One job fits the queue; a second distinct one is rejected loudly.
    let (queued_id, d) = client.submit(&mm1_manifest(60.0, 1, 1), 1).unwrap();
    assert_eq!(d, Disposition::Queued);
    assert_eq!(client.status(queued_id).unwrap(), JobState::Queued);
    match client.submit(&mm1_manifest(60.0, 1, 2), 1) {
        Err(ServiceError::Protocol(msg)) => assert!(msg.contains("queue full"), "{msg}"),
        other => panic!("expected queue-full rejection, got {other:?}"),
    }
    // Cancel the queued job; fetching it reports the cancellation.
    client.cancel(queued_id).unwrap();
    assert_eq!(client.status(queued_id).unwrap(), JobState::Cancelled);
    match client.fetch_blob(queued_id) {
        Err(ServiceError::Exec(e)) => assert!(e.to_string().contains("cancelled"), "{e}"),
        other => panic!("expected cancellation error, got {other:?}"),
    }
    // Cancelling the running blocker is refused with its state.
    match client.cancel(blocker_id) {
        Err(ServiceError::Protocol(msg)) => assert!(msg.contains("running"), "{msg}"),
        other => panic!("expected running-state refusal, got {other:?}"),
    }
    let s = client.stats().unwrap();
    assert_eq!((s.rejected, s.cancelled), (1, 1));
    svc.shutdown();
}
