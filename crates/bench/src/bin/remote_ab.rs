//! Paired A/B of the worker backend's two connectors — pipes to worker
//! subprocesses and TCP to a real loopback `LocalCluster` — against
//! in-process execution, on the `repro fig14 --quick` workload (24-point
//! closed node sweep, 200 s horizon, one deterministic replication per
//! point).
//!
//! Four measurements:
//!
//! 1. **Byte identity** (asserted before any timing): the gather over 1, 2
//!    and 4 pipe workers and over 1, 2 and 4 TCP peers must reproduce the
//!    in-process slot bytes exactly.
//! 2. **Wall clock + per-task overhead** (paired adjacent blocks, rotating
//!    order, medians — robust on noisy shared hosts): the whole manifest
//!    in-process, over 2 pipe workers and over 2 TCP peers, with warm
//!    links. The binary asserts the per-task overhead of each connector
//!    against the in-process wall clock: under [`PIPE_BUDGET`] for pipes,
//!    under [`TCP_BUDGET`] for TCP.
//! 3. **Link round trips** in isolation, with the pool off: a 1-slot
//!    trivial manifest that spawns a worker, dispatches, and shuts it down
//!    (pipes), or connects to a running peer and dispatches (TCP).
//! 4. **Modeled multi-host makespan**: per-task costs measured serially,
//!    replayed through the contiguous chunk split + greedy claim order per
//!    host, plus the measured TCP round trip per host — at hypothetical
//!    host counts.
//!
//! Prints the results as JSON; `--out FILE` also writes them to FILE (the
//! committed `BENCH_remote.json`) once both bounds hold.
//!
//! ```text
//! cargo run --release -p bench --bin remote_ab [--pairs K] [--out FILE]
//! ```

use bench::ab::{host, median};
use bench::remote::LocalCluster;
use des::Workload;
use sim_runtime::{Exec, PortableJob};
use std::time::Instant;
use wsn::experiments::jobs::NodeSweepJob;
use wsn::sweep::FIG14_15_PDT_GRID;

const HORIZON: f64 = 200.0; // fig14 --quick
const SEED: u64 = 0xF14;

/// Maximum tolerated per-task pipe overhead, as a fraction of the
/// in-process wall clock of the whole sweep ("a few percent").
const PIPE_BUDGET: f64 = 0.04;

/// Maximum tolerated per-task TCP overhead, as a fraction of the
/// in-process wall clock. Looser than the pipe bound: TCP adds socket
/// hops, but must still be "a few percent" on loopback.
const TCP_BUDGET: f64 = 0.06;

fn job() -> NodeSweepJob {
    NodeSweepJob {
        workload: Workload::Closed { interval: 1.0 },
        horizon: HORIZON,
        grid: FIG14_15_PDT_GRID.to_vec(),
    }
}

fn seed_of(_p: usize, r: u64) -> u64 {
    petri_core::rng::SimRng::child_seed(SEED, r)
}

fn run(exec: &Exec) -> Vec<Vec<Vec<u8>>> {
    let reps = vec![1u64; FIG14_15_PDT_GRID.len()];
    exec.runner()
        .run_job(&job(), &reps, &seed_of)
        .expect("fig14 sweep runs")
}

/// Median wall time (ms) of a 1-slot trivial manifest on `exec`.
fn round_trip_ms(exec: &Exec, samples: usize) -> f64 {
    let mut ms: Vec<f64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let out = exec.runner().run_job(
                &bench::shard::FailJob {
                    fail_point: 99,
                    fail_rep: 0,
                },
                &[1],
                &|_, _| 0,
            );
            std::hint::black_box(out.expect("trivial manifest runs"));
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&mut ms)
}

fn main() {
    let mut pairs = 9usize;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--pairs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => pairs = n,
                _ => {
                    eprintln!("--pairs needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--out" => match it.next() {
                Some(path) => out = Some(path.clone()),
                None => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            other => {
                eprintln!("unknown arg: {other}");
                eprintln!("usage: remote_ab [--pairs K] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let tasks = FIG14_15_PDT_GRID.len();
    let bin = bench::remote::sibling_repro_bin();
    let cluster = LocalCluster::spawn(&bin, 4).expect("local cluster spawns");
    let in_process = Exec::in_process(1);
    let pipes = |shards: usize| {
        Exec::sharded(1, shards).with_worker_cmd(vec![bin.clone(), "--worker".into()])
    };

    // Correctness first: byte-identical gathers at every link count.
    let baseline = run(&in_process);
    for links in [1usize, 2, 4] {
        assert_eq!(
            baseline,
            run(&pipes(links)),
            "sharded({links}) diverged from in-process bytes"
        );
        assert_eq!(
            baseline,
            run(&cluster.exec(1, links)),
            "remote({links}) diverged from in-process bytes"
        );
    }
    eprintln!("byte-identity: in-process == sharded(1|2|4) == remote(1|2|4) on {tasks} slots");

    // Paired wall clock: in-process vs 2 pipe workers vs 2 TCP peers,
    // rotating order so drift hits each arm equally.
    let timed = |exec: &Exec| {
        let t0 = Instant::now();
        std::hint::black_box(run(exec));
        t0.elapsed().as_secs_f64() * 1e3
    };
    let arms = [in_process.clone(), pipes(2), cluster.exec(1, 2)];
    let mut ms: [Vec<f64>; 3] = Default::default();
    for p in 0..pairs {
        for k in 0..3 {
            let arm = (p + k) % 3;
            ms[arm].push(timed(&arms[arm]));
        }
    }
    let [wall_in, wall_pipe, wall_tcp] = ms.map(|mut v| median(&mut v));
    let per_task_pipe_ms = (wall_pipe - wall_in) / tasks as f64;
    let per_task_tcp_ms = (wall_tcp - wall_in) / tasks as f64;

    // Link round trips in isolation, each opening a fresh link.
    let samples = pairs.max(5);
    let spawn_ms = round_trip_ms(&pipes(1).with_pool(false), samples);
    let connect_ms = round_trip_ms(&cluster.exec(1, 1).with_pool(false), samples);

    // Modeled multi-host makespan over serially measured per-task costs:
    // contiguous chunks per host, greedy claim order inside each host's
    // 8-worker pool, plus the measured TCP round trip per host.
    let j = job();
    let costs: Vec<f64> = (0..tasks)
        .map(|p| {
            let t0 = Instant::now();
            std::hint::black_box(j.run_slot(p, 0, seed_of(p, 0)).expect("slot runs"));
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let makespan = |hosts: usize, workers: usize| -> f64 {
        let mut start = 0usize;
        let mut worst = 0.0f64;
        for h in 0..hosts.min(tasks) {
            let size = tasks / hosts + usize::from(h < tasks % hosts);
            let mut free_at = vec![0.0f64; workers];
            for &c in &costs[start..start + size] {
                let w = (0..workers)
                    .min_by(|&a, &b| free_at[a].total_cmp(&free_at[b]))
                    .expect("worker");
                free_at[w] += c;
            }
            start += size;
            let span = connect_ms / 1e3 + free_at.iter().fold(0.0f64, |m, &t| m.max(t));
            worst = worst.max(span);
        }
        worst
    };
    let single = makespan(1, 8);
    let modeled: Vec<String> = [1usize, 2, 4, 8]
        .iter()
        .map(|&hosts| {
            let m = makespan(hosts, 8);
            format!(
                "{{\"hosts\": {hosts}, \"workers_per_host\": 8, \"makespan_ms\": {:.2}, \"speedup_vs_1_host\": {:.3}}}",
                m * 1e3,
                single / m
            )
        })
        .collect();

    let json = format!(
        r#"{{
  "what": "The worker backend (sim_runtime::WorkerBackend) over its two connectors, pipes to `repro --worker` subprocesses and TCP to `repro --worker --listen` loopback peers, against the in-process backend.",
  "command": "cargo run --release -p bench --bin remote_ab -- --pairs {pairs} --out BENCH_remote.json",
  "host": "{host}",
  "workload": "fig14 --quick: {tasks}-point closed node sweep, {HORIZON} s horizon, 1 replication/point",
  "byte_identity": "in-process == sharded(1|2|4 pipe workers) == remote(1|2|4 loopback TCP peers), asserted on raw slot bytes before timing",
  "wall_clock": {{
    "pairs": {pairs},
    "in_process_ms": {wall_in:.2},
    "sharded_2_pipes_ms": {wall_pipe:.2},
    "remote_2_tcp_ms": {wall_tcp:.2},
    "per_task_pipe_overhead_ms": {per_task_pipe_ms:.4},
    "per_task_pipe_overhead_vs_wall": {:.4},
    "per_task_tcp_overhead_ms": {per_task_tcp_ms:.4},
    "per_task_tcp_overhead_vs_wall": {:.4},
    "bounds": "per-task overhead <= {:.0}% (pipes) and <= {:.0}% (TCP) of the in-process wall, asserted on every run",
    "estimator": "median of {pairs} rotating-order rounds of the three arms, warm links (pool on)",
    "note": "the in-process arm runs 1 thread and each link arm runs 2 single-threaded workers, so on a host with 2 or more CPUs the link arms also run in parallel and the overhead can come out negative"
  }},
  "round_trips": {{
    "spawn_dispatch_shutdown_ms": {spawn_ms:.2},
    "connect_dispatch_ms": {connect_ms:.2},
    "note": "median of {samples} 1-slot trivial manifests with the pool off: pipes spawn a worker, dispatch, send the shutdown frame and reap it; TCP connects to an already running peer and dispatches"
  }},
  "modeled_multi_host_makespan": [{}],
  "note": "modeled makespan replays serially measured per-task costs through the contiguous-chunk split + greedy claim order, plus the measured TCP round trip per host"
}}
"#,
        per_task_pipe_ms / wall_in,
        per_task_tcp_ms / wall_in,
        PIPE_BUDGET * 100.0,
        TCP_BUDGET * 100.0,
        modeled.join(", "),
        host = host(),
    );
    print!("{json}");
    cluster.shutdown();

    // The acceptance bounds: per-task overhead of each connector under a
    // few percent of the whole sweep's in-process wall clock. (Either can
    // come out slightly *cheaper* than in-process run-to-run; only the
    // upper bounds are asserted.)
    for (tier, per_task, budget) in [
        ("pipe", per_task_pipe_ms, PIPE_BUDGET),
        ("TCP", per_task_tcp_ms, TCP_BUDGET),
    ] {
        assert!(
            per_task <= budget * wall_in,
            "per-task {tier} overhead {per_task:.3} ms exceeds {:.0}% of the {wall_in:.1} ms in-process sweep",
            budget * 100.0
        );
        eprintln!(
            "per-task {tier} overhead {per_task:.3} ms <= {:.0}% of {wall_in:.1} ms: ok",
            budget * 100.0
        );
    }
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
