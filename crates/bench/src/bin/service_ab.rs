//! Paired A/B of the experiment service daemon on the `repro fig14
//! --quick` workload (24-point closed node sweep, 200 s horizon, one
//! deterministic replication per point), against a real `repro serve`
//! process on loopback.
//!
//! Six measurements:
//!
//! 1. **Byte identity** (asserted before any timing): the served gather —
//!    fresh *and* cache-hit — must reproduce the in-process slot bytes
//!    exactly.
//! 2. **Cache-hit speedup**: cold submit+fetch (a genuine miss — the
//!    daemon simulates the whole sweep) vs warm submit+fetch of the same
//!    manifest (answered from the content-addressed cache). Distinct seeds
//!    per pair keep every cold run a real miss; medians over `--pairs`
//!    pairs. The binary asserts the warm path is at least
//!    [`MIN_HIT_SPEEDUP`]× faster — the service's reason to exist.
//! 3. **Submission throughput**: trivial 1-slot jobs (distinct seeds, so
//!    every one is a miss) submitted + fetched sequentially over one
//!    connection, and pipelined (all submits first, then all fetches) —
//!    the queue/protocol overhead floor in jobs/second.
//! 4. **Warm vs cold fleet**: the same sustained small-job flood against
//!    a `--shards 1` daemon with the worker pool off (every dispatch
//!    spawns a fresh worker subprocess) and on (workers stay warm across
//!    dispatches). Per-job p50/p99 latencies; the binary asserts the warm
//!    fleet beats per-job spawning at the median — the pool's reason to
//!    exist.
//! 5. **Latency vs offered load**: paced submissions against the warm
//!    fleet at 0.25×/0.5×/1×/2× of the closed-loop capacity estimated
//!    from the warm p50, with per-job sojourn anchored to the wall-clock
//!    *schedule* (not the possibly-late actual submission), so queueing
//!    delay accumulates in the measure once the offered rate crosses
//!    capacity instead of being absorbed by coordinated omission.
//! 6. **Instrumentation overhead**: paired daemons with
//!    `REPRO_TELEMETRY` on vs off — the one switch over histograms and
//!    spans — running the same cold sweep (interleaved, alternating
//!    order), byte identity asserted, then the median-of-pairs on/off
//!    time ratio. Instrumentation's whole point is to be observably
//!    inert: the binary asserts the overhead stays under
//!    [`MAX_TELEMETRY_PCT`].
//!
//! Fleet counters are process-global and monotone; every per-phase fleet
//! number below is a [`FleetSnapshot::delta_since`] against the phase
//! baseline (and each daemon's `stats` verb is baseline-relative to its
//! own construction), so phases report their own activity rather than
//! the accumulated total.
//!
//! Prints the results as JSON; `--out FILE` also writes them to FILE (the
//! committed `BENCH_service.json`) once every bound holds.
//!
//! ```text
//! cargo run --release -p bench --bin service_ab [--pairs K] [--out FILE]
//! ```

use bench::remote::LocalService;
use bench::shard::FailJob;
use des::Workload;
use sim_runtime::service::protocol::{ServiceRequest, ServiceResponse};
use sim_runtime::{Exec, TaskManifest};
use std::time::Instant;
use wsn::experiments::jobs::NodeSweepJob;
use wsn::sweep::FIG14_15_PDT_GRID;

const HORIZON: f64 = 200.0; // fig14 --quick
const SEED: u64 = 0xF14;

/// Minimum accepted cold/warm speedup: a cache hit skips the whole
/// simulation, so even with protocol overhead it must be far faster than
/// re-simulating the sweep.
const MIN_HIT_SPEEDUP: f64 = 2.0;

/// Maximum accepted recording-on vs recording-off overhead, in percent
/// of the cold submit+fetch time. Recording is a handful of relaxed
/// atomics per engine run / grid slot / protocol verb plus one ring push
/// per traced span, so it must vanish next to the simulation itself.
const MAX_TELEMETRY_PCT: f64 = 2.0;

fn job() -> NodeSweepJob {
    NodeSweepJob {
        workload: Workload::Closed { interval: 1.0 },
        horizon: HORIZON,
        grid: FIG14_15_PDT_GRID.to_vec(),
    }
}

fn seed_of(base: u64) -> impl Fn(usize, u64) -> u64 {
    move |_p, r| petri_core::rng::SimRng::child_seed(base, r)
}

fn run(exec: &Exec, base_seed: u64) -> Vec<Vec<Vec<u8>>> {
    let reps = vec![1u64; FIG14_15_PDT_GRID.len()];
    exec.runner()
        .run_job(&job(), &reps, &seed_of(base_seed))
        .expect("fig14 sweep runs")
}

/// The sibling `repro` binary (shared harness helper).
fn repro_bin() -> String {
    bench::remote::sibling_repro_bin()
}

fn median(v: &mut [f64]) -> f64 {
    v.sort_by(|x, y| x.total_cmp(y));
    v[v.len() / 2]
}

fn percentile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(|x, y| x.total_cmp(y));
    v[(((v.len() - 1) as f64) * q).round() as usize]
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
                eprintln!("usage: service_ab [--pairs K] [--out FILE]");
                std::process::exit(2);
            }
        }
    }
    let tasks = FIG14_15_PDT_GRID.len();
    // The pipelined phase bursts every submission before fetching any, so
    // the daemon's queue must hold the whole burst — size it explicitly
    // instead of relying on the default 256 staying ahead of --pairs.
    let n_jobs = (pairs * 10).max(30) as u64;
    let queue_capacity = (2 * n_jobs + 16).to_string();
    let cache_dir = std::env::temp_dir().join(format!("service-ab-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let daemon = LocalService::spawn(
        &repro_bin(),
        &[
            "--threads",
            "1",
            "--queue-capacity",
            &queue_capacity,
            "--cache-dir",
            cache_dir.to_str().unwrap(),
        ],
    )
    .expect("daemon spawns");
    let served = daemon.exec(1);
    let in_process = Exec::in_process(1);

    // Correctness first: byte identity fresh and from cache.
    let baseline = run(&in_process, SEED);
    assert_eq!(baseline, run(&served, SEED), "served sweep diverged");
    assert_eq!(
        baseline,
        run(&served, SEED),
        "cache-hit sweep diverged from in-process bytes"
    );
    eprintln!("byte-identity: in-process == served (miss) == served (hit) on {tasks} slots");

    // Cache-hit speedup: distinct seed per pair → cold is a genuine miss.
    // The client-side fleet counters (connection churn in *this* process)
    // are reported as a delta over the phase, not the process lifetime.
    let cache_fleet_base = sim_runtime::fleet_stats().snapshot();
    let timed = |base_seed: u64| {
        let t0 = Instant::now();
        std::hint::black_box(run(&served, base_seed));
        t0.elapsed().as_secs_f64() * 1e3
    };
    let mut cold_ms = Vec::new();
    let mut warm_ms = Vec::new();
    for p in 0..pairs {
        let base = SEED ^ (0x1000 + p as u64);
        cold_ms.push(timed(base));
        warm_ms.push(timed(base));
    }
    let cold = median(&mut cold_ms);
    let warm = median(&mut warm_ms);
    let speedup = cold / warm;
    let cache_fleet = sim_runtime::fleet_stats()
        .snapshot()
        .delta_since(&cache_fleet_base);

    // Submission throughput on trivial jobs (protocol + queue floor).
    // FailJob with an unreachable boundary is the cheapest success.
    let trivial = |i: u64| {
        TaskManifest::for_job(
            &FailJob {
                fail_point: 99,
                fail_rep: 0,
            },
            vec![sim_runtime::Segment {
                point: 0,
                base_rep: 0,
                count: 1,
            }],
            &|_, _| i,
        )
    };
    let mut client = daemon.client();
    let t0 = Instant::now();
    for i in 0..n_jobs {
        let (id, _) = client.submit(&trivial(i), 1).expect("submit");
        std::hint::black_box(client.fetch_blob(id).expect("fetch"));
    }
    let sequential_jobs_per_s = n_jobs as f64 / t0.elapsed().as_secs_f64();

    // Pipelined: burst all submits, then all fetches, on one connection.
    let t0 = Instant::now();
    for i in 0..n_jobs {
        client
            .send(&ServiceRequest::Submit {
                threads: 1,
                manifest: trivial(0x10_0000 + i),
            })
            .expect("pipelined submit");
    }
    let mut ids = Vec::with_capacity(n_jobs as usize);
    for _ in 0..n_jobs {
        match client.recv().expect("pipelined response") {
            ServiceResponse::Submitted { job, .. } => ids.push(job),
            other => panic!("unexpected {other:?}"),
        }
    }
    for id in ids {
        std::hint::black_box(client.fetch_blob(id).expect("pipelined fetch"));
    }
    let pipelined_jobs_per_s = n_jobs as f64 / t0.elapsed().as_secs_f64();
    drop(client);
    daemon.shutdown();

    // Warm vs cold fleet: the same flood of trivial distinct jobs through
    // a sharded daemon, with and without the worker pool. Caches are off
    // so every submission is a real dispatch (a worker spawn when cold, a
    // pool checkout when warm).
    let n_flood = (pairs * 8).max(30) as u64;
    let flood =
        |pool: &str, tag: u64| -> (Vec<f64>, sim_runtime::service::protocol::ServiceStats) {
            let daemon = LocalService::spawn(
                &repro_bin(),
                &[
                    "--threads",
                    "1",
                    "--shards",
                    "1",
                    "--pool",
                    pool,
                    "--mem-cache",
                    "0",
                    "--no-disk-cache",
                    "--queue-capacity",
                    &queue_capacity,
                ],
            )
            .expect("fleet daemon spawns");
            let mut client = daemon.client();
            let mut lat = Vec::with_capacity(n_flood as usize);
            for i in 0..n_flood {
                let t0 = Instant::now();
                let (id, _) = client.submit(&trivial(tag + i), 1).expect("flood submit");
                std::hint::black_box(client.fetch_blob(id).expect("flood fetch"));
                lat.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            // Per-phase daemon counters: each daemon's stats verb is already
            // relative to its own construction baseline, so a fresh daemon
            // per phase reports only this flood's activity.
            let stats = client.stats().expect("flood stats");
            drop(client);
            daemon.shutdown();
            (lat, stats)
        };
    let (mut cold_fleet, cold_stats) = flood("off", 0x20_0000);
    let (mut warm_fleet, warm_stats) = flood("on", 0x30_0000);
    let cold_p50 = percentile(&mut cold_fleet, 0.5);
    let cold_p99 = percentile(&mut cold_fleet, 0.99);
    let warm_p50 = percentile(&mut warm_fleet, 0.5);
    let warm_p99 = percentile(&mut warm_fleet, 0.99);

    // Latency vs offered load. Closed-loop warm p50 gives the capacity
    // estimate; the sweep offers fixed fractions/multiples of it,
    // open-loop: each submission is sent at its scheduled instant
    // regardless of how far behind the daemon is, so above capacity the
    // queue grows and per-job sojourn time (submit → result bytes in
    // hand) climbs instead of the offered rate silently throttling.
    let capacity_jobs_per_s = 1e3 / warm_p50;
    let n_rate = (pairs * 4).max(24) as u64;
    struct RatePoint {
        offered: f64,
        achieved: f64,
        p50_ms: f64,
        p99_ms: f64,
    }
    let mut rate_points: Vec<RatePoint> = Vec::new();
    for (k, frac) in [0.25, 0.5, 1.0, 2.0].into_iter().enumerate() {
        let offered = capacity_jobs_per_s * frac;
        let interval_s = 1.0 / offered;
        let daemon = LocalService::spawn(
            &repro_bin(),
            &[
                "--threads",
                "1",
                "--shards",
                "1",
                "--pool",
                "on",
                "--mem-cache",
                "0",
                "--no-disk-cache",
                "--queue-capacity",
                &queue_capacity,
            ],
        )
        .expect("rate-sweep daemon spawns");
        let mut client = daemon.client();
        let tag = 0x40_0000 + ((k as u64) << 16);
        // Warm the worker pool before timing: the first dispatches spawn
        // the workers, and that cold-start would land entirely on the
        // lowest-rate point's latency numbers.
        for i in 0..8 {
            let (id, _) = client
                .submit(&trivial(tag + 0x8000 + i), 1)
                .expect("warmup");
            std::hint::black_box(client.fetch_blob(id).expect("warmup fetch"));
        }
        // Paced submit+fetch, latency anchored to the *schedule*: job i is
        // due at `i * interval`, and its sojourn is result-bytes-in-hand
        // minus that instant. When the daemon keeps up, that is just its
        // service time; when the offered rate crosses capacity, every job
        // starts later than scheduled and the slip accumulates in the
        // measure instead of being absorbed by a slower submit loop
        // (coordinated omission). Sleeping (not spinning) to the deadline
        // matters on the 1-CPU container: a busy-wait would steal the
        // core from the daemon it is trying to load.
        let t_base = Instant::now();
        let mut lat_ms = Vec::with_capacity(n_rate as usize);
        let mut last_done = 0.0f64;
        for i in 0..n_rate {
            let due = interval_s * i as f64;
            let now = t_base.elapsed().as_secs_f64();
            if now < due {
                std::thread::sleep(std::time::Duration::from_secs_f64(due - now));
            }
            let (id, _) = client.submit(&trivial(tag + i), 1).expect("paced submit");
            std::hint::black_box(client.fetch_blob(id).expect("paced fetch"));
            last_done = t_base.elapsed().as_secs_f64();
            lat_ms.push((last_done - due) * 1e3);
        }
        drop(client);
        daemon.shutdown();
        rate_points.push(RatePoint {
            offered,
            achieved: n_rate as f64 / last_done,
            p50_ms: percentile(&mut lat_ms, 0.5),
            p99_ms: percentile(&mut lat_ms, 0.99),
        });
    }

    // Instrumentation overhead: paired daemons with recording (histograms
    // and spans) enabled vs disabled, caches off so every sweep is a
    // genuine cold simulation. Byte identity is asserted before any
    // timing — recording must be observably inert, not just cheap.
    let telemetry_daemon = |value: &str| {
        LocalService::spawn_with_env(
            &repro_bin(),
            &["--threads", "1", "--mem-cache", "0", "--no-disk-cache"],
            &[("REPRO_TELEMETRY".to_string(), value.to_string())],
        )
        .expect("telemetry daemon spawns")
    };
    let tele_on = telemetry_daemon("on");
    let tele_off = telemetry_daemon("off");
    let on_exec = tele_on.exec(1);
    let off_exec = tele_off.exec(1);
    assert_eq!(
        run(&on_exec, SEED ^ 0x7E7E),
        run(&off_exec, SEED ^ 0x7E7E),
        "telemetry on/off artifacts diverged"
    );
    eprintln!("telemetry on == telemetry off on raw slot bytes: ok");
    // One sweep per sample, arms back to back per pair with alternating
    // order, and the *median per-pair ratio* as the estimator: on a noisy
    // 1-CPU container the absolute sweep time swings far more than any
    // real telemetry cost, but adjacent-in-time pairs see the same
    // machine state, so their ratio isolates the on/off difference and
    // the median discards pairs a scheduler hiccup polluted.
    let timed_sweep = |exec: &Exec, tag: u64| {
        let t0 = Instant::now();
        std::hint::black_box(run(exec, tag));
        t0.elapsed().as_secs_f64() * 1e3
    };
    let sweeps = (pairs * 4).max(20) as u64;
    let mut on_ms = Vec::new();
    let mut off_ms = Vec::new();
    let mut ratios = Vec::new();
    for i in 0..sweeps {
        let tag = SEED ^ (0x5000 + i);
        let (on, off) = if i % 2 == 0 {
            let on = timed_sweep(&on_exec, tag);
            (on, timed_sweep(&off_exec, tag))
        } else {
            let off = timed_sweep(&off_exec, tag);
            (timed_sweep(&on_exec, tag), off)
        };
        on_ms.push(on);
        off_ms.push(off);
        ratios.push(on / off);
    }
    tele_on.shutdown();
    tele_off.shutdown();
    let on_med = median(&mut on_ms);
    let off_med = median(&mut off_ms);
    let telemetry_pct = (median(&mut ratios) - 1.0) * 100.0;

    // The JSON document: printed on stdout, and written to `--out FILE`
    // once every bound below holds.
    let mut json = String::new();
    macro_rules! emit {
        ($($arg:tt)*) => {{
            json.push_str(&format!($($arg)*));
            json.push('\n');
        }};
    }
    emit!("{{");
    emit!("  \"what\": \"The experiment service daemon (`repro serve`) on loopback: cache hits, submission throughput, the warm vs cold worker fleet through the worker backend, latency under offered load, and the instrumentation overhead (`REPRO_TELEMETRY` on vs off).\",");
    emit!("  \"command\": \"cargo run --release -p bench --bin service_ab -- --pairs {pairs} --out BENCH_service.json\",");
    emit!("  \"host\": \"{}\",", bench::ab::host());
    emit!(
        "  \"workload\": \"fig14 --quick: {tasks}-point closed node sweep, {HORIZON} s horizon, 1 replication/point\","
    );
    emit!("  \"byte_identity\": \"in-process == served fresh == served cache-hit, asserted on raw slot bytes before timing\",");
    emit!("  \"cache\": {{");
    emit!("    \"pairs\": {pairs},");
    emit!("    \"cold_submit_fetch_ms\": {cold:.2},");
    emit!("    \"warm_submit_fetch_ms\": {warm:.2},");
    emit!("    \"cache_hit_speedup\": {speedup:.1},");
    emit!(
        "    \"client_fleet_delta\": {{ \"reconnects\": {}, \"fallbacks\": {} }}",
        cache_fleet.reconnects,
        cache_fleet.fallbacks
    );
    emit!("  }},");
    emit!("  \"submission_throughput\": {{");
    emit!("    \"jobs\": {n_jobs},");
    emit!("    \"sequential_jobs_per_s\": {sequential_jobs_per_s:.0},");
    emit!("    \"pipelined_jobs_per_s\": {pipelined_jobs_per_s:.0}");
    emit!("  }},");
    emit!("  \"fleet\": {{");
    emit!("    \"flood_jobs\": {n_flood},");
    emit!("    \"cold_spawn_p50_ms\": {cold_p50:.2},");
    emit!("    \"cold_spawn_p99_ms\": {cold_p99:.2},");
    emit!("    \"warm_pool_p50_ms\": {warm_p50:.2},");
    emit!("    \"warm_pool_p99_ms\": {warm_p99:.2},");
    emit!("    \"warm_pool_p50_speedup\": {:.1},", cold_p50 / warm_p50);
    emit!(
        "    \"cold_phase_stats\": {{ \"executed\": {}, \"restarts\": {}, \"fallbacks\": {} }},",
        cold_stats.executed,
        cold_stats.restarts,
        cold_stats.fallbacks
    );
    emit!(
        "    \"warm_phase_stats\": {{ \"executed\": {}, \"restarts\": {}, \"fallbacks\": {} }}",
        warm_stats.executed,
        warm_stats.restarts,
        warm_stats.fallbacks
    );
    emit!("  }},");
    emit!("  \"rate_sweep\": {{");
    emit!("    \"jobs_per_rate\": {n_rate},");
    emit!("    \"capacity_estimate_jobs_per_s\": {capacity_jobs_per_s:.1},");
    emit!("    \"points\": [");
    for (i, p) in rate_points.iter().enumerate() {
        let comma = if i + 1 < rate_points.len() { "," } else { "" };
        emit!(
            "      {{ \"offered_jobs_per_s\": {:.1}, \"achieved_jobs_per_s\": {:.1}, \"p50_ms\": {:.2}, \"p99_ms\": {:.2} }}{comma}",
            p.offered, p.achieved, p.p50_ms, p.p99_ms
        );
    }
    emit!("    ]");
    emit!("  }},");
    emit!("  \"telemetry\": {{");
    emit!("    \"paired_sweeps\": {sweeps},");
    emit!("    \"on_p50_ms\": {on_med:.2},");
    emit!("    \"off_p50_ms\": {off_med:.2},");
    emit!("    \"overhead_pct\": {telemetry_pct:.2},");
    emit!("    \"estimator\": \"median per-pair on/off time ratio, arms adjacent in time with alternating order\",");
    emit!("    \"byte_identity\": \"telemetry on == telemetry off, asserted on raw slot bytes before timing\"");
    emit!("  }},");
    emit!(
        "  \"note\": \"cold = submit+fetch of a fresh manifest (daemon simulates the sweep); warm = identical resubmission answered from the content-addressed cache; throughput jobs are trivial 1-slot manifests, so the figure is the protocol+queue floor, not simulation speed; fleet = the same flood through a --shards 1 daemon with the worker pool off (fresh subprocess per dispatch) vs on (workers stay warm); rate_sweep = paced submissions against the warm fleet at fractions of the closed-loop capacity estimate, per-job sojourn anchored to the wall-clock schedule so slip past capacity accumulates as queueing delay; daemon, workers and client share the host's CPUs\""
    );
    emit!("}}");

    print!("{json}");

    assert!(
        speedup >= MIN_HIT_SPEEDUP,
        "cache-hit speedup {speedup:.1}x below the {MIN_HIT_SPEEDUP}x floor \
         (cold {cold:.1} ms vs warm {warm:.1} ms)"
    );
    eprintln!("cache-hit speedup {speedup:.1}x >= {MIN_HIT_SPEEDUP}x: ok");
    assert!(
        warm_p50 < cold_p50,
        "warm fleet p50 {warm_p50:.2} ms must beat per-job spawning p50 {cold_p50:.2} ms"
    );
    eprintln!("warm fleet p50 {warm_p50:.2} ms < cold spawn p50 {cold_p50:.2} ms: ok");
    assert!(
        telemetry_pct < MAX_TELEMETRY_PCT,
        "telemetry overhead {telemetry_pct:.2}% exceeds the {MAX_TELEMETRY_PCT}% ceiling \
         (on {on_med:.2} ms vs off {off_med:.2} ms)"
    );
    eprintln!("telemetry overhead {telemetry_pct:.2}% < {MAX_TELEMETRY_PCT}%: ok");
    let _ = std::fs::remove_dir_all(&cache_dir);
    if let Some(path) = &out {
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path}");
    }
}
