//! Observability acceptance suite: the instrumentation layer (histograms
//! and spans behind one `REPRO_TELEMETRY` switch) must be **observably
//! inert** (artifacts byte-identical with recording on or off), the
//! gateway's scrape-time series must render one cache accounting even
//! with recording off, progress streaming must survive chaos without
//! ever lying (monotone counts ending at `done == total`, bytes
//! unchanged), the HTTP gateway must round-trip the whole job lifecycle —
//! submit through result bytes and the Chrome-trace export — against a
//! real `repro serve --http` process, and a failing job must leave a
//! flight-recorder post-mortem behind without altering its error.
//!
//! The daemons are real processes on ephemeral loopback ports
//! (`bench::remote::LocalService`), because the telemetry switch is
//! latched per process: flipping `REPRO_TELEMETRY` is only honest across
//! a process boundary. The chaos progress test serves from the test
//! process instead, since chaos is armed through the API only.

mod common;

use bench::remote::LocalService;
use bench::shard::Mm1ReplicationJob;
use common::InProcessDaemon;
use des::Workload;
use sim_runtime::service::cache::decode_blob;
use sim_runtime::{ChaosConfig, Exec, FaultPolicy, JobProgress};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;
use wsn::experiments::jobs::NodeSweepJob;

fn repro_bin() -> &'static str {
    env!("CARGO_BIN_EXE_repro")
}

/// Telemetry environment for a daemon: `Some(value)` pins
/// `REPRO_TELEMETRY`, `None` leaves the default (enabled).
fn telemetry_env(value: &str) -> Vec<(String, String)> {
    vec![("REPRO_TELEMETRY".to_string(), value.to_string())]
}

/// One minimal HTTP/1.1 request over a plain socket (no client library —
/// the gateway's contract is exactly this hand-rolled simplicity).
/// Returns `(status, body)`.
fn http(addr: &str, method: &str, target: &str) -> (u16, Vec<u8>) {
    let mut stream = TcpStream::connect(addr).expect("gateway accepts");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    write!(
        stream,
        "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .expect("request writes");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("response reads");
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a header/body split");
    let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status line");
    (status, raw[head_end + 4..].to_vec())
}

/// The flat slot list a manifest run should produce, computed directly
/// in-process with the same seeds (the byte-identity baseline).
fn mm1_baseline(horizon: f64, warmup: f64, reps: u64, seed: u64) -> Vec<Vec<u8>> {
    let job = Mm1ReplicationJob {
        horizon,
        warmup,
        mu_grid: vec![2.0, 5.0, 10.0],
    };
    let per_point = vec![reps; 3];
    Exec::in_process(1)
        .runner()
        .run_job(&job, &per_point, &|p, r| {
            petri_core::rng::SimRng::child_seed(seed, ((p as u64) << 32) | r)
        })
        .expect("baseline runs")
        .into_iter()
        .flatten()
        .collect()
}

/// Tentpole invariant: instrumentation never touches results. The same
/// manifests produce byte-identical blobs from a daemon with recording
/// enabled and one with `REPRO_TELEMETRY=off` — for the replication
/// driver and the node-sweep driver — and both match direct in-process
/// execution.
#[test]
fn artifacts_byte_identical_with_telemetry_on_and_off() {
    let on = LocalService::spawn_with_env(
        repro_bin(),
        &["--threads", "1", "--no-disk-cache"],
        &telemetry_env("on"),
    )
    .expect("telemetry-on daemon spawns");
    let off = LocalService::spawn_with_env(
        repro_bin(),
        &["--threads", "1", "--no-disk-cache"],
        &telemetry_env("off"),
    )
    .expect("telemetry-off daemon spawns");

    // Replication driver: one manifest through each daemon's client path.
    let manifest = Mm1ReplicationJob::manifest(150.0, 15.0, 2, 0x0B5);
    let fetch = |svc: &LocalService| {
        let mut client = svc.client();
        let (job, _) = client.submit(&manifest, 1).expect("submit");
        client.fetch_blob(job).expect("fetch")
    };
    let blob_on = fetch(&on);
    let blob_off = fetch(&off);
    assert_eq!(blob_on, blob_off, "telemetry on/off blobs diverged");
    assert_eq!(
        decode_blob(&blob_on).expect("blob decodes"),
        mm1_baseline(150.0, 15.0, 2, 0x0B5),
        "served blob diverged from direct in-process execution"
    );

    // Node-sweep driver: the dispatcher/grid path through each daemon.
    let sweep = NodeSweepJob {
        workload: Workload::Closed { interval: 1.0 },
        horizon: 100.0,
        grid: vec![0.1, 0.3, 1.0],
    };
    let reps = vec![1u64; 3];
    let seed_of = |_p: usize, r: u64| 0x0B6 ^ r;
    let run = |exec: Exec| {
        exec.runner()
            .run_job(&sweep, &reps, &seed_of)
            .expect("sweep runs")
    };
    let sweep_base = run(Exec::in_process(1));
    assert_eq!(
        sweep_base,
        run(on.exec(1)),
        "telemetry-on sweep diverged from in-process bytes"
    );
    assert_eq!(
        sweep_base,
        run(off.exec(1)),
        "telemetry-off sweep diverged from in-process bytes"
    );

    on.shutdown();
    off.shutdown();
}

/// The span side of the one switch: `REPRO_TELEMETRY=off` also silences
/// the tracer. Only the enabled daemon returns a job trace with events,
/// and the blobs stay byte-identical to each other and to direct
/// in-process execution.
#[test]
fn artifacts_byte_identical_with_trace_on_and_off() {
    let on = LocalService::spawn_with_env(
        repro_bin(),
        &["--threads", "1", "--no-disk-cache"],
        &telemetry_env("on"),
    )
    .expect("tracing-on daemon spawns");
    let off = LocalService::spawn_with_env(
        repro_bin(),
        &["--threads", "1", "--no-disk-cache"],
        &telemetry_env("off"),
    )
    .expect("tracing-off daemon spawns");
    let manifest = Mm1ReplicationJob::manifest(150.0, 15.0, 2, 0x7ACE);
    let fetch = |svc: &LocalService| {
        let mut client = svc.client();
        let (job, _) = client.submit(&manifest, 1).expect("submit");
        let blob = client.fetch_blob(job).expect("fetch");
        (blob, client.trace(job).expect("trace verb"))
    };
    let (blob_on, trace_on) = fetch(&on);
    let (blob_off, trace_off) = fetch(&off);
    assert_eq!(blob_on, blob_off, "trace on/off blobs diverged");
    assert_eq!(
        decode_blob(&blob_on).expect("blob decodes"),
        mm1_baseline(150.0, 15.0, 2, 0x7ACE),
        "served blob diverged from direct in-process execution"
    );
    assert!(
        trace_on.contains("\"name\":\"slot\""),
        "recording on: the job's trace carries its spans: {trace_on}"
    );
    assert!(
        trace_off.contains("\"spans\":0}") && !trace_off.contains("\"ph\":"),
        "recording off: the trace is empty: {trace_off}"
    );
    on.shutdown();
    off.shutdown();
}

/// Progress streaming under chaos: a daemon whose worker links drop frames
/// (armed through its `ServiceConfig.exec`) still delivers a monotone
/// progress sequence ending at `done == total`, and the result bytes are
/// unchanged. Lost `P` frames are cosmetic — they may thin the sequence,
/// never corrupt it.
#[test]
fn chaos_armed_fetch_streams_monotone_progress() {
    let fault = FaultPolicy::default()
        .with_retry_budget(12)
        .with_io_timeout(Some(Duration::from_secs(10)))
        .with_fallback(true);
    let svc = InProcessDaemon::start(
        Exec::sharded(1, 1)
            .with_worker_cmd(vec![repro_bin().to_string(), "--worker".to_string()])
            .with_fault(fault)
            .with_chaos(Some(ChaosConfig::seeded(13).with_drop(40))),
    );
    let manifest = Mm1ReplicationJob::manifest(400.0, 40.0, 3, 0xC4A05);
    let mut client = svc.client();
    let (job, _) = client.submit(&manifest, 1).expect("submit");
    let mut seen: Vec<JobProgress> = Vec::new();
    let blob = client
        .fetch_blob_with_progress(job, &mut |p| seen.push(p))
        .expect("fetch with progress");
    assert!(
        !seen.is_empty(),
        "an executed job must deliver at least the final progress frame"
    );
    for pair in seen.windows(2) {
        assert!(
            pair[1].done >= pair[0].done,
            "progress went backwards: {} then {}",
            pair[0].done,
            pair[1].done
        );
    }
    let last = seen.last().unwrap();
    assert_eq!(last.total, 9, "3 points x 3 replications");
    assert_eq!(
        last.done, last.total,
        "the final progress frame must report completion"
    );
    assert_eq!(
        decode_blob(&blob).expect("blob decodes"),
        mm1_baseline(400.0, 40.0, 3, 0xC4A05),
        "chaos-armed served bytes diverged"
    );
    svc.shutdown();
}

/// HTTP gateway round-trip against a real `repro serve --http` process:
/// health, spec-parsed submission, status JSON, result bytes identical to
/// the binary protocol's, Prometheus metrics carrying every tier's
/// series, and a clean 404.
#[test]
fn gateway_round_trips_submit_status_result_and_metrics() {
    let svc =
        LocalService::spawn_with_http(repro_bin(), &["--threads", "1", "--no-disk-cache"], &[])
            .expect("gateway daemon spawns");
    let gw = svc.http_addr().expect("gateway address announced");

    let (status, body) = http(gw, "GET", "/healthz");
    assert_eq!((status, body.as_slice()), (200, b"ok\n".as_slice()));

    // Submit through the gateway's query-param spec parser.
    let (status, body) = http(gw, "POST", "/submit?spec=mm1&reps=2&seed=99");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).expect("submit response is JSON text");
    assert!(body.contains("\"job\":"), "submit response: {body}");
    let id: u64 = body
        .split("\"job\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("job id in submit response");

    // Status JSON for the job.
    let (status, body) = http(gw, "GET", &format!("/jobs/{id}"));
    assert_eq!(status, 200);
    let body = String::from_utf8(body).expect("status JSON");
    assert!(
        body.contains("\"state\":") && body.contains("\"progress\":"),
        "status response: {body}"
    );

    // Result bytes from the gateway == result bytes from the binary
    // protocol for the same canonical manifest (same cache key).
    let (status, gw_blob) = http(gw, "GET", &format!("/jobs/{id}/result"));
    assert_eq!(status, 200);
    let mut client = svc.client();
    let (direct, _) = client
        .submit(&Mm1ReplicationJob::manifest(200.0, 20.0, 2, 99), 1)
        .expect("binary submit");
    let direct_blob = client.fetch_blob(direct).expect("binary fetch");
    assert_eq!(
        gw_blob, direct_blob,
        "gateway result bytes diverged from the binary protocol's"
    );

    // /stats is the shared JSON encoder; the submissions above are in it.
    let (status, body) = http(gw, "GET", "/stats");
    assert_eq!(status, 200);
    let stats = String::from_utf8(body).expect("stats JSON");
    assert!(stats.contains("\"submitted\":"), "stats: {stats}");

    // /metrics carries series from every instrumented tier.
    let (status, body) = http(gw, "GET", "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).expect("metrics text");
    for series in [
        "engine_runs_total",
        "engine_events_total",
        "grid_tasks_claimed_total",
        "service_verb_submit_ns_count",
        "service_queue_wait_ns_count",
        "service_submitted",
        "fleet_spawned",
    ] {
        assert!(metrics.contains(series), "missing {series} in:\n{metrics}");
    }

    let (status, _) = http(gw, "GET", "/no-such-route");
    assert_eq!(status, 404);
    let (status, _) = http(gw, "POST", "/submit?spec=bogus");
    assert_eq!(status, 400);

    svc.shutdown();
}

/// One cache accounting, pulled at scrape time: with recording off, a
/// miss, a disk hit and a memory hit show up in `/metrics` once per tier
/// as the same values `/stats` reports (no `service_cache_*` twins), next
/// to the fleet counters and the queue depth — and no histogram series.
#[test]
fn metrics_pull_one_cache_accounting_with_recording_off() {
    let cache = std::env::temp_dir().join(format!("repro-obs-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache);
    // One memory slot: a second distinct job evicts the first from
    // memory, so resubmitting the first is a disk hit, and resubmitting
    // it once more (promoted by that hit) is a memory hit.
    let svc = LocalService::spawn_with_http(
        repro_bin(),
        &[
            "--threads",
            "1",
            "--mem-cache",
            "1",
            "--cache-dir",
            cache.to_str().expect("utf-8 temp path"),
        ],
        &telemetry_env("off"),
    )
    .expect("recording-off gateway daemon spawns");
    let gw = svc.http_addr().expect("gateway address announced");
    let a = Mm1ReplicationJob::manifest(100.0, 10.0, 1, 0xCA1);
    let b = Mm1ReplicationJob::manifest(100.0, 10.0, 1, 0xCA2);
    let mut client = svc.client();
    let mut dispositions = Vec::new();
    for m in [&a, &b, &a, &a] {
        let (job, disposition) = client.submit(m, 1).expect("submit");
        client.fetch_blob(job).expect("fetch");
        dispositions.push(disposition);
    }
    use sim_runtime::Disposition::{HitDisk, HitMem, Queued};
    assert_eq!(dispositions, [Queued, Queued, HitDisk, HitMem]);

    let (status, body) = http(gw, "GET", "/stats");
    assert_eq!(status, 200);
    let stats = String::from_utf8(body).expect("stats JSON");
    let (status, body) = http(gw, "GET", "/metrics");
    assert_eq!(status, 200);
    let metrics = String::from_utf8(body).expect("metrics text");
    let series = |name: &str| -> Vec<u64> {
        metrics
            .lines()
            .filter_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
            .collect()
    };
    let stat = |field: &str| -> u64 {
        stats
            .split(&format!("\"{field}\":"))
            .nth(1)
            .and_then(|s| s.split([',', '}']).next())
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or_else(|| panic!("no {field} in {stats}"))
    };
    for (field, expect) in [("submitted", 4), ("hits_mem", 1), ("hits_disk", 1)] {
        assert_eq!(stat(field), expect, "/stats {field}: {stats}");
        assert_eq!(
            series(&format!("service_{field}")),
            [expect],
            "/metrics carries service_{field} once, equal to /stats:\n{metrics}"
        );
    }
    assert!(!metrics.contains("service_cache_hit"), "{metrics}");
    assert!(!metrics.contains("service_cache_miss"), "{metrics}");
    assert_eq!(series("service_queue_depth"), [0], "{metrics}");
    assert!(
        metrics.contains("# TYPE service_queue_depth gauge\n"),
        "{metrics}"
    );
    assert_eq!(series("fleet_spawned").len(), 1, "{metrics}");
    assert!(
        !metrics.contains(" histogram\n") && !metrics.contains("_bucket{"),
        "recording off renders no histogram series:\n{metrics}"
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&cache);
}

/// `GET /jobs/<id>/trace` returns Chrome trace-event JSON for a job the
/// daemon actually served, carrying the service-tier spans (queue-wait,
/// dispatch), the grid's slot spans, and the engine-run spans the job
/// implementation records.
#[test]
fn gateway_serves_chrome_trace_with_expected_spans() {
    let svc =
        LocalService::spawn_with_http(repro_bin(), &["--threads", "1", "--no-disk-cache"], &[])
            .expect("gateway daemon spawns");
    let gw = svc.http_addr().expect("gateway address announced");

    let (status, body) = http(gw, "POST", "/submit?spec=mm1&reps=2&seed=1234");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    let body = String::from_utf8(body).expect("submit response is JSON text");
    let id: u64 = body
        .split("\"job\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.trim().parse().ok())
        .expect("job id in submit response");

    // Block until the job is done, then pull its trace.
    let (status, _) = http(gw, "GET", &format!("/jobs/{id}/result"));
    assert_eq!(status, 200);
    let (status, body) = http(gw, "GET", &format!("/jobs/{id}/trace"));
    assert_eq!(status, 200);
    let trace = String::from_utf8(body).expect("trace JSON is text");
    assert!(trace.contains("\"traceEvents\":["), "trace: {trace}");
    for span in ["queue-wait", "dispatch", "slot", "engine-run"] {
        assert!(
            trace.contains(&format!("\"name\":\"{span}\"")),
            "missing {span} span in:\n{trace}"
        );
    }

    // Unknown jobs 404 rather than serving an empty trace.
    let (status, _) = http(gw, "GET", "/jobs/424242/trace");
    assert_eq!(status, 404);
    svc.shutdown();
}

/// A failing job leaves a flight-recorder post-mortem (error + recent
/// spans as Chrome-trace JSON) in `REPRO_FLIGHT_DIR` — and the error the
/// waiter sees is byte-for-byte the executor's, untouched by the dump.
#[test]
fn failing_job_leaves_a_flight_record() {
    let dir = std::env::temp_dir().join(format!("repro-flight-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let svc = LocalService::spawn_with_env(
        repro_bin(),
        &["--threads", "1", "--no-disk-cache"],
        &[(
            "REPRO_FLIGHT_DIR".to_string(),
            dir.to_str().expect("utf-8 temp path").to_string(),
        )],
    )
    .expect("daemon spawns");

    let job = bench::shard::FailJob {
        fail_point: 0,
        fail_rep: 1,
    };
    let segments = vec![sim_core::Segment {
        point: 0,
        base_rep: 0,
        count: 3,
    }];
    let manifest = sim_core::TaskManifest::for_job(&job, segments, &|p, r| ((p as u64) << 32) | r);
    let mut client = svc.client();
    let (id, _) = client.submit(&manifest, 1).expect("submit");
    let err = client.fetch_blob(id).expect_err("job must fail");
    assert!(
        err.to_string().contains("selftest failure at (0, 1)"),
        "executor error must reach the waiter unchanged: {err}"
    );

    let dumps: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir exists after a failure")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .collect();
    assert_eq!(dumps.len(), 1, "exactly one post-mortem: {dumps:?}");
    let body = std::fs::read_to_string(&dumps[0]).expect("dump reads");
    assert!(
        body.contains("selftest failure at (0, 1)") && body.contains("\"traceEvents\":["),
        "dump must carry the error and the span trace: {body}"
    );
    svc.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repro watch` against a live daemon: progress lines stream to stdout
/// (monotone, ending at completion) followed by the result summary.
#[test]
fn watch_verb_streams_progress_lines() {
    let svc = LocalService::spawn(repro_bin(), &["--threads", "1", "--no-disk-cache"])
        .expect("daemon spawns");
    let submit = Command::new(repro_bin())
        .args([
            "submit",
            "--service",
            svc.addr(),
            "mm1",
            "--reps",
            "2",
            "--seed",
            "41",
        ])
        .output()
        .expect("submit runs");
    assert!(submit.status.success());
    // "submitted job 1 (queued)"
    let out = String::from_utf8_lossy(&submit.stdout).into_owned();
    let id: u64 = out
        .split_whitespace()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no job id in {out:?}"));

    let watch = Command::new(repro_bin())
        .args(["watch", "--service", svc.addr(), &id.to_string()])
        .output()
        .expect("watch runs");
    assert!(watch.status.success());
    let out = String::from_utf8_lossy(&watch.stdout).into_owned();
    let lines: Vec<&str> = out.lines().collect();
    assert!(
        lines.last().is_some_and(|l| l.starts_with("done: ")),
        "watch must end with the result summary: {out:?}"
    );
    let progress: Vec<(u64, u64)> = lines
        .iter()
        .filter_map(|l| {
            let rest = l.strip_prefix("progress ")?;
            let (frac, _) = rest.split_once(' ')?;
            let (done, total) = frac.split_once('/')?;
            Some((done.parse().ok()?, total.parse().ok()?))
        })
        .collect();
    assert!(
        !progress.is_empty(),
        "an executed job always yields at least the final progress line: {out:?}"
    );
    assert!(
        progress.windows(2).all(|w| w[1].0 >= w[0].0),
        "progress lines must be monotone: {out:?}"
    );
    let (done, total) = *progress.last().unwrap();
    assert_eq!((done, total), (6, 6), "3 points x 2 replications");
    svc.shutdown();
}
