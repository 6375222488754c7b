//! The served request mix of the traced run: seeded sequences of real
//! experiment-job manifests sent to a `repro serve` daemon by [`CONNECTIONS`]
//! closed-loop clients.
//!
//! Each connection has its own sequence, generated from `(seed, conn)`.
//! One request in four is *fresh* (a manifest never sent before: the
//! daemon executes it and writes the cache), at seeded positions; the
//! others repeat one of the connection's own earlier manifests. A client
//! waits for each fetch before it sends the next request, so a repeat
//! always finds its result cached: repeats are cache hits and never
//! coalesce onto in-flight work. Fresh manifests cycle through the four
//! job kinds in a seeded order, so every seed asks for about the same
//! amount of work.
//!
//! Manifests are single adaptive rounds of the four portable experiment jobs
//! at `repro --quick` settings (horizons, grids, round sizes), so a miss
//! costs a few milliseconds and the protocol, transport, queue and cache
//! carry a large share of the wall.

use bench::remote::LocalService;
use sim_runtime::fleet::FleetRng;
use sim_runtime::service::cache::encode_blob;
use sim_runtime::{
    Disposition, ExecBackend, InProcessBackend, Segment, ServiceClient, TaskManifest,
};
use std::path::Path;
use std::time::{Duration, Instant};
use wsn::experiments::jobs::{CpuComparisonJob, NodeSweepJob, SeedAblationJob, ValidationJob};

/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// Requests per connection per pass: 2 × 2880 requests give 4320 hits
/// and 1440 misses, well past the 1000 and 200 samples a hit p99 and a
/// miss p95 need for ten samples beyond each, and a pass long enough
/// (seconds) to average over the host's speed swings.
pub const REQUESTS_PER_CONN: usize = 2880;
/// One request in this many is fresh (a cache miss).
pub const FRESH_EVERY: usize = 4;

/// One connection's request sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct Sequence {
    /// Distinct manifests, in order of first use.
    pub manifests: Vec<TaskManifest>,
    /// Each request's index into `manifests`.
    pub requests: Vec<usize>,
}

#[cfg(test)]
impl Sequence {
    /// Whether request `i` is the first use of its manifest.
    pub fn is_fresh(&self, i: usize) -> bool {
        self.requests[..i].iter().all(|&m| m != self.requests[i])
    }
}

/// The sequence of connection `conn` for benchmark seed `seed`.
pub fn sequence(seed: u64, conn: usize, len: usize) -> Sequence {
    let mut rng =
        FleetRng::seed_from_u64(seed ^ (conn as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    // The first request is fresh; the other fresh positions are a seeded
    // sample of the rest (a partial Fisher-Yates shuffle).
    let mut fresh = vec![false; len];
    let mut rest: Vec<usize> = (1..len).collect();
    for i in 0..(len / FRESH_EVERY).saturating_sub(1).min(rest.len()) {
        let j = i + rng.next_below((rest.len() - i) as u64) as usize;
        rest.swap(i, j);
        fresh[rest[i]] = true;
    }
    if let Some(first) = fresh.first_mut() {
        *first = true;
    }
    let mut seq = Sequence {
        manifests: Vec::new(),
        requests: Vec::with_capacity(len),
    };
    let mut kinds = [0usize, 1, 2, 3];
    let mut uses = [0usize; 4];
    let offsets: Vec<usize> = (0..4).map(|_| rng.next_below(1 << 16) as usize).collect();
    for is_fresh in fresh {
        let idx = if is_fresh {
            let n = seq.manifests.len();
            if n.is_multiple_of(kinds.len()) {
                for i in (1..kinds.len()).rev() {
                    kinds.swap(i, rng.next_below(i as u64 + 1) as usize);
                }
            }
            let kind = kinds[n % kinds.len()];
            seq.manifests
                .push(fresh_manifest(&mut rng, kind, offsets[kind] + uses[kind]));
            uses[kind] += 1;
            n
        } else {
            rng.next_below(seq.manifests.len() as u64) as usize
        };
        seq.requests.push(idx);
    }
    seq
}

/// A manifest no earlier request used: one adaptive round of an experiment
/// job at one sweep point, with fresh slot seeds. `kind` picks the job;
/// successive values of `nth` walk its sweep grid (and the PUDs and
/// workloads) in turn, so every seed covers the grids evenly.
fn fresh_manifest(rng: &mut FleetRng, kind: usize, nth: usize) -> TaskManifest {
    use des::Workload;
    let base = rng.next_u64();
    let seed_of = move |_p: usize, r: u64| petri_core::rng::SimRng::child_seed(base, r);
    let node_grid = wsn::sweep::FIG14_15_PDT_GRID.to_vec();
    // The closed node model is deterministic (one run per point); the
    // open one runs the quick adaptive rule's first round of 2.
    let (workload, node_reps) = if (nth / node_grid.len()).is_multiple_of(2) {
        (Workload::Closed { interval: 1.0 }, 1)
    } else {
        (Workload::Open { rate: 1.0 }, 2)
    };
    let one_point = |point: usize, count: usize| {
        vec![Segment {
            point,
            base_rep: 0,
            count,
        }]
    };
    match kind {
        0 => {
            let grid = wsn::sweep::fig4_9_pdt_grid();
            let point = nth % grid.len();
            let job = CpuComparisonJob {
                lambda: 1.0,
                mu: 10.0,
                horizon: 300.0,
                power_up_delay: [0.001, 0.3, 10.0][(nth / grid.len()) % 3],
                seed: base,
                grid,
            };
            TaskManifest::for_job(&job, one_point(point, 2), &seed_of)
        }
        1 => {
            let point = nth % node_grid.len();
            let job = NodeSweepJob {
                workload,
                horizon: 200.0,
                grid: node_grid,
            };
            TaskManifest::for_job(&job, one_point(point, node_reps), &seed_of)
        }
        2 => {
            let point = nth % node_grid.len();
            let job = ValidationJob {
                workload,
                horizon: 200.0,
                grid: node_grid,
            };
            TaskManifest::for_job(&job, one_point(point, node_reps), &seed_of)
        }
        _ => {
            let job = SeedAblationJob {
                params: wsn::CpuModelParams::paper_defaults(0.3, 0.3),
                horizon: 500.0,
            };
            TaskManifest::for_job(&job, one_point(0, 4), &seed_of)
        }
    }
}

/// Result blobs, per connection and distinct manifest.
pub type Blobs = Vec<Vec<Vec<u8>>>;

/// Execute every distinct manifest in-process on one thread: the expected
/// result blobs and the seconds it took.
pub fn reference(seqs: &[Sequence]) -> Result<(f64, Blobs), String> {
    let registry = bench::shard::worker_registry();
    let backend = InProcessBackend::new(1);
    let start = Instant::now();
    let blobs = seqs
        .iter()
        .map(|seq| {
            seq.manifests
                .iter()
                .map(|m| {
                    let job = registry
                        .decode(&m.kind, &m.payload)
                        .map_err(|e| e.to_string())?;
                    let slots = backend
                        .run_segments(job.as_ref(), m, None)
                        .map_err(|e| e.to_string())?;
                    Ok(encode_blob(&slots))
                })
                .collect::<Result<Vec<_>, String>>()
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((start.elapsed().as_secs_f64(), blobs))
}

/// The outcome of one pass of the mix against a fresh daemon.
#[derive(Debug, Default)]
pub struct Pass {
    /// Daemon spawn until it answered its first request.
    pub setup_s: f64,
    /// First request sent until the last fetch returned.
    pub wall_s: f64,
    /// Submit-to-fetched latency of cache hits, ms.
    pub hit_ms: Vec<f64>,
    /// Submit-to-fetched latency of executed requests, ms.
    pub miss_ms: Vec<f64>,
    /// Requests sent.
    pub attempted: u64,
    /// Failed, rejected or wrong requests.
    pub failures: Vec<String>,
    /// Daemon counters after the pass.
    pub stats: sim_runtime::ServiceStats,
    /// Uncontended cache-hit round trips after the pass, µs.
    pub hit_rtt_us: Vec<f64>,
}

const CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

/// Spawn a daemon with a private cache under `cache_dir`, drive every
/// sequence through it on its own connection, check each blob against
/// `expected`, then time `rtt_probes` uncontended hit round trips and stop
/// the daemon.
pub fn served_pass(
    repro: &str,
    cache_dir: &Path,
    seqs: &[Sequence],
    expected: &[Vec<Vec<u8>>],
    rtt_probes: usize,
) -> Pass {
    let mut pass = Pass::default();
    let _ = std::fs::remove_dir_all(cache_dir);
    let dir = cache_dir.to_string_lossy().into_owned();
    let spawned = Instant::now();
    let daemon = match LocalService::spawn(repro, &["--threads", "1", "--cache-dir", &dir]) {
        Ok(d) => d,
        Err(e) => {
            pass.attempted = 1;
            pass.failures.push(format!("daemon did not start: {e}"));
            return pass;
        }
    };
    let mut admin = match ServiceClient::connect(daemon.addr(), CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            pass.attempted = 1;
            pass.failures.push(format!("daemon unreachable: {e}"));
            return pass;
        }
    };
    if let Err(e) = admin.stats() {
        pass.attempted = 1;
        pass.failures.push(format!("daemon did not answer: {e}"));
        return pass;
    }
    pass.setup_s = spawned.elapsed().as_secs_f64();

    let start = Instant::now();
    let per_conn: Vec<Pass> = std::thread::scope(|s| {
        let handles: Vec<_> = seqs
            .iter()
            .zip(expected)
            .map(|(seq, want)| s.spawn(|| drive(daemon.addr(), seq, want)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    pass.wall_s = start.elapsed().as_secs_f64();
    for p in per_conn {
        pass.attempted += p.attempted;
        pass.hit_ms.extend(p.hit_ms);
        pass.miss_ms.extend(p.miss_ms);
        pass.failures.extend(p.failures);
    }
    match admin.stats() {
        Ok(s) => pass.stats = s,
        Err(e) => pass.failures.push(format!("stats after the pass: {e}")),
    }
    if let (Some(seq), Some(want)) = (seqs.first(), expected.first()) {
        for _ in 0..rtt_probes {
            let t = Instant::now();
            match request(&mut admin, &seq.manifests[0]) {
                Ok((blob, d)) if d.is_hit() && blob == want[0] => {
                    pass.hit_rtt_us.push(t.elapsed().as_secs_f64() * 1e6)
                }
                Ok((_, d)) => pass.failures.push(format!("hit probe answered as {d}")),
                Err(e) => pass.failures.push(e),
            }
        }
        pass.attempted += rtt_probes as u64;
    }
    drop(admin);
    daemon.shutdown();
    let _ = std::fs::remove_dir_all(cache_dir);
    pass
}

fn request(client: &mut ServiceClient, m: &TaskManifest) -> Result<(Vec<u8>, Disposition), String> {
    let (job, disposition) = client.submit(m, 1).map_err(|e| format!("submit: {e}"))?;
    let blob = client
        .fetch_blob(job)
        .map_err(|e| format!("fetch {job}: {e}"))?;
    Ok((blob, disposition))
}

/// One closed-loop client: send each request, wait for its blob.
fn drive(addr: &str, seq: &Sequence, want: &[Vec<u8>]) -> Pass {
    let mut out = Pass::default();
    let mut client = match ServiceClient::connect(addr, CLIENT_TIMEOUT) {
        Ok(c) => c,
        Err(e) => {
            out.attempted = seq.requests.len() as u64;
            out.failures.push(format!("connect: {e}"));
            return out;
        }
    };
    for &m in &seq.requests {
        out.attempted += 1;
        let t = Instant::now();
        match request(&mut client, &seq.manifests[m]) {
            Ok((blob, d)) => {
                let ms = t.elapsed().as_secs_f64() * 1e3;
                if blob != want[m] {
                    out.failures
                        .push(format!("manifest {m}: served bytes differ from in-process"));
                } else if d.is_hit() {
                    out.hit_ms.push(ms);
                } else {
                    out.miss_ms.push(ms);
                }
            }
            Err(e) => out.failures.push(e),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        assert_eq!(sequence(7, 0, 200), sequence(7, 0, 200));
        assert_ne!(sequence(7, 0, 200), sequence(8, 0, 200));
        assert_ne!(sequence(7, 0, 200), sequence(7, 1, 200));
    }

    #[test]
    fn one_request_in_four_is_fresh() {
        let seq = sequence(3, 0, REQUESTS_PER_CONN);
        let fresh = (0..seq.requests.len()).filter(|&i| seq.is_fresh(i)).count();
        assert_eq!(fresh, seq.manifests.len());
        assert_eq!(fresh, REQUESTS_PER_CONN / FRESH_EVERY);
        assert!(seq.is_fresh(0));
        // Fresh manifests cycle through the four job kinds.
        let mut per_kind = std::collections::BTreeMap::new();
        for m in &seq.manifests {
            *per_kind.entry(m.kind.clone()).or_insert(0) += 1;
        }
        assert!(per_kind.values().all(|&n| n == fresh / 4), "{per_kind:?}");
    }

    #[test]
    fn a_pass_backs_hit_p99_and_miss_p95() {
        for seed in 1..=20 {
            let seqs: Vec<Sequence> = (0..CONNECTIONS)
                .map(|c| sequence(seed, c, REQUESTS_PER_CONN))
                .collect();
            let misses: usize = seqs.iter().map(|s| s.manifests.len()).sum();
            let hits = CONNECTIONS * REQUESTS_PER_CONN - misses;
            assert!(
                hits >= crate::stats::samples_needed(99.0),
                "seed {seed}: {hits} hits"
            );
            assert!(
                misses >= crate::stats::samples_needed(95.0),
                "seed {seed}: {misses} misses"
            );
        }
    }

    #[test]
    fn fresh_manifests_are_distinct_across_connections() {
        let keys: std::collections::HashSet<_> = (0..CONNECTIONS)
            .flat_map(|c| sequence(11, c, 300).manifests)
            .map(|m| sim_runtime::service::cache::CacheKey::of_manifest(&m).hex())
            .collect();
        let total: usize = (0..CONNECTIONS)
            .map(|c| sequence(11, c, 300).manifests.len())
            .sum();
        assert_eq!(keys.len(), total);
    }

    #[test]
    fn every_manifest_kind_appears_and_decodes() {
        let seq = sequence(5, 0, 400);
        let registry = bench::shard::worker_registry();
        let mut kinds: Vec<&str> = seq.manifests.iter().map(|m| m.kind.as_str()).collect();
        kinds.sort();
        kinds.dedup();
        assert_eq!(kinds.len(), 4, "{kinds:?}");
        for m in &seq.manifests {
            m.validate().unwrap();
            registry.decode(&m.kind, &m.payload).unwrap();
        }
    }
}
