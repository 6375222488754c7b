//! The traced run (`--trace 1`): per-layer probes.
//!
//! Each probe calls one layer's public functions and is wrapped in a
//! benchmark-side span (see `spans.rs`); nothing inside the program is
//! instrumented. The probes, in span order:
//!
//! * `repro` — every target of `repro all` spawned alone at 2 threads,
//!   then `all` itself (the waste ratio `all_vs_targets`);
//! * `grid` — the paper's portable grids through `Runner::run_job` /
//!   `Runner::run_adaptive_job` on 2 in-process threads, each job wrapped
//!   in a timing decorator (busy time, slots, dispatches, stopping
//!   decisions);
//! * `petri`, `des`, `markov` — the three substrates at the paper's own
//!   grid points and horizons;
//! * `wire` — manifest encode/decode and result-blob decode;
//! * `worker` — the same grid on `Exec::sharded(1, 2)` against in-process;
//! * `service` — cache keys, the disk store, and one pass of the served
//!   mix with uncontended hit round trips;
//! * `replica` — a small grid with and without the timing decorator: the
//!   cost of tracing.
//!
//! The self times of these spans must cover at least 95% of the traced
//! wall; the shortfall counts as a failure.

use crate::spans::{self, Recorder};
use crate::{golden, metric, mix, stats, Ctx, Metric, Tally};
use des::Workload;
use petri_core::prelude::*;
use petri_core::rng::SimRng;
use sim_runtime::exec::TaskManifest;
use sim_runtime::service::cache::{decode_blob, encode_blob, CacheKey, DiskStore};
use sim_runtime::wire::Reader;
use sim_runtime::{
    fleet_stats, Exec, ExecBackend, InProcessBackend, PortableJob, Segment, StoppingRule,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;
use wsn::experiments::jobs::{
    CpuComparisonJob, NodeSweepJob, SeedAblationJob, ValidationJob, CPU_COMPARISON_WATCH,
    NODE_SWEEP_WATCH_TOTAL_J, VALIDATION_WATCH,
};
use wsn::sweep::{fig4_9_pdt_grid, FIG14_15_PDT_GRID};
use wsn::CpuModelParams;

/// Threads of the in-process grid probes (the host's 2 CPUs).
const THREADS: usize = 2;
/// Full-horizon settings of `repro all` (see `crates/bench/src/bin/repro.rs`).
const CPU_HORIZON: f64 = 5000.0;
const NODE_HORIZON: f64 = 900.0;
const PUDS: [f64; 3] = [0.001, 0.3, 10.0];

/// The targets `repro all` runs, in its order, with the layer group each
/// one's wall is reported under.
const TARGETS: [(&str, &str); 21] = [
    ("params", "tables"),
    ("fig4", "cpu_comparison"),
    ("fig7", "cpu_comparison"),
    ("fig5", "cpu_comparison"),
    ("fig8", "cpu_comparison"),
    ("fig6", "cpu_comparison"),
    ("fig9", "cpu_comparison"),
    ("table4", "cpu_comparison"),
    ("table5", "cpu_comparison"),
    ("table6", "cpu_comparison"),
    ("table8", "tables"),
    ("table10", "tables"),
    ("fig14", "fig14"),
    ("fig15", "fig15"),
    ("erlang", "ablations"),
    ("memory", "ablations"),
    ("seeds", "ablations"),
    ("trigger", "ablations"),
    ("dot", "tables"),
    ("validate", "validate"),
    ("steady", "ablations"),
];
const GROUPS: [&str; 6] = [
    "cpu_comparison",
    "fig14",
    "fig15",
    "validate",
    "ablations",
    "tables",
];

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut rec = Recorder::default();
    rec.span("run", |rec| {
        rec.span("repro", |_| repro_targets(ctx, tally, &mut out));
        rec.span("grid", |_| grid(tally, &mut out));
        let petri_s = rec.span("petri", |_| petri(&mut out));
        let des_s = rec.span("des", |_| des_probe(&mut out));
        let markov_s = rec.span("markov", |_| markov_probe(&mut out));
        let total = petri_s + des_s + markov_s;
        out.push(metric("petri.share", petri_s / total, "ratio"));
        out.push(metric("des.share", des_s / total, "ratio"));
        out.push(metric("markov.share", markov_s / total, "ratio"));
        rec.span("wire", |_| wire(tally, &mut out));
        rec.span("worker", |_| worker(ctx, tally, &mut out));
        rec.span("service", |_| service(ctx, tally, &mut out));
        rec.span("replica", |_| replica(&mut out));
    });
    let spans = rec.spans();
    let covered = spans::attributed_fraction(spans);
    if covered < spans::MIN_ATTRIBUTED {
        tally.fail(format!(
            "layer spans cover only {:.1}% of the traced wall",
            covered * 100.0
        ));
    }
    out.push(metric("trace.attributed_frac", covered, "ratio"));
    out.push(metric("ledger.wall_s", spans[0].duration(), "s"));
    for (name, secs) in spans::self_by_name(spans) {
        if name != "run" {
            out.push(metric(&format!("ledger.{name}_s"), secs, "s"));
        }
    }
    out
}

/// Spawn every target of `all` alone, in `all`'s order and in one
/// directory, then `all` itself. The targets' concatenated stdout and
/// shared `results/` must match `all`'s golden digests.
fn repro_targets(ctx: &Ctx, tally: &mut Tally, out: &mut Vec<Metric>) {
    let want = golden::parse(golden::FULL);
    let dir = ctx.dir("targets");
    if let Err(e) = golden::fresh_dir(&dir) {
        tally.record(Err(e));
        return;
    }
    let mut stdout = Vec::new();
    let mut group_s = [0.0f64; GROUPS.len()];
    for (target, group) in TARGETS {
        let inv = golden::invoke(&ctx.repro, &dir, &["--threads", "2", target]);
        stdout.extend_from_slice(&inv.stdout);
        group_s[GROUPS
            .iter()
            .position(|g| *g == group)
            .expect("known group")] += inv.wall_s;
        tally.record(inv.status);
    }
    tally.record(golden::check(
        "repro targets one by one",
        &stdout,
        &dir,
        &want,
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (all_s, verdict) = golden::run_checked(&ctx.repro, &dir, &["--threads", "2", "all"], &want);
    tally.record(verdict);
    for (g, s) in GROUPS.iter().zip(group_s) {
        out.push(metric(&format!("repro.{g}_s"), s, "s"));
    }
    out.push(metric(
        "repro.all_vs_targets",
        all_s / group_s.iter().sum::<f64>(),
        "ratio",
    ));
}

/// A portable job wrapped with a timing decorator: busy nanoseconds and
/// slots executed, summed over every call.
struct Timed<'a> {
    inner: &'a dyn PortableJob,
    busy_ns: &'a AtomicU64,
    slots: &'a AtomicU64,
}

impl Timed<'_> {
    fn account(&self, started: Instant, slots: usize) {
        self.busy_ns
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.slots.fetch_add(slots as u64, Ordering::Relaxed);
    }
}

impl PortableJob for Timed<'_> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        self.inner.encode_payload(buf)
    }

    fn run_slot(&self, point: usize, replication: u64, seed: u64) -> Result<Vec<u8>, String> {
        let t = Instant::now();
        let r = self.inner.run_slot(point, replication, seed);
        self.account(t, 1);
        r
    }

    fn run_batch(
        &self,
        point: usize,
        base_rep: u64,
        seeds: &[u64],
    ) -> Vec<Result<Vec<u8>, String>> {
        let t = Instant::now();
        let r = self.inner.run_batch(point, base_rep, seeds);
        self.account(t, seeds.len());
        r
    }
}

type SeedOf = Box<dyn Fn(usize, u64) -> u64>;

/// One grid of `repro all`: a portable job with a fixed or adaptive plan.
struct Grid {
    job: Box<dyn PortableJob>,
    seed_of: SeedOf,
    plan: Plan,
}

enum Plan {
    Fixed(Vec<u64>),
    Adaptive(usize, StoppingRule, &'static [usize]),
}

fn child(base: u64) -> SeedOf {
    Box::new(move |_p, r| SimRng::child_seed(base, r))
}

/// The distinct portable grids `repro all` runs at full horizons, with
/// its seeds and its adaptive rule.
fn paper_grids() -> Vec<Grid> {
    let rule = StoppingRule::relative(0.03).with_budget(4, 64, 4);
    let node = FIG14_15_PDT_GRID.to_vec();
    let mut grids: Vec<Grid> = PUDS
        .iter()
        .map(|&pud| Grid {
            job: Box::new(CpuComparisonJob {
                lambda: 1.0,
                mu: 10.0,
                horizon: CPU_HORIZON,
                power_up_delay: pud,
                seed: 0x5EED,
                grid: fig4_9_pdt_grid(),
            }),
            seed_of: child(0x5EED),
            plan: Plan::Adaptive(fig4_9_pdt_grid().len(), rule, &CPU_COMPARISON_WATCH),
        })
        .collect();
    let closed = Workload::Closed { interval: 1.0 };
    let open = Workload::Open { rate: 1.0 };
    let node_job = |workload| -> Box<dyn PortableJob> {
        Box::new(NodeSweepJob {
            workload,
            horizon: NODE_HORIZON,
            grid: FIG14_15_PDT_GRID.to_vec(),
        })
    };
    let validation_job = |workload| -> Box<dyn PortableJob> {
        Box::new(ValidationJob {
            workload,
            horizon: NODE_HORIZON,
            grid: FIG14_15_PDT_GRID.to_vec(),
        })
    };
    grids.push(Grid {
        job: node_job(closed),
        seed_of: child(0xF14),
        plan: Plan::Fixed(vec![1; node.len()]),
    });
    grids.push(Grid {
        job: node_job(open),
        seed_of: child(0xF14),
        plan: Plan::Adaptive(node.len(), rule, &[NODE_SWEEP_WATCH_TOTAL_J]),
    });
    grids.push(Grid {
        job: validation_job(closed),
        seed_of: Box::new(|_, _| 0xDE5),
        plan: Plan::Fixed(vec![1; node.len()]),
    });
    grids.push(Grid {
        job: validation_job(open),
        seed_of: child(0xDE5),
        plan: Plan::Adaptive(node.len(), rule, &VALIDATION_WATCH),
    });
    grids.push(Grid {
        job: Box::new(SeedAblationJob {
            params: CpuModelParams::paper_defaults(0.3, 0.3),
            horizon: 2000.0,
        }),
        seed_of: child(0xCAFE),
        plan: Plan::Fixed(vec![64]),
    });
    grids
}

/// Counters of one grid probe.
#[derive(Default)]
struct GridCounts {
    dispatches: Arc<AtomicU64>,
    busy_ns: AtomicU64,
    slots: AtomicU64,
    replications: u64,
    capped: u64,
}

/// Run `grids` on `threads` in-process threads; `timed` wraps each job
/// in the decorator and counts dispatches.
fn run_grids(grids: &[Grid], threads: usize, timed: bool) -> Result<GridCounts, String> {
    let counts = GridCounts::default();
    let mut runner = Exec::in_process(threads).runner();
    if timed {
        let dispatches = Arc::clone(&counts.dispatches);
        runner = runner.on_progress(move |p| {
            if p.completed == p.total {
                dispatches.fetch_add(1, Ordering::Relaxed);
            }
        });
    }
    let mut counts = counts;
    for g in grids {
        let wrapped = Timed {
            inner: g.job.as_ref(),
            busy_ns: &counts.busy_ns,
            slots: &counts.slots,
        };
        let job: &dyn PortableJob = if timed { &wrapped } else { g.job.as_ref() };
        match &g.plan {
            Plan::Fixed(reps) => {
                runner
                    .run_job(job, reps, &g.seed_of)
                    .map_err(|e| e.to_string())?;
            }
            Plan::Adaptive(points, rule, watch) => {
                let pts = runner
                    .run_adaptive_job(job, *points, rule, watch, &g.seed_of)
                    .map_err(|e| e.to_string())?;
                counts.replications += pts.iter().map(|p| p.replications).sum::<u64>();
                counts.capped += pts.iter().filter(|p| !p.converged).count() as u64;
            }
        }
    }
    Ok(counts)
}

fn grid(tally: &mut Tally, out: &mut Vec<Metric>) {
    let grids = paper_grids();
    let start = Instant::now();
    let counts = match run_grids(&grids, THREADS, true) {
        Ok(c) => c,
        Err(e) => return tally.record(Err(format!("paper grids: {e}"))),
    };
    let wall = start.elapsed().as_secs_f64();
    tally.record(Ok(()));
    let busy = counts.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    out.push(metric(
        "grid.dispatches",
        counts.dispatches.load(Ordering::Relaxed) as f64,
        "count",
    ));
    out.push(metric(
        "grid.slots",
        counts.slots.load(Ordering::Relaxed) as f64,
        "count",
    ));
    out.push(metric("grid.busy_s", busy, "s"));
    out.push(metric(
        "grid.idle_frac",
        1.0 - busy / (THREADS as f64 * wall),
        "ratio",
    ));
    out.push(metric(
        "stopping.replications",
        counts.replications as f64,
        "count",
    ));
    out.push(metric(
        "stopping.capped_points",
        counts.capped as f64,
        "count",
    ));
}

/// The CPU model's paper parameters at every Fig. 4–9 point and PUD.
fn cpu_points() -> Vec<CpuModelParams> {
    PUDS.iter()
        .flat_map(|&pud| {
            fig4_9_pdt_grid()
                .into_iter()
                .map(move |pdt| CpuModelParams {
                    lambda: 1.0,
                    mu: 10.0,
                    power_down_threshold: pdt,
                    power_up_delay: pud,
                })
        })
        .collect()
}

/// The node model's paper parameters at every Fig. 14/15 point.
fn node_points(workload: Workload) -> Vec<des::NodeSimParams> {
    FIG14_15_PDT_GRID
        .iter()
        .map(|&pdt| {
            let mut p = des::NodeSimParams::paper_defaults(workload, pdt);
            p.horizon = NODE_HORIZON;
            p
        })
        .collect()
}

/// Petri engine per net; returns the seconds spent simulating.
fn petri(out: &mut Vec<Metric>) -> f64 {
    let seed = SimRng::child_seed(0x5EED ^ 0xA5A5, 0);
    let (mut setup_us, mut run_s, mut events) = (Vec::new(), 0.0, 0u64);
    let started = Instant::now();
    for params in cpu_points() {
        let t = Instant::now();
        let model = wsn::build_cpu_model(&params);
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(CPU_HORIZON));
        for place in [
            model.places.stand_by,
            model.places.powering_up,
            model.places.idle,
            model.places.active,
            model.places.buffer,
        ] {
            sim.reward_place(place);
        }
        sim.reward_firings(model.transitions.t1);
        sim.reward_firings(model.transitions.service);
        setup_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let run = sim.run(seed).expect("CPU net runs");
        run_s += t.elapsed().as_secs_f64();
        events += run.total_firings();
    }
    out.push(metric("petri.cpu_net.events", events as f64, "count"));
    out.push(metric(
        "petri.cpu_net.ns_per_event",
        run_s * 1e9 / events as f64,
        "ns",
    ));
    out.push(metric(
        "petri.cpu_net.setup_us",
        stats::median(&setup_us),
        "us",
    ));
    for (name, workload) in [
        ("node_closed", Workload::Closed { interval: 1.0 }),
        ("node_open", Workload::Open { rate: 1.0 }),
    ] {
        let (mut run_s, mut events) = (0.0, 0u64);
        for params in node_points(workload) {
            let model = wsn::build_node_model(&params);
            let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(params.horizon));
            let p = &model.places;
            for place in [p.cpu_sleep, p.cpu_wake, p.cpu_idle, p.cpu_active] {
                sim.reward_place(place);
            }
            let t = Instant::now();
            let run = sim
                .run(SimRng::child_seed(0xF14, 0))
                .expect("node net runs");
            run_s += t.elapsed().as_secs_f64();
            events += run.total_firings();
        }
        out.push(metric(
            &format!("petri.{name}.ns_per_event"),
            run_s * 1e9 / events as f64,
            "ns",
        ));
    }
    started.elapsed().as_secs_f64()
}

/// The DES crate on the same points; returns the seconds spent.
fn des_probe(out: &mut Vec<Metric>) -> f64 {
    let started = Instant::now();
    let cpu = cpu_points();
    let t = Instant::now();
    for p in &cpu {
        let r = des::simulate_cpu(
            &des::CpuSimParams {
                lambda: p.lambda,
                mu: p.mu,
                power_down_threshold: p.power_down_threshold,
                power_up_delay: p.power_up_delay,
                horizon: CPU_HORIZON,
            },
            SimRng::child_seed(0x5EED, 0),
        );
        std::hint::black_box(r);
    }
    out.push(metric(
        "des.cpu.us_per_slot",
        t.elapsed().as_secs_f64() * 1e6 / cpu.len() as f64,
        "us",
    ));
    let nodes: Vec<_> = [
        Workload::Closed { interval: 1.0 },
        Workload::Open { rate: 1.0 },
    ]
    .into_iter()
    .flat_map(node_points)
    .collect();
    let t = Instant::now();
    for p in &nodes {
        std::hint::black_box(des::simulate_node(p, SimRng::child_seed(0xF14, 0)));
    }
    out.push(metric(
        "des.node.us_per_slot",
        t.elapsed().as_secs_f64() * 1e6 / nodes.len() as f64,
        "us",
    ));
    started.elapsed().as_secs_f64()
}

/// The supplementary-variable Markov model at every CPU point, solved
/// once per point as `repro all`'s comparison does; the per-point time is
/// averaged over repeated solves. Returns the seconds one solve of every
/// point takes.
fn markov_probe(out: &mut Vec<Metric>) -> f64 {
    use markov::supplementary::{CpuMarkovParams, CpuPowerRates};
    const REPEATS: usize = 200;
    let points: Vec<CpuMarkovParams> = cpu_points()
        .into_iter()
        .map(|p| CpuMarkovParams {
            lambda: p.lambda,
            mu: p.mu,
            power_down_threshold: p.power_down_threshold,
            power_up_delay: p.power_up_delay,
        })
        .collect();
    let t = Instant::now();
    for _ in 0..REPEATS {
        for mk in &points {
            std::hint::black_box(mk.solve());
            std::hint::black_box(mk.energy_for_duration(&CpuPowerRates::PXA271, CPU_HORIZON));
        }
    }
    let per_point = t.elapsed().as_secs_f64() / (REPEATS * points.len()) as f64;
    out.push(metric(
        "markov.supplementary.us_per_point",
        per_point * 1e6,
        "us",
    ));
    per_point * points.len() as f64
}

/// The first round of the full Fig. 4–9 sweep at one PUD as a manifest.
fn cpu_round_manifest(horizon: f64) -> (CpuComparisonJob, TaskManifest) {
    let job = CpuComparisonJob {
        lambda: 1.0,
        mu: 10.0,
        horizon,
        power_up_delay: 0.3,
        seed: 0x5EED,
        grid: fig4_9_pdt_grid(),
    };
    let segments = (0..job.grid.len())
        .map(|point| Segment {
            point,
            base_rep: 0,
            count: 4,
        })
        .collect();
    let m = TaskManifest::for_job(&job, segments, &|_p, r| SimRng::child_seed(0x5EED, r));
    (job, m)
}

fn per_call_us(iterations: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iterations {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / iterations as f64
}

fn wire(tally: &mut Tally, out: &mut Vec<Metric>) {
    const ITERATIONS: usize = 2000;
    let (_, manifest) = cpu_round_manifest(CPU_HORIZON);
    let mut buf = Vec::new();
    manifest.encode_into(&mut buf);
    out.push(metric("wire.manifest_bytes", buf.len() as f64, "bytes"));
    let mut round_trip_ok = true;
    let encode_us = per_call_us(ITERATIONS, || {
        buf.clear();
        manifest.encode_into(&mut buf);
        let back = TaskManifest::decode(&mut Reader::new(&buf));
        round_trip_ok &= matches!(back, Ok(m) if m == manifest);
    });
    tally.record(if round_trip_ok {
        Ok(())
    } else {
        Err("manifest wire round trip changed it".into())
    });
    out.push(metric("wire.manifest_encode_us", encode_us, "us"));
    // A real result blob: the same round at the quick horizon.
    let (job, quick) = cpu_round_manifest(300.0);
    let slots = match InProcessBackend::new(1).run_segments(&job, &quick, None) {
        Ok(s) => s,
        Err(e) => return tally.record(Err(format!("wire probe grid: {e}"))),
    };
    let blob = encode_blob(&slots);
    let mut decode_ok = true;
    let decode_us = per_call_us(ITERATIONS, || {
        decode_ok &= matches!(decode_blob(&blob), Ok(s) if s == slots);
    });
    tally.record(if decode_ok {
        Ok(())
    } else {
        Err("result blob did not decode to its slots".into())
    });
    out.push(metric("wire.blob_decode_us", decode_us, "us"));
}

/// `Runner::run_job` on two worker subprocesses against in-process.
fn worker(ctx: &Ctx, tally: &mut Tally, out: &mut Vec<Metric>) {
    const PAIRS: usize = 5;
    let job = NodeSweepJob {
        workload: Workload::Closed { interval: 1.0 },
        horizon: 200.0,
        grid: FIG14_15_PDT_GRID.to_vec(),
    };
    let reps = vec![1u64; job.grid.len()];
    let seed_of = |_p: usize, r: u64| SimRng::child_seed(0xF14, r);
    let sharded = Exec::sharded(1, 2).with_worker_cmd(vec![ctx.repro.clone(), "--worker".into()]);
    let local = Exec::in_process(THREADS);
    let timed = |exec: &Exec| {
        let t = Instant::now();
        let r = exec.runner().run_job(&job, &reps, &seed_of);
        (t.elapsed().as_secs_f64(), r.map_err(|e| e.to_string()))
    };
    let baseline = fleet_stats().snapshot();
    let (cold_s, cold) = timed(&sharded);
    let (mut warm, mut inproc) = (Vec::new(), Vec::new());
    let (mut sharded_out, mut local_out) = (vec![cold], Vec::new());
    for pair in 0..PAIRS {
        for use_shards in [pair % 2 == 0, pair % 2 == 1] {
            if use_shards {
                let (secs, r) = timed(&sharded);
                warm.push(secs);
                sharded_out.push(r);
            } else {
                let (secs, r) = timed(&local);
                inproc.push(secs);
                local_out.push(r);
            }
        }
    }
    // Every run, sharded or not, must give the first in-process bytes.
    let want = local_out[0].clone();
    for r in sharded_out.into_iter().chain(local_out) {
        tally.record(match (r, &want) {
            (Ok(got), Ok(w)) if &got == w => Ok(()),
            (Ok(_), Ok(_)) => Err("sharded results differ from in-process".into()),
            (Err(e), _) => Err(e),
            (_, Err(e)) => Err(e.clone()),
        });
    }
    let delta = fleet_stats().snapshot().delta_since(&baseline);
    let slots = reps.len() as f64;
    out.push(metric("worker.cold_dispatch_ms", cold_s * 1e3, "ms"));
    out.push(metric(
        "worker.warm_overhead_us_per_slot",
        (tally.median("warm sharded dispatch", &warm)
            - tally.median("in-process dispatch", &inproc))
            * 1e6
            / slots,
        "us",
    ));
    out.push(metric("fleet.spawns", delta.spawned as f64, "count"));
    out.push(metric("fleet.restarts", delta.restarts as f64, "count"));
}

/// Cache keys, the disk store and one pass of the served mix.
fn service(ctx: &Ctx, tally: &mut Tally, out: &mut Vec<Metric>) {
    const RTT_PROBES: usize = 200;
    let seqs: Vec<mix::Sequence> = (0..mix::CONNECTIONS)
        .map(|c| mix::sequence(ctx.seed, c, mix::REQUESTS_PER_CONN))
        .collect();
    let expected = match mix::reference(&seqs) {
        Ok((_, blobs)) => blobs,
        Err(e) => return tally.record(Err(format!("in-process reference: {e}"))),
    };
    let manifests: Vec<&TaskManifest> = seqs.iter().flat_map(|s| &s.manifests).collect();
    let blobs: Vec<&Vec<u8>> = expected.iter().flatten().collect();
    let key_us = per_call_us(20, || {
        for m in &manifests {
            std::hint::black_box(CacheKey::of_manifest(m));
        }
    }) / manifests.len() as f64;
    out.push(metric("cache.key_us", key_us, "us"));
    let store_dir = ctx.dir("disk-store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = DiskStore::new(&store_dir);
    let keys: Vec<CacheKey> = manifests.iter().map(|m| CacheKey::of_manifest(m)).collect();
    let mut put_ok = true;
    let put_us = per_call_us(1, || {
        for (k, b) in keys.iter().zip(&blobs) {
            put_ok &= store.put(k, b).is_ok();
        }
    }) / keys.len() as f64;
    let mut get_ok = true;
    let get_us = per_call_us(1, || {
        for (k, b) in keys.iter().zip(&blobs) {
            get_ok &= store.get(k).as_ref() == Some(*b);
        }
    }) / keys.len() as f64;
    tally.record(if put_ok && get_ok {
        Ok(())
    } else {
        Err("disk store lost or changed a blob".into())
    });
    let _ = std::fs::remove_dir_all(&store_dir);
    out.push(metric("cache.disk_put_us", put_us, "us"));
    out.push(metric("cache.disk_get_us", get_us, "us"));

    let pass = mix::served_pass(&ctx.repro, &ctx.dir("cache"), &seqs, &expected, RTT_PROBES);
    tally.attempted += pass.attempted;
    for e in pass.failures {
        tally.fail(e);
    }
    let s = &pass.stats;
    let requests = (pass.hit_ms.len() + pass.miss_ms.len()) as f64;
    out.push(metric("service.setup_ms", pass.setup_s * 1e3, "ms"));
    out.push(metric(
        "service.hit_rtt_us",
        tally.median("hit round trip", &pass.hit_rtt_us),
        "us",
    ));
    out.push(metric(
        "cache.hit_ratio",
        s.hits() as f64 / s.submitted.max(1) as f64,
        "ratio",
    ));
    out.push(metric("service.executed", s.executed as f64, "count"));
    out.push(metric("service.coalesced", s.coalesced as f64, "count"));
    out.push(metric("service.rejected", s.rejected as f64, "count"));
    out.push(metric(
        "service.jobs_per_s",
        requests / pass.wall_s.max(f64::MIN_POSITIVE),
        "1/s",
    ));
    for (name, samples, p) in [
        ("service.hit_p50_ms", &pass.hit_ms, 50.0),
        ("service.hit_p99_ms", &pass.hit_ms, 99.0),
        ("service.miss_p50_ms", &pass.miss_ms, 50.0),
        ("service.miss_p95_ms", &pass.miss_ms, 95.0),
    ] {
        let value = stats::percentile(samples, p).unwrap_or_else(|| {
            tally.fail(format!(
                "{name}: {} samples leave fewer than {} beyond",
                samples.len(),
                stats::MIN_TAIL
            ));
            0.0
        });
        out.push(metric(name, value, "ms"));
    }
}

/// Tracing cost: a small grid run with and without the timing decorator,
/// alternating; the median ratio minus one.
fn replica(out: &mut Vec<Metric>) {
    const PAIRS: usize = 7;
    let grids: Vec<Grid> = paper_grids()
        .into_iter()
        .filter(|g| matches!(g.plan, Plan::Fixed(_)))
        .collect();
    let time = |timed: bool| {
        let t = Instant::now();
        let _ = run_grids(&grids, THREADS, timed);
        t.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..PAIRS)
        .map(|pair| {
            if pair % 2 == 0 {
                let on = time(true);
                on / time(false)
            } else {
                let off = time(false);
                time(true) / off
            }
        })
        .collect();
    out.push(metric(
        "trace.overhead_frac",
        stats::median(&ratios) - 1.0,
        "ratio",
    ));
}
