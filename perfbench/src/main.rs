//! `perfbench` — the end-to-end benchmark of the paper reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless <dir>     # regenerate the golden digests into <dir>
//! ```
//!
//! Workloads (see `README.md` for the metric definitions):
//!
//! * `paper_full` — `repro all` at full horizons, in-process, at 2 and at
//!   1 threads;
//! * `paper_quick_sharded` — `repro --quick --threads 1 --shards 2 all`,
//!   against the same run in-process.
//!
//! With `--trace 0` a run prints the end-to-end metrics of its workload,
//! scaled to a reference host speed (`calib.rs`; the raw medians are
//! printed before the result); with `--trace 1` it runs the traced
//! per-layer probes instead (see
//! `layers.rs`), which include a pass of the served request mix
//! (`mix.rs`). Every run checks outputs (golden digests, served bytes
//! against in-process bytes) and counts failed operations. The last line
//! of stdout is the JSON result; an environment fingerprint line precedes
//! it.

mod calib;
mod golden;
mod layers;
mod mix;
mod spans;
mod stats;

use std::path::{Path, PathBuf};
use std::time::Instant;

const WORKLOADS: [&str; 2] = ["paper_full", "paper_quick_sharded"];

/// Set-up probes after every timed invocation. Spread over the whole run,
/// no single burst of host interference covers them all, as it could the
/// 40 ms a block of back-to-back probes takes.
const SETUP_PER_INVOCATION: usize = 3;
/// Fewest measured pairs per run, however short `--seconds`.
const MIN_ROUNDS: usize = 2;

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// Operations attempted and the failures among them.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Tally {
    /// Count one operation and its outcome.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(e);
        }
    }

    /// Record a failure without counting a new operation.
    pub fn fail(&mut self, e: String) {
        eprintln!("[perfbench] failed: {e}");
        self.failures.push(e);
    }

    /// Median of `samples`, or a failure when there are none.
    pub fn median(&mut self, what: &str, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            self.fail(format!("no successful samples of {what}"));
            return 0.0;
        }
        stats::median(samples)
    }

    /// Lower quartile of `samples`, or a failure when there are none.
    pub fn lower_quartile(&mut self, what: &str, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            self.fail(format!("no successful samples of {what}"));
            return 0.0;
        }
        stats::lower_quartile(samples)
    }
}

/// Paths and settings shared by every workload.
pub struct Ctx {
    pub repro: String,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    /// A scratch directory under the run's work directory.
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Whether a measurement loop that started at `start` and has done
    /// `rounds` rounds, the last taking `last_s`, should start another: not
    /// when that round would end past `--seconds`.
    fn more(&self, start: Instant, rounds: usize, last_s: f64) -> bool {
        rounds < MIN_ROUNDS || start.elapsed().as_secs_f64() + last_s < self.seconds
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless <dir>",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args(args: &[String]) -> Args {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                out.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        usage();
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Runs must not inherit executor or engine overrides from the caller.
    for (k, _) in std::env::vars() {
        if k.starts_with("REPRO_") {
            std::env::remove_var(k);
        }
    }
    let exe = std::env::current_exe().expect("current_exe");
    let target = exe.parent().and_then(Path::parent).expect("target dir");
    if args.first().map(String::as_str) == Some("--bless") {
        let dir = args.get(1).unwrap_or_else(|| usage());
        let repro = bench::remote::sibling_repro_bin();
        return bless(&repro, &target.join("perfbench-bless"), Path::new(dir));
    }
    let args = parse_args(&args);
    let repro = bench::remote::sibling_repro_bin();
    let work =
        target
            .join("perfbench-work")
            .join(format!("{}-{}", args.workload, std::process::id()));
    // A failing job's flight record lands in the run's own directory.
    std::env::set_var("REPRO_FLIGHT_DIR", work.join("flight"));
    let ctx = Ctx {
        repro,
        work,
        seed: args.seed,
        seconds: args.seconds,
    };
    println!("{}", fingerprint());
    let mut tally = Tally::default();
    let metrics = match (args.trace, args.workload.as_str()) {
        (true, _) => layers::run(&ctx, &mut tally),
        (false, w) => paper(&ctx, &mut tally, w == "paper_quick_sharded"),
    };
    sim_runtime::fleet::pool::pool().drain();
    let _ = std::fs::remove_dir_all(&ctx.work);
    for m in &metrics {
        if !m.value.is_finite() {
            tally.fail(format!("{} is not finite", m.name));
        }
        println!("metric {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_json(&tally, &metrics));
}

/// The last stdout line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(tally: &Tally, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failures.is_empty(),
        tally.attempted.max(1),
        tally.failures.len(),
        body.join(", ")
    )
}

/// Host and build identity, recorded with every result.
fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into())
    };
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "env nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={profile} commit={}",
        run("rustc", &["--version"]),
        run("git", &["rev-parse", "--short=12", "HEAD"])
    )
}

/// Time `repro params` from spawn to exit, [`SETUP_PER_INVOCATION`]
/// times, into `out`: the fixed cost every paper invocation pays before
/// it computes anything.
fn setup_probes(ctx: &Ctx, tally: &mut Tally, want: &golden::Digests, out: &mut Vec<f64>) {
    for _ in 0..SETUP_PER_INVOCATION {
        let (wall, verdict) = golden::run_checked(&ctx.repro, &ctx.dir("setup"), &["params"], want);
        if verdict.is_ok() {
            out.push(wall);
        }
        tally.record(verdict);
    }
}

/// `paper_full` (`quick = false`) and `paper_quick_sharded`: alternate the
/// measured invocation with its 1-thread in-process baseline, in an order
/// that flips every pair, until `--seconds` have passed. A kernel pass and
/// the set-up probes follow every invocation. Each metric is the
/// lower quartile of its samples (see `stats::lower_quartile`), scaled
/// by the lower quartile of the run's passes (see `calib.rs`).
fn paper(ctx: &Ctx, tally: &mut Tally, quick: bool) -> Vec<Metric> {
    let (golden_text, fast, base): (&str, &[&str], &[&str]) = if quick {
        (
            golden::QUICK,
            &["--quick", "--threads", "1", "--shards", "2", "all"],
            &["--quick", "--threads", "1", "all"],
        )
    } else {
        (
            golden::FULL,
            &["--threads", "2", "all"],
            &["--threads", "1", "all"],
        )
    };
    let want = golden::parse(golden_text);
    let params = golden::parse(golden::PARAMS);
    let start = Instant::now();
    let mut host = calib::HostSpeed::default();
    let (mut fast_s, mut base_s, mut setup) = (Vec::new(), Vec::new(), Vec::new());
    let (mut pair, mut pair_s) = (0, 0.0);
    while ctx.more(start, pair, pair_s) {
        let pair_start = Instant::now();
        let fast_first = (ctx.seed as usize + pair).is_multiple_of(2);
        for run_fast in [fast_first, !fast_first] {
            let (args, samples) = if run_fast {
                (fast, &mut fast_s)
            } else {
                (base, &mut base_s)
            };
            let (wall, verdict) = golden::run_checked(&ctx.repro, &ctx.dir("paper"), args, &want);
            eprintln!(
                "[perfbench] pair {pair}: repro {} took {wall:.4} s",
                args.join(" ")
            );
            if verdict.is_ok() {
                samples.push(wall);
            }
            tally.record(verdict);
            host.sample();
            setup_probes(ctx, tally, &params, &mut setup);
        }
        pair_s = pair_start.elapsed().as_secs_f64();
        pair += 1;
    }
    println!(
        "host kernel pass: lower quartile {} s over {} passes, reference {} s",
        host.pass_s(),
        host.passes(),
        calib::REFERENCE_S
    );
    [
        ("wall_s", tally.lower_quartile("wall_s", &fast_s)),
        ("wall_t1_s", tally.lower_quartile("wall_t1_s", &base_s)),
        ("setup_s", tally.lower_quartile("setup_s", &setup)),
    ]
    .into_iter()
    .map(|(name, raw_s)| {
        println!("raw {name} = {raw_s} s");
        metric(name, host.scale(raw_s), "s")
    })
    .collect()
}

/// Regenerate `full.sha256`, `quick.sha256` and `params.sha256` into
/// `out` from fresh runs.
fn bless(repro: &str, scratch: &Path, out: &Path) {
    std::fs::create_dir_all(out).expect("golden dir");
    for (file, args) in [
        ("full.sha256", &["--threads", "2", "all"][..]),
        ("quick.sha256", &["--quick", "--threads", "2", "all"][..]),
        ("params.sha256", &["params"][..]),
    ] {
        golden::fresh_dir(scratch).expect("scratch dir");
        let inv = golden::invoke(repro, scratch, args);
        inv.status.expect("repro run for the golden digests");
        let digests = golden::digest_outputs(&inv.stdout, scratch).expect("digest outputs");
        std::fs::write(out.join(file), golden::render(&digests)).expect("write golden");
        println!(
            "wrote {} ({} outputs)",
            out.join(file).display(),
            digests.len()
        );
    }
    let _ = std::fs::remove_dir_all(scratch);
}
