//! `repro` — regenerate every table and figure of Shareef & Zhu (2010).
//!
//! ```text
//! repro all                 # everything below, in order
//! repro fig4|fig5|fig6      # CPU state percentages vs PDT (3 PUDs)
//! repro fig7|fig8|fig9      # CPU energy vs PDT (3 methods)
//! repro table4|table5|table6# Δ-energy statistics
//! repro table8|table9       # simple system parameters & probabilities
//! repro table10             # emulated IMote2 vs Petri prediction
//! repro fig14               # closed-node energy breakdown sweep
//! repro fig15               # open-node energy breakdown sweep
//! repro params              # echo the power/timing tables as built
//! repro erlang              # ABL-ERLANG: Markovization error vs stages
//! repro memory              # ABL-MEMORY: PDT under 3 memory policies
//! repro seeds               # ABL-SEED: CI width vs replications
//! repro trigger             # ABL-TRIGGER: Poisson vs periodic arrivals
//! repro dot                 # Graphviz exports of the three paper nets
//! repro validate            # Petri-vs-DES cross-check CSV
//! repro steady              # adaptive stopping: replications until CI settles
//! ```
//!
//! Figures are emitted as CSV under `results/` (plus a textual summary on
//! stdout); tables are printed in the paper's layout. Use `--quick` for a
//! fast smoke run (shorter horizons). Figs 4–9 and tables IV–VI are views
//! of one CPU-comparison sweep per Power-Up Delay, computed once per
//! process however many of them a command line names.
//!
//! Execution is resolved once and threaded through every experiment:
//!
//! * `--threads N` (falling back to `REPRO_THREADS`, falling back to one
//!   worker per core) — worker threads per process;
//! * `--shards N` (falling back to `REPRO_SHARDS`, falling back to 0 =
//!   in-process) — worker *subprocesses*: the portable experiment grids
//!   are partitioned across `N` re-invocations of this binary as
//!   `repro --worker`, each running `--threads` threads;
//! * `--hosts a:p,b:p,…` (falling back to `REPRO_HOSTS`) — **remote TCP
//!   workers**: the grids are partitioned across peers running
//!   `repro --worker --listen <addr>`;
//! * `--service a:p` (falling back to `REPRO_SERVICE`) — route every grid
//!   dispatch through an **experiment service daemon** (`repro serve`):
//!   its bounded job queue, single-flight dedup and content-addressed
//!   result cache. Results are **byte-identical** whatever the executor —
//!   threads, shards, hosts, or served (cached or fresh).
//!
//!   Giving more than one of `--shards`/`--hosts`/`--service` explicitly
//!   is an error; when one comes from the environment instead, precedence
//!   is `service > hosts > shards` (warned on stderr).
//! * `--batch N` (falling back to `REPRO_BATCH`, falling back to 1 =
//!   scalar) — cross-replication batch width: each worker claims runs of
//!   up to `N` contiguous same-point replications and advances them
//!   together through the batched engine. Purely a throughput knob —
//!   results are byte-identical at every width.
//! * `--engine interp|lowered` (exported as `REPRO_ENGINE`, so worker
//!   subprocesses inherit it; default `lowered`) — which stepping engine
//!   `Simulator`/`BatchSimulator` use: the compiled micro-op programs or
//!   the incremental interpreter. Another pure throughput knob: outputs
//!   are byte-identical on either engine (CI diffs the artifacts).
//! * `--profile` (exported as `REPRO_PROFILE=1`, so worker subprocesses
//!   inherit it) — arm the per-transition engine profiler: firing counts
//!   and attributed nanoseconds per transition, printed as a table on
//!   stderr after the run and folded into job traces as counter events.
//!   Observation only — artifacts are byte-identical with or without it
//!   (CI diffs them).
//! * `--retry N` / `--io-timeout SECS` / `--pool on|off` (falling back to
//!   `REPRO_RETRY` / `REPRO_IO_TIMEOUT` / `REPRO_POOL`) — the unified
//!   fault policy of the multi-process executors: per-chunk re-dispatch
//!   budget (default 2), the silent-peer IO timeout in seconds (default
//!   15; 0 disables), and whether workers/connections stay warm in the
//!   process-global pool across dispatches (default on). An explicit flag
//!   wins over a differing environment value with a warning.
//! * `--fixed-reps` — escape hatch: run the stochastic sweeps (fig4–9 /
//!   tables IV–VI, fig15, validate/open) with the historical fixed
//!   replication counts instead of the default adaptive `StoppingRule`
//!   budgets, reproducing the seed numbers exactly.
//!
//! Chaos (robustness testing) is armed purely from the environment:
//! setting `REPRO_CHAOS_SEED` (with `REPRO_CHAOS_DROP`/`GARBLE`/`DELAY`
//! per-mille frame-fault rates, `REPRO_CHAOS_KILL_AFTER`, and
//! `REPRO_CHAOS_WORKER_CRASH`/`STALL` worker-side rates) makes every
//! transport deterministically faulty; the in-process fallback is enabled
//! automatically so armed runs still complete (loudly) even if the whole
//! fleet dies. Results stay byte-identical under any armed schedule.
//!
//! Service modes (first argument selects them):
//!
//! ```text
//! repro serve --listen ADDR [--http ADDR] [--threads N|--shards N|--hosts ...]
//!             [--queue-capacity N] [--dispatchers N] [--mem-cache N]
//!             [--cache-dir DIR|--no-disk-cache]
//!                                 # daemon; announces "serving <addr>".
//!                                 # --http also runs the HTTP/JSON gateway
//!                                 #   (healthz/stats/metrics/submit/jobs),
//!                                 #   announcing "http <addr>" FIRST
//! repro submit --service a:p mm1 [--horizon S] [--warmup S] [--reps N]
//!              [--seed N]        # submit one job, print id + disposition
//! repro status --service a:p ID  # one job's state
//! repro fetch  --service a:p ID [--out FILE]  # block, then result bytes
//! repro watch  --service a:p ID  # like fetch, but stream per-slot
//!                                #   progress lines while waiting
//! repro cancel --service a:p ID  # cancel a queued job
//! repro trace  --service a:p ID [--out FILE]
//!                                # the job's span trace as Chrome
//!                                #   trace-event JSON (load in Perfetto
//!                                #   or chrome://tracing); stdout unless
//!                                #   --out
//! repro stats  --service a:p [--json]
//!                                # daemon counters (cache hits, fleet
//!                                #   restarts/quarantines/fallbacks, ...);
//!                                #   --json emits the same document the
//!                                #   gateway serves on GET /stats
//! repro stop   --service a:p     # graceful daemon shutdown
//! repro cache gc [--cache-dir DIR] [--budget BYTES]
//!                                # sweep the disk result cache: delete
//!                                #   corrupt entries, evict LRU over budget
//! ```
//!
//! Telemetry: every tier records counters/gauges/histograms into the
//! process-wide registry (`sim_runtime::telemetry`), exposed as Prometheus
//! text on the gateway's `GET /metrics`. Set `REPRO_TELEMETRY=off` to
//! disable recording entirely; artifacts are byte-identical either way.
//!
//! Tracing: every tier also records causal spans (submit, queue-wait,
//! dispatch, pool-checkout, slot, engine-run) into the process-wide ring
//! (`sim_runtime::trace`), with worker subprocesses shipping their spans
//! back in an advisory frame. Fetch a job's trace with `repro trace` or
//! `GET /jobs/<id>/trace`; failing jobs dump their last spans to a flight
//! record file. Set `REPRO_TRACE=off` to disable; artifacts are
//! byte-identical either way.
//!
//! `repro --worker [--listen ADDR]` is not a user-facing mode: it serves
//! task-manifest frames against the job registry
//! (`bench::shard::worker_registry`) — over stdin/stdout by default, or
//! over accepted TCP connections with `--listen` (binding port 0 announces
//! the ephemeral port as `listening <addr>` on stdout; the process exits
//! on an explicit shutdown frame).

use bench::write_artifact;
use des::Workload;
use sim_runtime::{
    ChaosConfig, Exec, FaultPolicy, ServiceClient, ServiceConfig, ServiceHandle, StoppingRule,
};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use wsn::experiments::ablations::{
    erlang_ablation, memory_ablation, seed_ablation, trigger_ablation,
};
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::simple_system::{run_simple_system, run_table_x};
use wsn::report::{
    render_delta_table, render_energy_csv, render_node_sweep_csv, render_simple_system,
    render_state_csv, render_table_x,
};
use wsn::sweep::{fig4_9_pdt_grid, FIG14_15_PDT_GRID};
use wsn::CpuModelParams;

struct Opts {
    quick: bool,
    /// Worker threads, resolved once (`--threads` > `REPRO_THREADS` > one
    /// per core) and threaded through every experiment config.
    threads: usize,
    /// Worker subprocesses (`--shards` > `REPRO_SHARDS` > 0 = in-process).
    shards: usize,
    /// Remote TCP workers (`--hosts` > `REPRO_HOSTS` > none); takes
    /// precedence over `shards`.
    hosts: Vec<String>,
    /// Experiment service daemon (`--service` > `REPRO_SERVICE` > none);
    /// takes precedence over `hosts` and `shards`.
    service: Option<String>,
    /// Fixed replication counts for the stochastic sweeps instead of
    /// the default adaptive budgets.
    fixed_reps: bool,
    /// Unified fault policy (`--retry`/`--io-timeout` > `REPRO_RETRY`/
    /// `REPRO_IO_TIMEOUT` > defaults), threaded into every backend.
    fault: FaultPolicy,
    /// Warm worker/peer pooling (`--pool` > `REPRO_POOL` > on).
    pool: bool,
    /// Cross-replication batch width (`--batch` > `REPRO_BATCH` > 1 =
    /// scalar). Purely a throughput knob: results are byte-identical at
    /// every width.
    batch: usize,
    /// Deterministic chaos injection, armed from `REPRO_CHAOS_*`.
    chaos: Option<ChaosConfig>,
}

impl Opts {
    /// The execution backend every experiment runs on.
    fn exec(&self) -> Exec {
        let base = if let Some(addr) = &self.service {
            Exec::service(self.threads, addr.clone())
        } else if !self.hosts.is_empty() {
            Exec::remote(self.threads, self.hosts.clone())
        } else if self.shards >= 1 {
            Exec::sharded(self.threads, self.shards)
        } else {
            Exec::in_process(self.threads)
        };
        base.with_fault(self.fault)
            .with_pool(self.pool)
            .with_chaos(self.chaos)
            .with_batch(self.batch)
    }

    /// The one adaptive replication budget shared by every stochastic
    /// sweep — the open-workload sweeps (fig15, validate/open, watching
    /// their energy estimates) and the CPU comparison (figs 4–9 / tables
    /// IV–VI, watching whichever of the DES/Petri energy CIs is widest).
    /// Sized down under `--quick`; `None` under `--fixed-reps` reproduces
    /// every historical fixed count (8/point for the CPU comparison)
    /// exactly.
    fn adaptive_rule(&self) -> Option<StoppingRule> {
        if self.fixed_reps {
            None
        } else if self.quick {
            Some(StoppingRule::relative(0.10).with_budget(2, 8, 2))
        } else {
            Some(StoppingRule::relative(0.03).with_budget(4, 64, 4))
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Worker mode first: stdout is the protocol channel (stdio mode) or
    // the address announcement (listen mode), so nothing else may print
    // to it.
    if args.first().map(String::as_str) == Some("--worker") {
        let mut listen: Option<String> = None;
        let mut it = args.iter().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--listen" => match it.next() {
                    Some(addr) => listen = Some(addr.clone()),
                    None => {
                        eprintln!("--listen needs an address (host:port; port 0 = ephemeral)");
                        std::process::exit(2);
                    }
                },
                other => {
                    eprintln!("unknown worker flag: {other}");
                    std::process::exit(2);
                }
            }
        }
        let registry = bench::shard::worker_registry();
        let served = match listen {
            Some(addr) => sim_runtime::remote::serve_listener(std::sync::Arc::new(registry), &addr),
            None => sim_runtime::worker::serve_stdio(&registry),
        };
        match served {
            Ok(()) => std::process::exit(0),
            Err(e) => {
                eprintln!("[worker] {e}");
                std::process::exit(1);
            }
        }
    }
    // Service modes: the first argument selects daemon or client verbs.
    match args.first().map(String::as_str) {
        Some("serve") => return serve_mode(&args[1..]),
        Some("submit") => return submit_mode(&args[1..]),
        Some("status") => return job_verb_mode(&args[1..], JobVerb::Status),
        Some("fetch") => return job_verb_mode(&args[1..], JobVerb::Fetch),
        Some("watch") => return job_verb_mode(&args[1..], JobVerb::Watch),
        Some("cancel") => return job_verb_mode(&args[1..], JobVerb::Cancel),
        Some("trace") => return job_verb_mode(&args[1..], JobVerb::Trace),
        Some("stats") => return daemon_verb_mode(&args[1..], DaemonVerb::Stats),
        Some("stop") => return daemon_verb_mode(&args[1..], DaemonVerb::Stop),
        Some("cache") => return cache_mode(&args[1..]),
        _ => {}
    }
    let mut quick = false;
    let mut fixed_reps = false;
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut hosts: Option<Vec<String>> = None;
    let mut service: Option<String> = None;
    let mut retry: Option<usize> = None;
    let mut io_timeout: Option<f64> = None;
    let mut pool: Option<bool> = None;
    let mut batch: Option<usize> = None;
    let mut targets: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--fixed-reps" => fixed_reps = true,
            "--retry" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => retry = Some(n),
                _ => flag_err("--retry", "a non-negative re-dispatch count"),
            },
            "--io-timeout" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 && s.is_finite() => io_timeout = Some(s),
                _ => flag_err("--io-timeout", "seconds (0 disables the timeout)"),
            },
            "--pool" => match it.next().and_then(|v| parse_on_off(v)) {
                Some(b) => pool = Some(b),
                _ => flag_err("--pool", "on or off"),
            },
            "--batch" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => batch = Some(n),
                _ => flag_err("--batch", "a positive replication count (1 = scalar)"),
            },
            // Exported via the environment rather than plumbed through
            // `Opts` so shard/worker subprocesses inherit the selection.
            "--engine" => match it.next().map(|v| v.as_str()) {
                Some(v @ ("interp" | "lowered")) => std::env::set_var("REPRO_ENGINE", v),
                _ => flag_err("--engine", "interp or lowered"),
            },
            // Environment-exported like --engine, so shard/worker
            // subprocesses profile too.
            "--profile" => std::env::set_var("REPRO_PROFILE", "1"),
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => {
                    eprintln!("--threads needs a positive integer");
                    std::process::exit(2);
                }
            },
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = Some(n),
                _ => {
                    eprintln!("--shards needs a non-negative integer (0 = in-process)");
                    std::process::exit(2);
                }
            },
            "--hosts" => match it.next().map(|v| parse_hosts(v)) {
                Some(list) if !list.is_empty() => hosts = Some(list),
                _ => {
                    eprintln!("--hosts needs a comma-separated host:port list");
                    std::process::exit(2);
                }
            },
            "--service" => service = Some(take_service_value(&mut it)),
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            target => targets.push(target),
        }
    }
    // Conflicting *explicit* executor selections are an error; mixing an
    // explicit flag with environment fallbacks resolves by the documented
    // precedence (service > hosts > shards) with a warning — see
    // `resolve_executor`.
    let mut explicit: Vec<&str> = Vec::new();
    if shards.is_some_and(|n| n >= 1) {
        explicit.push("--shards");
    }
    if hosts.is_some() {
        explicit.push("--hosts");
    }
    if service.is_some() {
        explicit.push("--service");
    }
    if explicit.len() > 1 {
        eprintln!(
            "conflicting executor flags: {} select different backends; pass at most one \
             (when mixed with REPRO_SHARDS/REPRO_HOSTS/REPRO_SERVICE, precedence is \
             service > hosts > shards)",
            explicit.join(" and ")
        );
        std::process::exit(2);
    }
    let threads = threads
        .or_else(|| sim_runtime::env_threads("REPRO_THREADS"))
        .unwrap_or_else(sim_runtime::default_threads);
    let (shards, hosts, service) = resolve_executor(shards, hosts, service, true);
    let (fault, pool, chaos) = resolve_fault(retry, io_timeout, pool);
    let batch = resolve_batch(batch);
    let opts = Opts {
        quick,
        threads,
        shards,
        hosts,
        service,
        fixed_reps,
        fault,
        pool,
        batch,
        chaos,
    };

    if targets.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--threads N] [--shards N] [--hosts a:p,b:p] [--service a:p] [--batch N] [--engine interp|lowered] [--profile] [--retry N] [--io-timeout SECS] [--pool on|off] [--fixed-reps] <target>...   (try: repro all)\n       repro serve --listen a:p [--http a:p] | repro submit|status|fetch|watch|cancel|trace|stats|stop --service a:p ... | repro cache gc [--cache-dir DIR] [--budget BYTES]"
        );
        std::process::exit(2);
    }
    eprintln!("[repro] executor: {}", opts.exec().label());

    for t in &targets {
        match *t {
            "all" => run_all(&opts),
            "fig4" => cpu_figs(&opts, 0.001, true),
            "fig5" => cpu_figs(&opts, 0.3, true),
            "fig6" => cpu_figs(&opts, 10.0, true),
            "fig7" => cpu_figs(&opts, 0.001, false),
            "fig8" => cpu_figs(&opts, 0.3, false),
            "fig9" => cpu_figs(&opts, 10.0, false),
            "table4" => delta_table(&opts, 0.001, "Table IV (Power_Up_Delay = 0.001 s)"),
            "table5" => delta_table(&opts, 0.3, "Table V (Power_Up_Delay = 0.3 s)"),
            "table6" => delta_table(&opts, 10.0, "Table VI (Power_Up_Delay = 10 s)"),
            "table8" | "table9" => simple_tables(&opts),
            "table10" => table10(),
            "fig14" => node_fig(&opts, Workload::Closed { interval: 1.0 }, "fig14"),
            "fig15" => node_fig(&opts, Workload::Open { rate: 1.0 }, "fig15"),
            "params" => params(),
            "erlang" => erlang(&opts),
            "memory" => memory(&opts),
            "seeds" => seeds(&opts),
            "trigger" => trigger(&opts),
            "dot" => dot(),
            "validate" => validate(&opts),
            "steady" => steady(&opts),
            other => {
                eprintln!("unknown target: {other}");
                std::process::exit(2);
            }
        }
    }
    if petri_core::sim::profile::armed() {
        // Stderr, like all diagnostics: stdout carries result tables.
        eprint!(
            "{}",
            petri_core::sim::profile::render_table(&petri_core::sim::profile::snapshot())
        );
    }
}

/// Print one sweep's replication spend (see
/// [`wsn::report::render_budget_summary`] — shared with the test suite so
/// the cap-hit accounting itself is covered).
fn report_budget(
    points: impl Iterator<Item = (u64, bool)>,
    rule: Option<&StoppingRule>,
    watch: &str,
) {
    println!(
        "{}",
        wsn::report::render_budget_summary(points, rule, watch)
    );
}

/// Split a comma-separated `host:port` list, dropping empty entries.
fn parse_hosts(v: &str) -> Vec<String> {
    v.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Apply the environment fallbacks (`REPRO_SHARDS`/`REPRO_HOSTS`/
/// `REPRO_SERVICE`) and the documented executor precedence
/// `service > hosts > shards`. Conflicts between *explicit* flags were
/// already rejected at parse time; a cross-source conflict (flag +
/// environment, or environment + environment) resolves by precedence with
/// a warning naming the loser.
fn resolve_executor(
    cli_shards: Option<usize>,
    cli_hosts: Option<Vec<String>>,
    cli_service: Option<String>,
    consult_service_env: bool,
) -> (usize, Vec<String>, Option<String>) {
    let shards = cli_shards
        .or_else(|| {
            std::env::var("REPRO_SHARDS")
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
        })
        .unwrap_or(0);
    let hosts = cli_hosts
        .or_else(|| {
            std::env::var("REPRO_HOSTS")
                .ok()
                .map(|v| parse_hosts(&v))
                .filter(|l| !l.is_empty())
        })
        .unwrap_or_default();
    // The daemon's own backend selection (`repro serve`) never consults
    // REPRO_SERVICE: that variable addresses *clients* at a daemon, and a
    // daemon cannot dispatch onto a service anyway.
    let service = cli_service.or_else(|| {
        if consult_service_env {
            std::env::var("REPRO_SERVICE")
                .ok()
                .filter(|s| !s.is_empty())
        } else {
            None
        }
    });
    let mut active: Vec<&str> = Vec::new();
    if service.is_some() {
        active.push("service");
    }
    if !hosts.is_empty() {
        active.push("hosts");
    }
    if shards >= 1 {
        active.push("shards");
    }
    if active.len() > 1 {
        eprintln!(
            "[repro] warning: multiple executors configured ({}) via flags + environment; \
             using {} (precedence service > hosts > shards)",
            active.join(", "),
            active[0]
        );
    }
    if service.is_some() {
        (0, Vec::new(), service)
    } else if !hosts.is_empty() {
        (0, hosts, None)
    } else {
        (shards, Vec::new(), None)
    }
}

/// Resolve the unified fault-policy knobs shared by every multi-process
/// backend: flag > environment (`REPRO_RETRY`/`REPRO_IO_TIMEOUT`/
/// `REPRO_POOL`) > default, with an explicit flag winning over a differing
/// environment value with a warning — mirroring `resolve_executor`. Also
/// arms deterministic chaos from `REPRO_CHAOS_*`; an armed run auto-enables
/// the in-process fallback so injected fleet death degrades loudly instead
/// of failing the run.
fn resolve_fault(
    retry: Option<usize>,
    io_timeout: Option<f64>,
    pool: Option<bool>,
) -> (FaultPolicy, bool, Option<ChaosConfig>) {
    let mut fault = FaultPolicy::default();
    fault.retry_budget = pick_knob(
        "REPRO_RETRY",
        retry,
        env_knob::<usize>("REPRO_RETRY"),
        fault.retry_budget,
    );
    let default_secs = fault.io_timeout.map_or(0.0, |d| d.as_secs_f64());
    let secs = pick_knob(
        "REPRO_IO_TIMEOUT",
        io_timeout,
        env_knob::<f64>("REPRO_IO_TIMEOUT").filter(|s| *s >= 0.0 && s.is_finite()),
        default_secs,
    );
    fault.io_timeout = (secs > 0.0).then(|| std::time::Duration::from_secs_f64(secs));
    let pool = pick_knob(
        "REPRO_POOL",
        pool,
        std::env::var("REPRO_POOL")
            .ok()
            .as_deref()
            .and_then(parse_on_off),
        true,
    );
    let chaos = ChaosConfig::from_env();
    if let Some(c) = &chaos {
        eprintln!(
            "[repro] chaos armed (seed {}): drop {}‰, garble {}‰, delay {}‰; \
             enabling in-process fallback",
            c.seed, c.drop_per_mille, c.garble_per_mille, c.delay_per_mille
        );
        fault.fallback = true;
    }
    (fault, pool, chaos)
}

/// Resolve the cross-replication batch width: `--batch` > `REPRO_BATCH` >
/// 1 (scalar), with an explicit flag winning over a differing environment
/// value with a warning. Zero or unparseable environment values are
/// ignored, the same leniency as the other knobs.
fn resolve_batch(batch: Option<usize>) -> usize {
    pick_knob(
        "REPRO_BATCH",
        batch,
        env_knob::<usize>("REPRO_BATCH").filter(|n| *n >= 1),
        1,
    )
}

/// One fault knob: flag > environment > default, warning when an explicit
/// flag overrides a differing environment value.
fn pick_knob<T: PartialEq + Copy + std::fmt::Display>(
    var: &str,
    flag: Option<T>,
    env: Option<T>,
    default: T,
) -> T {
    match (flag, env) {
        (Some(f), Some(e)) if f != e => {
            eprintln!("[repro] warning: {var}={e} overridden by explicit flag ({f})");
            f
        }
        (Some(f), _) => f,
        (None, Some(e)) => e,
        (None, None) => default,
    }
}

/// Parse an environment variable with `FromStr`, ignoring unset or
/// unparseable values (the same leniency as `REPRO_SHARDS`).
fn env_knob<T: std::str::FromStr>(var: &str) -> Option<T> {
    std::env::var(var).ok().and_then(|v| v.trim().parse().ok())
}

/// Parse an `on`/`off` switch value (also accepting `true`/`false`/`1`/`0`).
fn parse_on_off(v: &str) -> Option<bool> {
    match v.trim() {
        "on" | "true" | "1" => Some(true),
        "off" | "false" | "0" => Some(false),
        _ => None,
    }
}

/// Parse a byte count with an optional `k`/`m`/`g` (binary) suffix.
fn parse_bytes(v: &str) -> Option<u64> {
    let v = v.trim().to_ascii_lowercase();
    let (num, mult) = match v.strip_suffix(['k', 'm', 'g']) {
        Some(n) => {
            let mult = match v.as_bytes()[v.len() - 1] {
                b'k' => 1u64 << 10,
                b'm' => 1 << 20,
                _ => 1 << 30,
            };
            (n, mult)
        }
        None => (v.as_str(), 1),
    };
    num.trim().parse::<u64>().ok()?.checked_mul(mult)
}

// --- service modes -------------------------------------------------------

/// `repro serve --listen ADDR [...]`: run the experiment service daemon.
fn serve_mode(args: &[String]) {
    let mut listen: Option<String> = None;
    let mut http: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut shards: Option<usize> = None;
    let mut hosts: Option<Vec<String>> = None;
    let mut queue_capacity = 256usize;
    let mut dispatchers = 1usize;
    let mut mem_cache = 64usize;
    let mut cache_dir: Option<std::path::PathBuf> = Some("results/cache".into());
    let mut cache_budget: Option<u64> = None;
    let mut retry: Option<usize> = None;
    let mut io_timeout: Option<f64> = None;
    let mut pool_flag: Option<bool> = None;
    let mut batch: Option<usize> = None;
    let mut fallback = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => match it.next() {
                Some(addr) if !addr.is_empty() => listen = Some(addr.clone()),
                _ => flag_err("--listen", "an address (host:port; port 0 = ephemeral)"),
            },
            "--http" => match it.next() {
                Some(addr) if !addr.is_empty() => http = Some(addr.clone()),
                _ => flag_err("--http", "an address (host:port; port 0 = ephemeral)"),
            },
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => threads = Some(n),
                _ => flag_err("--threads", "a positive integer"),
            },
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => shards = Some(n),
                _ => flag_err("--shards", "a non-negative integer (0 = in-process)"),
            },
            "--hosts" => match it.next().map(|v| parse_hosts(v)) {
                Some(list) if !list.is_empty() => hosts = Some(list),
                _ => flag_err("--hosts", "a comma-separated host:port list"),
            },
            "--queue-capacity" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => queue_capacity = n,
                _ => flag_err("--queue-capacity", "a positive integer"),
            },
            "--dispatchers" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => dispatchers = n,
                _ => flag_err("--dispatchers", "a positive integer"),
            },
            "--mem-cache" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => mem_cache = n,
                _ => flag_err("--mem-cache", "a non-negative entry count (0 disables)"),
            },
            "--cache-dir" => match it.next() {
                Some(d) if !d.is_empty() => cache_dir = Some(d.into()),
                _ => flag_err("--cache-dir", "a directory path"),
            },
            "--no-disk-cache" => cache_dir = None,
            "--cache-budget" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) if n >= 1 => cache_budget = Some(n),
                _ => flag_err("--cache-budget", "a positive byte count (suffix k/m/g ok)"),
            },
            "--retry" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => retry = Some(n),
                _ => flag_err("--retry", "a non-negative re-dispatch count"),
            },
            "--io-timeout" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(s) if s >= 0.0 && s.is_finite() => io_timeout = Some(s),
                _ => flag_err("--io-timeout", "seconds (0 disables the timeout)"),
            },
            "--pool" => match it.next().and_then(|v| parse_on_off(v)) {
                Some(b) => pool_flag = Some(b),
                _ => flag_err("--pool", "on or off"),
            },
            "--batch" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => batch = Some(n),
                _ => flag_err("--batch", "a positive replication count (1 = scalar)"),
            },
            // Environment-exported so shard/worker subprocesses inherit it.
            "--engine" => match it.next().map(|v| v.as_str()) {
                Some(v @ ("interp" | "lowered")) => std::env::set_var("REPRO_ENGINE", v),
                _ => flag_err("--engine", "interp or lowered"),
            },
            "--profile" => std::env::set_var("REPRO_PROFILE", "1"),
            "--fallback" => fallback = true,
            other => {
                eprintln!("unknown serve flag: {other}");
                std::process::exit(2);
            }
        }
    }
    if shards.is_some_and(|n| n >= 1) && hosts.is_some() {
        eprintln!(
            "conflicting executor flags: --shards and --hosts select different backends; \
             pass at most one (precedence with environment variables is hosts > shards)"
        );
        std::process::exit(2);
    }
    let Some(addr) = listen else {
        eprintln!("usage: repro serve --listen ADDR [--http ADDR] [--threads N] [--shards N | --hosts a:p,b:p] [--batch N] [--engine interp|lowered] [--profile] [--queue-capacity N] [--dispatchers N] [--mem-cache N] [--cache-dir DIR | --no-disk-cache] [--cache-budget BYTES] [--retry N] [--io-timeout SECS] [--pool on|off] [--fallback]");
        std::process::exit(2);
    };
    let threads = threads
        .or_else(|| sim_runtime::env_threads("REPRO_THREADS"))
        .unwrap_or_else(sim_runtime::default_threads);
    let (shards, hosts, _) = resolve_executor(shards, hosts, None, false);
    let (mut fault, pool, chaos) = resolve_fault(retry, io_timeout, pool_flag);
    let batch = resolve_batch(batch);
    if fallback {
        fault.fallback = true;
    }
    let exec = if !hosts.is_empty() {
        Exec::remote(threads, hosts)
    } else if shards >= 1 {
        Exec::sharded(threads, shards)
    } else {
        Exec::in_process(threads)
    };
    let exec = exec
        .with_fault(fault)
        .with_pool(pool)
        .with_chaos(chaos)
        .with_batch(batch);
    eprintln!(
        "[serve] backend: {}; queue capacity {queue_capacity}; {dispatchers} dispatcher(s); \
         mem cache {mem_cache} entries; disk cache {}{}",
        exec.label(),
        cache_dir
            .as_ref()
            .map(|d| d.display().to_string())
            .unwrap_or_else(|| "disabled".into()),
        cache_budget
            .map(|b| format!(" (budget {b} bytes)"))
            .unwrap_or_default(),
    );
    let cfg = ServiceConfig {
        exec,
        queue_capacity,
        dispatchers,
        mem_cache_entries: mem_cache,
        cache_dir,
        cache_budget,
        ..Default::default()
    };
    let handle = ServiceHandle::start(cfg, std::sync::Arc::new(bench::shard::worker_registry()));
    // The HTTP gateway (if any) binds and announces `http <addr>` BEFORE
    // `serve` announces `serving <addr>`, so harnesses reading stdout see
    // both addresses in a fixed order.
    let gateway = http.map(|http_addr| {
        let listener = match std::net::TcpListener::bind(&http_addr) {
            Ok(l) => l,
            Err(e) => {
                eprintln!("[serve] cannot bind http gateway {http_addr}: {e}");
                std::process::exit(1);
            }
        };
        let local = listener
            .local_addr()
            .expect("bound listener has an address");
        println!("http {local}");
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        // `POST /submit?spec=mm1&...` builds the same canonical manifest
        // as `repro submit mm1` (same defaults, same seeding), so both
        // entry points land on the same cache key.
        let spec: std::sync::Arc<sim_runtime::service::SpecParser> =
            std::sync::Arc::new(|params: &std::collections::BTreeMap<String, String>| {
                let parse = |key: &str, default: f64| -> Result<f64, String> {
                    match params.get(key) {
                        Some(v) => v
                            .parse::<f64>()
                            .map_err(|_| format!("{key} must be a number, got {v:?}")),
                        None => Ok(default),
                    }
                };
                let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
                    match params.get(key) {
                        Some(v) => v
                            .parse::<u64>()
                            .map_err(|_| format!("{key} must be an integer, got {v:?}")),
                        None => Ok(default),
                    }
                };
                match params.get("spec").map(String::as_str) {
                    Some("mm1") => {
                        let horizon = parse("horizon", 200.0)?;
                        let warmup = parse("warmup", 20.0)?;
                        let reps = parse_u64("reps", 2)?;
                        let seed = parse_u64("seed", 0xCAFE)?;
                        // NaN params must be rejected too, hence the
                        // explicit is_finite checks.
                        if !horizon.is_finite()
                            || horizon <= 0.0
                            || !warmup.is_finite()
                            || warmup < 0.0
                            || reps < 1
                        {
                            return Err(
                                "mm1 needs horizon > 0, warmup >= 0 and reps >= 1".to_string()
                            );
                        }
                        Ok(bench::shard::Mm1ReplicationJob::manifest(
                            horizon, warmup, reps, seed,
                        ))
                    }
                    Some(other) => Err(format!("unknown job spec {other:?} (available: mm1)")),
                    None => Err("missing spec parameter (available: mm1)".to_string()),
                }
            });
        let service = handle.service();
        let thread = std::thread::spawn(move || {
            if let Err(e) = sim_runtime::service::serve_http(service, listener, Some(spec)) {
                eprintln!("[serve] http gateway: {e}");
            }
        });
        (local, thread)
    });
    match sim_runtime::service::serve(handle.service(), &addr) {
        Ok(()) => {
            eprintln!("[serve] shutdown requested; stopping dispatchers");
            handle.stop();
            if let Some((local, thread)) = gateway {
                // The gateway notices `stop` on its next accept; poke the
                // port with a bare connect to unblock a parked accept.
                let _ = std::net::TcpStream::connect(local);
                let _ = thread.join();
            }
        }
        Err(e) => {
            eprintln!("[serve] {e}");
            std::process::exit(1);
        }
    }
}

/// Exit 2 with a uniform "flag needs X" usage error.
fn flag_err(flag: &str, what: &str) -> ! {
    eprintln!("{flag} needs {what}");
    std::process::exit(2);
}

/// Parse the value of a `--service` flag from the argument stream.
fn take_service_value(it: &mut std::slice::Iter<'_, String>) -> String {
    match it.next() {
        Some(addr) if !addr.is_empty() => addr.clone(),
        _ => flag_err("--service", "a daemon address (host:port)"),
    }
}

/// Resolve the client-side daemon address (`--service` or `REPRO_SERVICE`).
fn require_service(addr: Option<String>) -> String {
    match addr.or_else(|| {
        std::env::var("REPRO_SERVICE")
            .ok()
            .filter(|s| !s.is_empty())
    }) {
        Some(a) => a,
        None => {
            eprintln!("this mode needs --service HOST:PORT (or REPRO_SERVICE)");
            std::process::exit(2);
        }
    }
}

fn connect_service(addr: &str) -> ServiceClient {
    match ServiceClient::connect(addr, std::time::Duration::from_secs(10)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("[repro] cannot reach service {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// `repro submit --service a:p mm1 [...]`: submit one job, print its id
/// and disposition (queued / cache-hit / coalesced).
fn submit_mode(args: &[String]) {
    let mut service: Option<String> = None;
    let mut spec: Option<String> = None;
    let mut horizon = 200.0f64;
    let mut warmup = 20.0f64;
    let mut reps = 2u64;
    let mut seed = 0xCAFEu64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--service" => service = Some(take_service_value(&mut it)),
            "--horizon" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(h) if h > 0.0 => horizon = h,
                _ => flag_err("--horizon", "a positive number of seconds"),
            },
            "--warmup" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(w) if w >= 0.0 => warmup = w,
                _ => flag_err("--warmup", "a non-negative number of seconds"),
            },
            "--reps" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(n) if n >= 1 => reps = n,
                _ => flag_err("--reps", "a positive integer"),
            },
            "--seed" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(s) => seed = s,
                _ => flag_err("--seed", "an integer"),
            },
            other if other.starts_with("--") => {
                eprintln!("unknown submit flag: {other}");
                std::process::exit(2);
            }
            name => spec = Some(name.to_string()),
        }
    }
    let addr = require_service(service);
    let manifest = match spec.as_deref() {
        Some("mm1") => bench::shard::Mm1ReplicationJob::manifest(horizon, warmup, reps, seed),
        Some(other) => {
            eprintln!("unknown job spec {other:?} (available: mm1)");
            std::process::exit(2);
        }
        None => {
            eprintln!("usage: repro submit --service a:p mm1 [--horizon S] [--warmup S] [--reps N] [--seed N]");
            std::process::exit(2);
        }
    };
    match connect_service(&addr).submit(&manifest, 1) {
        Ok((job, disposition)) => println!("submitted {job} ({disposition})"),
        Err(e) => {
            eprintln!("[submit] {e}");
            std::process::exit(1);
        }
    }
}

enum JobVerb {
    Status,
    Fetch,
    Watch,
    Cancel,
    Trace,
}

/// `repro status|fetch|watch|cancel|trace --service a:p ID [--out FILE]`.
fn job_verb_mode(args: &[String], verb: JobVerb) {
    let mut service: Option<String> = None;
    let mut id: Option<u64> = None;
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--service" => service = Some(take_service_value(&mut it)),
            "--out" => match it.next() {
                Some(path) if !path.is_empty() => out = Some(path.clone()),
                _ => {
                    eprintln!("--out needs a file path");
                    std::process::exit(2);
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            n => match n.parse::<u64>() {
                Ok(v) => id = Some(v),
                Err(_) => {
                    eprintln!("job id must be an integer, got {n:?}");
                    std::process::exit(2);
                }
            },
        }
    }
    let addr = require_service(service);
    let Some(id) = id else {
        eprintln!("this mode needs a job id (as printed by `repro submit`)");
        std::process::exit(2);
    };
    if out.is_some() && !matches!(verb, JobVerb::Fetch | JobVerb::Trace) {
        eprintln!("--out only applies to `repro fetch` and `repro trace`");
        std::process::exit(2);
    }
    let job = sim_runtime::JobId(id);
    let mut client = connect_service(&addr);
    let outcome = match verb {
        JobVerb::Status => client.status(job).map(|state| println!("{job}: {state}")),
        JobVerb::Cancel => client.cancel(job).map(|()| println!("{job}: cancelled")),
        JobVerb::Watch => client
            .fetch_blob_with_progress(job, &mut |p| {
                println!(
                    "progress {}/{} (point {} rep {})",
                    p.done, p.total, p.point, p.replication
                );
            })
            .map(|blob| println!("done: {} bytes", blob.len())),
        JobVerb::Trace => client.trace(job).map(|json| match &out {
            Some(path) => match std::fs::write(path, &json) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => {
                    eprintln!("[trace] cannot write {path}: {e}");
                    std::process::exit(1);
                }
            },
            None => println!("{json}"),
        }),
        JobVerb::Fetch => client.fetch_blob(job).map(|blob| {
            // An undecodable blob is corruption or version skew — report
            // it, never pass it off as a legitimately empty result.
            let slots = match sim_runtime::service::cache::decode_blob(&blob) {
                Ok(s) => s.len(),
                Err(e) => {
                    eprintln!("[fetch] {job}: result blob does not decode: {e}");
                    std::process::exit(1);
                }
            };
            println!("{job}: {slots} slot(s), {} bytes", blob.len());
            if let Some(path) = &out {
                match std::fs::write(path, &blob) {
                    Ok(()) => println!("wrote {path}"),
                    Err(e) => {
                        eprintln!("[fetch] cannot write {path}: {e}");
                        std::process::exit(1);
                    }
                }
            }
        }),
    };
    if let Err(e) = outcome {
        eprintln!("[repro] {e}");
        std::process::exit(1);
    }
}

enum DaemonVerb {
    Stats,
    Stop,
}

/// `repro stats [--json]|stop --service a:p`.
fn daemon_verb_mode(args: &[String], verb: DaemonVerb) {
    let mut service: Option<String> = None;
    let mut json = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--service" => service = Some(take_service_value(&mut it)),
            "--json" => json = true,
            other => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
        }
    }
    if json && !matches!(verb, DaemonVerb::Stats) {
        eprintln!("--json only applies to `repro stats`");
        std::process::exit(2);
    }
    let addr = require_service(service);
    let mut client = connect_service(&addr);
    let outcome = match verb {
        DaemonVerb::Stats => client.stats().map(|s| {
            if json {
                // The same encoder the HTTP gateway serves on GET /stats.
                println!("{}", s.render_json());
                return;
            }
            println!("submitted {}", s.submitted);
            println!(
                "hits {} (mem {}, disk {})",
                s.hits(),
                s.hits_mem,
                s.hits_disk
            );
            println!("coalesced {}", s.coalesced);
            println!("executed {} (failed {})", s.executed, s.failed);
            println!("rejected {}", s.rejected);
            println!("cancelled {}", s.cancelled);
            println!(
                "fleet restarts {}, quarantined {}, fallbacks {}",
                s.restarts, s.quarantined, s.fallbacks
            );
            println!(
                "cache evicted {}, corrupt deleted {}",
                s.cache_evicted, s.cache_corrupt
            );
        }),
        DaemonVerb::Stop => client
            .shutdown()
            .map(|()| println!("daemon at {addr} stopped")),
    };
    if let Err(e) = outcome {
        eprintln!("[repro] {e}");
        std::process::exit(1);
    }
}

/// `repro cache gc [--cache-dir DIR] [--budget BYTES]`: sweep the disk
/// result cache — delete corrupt entries, then evict least-recently-used
/// entries until the total fits the budget (no budget = hygiene only).
fn cache_mode(args: &[String]) {
    let mut dir: std::path::PathBuf = "results/cache".into();
    let mut budget: Option<u64> = None;
    let mut verb: Option<String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--cache-dir" => match it.next() {
                Some(d) if !d.is_empty() => dir = d.into(),
                _ => flag_err("--cache-dir", "a directory path"),
            },
            "--budget" => match it.next().and_then(|v| parse_bytes(v)) {
                Some(n) => budget = Some(n),
                _ => flag_err("--budget", "a byte count (suffix k/m/g ok)"),
            },
            other if other.starts_with("--") => {
                eprintln!("unknown cache flag: {other}");
                std::process::exit(2);
            }
            v if verb.is_none() => verb = Some(v.to_string()),
            other => {
                eprintln!("unexpected argument: {other}");
                std::process::exit(2);
            }
        }
    }
    match verb.as_deref() {
        Some("gc") => {
            let store = sim_runtime::service::cache::DiskStore::new(&dir).with_budget(budget);
            let r = store.gc();
            println!(
                "{}: scanned {}, deleted {} corrupt, evicted {} over budget, {} -> {} bytes",
                dir.display(),
                r.scanned,
                r.corrupt_deleted,
                r.evicted,
                r.bytes_before,
                r.bytes_after
            );
        }
        _ => {
            eprintln!("usage: repro cache gc [--cache-dir DIR] [--budget BYTES]");
            std::process::exit(2);
        }
    }
}

fn run_all(opts: &Opts) {
    params();
    for pud in [0.001, 0.3, 10.0] {
        cpu_figs(opts, pud, true);
        cpu_figs(opts, pud, false);
    }
    delta_table(opts, 0.001, "Table IV (Power_Up_Delay = 0.001 s)");
    delta_table(opts, 0.3, "Table V (Power_Up_Delay = 0.3 s)");
    delta_table(opts, 10.0, "Table VI (Power_Up_Delay = 10 s)");
    simple_tables(opts);
    table10();
    node_fig(opts, Workload::Closed { interval: 1.0 }, "fig14");
    node_fig(opts, Workload::Open { rate: 1.0 }, "fig15");
    erlang(opts);
    memory(opts);
    seeds(opts);
    trigger(opts);
    dot();
    validate(opts);
    steady(opts);
}

fn cpu_cfg(opts: &Opts) -> CpuComparisonConfig {
    CpuComparisonConfig {
        horizon: if opts.quick { 300.0 } else { 5000.0 },
        exec: opts.exec(),
        rule: opts.adaptive_rule(),
        ..Default::default()
    }
}

/// The CPU-comparison sweep for one Power-Up Delay, run at most once per
/// process. `opts` is fixed for the process and the sweep is seeded, so
/// the PUD is the only input that varies: every later fig4–9/table4–6
/// view of the same PUD renders from the first result.
fn cpu_comparison(opts: &Opts, pud: f64) -> Rc<CpuComparison> {
    thread_local! {
        static SWEEPS: RefCell<HashMap<u64, Rc<CpuComparison>>> = RefCell::default();
    }
    SWEEPS.with(|sweeps| {
        let mut sweeps = sweeps.borrow_mut();
        let sweep = sweeps.entry(pud.to_bits()).or_insert_with(|| {
            Rc::new(run_cpu_comparison(pud, &fig4_9_pdt_grid(), &cpu_cfg(opts)))
        });
        Rc::clone(sweep)
    })
}

fn cpu_figs(opts: &Opts, pud: f64, states: bool) {
    let c = cpu_comparison(opts, pud);
    let (kind, csv) = if states {
        ("states", render_state_csv(&c))
    } else {
        ("energy", render_energy_csv(&c))
    };
    let fig = match (pud, states) {
        (d, true) if d < 0.01 => "fig4",
        (d, true) if d < 1.0 => "fig5",
        (_, true) => "fig6",
        (d, false) if d < 0.01 => "fig7",
        (d, false) if d < 1.0 => "fig8",
        (_, false) => "fig9",
    };
    match write_artifact(&format!("{fig}_{kind}.csv"), &csv) {
        Ok(path) => println!("[{fig}] PUD={pud}s {kind} -> {path}"),
        Err(e) => eprintln!("[{fig}] failed to write artifact: {e}"),
    }
    if states {
        report_budget(
            c.points.iter().map(|p| (p.replications, p.converged)),
            opts.adaptive_rule().as_ref(),
            "the widest energy curve",
        );
    }
    if !states {
        // Quick textual read of the curve shape.
        let rows = c.energy_rows();
        let first = rows.first().unwrap();
        let last = rows.last().unwrap();
        println!(
            "  sim energy: {:.2} J @ PDT={} -> {:.2} J @ PDT={} ({} with threshold)",
            first.1,
            first.0,
            last.1,
            last.0,
            if last.1 > first.1 { "rises" } else { "falls" }
        );
    }
}

fn delta_table(opts: &Opts, pud: f64, title: &str) {
    let c = cpu_comparison(opts, pud);
    print!("{}", render_delta_table(title, &c.delta_table()));
    println!();
}

fn simple_tables(opts: &Opts) {
    let horizon = if opts.quick { 2000.0 } else { 50_000.0 };
    let r = run_simple_system(horizon, 0xABCD);
    print!("{}", render_simple_system(&r));
    println!();
}

fn table10() {
    print!("{}", render_table_x(&run_table_x(0xBEEF)));
    println!();
}

fn node_fig(opts: &Opts, workload: Workload, fig: &str) {
    let open = matches!(workload, Workload::Open { .. });
    let cfg = NodeSweepConfig {
        horizon: if opts.quick { 200.0 } else { 900.0 },
        replications: if open {
            if opts.quick {
                2
            } else {
                8
            }
        } else {
            1
        },
        exec: opts.exec(),
        open_rule: opts.adaptive_rule(),
        ..Default::default()
    };
    let sweep = run_node_sweep(workload, &FIG14_15_PDT_GRID, &cfg);
    let csv = render_node_sweep_csv(&sweep);
    match write_artifact(&format!("{fig}_breakdown.csv"), &csv) {
        Ok(path) => println!("[{fig}] {workload:?} -> {path}"),
        Err(e) => eprintln!("[{fig}] failed to write artifact: {e}"),
    }
    if open {
        report_budget(
            sweep.points.iter().map(|p| (p.replications, p.converged)),
            cfg.open_rule.as_ref(),
            "total energy",
        );
    }
    let a = sweep.optimum_analysis();
    println!(
        "  optimum PDT = {} s: {:.2} J  ({:.0}% less than immediate power-down {:.2} J, {:.0}% less than never {:.2} J)",
        a.optimal_pdt,
        a.optimal_energy_j,
        a.savings_vs_immediate_pct,
        a.immediate_energy_j,
        a.savings_vs_never_pct,
        a.never_energy_j,
    );
}

fn params() {
    println!("Table II  — simulation parameters: horizon 1000 s, λ = 1/s, mean service 0.1 s");
    println!("Table III — power rates (mW):");
    let cpu = energy::PXA271_CPU;
    let radio = energy::CC2420_RADIO;
    println!(
        "  CPU   standby {:>10} idle {:>8} powerup {:>10} active {:>8}",
        cpu.sleep.milliwatts(),
        cpu.idle.milliwatts(),
        cpu.wakeup.milliwatts(),
        cpu.active.milliwatts()
    );
    println!(
        "  Radio standby {:>10} idle {:>8} powerup {:>10} active {:>8}",
        radio.sleep.milliwatts(),
        radio.idle.milliwatts(),
        radio.wakeup.milliwatts(),
        radio.active.milliwatts()
    );
    let m = energy::IMOTE2_MEASURED;
    println!(
        "Table VII — measured IMote2 (mW): idle {} rx {} comp {} tx {}",
        m.wait.milliwatts(),
        m.receiving.milliwatts(),
        m.computation.milliwatts(),
        m.transmitting.milliwatts()
    );
    let p = des::NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, 0.0);
    println!(
        "Table XI  — node timings (s): radio startup {}, listen {}, tx/rx {}, CPU PUD {}, DVS delay {}, DVS levels {:?}, task/job {}",
        p.radio_startup,
        p.channel_listen,
        p.tx_rx_time,
        p.cpu_power_up_delay,
        p.dvs_overhead,
        p.dvs_levels,
        p.task_delay_per_job
    );
    println!(
        "  intra-cycle CPU gap = {} s (the Fig. 14 optimum)",
        p.intra_cycle_gap()
    );
    println!();
}

fn erlang(opts: &Opts) {
    let stages: &[u32] = if opts.quick {
        &[1, 4, 16]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    println!("ABL-ERLANG — phase-type Markovization error (T=0.3 s, D=0.3 s)");
    println!(
        "{:>7} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "stages", "standby", "powerup", "idle", "active", "max |err|"
    );
    for row in erlang_ablation(0.3, 0.3, stages, 42) {
        println!(
            "{:>7} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>12.4}",
            row.stages, row.probs[0], row.probs[1], row.probs[2], row.probs[3], row.max_abs_error
        );
    }
    println!();
}

fn memory(opts: &Opts) {
    let horizon = if opts.quick { 2000.0 } else { 20_000.0 };
    println!("ABL-MEMORY — Power_Down_Threshold under the three memory policies");
    println!(
        "{:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "policy", "standby", "powerup", "idle", "active", "wakeups"
    );
    let params = CpuModelParams::paper_defaults(0.5, 0.3);
    for row in memory_ablation(&params, horizon, 7) {
        println!(
            "{:>12} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.0}",
            format!("{:?}", row.policy),
            row.probs[0],
            row.probs[1],
            row.probs[2],
            row.probs[3],
            row.wakeups
        );
    }
    println!();
}

fn validate(opts: &Opts) {
    use wsn::experiments::validation::{render_validation_csv, run_validation};
    let horizon = if opts.quick { 200.0 } else { 900.0 };
    let exec = opts.exec();
    let open_rule = opts.adaptive_rule();
    for (name, workload) in [
        ("closed", Workload::Closed { interval: 1.0 }),
        ("open", Workload::Open { rate: 1.0 }),
    ] {
        // The closed model is deterministic: one run per point is exact.
        // The open model averages adaptively unless --fixed-reps.
        let rule = match workload {
            Workload::Closed { .. } => None,
            Workload::Open { .. } => open_rule.as_ref(),
        };
        let rows = run_validation(workload, &FIG14_15_PDT_GRID, horizon, 0xDE5, &exec, rule);
        let worst = rows.iter().map(|r| r.rel_diff).fold(0.0f64, f64::max);
        let reps: u64 = rows.iter().map(|r| r.replications).sum();
        match write_artifact(
            &format!("validate_{name}.csv"),
            &render_validation_csv(&rows),
        ) {
            Ok(path) => println!(
                "[validate] {name}: worst petri-vs-des relative energy gap {worst:.4} ({reps} replications) -> {path}"
            ),
            Err(e) => eprintln!("[validate] {name}: {e}"),
        }
    }
    println!();
}

fn trigger(opts: &Opts) {
    let horizon = if opts.quick { 2000.0 } else { 20_000.0 };
    println!("ABL-TRIGGER — Poisson (trigger-driven) vs periodic (schedule-driven) arrivals");
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "mode", "standby", "powerup", "idle", "active", "wakeups", "energy (J)"
    );
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    for row in trigger_ablation(&params, horizon, 17) {
        println!(
            "{:>10} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.0} {:>12.2}",
            if row.trigger_driven {
                "trigger"
            } else {
                "schedule"
            },
            row.probs[0],
            row.probs[1],
            row.probs[2],
            row.probs[3],
            row.wakeups,
            row.energy_j
        );
    }
    println!();
}

fn dot() {
    let cpu = wsn::build_cpu_model(&CpuModelParams::paper_defaults(0.3, 0.3));
    let simple = wsn::build_simple_node(&wsn::SimpleNodeParams::default());
    let closed = wsn::build_node_model(&des::NodeSimParams::paper_defaults(
        Workload::Closed { interval: 1.0 },
        0.00177,
    ));
    let open = wsn::build_node_model(&des::NodeSimParams::paper_defaults(
        Workload::Open { rate: 1.0 },
        0.00177,
    ));
    for (name, net) in [
        ("fig3_cpu.dot", &cpu.net),
        ("fig10_simple.dot", &simple.net),
        ("fig12_closed.dot", &closed.net),
        ("fig13_open.dot", &open.net),
    ] {
        match write_artifact(name, &petri_core::dot::to_dot(net)) {
            Ok(path) => println!("[dot] {path}"),
            Err(e) => eprintln!("[dot] {name}: {e}"),
        }
    }
    println!();
}

fn steady(opts: &Opts) {
    use petri_core::prelude::*;
    let horizon = if opts.quick { 500.0 } else { 2000.0 };
    let rule = StoppingRule::relative(if opts.quick { 0.05 } else { 0.02 }).with_budget(
        8,
        if opts.quick { 64 } else { 256 },
        8,
    );
    println!(
        "STEADY — adaptive replications until the 95% CI of P(standby) is within {:.0}% (budget {}..{})",
        rule.relative.unwrap() * 100.0,
        rule.min_replications,
        rule.max_replications,
    );
    println!(
        "{:>10} {:>12} {:>14} {:>14} {:>10}",
        "PDT (s)", "replications", "mean standby", "CI half-width", "settled"
    );
    for pdt in [0.1, 0.3, 0.5, 1.0] {
        let model = wsn::build_cpu_model(&CpuModelParams::paper_defaults(pdt, 0.3));
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(horizon));
        let r_standby = sim.reward_place(model.places.stand_by);
        let a = run_replications_adaptive(&sim, 0x57EAD, &rule, &[r_standby.index()], opts.threads)
            .expect("CPU net runs");
        let ci = a.summary.ci(r_standby.index(), ConfidenceLevel::P95);
        println!(
            "{:>10} {:>12} {:>14.5} {:>14.5} {:>10}",
            pdt,
            a.summary.replications,
            ci.mean,
            ci.half_width,
            if a.converged { "yes" } else { "BUDGET" }
        );
    }
    println!();
}

fn seeds(opts: &Opts) {
    let horizon = if opts.quick { 500.0 } else { 2000.0 };
    let counts: &[u64] = if opts.quick {
        &[4, 16]
    } else {
        &[4, 8, 16, 32, 64]
    };
    println!("ABL-SEED — 95% CI half-width of P(standby) vs replications");
    println!(
        "{:>14} {:>14} {:>16}",
        "replications", "mean standby", "CI half-width"
    );
    let params = CpuModelParams::paper_defaults(0.3, 0.3);
    for row in seed_ablation(&params, horizon, counts, 0xCAFE, &opts.exec()) {
        println!(
            "{:>14} {:>14.5} {:>16.5}",
            row.replications, row.mean_standby, row.ci_half_width
        );
    }
    println!();
}
