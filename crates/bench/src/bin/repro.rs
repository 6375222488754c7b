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
//! Execution is chosen by flags alone, parsed once by [`ExecFlags`] (for
//! `repro serve` too) and threaded through every experiment:
//!
//! * `--threads N` (default one worker per core) — worker threads per
//!   process;
//! * `--shards N` (default 0 = in-process) — worker *subprocesses*: the
//!   portable experiment grids are partitioned across `N` re-invocations
//!   of this binary as `repro --worker`, each running `--threads` threads;
//! * `--hosts a:p,b:p,…` — **remote TCP workers**: the grids are
//!   partitioned across peers running `repro --worker --listen <addr>`;
//! * `--service a:p` (not for `repro serve`) — route every grid dispatch
//!   through an **experiment service daemon** (`repro serve`): its
//!   bounded job queue, single-flight dedup and content-addressed result
//!   cache. Results are **byte-identical** whatever the executor —
//!   threads, shards, hosts, or served (cached or fresh).
//!
//!   Giving more than one of `--shards N≥1`/`--hosts`/`--service` is an
//!   error.
//! * `--profile` (exported as `REPRO_PROFILE=1`, so worker subprocesses
//!   inherit it) — arm the per-transition engine profiler: firing counts
//!   and attributed nanoseconds per transition, printed as a table on
//!   stderr after the run and folded into job traces as counter events.
//!   Observation only — artifacts are byte-identical with or without it
//!   (CI diffs them).
//! * `--retry N` / `--io-timeout SECS` / `--pool on|off` — the unified
//!   fault policy of the multi-process executors: per-chunk re-dispatch
//!   budget (default 2), the silent-peer IO timeout in seconds (default
//!   15; 0 disables), and whether workers/connections stay warm in the
//!   process-global pool across dispatches (default on).
//!
//! Every stochastic sweep (fig4–9 / tables IV–VI, fig15, validate/open)
//! runs replications per point until its watched 95 % CIs settle, under
//! `wsn::experiments::paper_rule` (`quick_rule` with `--quick`); the
//! deterministic closed-node sweeps (fig14, validate/closed) run one
//! replication per point.
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
//! repro serve --listen ADDR [--http ADDR] [--threads N] [--shards N|--hosts ...]
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
//! Instrumentation: every tier records into one layer
//! (`sim_core::obs`). Ending a span (submit, queue-wait, dispatch,
//! pool-checkout, slot, engine-run) feeds its histogram and, under a job
//! trace, the process-wide span ring; worker subprocesses ship their spans
//! back in an advisory frame. The gateway's `GET /metrics` renders the
//! histograms as Prometheus text; fetch a job's trace with `repro trace`
//! or `GET /jobs/<id>/trace`; failing jobs dump their last spans to a
//! flight record file. Set `REPRO_TELEMETRY=off` to silence all of it;
//! artifacts are byte-identical either way.
//!
//! `repro --worker [--listen ADDR]` is not a user-facing mode: it serves
//! task-manifest frames against the job registry
//! (`bench::shard::worker_registry`) — over stdin/stdout by default, or
//! over accepted TCP connections with `--listen` (binding port 0 announces
//! the ephemeral port as `listening <addr>` on stdout; the process exits
//! on an explicit shutdown frame).

use bench::write_artifact;
use des::Workload;
use sim_core::StoppingRule;
use sim_runtime::{ChaosConfig, Exec, FaultPolicy, ServiceClient, ServiceConfig, ServiceHandle};
use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
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
    /// The execution backend every experiment runs on, from
    /// [`ExecFlags::exec`].
    exec: Exec,
}

impl Opts {
    /// The one replication budget shared by every stochastic sweep — the
    /// open-workload sweeps (fig15, validate/open, watching their energy
    /// estimates) and the CPU comparison (figs 4–9 / tables IV–VI,
    /// watching whichever of the DES/Petri energy CIs is widest). Sized
    /// down under `--quick`.
    fn rule(&self) -> StoppingRule {
        if self.quick {
            wsn::experiments::quick_rule()
        } else {
            wsn::experiments::paper_rule()
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
    let mut flags = ExecFlags::default();
    let mut targets: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            flag if flags.take(flag, &mut it) => {}
            other if other.starts_with("--") => {
                eprintln!("unknown flag: {other}");
                std::process::exit(2);
            }
            target => targets.push(target),
        }
    }
    let opts = Opts {
        quick,
        exec: flags.exec(),
    };

    if targets.is_empty() {
        eprintln!(
            "usage: repro [--quick] [--threads N] [--shards N] [--hosts a:p,b:p] [--service a:p] [--profile] [--retry N] [--io-timeout SECS] [--pool on|off] <target>...   (try: repro all)\n       repro serve --listen a:p [--http a:p] | repro submit|status|fetch|watch|cancel|trace|stats|stop --service a:p ... | repro cache gc [--cache-dir DIR] [--budget BYTES]"
        );
        std::process::exit(2);
    }
    eprintln!("[repro] executor: {}", opts.exec.label());

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
fn report_budget(points: impl Iterator<Item = (u64, bool)>, rule: &StoppingRule, watch: &str) {
    println!(
        "{}",
        wsn::report::render_budget_summary(points, rule, watch)
    );
}

/// The executor flags `repro` and `repro serve` share. Only
/// [`ExecFlags::exec`] turns them into an [`Exec`], so both modes choose
/// and validate a backend the same way.
#[derive(Default)]
struct ExecFlags {
    threads: Option<usize>,
    shards: usize,
    hosts: Option<Vec<String>>,
    service: Option<String>,
    retry: Option<usize>,
    io_timeout: Option<std::time::Duration>,
    pool: Option<bool>,
}

impl ExecFlags {
    /// Consume `flag` (and its value from `it`) if it is an executor
    /// flag, exiting 2 on a bad value; `false` if it is not one.
    fn take(&mut self, flag: &str, it: &mut std::slice::Iter<'_, String>) -> bool {
        match flag {
            "--threads" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) if n >= 1 => self.threads = Some(n),
                _ => flag_err("--threads", "a positive integer"),
            },
            "--shards" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => self.shards = n,
                _ => flag_err("--shards", "a non-negative integer (0 = in-process)"),
            },
            "--hosts" => {
                let list: Vec<String> = it
                    .next()
                    .map(|v| {
                        v.split(',')
                            .map(str::trim)
                            .filter(|s| !s.is_empty())
                            .map(String::from)
                            .collect()
                    })
                    .unwrap_or_default();
                if list.is_empty() {
                    flag_err("--hosts", "a comma-separated host:port list");
                }
                self.hosts = Some(list);
            }
            "--service" => self.service = Some(take_service_value(it)),
            "--retry" => match it.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => self.retry = Some(n),
                _ => flag_err("--retry", "a non-negative re-dispatch count"),
            },
            "--io-timeout" => match it
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .and_then(|s| std::time::Duration::try_from_secs_f64(s).ok())
            {
                Some(d) => self.io_timeout = Some(d),
                _ => flag_err("--io-timeout", "seconds (0 disables the timeout)"),
            },
            "--pool" => match it.next().and_then(|v| parse_on_off(v)) {
                Some(b) => self.pool = Some(b),
                _ => flag_err("--pool", "on or off"),
            },
            // Exported via the environment rather than plumbed through
            // `Exec` so shard/worker subprocesses profile too.
            "--profile" => std::env::set_var("REPRO_PROFILE", "1"),
            _ => return false,
        }
        true
    }

    /// The selected backend with its fault knobs, exiting 2 if more than
    /// one of `--shards N≥1`, `--hosts` and `--service` was given. Also
    /// arms deterministic chaos from `REPRO_CHAOS_*`; an armed run
    /// auto-enables the in-process fallback so injected fleet death
    /// degrades loudly instead of failing the run.
    fn exec(self) -> Exec {
        let threads = self.threads.unwrap_or_else(sim_core::default_threads);
        let mut chosen: Vec<(&str, Exec)> = Vec::new();
        if self.shards >= 1 {
            chosen.push(("--shards", Exec::sharded(threads, self.shards)));
        }
        if let Some(hosts) = self.hosts {
            chosen.push(("--hosts", Exec::remote(threads, hosts)));
        }
        if let Some(addr) = self.service {
            chosen.push(("--service", Exec::service(threads, addr)));
        }
        if chosen.len() > 1 {
            let names: Vec<&str> = chosen.iter().map(|(flag, _)| *flag).collect();
            eprintln!(
                "conflicting executor flags: {} select different backends; pass at most one",
                names.join(" and ")
            );
            std::process::exit(2);
        }
        let mut fault = FaultPolicy::default();
        if let Some(n) = self.retry {
            fault.retry_budget = n;
        }
        if let Some(d) = self.io_timeout {
            fault.io_timeout = (!d.is_zero()).then_some(d);
        }
        let chaos = ChaosConfig::from_env();
        if let Some(c) = &chaos {
            eprintln!(
                "[repro] chaos armed (seed {}): drop {}‰, garble {}‰, delay {}‰; \
                 enabling in-process fallback",
                c.seed, c.drop_per_mille, c.garble_per_mille, c.delay_per_mille
            );
            fault.fallback = true;
        }
        chosen
            .pop()
            .map_or_else(|| Exec::in_process(threads), |(_, exec)| exec)
            .with_fault(fault)
            .with_pool(self.pool.unwrap_or(true))
            .with_chaos(chaos)
    }
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
    let mut flags = ExecFlags::default();
    let mut queue_capacity = 256usize;
    let mut dispatchers = 1usize;
    let mut mem_cache = 64usize;
    let mut cache_dir: Option<std::path::PathBuf> = Some("results/cache".into());
    let mut cache_budget: Option<u64> = None;
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
            "--service" => {
                eprintln!("repro serve takes no --service: a daemon cannot dispatch onto a daemon");
                std::process::exit(2);
            }
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
            "--fallback" => fallback = true,
            flag if flags.take(flag, &mut it) => {}
            other => {
                eprintln!("unknown serve flag: {other}");
                std::process::exit(2);
            }
        }
    }
    let mut exec = flags.exec();
    exec.fault.fallback |= fallback;
    let Some(addr) = listen else {
        eprintln!("usage: repro serve --listen ADDR [--http ADDR] [--threads N] [--shards N | --hosts a:p,b:p] [--profile] [--queue-capacity N] [--dispatchers N] [--mem-cache N] [--cache-dir DIR | --no-disk-cache] [--cache-budget BYTES] [--retry N] [--io-timeout SECS] [--pool on|off] [--fallback]");
        std::process::exit(2);
    };
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
        // `POST /submit?spec=mm1&...` and `repro submit mm1` share one
        // spec parser, so both entry points land on the same cache key.
        let spec: std::sync::Arc<sim_runtime::service::SpecParser> =
            std::sync::Arc::new(bench::shard::spec_manifest);
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

/// The client-side daemon address, which `--service` must give.
fn require_service(addr: Option<String>) -> String {
    addr.unwrap_or_else(|| flag_err("this mode", "--service HOST:PORT"))
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
/// and disposition (queued / cache-hit / coalesced). The spec and its
/// `--key value` flags are parsed by `bench::shard::spec_manifest`, as the
/// gateway's `POST /submit?spec=` query is.
fn submit_mode(args: &[String]) {
    let mut service: Option<String> = None;
    let mut params = std::collections::BTreeMap::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--service" => service = Some(take_service_value(&mut it)),
            flag @ ("--horizon" | "--warmup" | "--reps" | "--seed") => match it.next() {
                Some(v) => {
                    params.insert(flag[2..].to_string(), v.clone());
                }
                None => flag_err(flag, "a value"),
            },
            other if other.starts_with("--") => {
                eprintln!("unknown submit flag: {other}");
                std::process::exit(2);
            }
            name => {
                params.insert("spec".to_string(), name.to_string());
            }
        }
    }
    let addr = require_service(service);
    if !params.contains_key("spec") {
        eprintln!("usage: repro submit --service a:p mm1 [--horizon S] [--warmup S] [--reps N] [--seed N]");
        std::process::exit(2);
    }
    let manifest = match bench::shard::spec_manifest(&params) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("[submit] {e}");
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
        exec: opts.exec.runner(),
        rule: opts.rule(),
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
    match write_artifact(Path::new("."), &format!("{fig}_{kind}.csv"), &csv) {
        Ok(path) => println!("[{fig}] PUD={pud}s {kind} -> {path}"),
        Err(e) => eprintln!("[{fig}] failed to write artifact: {e}"),
    }
    if states {
        report_budget(
            c.points.iter().map(|p| (p.replications, p.converged)),
            &opts.rule(),
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
        exec: opts.exec.runner(),
        rule: opts.rule(),
        ..Default::default()
    };
    let sweep = run_node_sweep(workload, &FIG14_15_PDT_GRID, &cfg);
    let csv = render_node_sweep_csv(&sweep);
    match write_artifact(Path::new("."), &format!("{fig}_breakdown.csv"), &csv) {
        Ok(path) => println!("[{fig}] {workload:?} -> {path}"),
        Err(e) => eprintln!("[{fig}] failed to write artifact: {e}"),
    }
    if open {
        report_budget(
            sweep.points.iter().map(|p| (p.replications, p.converged)),
            &cfg.rule,
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
    for row in erlang_ablation(0.3, 0.3, stages, 42, &opts.exec.runner()) {
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
    for row in memory_ablation(&params, horizon, 7, &opts.exec.runner()) {
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
    let exec = opts.exec.runner();
    let rule = opts.rule();
    for (name, workload) in [
        ("closed", Workload::Closed { interval: 1.0 }),
        ("open", Workload::Open { rate: 1.0 }),
    ] {
        // The closed model is deterministic: one run per point is exact.
        // The open model averages under the rule.
        let rows = run_validation(workload, &FIG14_15_PDT_GRID, horizon, 0xDE5, &exec, &rule);
        let worst = rows.iter().map(|r| r.rel_diff).fold(0.0f64, f64::max);
        let reps: u64 = rows.iter().map(|r| r.replications).sum();
        match write_artifact(
            Path::new("."),
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
    for row in trigger_ablation(&params, horizon, 17, &opts.exec.runner()) {
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
        match write_artifact(Path::new("."), name, &petri_core::dot::to_dot(net)) {
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
        let a = run_replications_adaptive(
            &sim,
            0x57EAD,
            &rule,
            &[r_standby.index()],
            opts.exec.threads,
        )
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
    for row in seed_ablation(&params, horizon, counts, 0xCAFE, &opts.exec.runner()) {
        println!(
            "{:>14} {:>14.5} {:>16.5}",
            row.replications, row.mean_standby, row.ci_half_width
        );
    }
    println!();
}
