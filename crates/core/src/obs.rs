//! The one instrumentation layer: spans and histograms behind one
//! process-global handle ([`obs()`]) and one kill switch
//! (`REPRO_TELEMETRY=off`).
//!
//! Every instrumented site makes exactly one recording call:
//!
//! * **Span sites** end a span ([`Obs::end`], [`Obs::end_past`]). Ending a
//!   span records its duration into the histogram its name feeds (`slot`
//!   → `grid_slot_wall_ns`, `queue-wait` → `service_queue_wait_ns`) and,
//!   when a job trace is active, pushes it into the bounded ring that
//!   per-job traces render from. The stages are `submit` / `queue-wait` /
//!   `dispatch` (the service and the runner share one helper),
//!   `pool-checkout` (the worker backend opening a link), `slot` (one
//!   grid slot) and `engine-run` (one engine run inside a slot,
//!   [`engine_run`]).
//! * **Span-less sites** (per-verb latency, fleet backoff, events per
//!   engine run) record one sample into a fixed [`Metric`] histogram
//!   ([`Obs::record`]): no registry, no lock.
//!
//! Counters are not stored: `grid_tasks_claimed_total` is the slot
//! histogram's count, and `engine_runs_total` / `engine_events_total` are
//! the count and sum of `engine_run_events`. Level and subsystem counters
//! (queue depth, fleet, service) are pulled by the HTTP gateway at scrape
//! time and passed to [`Obs::render_prometheus`] as extras, so they
//! render even with recording off.
//!
//! Spans group under a **deterministic trace ID** derived from the
//! manifest's SHA-256 ([`trace_id_of`]); slot spans carry the flat slot
//! index, so re-runs of a manifest give comparable traces. Workers get
//! the trace ID in the request frame and return their spans in one
//! advisory `T` frame; a lost batch costs observability only. Traces
//! render as Chrome trace-event JSON ([`render_chrome_trace`]), and a
//! failing dispatch dumps its last spans to a flight-record file
//! ([`flight_record`]).
//!
//! The layer is **observably inert**: it never touches scheduling,
//! seeding or gather order, and with the switch off every call returns
//! before reading a clock. Artifacts are byte-identical either way
//! (the `observability` integration suite and the `repro-smoke` CI job
//! check it; `service_ab` bounds the overhead under 2%).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use crate::exec::ExecError;
use crate::wire::{self, Reader, WireError};

/// Spans kept in the ring buffer before the oldest are dropped. Sized
/// for a few thousand jobs' worth of coarse spans; overflow is counted,
/// never an error.
pub const RING_CAPACITY: usize = 64 * 1024;

/// Spans a flight-recorder post-mortem keeps (the *last* N of the
/// failing trace).
pub const FLIGHT_SPANS: usize = 256;

/// The well-known span names, one per instrumented stage. The wire
/// decoder interns onto these so cross-process spans compare pointer-
/// cheap against the same constants.
pub mod name {
    /// Service admission (validation, cache probe, queue insert).
    pub const SUBMIT: &str = "submit";
    /// Time a claimed job spent queued before a dispatcher picked it up.
    pub const QUEUE_WAIT: &str = "queue-wait";
    /// The whole backend dispatch of a job's manifest.
    pub const DISPATCH: &str = "dispatch";
    /// Checking a warm worker subprocess or peer connection out of the
    /// fleet pool (includes cold spawn/connect + health probe).
    pub const POOL_CHECKOUT: &str = "pool-checkout";
    /// One replication slot executing on the grid.
    pub const SLOT: &str = "slot";
    /// One simulation engine run inside a slot.
    pub const ENGINE_RUN: &str = "engine-run";
}

/// Span categories (one per tier), used as the Chrome `cat` field.
pub mod cat {
    /// The service daemon tier.
    pub const SERVICE: &str = "service";
    /// The fleet / pool tier.
    pub const FLEET: &str = "fleet";
    /// The work-stealing grid tier.
    pub const GRID: &str = "grid";
    /// The simulation engine tier.
    pub const ENGINE: &str = "engine";
}

// --- histograms -------------------------------------------------------------

/// Number of log₂ buckets a [`Histogram`] spreads its samples over —
/// bucket `i` holds values in `[2^(i-1), 2^i)` (bucket 0 holds zero),
/// which covers the full `u64` range.
const BUCKETS: usize = 65;

/// A log₂-bucketed magnitude histogram with quantile snapshots.
///
/// Recording is one relaxed `fetch_add` into the value's bucket plus
/// one into the sum — no locks, no allocation, safe from any thread.
/// Buckets are powers of two, so quantile estimates are exact to within
/// a factor of two (plenty for latency triage).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0u64; BUCKETS].map(AtomicU64::new),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a value: 0 for 0, else `64 - leading_zeros` (so
/// bucket `i ≥ 1` spans `[2^(i-1), 2^i)`).
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last).
fn bucket_bound(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// Nanoseconds of a duration, saturating.
fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// A consistent-enough point-in-time summary (individual loads are
    /// relaxed; concurrent recording can skew the quantiles by the
    /// in-flight samples, which is fine for monitoring).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts = self.counts();
        let count: u64 = counts.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            // Rank of the q-quantile sample, 1-based, clamped into range.
            let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
            let mut seen = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                seen += c;
                if seen >= rank {
                    return bucket_bound(i);
                }
            }
            bucket_bound(BUCKETS - 1)
        };
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            p50: quantile(0.50),
            p90: quantile(0.90),
            p99: quantile(0.99),
        }
    }

    fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Per-bucket cumulative counts as `(inclusive upper bound, count)`
    /// pairs over the non-empty prefix — the shape Prometheus
    /// `_bucket{le=...}` series want.
    fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let counts = self.counts();
        let used = counts.iter().rposition(|&c| c > 0).map_or(0, |i| i + 1);
        let mut cum = 0u64;
        (0..used)
            .map(|i| {
                cum += counts[i];
                (bucket_bound(i), cum)
            })
            .collect()
    }
}

/// Point-in-time histogram summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all sample values.
    pub sum: u64,
    /// Median estimate (upper bound of the median's log₂ bucket).
    pub p50: u64,
    /// 90th-percentile estimate.
    pub p90: u64,
    /// 99th-percentile estimate.
    pub p99: u64,
}

/// Every histogram the runtime records, one per instrumented quantity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Events fired by one successful engine run.
    EngineRunEvents,
    /// Backoff the fleet slept before a retry.
    FleetBackoffWait,
    /// Wall time of one grid slot (fed by `slot` spans).
    GridSlotWall,
    /// Time a job waited in the service queue (fed by `queue-wait` spans).
    ServiceQueueWait,
    /// Latency of the service `Cancel` verb.
    VerbCancel,
    /// Latency of the service `Fetch` verb.
    VerbFetch,
    /// Latency of answering an undecodable service request.
    VerbInvalid,
    /// Latency of the service `Shutdown` verb.
    VerbShutdown,
    /// Latency of the service `Stats` verb.
    VerbStats,
    /// Latency of the service `Status` verb.
    VerbStatus,
    /// Latency of the service `Submit` verb.
    VerbSubmit,
    /// Latency of the service `Trace` verb.
    VerbTrace,
}

impl Metric {
    /// Every metric, in declaration (and exposition) order.
    const ALL: [Metric; 12] = [
        Metric::EngineRunEvents,
        Metric::FleetBackoffWait,
        Metric::GridSlotWall,
        Metric::ServiceQueueWait,
        Metric::VerbCancel,
        Metric::VerbFetch,
        Metric::VerbInvalid,
        Metric::VerbShutdown,
        Metric::VerbStats,
        Metric::VerbStatus,
        Metric::VerbSubmit,
        Metric::VerbTrace,
    ];

    /// The Prometheus series name.
    pub fn name(self) -> &'static str {
        match self {
            Metric::GridSlotWall => "grid_slot_wall_ns",
            Metric::ServiceQueueWait => "service_queue_wait_ns",
            Metric::VerbSubmit => "service_verb_submit_ns",
            Metric::VerbStatus => "service_verb_status_ns",
            Metric::VerbFetch => "service_verb_fetch_ns",
            Metric::VerbCancel => "service_verb_cancel_ns",
            Metric::VerbStats => "service_verb_stats_ns",
            Metric::VerbShutdown => "service_verb_shutdown_ns",
            Metric::VerbTrace => "service_verb_trace_ns",
            Metric::VerbInvalid => "service_verb_invalid_ns",
            Metric::FleetBackoffWait => "fleet_backoff_wait_ns",
            Metric::EngineRunEvents => "engine_run_events",
        }
    }

    /// Counter series rendered from this histogram's count and sum.
    fn counters(self) -> [Option<&'static str>; 2] {
        match self {
            Metric::GridSlotWall => [Some("grid_tasks_claimed_total"), None],
            Metric::EngineRunEvents => [Some("engine_runs_total"), Some("engine_events_total")],
            _ => [None, None],
        }
    }

    /// The histogram a span of this name feeds, if any.
    fn of_span(span: &str) -> Option<Metric> {
        match span {
            name::SLOT => Some(Metric::GridSlotWall),
            name::QUEUE_WAIT => Some(Metric::ServiceQueueWait),
            _ => None,
        }
    }
}

// --- spans ------------------------------------------------------------------

/// What a [`Span`] renders as in Chrome trace-event JSON.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A `ph:"X"` complete event: `start_ns` + `dur_ns` wall-time span.
    Complete,
    /// A `ph:"C"` counter sample: `dur_ns` holds the counter value and
    /// `flat` an auxiliary count (the engine profiler uses value =
    /// attributed ns, aux = firings).
    Counter,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Deterministic trace ID (from the manifest SHA-256); `0` means
    /// "no job context" and is never recorded.
    pub trace: u64,
    /// Stage name — one of [`name`]'s constants for complete spans;
    /// counter spans may carry dynamic names (e.g. a transition name).
    pub name: Cow<'static, str>,
    /// Tier category — one of [`cat`]'s constants.
    pub cat: &'static str,
    /// Complete event or counter sample.
    pub kind: SpanKind,
    /// Flat slot index (slot spans), `(point << 32) | replication`
    /// (engine spans), or an auxiliary count (counter spans).
    pub flat: u64,
    /// Start on the trace timeline, in nanoseconds since the UNIX epoch
    /// (one wall-clock reading per recording process, plus monotonic time
    /// since).
    pub start_ns: u64,
    /// Duration in nanoseconds (counter spans: the sampled value).
    pub dur_ns: u64,
    /// OS process ID of the recording process.
    pub pid: u32,
    /// Hash-derived thread ID of the recording thread.
    pub tid: u64,
}

impl Span {
    /// Deterministic span ID: a SplitMix64 mix of the trace ID, the
    /// stage name and the flat index — identical across re-runs of the
    /// same manifest.
    pub fn span_id(&self) -> u64 {
        let mut h = self.trace ^ 0x9E37_79B9_7F4A_7C15;
        for b in self.name.as_bytes() {
            h = (h ^ *b as u64).wrapping_mul(0x100_0000_01B3);
        }
        let mut s = h ^ self.flat;
        crate::rng::splitmix64(&mut s)
    }
}

/// An open span: its trace, and its start on the monotonic clock. Reads
/// no clock when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    trace: u64,
    mono: Option<Instant>,
}

/// Nanoseconds since the UNIX epoch, saturating.
fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(nanos)
        .unwrap_or(0)
}

/// Instant `t` on the trace timeline, in nanoseconds since the UNIX epoch:
/// the wall clock at the process's first reading plus the monotonic time
/// since. A span thus reads one clock (a clock read costs about 50 ns on
/// a virtualized host, a quarter of a traced span), and a process's spans
/// never jump with wall-clock adjustments.
fn timeline_ns(t: Instant) -> u64 {
    static ANCHOR: OnceLock<(Instant, u64)> = OnceLock::new();
    let &(mono, wall) = ANCHOR.get_or_init(|| (Instant::now(), unix_now_ns()));
    match t.checked_duration_since(mono) {
        Some(since) => wall.saturating_add(nanos(since)),
        None => wall.saturating_sub(nanos(mono - t)),
    }
}

/// A stable per-thread ID for the Chrome `tid` field (the OS thread ID
/// is not portably readable on stable; a hash of [`std::thread::ThreadId`]
/// distinguishes lanes just as well). Computed once per thread: every
/// span pays for it.
fn thread_tid() -> u64 {
    thread_local! {
        static TID: u64 = {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            std::thread::current().id().hash(&mut h);
            // Keep it small-ish for readable trace viewers.
            h.finish() % 1_000_000
        };
    }
    TID.with(|t| *t)
}

/// This process's ID for the Chrome `pid` field, read once: every span
/// pays for it, and `std::process::id` is a system call.
fn process_id() -> u32 {
    static PID: OnceLock<u32> = OnceLock::new();
    *PID.get_or_init(std::process::id)
}

// --- the handle -------------------------------------------------------------

/// The instrumentation handle: the [`Metric`] histograms and the span
/// ring, behind one enable flag.
///
/// When disabled, every recording method returns before touching a clock,
/// an atomic or the lock, so an instrumented site costs one predictable
/// branch.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    hists: [Histogram; Metric::ALL.len()],
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
}

impl Obs {
    /// A handle with the given enable state and ring capacity (tests;
    /// production uses the [`obs()`] global).
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Obs {
            enabled,
            hists: Default::default(),
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The histogram behind `metric`.
    pub fn histogram(&self, metric: Metric) -> &Histogram {
        &self.hists[metric as usize]
    }

    /// Record one sample into `metric` (a span-less site).
    #[inline]
    pub fn record(&self, metric: Metric, value: u64) {
        if self.enabled {
            self.histogram(metric).record(value);
        }
    }

    /// Record a duration into `metric`, in nanoseconds.
    #[inline]
    pub fn record_duration(&self, metric: Metric, d: Duration) {
        self.record(metric, nanos(d));
    }

    /// Open a span attributed to `trace` (`0`: no job context, so only
    /// its histogram, if any, records).
    #[inline]
    pub fn start(&self, trace: u64) -> SpanStart {
        SpanStart {
            trace,
            mono: self.enabled.then(Instant::now),
        }
    }

    /// End a span opened by [`start`](Self::start): the one recording
    /// call of a span site.
    #[inline]
    pub fn end(&self, start: SpanStart, name: &'static str, category: &'static str, flat: u64) {
        self.lap(start, name, category, flat);
    }

    /// End a span like [`end`](Self::end) and open the next one of the
    /// same trace at the same instant, so a loop of back-to-back spans
    /// reads the clock once per span.
    #[inline]
    pub fn lap(
        &self,
        start: SpanStart,
        name: &'static str,
        category: &'static str,
        flat: u64,
    ) -> SpanStart {
        let Some(mono) = start.mono else {
            return start;
        };
        let now = Instant::now();
        let dur_ns = nanos(now.saturating_duration_since(mono));
        self.finish(start.trace, name, category, flat, mono, dur_ns);
        SpanStart {
            trace: start.trace,
            mono: Some(now),
        }
    }

    /// End a span that lasted `dur` and ends now — for durations measured
    /// elsewhere (the scheduler's queue wait).
    pub fn end_past(
        &self,
        trace: u64,
        name: &'static str,
        category: &'static str,
        flat: u64,
        dur: Duration,
    ) {
        if !self.enabled {
            return;
        }
        let now = Instant::now();
        let start = now.checked_sub(dur).unwrap_or(now);
        self.finish(trace, name, category, flat, start, nanos(dur));
    }

    fn finish(
        &self,
        trace: u64,
        name: &'static str,
        category: &'static str,
        flat: u64,
        start: Instant,
        dur_ns: u64,
    ) {
        if let Some(metric) = Metric::of_span(name) {
            self.histogram(metric).record(dur_ns);
        }
        if trace == 0 {
            return;
        }
        self.record_span(Span {
            trace,
            name: Cow::Borrowed(name),
            cat: category,
            kind: SpanKind::Complete,
            flat,
            start_ns: timeline_ns(start),
            dur_ns,
            pid: process_id(),
            tid: thread_tid(),
        });
    }

    /// Record a counter sample (`value` = the counter's level, `aux` an
    /// auxiliary count rendered alongside it) under `trace`.
    pub fn counter(&self, trace: u64, name: String, category: &'static str, value: u64, aux: u64) {
        if !self.enabled || trace == 0 {
            return;
        }
        self.record_span(Span {
            trace,
            name: Cow::Owned(name),
            cat: category,
            kind: SpanKind::Counter,
            flat: aux,
            start_ns: timeline_ns(Instant::now()),
            dur_ns: value,
            pid: process_id(),
            tid: thread_tid(),
        });
    }

    /// Push a span into the ring (also the wire decode path). No-op when
    /// disabled or `span.trace` is zero.
    pub fn record_span(&self, span: Span) {
        if !self.enabled || span.trace == 0 {
            return;
        }
        let mut ring = self.ring.lock().expect("span ring lock");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Every retained span of `trace`, in recording order.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        let ring = self.ring.lock().expect("span ring lock");
        ring.iter().filter(|s| s.trace == trace).cloned().collect()
    }

    /// Remove and return every retained span of `trace` (workers ship
    /// a manifest's batch exactly once this way).
    pub fn take_for(&self, trace: u64) -> Vec<Span> {
        let mut ring = self.ring.lock().expect("span ring lock");
        let (taken, kept): (VecDeque<Span>, _) = ring.drain(..).partition(|s| s.trace == trace);
        *ring = kept;
        taken.into()
    }

    /// Spans evicted by ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Render the Prometheus text exposition (version 0.0.4): every
    /// histogram that holds samples, as cumulative `_bucket{le="..."}`
    /// series plus `_sum` and `_count`, preceded by the counters derived
    /// from it; then `extra` as `(name, type, value)` series — the
    /// scrape-time service, queue and fleet values, which render even
    /// when recording is off.
    pub fn render_prometheus(&self, extra: &[(String, &str, u64)]) -> String {
        let mut out = String::new();
        for metric in Metric::ALL {
            let h = self.histogram(metric);
            let s = h.snapshot();
            if s.count == 0 {
                continue;
            }
            for (counter, value) in metric.counters().into_iter().zip([s.count, s.sum]) {
                if let Some(counter) = counter {
                    out.push_str(&format!("# TYPE {counter} counter\n{counter} {value}\n"));
                }
            }
            let name = metric.name();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (le, cum) in h.cumulative_buckets() {
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cum}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", s.count));
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", s.sum, s.count));
        }
        for (name, kind, value) in extra {
            out.push_str(&format!("# TYPE {name} {kind}\n{name} {value}\n"));
        }
        out
    }
}

/// The process-global [`Obs`] handle.
///
/// Enabled unless `REPRO_TELEMETRY` is `off`/`false`/`0` (read once, at
/// first use). The switch silences histograms, spans and the flight
/// recorder together; it is a kill switch for overhead paranoia, not a
/// correctness knob — results are byte-identical either way.
pub fn obs() -> &'static Obs {
    static GLOBAL: OnceLock<Obs> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let off = std::env::var("REPRO_TELEMETRY")
            .map(|v| matches!(v.trim(), "off" | "false" | "0"))
            .unwrap_or(false);
        Obs::new(!off, RING_CAPACITY)
    })
}

// --- ambient trace context -------------------------------------------------

/// The ambient trace ID deep call sites (grid slots, engine runs)
/// attribute their spans to. One cell per process: exact for workers
/// (which execute one manifest at a time) and for the default
/// single-dispatcher daemon; under concurrent dispatchers attribution
/// is last-enter-wins — spans are advisory observability data, never
/// results.
static CURRENT_TRACE: AtomicU64 = AtomicU64::new(0);

/// RAII guard restoring the previous ambient trace ID on drop.
#[derive(Debug)]
pub struct TraceGuard {
    prev: u64,
}

/// Set the ambient trace ID for the enclosing scope.
pub fn enter(trace: u64) -> TraceGuard {
    TraceGuard {
        prev: CURRENT_TRACE.swap(trace, Ordering::Relaxed),
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        CURRENT_TRACE.store(self.prev, Ordering::Relaxed);
    }
}

/// The ambient trace ID (`0` when no job context is active).
pub fn current() -> u64 {
    CURRENT_TRACE.load(Ordering::Relaxed)
}

/// Run `f` under an `engine-run` span attributed to the ambient trace.
///
/// The hook portable job implementations wrap their per-slot simulation
/// body in. `engine-run` feeds no histogram, so outside a job trace this is a
/// direct call.
pub fn engine_run<T>(flat: u64, f: impl FnOnce() -> T) -> T {
    let (obs, trace) = (obs(), current());
    if trace == 0 || !obs.is_enabled() {
        return f();
    }
    let started = obs.start(trace);
    let out = f();
    obs.end(started, name::ENGINE_RUN, cat::ENGINE, flat);
    out
}

/// One backend dispatch as a traced job — the instrumentation the runner
/// and the service scheduler share: derive the trace ID (only when
/// recording), make it the ambient context for `run`, record the
/// `dispatch` span, and flight-record a failure. `label` names the job
/// in the post-mortem file and the log line.
pub fn dispatch<T>(
    trace_of: impl FnOnce() -> u64,
    flat: u64,
    label: &str,
    run: impl FnOnce() -> Result<T, ExecError>,
) -> Result<T, ExecError> {
    let obs = obs();
    let trace = if obs.is_enabled() { trace_of() } else { 0 };
    let _ctx = enter(trace);
    let started = obs.start(trace);
    let out = run();
    obs.end(started, name::DISPATCH, cat::SERVICE, flat);
    if let Err(e) = &out {
        if let Some(path) = flight_record(trace, label, &e.to_string()) {
            eprintln!("[obs] {label} failed; flight record at {}", path.display());
        }
    }
    out
}

/// Deterministic trace ID of a manifest: the first eight bytes of its
/// cache key (itself a SHA-256 over the versioned wire encoding), never
/// zero. Re-runs of the same manifest on the same build get the same
/// trace ID, so their traces are directly comparable.
pub fn trace_id_of(manifest: &crate::exec::TaskManifest) -> u64 {
    crate::key::CacheKey::of_manifest(manifest).trace_id()
}

// --- wire encoding (worker span batches) -----------------------------------

/// Smallest encoded span: two empty strings (4-byte length each), the
/// kind byte, five `u64`s and the `u32` pid.
const MIN_SPAN_BYTES: usize = 4 + 4 + 1 + 5 * 8 + 4;

/// Encode a span batch for the advisory `T` response frame.
pub fn encode_spans(spans: &[Span]) -> Vec<u8> {
    let mut body = Vec::new();
    wire::put_u32(&mut body, spans.len() as u32);
    for s in spans {
        wire::put_str(&mut body, &s.name);
        wire::put_str(&mut body, s.cat);
        wire::put_u8(&mut body, matches!(s.kind, SpanKind::Counter) as u8);
        wire::put_u64(&mut body, s.trace);
        wire::put_u64(&mut body, s.flat);
        wire::put_u64(&mut body, s.start_ns);
        wire::put_u64(&mut body, s.dur_ns);
        wire::put_u32(&mut body, s.pid);
        wire::put_u64(&mut body, s.tid);
    }
    body
}

/// Decode a span batch from a `T` frame body (reader positioned after
/// the tag byte). The count is bounded by the bytes present and by the
/// worker's ring; unknown categories and kinds are rejected, so every
/// decoded batch re-encodes to the bytes it came from.
pub fn decode_spans(r: &mut Reader<'_>) -> Result<Vec<Span>, WireError> {
    const NAMES: &[&str] = &[
        name::SUBMIT,
        name::QUEUE_WAIT,
        name::DISPATCH,
        name::POOL_CHECKOUT,
        name::SLOT,
        name::ENGINE_RUN,
    ];
    const CATS: &[&str] = &[cat::SERVICE, cat::FLEET, cat::GRID, cat::ENGINE];
    let n = r.get_count(MIN_SPAN_BYTES, "span batch")?;
    if n > RING_CAPACITY {
        return Err(WireError::new(format!("span batch too large: {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let raw_name = r.get_str()?;
        // Intern well-known names so decoded spans compare pointer-cheap
        // against the constants local spans use.
        let name = match NAMES.iter().find(|k| **k == raw_name) {
            Some(interned) => Cow::Borrowed(*interned),
            None => Cow::Owned(raw_name.to_string()),
        };
        let raw_cat = r.get_str()?;
        let cat = *CATS
            .iter()
            .find(|k| **k == raw_cat)
            .ok_or_else(|| WireError::new(format!("unknown span category {raw_cat:?}")))?;
        let kind = match r.get_u8()? {
            0 => SpanKind::Complete,
            1 => SpanKind::Counter,
            k => return Err(WireError::new(format!("unknown span kind {k}"))),
        };
        out.push(Span {
            trace: r.get_u64()?,
            name,
            cat,
            kind,
            flat: r.get_u64()?,
            start_ns: r.get_u64()?,
            dur_ns: r.get_u64()?,
            pid: r.get_u32()?,
            tid: r.get_u64()?,
        });
    }
    Ok(out)
}

// --- Chrome trace-event rendering ------------------------------------------

/// Minimal JSON string escape (quotes, backslashes, control bytes).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Microseconds with nanosecond remainder, the Chrome `ts`/`dur` unit.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Render one trace's spans as Chrome trace-event JSON — loadable in
/// Perfetto / `chrome://tracing`. Complete spans become `ph:"X"` events
/// with deterministic `span_id`/`trace_id` args; counter spans (the
/// engine profile) become `ph:"C"` events.
pub fn render_chrome_trace(trace: u64, spans: &[Span]) -> String {
    let mut events = Vec::with_capacity(spans.len());
    for s in spans {
        match s.kind {
            SpanKind::Complete => events.push(format!(
                concat!(
                    "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},\"dur\":{},",
                    "\"pid\":{},\"tid\":{},\"args\":{{\"flat\":{},\"span_id\":\"{:#018x}\",",
                    "\"trace_id\":\"{:#018x}\"}}}}"
                ),
                json_escape(&s.name),
                json_escape(s.cat),
                micros(s.start_ns),
                micros(s.dur_ns),
                s.pid,
                s.tid,
                s.flat,
                s.span_id(),
                s.trace,
            )),
            SpanKind::Counter => events.push(format!(
                concat!(
                    "{{\"ph\":\"C\",\"name\":\"{}\",\"cat\":\"{}\",\"ts\":{},",
                    "\"pid\":{},\"tid\":{},\"args\":{{\"value\":{},\"aux\":{}}}}}"
                ),
                json_escape(&s.name),
                json_escape(s.cat),
                micros(s.start_ns),
                s.pid,
                s.tid,
                s.dur_ns,
                s.flat,
            )),
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"otherData\":{{\"trace_id\":\"{:#018x}\",\"spans\":{}}},\"traceEvents\":[{}]}}",
        trace,
        spans.len(),
        events.join(",")
    )
}

// --- flight recorder -------------------------------------------------------

/// Directory post-mortem files land in: `REPRO_FLIGHT_DIR` if set
/// (`off`/`0` disables the recorder), else `repro-flight` under the OS
/// temp dir.
fn flight_dir() -> Option<std::path::PathBuf> {
    match std::env::var("REPRO_FLIGHT_DIR") {
        Ok(v) if matches!(v.trim(), "off" | "false" | "0") => None,
        Ok(v) if !v.trim().is_empty() => Some(std::path::PathBuf::from(v)),
        _ => Some(std::env::temp_dir().join("repro-flight")),
    }
}

/// Dump the last [`FLIGHT_SPANS`] spans of a failing trace to a
/// post-mortem JSON file and return its path — the error path logs the
/// reference. Returns `None` when recording is off, the recorder is
/// disabled, or the dump cannot be written (a failing flight recorder
/// must never make a failing job worse).
pub fn flight_record(trace: u64, label: &str, error: &str) -> Option<std::path::PathBuf> {
    let obs = obs();
    if !obs.is_enabled() || trace == 0 {
        return None;
    }
    let dir = flight_dir()?;
    let mut spans = obs.spans_for(trace);
    if spans.len() > FLIGHT_SPANS {
        spans.drain(..spans.len() - FLIGHT_SPANS);
    }
    let clean: String = label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    let path = dir.join(format!("flight-{trace:016x}-{clean}.json"));
    let body = format!(
        "{{\"error\":\"{}\",\"trace\":{}}}",
        json_escape(error),
        render_chrome_trace(trace, &spans)
    );
    std::fs::create_dir_all(&dir).ok()?;
    std::fs::write(&path, body).ok()?;
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn span(trace: u64, name: &'static str, flat: u64) -> Span {
        Span {
            trace,
            name: Cow::Borrowed(name),
            cat: cat::GRID,
            kind: SpanKind::Complete,
            flat,
            start_ns: 1_000,
            dur_ns: 500,
            pid: 1,
            tid: 2,
        }
    }

    #[test]
    fn bucket_of_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        // Bucket bound is the inclusive top of each range.
        assert_eq!(bucket_bound(0), 0);
        assert_eq!(bucket_bound(1), 1);
        assert_eq!(bucket_bound(2), 3);
        assert_eq!(bucket_bound(11), 2047);
        assert_eq!(bucket_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles_are_bucket_accurate() {
        let h = Histogram::default();
        // 100 samples: 90 fast (≈100 ns), 10 slow (≈1 ms).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(1_000_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.sum, 90 * 100 + 10 * 1_000_000);
        // p50 and p90 land in the 100-ns bucket [64,127]; p99 in the
        // 1-ms bucket.
        assert_eq!(s.p50, 127);
        assert_eq!(s.p90, 127);
        assert!(s.p99 >= 1_000_000 && s.p99 < 2_097_152, "p99={}", s.p99);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::default();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum, s.p50, s.p99), (0, 0, 0, 0));
        h.record(0);
        let s = h.snapshot();
        assert_eq!((s.count, s.p50, s.p99), (1, 0, 0));
    }

    #[test]
    fn histogram_single_nonzero_sample_pins_every_quantile() {
        let h = Histogram::default();
        h.record(1000);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.sum, 1000);
        // One sample: every quantile is that sample's bucket bound.
        assert_eq!(s.p50, 1023);
        assert_eq!(s.p90, 1023);
        assert_eq!(s.p99, 1023);
    }

    #[test]
    fn histogram_top_bucket_saturates_at_u64_max() {
        let h = Histogram::default();
        for _ in 0..3 {
            h.record(u64::MAX);
        }
        h.record(u64::MAX / 2 + 1); // also lands in the top bucket
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        // Sum wraps relaxed-atomically; quantiles must still report the
        // top bucket's inclusive bound, not overflow or truncate.
        assert_eq!(s.p50, u64::MAX);
        assert_eq!(s.p99, u64::MAX);
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets.last(), Some(&(u64::MAX, 4)));
    }

    #[test]
    fn cumulative_buckets_are_monotone() {
        let h = Histogram::default();
        for v in [1u64, 2, 2, 700, 700, 700, 1 << 40] {
            h.record(v);
        }
        let buckets = h.cumulative_buckets();
        let mut prev = 0;
        for (_, c) in &buckets {
            assert!(*c >= prev);
            prev = *c;
        }
        assert_eq!(prev, 7);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let o = Obs::new(false, 16);
        o.end(o.start(7), name::SLOT, cat::GRID, 0);
        o.end_past(
            7,
            name::QUEUE_WAIT,
            cat::SERVICE,
            0,
            Duration::from_nanos(99),
        );
        o.counter(7, "profile/x".into(), cat::ENGINE, 1, 1);
        o.record_span(span(7, name::SLOT, 0));
        assert!(o.spans_for(7).is_empty());
        assert_eq!(o.dropped(), 0);
    }

    #[test]
    fn disabled_handle_records_nowhere_and_renders_nothing() {
        let o = Obs::new(false, 16);
        assert!(!o.is_enabled());
        o.record(Metric::EngineRunEvents, 9);
        o.end(o.start(7), name::SLOT, cat::GRID, 0);
        o.end_past(
            7,
            name::QUEUE_WAIT,
            cat::SERVICE,
            0,
            Duration::from_nanos(99),
        );
        for metric in Metric::ALL {
            assert_eq!(o.histogram(metric).snapshot().count, 0, "{metric:?}");
        }
        assert_eq!(o.render_prometheus(&[]), "");
        // Scrape-time extras still render with recording off.
        assert_eq!(
            o.render_prometheus(&[("fleet_spawned".into(), "counter", 3)]),
            "# TYPE fleet_spawned counter\nfleet_spawned 3\n"
        );
    }

    #[test]
    fn ending_a_span_feeds_its_histogram_and_the_ring() {
        let o = Obs::new(true, 16);
        // Untraced: the histogram records, the ring does not.
        o.end(o.start(0), name::SLOT, cat::GRID, 0);
        assert_eq!(o.histogram(Metric::GridSlotWall).snapshot().count, 1);
        assert!(o.spans_for(0).is_empty());
        // Traced: both, from the one call.
        o.end(o.start(5), name::SLOT, cat::GRID, 3);
        o.end_past(
            5,
            name::QUEUE_WAIT,
            cat::SERVICE,
            1,
            Duration::from_nanos(700),
        );
        o.end(o.start(5), name::DISPATCH, cat::SERVICE, 1);
        assert_eq!(o.histogram(Metric::GridSlotWall).snapshot().count, 2);
        let wait = o.histogram(Metric::ServiceQueueWait).snapshot();
        assert_eq!((wait.count, wait.sum), (1, 700));
        let names: Vec<_> = o.spans_for(5).iter().map(|s| s.name.clone()).collect();
        assert_eq!(names, [name::SLOT, name::QUEUE_WAIT, name::DISPATCH]);
        // `dispatch` maps to no histogram.
        let total: u64 = Metric::ALL
            .iter()
            .map(|&m| o.histogram(m).snapshot().count)
            .sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let o = Obs::new(true, 16);
        o.record(Metric::EngineRunEvents, 5);
        o.record(Metric::EngineRunEvents, 1000);
        let text = o.render_prometheus(&[
            ("service_submitted".into(), "counter", 9),
            ("service_queue_depth".into(), "gauge", 2),
        ]);
        // Counters derived from the histogram's count and sum.
        assert!(text.contains("# TYPE engine_runs_total counter\nengine_runs_total 2\n"));
        assert!(text.contains("# TYPE engine_events_total counter\nengine_events_total 1005\n"));
        assert!(text.contains("# TYPE engine_run_events histogram\n"));
        assert!(text.contains("engine_run_events_bucket{le=\"7\"} 1\n"));
        assert!(text.contains("engine_run_events_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("engine_run_events_sum 1005\nengine_run_events_count 2\n"));
        assert!(text.contains("# TYPE service_submitted counter\nservice_submitted 9\n"));
        assert!(text.contains("# TYPE service_queue_depth gauge\nservice_queue_depth 2\n"));
        // Histograms without samples stay out of the scrape.
        assert!(!text.contains("grid_"), "{text}");
    }

    #[test]
    fn zero_trace_is_never_recorded() {
        let o = Obs::new(true, 16);
        o.end(o.start(0), name::DISPATCH, cat::SERVICE, 0);
        o.record_span(span(0, name::SLOT, 0));
        assert!(o.spans_for(0).is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let o = Obs::new(true, 4);
        for i in 0..10 {
            o.record_span(span(1, name::SLOT, i));
        }
        let spans = o.spans_for(1);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].flat, 6, "oldest spans evicted first");
        assert_eq!(o.dropped(), 6);
    }

    #[test]
    fn take_for_removes_only_that_trace() {
        let o = Obs::new(true, 16);
        o.record_span(span(1, name::SLOT, 0));
        o.record_span(span(2, name::SLOT, 1));
        o.record_span(span(1, name::ENGINE_RUN, 2));
        let taken = o.take_for(1);
        assert_eq!(taken.len(), 2);
        assert!(o.spans_for(1).is_empty());
        assert_eq!(o.spans_for(2).len(), 1);
    }

    #[test]
    fn span_ids_are_deterministic_and_distinct() {
        let a = span(9, name::SLOT, 3);
        let b = span(9, name::SLOT, 3);
        assert_eq!(a.span_id(), b.span_id());
        assert_ne!(a.span_id(), span(9, name::SLOT, 4).span_id());
        assert_ne!(a.span_id(), span(9, name::ENGINE_RUN, 3).span_id());
        assert_ne!(a.span_id(), span(8, name::SLOT, 3).span_id());
    }

    #[test]
    fn spans_round_trip_the_wire() {
        let mut spans = vec![span(5, name::SLOT, 1), span(5, name::ENGINE_RUN, 2)];
        spans.push(Span {
            trace: 5,
            name: Cow::Owned("profile/serve".to_string()),
            cat: cat::ENGINE,
            kind: SpanKind::Counter,
            flat: 42,
            start_ns: 7,
            dur_ns: 9,
            pid: 3,
            tid: 4,
        });
        let bytes = encode_spans(&spans);
        let mut r = Reader::new(&bytes);
        let back = decode_spans(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, spans);
        // Interned names compare pointer-equal to the constants.
        assert!(std::ptr::eq(back[0].name.as_ref(), name::SLOT));
        // The smallest span encodes to exactly the bound the decoder uses.
        let empty = Span {
            name: Cow::Borrowed(""),
            cat: "",
            ..span(1, name::SLOT, 0)
        };
        assert_eq!(encode_spans(&[empty]).len(), 4 + MIN_SPAN_BYTES);
    }

    #[test]
    fn decode_rejects_oversized_batches() {
        let mut body = Vec::new();
        wire::put_u32(&mut body, (RING_CAPACITY + 1) as u32);
        assert!(decode_spans(&mut Reader::new(&body)).is_err());
    }

    #[test]
    fn short_frame_claiming_a_full_ring_is_rejected() {
        // Five bytes that claim 65 536 spans must fail on the count, not
        // reserve room for them.
        let mut body = Vec::new();
        wire::put_u32(&mut body, RING_CAPACITY as u32);
        wire::put_u8(&mut body, 0);
        assert_eq!(body.len(), 5);
        let err = decode_spans(&mut Reader::new(&body)).unwrap_err();
        assert!(err.to_string().contains("overruns"), "{err}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// `decode_spans` faces worker bytes: on random bodies, and on
        /// truncations and one-byte flips of a valid batch, it must not
        /// panic, and any batch it accepts must re-encode to exactly the
        /// bytes it read.
        #[test]
        fn span_decode_survives_hostile_bodies(
            raw in proptest::collection::vec(0u8..255, 0..96),
            picks in proptest::collection::vec((0usize..8, 0usize..4, 0u8..2, 0u64..1 << 40), 0..4),
            cut in 0usize..512,
            flip in 1u8..255,
        ) {
            const NAMES: [&str; 8] = [
                name::SUBMIT, name::QUEUE_WAIT, name::DISPATCH, name::POOL_CHECKOUT,
                name::SLOT, name::ENGINE_RUN, "profile/x", "",
            ];
            const CATS: [&str; 4] = [cat::SERVICE, cat::FLEET, cat::GRID, cat::ENGINE];
            let spans: Vec<Span> = picks
                .iter()
                .map(|&(n, c, k, v)| Span {
                    trace: v,
                    name: Cow::Borrowed(NAMES[n]),
                    cat: CATS[c],
                    kind: if k == 0 { SpanKind::Complete } else { SpanKind::Counter },
                    flat: v >> 3,
                    start_ns: v ^ 0xABCD,
                    dur_ns: v / 7,
                    pid: v as u32,
                    tid: v % 1_000_000,
                })
                .collect();
            let valid = encode_spans(&spans);
            let mut bodies = vec![raw.clone(), valid[..cut.min(valid.len())].to_vec()];
            // A valid batch's count over random span bytes.
            let mut counted = valid[..4].to_vec();
            counted.extend_from_slice(&raw);
            bodies.push(counted);
            // A valid batch with one byte flipped.
            let mut flipped = valid.clone();
            let at = cut % flipped.len();
            flipped[at] ^= flip;
            bodies.push(flipped);
            for body in &bodies {
                let mut r = Reader::new(body);
                if let Ok(decoded) = decode_spans(&mut r).and_then(|s| r.finish().map(|_| s)) {
                    prop_assert_eq!(&encode_spans(&decoded), body);
                }
            }
            let mut r = Reader::new(&valid);
            prop_assert_eq!(decode_spans(&mut r).unwrap(), spans);
        }
    }

    #[test]
    fn chrome_render_is_valid_shape() {
        let spans = vec![
            span(5, name::SLOT, 1),
            Span {
                kind: SpanKind::Counter,
                name: Cow::Owned("profile/\"odd\"".to_string()),
                ..span(5, name::SLOT, 7)
            },
        ];
        let json = render_chrome_trace(5, &spans);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"name\":\"slot\""));
        assert!(json.contains("\\\"odd\\\""), "dynamic names are escaped");
        assert!(json.contains("\"ts\":1.000"));
        // Balanced braces/brackets — cheap structural sanity without a
        // JSON parser dependency.
        let balance = |open: char, close: char| {
            json.chars().filter(|&c| c == open).count()
                == json.chars().filter(|&c| c == close).count()
        };
        assert!(balance('{', '}') && balance('[', ']'));
    }

    #[test]
    fn ambient_context_nests_and_restores() {
        // Serialized via the guard itself: this test owns the cell
        // while it holds the guards.
        let base = current();
        {
            let _a = enter(11);
            assert_eq!(current(), 11);
            {
                let _b = enter(22);
                assert_eq!(current(), 22);
            }
            assert_eq!(current(), 11);
        }
        assert_eq!(current(), base);
    }

    #[test]
    fn flight_record_writes_a_postmortem() {
        let o = obs();
        if !o.is_enabled() {
            return; // REPRO_TELEMETRY=off in this environment
        }
        let trace = 0xF11E_D00D;
        o.record_span(span(trace, name::SLOT, 0));
        let path = flight_record(trace, "unit/test", "boom \"quoted\"").expect("dump written");
        let body = std::fs::read_to_string(&path).expect("dump readable");
        assert!(body.contains("boom \\\"quoted\\\""));
        assert!(body.contains("\"traceEvents\""));
        std::fs::remove_file(path).ok();
    }
}
