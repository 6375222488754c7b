//! Causal job tracing: a dependency-free, process-wide span collector.
//!
//! Where [`crate::telemetry`] answers *aggregate* questions (queue depth,
//! p99 verb latency), this module answers the per-job one — "where did
//! job X spend its 40 ms: queue, dispatch, worker spawn, or the engine?"
//! Every execution tier records [`Span`]s into one process-global,
//! bounded ring buffer ([`tracer()`]):
//!
//! * `submit` / `queue-wait` / `dispatch` — the service daemon
//!   ([`crate::service`]);
//! * `pool-checkout` — the worker backend opening a link, warm from the
//!   pool or cold ([`crate::fleet::backend::WorkerBackend`]);
//! * `slot` — one replication slot executing on the grid
//!   ([`crate::grid`]), in-process or inside a worker;
//! * `engine-run` — one simulation engine run inside a slot (recorded by
//!   the job implementation, e.g. the bench crate's replication jobs).
//!
//! Spans are grouped by a **deterministic trace ID** derived from the
//! manifest's SHA-256 (via [`crate::service::cache::CacheKey`]), and
//! slot spans carry the deterministic flat slot index — so re-runs of
//! the same manifest produce directly comparable traces. Cross-process
//! propagation rides the existing worker wire protocol: the manifest
//! request frame carries the trace ID, and workers return their span
//! batches in an advisory tagged frame (like `P` progress frames — a
//! lost batch can never affect results, only observability).
//!
//! Like telemetry, the collector is **observably inert**: recording
//! never touches scheduling, seeding or gather order; `REPRO_TRACE=off`
//! disables it entirely; and artifacts are byte-identical with tracing
//! on or off (enforced by the `observability` integration suite and the
//! `service_ab` <2% overhead gate).
//!
//! Traces render as Chrome trace-event JSON
//! ([`render_chrome_trace`]) — loadable in Perfetto or
//! `chrome://tracing` — with the lowered engine's per-transition
//! profile folded in as counter events. On a failing job, the flight
//! recorder ([`flight_record`]) dumps the trace's last spans to a
//! post-mortem file referenced from the error path.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

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
    /// Wall-clock start, nanoseconds since the UNIX epoch.
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
        crate::fleet::splitmix64(&mut s)
    }
}

/// A span's captured start moment: wall clock for the trace timeline,
/// monotonic for the duration. Zero-cost when the tracer is disabled.
#[derive(Debug, Clone, Copy)]
pub struct SpanStart {
    wall_ns: u64,
    mono: Option<Instant>,
}

/// Nanoseconds since the UNIX epoch, saturating.
fn unix_now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A stable per-thread ID for the Chrome `tid` field (the OS thread ID
/// is not portably readable on stable; a hash of [`std::thread::ThreadId`]
/// distinguishes lanes just as well).
fn thread_tid() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    // Keep it small-ish for readable trace viewers.
    h.finish() % 1_000_000
}

/// The process-wide span collector: a bounded ring buffer behind one
/// mutex, plus the ambient trace-context cell.
///
/// When disabled, every recording method returns before touching the
/// clock or the lock, so the whole stack costs one predictable branch
/// per call site.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
    dropped: AtomicU64,
}

impl Tracer {
    /// Construct a collector with the given enable state and ring
    /// capacity (tests; production uses the [`tracer()`] global).
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Tracer {
            enabled,
            capacity: capacity.max(1),
            ring: Mutex::new(VecDeque::new()),
            dropped: AtomicU64::new(0),
        }
    }

    /// Whether this collector records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Capture a span's start moment (no-op when disabled).
    pub fn start(&self) -> SpanStart {
        if !self.enabled {
            return SpanStart {
                wall_ns: 0,
                mono: None,
            };
        }
        SpanStart {
            wall_ns: unix_now_ns(),
            mono: Some(Instant::now()),
        }
    }

    /// Record a complete span from `start` to now. No-op when disabled,
    /// when `trace` is zero (no job context), or when `start` was
    /// captured disabled.
    pub fn record(
        &self,
        trace: u64,
        name: &'static str,
        category: &'static str,
        flat: u64,
        start: SpanStart,
    ) {
        if !self.enabled || trace == 0 {
            return;
        }
        let Some(mono) = start.mono else { return };
        let dur = u64::try_from(mono.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.push(Span {
            trace,
            name: Cow::Borrowed(name),
            cat: category,
            kind: SpanKind::Complete,
            flat,
            start_ns: start.wall_ns,
            dur_ns: dur,
            pid: std::process::id(),
            tid: thread_tid(),
        });
    }

    /// Record a complete span that *ended now* after lasting `dur_ns` —
    /// for durations measured elsewhere (e.g. the scheduler's queue
    /// wait).
    pub fn record_past(
        &self,
        trace: u64,
        name: &'static str,
        category: &'static str,
        flat: u64,
        dur_ns: u64,
    ) {
        if !self.enabled || trace == 0 {
            return;
        }
        let now = unix_now_ns();
        self.push(Span {
            trace,
            name: Cow::Borrowed(name),
            cat: category,
            kind: SpanKind::Complete,
            flat,
            start_ns: now.saturating_sub(dur_ns),
            dur_ns,
            pid: std::process::id(),
            tid: thread_tid(),
        });
    }

    /// Record a counter sample (`value` = the counter's level, `aux` an
    /// auxiliary count rendered alongside it).
    pub fn counter(
        &self,
        trace: u64,
        counter_name: String,
        category: &'static str,
        value: u64,
        aux: u64,
    ) {
        if !self.enabled || trace == 0 {
            return;
        }
        self.push(Span {
            trace,
            name: Cow::Owned(counter_name),
            cat: category,
            kind: SpanKind::Counter,
            flat: aux,
            start_ns: unix_now_ns(),
            dur_ns: value,
            pid: std::process::id(),
            tid: thread_tid(),
        });
    }

    /// Record an already-built span (the wire decode path). No-op when
    /// disabled or `span.trace` is zero.
    pub fn record_span(&self, span: Span) {
        if !self.enabled || span.trace == 0 {
            return;
        }
        self.push(span);
    }

    fn push(&self, span: Span) {
        let mut ring = self.ring.lock().expect("trace ring lock");
        if ring.len() >= self.capacity {
            ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(span);
    }

    /// Every retained span of `trace`, in recording order.
    pub fn spans_for(&self, trace: u64) -> Vec<Span> {
        let ring = self.ring.lock().expect("trace ring lock");
        ring.iter().filter(|s| s.trace == trace).cloned().collect()
    }

    /// Remove and return every retained span of `trace` (workers ship
    /// a manifest's batch exactly once this way).
    pub fn take_for(&self, trace: u64) -> Vec<Span> {
        let mut ring = self.ring.lock().expect("trace ring lock");
        let mut out = Vec::new();
        ring.retain(|s| {
            if s.trace == trace {
                out.push(s.clone());
                false
            } else {
                true
            }
        });
        out
    }

    /// Spans evicted by ring overflow so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// The process-global [`Tracer`].
///
/// Enabled unless `REPRO_TRACE` is set to `off`/`false`/`0` (read once,
/// at first use). Disabling is a kill switch, not a correctness knob —
/// artifacts are byte-identical either way.
pub fn tracer() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let off = std::env::var("REPRO_TRACE")
            .map(|v| matches!(v.trim(), "off" | "false" | "0"))
            .unwrap_or(false);
        Tracer::new(!off, RING_CAPACITY)
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
/// This is the hook job implementations (which live above the runtime —
/// the engine crate cannot depend on it) wrap their per-slot simulation
/// body in: when tracing is off it is a direct call, and the ambient
/// trace is whatever job context the executing tier entered.
pub fn engine_run<T>(flat: u64, f: impl FnOnce() -> T) -> T {
    let tr = tracer();
    if !tr.is_enabled() {
        return f();
    }
    let started = tr.start();
    let out = f();
    tr.record(current(), name::ENGINE_RUN, cat::ENGINE, flat, started);
    out
}

/// Deterministic trace ID of a manifest: the first eight bytes of its
/// cache key (itself a SHA-256 over the versioned wire encoding), never
/// zero. Re-runs of the same manifest on the same build get the same
/// trace ID, so their traces are directly comparable.
pub fn trace_id_of(manifest: &crate::exec::TaskManifest) -> u64 {
    crate::service::cache::CacheKey::of_manifest(manifest).trace_id()
}

// --- wire encoding (worker span batches) -----------------------------------

/// Encode a span batch for the advisory `T` response frame.
pub(crate) fn encode_spans(spans: &[Span]) -> Vec<u8> {
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

/// Intern a wire span name/category onto the well-known constants so
/// decoded spans compare against the same statics local ones use.
fn intern(s: &str, table: &[&'static str], fallback: &'static str) -> &'static str {
    table.iter().find(|k| **k == s).copied().unwrap_or(fallback)
}

/// Decode a span batch from a `T` frame body (reader positioned after
/// the tag byte). Rejects trailing bytes like every other frame decode.
pub(crate) fn decode_spans(r: &mut Reader<'_>) -> Result<Vec<Span>, WireError> {
    const NAMES: &[&str] = &[
        name::SUBMIT,
        name::QUEUE_WAIT,
        name::DISPATCH,
        name::POOL_CHECKOUT,
        name::SLOT,
        name::ENGINE_RUN,
    ];
    const CATS: &[&str] = &[cat::SERVICE, cat::FLEET, cat::GRID, cat::ENGINE];
    let n = r.get_u32()? as usize;
    // A span batch is bounded by the worker's own ring; cap the decode
    // so a garbled length cannot balloon allocation.
    if n > RING_CAPACITY {
        return Err(WireError::new(format!("span batch too large: {n}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let raw_name = r.get_str()?.to_string();
        let raw_cat = r.get_str()?.to_string();
        let kind = if r.get_u8()? != 0 {
            SpanKind::Counter
        } else {
            SpanKind::Complete
        };
        let name = match intern(&raw_name, NAMES, "") {
            "" => Cow::Owned(raw_name),
            interned => Cow::Borrowed(interned),
        };
        out.push(Span {
            trace: r.get_u64()?,
            name,
            cat: intern(&raw_cat, CATS, cat::ENGINE),
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
/// reference. Returns `None` when tracing is off, the recorder is
/// disabled, or the dump cannot be written (a failing flight recorder
/// must never make a failing job worse).
pub fn flight_record(trace: u64, label: &str, error: &str) -> Option<std::path::PathBuf> {
    let t = tracer();
    if !t.is_enabled() || trace == 0 {
        return None;
    }
    let dir = flight_dir()?;
    let mut spans = t.spans_for(trace);
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
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false, 16);
        t.record(7, name::SLOT, cat::GRID, 0, t.start());
        t.record_past(7, name::QUEUE_WAIT, cat::SERVICE, 0, 99);
        t.record_span(span(7, name::SLOT, 0));
        assert!(t.spans_for(7).is_empty());
    }

    #[test]
    fn zero_trace_is_never_recorded() {
        let t = Tracer::new(true, 16);
        t.record(0, name::SLOT, cat::GRID, 0, t.start());
        t.record_span(span(0, name::SLOT, 0));
        assert!(t.spans_for(0).is_empty());
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let t = Tracer::new(true, 4);
        for i in 0..10 {
            t.record_span(span(1, name::SLOT, i));
        }
        let spans = t.spans_for(1);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].flat, 6, "oldest spans evicted first");
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn take_for_removes_only_that_trace() {
        let t = Tracer::new(true, 16);
        t.record_span(span(1, name::SLOT, 0));
        t.record_span(span(2, name::SLOT, 1));
        t.record_span(span(1, name::ENGINE_RUN, 2));
        let taken = t.take_for(1);
        assert_eq!(taken.len(), 2);
        assert!(t.spans_for(1).is_empty());
        assert_eq!(t.spans_for(2).len(), 1);
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
    }

    #[test]
    fn decode_rejects_oversized_batches() {
        let mut body = Vec::new();
        wire::put_u32(&mut body, (RING_CAPACITY + 1) as u32);
        assert!(decode_spans(&mut Reader::new(&body)).is_err());
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
        let t = tracer();
        if !t.is_enabled() {
            return; // REPRO_TRACE=off in this environment
        }
        let trace = 0xF11E_D00D;
        t.record_span(span(trace, name::SLOT, 0));
        let path = flight_record(trace, "unit/test", "boom \"quoted\"").expect("dump written");
        let body = std::fs::read_to_string(&path).expect("dump readable");
        assert!(body.contains("boom \\\"quoted\\\""));
        assert!(body.contains("\"traceEvents\""));
        std::fs::remove_file(path).ok();
    }
}
