//! Per-transition engine profiler for the lowered engine.
//!
//! Armed by `REPRO_PROFILE=1` (or `on`/`true`), the lowered engine wraps
//! every fire-section execution and every reward integration step in a
//! monotonic-clock measurement and, when a run finishes, folds its
//! per-transition firing counts and attributed nanoseconds into this
//! process-global table keyed by transition name. Integration lands in one
//! extra row, [`INTEGRATION_ROW`], whose "firings" are integration steps.
//! Disarmed (the default) the hot loop takes the branch-predicted
//! `profile_on == false` path and never touches a clock.
//!
//! Each sample brackets its work with one `Instant::now()` pair, and on
//! the engine's short sections the pair itself costs about as much as the
//! work. So the first armed run calibrates that cost once (the median
//! of 1001 back-to-back pairs around no work) and every sample subtracts
//! it, saturating at zero. [`render_table`] names the method and the
//! subtracted cost.
//!
//! The profiler is **observably inert**: it reads wall time and counters
//! the engine already maintains, never the RNG or any simulation state, so
//! armed and disarmed runs produce byte-identical artifacts (asserted by
//! the CI `--profile` smoke). Attributed time is the fire-section body and
//! the integration step — scheduling and rechecks stay outside the
//! measurement, so the table answers "which transition's firing logic,
//! or the per-time-step reward work, is hot", not "where does all wall
//! time go".
//!
//! The profiler times the engine's step memo as it runs in production. A
//! replayed step is one sample charged to the timed transition that
//! triggered it, rechecks included; the immediates it replays keep exact
//! firing counts, and their rows carry a note naming the trigger their
//! time went to. The memo's bookkeeping on interpreted steps lands in
//! [`MEMO_MISS_ROW`] (one "firing" per miss), and the table ends with one
//! summary line: the states each run added to the record of its program's
//! shape (which every simulator of that shape sharing its records replays)
//! and the steps it interpreted, summed over the runs, and the runs that
//! gave the memo up.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Name of the row that collects reward integration time (parenthesized so
/// it cannot collide with a transition name in the paper's nets).
pub const INTEGRATION_ROW: &str = "(reward integration)";

/// Name of the row that collects the step memo's bookkeeping on
/// interpreted steps (its "firings" are misses).
pub const MEMO_MISS_ROW: &str = "(memo miss)";

/// Whether `REPRO_PROFILE` arms the profiler for this process (computed
/// once; workers inherit the variable through the environment).
pub fn armed() -> bool {
    static ARMED: OnceLock<bool> = OnceLock::new();
    *ARMED.get_or_init(|| {
        matches!(
            std::env::var("REPRO_PROFILE").as_deref(),
            Ok("1") | Ok("on") | Ok("true")
        )
    })
}

/// Number of empty clock pairs timed by [`timer_cost_ns`].
const CALIBRATION_PAIRS: usize = 1001;

/// Calibrated cost, in nanoseconds, of one profiler sample's clock pair
/// (`Instant::now()` then `elapsed()`) around no work: the median of
/// [`CALIBRATION_PAIRS`] such pairs, measured once per process.
pub(crate) fn timer_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        let mut pairs: Vec<u64> = (0..CALIBRATION_PAIRS)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(());
                t0.elapsed().as_nanos() as u64
            })
            .collect();
        pairs.sort_unstable();
        pairs[CALIBRATION_PAIRS / 2]
    })
}

/// One sample's attributed time: the clock pair's reading started at
/// `t0`, less the calibrated timer cost (never below zero).
#[inline]
pub(crate) fn sample_ns(t0: Instant, timer_ns: u64) -> u64 {
    (t0.elapsed().as_nanos() as u64).saturating_sub(timer_ns)
}

/// One transition's aggregated profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// Transition name (the net's, not an index — stable across nets
    /// built the same way, which is what makes re-run tables comparable).
    pub transition: String,
    /// Total firings attributed to this transition.
    pub firings: u64,
    /// Total nanoseconds spent in this transition's fire section, net of
    /// the calibrated timer cost.
    pub ns: u64,
    /// Firings replayed by the step memo, per triggering timed transition
    /// (trigger name ascending): their time is in the trigger's row.
    pub replayed: Vec<(String, u64)>,
}

/// The process-global profile: per-row totals, replayed firings per
/// (transition, trigger), and the step memo's per-run totals.
#[derive(Default)]
struct Table {
    rows: BTreeMap<String, (u64, u64)>,
    replayed: BTreeMap<(String, String), u64>,
    memo: MemoTotals,
}

/// Step memo totals over every profiled run.
#[derive(Default, Clone, Copy)]
struct MemoTotals {
    runs: u64,
    states: u64,
    misses: u64,
    gave_up: u64,
}

fn table() -> std::sync::MutexGuard<'static, Table> {
    static TABLE: OnceLock<Mutex<Table>> = OnceLock::new();
    TABLE
        .get_or_init(Mutex::default)
        .lock()
        .expect("profile table poisoned")
}

/// Fold one finished run's counts into the global table. Zero-work rows
/// are skipped so nets with many never-enabled transitions stay readable.
pub fn record(transition: &str, firings: u64, ns: u64) {
    if firings == 0 && ns == 0 {
        return;
    }
    let mut t = table();
    let e = t.rows.entry(transition.to_string()).or_insert((0, 0));
    e.0 += firings;
    e.1 += ns;
}

/// Fold one run's count of `transition` firings that the step memo
/// replayed within steps triggered by `trigger`.
pub fn record_replayed(transition: &str, trigger: &str, firings: u64) {
    let mut t = table();
    *t.replayed
        .entry((transition.to_string(), trigger.to_string()))
        .or_insert(0) += firings;
}

/// Fold one finished run's step memo totals: the states it added to its
/// shape's record, its interpreted steps, and whether it gave the memo
/// up.
pub fn record_memo_run(states: u64, misses: u64, gave_up: bool) {
    let mut t = table();
    t.memo.runs += 1;
    t.memo.states += states;
    t.memo.misses += misses;
    t.memo.gave_up += gave_up as u64;
}

/// Snapshot the table, sorted by attributed time descending (name
/// ascending on ties, for deterministic rendering).
pub fn snapshot() -> Vec<ProfileRow> {
    let t = table();
    let mut rows: Vec<ProfileRow> = t
        .rows
        .iter()
        .map(|(name, &(firings, ns))| ProfileRow {
            transition: name.clone(),
            firings,
            ns,
            replayed: t
                .replayed
                .range((name.clone(), String::new())..)
                .take_while(|((tr, _), _)| tr == name)
                .map(|((_, trigger), &n)| (trigger.clone(), n))
                .collect(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.ns.cmp(&a.ns)
            .then_with(|| a.transition.cmp(&b.transition))
    });
    rows
}

/// Clear the table (tests; also lets one process profile two phases).
pub fn reset() {
    *table() = Table::default();
}

/// Render a snapshot as an aligned text table. The header line names the
/// timer-cost correction the samples carry.
pub fn render_table(rows: &[ProfileRow]) -> String {
    if rows.is_empty() {
        return "engine profile: no transitions fired\n".to_string();
    }
    let name_w = rows
        .iter()
        .map(|r| r.transition.len())
        .max()
        .unwrap_or(0)
        .max("transition".len());
    let mut out = String::new();
    out.push_str(&format!(
        "{:name_w$}  {:>12}  {:>14}  {:>10}  (net of {} ns timer cost per sample: median of {} empty clock pairs)\n",
        "transition",
        "firings",
        "total_ns",
        "ns/firing",
        timer_cost_ns(),
        CALIBRATION_PAIRS
    ));
    for r in rows {
        let per = r.ns.checked_div(r.firings).unwrap_or(0);
        out.push_str(&format!(
            "{:name_w$}  {:>12}  {:>14}  {:>10}\n",
            r.transition, r.firings, r.ns, per
        ));
        for (trigger, n) in &r.replayed {
            out.push_str(&format!(
                "  {n} of these firings replayed in {trigger} steps (time counted there)\n"
            ));
        }
    }
    let memo = table().memo;
    if memo.runs > 0 {
        out.push_str(&format!(
            "step memo: {} states, {} misses, {} of {} runs gave up\n",
            memo.states, memo.misses, memo.gave_up, memo.runs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_aggregates_and_snapshot_sorts_by_time() {
        reset();
        record("serve", 10, 500);
        record("arrive", 10, 900);
        record("serve", 5, 100);
        record("idle", 0, 0); // skipped
        let rows = snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].transition, "arrive");
        assert_eq!(rows[0].ns, 900);
        assert_eq!(rows[1].transition, "serve");
        assert_eq!((rows[1].firings, rows[1].ns), (15, 600));
        // Replayed firings attach to their row, per trigger; memo totals
        // become the table's last line.
        record_replayed("serve", "arrive", 4);
        record_replayed("serve", "arrive", 2);
        record_memo_run(10, 3, false);
        record_memo_run(52, 7, true);
        let rows = snapshot();
        assert_eq!(rows[1].replayed, [("arrive".to_string(), 6)]);
        assert!(rows[0].replayed.is_empty());
        assert_eq!(
            render_table(&rows).lines().last().unwrap(),
            "step memo: 62 states, 10 misses, 1 of 2 runs gave up"
        );
        reset();
    }

    #[test]
    fn table_renders_header_and_per_firing_column() {
        let rows = vec![ProfileRow {
            transition: "arrive".into(),
            firings: 4,
            ns: 100,
            replayed: vec![("serve".into(), 3)],
        }];
        let txt = render_table(&rows);
        assert!(txt.contains("transition"));
        assert!(txt.contains("ns/firing"));
        assert!(txt
            .lines()
            .next()
            .unwrap()
            .contains("timer cost per sample"));
        assert!(txt.contains("arrive"));
        assert!(txt.lines().nth(1).unwrap().trim_end().ends_with("25"));
        assert_eq!(
            txt.lines().nth(2).unwrap(),
            "  3 of these firings replayed in serve steps (time counted there)"
        );
        assert_eq!(render_table(&[]), "engine profile: no transitions fired\n");
    }

    #[test]
    fn timer_cost_is_calibrated_once_and_subtracted_saturating() {
        let cost = timer_cost_ns();
        assert_eq!(timer_cost_ns(), cost);
        // A sample can never go negative, however large the subtrahend.
        assert_eq!(sample_ns(Instant::now(), u64::MAX), 0);
        let t0 = Instant::now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sample_ns(t0, 0) >= 2_000_000);
    }
}
