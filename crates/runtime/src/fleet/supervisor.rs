//! Supervisor bookkeeping: the quarantine table for repeat offenders.
//!
//! Offenders are identified by a stable string key — a remote peer's
//! `host:port`, never an anonymous shard subprocess (those are
//! interchangeable; quarantining their spawn command would take out the
//! whole tier for every concurrent caller). A key that fails
//! [`QUARANTINE_THRESHOLD`] times in a row without an intervening
//! success is quarantined for [`QUARANTINE_WINDOW`]; during the window
//! checkouts and reconnects skip it, so a flapping peer stops burning
//! retry budget on every dispatch. Any success clears the record.

use super::{fleet_stats, FleetStats};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consecutive failures before a key is quarantined.
pub const QUARANTINE_THRESHOLD: u32 = 3;

/// How long a quarantined key is skipped before it may be probed again.
pub const QUARANTINE_WINDOW: Duration = Duration::from_secs(10);

#[derive(Debug)]
struct Offender {
    consecutive_failures: u32,
    quarantined_until: Option<Instant>,
}

/// A table of flapping fleet members; each worker backend owns one.
#[derive(Debug, Default)]
pub struct Quarantine {
    inner: Mutex<HashMap<String, Offender>>,
}

impl Quarantine {
    /// Record a failure for `key`; returns `true` if this failure
    /// pushed the key into quarantine.
    pub fn record_failure(&self, key: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.entry(key.to_string()).or_insert(Offender {
            consecutive_failures: 0,
            quarantined_until: None,
        });
        entry.consecutive_failures += 1;
        if entry.consecutive_failures >= QUARANTINE_THRESHOLD && entry.quarantined_until.is_none() {
            entry.quarantined_until = Some(Instant::now() + QUARANTINE_WINDOW);
            FleetStats::bump(&fleet_stats().quarantined);
            eprintln!(
                "[fleet] quarantining {key} for {QUARANTINE_WINDOW:?} after \
                 {} consecutive failure(s)",
                entry.consecutive_failures
            );
            true
        } else {
            false
        }
    }

    /// Record a success for `key`, clearing any failure streak or
    /// quarantine.
    pub fn record_success(&self, key: &str) {
        self.inner.lock().unwrap().remove(key);
    }

    /// Is `key` currently quarantined? Expired windows are cleared (the
    /// key gets a fresh probation: one more failure re-quarantines).
    pub fn is_quarantined(&self, key: &str) -> bool {
        let mut inner = self.inner.lock().unwrap();
        let Some(entry) = inner.get_mut(key) else {
            return false;
        };
        match entry.quarantined_until {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                // Window expired: allow one probe, but keep the streak
                // at threshold-1 so a single new failure re-quarantines.
                entry.quarantined_until = None;
                entry.consecutive_failures = QUARANTINE_THRESHOLD - 1;
                false
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quarantine_trips_after_threshold_and_clears_on_success() {
        let q = Quarantine::default();
        let key = "127.0.0.1:19999";
        for i in 1..QUARANTINE_THRESHOLD {
            assert!(!q.record_failure(key), "failure {i} must not quarantine");
            assert!(!q.is_quarantined(key));
        }
        assert!(q.record_failure(key), "threshold failure quarantines");
        assert!(q.is_quarantined(key));
        q.record_success(key);
        assert!(!q.is_quarantined(key));
    }
}
