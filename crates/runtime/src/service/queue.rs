//! The daemon's job table: a bounded FIFO queue, per-job state machine,
//! and the single-flight index.
//!
//! All methods here mutate plain state and are called under the service's
//! one mutex (see [`crate::service::Service`]); nothing in this module
//! blocks. Keeping the transitions lock-free and synchronous makes the
//! state machine unit-testable without threads: submit, claim, complete
//! and cancel are each a single deterministic step.

use super::protocol::{Disposition, JobId, JobProgress, JobState};
use sim_core::exec::{ExecError, TaskManifest};
use sim_core::key::CacheKey;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Live progress counters for one running job, shared between the
/// dispatcher executing it (writer) and fetch keep-alives / the HTTP
/// gateway (readers). Purely observational: readers only render these
/// values — nothing in scheduling or gathering branches on them, which is
/// what keeps progress cosmetic and results byte-identical whether anyone
/// watches or not.
#[derive(Debug, Default)]
pub struct ProgressCell {
    done: AtomicU64,
    total: AtomicU64,
    point: AtomicU64,
    replication: AtomicU64,
}

impl ProgressCell {
    /// Publish the job's total slot count (at claim time, before the
    /// first completion can tick).
    pub fn set_total(&self, total: u64) {
        self.total.store(total, Ordering::Relaxed);
    }

    /// Record one completed slot. `done` is folded in with `fetch_max`,
    /// so out-of-order callbacks from concurrent workers can never move
    /// the published count backwards.
    pub fn record(&self, done: u64, point: u64, replication: u64) {
        self.done.fetch_max(done, Ordering::Relaxed);
        self.point.store(point, Ordering::Relaxed);
        self.replication.store(replication, Ordering::Relaxed);
    }

    /// Snapshot for rendering.
    pub fn snapshot(&self) -> JobProgress {
        JobProgress {
            done: self.done.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            point: self.point.load(Ordering::Relaxed),
            replication: self.replication.load(Ordering::Relaxed),
        }
    }
}

/// One job's record, from submission to (retained) terminal state.
#[derive(Debug)]
pub struct JobRecord {
    /// The job's content-addressed cache key.
    pub key: CacheKey,
    /// The manifest to execute (cleared once terminal to bound memory).
    pub manifest: Option<TaskManifest>,
    /// Current lifecycle state.
    pub state: JobState,
    /// The result blob, once `Done` — pinned only while the record is
    /// within the table's recent-results window; older fetches resolve
    /// through the cache tiers by `key`.
    pub result: Option<Arc<Vec<u8>>>,
    /// The failure, once `Failed` (or a cancellation notice).
    pub error: Option<ExecError>,
    /// How many *additional* submissions coalesced onto this job while it
    /// was live. A shared job refuses cancellation — one caller must not
    /// silently fail everyone else's fetch.
    pub coalesced: u64,
    /// Live progress counters (a cache hit's stay zeroed: `total == 0`
    /// marks "never executed").
    pub progress: Arc<ProgressCell>,
    /// When the submission was admitted — the queue-wait measurement
    /// base.
    pub admitted: Instant,
}

/// One claimed unit of work, handed from the job table to a dispatcher.
#[derive(Debug)]
pub struct ClaimedJob {
    /// The job being executed.
    pub job: JobId,
    /// Its manifest (a clone; the record keeps its copy until terminal).
    pub manifest: TaskManifest,
    /// Its content-addressed cache key (so completion never re-hashes).
    pub key: CacheKey,
    /// The shared progress counters the execution writes into.
    pub progress: Arc<ProgressCell>,
    /// How long the job sat queued before this claim.
    pub queue_wait: Duration,
}

/// What a cancellation request resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CancelOutcome {
    /// The queued job was cancelled.
    Cancelled,
    /// Refused: other submissions coalesced onto this job, and one caller
    /// must not discard work the others are still waiting on.
    Shared {
        /// Coalesced submissions sharing the job.
        waiters: u64,
    },
    /// Refused: the job is not queued (running work cannot be revoked;
    /// terminal states are final).
    NotQueued(JobState),
}

/// Why a submission was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitRejected {
    /// The bounded queue is at capacity.
    QueueFull {
        /// The configured capacity that was hit.
        capacity: usize,
    },
}

impl std::fmt::Display for SubmitRejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRejected::QueueFull { capacity } => {
                write!(f, "job queue full ({capacity} job(s) queued)")
            }
        }
    }
}

/// The job table. Owned by the service behind its mutex.
#[derive(Debug)]
pub struct JobTable {
    next_id: u64,
    jobs: HashMap<u64, JobRecord>,
    /// FIFO of queued job ids (cancelled entries are skipped on claim).
    queue: VecDeque<u64>,
    /// Queue capacity (counts `Queued` jobs only, not running ones).
    capacity: usize,
    /// Single-flight index: cache key → the live (queued or running) job
    /// computing it. Identical submissions coalesce onto this job.
    inflight_by_key: HashMap<CacheKey, u64>,
    /// Terminal jobs in completion order, for bounded retention.
    terminal_order: VecDeque<u64>,
    /// Terminal records retained for late status/fetch callers.
    retain_terminal: usize,
    /// How many of the *most recent* terminal records keep their result
    /// blob pinned. Older `Done` records drop the blob (bounding daemon
    /// memory by count of recent results, not every result ever served);
    /// late fetches re-resolve through the cache tiers by key.
    retain_results: usize,
}

impl JobTable {
    /// An empty table with the given queue capacity, terminal-record
    /// retention bound, and pinned-result window.
    pub fn new(capacity: usize, retain_terminal: usize, retain_results: usize) -> Self {
        JobTable {
            next_id: 1,
            jobs: HashMap::new(),
            queue: VecDeque::new(),
            capacity: capacity.max(1),
            inflight_by_key: HashMap::new(),
            terminal_order: VecDeque::new(),
            retain_terminal: retain_terminal.max(1),
            retain_results: retain_results.max(1),
        }
    }

    /// Jobs currently waiting in the queue.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Look up a job record.
    pub fn get(&self, job: JobId) -> Option<&JobRecord> {
        self.jobs.get(&job.0)
    }

    /// The live (queued or running) job computing `key`, if any — the
    /// single-flight probe.
    pub fn live(&self, key: &CacheKey) -> Option<JobId> {
        self.inflight_by_key.get(key).map(|&id| JobId(id))
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Record a submission that the cache already answered: the job is
    /// born `Done` with the cached blob.
    pub fn admit_hit(&mut self, key: CacheKey, blob: Arc<Vec<u8>>) -> JobId {
        let id = self.fresh_id();
        self.jobs.insert(
            id,
            JobRecord {
                key,
                manifest: None,
                state: JobState::Done,
                result: Some(blob),
                error: None,
                coalesced: 0,
                progress: Arc::new(ProgressCell::default()),
                admitted: Instant::now(),
            },
        );
        self.retire(id);
        JobId(id)
    }

    /// Admit new work: coalesce onto an identical live job if one exists,
    /// otherwise enqueue (bounded).
    pub fn admit(
        &mut self,
        key: CacheKey,
        manifest: TaskManifest,
    ) -> Result<(JobId, Disposition), SubmitRejected> {
        if let Some(&live) = self.inflight_by_key.get(&key) {
            if let Some(rec) = self.jobs.get_mut(&live) {
                rec.coalesced += 1;
            }
            return Ok((JobId(live), Disposition::Coalesced));
        }
        if self.queue.len() >= self.capacity {
            return Err(SubmitRejected::QueueFull {
                capacity: self.capacity,
            });
        }
        let id = self.fresh_id();
        self.jobs.insert(
            id,
            JobRecord {
                key,
                manifest: Some(manifest),
                state: JobState::Queued,
                result: None,
                error: None,
                coalesced: 0,
                progress: Arc::new(ProgressCell::default()),
                admitted: Instant::now(),
            },
        );
        self.queue.push_back(id);
        self.inflight_by_key.insert(key, id);
        Ok((JobId(id), Disposition::Queued))
    }

    /// Claim the oldest queued job for execution: `Queued → Running`.
    /// Returns the job, a clone of its manifest, its cache key (so
    /// completion never has to re-hash the manifest), its shared progress
    /// cell, and the measured queue wait.
    pub fn claim(&mut self) -> Option<ClaimedJob> {
        while let Some(id) = self.queue.pop_front() {
            // A cancelled entry may linger in the FIFO briefly, and its
            // record may even have been evicted from terminal retention
            // already — both are skips, never a panic (a panic here would
            // poison the service mutex and take the whole daemon down).
            let Some(rec) = self.jobs.get_mut(&id) else {
                continue;
            };
            if rec.state != JobState::Queued {
                continue;
            }
            rec.state = JobState::Running;
            let manifest = rec.manifest.clone().expect("queued job keeps its manifest");
            return Some(ClaimedJob {
                job: JobId(id),
                manifest,
                key: rec.key,
                progress: rec.progress.clone(),
                queue_wait: rec.admitted.elapsed(),
            });
        }
        None
    }

    /// Terminal transition: `Running → Done` with the result blob.
    pub fn complete(&mut self, job: JobId, blob: Arc<Vec<u8>>) {
        let rec = self.jobs.get_mut(&job.0).expect("running job has a record");
        debug_assert_eq!(rec.state, JobState::Running);
        rec.state = JobState::Done;
        rec.result = Some(blob);
        rec.manifest = None;
        self.inflight_by_key.remove(&rec.key);
        self.retire(job.0);
    }

    /// Terminal transition: `Running → Failed` with the executor error.
    pub fn fail(&mut self, job: JobId, error: ExecError) {
        let rec = self.jobs.get_mut(&job.0).expect("running job has a record");
        debug_assert_eq!(rec.state, JobState::Running);
        rec.state = JobState::Failed;
        rec.error = Some(error);
        rec.manifest = None;
        self.inflight_by_key.remove(&rec.key);
        self.retire(job.0);
    }

    /// Cancel a job that is still queued: `Queued → Cancelled`. `None`
    /// means the id is unknown; a shared (coalesced-onto) or non-queued
    /// job is refused with the reason.
    pub fn cancel(&mut self, job: JobId) -> Option<CancelOutcome> {
        let rec = self.jobs.get_mut(&job.0)?;
        if rec.state != JobState::Queued {
            return Some(CancelOutcome::NotQueued(rec.state));
        }
        if rec.coalesced > 0 {
            return Some(CancelOutcome::Shared {
                waiters: rec.coalesced,
            });
        }
        rec.state = JobState::Cancelled;
        rec.error = Some(ExecError::Protocol(format!("{job} cancelled while queued")));
        rec.manifest = None;
        self.inflight_by_key.remove(&rec.key);
        // Release the bounded-queue slot immediately: a cancelled
        // tombstone must not cause queue-full rejections while it waits
        // to be popped.
        self.queue.retain(|&q| q != job.0);
        self.retire(job.0);
        Some(CancelOutcome::Cancelled)
    }

    /// Register a terminal record for bounded retention: evict whole
    /// records past `retain_terminal`, and unpin the result blob of the
    /// record sliding out of the `retain_results` window (each retire
    /// pushes one id, so unpinning the single id at the window edge keeps
    /// this amortized O(1)).
    fn retire(&mut self, id: u64) {
        self.terminal_order.push_back(id);
        while self.terminal_order.len() > self.retain_terminal {
            let evict = self.terminal_order.pop_front().expect("non-empty");
            self.jobs.remove(&evict);
        }
        let n = self.terminal_order.len();
        if n > self.retain_results {
            let aged = self.terminal_order[n - self.retain_results - 1];
            if let Some(rec) = self.jobs.get_mut(&aged) {
                rec.result = None;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::MulJob;
    use sim_core::grid::Segment;

    fn manifest(mix: u64) -> TaskManifest {
        TaskManifest::for_job(
            &MulJob { factor: 1 },
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 2,
            }],
            &|_, r| mix + r,
        )
    }

    fn key(mix: u64) -> CacheKey {
        CacheKey::of_manifest(&manifest(mix))
    }

    #[test]
    fn fifo_claim_order_and_state_transitions() {
        let mut t = JobTable::new(8, 64, 64);
        let (a, da) = t.admit(key(1), manifest(1)).unwrap();
        let (b, db) = t.admit(key(2), manifest(2)).unwrap();
        assert_eq!((da, db), (Disposition::Queued, Disposition::Queued));
        assert_eq!(t.queued_len(), 2);

        let claimed = t.claim().unwrap();
        assert_eq!(claimed.job, a);
        assert_eq!(claimed.manifest, manifest(1));
        assert_eq!(t.get(a).unwrap().state, JobState::Running);

        t.complete(a, Arc::new(vec![1]));
        assert_eq!(t.get(a).unwrap().state, JobState::Done);
        assert!(t.get(a).unwrap().manifest.is_none(), "manifest released");

        let second = t.claim().unwrap().job;
        assert_eq!(second, b);
        t.fail(b, ExecError::Protocol("x".into()));
        assert_eq!(t.get(b).unwrap().state, JobState::Failed);
        assert!(t.claim().is_none());
    }

    #[test]
    fn identical_submissions_coalesce_until_terminal() {
        let mut t = JobTable::new(8, 64, 64);
        let (a, _) = t.admit(key(5), manifest(5)).unwrap();
        // Same key while queued: coalesced.
        let (a2, d) = t.admit(key(5), manifest(5)).unwrap();
        assert_eq!((a2, d), (a, Disposition::Coalesced));
        // Still coalesced while running.
        let _ = t.claim().unwrap();
        let (a3, d) = t.admit(key(5), manifest(5)).unwrap();
        assert_eq!((a3, d), (a, Disposition::Coalesced));
        // After completion the key is free again (the cache layer above
        // answers it from now on).
        t.complete(a, Arc::new(vec![9]));
        let (b, d) = t.admit(key(5), manifest(5)).unwrap();
        assert_ne!(b, a);
        assert_eq!(d, Disposition::Queued);
    }

    #[test]
    fn queue_capacity_is_enforced_and_excludes_running_jobs() {
        let mut t = JobTable::new(1, 64, 64);
        let (_a, _) = t.admit(key(1), manifest(1)).unwrap();
        // Queue full: a *different* manifest is rejected.
        assert!(matches!(
            t.admit(key(2), manifest(2)),
            Err(SubmitRejected::QueueFull { capacity: 1 })
        ));
        // But an identical one still coalesces (no queue slot needed).
        assert!(matches!(
            t.admit(key(1), manifest(1)),
            Ok((_, Disposition::Coalesced))
        ));
        // Claiming frees the slot: running jobs do not count.
        let _ = t.claim().unwrap();
        assert!(t.admit(key(2), manifest(2)).is_ok());
    }

    #[test]
    fn cancel_only_affects_queued_jobs() {
        let mut t = JobTable::new(8, 64, 64);
        let (a, _) = t.admit(key(1), manifest(1)).unwrap();
        let (b, _) = t.admit(key(2), manifest(2)).unwrap();
        assert_eq!(t.cancel(b), Some(CancelOutcome::Cancelled));
        assert_eq!(t.get(b).unwrap().state, JobState::Cancelled);
        // The cancelled entry is skipped by claim.
        let claimed = t.claim().unwrap().job;
        assert_eq!(claimed, a);
        assert!(t.claim().is_none());
        // Running and terminal jobs report their state, unchanged.
        assert_eq!(
            t.cancel(a),
            Some(CancelOutcome::NotQueued(JobState::Running))
        );
        assert_eq!(t.get(a).unwrap().state, JobState::Running);
        t.complete(a, Arc::new(vec![0]));
        assert_eq!(t.cancel(a), Some(CancelOutcome::NotQueued(JobState::Done)));
        assert_eq!(t.cancel(JobId(999)), None);
        // A new identical submission after cancellation re-queues (the
        // single-flight entry was released).
        assert!(matches!(
            t.admit(key(2), manifest(2)),
            Ok((_, Disposition::Queued))
        ));
    }

    #[test]
    fn cancel_refuses_jobs_other_submissions_coalesced_onto() {
        // Regression: one caller's cancel must not silently fail every
        // coalesced waiter's fetch.
        let mut t = JobTable::new(8, 64, 64);
        let (a, _) = t.admit(key(1), manifest(1)).unwrap();
        let (a2, d) = t.admit(key(1), manifest(1)).unwrap();
        assert_eq!((a2, d), (a, Disposition::Coalesced));
        assert_eq!(t.cancel(a), Some(CancelOutcome::Shared { waiters: 1 }));
        assert_eq!(t.get(a).unwrap().state, JobState::Queued, "job survives");
        // The job still claims and completes for everyone.
        assert_eq!(t.claim().map(|c| c.job), Some(a));
        t.complete(a, Arc::new(vec![1]));
        assert_eq!(t.get(a).unwrap().state, JobState::Done);
    }

    #[test]
    fn cancelled_job_releases_its_queue_slot_immediately() {
        // Regression: a cancelled tombstone used to keep occupying the
        // bounded queue until a dispatcher popped it, causing spurious
        // queue-full rejections for the lifetime of whatever ran ahead.
        let mut t = JobTable::new(1, 64, 64);
        let (a, _) = t.admit(key(1), manifest(1)).unwrap();
        assert!(matches!(
            t.admit(key(2), manifest(2)),
            Err(SubmitRejected::QueueFull { .. })
        ));
        assert_eq!(t.cancel(a), Some(CancelOutcome::Cancelled));
        assert_eq!(t.queued_len(), 0, "the slot frees on cancel, not on pop");
        let (b, d) = t.admit(key(2), manifest(2)).unwrap();
        assert_eq!(d, Disposition::Queued);
        // And the dispatcher claims the live job directly.
        assert_eq!(t.claim().map(|c| c.job), Some(b));
        assert!(t.claim().is_none());
    }

    #[test]
    fn claim_tolerates_evicted_records_in_the_fifo() {
        // Defense in depth: even if an id lingers in the FIFO after its
        // record was evicted from terminal retention, claim must skip it
        // — a panic here would poison the daemon's mutex.
        let mut t = JobTable::new(8, 1, 1);
        let (a, _) = t.admit(key(1), manifest(1)).unwrap();
        // Force the pathological shape directly: terminal-retire a's id
        // twice over a retention bound of one, evicting its record while
        // the FIFO still references it.
        t.retire(a.0);
        t.retire(a.0);
        assert!(t.get(a).is_none());
        assert!(t.claim().is_none(), "missing record must be a skip");
    }

    #[test]
    fn terminal_records_are_retained_up_to_the_bound() {
        let mut t = JobTable::new(8, 2, 2);
        let mut ids = Vec::new();
        for i in 0..4u64 {
            let (id, _) = t.admit(key(i), manifest(i)).unwrap();
            let _ = t.claim().unwrap();
            t.complete(id, Arc::new(vec![i as u8]));
            ids.push(id);
        }
        // Only the two most recent terminal records survive.
        assert!(t.get(ids[0]).is_none());
        assert!(t.get(ids[1]).is_none());
        assert!(t.get(ids[2]).is_some());
        assert!(t.get(ids[3]).is_some());
    }

    #[test]
    fn progress_cell_is_monotone_and_shared_with_the_claim() {
        let mut t = JobTable::new(8, 64, 64);
        let (a, _) = t.admit(key(1), manifest(1)).unwrap();
        let claimed = t.claim().unwrap();
        claimed.progress.set_total(2);
        claimed.progress.record(1, 0, 0);
        claimed.progress.record(2, 0, 1);
        // A straggling out-of-order callback can never move `done` back.
        claimed.progress.record(1, 0, 0);
        let snap = t.get(a).unwrap().progress.snapshot();
        assert_eq!((snap.done, snap.total), (2, 2));
        // Cache hits never execute: total stays 0.
        let hit = t.admit_hit(key(9), Arc::new(vec![1]));
        assert_eq!(t.get(hit).unwrap().progress.snapshot().total, 0);
    }

    #[test]
    fn cache_hits_are_born_done() {
        let mut t = JobTable::new(8, 64, 64);
        let id = t.admit_hit(key(1), Arc::new(vec![7]));
        let rec = t.get(id).unwrap();
        assert_eq!(rec.state, JobState::Done);
        assert_eq!(**rec.result.as_ref().unwrap(), vec![7]);
        // A hit does not occupy the single-flight index.
        assert!(matches!(
            t.admit(key(1), manifest(1)),
            Ok((_, Disposition::Queued))
        ));
    }
}
