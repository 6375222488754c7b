//! The scheduler half of the service: dispatcher threads that claim
//! queued jobs and execute them on the configured
//! [`ExecBackend`](crate::exec::ExecBackend).
//!
//! Dispatchers are plain threads (no async runtime in the offline vendor
//! tree): each one blocks on the service's work condvar, claims the oldest
//! queued job, executes it **outside** the service lock — a dispatch may
//! run for minutes across shards or remote peers — and publishes the
//! terminal state. Parallelism *within* a job comes from the backend
//! (threads, worker subprocesses, TCP peers); parallelism *across* jobs
//! comes from running several dispatchers.
//!
//! Each execution writes its backend progress callbacks into the job's
//! shared [`ProgressCell`](super::queue::ProgressCell), which is what the
//! fetch keep-alive path and the HTTP gateway render — observation only,
//! never control flow.

use super::cache::encode_blob;
use super::queue::ClaimedJob;
use super::Service;
use std::sync::Arc;

/// The dispatcher thread body: claim → execute → publish, until the
/// service stops.
pub(super) fn dispatcher_loop(service: &Service) {
    while let Some(claimed) = service.next_claim() {
        execute(service, claimed);
    }
}

/// Execute one claimed job on the service's backend and publish the
/// outcome (result blob into both cache tiers, or the executor error).
pub(super) fn execute(service: &Service, claimed: ClaimedJob) {
    let ClaimedJob {
        job,
        manifest,
        key,
        progress,
        queue_wait,
    } = claimed;
    crate::obs::obs().end_past(
        key.trace_id(),
        crate::obs::name::QUEUE_WAIT,
        crate::obs::cat::SERVICE,
        job.0,
        queue_wait,
    );
    progress.set_total(manifest.total_slots() as u64);
    let cell = progress.clone();
    let on_progress = move |p: crate::grid::Progress| {
        cell.record(p.completed as u64, p.point as u64, p.replication);
    };
    // The dispatch runs as the job's trace: backend pool checkouts and
    // slot executions below attribute their spans to it, worker
    // subprocesses receive its id on the wire, and a failure leaves a
    // flight record before the error is published unchanged.
    let outcome = crate::obs::dispatch(
        || key.trace_id(),
        job.0,
        &job.to_string(),
        || {
            let decoded = service
                .registry()
                .decode(&manifest.kind, &manifest.payload)?;
            service
                .backend()
                .run_segments(decoded.as_ref(), &manifest, Some(&on_progress))
        },
    );
    match outcome {
        Ok(slots) => {
            let blob = Arc::new(encode_blob(&slots));
            service.publish_done(job, key, blob);
        }
        Err(e) => service.publish_failed(job, e),
    }
}
