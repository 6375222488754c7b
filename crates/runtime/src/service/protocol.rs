//! The versioned client/daemon codec of the experiment service.
//!
//! Requests and responses travel as length-prefixed frames over any
//! [`FrameTransport`](crate::remote::FrameTransport) (in practice TCP).
//! Every request opens with a tag byte and the protocol version; the
//! daemon answers each request with exactly one response frame, **in
//! request order** — so a client may pipeline requests (HTTP/1.1 style):
//! submit several jobs back to back, then fetch them, all on one
//! connection, while the daemon executes earlier submissions concurrently.
//! The one deliberately blocking verb is *fetch*, which does not answer
//! until the job reaches a terminal state; a client that wants to overlap
//! other verbs with a long fetch uses a second connection.

use sim_core::exec::{ExecError, TaskManifest};
use sim_core::wire::{self, Reader, WireError};

/// Protocol version carried by every request frame. Version 1 was the
/// initial submit/status/fetch/cancel/stats/shutdown verb set; version 2
/// extends the stats snapshot with fleet-degradation and cache-hygiene
/// counters and adds the `BackendUnavailable` failure kind; version 3
/// upgrades the blocking-fetch keep-alive to a `Progress` frame carrying
/// live done/total slot counts (plain heartbeats remain for jobs with no
/// progress record, e.g. cache hits); version 4 adds the trace verb
/// (fetch a job's collected spans as Chrome trace-event JSON).
pub const SERVICE_WIRE_VERSION: u8 = 4;

/// Request frame tags (client → daemon).
pub mod request_tag {
    /// Submit a manifest for execution (or a cache/single-flight answer).
    pub const SUBMIT: u8 = b'S';
    /// Query one job's state.
    pub const STATUS: u8 = b'?';
    /// Block until a job is terminal, then return its result or error.
    pub const FETCH: u8 = b'F';
    /// Cancel a job that is still queued.
    pub const CANCEL: u8 = b'C';
    /// Snapshot the daemon's counters.
    pub const STATS: u8 = b'I';
    /// Stop the daemon (acknowledged before it exits).
    pub const SHUTDOWN: u8 = b'Q';
    /// Fetch a job's collected spans as Chrome trace-event JSON (wire
    /// version 4). Answered immediately from the daemon's span ring —
    /// tracing disabled or spans evicted simply yields fewer events.
    pub const TRACE: u8 = b'G';
}

/// Response frame tags (daemon → client).
pub mod response_tag {
    /// Submission accepted: job id + disposition.
    pub const SUBMITTED: u8 = b'J';
    /// Job state snapshot.
    pub const STATUS: u8 = b'T';
    /// Terminal result blob.
    pub const RESULT: u8 = b'R';
    /// Terminal failure (an encoded [`ExecError`](sim_core::exec::ExecError)).
    pub const FAILED: u8 = b'E';
    /// Counter snapshot.
    pub const STATS: u8 = b'A';
    /// Plain acknowledgement (cancel, shutdown).
    pub const OK: u8 = b'K';
    /// Request-level error (bad version, unknown job, queue full).
    pub const ERR: u8 = b'X';
    /// Keep-alive emitted while a blocking fetch waits (not a response —
    /// clients skip it). Lets clients bound their read timeouts without
    /// mistaking a long-running job for a dead daemon.
    pub const HEARTBEAT: u8 = b'H';
    /// Live progress while a blocking fetch waits (wire version 3): a
    /// keep-alive that also carries the job's done/total slot counts and
    /// the most recently completed `(point, replication)`. Cosmetic —
    /// clients that skip it lose nothing but rendering.
    pub const PROGRESS: u8 = b'P';
    /// A job's Chrome trace-event JSON (wire version 4). `T` was already
    /// taken by [`STATUS`], so the trace verb echoes its request tag.
    pub const TRACE: u8 = b'G';
}

/// A service job identifier, unique within one daemon process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job {}", self.0)
    }
}

/// Where a submission's answer will come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// New work: enqueued for the scheduler.
    Queued,
    /// Answered from the in-memory LRU tier.
    HitMem,
    /// Answered from the disk tier (and promoted into memory).
    HitDisk,
    /// Coalesced onto an identical in-flight job (single-flight).
    Coalesced,
}

impl Disposition {
    /// Whether the submission was answered from the result cache.
    pub fn is_hit(&self) -> bool {
        matches!(self, Disposition::HitMem | Disposition::HitDisk)
    }

    fn to_u8(self) -> u8 {
        match self {
            Disposition::Queued => 0,
            Disposition::HitMem => 1,
            Disposition::HitDisk => 2,
            Disposition::Coalesced => 3,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => Disposition::Queued,
            1 => Disposition::HitMem,
            2 => Disposition::HitDisk,
            3 => Disposition::Coalesced,
            other => return Err(WireError::new(format!("unknown disposition {other}"))),
        })
    }
}

impl std::fmt::Display for Disposition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Disposition::Queued => "queued",
            Disposition::HitMem => "cache-hit (memory)",
            Disposition::HitDisk => "cache-hit (disk)",
            Disposition::Coalesced => "coalesced onto an in-flight job",
        })
    }
}

/// The lifecycle of a service job.
///
/// ```text
/// Queued ──▶ Running ──▶ Done | Failed
///    └──────────────────▶ Cancelled
/// ```
///
/// Cache hits are born `Done`. `Done`, `Failed` and `Cancelled` are
/// terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Waiting in the bounded queue.
    Queued,
    /// Claimed by a dispatcher, executing on the backend.
    Running,
    /// Finished; the result blob is available.
    Done,
    /// Finished with an executor error.
    Failed,
    /// Cancelled while still queued.
    Cancelled,
}

impl JobState {
    /// Whether the state admits no further transitions.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }

    fn to_u8(self) -> u8 {
        match self {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Cancelled => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => JobState::Queued,
            1 => JobState::Running,
            2 => JobState::Done,
            3 => JobState::Failed,
            4 => JobState::Cancelled,
            other => return Err(WireError::new(format!("unknown job state {other}"))),
        })
    }
}

impl std::fmt::Display for JobState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        })
    }
}

/// A snapshot of the daemon's counters (all monotonic since startup).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Submissions received (any disposition).
    pub submitted: u64,
    /// Submissions answered from the in-memory tier.
    pub hits_mem: u64,
    /// Submissions answered from the disk tier.
    pub hits_disk: u64,
    /// Submissions coalesced onto an in-flight identical job.
    pub coalesced: u64,
    /// Jobs actually executed on the backend.
    pub executed: u64,
    /// Jobs that finished with an executor error.
    pub failed: u64,
    /// Submissions rejected because the queue was full.
    pub rejected: u64,
    /// Jobs cancelled while queued.
    pub cancelled: u64,
    /// Fleet members restarted after a mid-chunk death (see
    /// [`crate::fleet`]).
    pub restarts: u64,
    /// Quarantine transitions: hosts benched after repeated failures.
    pub quarantined: u64,
    /// Dispatches (whole or partial) degraded to in-process execution
    /// because the fleet shrank to zero.
    pub fallbacks: u64,
    /// Disk-cache entries evicted to honour the size budget.
    pub cache_evicted: u64,
    /// Corrupt disk-cache entries detected and deleted.
    pub cache_corrupt: u64,
}

impl ServiceStats {
    /// Total cache hits across both tiers.
    pub fn hits(&self) -> u64 {
        self.hits_mem + self.hits_disk
    }

    /// The snapshot's fields as `(name, value)` pairs, in wire order —
    /// the one list the JSON encoder, the human rendering and the
    /// gateway's Prometheus exposition all draw from, so they can never
    /// disagree on names or coverage.
    pub fn fields(&self) -> [(&'static str, u64); 13] {
        [
            ("submitted", self.submitted),
            ("hits_mem", self.hits_mem),
            ("hits_disk", self.hits_disk),
            ("coalesced", self.coalesced),
            ("executed", self.executed),
            ("failed", self.failed),
            ("rejected", self.rejected),
            ("cancelled", self.cancelled),
            ("restarts", self.restarts),
            ("quarantined", self.quarantined),
            ("fallbacks", self.fallbacks),
            ("cache_evicted", self.cache_evicted),
            ("cache_corrupt", self.cache_corrupt),
        ]
    }

    /// Render as a flat JSON object (keys match the field names). Shared
    /// by `repro stats --json` and the HTTP gateway's `GET /stats`.
    pub fn render_json(&self) -> String {
        let body: Vec<String> = self
            .fields()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// One live progress observation for a running job: how many of its slots
/// have completed, and which `(point, replication)` finished most
/// recently. Streamed in [`ServiceResponse::Progress`] frames while a
/// blocking fetch waits; `total == 0` means no execution ever started
/// (cache hits are born done).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JobProgress {
    /// Slots completed so far (monotone per job).
    pub done: u64,
    /// Total slots in the job's manifest.
    pub total: u64,
    /// Sweep-point index of the most recently completed slot.
    pub point: u64,
    /// Replication index of the most recently completed slot.
    pub replication: u64,
}

/// A decoded client request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceRequest {
    /// Run (or answer from cache) one manifest. `threads` is advisory —
    /// the daemon's configured backend governs actual resources.
    Submit {
        /// Requested worker threads (advisory).
        threads: u32,
        /// The fully described grid to execute.
        manifest: TaskManifest,
    },
    /// Query a job's state.
    Status(JobId),
    /// Block until a job is terminal; answer with its result or failure.
    Fetch(JobId),
    /// Cancel a queued job.
    Cancel(JobId),
    /// Snapshot the daemon counters.
    Stats,
    /// Stop the daemon.
    Shutdown,
    /// Fetch a job's collected spans as Chrome trace-event JSON.
    Trace(JobId),
}

/// A decoded daemon response.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceResponse {
    /// Submission accepted.
    Submitted {
        /// The job to poll/fetch.
        job: JobId,
        /// Where the answer will come from.
        disposition: Disposition,
    },
    /// State snapshot for a status request.
    Status {
        /// The queried job.
        job: JobId,
        /// Its current state.
        state: JobState,
    },
    /// A finished job's result blob (see
    /// [`decode_blob`](crate::service::cache::decode_blob)).
    Result {
        /// The fetched job.
        job: JobId,
        /// Encoded per-slot results, byte-identical to direct execution.
        blob: Vec<u8>,
    },
    /// A finished job's failure.
    Failed {
        /// The fetched job.
        job: JobId,
        /// The executor error, round-tripped losslessly.
        error: ExecError,
    },
    /// Counter snapshot.
    Stats(ServiceStats),
    /// Plain acknowledgement.
    Ok,
    /// Request-level error.
    Err(String),
    /// Keep-alive while a fetch waits; carries nothing and is skipped by
    /// clients (see [`request_tag`]'s fetch semantics).
    Heartbeat,
    /// Live progress while a fetch waits (also a keep-alive). Purely
    /// cosmetic: a client that consumes it like a heartbeat gets the same
    /// bytes in the end.
    Progress {
        /// The running job.
        job: JobId,
        /// Its current progress counters.
        progress: JobProgress,
    },
    /// A job's Chrome trace-event JSON. Always well-formed JSON; a job
    /// served with tracing disabled yields an empty event list.
    Trace {
        /// The queried job.
        job: JobId,
        /// Chrome trace-event JSON (loadable in Perfetto).
        json: String,
    },
}

impl ServiceRequest {
    /// Encode into one frame body (tag, version, payload).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ServiceRequest::Submit { threads, manifest } => {
                wire::put_u8(&mut buf, request_tag::SUBMIT);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
                wire::put_u32(&mut buf, *threads);
                manifest.encode_into(&mut buf);
            }
            ServiceRequest::Status(job) => {
                wire::put_u8(&mut buf, request_tag::STATUS);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
                wire::put_u64(&mut buf, job.0);
            }
            ServiceRequest::Fetch(job) => {
                wire::put_u8(&mut buf, request_tag::FETCH);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
                wire::put_u64(&mut buf, job.0);
            }
            ServiceRequest::Cancel(job) => {
                wire::put_u8(&mut buf, request_tag::CANCEL);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
                wire::put_u64(&mut buf, job.0);
            }
            ServiceRequest::Stats => {
                wire::put_u8(&mut buf, request_tag::STATS);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
            }
            ServiceRequest::Shutdown => {
                wire::put_u8(&mut buf, request_tag::SHUTDOWN);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
            }
            ServiceRequest::Trace(job) => {
                wire::put_u8(&mut buf, request_tag::TRACE);
                wire::put_u8(&mut buf, SERVICE_WIRE_VERSION);
                wire::put_u64(&mut buf, job.0);
            }
        }
        buf
    }

    /// Decode one request frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let tag = r.get_u8()?;
        let version = r.get_u8()?;
        if version != SERVICE_WIRE_VERSION {
            return Err(WireError::new(format!(
                "service protocol version {version} (daemon speaks {SERVICE_WIRE_VERSION})"
            )));
        }
        let req = match tag {
            request_tag::SUBMIT => {
                let threads = r.get_u32()?;
                let manifest = TaskManifest::decode(&mut r)?;
                ServiceRequest::Submit { threads, manifest }
            }
            request_tag::STATUS => ServiceRequest::Status(JobId(r.get_u64()?)),
            request_tag::FETCH => ServiceRequest::Fetch(JobId(r.get_u64()?)),
            request_tag::CANCEL => ServiceRequest::Cancel(JobId(r.get_u64()?)),
            request_tag::STATS => ServiceRequest::Stats,
            request_tag::SHUTDOWN => ServiceRequest::Shutdown,
            request_tag::TRACE => ServiceRequest::Trace(JobId(r.get_u64()?)),
            other => {
                return Err(WireError::new(format!(
                    "unknown service request tag {other:#x}"
                )))
            }
        };
        r.finish()?;
        Ok(req)
    }
}

impl ServiceResponse {
    /// Encode into one frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            ServiceResponse::Submitted { job, disposition } => {
                wire::put_u8(&mut buf, response_tag::SUBMITTED);
                wire::put_u64(&mut buf, job.0);
                wire::put_u8(&mut buf, disposition.to_u8());
            }
            ServiceResponse::Status { job, state } => {
                wire::put_u8(&mut buf, response_tag::STATUS);
                wire::put_u64(&mut buf, job.0);
                wire::put_u8(&mut buf, state.to_u8());
            }
            ServiceResponse::Result { job, blob } => {
                wire::put_u8(&mut buf, response_tag::RESULT);
                wire::put_u64(&mut buf, job.0);
                wire::put_bytes(&mut buf, blob);
            }
            ServiceResponse::Failed { job, error } => {
                wire::put_u8(&mut buf, response_tag::FAILED);
                wire::put_u64(&mut buf, job.0);
                encode_exec_error(&mut buf, error);
            }
            ServiceResponse::Stats(s) => {
                wire::put_u8(&mut buf, response_tag::STATS);
                for v in [
                    s.submitted,
                    s.hits_mem,
                    s.hits_disk,
                    s.coalesced,
                    s.executed,
                    s.failed,
                    s.rejected,
                    s.cancelled,
                    s.restarts,
                    s.quarantined,
                    s.fallbacks,
                    s.cache_evicted,
                    s.cache_corrupt,
                ] {
                    wire::put_u64(&mut buf, v);
                }
            }
            ServiceResponse::Ok => wire::put_u8(&mut buf, response_tag::OK),
            ServiceResponse::Err(msg) => {
                wire::put_u8(&mut buf, response_tag::ERR);
                wire::put_str(&mut buf, msg);
            }
            ServiceResponse::Heartbeat => wire::put_u8(&mut buf, response_tag::HEARTBEAT),
            ServiceResponse::Progress { job, progress } => {
                wire::put_u8(&mut buf, response_tag::PROGRESS);
                wire::put_u64(&mut buf, job.0);
                wire::put_u64(&mut buf, progress.done);
                wire::put_u64(&mut buf, progress.total);
                wire::put_u64(&mut buf, progress.point);
                wire::put_u64(&mut buf, progress.replication);
            }
            ServiceResponse::Trace { job, json } => {
                wire::put_u8(&mut buf, response_tag::TRACE);
                wire::put_u64(&mut buf, job.0);
                wire::put_str(&mut buf, json);
            }
        }
        buf
    }

    /// Decode one response frame body.
    pub fn decode(body: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(body);
        let resp = match r.get_u8()? {
            response_tag::SUBMITTED => ServiceResponse::Submitted {
                job: JobId(r.get_u64()?),
                disposition: Disposition::from_u8(r.get_u8()?)?,
            },
            response_tag::STATUS => ServiceResponse::Status {
                job: JobId(r.get_u64()?),
                state: JobState::from_u8(r.get_u8()?)?,
            },
            response_tag::RESULT => ServiceResponse::Result {
                job: JobId(r.get_u64()?),
                blob: r.get_bytes()?.to_vec(),
            },
            response_tag::FAILED => ServiceResponse::Failed {
                job: JobId(r.get_u64()?),
                error: decode_exec_error(&mut r)?,
            },
            response_tag::STATS => ServiceResponse::Stats(ServiceStats {
                submitted: r.get_u64()?,
                hits_mem: r.get_u64()?,
                hits_disk: r.get_u64()?,
                coalesced: r.get_u64()?,
                executed: r.get_u64()?,
                failed: r.get_u64()?,
                rejected: r.get_u64()?,
                cancelled: r.get_u64()?,
                restarts: r.get_u64()?,
                quarantined: r.get_u64()?,
                fallbacks: r.get_u64()?,
                cache_evicted: r.get_u64()?,
                cache_corrupt: r.get_u64()?,
            }),
            response_tag::OK => ServiceResponse::Ok,
            response_tag::ERR => ServiceResponse::Err(r.get_str()?.to_string()),
            response_tag::HEARTBEAT => ServiceResponse::Heartbeat,
            response_tag::PROGRESS => ServiceResponse::Progress {
                job: JobId(r.get_u64()?),
                progress: JobProgress {
                    done: r.get_u64()?,
                    total: r.get_u64()?,
                    point: r.get_u64()?,
                    replication: r.get_u64()?,
                },
            },
            response_tag::TRACE => ServiceResponse::Trace {
                job: JobId(r.get_u64()?),
                json: r.get_str()?.to_string(),
            },
            other => {
                return Err(WireError::new(format!(
                    "unknown service response tag {other:#x}"
                )))
            }
        };
        r.finish()?;
        Ok(resp)
    }
}

/// Append the lossless encoding of an [`ExecError`] (so a failure fetched
/// through the service is indistinguishable from one raised locally).
pub fn encode_exec_error(buf: &mut Vec<u8>, e: &ExecError) {
    match e {
        ExecError::Task {
            flat_index,
            point,
            replication,
            message,
        } => {
            wire::put_u8(buf, 0);
            wire::put_u64(buf, *flat_index as u64);
            wire::put_u64(buf, *point as u64);
            wire::put_u64(buf, *replication);
            wire::put_str(buf, message);
        }
        ExecError::Worker {
            flat_index,
            message,
        } => {
            wire::put_u8(buf, 1);
            wire::put_u64(buf, *flat_index as u64);
            wire::put_str(buf, message);
        }
        ExecError::Protocol(message) => {
            wire::put_u8(buf, 2);
            wire::put_str(buf, message);
        }
        ExecError::BackendUnavailable(message) => {
            wire::put_u8(buf, 3);
            wire::put_str(buf, message);
        }
    }
}

/// Decode an [`ExecError`] written by [`encode_exec_error`].
pub fn decode_exec_error(r: &mut Reader<'_>) -> Result<ExecError, WireError> {
    Ok(match r.get_u8()? {
        0 => ExecError::Task {
            flat_index: r.get_u64()? as usize,
            point: r.get_u64()? as usize,
            replication: r.get_u64()?,
            message: r.get_str()?.to_string(),
        },
        1 => ExecError::Worker {
            flat_index: r.get_u64()? as usize,
            message: r.get_str()?.to_string(),
        },
        2 => ExecError::Protocol(r.get_str()?.to_string()),
        3 => ExecError::BackendUnavailable(r.get_str()?.to_string()),
        other => return Err(WireError::new(format!("unknown exec error tag {other}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::MulJob;
    use sim_core::grid::Segment;

    fn manifest() -> TaskManifest {
        TaskManifest::for_job(
            &MulJob { factor: 2 },
            vec![Segment {
                point: 1,
                base_rep: 3,
                count: 2,
            }],
            &|p, r| (p as u64) * 7 + r,
        )
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            ServiceRequest::Submit {
                threads: 4,
                manifest: manifest(),
            },
            ServiceRequest::Status(JobId(7)),
            ServiceRequest::Fetch(JobId(u64::MAX)),
            ServiceRequest::Cancel(JobId(0)),
            ServiceRequest::Stats,
            ServiceRequest::Shutdown,
            ServiceRequest::Trace(JobId(42)),
        ] {
            let body = req.encode();
            assert_eq!(ServiceRequest::decode(&body).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
        let errors = [
            ExecError::Task {
                flat_index: 4,
                point: 1,
                replication: 2,
                message: "boom".into(),
            },
            ExecError::Worker {
                flat_index: 9,
                message: "died".into(),
            },
            ExecError::Protocol("garbage".into()),
            ExecError::BackendUnavailable("all peers quarantined".into()),
        ];
        let mut responses = vec![
            ServiceResponse::Submitted {
                job: JobId(3),
                disposition: Disposition::HitDisk,
            },
            ServiceResponse::Status {
                job: JobId(3),
                state: JobState::Running,
            },
            ServiceResponse::Result {
                job: JobId(5),
                blob: vec![1, 2, 3],
            },
            ServiceResponse::Stats(ServiceStats {
                submitted: 10,
                hits_mem: 1,
                hits_disk: 2,
                coalesced: 3,
                executed: 4,
                failed: 5,
                rejected: 6,
                cancelled: 7,
                restarts: 8,
                quarantined: 9,
                fallbacks: 10,
                cache_evicted: 11,
                cache_corrupt: 12,
            }),
            ServiceResponse::Ok,
            ServiceResponse::Err("queue full".into()),
            ServiceResponse::Heartbeat,
            ServiceResponse::Progress {
                job: JobId(6),
                progress: JobProgress {
                    done: 12,
                    total: 30,
                    point: 2,
                    replication: 3,
                },
            },
            ServiceResponse::Trace {
                job: JobId(8),
                json: "{\"traceEvents\":[]}".into(),
            },
        ];
        for e in errors {
            responses.push(ServiceResponse::Failed {
                job: JobId(1),
                error: e,
            });
        }
        for resp in responses {
            let body = resp.encode();
            assert_eq!(ServiceResponse::decode(&body).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn wrong_version_and_bad_tags_rejected() {
        let mut body = ServiceRequest::Stats.encode();
        body[1] = SERVICE_WIRE_VERSION + 1;
        assert!(ServiceRequest::decode(&body).is_err());
        assert!(ServiceRequest::decode(&[0xFE, SERVICE_WIRE_VERSION]).is_err());
        assert!(ServiceResponse::decode(&[0xFE]).is_err());
        // Trailing bytes are rejected (layout drift guard).
        let mut body = ServiceRequest::Status(JobId(1)).encode();
        body.push(0);
        assert!(ServiceRequest::decode(&body).is_err());
    }

    #[test]
    fn disposition_and_state_semantics() {
        assert!(Disposition::HitMem.is_hit());
        assert!(Disposition::HitDisk.is_hit());
        assert!(!Disposition::Queued.is_hit());
        assert!(!Disposition::Coalesced.is_hit());
        assert!(JobState::Done.is_terminal());
        assert!(JobState::Failed.is_terminal());
        assert!(JobState::Cancelled.is_terminal());
        assert!(!JobState::Queued.is_terminal());
        assert!(!JobState::Running.is_terminal());
        assert_eq!(
            ServiceStats {
                hits_mem: 2,
                hits_disk: 3,
                ..Default::default()
            }
            .hits(),
            5
        );
        assert_eq!(format!("{}", JobId(4)), "job 4");
    }

    #[test]
    fn stats_json_covers_every_field() {
        let s = ServiceStats {
            submitted: 10,
            hits_mem: 1,
            hits_disk: 2,
            coalesced: 3,
            executed: 4,
            failed: 5,
            rejected: 6,
            cancelled: 7,
            restarts: 8,
            quarantined: 9,
            fallbacks: 11,
            cache_evicted: 12,
            cache_corrupt: 13,
        };
        let json = s.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        for (name, value) in s.fields() {
            assert!(json.contains(&format!("\"{name}\":{value}")), "{json}");
        }
        // Exactly the 13 wire fields, no more.
        assert_eq!(json.matches(':').count(), s.fields().len(), "{json}");
    }
}
