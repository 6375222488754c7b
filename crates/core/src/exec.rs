//! The executor backend seam: portable task manifests and the backends
//! that run them.
//!
//! Closure grids ([`crate::Runner::grid`]) are bound to one address space.
//! To spread the same flat task stream over worker **subprocesses** and
//! remote hosts, a grid must be *described as data*:
//!
//! * a [`PortableJob`] is the task family — a named, self-encoding recipe
//!   that turns `(point, replication, seed)` into an encoded result;
//! * a [`TaskManifest`] pins down one concrete grid: the job's identity and
//!   payload, the contiguous flat-index [`Segment`]s to run, and one seed
//!   per slot;
//! * an [`ExecBackend`] executes a manifest and hands back per-slot result
//!   bytes in flat-index order.
//!
//! [`InProcessBackend`] (the scoped thread pool — the same scheduling core
//! behind `Runner::grid`) is the backend a [`Runner`](crate::Runner) uses
//! when none is plugged in. Process-crossing backends (worker subprocesses,
//! TCP peers, a service daemon) live in `sim-runtime` and plug in through
//! [`Runner::with_backend`](crate::Runner::with_backend). Because every
//! fold downstream consumes slots in flat-index order, **any backend ×
//! thread count yields byte-identical results**.

use crate::grid::{run_segments_core, GridPlan, ProgressFn, Segment};
use crate::wire::{self, Reader, WireError};
use std::collections::BTreeMap;

/// Protocol version byte carried by every manifest request frame.
/// Version 2 introduced tagged requests (manifest vs graceful shutdown)
/// and multi-manifest serve loops for the remote TCP subsystem; version 3
/// added a batch-width field, so workers could run contiguous same-point
/// slots on a batched engine; version 4 upgraded the liveness
/// heartbeat to a progress frame (`P`: delivered/total slot counts), so
/// parents can render live per-chunk progress without extra round trips;
/// version 5 added the trace context (`u64` trace ID) to the manifest
/// request and the advisory span-batch response frame (`T`), so worker
/// spans fold back into the parent's job trace; version 6 dropped the
/// batch-width field again, since every slot now runs one replication on
/// one engine.
/// (Bumping the version also rotates the service cache's key space —
/// cached result bytes are identical across versions, but entries written
/// by older binaries describe an older protocol. That is why it lives
/// here, next to the manifest codec: [`crate::key::CacheKey`] hashes it.)
pub const WIRE_VERSION: u8 = 6;

// --- errors --------------------------------------------------------------

/// An executor failure: a task error, a worker-process failure, or a
/// protocol/spawn problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A task reported an error. `flat_index` is the task's global flat
    /// index in the manifest; when several tasks fail, the lowest flat
    /// index wins (matching `Runner::try_grid`).
    Task {
        /// Global flat index of the failing slot.
        flat_index: usize,
        /// Sweep-point index of the failing slot.
        point: usize,
        /// Replication index of the failing slot.
        replication: u64,
        /// The task's error message.
        message: String,
    },
    /// A worker subprocess died (crash, kill, bad exit) before delivering
    /// its shard. `flat_index` is the first slot of the undelivered range.
    Worker {
        /// First global flat index the dead worker still owed.
        flat_index: usize,
        /// What happened to the worker.
        message: String,
    },
    /// Manifest/frame decode failures, spawn failures, registry misses.
    Protocol(String),
    /// The execution fleet is permanently unavailable for this dispatch
    /// — every peer quarantined or the pool exhausted — and in-process
    /// fallback was not enabled. Queued service jobs surface this
    /// instead of aging out silently.
    BackendUnavailable(String),
}

impl ExecError {
    /// The global flat index this error is attributed to, for
    /// lowest-index-wins selection across shards.
    pub fn flat_index(&self) -> usize {
        match self {
            ExecError::Task { flat_index, .. } | ExecError::Worker { flat_index, .. } => {
                *flat_index
            }
            ExecError::Protocol(_) | ExecError::BackendUnavailable(_) => 0,
        }
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Task {
                flat_index,
                point,
                replication,
                message,
            } => write!(
                f,
                "task {flat_index} (point {point}, replication {replication}) failed: {message}"
            ),
            ExecError::Worker {
                flat_index,
                message,
            } => write!(f, "worker owning flat index {flat_index} failed: {message}"),
            ExecError::Protocol(m) => write!(f, "executor protocol error: {m}"),
            ExecError::BackendUnavailable(m) => write!(f, "backend unavailable: {m}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<WireError> for ExecError {
    fn from(e: WireError) -> Self {
        ExecError::Protocol(e.to_string())
    }
}

// --- portable jobs -------------------------------------------------------

/// A task family that can be executed outside the caller's address space.
///
/// A portable job must be reconstructible from `(kind, payload)` alone: the
/// worker subprocess looks `kind` up in its [`JobRegistry`] and decodes the
/// payload, so the closure-free triple `(point, replication, seed)` fully
/// determines each slot. Results are returned as encoded bytes; since the
/// caller's fold decodes the same bytes whether the slot ran in-process or
/// in a worker, results are **byte-identical across backends** by
/// construction.
pub trait PortableJob: Sync {
    /// Registry key identifying this job family (stable across the
    /// parent/worker process boundary).
    fn kind(&self) -> &'static str;

    /// Encode the job's parameters; the worker's registry decoder must be
    /// able to rebuild an equivalent job from exactly these bytes.
    fn encode_payload(&self, buf: &mut Vec<u8>);

    /// Run one slot, returning the encoded result. `seed` is the slot's
    /// entry from the manifest's seed table.
    fn run_slot(&self, point: usize, replication: u64, seed: u64) -> Result<Vec<u8>, String>;

    /// Run contiguous same-point slots — replication `base_rep + i` with
    /// `seeds[i]` — returning one result per slot in replication order.
    ///
    /// A plain loop over [`PortableJob::run_slot`]. No backend calls it:
    /// every backend runs one slot at a time. It remains so decorators
    /// that wrap a job can time a run of slots as one unit.
    fn run_batch(
        &self,
        point: usize,
        base_rep: u64,
        seeds: &[u64],
    ) -> Vec<Result<Vec<u8>, String>> {
        seeds
            .iter()
            .enumerate()
            .map(|(i, &seed)| self.run_slot(point, base_rep + i as u64, seed))
            .collect()
    }
}

/// Decoder for one job kind: payload bytes back to a runnable job.
pub type JobDecoder = fn(&[u8]) -> Result<Box<dyn PortableJob>, WireError>;

/// The worker-side table mapping job kinds to payload decoders.
///
/// A worker process builds one registry at startup (covering every job its
/// binary can run) and serves manifests against it.
#[derive(Default)]
pub struct JobRegistry {
    decoders: BTreeMap<&'static str, JobDecoder>,
}

impl std::fmt::Debug for JobRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobRegistry")
            .field("kinds", &self.kinds().collect::<Vec<_>>())
            .finish()
    }
}

impl JobRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a decoder for `kind`; panics on duplicate registration
    /// (two decoders for one kind is always a wiring bug).
    pub fn register(&mut self, kind: &'static str, decoder: JobDecoder) {
        let prev = self.decoders.insert(kind, decoder);
        assert!(prev.is_none(), "job kind {kind:?} registered twice");
    }

    /// Decode a job of the given kind from its payload.
    pub fn decode(&self, kind: &str, payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let decoder = self
            .decoders
            .get(kind)
            .ok_or_else(|| WireError::new(format!("unknown job kind {kind:?}")))?;
        decoder(payload)
    }

    /// The registered kinds, in sorted order.
    pub fn kinds(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.decoders.keys().copied()
    }
}

// --- manifest ------------------------------------------------------------

/// A fully serialized description of one grid run: which job, which
/// contiguous flat-index segments, and the seed of every slot.
///
/// The manifest is the unit the worker backend partitions and ships to
/// workers; its compact encoding is hand-rolled (see [`crate::wire`])
/// because the offline build's `serde` is a no-op shim.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskManifest {
    /// Job-family key for the worker's [`JobRegistry`].
    pub kind: String,
    /// Job parameters, encoded by [`PortableJob::encode_payload`].
    pub payload: Vec<u8>,
    /// Contiguous replication runs, in flat-index order. Point indices are
    /// global: a shard's sub-manifest keeps the parent's numbering.
    pub segments: Vec<Segment>,
    /// One RNG seed per flat slot, in flat-index order
    /// (`seeds.len() == total_slots()`).
    pub seeds: Vec<u64>,
}

impl TaskManifest {
    /// Build the manifest for `job` over explicit segments, seeding slot
    /// `(point, rep)` with `seed_of(point, rep)`.
    pub fn for_job(
        job: &dyn PortableJob,
        segments: Vec<Segment>,
        seed_of: &dyn Fn(usize, u64) -> u64,
    ) -> Self {
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let seeds = segments
            .iter()
            .flat_map(|seg| (0..seg.count as u64).map(|i| seed_of(seg.point, seg.base_rep + i)))
            .collect();
        TaskManifest {
            kind: job.kind().to_string(),
            payload,
            segments,
            seeds,
        }
    }

    /// Total number of slots across all segments.
    pub fn total_slots(&self) -> usize {
        self.segments.iter().map(|s| s.count).sum()
    }

    /// `(point, replication, seed)` of every slot, in flat-index order.
    pub fn slots(&self) -> Vec<(usize, u64, u64)> {
        self.segments
            .iter()
            .flat_map(|seg| (0..seg.count as u64).map(|i| (seg.point, seg.base_rep + i)))
            .zip(self.seeds.iter())
            .map(|((point, rep), &seed)| (point, rep, seed))
            .collect()
    }

    /// Fail unless the seed table covers every slot exactly (a decoded
    /// manifest's segment counts come off the wire, so their sum is
    /// checked for overflow).
    pub fn validate(&self) -> Result<(), WireError> {
        let total = self
            .segments
            .iter()
            .try_fold(0usize, |sum, s| sum.checked_add(s.count))
            .ok_or_else(|| WireError::new("manifest slot count overflows"))?;
        if self.seeds.len() != total {
            return Err(WireError::new(format!(
                "manifest has {total} slot(s) but {} seed(s)",
                self.seeds.len()
            )));
        }
        Ok(())
    }

    /// Partition into at most `shards` contiguous flat-index chunks of
    /// near-equal size, splitting segments at chunk boundaries. Returns
    /// `(first global flat index, sub-manifest)` per non-empty chunk;
    /// concatenating the chunks' slots in order reproduces `self` exactly.
    pub fn split(&self, shards: usize) -> Vec<(usize, TaskManifest)> {
        let total = self.total_slots();
        if total == 0 {
            return Vec::new();
        }
        let shards = shards.clamp(1, total);
        let plan = GridPlan::new(&self.segments);
        let mut out = Vec::with_capacity(shards);
        let mut start = 0usize;
        for i in 0..shards {
            let size = total / shards + usize::from(i < total % shards);
            let end = start + size;
            // Collect the segments overlapping [start, end).
            let mut segments = Vec::new();
            let (mut seg_idx, mut offset) = plan.locate(start);
            let mut remaining = size;
            while remaining > 0 {
                let seg = self.segments[seg_idx];
                let take = (seg.count - offset).min(remaining);
                segments.push(Segment {
                    point: seg.point,
                    base_rep: seg.base_rep + offset as u64,
                    count: take,
                });
                remaining -= take;
                seg_idx += 1;
                // Skip zero-count segments between chunks.
                while seg_idx < self.segments.len() && self.segments[seg_idx].count == 0 {
                    seg_idx += 1;
                }
                offset = 0;
            }
            out.push((
                start,
                TaskManifest {
                    kind: self.kind.clone(),
                    payload: self.payload.clone(),
                    segments,
                    seeds: self.seeds[start..end].to_vec(),
                },
            ));
            start = end;
        }
        out
    }

    /// Append the compact encoding of this manifest.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        wire::put_str(buf, &self.kind);
        wire::put_bytes(buf, &self.payload);
        wire::put_u32(buf, self.segments.len() as u32);
        for seg in &self.segments {
            wire::put_u64(buf, seg.point as u64);
            wire::put_u64(buf, seg.base_rep);
            wire::put_u64(buf, seg.count as u64);
        }
        wire::put_u32(buf, self.seeds.len() as u32);
        for &s in &self.seeds {
            wire::put_u64(buf, s);
        }
    }

    /// Decode a manifest from a [`Reader`] positioned at its first byte.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = r.get_str()?.to_string();
        let payload = r.get_bytes()?.to_vec();
        let nsegs = r.get_count(24, "segment list")?;
        let mut segments = Vec::with_capacity(nsegs);
        for _ in 0..nsegs {
            let point = r.get_u64()? as usize;
            let base_rep = r.get_u64()?;
            let count = r.get_u64()? as usize;
            segments.push(Segment {
                point,
                base_rep,
                count,
            });
        }
        let nseeds = r.get_count(8, "seed list")?;
        let mut seeds = Vec::with_capacity(nseeds);
        for _ in 0..nseeds {
            seeds.push(r.get_u64()?);
        }
        let m = TaskManifest {
            kind,
            payload,
            segments,
            seeds,
        };
        m.validate()?;
        Ok(m)
    }
}

// --- the seam ------------------------------------------------------------

/// An executor backend: turns a [`TaskManifest`] into per-slot result
/// bytes, in flat-index order.
///
/// This is the single seam future backends (async pools, remote hosts, GPU
/// queues) implement; everything above it — `Runner`, the adaptive
/// stopping rounds, every experiment driver — is backend-agnostic.
pub trait ExecBackend {
    /// Execute every slot of `manifest`, returning one encoded result per
    /// slot in flat-index order. `job` is the already-decoded job for
    /// backends that execute locally; process-crossing backends re-decode
    /// it from the manifest on the far side. On failure, the error with the
    /// lowest flat index is returned.
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError>;

    /// Human-readable backend description (for logs and benches).
    fn label(&self) -> String;
}

/// The scoped-thread-pool backend: the exact scheduling core behind
/// `Runner::grid`, applied to a portable job.
#[derive(Debug, Clone, Copy)]
pub struct InProcessBackend {
    /// Worker threads to schedule onto.
    pub threads: usize,
}

impl InProcessBackend {
    /// A backend with the given worker-thread count (clamped to ≥ 1).
    pub fn new(threads: usize) -> Self {
        InProcessBackend {
            threads: threads.max(1),
        }
    }
}

impl ExecBackend for InProcessBackend {
    fn run_segments(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        manifest.validate()?;
        let task_err = |flat: usize, message: String| {
            let plan = GridPlan::new(&manifest.segments);
            let (seg_idx, offset) = plan.locate(flat);
            let seg = manifest.segments[seg_idx];
            ExecError::Task {
                flat_index: flat,
                point: seg.point,
                replication: seg.base_rep + offset as u64,
                message,
            }
        };
        let per_segment = run_segments_core(
            self.threads,
            progress,
            &manifest.segments,
            &|flat, point, rep| job.run_slot(point, rep, manifest.seeds[flat]),
        )
        .map_err(|(flat, message)| task_err(flat, message))?;
        // Concatenating per-segment results in segment order IS flat order.
        Ok(per_segment
            .into_iter()
            .flat_map(|(_seg, results)| results)
            .collect())
    }

    fn label(&self) -> String {
        format!("in-process(threads={})", self.threads)
    }
}

impl crate::Runner {
    /// Execute `manifest` on this runner's backend (in-process when none is
    /// plugged in), reporting slot completions to `progress`.
    pub fn run_manifest(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
        progress: Option<&ProgressFn>,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        match &self.backend {
            Some(backend) => backend.run_segments(job, manifest, progress),
            None => InProcessBackend::new(self.threads).run_segments(job, manifest, progress),
        }
    }

    /// Execute a manifest on this runner's backend (single dispatch site
    /// for fixed grids and adaptive rounds).
    pub(crate) fn dispatch(
        &self,
        job: &dyn PortableJob,
        manifest: &TaskManifest,
    ) -> Result<Vec<Vec<u8>>, ExecError> {
        // Run as the manifest's job trace, so slot/engine spans recorded
        // deep in the grid (and shipped into worker requests) attribute
        // to its deterministic trace ID.
        crate::obs::dispatch(
            || crate::obs::trace_id_of(manifest),
            0,
            "dispatch",
            || self.run_manifest(job, manifest, self.progress.as_deref()),
        )
    }

    /// Run a portable `(point × replication)` grid on the configured
    /// backend: `reps[p]` slots for point `p`, slot `(p, r)` seeded with
    /// `seed_of(p, r)`. Returns each point's encoded slot results in
    /// replication order — the portable analogue of
    /// [`Runner::grid`](crate::Runner::grid), byte-identical across
    /// backends and shard/thread counts.
    pub fn run_job(
        &self,
        job: &dyn PortableJob,
        reps: &[u64],
        seed_of: &dyn Fn(usize, u64) -> u64,
    ) -> Result<Vec<Vec<Vec<u8>>>, ExecError> {
        let segments: Vec<Segment> = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        let manifest = TaskManifest::for_job(job, segments, seed_of);
        let flat = self.dispatch(job, &manifest)?;
        let mut flat = flat.into_iter();
        Ok(reps
            .iter()
            .map(|&n| flat.by_ref().take(n as usize).collect())
            .collect())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::Runner;

    /// Trivial arithmetic job used by the unit tests (registered by the
    /// in-crate worker tests too).
    pub(crate) struct MulJob {
        pub factor: u64,
    }

    impl PortableJob for MulJob {
        fn kind(&self) -> &'static str {
            "test-mul"
        }
        fn encode_payload(&self, buf: &mut Vec<u8>) {
            wire::put_u64(buf, self.factor);
        }
        fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
            let mut out = Vec::new();
            // Wrapping, so hostile manifests in the fuzz tests cannot make
            // the job itself panic.
            let v = self.factor.wrapping_mul((point as u64).wrapping_add(1));
            let v = v.wrapping_mul(1000);
            wire::put_u64(&mut out, v.wrapping_add(rep).wrapping_add(seed));
            Ok(out)
        }
    }

    pub(crate) fn decode_mul(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let factor = r.get_u64()?;
        r.finish()?;
        Ok(Box::new(MulJob { factor }))
    }

    fn manifest_for(reps: &[u64]) -> TaskManifest {
        let job = MulJob { factor: 3 };
        let segments = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        TaskManifest::for_job(&job, segments, &|p, r| (p as u64) << 32 | r)
    }

    #[test]
    fn manifest_round_trips_through_wire() {
        let m = manifest_for(&[2, 0, 5, 1]);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let mut r = Reader::new(&buf);
        let back = TaskManifest::decode(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(m, back);
    }

    /// A short frame declaring `u32::MAX` segments or seeds is rejected
    /// before any allocation sized from the declared count.
    #[test]
    fn manifest_decode_rejects_counts_that_overrun_the_buffer() {
        let decode = |buf: &[u8]| TaskManifest::decode(&mut Reader::new(buf)).unwrap_err();
        let mut buf = Vec::new();
        wire::put_str(&mut buf, "test-mul");
        wire::put_bytes(&mut buf, &[]);
        let prefix = buf.clone();
        wire::put_u32(&mut buf, u32::MAX);
        let err = decode(&buf);
        assert!(
            err.0.contains("segment list of 4294967295 overruns buffer"),
            "{err}"
        );

        let mut buf = prefix;
        wire::put_u32(&mut buf, 0);
        wire::put_u32(&mut buf, u32::MAX);
        wire::put_u64(&mut buf, 7);
        let err = decode(&buf);
        assert!(
            err.0.contains("seed list of 4294967295 overruns buffer"),
            "{err}"
        );
    }

    #[test]
    fn manifest_decode_rejects_overflowing_slot_counts() {
        let m = TaskManifest {
            kind: "test-mul".into(),
            payload: Vec::new(),
            segments: vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: usize::MAX,
                };
                2
            ],
            seeds: vec![1],
        };
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let err = TaskManifest::decode(&mut Reader::new(&buf)).unwrap_err();
        assert!(err.0.contains("overflows"), "{err}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// `TaskManifest::decode` reads parent and network bytes: random
        /// bytes, and valid encodings with bytes overwritten, decode or
        /// fail without panicking, and whatever decodes re-encodes to
        /// exactly the bytes it consumed. Valid encodings round-trip, and
        /// every truncation of one is an error.
        #[test]
        fn manifest_decode_survives_hostile_bytes(
            noise in proptest::collection::vec(0u8..255, 0..96),
            reps in proptest::collection::vec(0u64..5, 0..5),
            flips in proptest::collection::vec((0usize..4096, 0u8..255), 1..4),
            cut in 0usize..4096,
        ) {
            let m = manifest_for(&reps);
            let mut buf = Vec::new();
            m.encode_into(&mut buf);
            let mut r = Reader::new(&buf);
            proptest::prop_assert_eq!(TaskManifest::decode(&mut r).unwrap(), m);
            proptest::prop_assert!(r.finish().is_ok());
            let cut = cut % buf.len();
            proptest::prop_assert!(TaskManifest::decode(&mut Reader::new(&buf[..cut])).is_err());

            let mut flipped = buf.clone();
            for &(at, byte) in &flips {
                let n = flipped.len();
                flipped[at % n] = byte;
            }
            for bytes in [&noise[..], &flipped[..]] {
                let mut r = Reader::new(bytes);
                if let Ok(m) = TaskManifest::decode(&mut r) {
                    let used = bytes.len() - r.remaining();
                    let mut again = Vec::new();
                    m.encode_into(&mut again);
                    proptest::prop_assert_eq!(&again[..], &bytes[..used]);
                }
            }
        }
    }

    #[test]
    fn manifest_split_covers_all_slots_contiguously() {
        let m = manifest_for(&[3, 0, 7, 1, 4]);
        let total = m.total_slots();
        assert_eq!(total, 15);
        for shards in [1, 2, 3, 4, 15, 99] {
            let chunks = m.split(shards);
            assert_eq!(chunks.len(), shards.min(total));
            let mut expect_start = 0usize;
            let mut all_slots = Vec::new();
            for (start, chunk) in &chunks {
                assert_eq!(*start, expect_start);
                chunk.validate().unwrap();
                assert!(chunk.total_slots() > 0, "empty chunk at {start}");
                expect_start += chunk.total_slots();
                all_slots.extend(chunk.slots());
            }
            assert_eq!(expect_start, total);
            assert_eq!(all_slots, m.slots(), "shards={shards}");
            // Near-equal sizes: max - min <= 1.
            let sizes: Vec<usize> = chunks.iter().map(|(_, c)| c.total_slots()).collect();
            let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(mx - mn <= 1, "uneven split {sizes:?}");
        }
    }

    #[test]
    fn manifest_seed_table_is_per_slot() {
        let m = manifest_for(&[2, 1]);
        let slots = m.slots();
        assert_eq!(
            slots,
            vec![(0, 0, 0), (0, 1, 1), (1, 0, 1 << 32)]
                .into_iter()
                .map(|(p, r, s): (usize, u64, u64)| (p, r, s))
                .collect::<Vec<_>>()
        );
        let mut bad = m.clone();
        bad.seeds.pop();
        assert!(bad.validate().is_err());
    }

    #[test]
    fn in_process_backend_matches_direct_execution() {
        let job = MulJob { factor: 3 };
        let m = manifest_for(&[3, 2, 4]);
        for threads in [1, 2, 8] {
            let flat = InProcessBackend::new(threads)
                .run_segments(&job, &m, None)
                .unwrap();
            let expect: Vec<Vec<u8>> = m
                .slots()
                .iter()
                .map(|&(p, r, s)| job.run_slot(p, r, s).unwrap())
                .collect();
            assert_eq!(flat, expect, "threads={threads}");
        }
    }

    /// A backend plugged in from outside: the in-process backend behind a
    /// dispatch counter.
    struct Counting {
        inner: InProcessBackend,
        dispatches: std::sync::atomic::AtomicUsize,
    }

    impl ExecBackend for Counting {
        fn run_segments(
            &self,
            job: &dyn PortableJob,
            manifest: &TaskManifest,
            progress: Option<&ProgressFn>,
        ) -> Result<Vec<Vec<u8>>, ExecError> {
            self.dispatches
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.run_segments(job, manifest, progress)
        }

        fn label(&self) -> String {
            format!("counting({})", self.inner.label())
        }
    }

    /// Observation vectors for the adaptive path: one seed-derived value
    /// per slot, so no point ever settles under a tight rule.
    struct SeedObs;

    impl PortableJob for SeedObs {
        fn kind(&self) -> &'static str {
            "test-seed-obs"
        }
        fn encode_payload(&self, _buf: &mut Vec<u8>) {}
        fn run_slot(&self, _point: usize, _rep: u64, seed: u64) -> Result<Vec<u8>, String> {
            let mut out = Vec::new();
            wire::put_f64s(&mut out, &[(seed % 1000) as f64]);
            Ok(out)
        }
    }

    /// The model layer needs nothing but this crate to be driven through a
    /// plugged-in backend: every portable dispatch reaches it, and the
    /// bytes match the in-process runner's.
    #[test]
    fn plugged_in_backend_sees_every_dispatch_and_changes_no_byte() {
        let counting = std::sync::Arc::new(Counting {
            inner: InProcessBackend::new(2),
            dispatches: Default::default(),
        });
        let count = || {
            counting
                .dispatches
                .load(std::sync::atomic::Ordering::Relaxed)
        };
        let plugged = Runner::new(2).with_backend(counting.clone());
        let local = Runner::new(2);
        let seed_of = |p: usize, r: u64| (p as u64) * 1000 + r * 7;

        let job = MulJob { factor: 5 };
        let reps = [3u64, 0, 4];
        assert_eq!(
            plugged.run_job(&job, &reps, &seed_of).unwrap(),
            local.run_job(&job, &reps, &seed_of).unwrap()
        );
        assert_eq!(count(), 1);

        // An unreachable target spends the whole budget: rounds of 4, 4
        // and 4 replications, one dispatch each.
        let rule = crate::StoppingRule::relative(1e-9).with_budget(4, 12, 4);
        let by_plugged = plugged
            .run_adaptive_job(&SeedObs, 3, &rule, &[], &seed_of)
            .unwrap();
        let by_local = local
            .run_adaptive_job(&SeedObs, 3, &rule, &[], &seed_of)
            .unwrap();
        assert_eq!(count(), 1 + 3);
        for (a, b) in by_plugged.iter().zip(&by_local) {
            assert_eq!((a.replications, a.converged), (12, false));
            assert_eq!((a.replications, a.converged), (b.replications, b.converged));
            assert_eq!(a.stats, b.stats);
        }
        assert!(format!("{plugged:?}").contains("counting(in-process(threads=2))"));
    }

    #[test]
    fn run_job_groups_per_point() {
        let job = MulJob { factor: 2 };
        let reps = [2u64, 0, 3];
        let out = Runner::new(4)
            .run_job(&job, &reps, &|p, r| (p as u64) * 10 + r)
            .unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].len(), 2);
        assert!(out[1].is_empty());
        assert_eq!(out[2].len(), 3);
        let mut r = Reader::new(&out[2][1]);
        // point 2, rep 1, seed 21: 2*3*1000 + 1 + 21.
        assert_eq!(r.get_u64().unwrap(), 6022);
    }

    struct FailAt {
        fail_flat: std::collections::BTreeSet<(usize, u64)>,
    }
    impl PortableJob for FailAt {
        fn kind(&self) -> &'static str {
            "test-fail"
        }
        fn encode_payload(&self, _buf: &mut Vec<u8>) {}
        fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
            if self.fail_flat.contains(&(point, rep)) {
                Err(format!("slot ({point},{rep}) refused"))
            } else {
                Ok(vec![1])
            }
        }
    }

    #[test]
    fn in_process_backend_reports_task_error_with_indices() {
        let job = FailAt {
            fail_flat: [(1usize, 2u64)].into_iter().collect(),
        };
        let m = TaskManifest::for_job(
            &job,
            vec![
                Segment {
                    point: 0,
                    base_rep: 0,
                    count: 2,
                },
                Segment {
                    point: 1,
                    base_rep: 0,
                    count: 4,
                },
            ],
            &|_, _| 0,
        );
        let err = InProcessBackend::new(1)
            .run_segments(&job, &m, None)
            .unwrap_err();
        match err {
            ExecError::Task {
                flat_index,
                point,
                replication,
                ..
            } => {
                assert_eq!((flat_index, point, replication), (4, 1, 2));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn registry_round_trip_and_unknown_kind() {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        let job = MulJob { factor: 7 };
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let back = reg.decode("test-mul", &payload).unwrap();
        assert_eq!(back.kind(), "test-mul");
        assert_eq!(
            back.run_slot(0, 0, 0).unwrap(),
            job.run_slot(0, 0, 0).unwrap()
        );
        assert!(reg.decode("nope", &[]).is_err());
    }
}
