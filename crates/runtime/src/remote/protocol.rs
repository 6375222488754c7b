//! The parent half of the worker protocol, transport-agnostic.
//!
//! Request framing (manifest dispatch, graceful shutdown) and the response
//! drain — the loop that turns a worker's `R`/`E`/`D` frame stream back
//! into ordered slot results — live here once, behind
//! [`crate::fleet::backend::WorkerBackend`] for pipe workers and TCP peers
//! alike. The drain reads untrusted bytes, so it classifies every
//! malformed stream as [`Drained::Broken`] instead of panicking.

use crate::exec::frame;
use crate::remote::transport::FrameTransport;
use sim_core::exec::{ExecError, TaskManifest, WIRE_VERSION};
use sim_core::grid::{Progress, ProgressFn, Segment};
use sim_core::wire::{self, Reader, WireError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Encode a manifest-dispatch request: tag, protocol version, worker
/// thread count, trace ID (`0` = no job trace context), then the manifest
/// itself.
pub(crate) fn encode_manifest_request(
    threads: usize,
    manifest: &TaskManifest,
    trace: u64,
) -> Vec<u8> {
    let mut body = Vec::new();
    wire::put_u8(&mut body, frame::MANIFEST);
    wire::put_u8(&mut body, WIRE_VERSION);
    wire::put_u32(&mut body, threads as u32);
    wire::put_u64(&mut body, trace);
    manifest.encode_into(&mut body);
    body
}

/// Encode a graceful-shutdown request (no payload).
pub(crate) fn encode_shutdown_request() -> Vec<u8> {
    vec![frame::SHUTDOWN]
}

/// How one chunk's response stream ended.
#[derive(Debug)]
pub(crate) enum Drained {
    /// `D` received and every slot of the chunk was delivered; the
    /// transport is clean and reusable.
    Complete,
    /// The worker reported a task error in-band (`E`): the chunk's
    /// lowest-flat-index failure. The transport is clean and reusable —
    /// the error is deterministic, so re-dispatching would fail again.
    TaskError(ExecError),
    /// The stream broke: EOF mid-chunk, I/O failure, or a protocol
    /// violation. The transport is unusable; `sink.delivered` records which
    /// slots were salvaged before the break (re-dispatch material for
    /// backends that retry).
    Broken(String),
}

/// Where one chunk's results land while its response stream drains.
///
/// Results go straight into the **global** flat-index table (`results`,
/// sized for the whole manifest) so gathers need no per-chunk reshuffle;
/// `delivered` is the chunk-local bitmap retry logic consumes.
pub(crate) struct ChunkSink<'a> {
    /// `(point, replication, seed)` of each chunk-local slot.
    pub slots: &'a [(usize, u64, u64)],
    /// Chunk-local slot index → global flat index.
    pub global_flat: &'a [usize],
    /// The whole manifest's result table, indexed by global flat index.
    pub results: &'a [OnceLock<Vec<u8>>],
    /// Chunk-local delivery bitmap (same length as `slots`).
    pub delivered: &'a mut [bool],
    /// Grand-total completion counter shared across all chunks.
    pub completed: &'a AtomicUsize,
    /// Total slots in the whole manifest (for progress ticks).
    pub grand_total: usize,
    /// Progress callback, if any.
    pub progress: Option<&'a ProgressFn>,
}

/// Drain one chunk's response frames from `transport` into `sink`.
///
/// Reads until `D` (complete), `E` (in-band task error) or a stream
/// failure. Never returns early on a decode problem without classifying the
/// transport as broken — a worker that emits garbage cannot be trusted with
/// further chunks.
pub(crate) fn drain_chunk(transport: &mut dyn FrameTransport, sink: ChunkSink<'_>) -> Drained {
    debug_assert_eq!(sink.slots.len(), sink.global_flat.len());
    debug_assert_eq!(sink.slots.len(), sink.delivered.len());
    loop {
        let body = match transport.recv() {
            Ok(Some(b)) => b,
            Ok(None) => return Drained::Broken("EOF before chunk completed".into()),
            Err(e) => return Drained::Broken(format!("frame read failed: {e}")),
        };
        let mut r = Reader::new(&body);
        let step = (|| -> Result<Option<Drained>, WireError> {
            match r.get_u8()? {
                frame::RESULT => {
                    let local = r.get_u64()? as usize;
                    let bytes = r.get_bytes()?.to_vec();
                    r.finish()?;
                    if local >= sink.slots.len() {
                        return Err(WireError::new(format!(
                            "result slot {local} out of range ({} slots)",
                            sink.slots.len()
                        )));
                    }
                    if sink.delivered[local]
                        || sink.results[sink.global_flat[local]].set(bytes).is_err()
                    {
                        return Err(WireError::new(format!("slot {local} delivered twice")));
                    }
                    sink.delivered[local] = true;
                    let done_now = sink.completed.fetch_add(1, Ordering::Relaxed) + 1;
                    if let Some(cb) = sink.progress {
                        let (point, rep, _seed) = sink.slots[local];
                        cb(Progress {
                            point,
                            replication: rep,
                            completed: done_now,
                            total: sink.grand_total,
                        });
                    }
                    Ok(None)
                }
                frame::ERROR => {
                    let local = r.get_u64()? as usize;
                    let message = r.get_str()?.to_string();
                    r.finish()?;
                    // Same trust boundary as the RESULT arm: an
                    // out-of-range slot is a protocol violation, not an
                    // error report — a worker that garbles indices gets
                    // its transport abandoned, never a fabricated Task
                    // error that could win lowest-index selection.
                    let &(point, rep, _seed) = sink.slots.get(local).ok_or_else(|| {
                        WireError::new(format!(
                            "error slot {local} out of range ({} slots)",
                            sink.slots.len()
                        ))
                    })?;
                    Ok(Some(Drained::TaskError(ExecError::Task {
                        flat_index: sink.global_flat[local],
                        point,
                        replication: rep,
                        message,
                    })))
                }
                frame::HEARTBEAT => {
                    // Liveness tick from an executing worker: resets the
                    // transport's read timeout simply by having arrived.
                    r.finish()?;
                    Ok(None)
                }
                frame::PROGRESS => {
                    // Progress tick (wire version 4): liveness plus the
                    // worker's delivered/total counts. The counts are
                    // advisory — completion accounting derives solely from
                    // `R` frames (which this drain already turns into
                    // progress callbacks), so a reordered or dropped `P`
                    // frame can never skew the gather or double-tick the
                    // completed counter.
                    let _delivered = r.get_u64()?;
                    let _total = r.get_u64()?;
                    r.finish()?;
                    Ok(None)
                }
                frame::SPANS => {
                    // Span batch (wire version 5): the worker's trace
                    // spans for this chunk. Advisory like `P` — spans
                    // fold into the parent's collector for rendering,
                    // but results derive solely from `R` frames, so a
                    // lost batch costs observability only. Slot spans
                    // arrive with *chunk-local* flat indices; remap them
                    // through the sink's flat table so remainder
                    // re-dispatches stay correctly attributed.
                    let spans = sim_core::obs::decode_spans(&mut r)?;
                    r.finish()?;
                    let obs = sim_core::obs::obs();
                    for mut span in spans {
                        if span.name == sim_core::obs::name::SLOT {
                            let local = span.flat as usize;
                            if let Some(&global) = sink.global_flat.get(local) {
                                span.flat = global as u64;
                            }
                        }
                        obs.record_span(span);
                    }
                    Ok(None)
                }
                frame::DONE => {
                    let claimed = r.get_u64()? as usize;
                    r.finish()?;
                    let have = sink.delivered.iter().filter(|d| **d).count();
                    if claimed != have {
                        return Err(WireError::new(format!(
                            "worker claims {claimed} result(s), received {have}"
                        )));
                    }
                    if have != sink.slots.len() {
                        return Err(WireError::new(format!(
                            "worker completed with {have} of {} slot(s) delivered",
                            sink.slots.len()
                        )));
                    }
                    Ok(Some(Drained::Complete))
                }
                tag => Err(WireError::new(format!("unknown frame tag {tag:#x}"))),
            }
        })();
        match step {
            Ok(None) => continue,
            Ok(Some(outcome)) => return outcome,
            Err(e) => return Drained::Broken(format!("protocol violation: {e}")),
        }
    }
}

/// The undelivered remainder of a partially-drained chunk: every slot
/// whose `delivered` bit is unset, re-packed into merged contiguous
/// segments plus the matching global-flat-index map. `None` when every
/// slot landed. This is the re-dispatch unit shared by the remote
/// backend's peer-death recovery and the supervised shard path — retried
/// slots are seeded pure functions, so a remainder re-run is
/// byte-identical by construction.
pub(crate) fn undelivered_remainder(
    manifest: &TaskManifest,
    global_flat: &[usize],
    delivered: &[bool],
) -> Option<(TaskManifest, Vec<usize>)> {
    let slots = manifest.slots();
    let mut segments: Vec<Segment> = Vec::new();
    let mut seeds = Vec::new();
    let mut flat = Vec::new();
    for (local, &(point, rep, seed)) in slots.iter().enumerate() {
        if delivered[local] {
            continue;
        }
        match segments.last_mut() {
            Some(seg) if seg.point == point && seg.base_rep + seg.count as u64 == rep => {
                seg.count += 1;
            }
            _ => segments.push(Segment {
                point,
                base_rep: rep,
                count: 1,
            }),
        }
        seeds.push(seed);
        flat.push(global_flat[local]);
    }
    if seeds.is_empty() {
        return None;
    }
    Some((
        TaskManifest {
            kind: manifest.kind.clone(),
            payload: manifest.payload.clone(),
            segments,
            seeds,
        },
        flat,
    ))
}

/// Keep whichever error has the lower attributed flat index — the
/// deterministic cross-chunk selection of the worker backend (matching
/// `Runner::try_grid`).
pub(crate) fn keep_lowest_error(slot: &mut Option<ExecError>, e: ExecError) {
    match slot {
        Some(cur) if cur.flat_index() <= e.flat_index() => {}
        _ => *slot = Some(e),
    }
}

/// Collapse a completed gather table into flat-order result bytes. A
/// missing slot is impossible after every chunk drained clean; it is
/// reported as a worker error rather than a panic because the table was
/// filled by untrusted peers.
pub(crate) fn collect_results(results: Vec<OnceLock<Vec<u8>>>) -> Result<Vec<Vec<u8>>, ExecError> {
    results
        .into_iter()
        .enumerate()
        .map(|(flat, slot)| {
            slot.into_inner().ok_or(ExecError::Worker {
                flat_index: flat,
                message: "gather finished without delivering this slot".into(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::transport::MemTransport;
    use proptest::prelude::*;

    /// Chunk-local slots per fuzzed chunk.
    const SLOTS: usize = 4;

    /// One frame body of a hostile response stream, chosen by `kind`:
    /// well-formed `R`/`E`/`D`/`H`/`P`/`T` frames with slot indices and
    /// counts that may be out of range or repeated, unknown tags, and
    /// truncated bodies.
    fn body(kind: u8, slot: u64, extra: u64) -> Vec<u8> {
        let mut b = Vec::new();
        match kind % 9 {
            0 | 1 => {
                wire::put_u8(&mut b, frame::RESULT);
                wire::put_u64(&mut b, slot % (SLOTS as u64 + 2));
                wire::put_bytes(&mut b, &extra.to_le_bytes());
            }
            2 => {
                wire::put_u8(&mut b, frame::ERROR);
                wire::put_u64(&mut b, slot % (SLOTS as u64 + 2));
                wire::put_str(&mut b, "refused");
            }
            3 => {
                wire::put_u8(&mut b, frame::DONE);
                wire::put_u64(&mut b, extra % (SLOTS as u64 + 2));
            }
            4 => wire::put_u8(&mut b, frame::HEARTBEAT),
            5 => {
                wire::put_u8(&mut b, frame::PROGRESS);
                wire::put_u64(&mut b, slot);
                wire::put_u64(&mut b, extra);
            }
            6 => {
                wire::put_u8(&mut b, frame::SPANS);
                wire::put_u32(&mut b, (extra % 3) as u32);
            }
            7 => b.extend_from_slice(&extra.to_le_bytes()[..(slot % 9) as usize]),
            _ => {
                let mut whole = body(slot as u8 % 7, slot, extra);
                whole.truncate((extra as usize) % whole.len());
                b = whole;
            }
        }
        b
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// The shared response drain faces worker and network bytes: on
        /// any frame stream, cut at any offset, it must not panic, must
        /// fill only the chunk's own result cells and each at most once,
        /// must keep `delivered` in step with the filled cells and the
        /// progress ticks, and may report `Complete` only when every slot
        /// landed.
        #[test]
        fn drain_chunk_survives_hostile_frame_streams(
            frames in proptest::collection::vec((0u8..255, 0u64..64, 0u64..1 << 40), 0..16)
        ) {
            // Kinds from 200 up are the honest worker's next frame
            // (`R` for each slot in turn, then `D`), so some streams
            // complete despite the hostile frames between them.
            let mut stream = Vec::new();
            let mut honest = 0u64;
            for &(kind, slot, extra) in &frames {
                let frame = if kind < 200 {
                    body(kind, slot, extra)
                } else if honest < SLOTS as u64 {
                    honest += 1;
                    body(0, honest - 1, extra)
                } else {
                    body(3, 0, SLOTS as u64)
                };
                wire::write_frame(&mut stream, &frame).unwrap();
            }
            let slots: Vec<(usize, u64, u64)> = (0..SLOTS).map(|i| (i, 0, 0)).collect();
            // Scatter the chunk over a wider table: cells outside the
            // chunk must never be written.
            let global_flat: Vec<usize> = (0..SLOTS).map(|i| 2 * i + 1).collect();
            for cut in 0..=stream.len() {
                let results: Vec<OnceLock<Vec<u8>>> =
                    (0..2 * SLOTS + 2).map(|_| OnceLock::new()).collect();
                let mut delivered = vec![false; SLOTS];
                let completed = AtomicUsize::new(0);
                let ticks = std::sync::Arc::new(AtomicUsize::new(0));
                let counter = ticks.clone();
                let progress = move |_: Progress| {
                    counter.fetch_add(1, Ordering::Relaxed);
                };
                let outcome = drain_chunk(
                    &mut MemTransport::new(stream[..cut].to_vec()),
                    ChunkSink {
                        slots: &slots,
                        global_flat: &global_flat,
                        results: &results,
                        delivered: &mut delivered,
                        completed: &completed,
                        grand_total: results.len(),
                        progress: Some(&progress),
                    },
                );
                let filled: Vec<bool> = results.iter().map(|c| c.get().is_some()).collect();
                for (local, &global) in global_flat.iter().enumerate() {
                    prop_assert_eq!(delivered[local], filled[global]);
                }
                let landed = delivered.iter().filter(|d| **d).count();
                prop_assert_eq!(filled.iter().filter(|f| **f).count(), landed);
                prop_assert_eq!(completed.load(Ordering::Relaxed), landed);
                prop_assert_eq!(ticks.load(Ordering::Relaxed), landed);
                match outcome {
                    Drained::Complete => prop_assert_eq!(landed, SLOTS),
                    Drained::TaskError(ExecError::Task { flat_index, .. }) => {
                        prop_assert!(global_flat.contains(&flat_index), "{}", flat_index)
                    }
                    Drained::TaskError(e) => prop_assert!(false, "non-task error {e:?}"),
                    Drained::Broken(_) => {}
                }
            }
        }
    }
}
