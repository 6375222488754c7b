//! The worker half of the executor protocol, over any
//! [`FrameTransport`](crate::remote::FrameTransport).
//!
//! A worker serves **manifest requests** from its transport in a loop: each
//! `M` request frame carries the protocol version, a worker-thread count
//! (clamped to this host's core count), a trace ID and a
//! [`TaskManifest`]; the worker decodes the job through its
//! [`JobRegistry`], executes the manifest on the in-process scheduling
//! core, and answers with one `R` frame **per completed slot, as it
//! completes** (so the parent's progress callback ticks live and the worker
//! never buffers its shard), followed by `D` — or a single `E` frame
//! carrying the lowest-flat-index task error. The loop ends on a graceful
//! shutdown frame (`Q`) or clean EOF; serving several manifests per
//! connection is what lets remote peers survive adaptive stopping rounds
//! and chunk re-dispatch without reconnecting.
//!
//! Two deployments share this loop: `<exe> --worker` over stdin/stdout
//! ([`serve_stdio`]) and `<exe> --worker --listen <addr>` over accepted TCP
//! connections ([`crate::remote::serve_listener`]). Diagnostics belong on
//! stderr in both.

use crate::exec::frame;
use crate::remote::transport::{FrameTransport, StdioTransport};
use sim_core::exec::{JobRegistry, TaskManifest, WIRE_VERSION};
use sim_core::grid::{default_threads, run_segments_core};
use sim_core::wire::{self, Reader, WireError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Why a slot could not be delivered: the task itself failed (reported
/// in-band) vs. the response stream broke (fatal).
enum SlotFailure {
    Task(String),
    Io(String),
}

/// How a serve loop ended (both are clean exits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeOutcome {
    /// The peer closed the stream without a shutdown frame. In listen
    /// mode the worker simply accepts the next connection.
    Eof,
    /// An explicit shutdown frame: the worker process should exit.
    Shutdown,
}

/// Serve manifest requests from `transport` until shutdown or EOF.
///
/// Task errors travel in-band (`E` frame) and the loop continues — the
/// worker stays healthy, since the parent learned everything it needs.
/// `Err` is reserved for protocol-level failures (garbage frames, unknown
/// job kinds, I/O errors), after which the transport must be abandoned.
pub fn serve(
    registry: &JobRegistry,
    transport: &mut dyn FrameTransport,
) -> Result<ServeOutcome, WireError> {
    loop {
        let request = match transport
            .recv()
            .map_err(|e| WireError::new(format!("request read failed: {e}")))?
        {
            Some(body) => body,
            None => return Ok(ServeOutcome::Eof),
        };
        let mut r = Reader::new(&request);
        match r.get_u8()? {
            frame::SHUTDOWN => {
                r.finish()?;
                return Ok(ServeOutcome::Shutdown);
            }
            frame::MANIFEST => {
                let version = r.get_u8()?;
                if version != WIRE_VERSION {
                    return Err(WireError::new(format!(
                        "protocol version {version} (worker speaks {WIRE_VERSION})"
                    )));
                }
                // The requested thread count comes off the wire, so it is
                // clamped to this host's cores: a hostile frame must not
                // spawn one OS thread per slot. Result bytes are identical
                // at any thread count.
                let threads = (r.get_u32()? as usize).clamp(1, default_threads());
                let trace = r.get_u64()?;
                let manifest = TaskManifest::decode(&mut r)?;
                r.finish()?;
                serve_manifest(registry, threads, trace, &manifest, transport)?;
            }
            tag => {
                return Err(WireError::new(format!(
                    "unknown request frame tag {tag:#x}"
                )))
            }
        }
    }
}

/// How often an executing worker streams a liveness/progress tick (`P`
/// frame). Parents set their TCP read timeout to a comfortable multiple
/// of this (see [`FaultPolicy::io_timeout`](crate::fleet::FaultPolicy)), so a
/// silently vanished peer is detected without ever mistaking a slow slot
/// for a dead one.
pub(crate) const HEARTBEAT_INTERVAL: std::time::Duration = std::time::Duration::from_millis(500);

/// Execute one manifest and stream its response frames. `trace` is the
/// parent's trace ID (`0` = untraced): it becomes the
/// ambient trace context for the run, and the spans recorded under it
/// ship back in one advisory `T` frame ahead of the terminal `D`/`E`.
fn serve_manifest(
    registry: &JobRegistry,
    threads: usize,
    trace: u64,
    manifest: &TaskManifest,
    transport: &mut dyn FrameTransport,
) -> Result<(), WireError> {
    let job = registry.decode(&manifest.kind, &manifest.payload)?;
    let _trace_ctx = sim_core::obs::enter(trace);

    // Run the manifest on the shared scheduling core, streaming each
    // slot's `R` frame the moment it completes: results are never buffered
    // worker-side, and the parent can tick progress while the chunk runs.
    // Frames may interleave in any completion order — they carry the slot
    // index, and the parent stores by index. A heartbeat thread ticks `P`
    // progress frames (delivered/total counts) throughout, so remote
    // parents can bound their read timeouts without false-killing long
    // slots and can surface live per-chunk progress (send failures are
    // ignored here — the result path surfaces a broken transport on its
    // own).
    let out = Mutex::new(transport);
    let delivered = AtomicU64::new(0);
    let finished = Mutex::new(false);
    let finished_cv = std::sync::Condvar::new();
    let outcome = std::thread::scope(|scope| {
        scope.spawn(|| {
            let mut done = finished.lock().expect("heartbeat mutex never poisoned");
            loop {
                // Predicate before wait: a manifest that finishes before
                // this thread first parks must not cost a lost
                // notification (= one full interval of latency on the
                // `D` frame).
                if *done {
                    return;
                }
                let (guard, timeout) = finished_cv
                    .wait_timeout(done, HEARTBEAT_INTERVAL)
                    .expect("heartbeat mutex never poisoned");
                done = guard;
                if timeout.timed_out() && !*done {
                    let mut body = Vec::with_capacity(17);
                    wire::put_u8(&mut body, frame::PROGRESS);
                    wire::put_u64(&mut body, delivered.load(Ordering::Relaxed));
                    wire::put_u64(&mut body, manifest.total_slots() as u64);
                    let mut t = out.lock().expect("output mutex never poisoned");
                    let _ = t.send(&body).and_then(|_| t.flush());
                }
            }
        });
        // Env-armable chaos points (REPRO_CHAOS_SEED +
        // REPRO_CHAOS_WORKER_{CRASH,STALL}): deterministic
        // per-slot decisions, re-rolled per process so a
        // restarted worker makes progress. A stall holds the
        // output mutex, silencing the heartbeat thread too —
        // exactly the silent-wedge failure the parent's IO
        // timeout exists to catch.
        let chaos_check = |flat: usize| {
            if let Some(chaos) = crate::fleet::chaos::worker_chaos() {
                let seed = manifest.seeds[flat];
                if let Some(stall) = chaos.roll_stall(seed) {
                    eprintln!("[chaos] worker stalling {stall:?} at slot {flat}");
                    let _gag = out.lock().expect("output mutex never poisoned");
                    std::thread::sleep(stall);
                }
                if chaos.roll_crash(seed) {
                    eprintln!("[chaos] worker crashing at slot {flat}");
                    std::process::exit(3);
                }
            }
        };
        let send_result = |flat: usize, bytes: &[u8]| -> Result<(), SlotFailure> {
            let mut body = Vec::with_capacity(bytes.len() + 16);
            wire::put_u8(&mut body, frame::RESULT);
            wire::put_u64(&mut body, flat as u64);
            wire::put_bytes(&mut body, bytes);
            let mut t = out.lock().expect("output mutex never poisoned");
            t.send(&body)
                .map_err(|e| SlotFailure::Io(format!("response write failed: {e}")))?;
            delivered.fetch_add(1, Ordering::Relaxed);
            Ok(())
        };
        let outcome = run_segments_core(threads, None, &manifest.segments, &|flat, point, rep| {
            chaos_check(flat);
            match job.run_slot(point, rep, manifest.seeds[flat]) {
                Ok(bytes) => send_result(flat, &bytes),
                Err(message) => Err(SlotFailure::Task(message)),
            }
        });
        *finished.lock().expect("heartbeat mutex never poisoned") = true;
        finished_cv.notify_all();
        outcome
    });

    let io_err = |e: std::io::Error| WireError::new(format!("response write failed: {e}"));
    let t = out.into_inner().expect("output mutex never poisoned");
    // Ship this manifest's span batch ahead of the terminal frame (the
    // parent's drain stops at `D`/`E`). Advisory like `P`: a send failure
    // is ignored — the result path will surface a broken transport on its
    // own, and a lost batch only costs observability.
    let obs = sim_core::obs::obs();
    if trace != 0 && obs.is_enabled() {
        let spans = obs.take_for(trace);
        if !spans.is_empty() {
            let mut body = Vec::new();
            wire::put_u8(&mut body, frame::SPANS);
            body.extend(sim_core::obs::encode_spans(&spans));
            let _ = t.send(&body);
        }
    }
    match outcome {
        Ok(_) => {
            let mut done = Vec::new();
            wire::put_u8(&mut done, frame::DONE);
            wire::put_u64(&mut done, delivered.load(Ordering::Relaxed));
            t.send(&done).map_err(io_err)?;
        }
        Err((flat, SlotFailure::Task(message))) => {
            // The parent discards any `R` frames it already received for
            // this chunk once the error arrives.
            let mut body = Vec::new();
            wire::put_u8(&mut body, frame::ERROR);
            wire::put_u64(&mut body, flat as u64);
            wire::put_str(&mut body, &message);
            t.send(&body).map_err(io_err)?;
        }
        Err((_flat, SlotFailure::Io(message))) => return Err(WireError::new(message)),
    }
    t.flush().map_err(io_err)
}

/// [`serve`] over this process's stdin/stdout: the canonical body of a
/// binary's `--worker` mode. The caller maps the outcome to its exit code
/// (0 on `Ok` — in-band task errors included — non-zero on protocol
/// failures).
pub fn serve_stdio(registry: &JobRegistry) -> Result<(), WireError> {
    let mut transport = StdioTransport::new();
    serve(registry, &mut transport).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::remote::transport::MemTransport;
    use sim_core::exec::{PortableJob, TaskManifest};
    use sim_core::grid::Segment;

    fn registry() -> JobRegistry {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        reg
    }

    fn manifest_request(threads: usize, manifest: &TaskManifest) -> Vec<u8> {
        let mut framed = Vec::new();
        wire::write_frame(
            &mut framed,
            &crate::remote::protocol::encode_manifest_request(threads, manifest, 0),
        )
        .unwrap();
        framed
    }

    fn shutdown_request() -> Vec<u8> {
        let mut framed = Vec::new();
        wire::write_frame(
            &mut framed,
            &crate::remote::protocol::encode_shutdown_request(),
        )
        .unwrap();
        framed
    }

    fn mul_manifest(reps: &[u64]) -> TaskManifest {
        let job = MulJob { factor: 5 };
        let segments = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        TaskManifest::for_job(&job, segments, &|p, r| 100 * p as u64 + r)
    }

    #[test]
    fn serve_round_trips_results_in_memory() {
        let m = mul_manifest(&[2, 3]);
        let mut t = MemTransport::new(manifest_request(2, &m));
        assert_eq!(serve(&registry(), &mut t).unwrap(), ServeOutcome::Eof);

        // Parse the response stream: 5 R frames (any slot order) + D.
        let job = MulJob { factor: 5 };
        let expect: Vec<Vec<u8>> = m
            .slots()
            .iter()
            .map(|&(p, r, s)| job.run_slot(p, r, s).unwrap())
            .collect();
        let mut seen = vec![None; expect.len()];
        let mut stream = &t.output[..];
        let mut done = false;
        while let Some(body) = wire::read_frame(&mut stream).unwrap() {
            let mut r = Reader::new(&body);
            match r.get_u8().unwrap() {
                frame::RESULT => {
                    let local = r.get_u64().unwrap() as usize;
                    seen[local] = Some(r.get_bytes().unwrap().to_vec());
                }
                frame::DONE => {
                    assert_eq!(r.get_u64().unwrap(), 5);
                    done = true;
                }
                frame::HEARTBEAT | frame::PROGRESS | frame::SPANS => {}
                tag => panic!("unexpected tag {tag}"),
            }
        }
        assert!(done);
        let seen: Vec<Vec<u8>> = seen.into_iter().map(|s| s.unwrap()).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn serve_handles_multiple_manifests_then_shutdown() {
        // Two manifests back to back, then an explicit shutdown frame:
        // exactly the shape a remote peer sees across adaptive rounds.
        let m1 = mul_manifest(&[2]);
        let m2 = mul_manifest(&[1, 1]);
        let mut input = manifest_request(1, &m1);
        input.extend(manifest_request(1, &m2));
        input.extend(shutdown_request());
        let mut t = MemTransport::new(input);
        assert_eq!(serve(&registry(), &mut t).unwrap(), ServeOutcome::Shutdown);

        // Response stream: 2 R + D for m1, then 2 R + D for m2.
        let mut stream = &t.output[..];
        let mut dones = 0;
        let mut results = 0;
        while let Some(body) = wire::read_frame(&mut stream).unwrap() {
            match body[0] {
                frame::RESULT => results += 1,
                frame::DONE => dones += 1,
                frame::HEARTBEAT | frame::PROGRESS | frame::SPANS => {}
                tag => panic!("unexpected tag {tag}"),
            }
        }
        assert_eq!((results, dones), (4, 2));
    }

    #[test]
    fn serve_reports_task_error_in_band_and_keeps_serving() {
        struct Boom;
        impl PortableJob for Boom {
            fn kind(&self) -> &'static str {
                "test-boom"
            }
            fn encode_payload(&self, _buf: &mut Vec<u8>) {}
            fn run_slot(&self, point: usize, rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
                if point == 0 && rep == 1 {
                    Err("kaboom".into())
                } else {
                    Ok(vec![0])
                }
            }
        }
        let mut reg = JobRegistry::new();
        reg.register("test-boom", |_p| Ok(Box::new(Boom)));
        let m = TaskManifest::for_job(
            &Boom,
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 3,
            }],
            &|_, _| 0,
        );
        let mut input = manifest_request(1, &m);
        input.extend(shutdown_request());
        let mut t = MemTransport::new(input);
        // The task error is in-band; the loop continues to the shutdown
        // frame and exits cleanly.
        assert_eq!(serve(&reg, &mut t).unwrap(), ServeOutcome::Shutdown);
        // Completed slots stream their `R` frames before the error is
        // known (slot 0 here); the stream must then end with exactly one
        // `E` frame and no `D`.
        let mut stream = &t.output[..];
        let mut error_seen = false;
        while let Some(body) = wire::read_frame(&mut stream).unwrap() {
            let mut r = Reader::new(&body);
            match r.get_u8().unwrap() {
                frame::RESULT => {
                    assert!(!error_seen, "R frame after E");
                    assert_eq!(r.get_u64().unwrap(), 0);
                }
                frame::ERROR => {
                    assert_eq!(r.get_u64().unwrap(), 1); // lowest failing flat index
                    assert_eq!(r.get_str().unwrap(), "kaboom");
                    error_seen = true;
                }
                frame::HEARTBEAT | frame::PROGRESS | frame::SPANS => {}
                tag => panic!("unexpected tag {tag}"),
            }
        }
        assert!(error_seen);
    }

    #[test]
    fn serve_clamps_requested_threads_to_host_cores() {
        // Every thread that runs a slot records its id; a request for 64
        // threads over 64 slots may still use only this host's cores.
        static SEEN: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        struct Spy;
        impl PortableJob for Spy {
            fn kind(&self) -> &'static str {
                "test-spy"
            }
            fn encode_payload(&self, _buf: &mut Vec<u8>) {}
            fn run_slot(&self, _point: usize, _rep: u64, _seed: u64) -> Result<Vec<u8>, String> {
                let id = std::thread::current().id();
                let mut seen = SEEN.lock().unwrap();
                if !seen.contains(&id) {
                    seen.push(id);
                }
                drop(seen);
                // Long enough that every spawned thread claims a slot.
                std::thread::sleep(std::time::Duration::from_millis(2));
                Ok(Vec::new())
            }
        }
        let mut reg = JobRegistry::new();
        reg.register("test-spy", |_| Ok(Box::new(Spy)));
        let m = TaskManifest::for_job(
            &Spy,
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 64,
            }],
            &|_, r| r,
        );
        let mut t = MemTransport::new(manifest_request(64, &m));
        assert_eq!(serve(&reg, &mut t).unwrap(), ServeOutcome::Eof);
        let distinct = SEEN.lock().unwrap().len();
        assert!(
            (1..=default_threads()).contains(&distinct),
            "{distinct} slot threads on a {}-core host",
            default_threads()
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The serve loop reads parent and network bytes. A manifest
        /// request with bytes overwritten, or an `M` frame with a random
        /// body, must end in `Ok` or an error, never a panic; a request
        /// frame cut short must end in an error.
        #[test]
        fn serve_survives_hostile_request_frames(
            reps in proptest::collection::vec(0u64..4, 0..4),
            threads in 0usize..100_000,
            flips in proptest::collection::vec((0usize..4096, 0u8..255), 0..4),
            noise in proptest::collection::vec(0u8..255, 0..64),
            cut in 0usize..4096,
        ) {
            let mut body = crate::remote::protocol::encode_manifest_request(
                threads,
                &mul_manifest(&reps),
                0,
            );
            for &(at, byte) in &flips {
                let n = body.len();
                body[at % n] = byte;
            }
            let mut random = vec![frame::MANIFEST, WIRE_VERSION];
            random.extend(&noise);
            for body in [body, random] {
                let mut framed = Vec::new();
                wire::write_frame(&mut framed, &body).unwrap();
                let _ = serve(&registry(), &mut MemTransport::new(framed.clone()));
                let cut = 1 + cut % (framed.len() - 1);
                framed.truncate(cut);
                proptest::prop_assert!(serve(&registry(), &mut MemTransport::new(framed)).is_err());
            }
        }
    }

    #[test]
    fn serve_rejects_unknown_kind_bad_version_and_bad_tag() {
        let m = mul_manifest(&[1]);
        // Unknown job kind.
        let mut other = m.clone();
        other.kind = "never-registered".into();
        let mut t = MemTransport::new(manifest_request(1, &other));
        assert!(serve(&registry(), &mut t).is_err());
        // Wrong protocol version.
        let mut body = Vec::new();
        wire::put_u8(&mut body, frame::MANIFEST);
        wire::put_u8(&mut body, WIRE_VERSION + 1);
        wire::put_u32(&mut body, 1);
        wire::put_u64(&mut body, 0);
        m.encode_into(&mut body);
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &body).unwrap();
        let mut t = MemTransport::new(framed);
        assert!(serve(&registry(), &mut t).is_err());
        // Unknown request tag.
        let mut framed = Vec::new();
        wire::write_frame(&mut framed, &[0xFF]).unwrap();
        let mut t = MemTransport::new(framed);
        assert!(serve(&registry(), &mut t).is_err());
        // Empty stream is a clean EOF, not an error.
        let mut t = MemTransport::new(Vec::new());
        assert_eq!(serve(&registry(), &mut t).unwrap(), ServeOutcome::Eof);
    }
}
