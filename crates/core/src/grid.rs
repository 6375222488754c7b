//! The two-level task grid and its in-process work-stealing executor.
//!
//! Every experiment in this workspace has the same shape: a *sweep* over
//! parameter points, each point estimated from some number of independent
//! *replications*. Running either level alone wastes cores — a 21-point
//! sweep on a 64-core box leaves two thirds of the machine idle while each
//! point's replications run serially, and spawning at both levels
//! oversubscribes. [`Runner`] instead flattens the whole
//! `(point × replication)` grid into one task stream over one scoped thread
//! pool:
//!
//! * workers claim flat task indices from a single atomic counter (work
//!   stealing, so wildly uneven points still balance);
//! * each task publishes its result into its own pre-allocated
//!   [`OnceLock`] slot — result publication never takes a shared lock;
//! * results are handed back **in index order per point**, so callers can
//!   reduce deterministically: the aggregate is bit-identical at any
//!   thread count;
//! * the first task error flips a cancellation flag; in-flight tasks finish
//!   but no new ones are claimed, and the lowest-flat-index error surfaces
//!   to the caller.
//!
//! The scoped thread pool here is *one backend* of the executor seam: the
//! same claim/fold discipline runs behind [`crate::exec::ExecBackend`], so
//! portable jobs can also be spread over any backend plugged into a
//! [`Runner`] (worker subprocesses and remote peers live in `sim-runtime`)
//! with bit-identical results.

use crate::exec::ExecBackend;
use crate::obs::{cat::GRID, name::SLOT};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of worker threads to use by default (one per available core, at
/// least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker-thread count from the environment variable `var`, if it holds a
/// positive integer (`0`, garbage, or unset all yield `None`, so callers
/// fall back uniformly — typically to [`default_threads`]).
pub fn env_threads(var: &str) -> Option<usize> {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// A progress tick, delivered to the runner's callback after each task.
#[derive(Debug, Clone, Copy)]
pub struct Progress {
    /// Sweep-point index of the task that just finished.
    pub point: usize,
    /// Replication index (within the point) of the task that just finished.
    pub replication: u64,
    /// Tasks finished so far across the whole grid (including this one).
    pub completed: usize,
    /// Total tasks in the grid (computed once when the grid is planned,
    /// never re-derived per tick).
    pub total: usize,
}

/// One contiguous run of replications for one point.
///
/// Segments describe whole grids, the incremental rounds of the adaptive
/// stopping rule, and — serialized inside a
/// [`crate::exec::TaskManifest`] — the chunks a backend hands its
/// workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Sweep-point index (global across the whole grid, even inside a
    /// shard's sub-manifest).
    pub point: usize,
    /// First replication index of this segment.
    pub base_rep: u64,
    /// Number of replications in this segment.
    pub count: usize,
}

/// The flat-index layout of a segment list, computed **once** per run:
/// prefix sums plus the grand total. All claim-to-segment mapping and every
/// progress tick reads totals from here instead of re-deriving them.
#[derive(Debug)]
pub(crate) struct GridPlan {
    /// `prefix[s]` = flat index of segment `s`'s first slot;
    /// `prefix[len]` = total.
    prefix: Vec<usize>,
    /// Total task count across all segments.
    total: usize,
}

impl GridPlan {
    pub(crate) fn new(segments: &[Segment]) -> Self {
        let mut prefix = Vec::with_capacity(segments.len() + 1);
        let mut total = 0usize;
        for seg in segments {
            prefix.push(total);
            total += seg.count;
        }
        prefix.push(total);
        GridPlan { prefix, total }
    }

    pub(crate) fn total(&self) -> usize {
        self.total
    }

    /// Map a flat task index to `(segment index, offset within segment)`.
    pub(crate) fn locate(&self, flat: usize) -> (usize, usize) {
        debug_assert!(flat < self.total);
        // prefix is sorted; the partition point is the first entry > flat.
        let seg = self.prefix.partition_point(|&p| p <= flat) - 1;
        (seg, flat - self.prefix[seg])
    }
}

/// A progress callback, shared by a runner and every backend it drives.
pub type ProgressFn = dyn Fn(Progress) + Send + Sync;

/// Per-segment results in replication order, as produced by
/// [`run_segments_core`].
pub type SegmentResults<R> = Vec<(Segment, Vec<R>)>;

/// Execute `segments` as one flat task stream over a scoped thread pool;
/// returns each segment's results in replication order.
///
/// This free function is the single in-process scheduling core: it sits
/// under [`Runner::map`], [`Runner::try_grid`], the adaptive rounds in
/// [`crate::stopping`], **and** [`crate::exec::InProcessBackend`] (which is
/// how a worker process executes its chunk of a manifest).
///
/// The task receives `(flat_index, point, replication)`. On error the
/// lowest-flat-index failure is returned together with that index, so
/// callers (and remote gathers) can compare failures deterministically.
pub fn run_segments_core<R, E, F>(
    threads: usize,
    progress: Option<&ProgressFn>,
    segments: &[Segment],
    task: &F,
) -> Result<SegmentResults<R>, (usize, E)>
where
    R: Send + Sync,
    E: Send,
    F: Fn(usize, usize, u64) -> Result<R, E> + Sync,
{
    let plan = GridPlan::new(segments);
    let total = plan.total();

    if total == 0 {
        return Ok(segments.iter().map(|&s| (s, Vec::new())).collect());
    }

    // The instrumentation handle and the ambient job trace are resolved
    // once per grid; each slot then ends one span (its wall time feeds
    // `grid_slot_wall_ns`; under a trace it also lands in the ring) —
    // observation only, never scheduling.
    let obs = crate::obs::obs();
    let trace = crate::obs::current();

    let threads = threads.max(1).min(total);
    if threads == 1 {
        // Sequential fast path: same claim order, no thread overhead.
        let mut out: Vec<(Segment, Vec<R>)> = segments
            .iter()
            .map(|&s| (s, Vec::with_capacity(s.count)))
            .collect();
        let mut flat = 0usize;
        // Back-to-back slot spans share their boundary reading, so each
        // slot reads the clock once.
        let mut span = obs.start(trace);
        for (seg, results) in out.iter_mut() {
            for local in 0..seg.count {
                let rep = seg.base_rep + local as u64;
                let outcome = task(flat, seg.point, rep);
                span = obs.lap(span, SLOT, GRID, flat as u64);
                results.push(outcome.map_err(|e| (flat, e))?);
                flat += 1;
                if let Some(cb) = progress {
                    cb(Progress {
                        point: seg.point,
                        replication: rep,
                        completed: flat,
                        total,
                    });
                }
            }
        }
        return Ok(out);
    }

    let next = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let cancelled = AtomicBool::new(false);
    // Lowest-flat-index error wins, so the surfaced error does not depend
    // on which worker happened to trip first.
    let first_error: Mutex<Option<(usize, E)>> = Mutex::new(None);
    let slots: Vec<OnceLock<R>> = (0..total).map(|_| OnceLock::new()).collect();

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                if cancelled.load(Ordering::Relaxed) {
                    break;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= total {
                    break;
                }
                let (seg_idx, offset) = plan.locate(i);
                let seg = &segments[seg_idx];
                let rep = seg.base_rep + offset as u64;
                let span = obs.start(trace);
                let outcome = task(i, seg.point, rep);
                obs.end(span, SLOT, GRID, i as u64);
                match outcome {
                    Ok(r) => {
                        // Each flat index is claimed exactly once, so the
                        // slot is guaranteed empty.
                        let _ = slots[i].set(r);
                        if let Some(cb) = progress {
                            let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                            cb(Progress {
                                point: seg.point,
                                replication: rep,
                                completed: done,
                                total,
                            });
                        }
                    }
                    Err(e) => {
                        // Stop the other workers' claims first; recording
                        // the error can wait on the mutex.
                        cancelled.store(true, Ordering::Relaxed);
                        let mut guard = first_error.lock().expect("error mutex never poisoned");
                        match &*guard {
                            Some((j, _)) if *j <= i => {}
                            _ => *guard = Some((i, e)),
                        }
                        break;
                    }
                }
            });
        }
    });

    if let Some((i, e)) = first_error
        .into_inner()
        .expect("error mutex never poisoned")
    {
        return Err((i, e));
    }

    // Drain the slots back into per-segment, replication-ordered Vecs.
    let mut iter = slots.into_iter();
    let out = segments
        .iter()
        .map(|&seg| {
            let results: Vec<R> = iter
                .by_ref()
                .take(seg.count)
                .map(|s| s.into_inner().expect("every slot filled"))
                .collect();
            (seg, results)
        })
        .collect();
    Ok(out)
}

/// The shared executor: a worker-thread count, an optional plugged-in
/// backend, and an optional progress callback.
///
/// `Runner` is cheap to construct and to clone (the backend and callback
/// are shared); all execution state lives on the stack of each call.
/// With no backend plugged in, worker threads are scoped
/// (`std::thread::scope`), so borrowed tasks — closures capturing
/// `&Simulator`, slices, etc. — need no `Arc` and no `'static` bounds.
///
/// Closure-based grids ([`Runner::map`], [`Runner::grid`],
/// [`Runner::try_grid`]) always execute in-process: a closure is bound to
/// this address space. Portable jobs ([`Runner::run_job`],
/// [`Runner::run_adaptive_job`]) go through the plugged-in
/// [`ExecBackend`] (see [`Runner::with_backend`]), or the in-process
/// backend when there is none.
#[derive(Clone)]
pub struct Runner {
    pub(crate) threads: usize,
    pub(crate) backend: Option<Arc<dyn ExecBackend + Send + Sync>>,
    pub(crate) progress: Option<Arc<ProgressFn>>,
}

impl std::fmt::Debug for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runner")
            .field("threads", &self.threads)
            .field("backend", &self.backend.as_ref().map(|b| b.label()))
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Runner {
    /// A runner with an explicit worker-thread count (clamped to ≥ 1) on
    /// the in-process backend.
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
            backend: None,
            progress: None,
        }
    }

    /// Dispatch portable jobs to `backend` instead of the in-process pool.
    pub fn with_backend(mut self, backend: Arc<dyn ExecBackend + Send + Sync>) -> Self {
        self.backend = Some(backend);
        self
    }

    /// A runner with one worker per available core.
    pub fn with_default_threads() -> Self {
        Runner::new(default_threads())
    }

    /// The worker-thread count this runner schedules onto (per process: a
    /// worker backend runs this many threads *in each* worker).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Install a progress callback, invoked after every finished task (from
    /// worker threads; keep it cheap and thread-safe). The grid total it
    /// reports is computed once up front when the grid is planned.
    pub fn on_progress(mut self, f: impl Fn(Progress) + Send + Sync + 'static) -> Self {
        self.progress = Some(Arc::new(f));
        self
    }

    /// Map `f` over `inputs`, preserving order — a one-replication-per-point
    /// grid. The classic parameter-sweep entry point.
    pub fn map<T, R, F>(&self, inputs: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send + Sync,
        F: Fn(&T) -> R + Sync,
    {
        let reps = vec![1u64; inputs.len()];
        let per_point = self.grid(&reps, |point, _rep| f(&inputs[point]));
        per_point
            .into_iter()
            .map(|mut v| v.pop().expect("one replication per point"))
            .collect()
    }

    /// Run an infallible `(point × replication)` grid: `reps[p]` tasks for
    /// each point `p`, returning each point's results in replication order.
    pub fn grid<R, F>(&self, reps: &[u64], task: F) -> Vec<Vec<R>>
    where
        R: Send + Sync,
        F: Fn(usize, u64) -> R + Sync,
    {
        match self.try_grid(reps, |p, r| Ok::<R, std::convert::Infallible>(task(p, r))) {
            Ok(out) => out,
            Err(e) => match e {},
        }
    }

    /// Run a fallible `(point × replication)` grid.
    ///
    /// On success, returns each point's task results **in replication
    /// order** regardless of completion order — fold them left-to-right and
    /// the reduction is bit-identical at any thread count. On the first
    /// task error, in-flight work is cancelled (no new tasks start) and the
    /// lowest-flat-indexed error observed is returned.
    pub fn try_grid<R, E, F>(&self, reps: &[u64], task: F) -> Result<Vec<Vec<R>>, E>
    where
        R: Send + Sync,
        E: Send,
        F: Fn(usize, u64) -> Result<R, E> + Sync,
    {
        let segments: Vec<Segment> = reps
            .iter()
            .enumerate()
            .map(|(point, &n)| Segment {
                point,
                base_rep: 0,
                count: n as usize,
            })
            .collect();
        let mut out: Vec<Vec<R>> = (0..reps.len()).map(|_| Vec::new()).collect();
        for (seg, results) in self.run_segments(&segments, &task)? {
            debug_assert!(out[seg.point].is_empty());
            out[seg.point] = results;
        }
        Ok(out)
    }

    /// Execute a list of segments as one flat in-process task stream;
    /// returns each segment's results in replication order. Thin adapter
    /// over [`run_segments_core`] for closure-based callers.
    pub(crate) fn run_segments<R, E, F>(
        &self,
        segments: &[Segment],
        task: &F,
    ) -> Result<Vec<(Segment, Vec<R>)>, E>
    where
        R: Send + Sync,
        E: Send,
        F: Fn(usize, u64) -> Result<R, E> + Sync,
    {
        run_segments_core(
            self.threads,
            self.progress.as_deref(),
            segments,
            &|_flat, point, rep| task(point, rep),
        )
        .map_err(|(_flat, e)| e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn map_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = Runner::new(8).map(&inputs, |&x| x * x);
        let expect: Vec<u64> = inputs.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn map_empty_and_single() {
        let empty: [u32; 0] = [];
        let out: Vec<u32> = Runner::new(4).map(&empty, |&x| x);
        assert!(out.is_empty());
        let out = Runner::new(4).map(&[7], |&x: &u32| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn grid_heterogeneous_replication_counts() {
        // Point p gets p replications; task encodes (point, rep).
        let reps = [0u64, 1, 4, 2];
        let out = Runner::new(3).grid(&reps, |p, r| (p, r));
        assert_eq!(out.len(), 4);
        for (p, rows) in out.iter().enumerate() {
            assert_eq!(rows.len(), reps[p] as usize);
            for (r, &(tp, tr)) in rows.iter().enumerate() {
                assert_eq!((tp, tr), (p, r as u64));
            }
        }
    }

    #[test]
    fn grid_results_identical_across_thread_counts() {
        let reps = [3u64, 5, 1, 7, 2];
        let run = |threads| Runner::new(threads).grid(&reps, |p, r| (p as u64 + 1) * 1000 + r);
        let t1 = run(1);
        assert_eq!(t1, run(2));
        assert_eq!(t1, run(8));
    }

    #[test]
    fn try_grid_surfaces_lowest_index_error() {
        let reps = [4u64; 4];
        let err = Runner::new(4)
            .try_grid(&reps, |p, r| {
                if r >= 2 {
                    Err(format!("boom {p}/{r}"))
                } else {
                    Ok(p)
                }
            })
            .unwrap_err();
        // Some point's replication ≥ 2 failed; exact one depends on
        // scheduling, but an error must surface.
        assert!(err.starts_with("boom"), "{err}");
    }

    #[test]
    fn error_cancels_in_flight_work_promptly() {
        // 512 tasks; flat index 0 is claimed first by construction and
        // errors. The tasks claimed beside it park until the failing
        // worker's thread has exited — it leaves its claim loop only after
        // publishing the cancellation — and then finish. So what this
        // counts is cancellation, not scheduling: however late the host
        // runs the failing worker, every other worker sees the flag the
        // moment its parked task ends, and only the tasks in flight at
        // error time (at most one per other worker) ever execute.
        static FAILING_WORKER_EXITED: AtomicBool = AtomicBool::new(false);
        struct MarkExit;
        impl Drop for MarkExit {
            fn drop(&mut self) {
                FAILING_WORKER_EXITED.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static EXIT_GUARD: std::cell::RefCell<Option<MarkExit>> =
                const { std::cell::RefCell::new(None) };
        }
        let executed = AtomicUsize::new(0);
        let total_reps = [512u64];
        let res = Runner::new(4).try_grid(&total_reps, |_p, r| {
            if r == 0 {
                // Dropped with the thread's locals, after its loop ends.
                EXIT_GUARD.with(|g| *g.borrow_mut() = Some(MarkExit));
                return Err("first task fails");
            }
            while !FAILING_WORKER_EXITED.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            executed.fetch_add(1, Ordering::SeqCst);
            Ok(r)
        });
        assert!(res.is_err());
        let ran = executed.load(Ordering::SeqCst);
        assert!(ran < 64, "cancellation too slow: {ran} of 511 tasks ran");
    }

    #[test]
    fn sequential_path_stops_at_first_error() {
        let executed = AtomicUsize::new(0);
        let res = Runner::new(1).try_grid(&[10u64], |_p, r| {
            executed.fetch_add(1, Ordering::Relaxed);
            if r == 3 {
                Err("stop")
            } else {
                Ok(r)
            }
        });
        assert!(res.is_err());
        assert_eq!(executed.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn progress_reports_every_task() {
        let ticks = std::sync::Arc::new(AtomicUsize::new(0));
        let t = ticks.clone();
        let runner = Runner::new(4).on_progress(move |p| {
            assert!(p.completed <= p.total);
            assert_eq!(p.total, 12);
            t.fetch_add(1, Ordering::Relaxed);
        });
        let out = runner.grid(&[4u64, 8], |p, r| (p, r));
        assert_eq!(out[0].len(), 4);
        assert_eq!(out[1].len(), 8);
        assert_eq!(ticks.load(Ordering::Relaxed), 12);
    }

    #[test]
    fn zero_task_grid() {
        let out: Vec<Vec<u32>> = Runner::new(4).grid(&[0u64, 0], |_, _| 1);
        assert_eq!(out, vec![Vec::<u32>::new(), Vec::new()]);
    }

    #[test]
    fn uneven_work_lands_in_order() {
        // Work items with wildly different costs still land in order.
        let inputs: Vec<u64> = (0..32).collect();
        let out = Runner::new(4).map(&inputs, |&x| {
            let mut acc = 0u64;
            for i in 0..(x % 7) * 10_000 {
                acc = acc.wrapping_add(i);
            }
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, inputs);
    }

    #[test]
    fn core_reports_flat_error_index() {
        // Two points × 3 reps; rep 1 of point 1 (flat index 4) and rep 2 of
        // point 0 (flat index 2) both fail — the flat-lower one wins.
        let segs = [
            Segment {
                point: 0,
                base_rep: 0,
                count: 3,
            },
            Segment {
                point: 1,
                base_rep: 0,
                count: 3,
            },
        ];
        for threads in [1, 4] {
            let err =
                run_segments_core::<u64, _, _>(threads, None, &segs, &|_flat, point, rep| match (
                    point, rep,
                ) {
                    (0, 2) | (1, 1) => Err("bad slot"),
                    _ => Ok(rep),
                })
                .unwrap_err();
            assert_eq!(err.1, "bad slot");
            assert!(err.0 == 2 || err.0 == 4, "flat index {}", err.0);
            if threads == 1 {
                // Sequential claim order guarantees the lowest index.
                assert_eq!(err.0, 2);
            }
        }
    }

    #[test]
    fn grid_plan_locates_every_slot() {
        let segs = [
            Segment {
                point: 3,
                base_rep: 10,
                count: 2,
            },
            Segment {
                point: 0,
                base_rep: 0,
                count: 0,
            },
            Segment {
                point: 1,
                base_rep: 5,
                count: 3,
            },
        ];
        let plan = GridPlan::new(&segs);
        assert_eq!(plan.total(), 5);
        assert_eq!(plan.locate(0), (0, 0));
        assert_eq!(plan.locate(1), (0, 1));
        assert_eq!(plan.locate(2), (2, 0));
        assert_eq!(plan.locate(4), (2, 2));
    }
}
