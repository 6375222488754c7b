//! Worker-side wiring for the sharded executor, plus self-test jobs.
//!
//! The `repro` binary doubles as the worker subprocess of
//! `sim_runtime::WorkerBackend` (`repro --worker`): this module builds its
//! [`JobRegistry`] — every portable experiment job from `wsn` plus a few
//! self-test jobs the shard-determinism and error-propagation suites need
//! (a plain uncolored M/M/1 net, deliberate task failures, and a
//! worker-killing crash job).

use petri_core::prelude::*;
use sim_runtime::wire::{self, Reader, WireError};
use sim_runtime::{JobRegistry, PortableJob};

/// The registry a `repro --worker` process serves manifests against:
/// every wsn experiment job plus the self-test jobs below.
pub fn worker_registry() -> JobRegistry {
    let mut reg = JobRegistry::new();
    wsn::experiments::jobs::register(&mut reg);
    reg.register(Mm1ReplicationJob::KIND, Mm1ReplicationJob::decode_boxed);
    reg.register(FailJob::KIND, FailJob::decode_boxed);
    reg.register(CrashJob::KIND, CrashJob::decode_boxed);
    reg.register(EnvCrashJob::KIND, EnvCrashJob::decode_boxed);
    reg
}

/// Self-test job: one replication of an uncolored M/M/1 net (`point`
/// selects the service rate from a small grid, so multi-point grids are
/// exercised too). Observations: `[E[N], throughput]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Mm1ReplicationJob {
    /// Simulated horizon (s).
    pub horizon: f64,
    /// Warm-up truncation (s).
    pub warmup: f64,
    /// Service rates; `point` indexes into it.
    pub mu_grid: Vec<f64>,
}

impl Mm1ReplicationJob {
    /// Registry key.
    pub const KIND: &'static str = "selftest/mm1";

    /// The canonical submit-spec manifest: `reps` replications of the
    /// standard 3-point service-rate grid, seeded the same way however
    /// the submission arrives (`repro submit mm1`, `POST
    /// /submit?spec=mm1`), so identical parameters always land on the
    /// same cache key.
    pub fn manifest(horizon: f64, warmup: f64, reps: u64, seed: u64) -> sim_runtime::TaskManifest {
        let job = Mm1ReplicationJob {
            horizon,
            warmup,
            mu_grid: vec![2.0, 5.0, 10.0],
        };
        let segments = (0..job.mu_grid.len())
            .map(|point| sim_runtime::Segment {
                point,
                base_rep: 0,
                count: reps as usize,
            })
            .collect();
        sim_runtime::TaskManifest::for_job(&job, segments, &|p, r| {
            petri_core::rng::SimRng::child_seed(seed, ((p as u64) << 32) | r)
        })
    }

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = Mm1ReplicationJob {
            horizon: r.get_f64()?,
            warmup: r.get_f64()?,
            mu_grid: r.get_f64s()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for Mm1ReplicationJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_f64(buf, self.horizon);
        wire::put_f64(buf, self.warmup);
        wire::put_f64s(buf, &self.mu_grid);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        let mu = *self
            .mu_grid
            .get(point)
            .ok_or_else(|| format!("point {point} outside the {}-rate grid", self.mu_grid.len()))?;
        sim_runtime::obs::engine_run((point as u64) << 32 | rep, || {
            let mut b = NetBuilder::new("selftest-mm1");
            let q = b.place("q").build();
            b.transition("arrive", Timing::exponential(1.0))
                .output(q, 1)
                .build();
            let serve = b
                .transition("serve", Timing::exponential(mu))
                .input(q, 1)
                .build();
            let net = b.build().map_err(|e| e.to_string())?;
            let mut sim = Simulator::new(
                &net,
                SimConfig::for_horizon(self.horizon).with_warmup(self.warmup),
            );
            let r_q = sim.reward_place(net.place_by_name("q").expect("q exists"));
            let r_served = sim.reward_firings(serve);
            let out = sim.run(seed).map_err(|e| e.to_string())?;
            // Fold the (cumulative) engine profile into the trace as counter
            // events: value = attributed ns, aux = firings. Advisory only.
            let obs = sim_runtime::obs::obs();
            if obs.is_enabled() && petri_core::sim::profile::armed() {
                let trace = sim_runtime::obs::current();
                for row in petri_core::sim::profile::snapshot() {
                    obs.counter(
                        trace,
                        format!("profile/{}", row.transition),
                        sim_runtime::obs::cat::ENGINE,
                        row.ns,
                        row.firings,
                    );
                }
            }
            let mut bytes = Vec::with_capacity(2 * 8 + 4);
            wire::put_f64s(&mut bytes, &[out.reward(r_q), out.reward(r_served)]);
            Ok(bytes)
        })
    }
}

/// Self-test job: every slot at or after `(fail_point, fail_rep)` (in
/// lexicographic point/replication order) returns a task error — so
/// *multiple shards* fail and the gather must still surface exactly the
/// boundary slot, exercising in-band `E`-frame propagation and
/// lowest-flat-index selection.
#[derive(Debug, Clone, PartialEq)]
pub struct FailJob {
    /// First failing point.
    pub fail_point: u64,
    /// First failing replication within `fail_point`.
    pub fail_rep: u64,
}

impl FailJob {
    /// Registry key.
    pub const KIND: &'static str = "selftest/fail";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = FailJob {
            fail_point: r.get_u64()?,
            fail_rep: r.get_u64()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for FailJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.fail_point);
        wire::put_u64(buf, self.fail_rep);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        if (point as u64, rep) >= (self.fail_point, self.fail_rep) {
            return Err(format!("selftest failure at ({point}, {rep})"));
        }
        let mut bytes = Vec::new();
        wire::put_f64s(&mut bytes, &[seed as f64]);
        Ok(bytes)
    }
}

/// Self-test job: **kills its own process** at one `(point, replication)`
/// slot — the "kill one worker" scenario. Only ever dispatch this through a
/// sharded backend; in-process it would take the caller down with it.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashJob {
    /// Crashing point.
    pub crash_point: u64,
    /// Crashing replication.
    pub crash_rep: u64,
}

impl CrashJob {
    /// Registry key.
    pub const KIND: &'static str = "selftest/crash";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = CrashJob {
            crash_point: r.get_u64()?,
            crash_rep: r.get_u64()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for CrashJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.crash_point);
        wire::put_u64(buf, self.crash_rep);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        if point as u64 == self.crash_point && rep == self.crash_rep {
            eprintln!("[selftest] crashing worker at ({point}, {rep}) as requested");
            std::process::exit(3);
        }
        let mut bytes = Vec::new();
        wire::put_f64s(&mut bytes, &[seed as f64]);
        Ok(bytes)
    }
}

/// Self-test job: kills its own process at any slot at or after
/// `(crash_point, crash_rep)` (lexicographic order, like [`FailJob`]) —
/// but **only when `env_var` is set in the executing process**. Unarmed,
/// every slot succeeds with the same bytes [`CrashJob`] would produce.
///
/// This is the kill-one-peer-mid-run probe of the remote suite: a
/// `bench::remote::LocalCluster` starts exactly one worker with the
/// environment variable set, so that worker dies on whichever chunk it
/// claims, the remote backend re-dispatches the undelivered slots to the
/// survivors (which do *not* have the variable), and the gathered bytes
/// must equal an in-process run bit for bit. The boundary semantics (not
/// a single slot) make the crash independent of which peer happens to
/// claim which chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvCrashJob {
    /// First crashing point.
    pub crash_point: u64,
    /// First crashing replication within `crash_point`.
    pub crash_rep: u64,
    /// Environment variable arming the crash.
    pub env_var: String,
}

impl EnvCrashJob {
    /// Registry key.
    pub const KIND: &'static str = "selftest/env-crash";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = EnvCrashJob {
            crash_point: r.get_u64()?,
            crash_rep: r.get_u64()?,
            env_var: r.get_str()?.to_string(),
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for EnvCrashJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_u64(buf, self.crash_point);
        wire::put_u64(buf, self.crash_rep);
        wire::put_str(buf, &self.env_var);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        if (point as u64, rep) >= (self.crash_point, self.crash_rep)
            && std::env::var_os(&self.env_var).is_some()
        {
            eprintln!(
                "[selftest] {} armed: crashing worker at ({point}, {rep})",
                self.env_var
            );
            std::process::exit(3);
        }
        let mut bytes = Vec::new();
        wire::put_f64s(&mut bytes, &[seed as f64]);
        Ok(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_contains_experiment_and_selftest_jobs() {
        let reg = worker_registry();
        let kinds: Vec<&str> = reg.kinds().collect();
        for k in [
            "wsn/cpu-comparison",
            "wsn/node-sweep",
            "wsn/validation",
            "wsn/seed-ablation",
            Mm1ReplicationJob::KIND,
            FailJob::KIND,
            CrashJob::KIND,
            EnvCrashJob::KIND,
        ] {
            assert!(kinds.contains(&k), "missing {k} in {kinds:?}");
        }
    }

    #[test]
    fn env_crash_job_is_inert_without_its_variable() {
        let job = EnvCrashJob {
            crash_point: 0,
            crash_rep: 0,
            env_var: "BENCH_SELFTEST_CRASH_NEVER_SET".into(),
        };
        // Would exit(3) if armed; unarmed it must produce normal bytes.
        let bytes = job.run_slot(0, 0, 42).unwrap();
        assert_eq!(sim_runtime::wire::decode_f64s(&bytes).unwrap(), vec![42.0]);
        // Round-trips through the registry.
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let back = worker_registry()
            .decode(EnvCrashJob::KIND, &payload)
            .unwrap();
        assert_eq!(
            back.run_slot(1, 1, 7).unwrap(),
            job.run_slot(1, 1, 7).unwrap()
        );
    }

    #[test]
    fn mm1_job_round_trips_and_is_seed_deterministic() {
        let job = Mm1ReplicationJob {
            horizon: 500.0,
            warmup: 50.0,
            mu_grid: vec![2.0, 4.0],
        };
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let back = worker_registry()
            .decode(Mm1ReplicationJob::KIND, &payload)
            .unwrap();
        assert_eq!(
            job.run_slot(1, 0, 42).unwrap(),
            back.run_slot(1, 0, 42).unwrap()
        );
        assert_ne!(
            job.run_slot(1, 0, 42).unwrap(),
            job.run_slot(1, 0, 43).unwrap()
        );
    }

    #[test]
    fn fail_job_fails_from_its_boundary_on() {
        let job = FailJob {
            fail_point: 1,
            fail_rep: 2,
        };
        assert!(job.run_slot(0, 2, 0).is_ok());
        assert!(job.run_slot(1, 1, 0).is_ok());
        assert!(job.run_slot(1, 2, 0).is_err());
        assert!(job.run_slot(1, 3, 0).is_err());
        assert!(job.run_slot(2, 0, 0).is_err());
    }
}
