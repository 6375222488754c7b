//! Worker-side wiring for the sharded executor, plus self-test jobs.
//!
//! The `repro` binary doubles as the worker subprocess of
//! `sim_runtime::WorkerBackend` (`repro --worker`): this module builds its
//! [`JobRegistry`] — every portable experiment job from `wsn` plus a few
//! self-test jobs the shard-determinism and error-propagation suites need
//! (a plain uncolored M/M/1 net, deliberate task failures, and a
//! worker-killing crash job).

use petri_core::prelude::*;
use sim_core::wire::{self, Reader, WireError};
use sim_core::{JobRegistry, PortableJob, TaskManifest};
use std::collections::BTreeMap;

/// The registry a `repro --worker` process serves manifests against:
/// every wsn experiment job plus the self-test jobs below.
pub fn worker_registry() -> JobRegistry {
    let mut reg = JobRegistry::new();
    wsn::experiments::jobs::register(&mut reg);
    reg.register(Mm1ReplicationJob::KIND, Mm1ReplicationJob::decode_boxed);
    reg.register(FailJob::KIND, FailJob::decode_boxed);
    reg.register(CrashJob::KIND, CrashJob::decode_boxed);
    reg
}

/// Build the manifest of a named submit spec from its parameters — the
/// one parser behind `repro submit <spec> --key value` and the gateway's
/// `POST /submit?spec=<spec>&key=value`, so both entry points share
/// defaults and validation and identical parameters land on one cache
/// key. `params["spec"]` names the spec; keys a spec does not read are
/// ignored.
///
/// `mm1` reads `horizon` (default 200 s), `warmup` (20 s), `reps` (2) and
/// `seed` (`0xCAFE`) into [`Mm1ReplicationJob::manifest`]; a horizon or
/// warm-up that no slot could finish with, or `reps` of 0, is an error.
pub fn spec_manifest(params: &BTreeMap<String, String>) -> Result<TaskManifest, String> {
    fn get<T: std::str::FromStr>(
        params: &BTreeMap<String, String>,
        key: &str,
        default: T,
    ) -> Result<T, String> {
        match params.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{key} must be a number, got {v:?}")),
            None => Ok(default),
        }
    }
    match params.get("spec").map(String::as_str) {
        Some("mm1") => {
            let horizon = wire::check_horizon(get(params, "horizon", 200.0)?).map_err(|e| e.0)?;
            let warmup = wire::check_warmup(get(params, "warmup", 20.0)?).map_err(|e| e.0)?;
            let reps: u64 = get(params, "reps", 2)?;
            let seed: u64 = get(params, "seed", 0xCAFE)?;
            if reps < 1 {
                return Err("reps must be at least 1".to_string());
            }
            Ok(Mm1ReplicationJob::manifest(horizon, warmup, reps, seed))
        }
        Some(other) => Err(format!("unknown job spec {other:?} (available: mm1)")),
        None => Err("missing spec parameter (available: mm1)".to_string()),
    }
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
    pub fn manifest(horizon: f64, warmup: f64, reps: u64, seed: u64) -> sim_core::TaskManifest {
        let job = Mm1ReplicationJob {
            horizon,
            warmup,
            mu_grid: vec![2.0, 5.0, 10.0],
        };
        let segments = (0..job.mu_grid.len())
            .map(|point| sim_core::Segment {
                point,
                base_rep: 0,
                count: reps as usize,
            })
            .collect();
        sim_core::TaskManifest::for_job(&job, segments, &|p, r| {
            petri_core::rng::SimRng::child_seed(seed, ((p as u64) << 32) | r)
        })
    }

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = Mm1ReplicationJob {
            horizon: r.get_horizon()?,
            warmup: r.get_warmup()?,
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
        sim_core::obs::engine_run((point as u64) << 32 | rep, || {
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
            let obs = sim_core::obs::obs();
            if obs.is_enabled() && petri_core::sim::profile::armed() {
                let trace = sim_core::obs::current();
                for row in petri_core::sim::profile::snapshot() {
                    obs.counter(
                        trace,
                        format!("profile/{}", row.transition),
                        sim_core::obs::cat::ENGINE,
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

/// Self-test job: **kills its own process** at any slot at or after
/// `(crash_point, crash_rep)` (lexicographic order, like [`FailJob`]) —
/// but only where it is armed: an empty `env_var` always is, a named one
/// only in a process where that variable is set. Unarmed, every slot
/// succeeds with the slot seed as its bytes.
///
/// Always armed, it is the "kill a worker mid-shard" probe; only ever
/// dispatch it then through a sharded backend, since in-process it would
/// take the caller down with it. Armed by a variable, it is the
/// kill-one-peer-mid-run probe: a `bench::remote::LocalCluster` starts
/// some workers with the variable set, they die on whichever chunk they
/// claim, and the slots they leave are re-dispatched to the survivors or
/// (the whole fleet armed) run by the in-process fallback of the test
/// process, which does not set it. The boundary semantics (not a single
/// slot) make the crash independent of which peer claims which chunk.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashJob {
    /// First crashing point.
    pub crash_point: u64,
    /// First crashing replication within `crash_point`.
    pub crash_rep: u64,
    /// Environment variable arming the crash; empty means always armed.
    pub env_var: String,
}

impl CrashJob {
    /// Registry key.
    pub const KIND: &'static str = "selftest/crash";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = CrashJob {
            crash_point: r.get_u64()?,
            crash_rep: r.get_u64()?,
            env_var: r.get_str()?.to_string(),
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
        wire::put_str(buf, &self.env_var);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        if (point as u64, rep) >= (self.crash_point, self.crash_rep)
            && (self.env_var.is_empty() || std::env::var_os(&self.env_var).is_some())
        {
            eprintln!("[selftest] crashing worker at ({point}, {rep}) as requested");
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
    use des::Workload;
    use wsn::experiments::jobs::{CpuComparisonJob, NodeSweepJob, SeedAblationJob, ValidationJob};
    use wsn::CpuModelParams;

    /// One valid job of every kind the worker registry serves, with its
    /// simulated horizon (and warm-up, for mm1) set to `horizon` where the
    /// kind has one.
    fn sample_jobs(horizon: f64, warmup: f64) -> Vec<Box<dyn PortableJob>> {
        vec![
            Box::new(CpuComparisonJob {
                lambda: 1.0,
                mu: 10.0,
                horizon,
                power_up_delay: 0.3,
                seed: 0x5EED,
                grid: vec![0.001, 0.5],
            }),
            Box::new(NodeSweepJob {
                workload: Workload::Closed { interval: 1.0 },
                horizon,
                grid: vec![0.00177, 1.0],
            }),
            Box::new(ValidationJob {
                workload: Workload::Open { rate: 1.0 },
                horizon,
                grid: vec![0.01],
            }),
            Box::new(SeedAblationJob {
                params: CpuModelParams::paper_defaults(0.3, 0.3),
                horizon,
            }),
            Box::new(Mm1ReplicationJob {
                horizon,
                warmup,
                mu_grid: vec![2.0, 5.0],
            }),
            Box::new(FailJob {
                fail_point: 1,
                fail_rep: 2,
            }),
            Box::new(CrashJob {
                crash_point: 3,
                crash_rep: 4,
                env_var: "BENCH_SELFTEST_CRASH_NEVER_SET".into(),
            }),
        ]
    }

    fn payload(job: &dyn PortableJob) -> Vec<u8> {
        let mut buf = Vec::new();
        job.encode_payload(&mut buf);
        buf
    }

    #[test]
    fn sample_jobs_cover_every_registered_kind() {
        let mut sampled: Vec<&str> = sample_jobs(100.0, 10.0).iter().map(|j| j.kind()).collect();
        let mut registered: Vec<&str> = worker_registry().kinds().collect();
        sampled.sort_unstable();
        registered.sort_unstable();
        assert_eq!(sampled, registered);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(300))]

        /// Every decoder reads network bytes (service submissions, TCP
        /// worker manifests). Random bodies, truncations and one-byte
        /// flips of valid payloads must decode to an error or to a job
        /// that re-encodes to exactly the bytes it came from — never a
        /// panic — and a horizon or warm-up no slot could finish with
        /// must be refused.
        #[test]
        fn job_decoders_survive_hostile_payloads(
            noise in proptest::collection::vec(0u8..255, 0..96),
            cut in 0usize..4096,
            flip in (0usize..4096, 0u8..255),
            bad in 0usize..5,
        ) {
            let reg = worker_registry();
            let accepted = |kind: &str, body: &[u8]| -> Result<(), proptest::TestCaseError> {
                if let Ok(job) = reg.decode(kind, body) {
                    proptest::prop_assert_eq!(job.kind(), kind);
                    proptest::prop_assert!(
                        payload(job.as_ref()) == body,
                        "{kind}: accepted payload re-encodes differently"
                    );
                }
                Ok(())
            };
            for job in sample_jobs(100.0, 10.0) {
                let kind = job.kind();
                let valid = payload(job.as_ref());
                proptest::prop_assert!(reg.decode(kind, &valid).is_ok(), "{kind} rejects its own payload");
                accepted(kind, &noise)?;
                accepted(kind, &valid[..cut % (valid.len() + 1)])?;
                let mut flipped = valid.clone();
                if !flipped.is_empty() {
                    let at = flip.0 % flipped.len();
                    flipped[at] = flip.1;
                }
                accepted(kind, &flipped)?;
            }
            let unrunnable = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -5.0][bad];
            let timed = [
                CpuComparisonJob::KIND,
                NodeSweepJob::KIND,
                ValidationJob::KIND,
                SeedAblationJob::KIND,
                Mm1ReplicationJob::KIND,
            ];
            for job in sample_jobs(unrunnable, 10.0) {
                if timed.contains(&job.kind()) {
                    proptest::prop_assert!(
                        reg.decode(job.kind(), &payload(job.as_ref())).is_err(),
                        "{} accepted horizon {unrunnable}",
                        job.kind()
                    );
                }
            }
            if unrunnable != 0.0 {
                let mm1 = Mm1ReplicationJob { horizon: 100.0, warmup: unrunnable, mu_grid: vec![2.0] };
                proptest::prop_assert!(
                    reg.decode(Mm1ReplicationJob::KIND, &payload(&mm1)).is_err(),
                    "mm1 accepted warm-up {unrunnable}"
                );
            }
        }
    }

    #[test]
    fn spec_manifest_applies_defaults_and_rejects_unrunnable_values() {
        let params = |pairs: &[(&str, &str)]| -> BTreeMap<String, String> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(
            spec_manifest(&params(&[("spec", "mm1")])).unwrap(),
            Mm1ReplicationJob::manifest(200.0, 20.0, 2, 0xCAFE)
        );
        assert_eq!(
            spec_manifest(&params(&[
                ("spec", "mm1"),
                ("seed", "7"),
                ("horizon", "50")
            ]))
            .unwrap(),
            Mm1ReplicationJob::manifest(50.0, 20.0, 2, 7)
        );
        for (key, value) in [
            ("horizon", "inf"),
            ("horizon", "NaN"),
            ("horizon", "0"),
            ("warmup", "inf"),
            ("warmup", "-1"),
            ("reps", "0"),
            ("seed", "x"),
        ] {
            assert!(
                spec_manifest(&params(&[("spec", "mm1"), (key, value)])).is_err(),
                "{key}={value} accepted"
            );
        }
        assert!(spec_manifest(&params(&[("spec", "mm2")]))
            .unwrap_err()
            .contains("unknown job spec"));
        assert!(spec_manifest(&params(&[])).is_err());
    }

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
        ] {
            assert!(kinds.contains(&k), "missing {k} in {kinds:?}");
        }
    }

    #[test]
    fn crash_job_is_inert_without_its_variable() {
        let job = CrashJob {
            crash_point: 0,
            crash_rep: 0,
            env_var: "BENCH_SELFTEST_CRASH_NEVER_SET".into(),
        };
        // Would exit(3) if armed; unarmed it must produce normal bytes.
        let bytes = job.run_slot(0, 0, 42).unwrap();
        assert_eq!(sim_core::wire::decode_f64s(&bytes).unwrap(), vec![42.0]);
        // Round-trips through the registry.
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        let back = worker_registry().decode(CrashJob::KIND, &payload).unwrap();
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
