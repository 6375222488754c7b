//! Portable-job descriptions of the experiment drivers' task families.
//!
//! Each parallel driver in this module's siblings describes its unit task
//! as a [`PortableJob`]: a registry key plus a hand-encoded payload from
//! which a **worker subprocess** can rebuild the exact task closure. The
//! slot outputs use the `wire::put_f64s` observation-vector convention, so
//! every job works both under fixed grids (`Runner::run_job`) and the
//! adaptive stopping rounds (`Runner::run_adaptive_job`) — and because the
//! caller decodes the same bytes whether a slot ran in this process or in a
//! `repro --worker` shard, driver results are **byte-identical across
//! backends** by construction. Every decoder reads its horizon through
//! [`Reader::get_horizon`], so a manifest whose slots could never finish
//! (an infinite, NaN or non-positive horizon) is refused at decode time —
//! before a service admits it or a worker runs it.
//!
//! Binaries that want to serve as workers register every decoder here via
//! [`register`].

use crate::cpu_model::{run_cpu_model, simulate_cpu_model, CpuModelParams};
use crate::node::simulate_node_model;
use crate::warm::Warm;
use des::{simulate_cpu, simulate_node, CpuSimParams, NodeSimParams, Workload};
use energy::{CC2420_RADIO, PXA271_CPU};
use sim_core::wire::{self, Reader, WireError};
use sim_core::{JobRegistry, PortableJob};

/// Register every wsn experiment job; workers (e.g. `repro --worker`) call
/// this at startup.
pub fn register(reg: &mut JobRegistry) {
    reg.register(CpuComparisonJob::KIND, CpuComparisonJob::decode_boxed);
    reg.register(NodeSweepJob::KIND, NodeSweepJob::decode_boxed);
    reg.register(ValidationJob::KIND, ValidationJob::decode_boxed);
    reg.register(SeedAblationJob::KIND, SeedAblationJob::decode_boxed);
}

fn put_workload(buf: &mut Vec<u8>, w: Workload) {
    match w {
        Workload::Closed { interval } => {
            wire::put_u8(buf, 0);
            wire::put_f64(buf, interval);
        }
        Workload::Open { rate } => {
            wire::put_u8(buf, 1);
            wire::put_f64(buf, rate);
        }
    }
}

fn get_workload(r: &mut Reader<'_>) -> Result<Workload, WireError> {
    match r.get_u8()? {
        0 => Ok(Workload::Closed {
            interval: r.get_f64()?,
        }),
        1 => Ok(Workload::Open { rate: r.get_f64()? }),
        tag => Err(WireError::new(format!("unknown workload tag {tag}"))),
    }
}

// --- CPU comparison (Figs. 4–9, Tables IV–VI) ----------------------------

/// Observation length of a [`CpuComparisonJob`] slot: 4 DES state
/// fractions, DES energy, 4 Petri state fractions, Petri energy.
pub const CPU_COMPARISON_OBS_LEN: usize = 10;

/// Watch indices for adaptive CPU-comparison budgets: the DES and Petri
/// energy curves. Of the three curves the figures plot, the Markov column
/// is a closed form with zero variance; requiring *both* stochastic
/// curves' CIs to settle means the stopping decision always tracks
/// whichever of them is currently the widest — the variance-aware pick.
pub const CPU_COMPARISON_WATCH: [usize; 2] = [4, 9];

/// The unit task of `run_cpu_comparison`: one DES + one Petri replication
/// of one threshold point.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuComparisonJob {
    /// Arrival rate λ.
    pub lambda: f64,
    /// Service rate μ.
    pub mu: f64,
    /// Horizon (s).
    pub horizon: f64,
    /// The fixed Power-Up Delay (s).
    pub power_up_delay: f64,
    /// Base RNG seed (the Petri stream is derived from it per slot).
    pub seed: u64,
    /// Threshold grid; `point` indexes into it.
    pub grid: Vec<f64>,
}

impl CpuComparisonJob {
    /// Registry key.
    pub const KIND: &'static str = "wsn/cpu-comparison";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = CpuComparisonJob {
            lambda: r.get_f64()?,
            mu: r.get_f64()?,
            horizon: r.get_horizon()?,
            power_up_delay: r.get_f64()?,
            seed: r.get_u64()?,
            grid: r.get_f64s()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for CpuComparisonJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_f64(buf, self.lambda);
        wire::put_f64(buf, self.mu);
        wire::put_f64(buf, self.horizon);
        wire::put_f64(buf, self.power_up_delay);
        wire::put_u64(buf, self.seed);
        wire::put_f64s(buf, &self.grid);
    }

    fn run_slot(&self, point: usize, rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        let pdt = *self
            .grid
            .get(point)
            .ok_or_else(|| format!("point {point} outside the {}-point grid", self.grid.len()))?;
        // Ground truth: one DES replication on the manifest seed.
        let sim_r = simulate_cpu(
            &CpuSimParams {
                lambda: self.lambda,
                mu: self.mu,
                power_down_threshold: pdt,
                power_up_delay: self.power_up_delay,
                horizon: self.horizon,
            },
            seed,
        );
        // One Petri-net replication of the same point, on its own stream.
        let petri_seed = petri_core::rng::SimRng::child_seed(self.seed ^ 0xA5A5, rep);
        let petri_r = simulate_cpu_model(
            &CpuModelParams {
                lambda: self.lambda,
                mu: self.mu,
                power_down_threshold: pdt,
                power_up_delay: self.power_up_delay,
            },
            self.horizon,
            petri_seed,
        );
        // The DES and Petri runs share a slot so the grid stays dense.
        let mut obs = Vec::with_capacity(CPU_COMPARISON_OBS_LEN);
        obs.extend(sim_r.probabilities());
        obs.push(sim_r.energy(&PXA271_CPU).joules());
        obs.extend(petri_r.probabilities);
        obs.push(petri_r.energy(&PXA271_CPU, self.horizon).joules());
        let mut bytes = Vec::with_capacity(CPU_COMPARISON_OBS_LEN * 8 + 4);
        wire::put_f64s(&mut bytes, &obs);
        Ok(bytes)
    }
}

// --- node sweep (Figs. 14/15) --------------------------------------------

/// Observation layout of a [`NodeSweepJob`] slot:
/// `[total_j, cpu_probs×4, radio_probs×4, cpu_wakeups, radio_wakeups,
/// cycles]`. Index 0 (total node energy) is the natural watch metric for
/// adaptive budgets.
pub const NODE_SWEEP_OBS_LEN: usize = 12;

/// Watch index of total node energy in a node-sweep observation.
pub const NODE_SWEEP_WATCH_TOTAL_J: usize = 0;

/// The unit task of `run_node_sweep`: one replication of the Fig. 12/13
/// node SCPN at one threshold point.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSweepJob {
    /// Workload generator.
    pub workload: Workload,
    /// Horizon (s).
    pub horizon: f64,
    /// Threshold grid; `point` indexes into it.
    pub grid: Vec<f64>,
}

impl NodeSweepJob {
    /// Registry key.
    pub const KIND: &'static str = "wsn/node-sweep";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = NodeSweepJob {
            workload: get_workload(&mut r)?,
            horizon: r.get_horizon()?,
            grid: r.get_f64s()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }

    /// Rebuild the simulation result a slot observed (the inverse of
    /// `run_slot`'s encoding; `total_j` is redundant and dropped).
    pub(crate) fn result_from_obs(
        &self,
        obs: &[f64],
    ) -> Result<crate::node::NodePetriResult, WireError> {
        if obs.len() != NODE_SWEEP_OBS_LEN {
            return Err(WireError::new(format!(
                "node-sweep slot has {} metric(s), expected {NODE_SWEEP_OBS_LEN}",
                obs.len()
            )));
        }
        Ok(crate::node::NodePetriResult {
            cpu_probabilities: obs[1..5].try_into().unwrap(),
            radio_probabilities: obs[5..9].try_into().unwrap(),
            cpu_wakeups: obs[9],
            radio_wakeups: obs[10],
            cycles_completed: obs[11],
            horizon: self.horizon,
        })
    }
}

impl PortableJob for NodeSweepJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_workload(buf, self.workload);
        wire::put_f64(buf, self.horizon);
        wire::put_f64s(buf, &self.grid);
    }

    fn run_slot(&self, point: usize, _rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        let pdt = *self
            .grid
            .get(point)
            .ok_or_else(|| format!("point {point} outside the {}-point grid", self.grid.len()))?;
        let mut params = NodeSimParams::paper_defaults(self.workload, pdt);
        params.horizon = self.horizon;
        let out = simulate_node_model(&params, seed);
        let total_j = out.breakdown(&PXA271_CPU, &CC2420_RADIO).total().joules();
        let mut obs = Vec::with_capacity(NODE_SWEEP_OBS_LEN);
        obs.push(total_j);
        obs.extend(out.cpu_probabilities);
        obs.extend(out.radio_probabilities);
        obs.push(out.cpu_wakeups);
        obs.push(out.radio_wakeups);
        obs.push(out.cycles_completed);
        let mut bytes = Vec::with_capacity(NODE_SWEEP_OBS_LEN * 8 + 4);
        wire::put_f64s(&mut bytes, &obs);
        Ok(bytes)
    }
}

// --- validation sweep ----------------------------------------------------

/// Observation layout of a [`ValidationJob`] slot:
/// `[petri_j, des_j, petri_cpu_wakeups, des_cpu_wakeups]`.
pub const VALIDATION_OBS_LEN: usize = 4;

/// Watch indices (Petri and DES energy) for adaptive validation budgets.
pub const VALIDATION_WATCH: [usize; 2] = [0, 1];

/// The unit task of `run_validation`: one Petri run plus one DES run of the
/// same point. The DES stream uses `seed + 1`, exactly as the fixed
/// single-run sweep always has.
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationJob {
    /// Workload generator.
    pub workload: Workload,
    /// Horizon (s).
    pub horizon: f64,
    /// Threshold grid; `point` indexes into it.
    pub grid: Vec<f64>,
}

impl ValidationJob {
    /// Registry key.
    pub const KIND: &'static str = "wsn/validation";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = ValidationJob {
            workload: get_workload(&mut r)?,
            horizon: r.get_horizon()?,
            grid: r.get_f64s()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for ValidationJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        put_workload(buf, self.workload);
        wire::put_f64(buf, self.horizon);
        wire::put_f64s(buf, &self.grid);
    }

    fn run_slot(&self, point: usize, _rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        let pdt = *self
            .grid
            .get(point)
            .ok_or_else(|| format!("point {point} outside the {}-point grid", self.grid.len()))?;
        let mut params = NodeSimParams::paper_defaults(self.workload, pdt);
        params.horizon = self.horizon;
        let petri = simulate_node_model(&params, seed);
        let des = simulate_node(&params, seed.wrapping_add(1));
        let petri_j = petri.breakdown(&PXA271_CPU, &CC2420_RADIO).total().joules();
        let des_j = des.total_energy(&PXA271_CPU, &CC2420_RADIO).joules();
        let mut bytes = Vec::with_capacity(VALIDATION_OBS_LEN * 8 + 4);
        wire::put_f64s(
            &mut bytes,
            &[petri_j, des_j, petri.cpu_wakeups, des.cpu_wakeups as f64],
        );
        Ok(bytes)
    }
}

// --- seed ablation -------------------------------------------------------

/// The unit task of `seed_ablation`: one CPU-net replication, observing
/// `P(standby)`.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedAblationJob {
    /// CPU model parameters.
    pub params: CpuModelParams,
    /// Horizon (s).
    pub horizon: f64,
}

impl SeedAblationJob {
    /// Registry key.
    pub const KIND: &'static str = "wsn/seed-ablation";

    fn decode_boxed(payload: &[u8]) -> Result<Box<dyn PortableJob>, WireError> {
        let mut r = Reader::new(payload);
        let job = SeedAblationJob {
            params: CpuModelParams {
                lambda: r.get_f64()?,
                mu: r.get_f64()?,
                power_down_threshold: r.get_f64()?,
                power_up_delay: r.get_f64()?,
            },
            horizon: r.get_horizon()?,
        };
        r.finish()?;
        Ok(Box::new(job))
    }
}

impl PortableJob for SeedAblationJob {
    fn kind(&self) -> &'static str {
        Self::KIND
    }

    fn encode_payload(&self, buf: &mut Vec<u8>) {
        wire::put_f64(buf, self.params.lambda);
        wire::put_f64(buf, self.params.mu);
        wire::put_f64(buf, self.params.power_down_threshold);
        wire::put_f64(buf, self.params.power_up_delay);
        wire::put_f64(buf, self.horizon);
    }

    fn run_slot(&self, _point: usize, _rep: u64, seed: u64) -> Result<Vec<u8>, String> {
        let out = run_cpu_model(Warm::process(), &self.params, self.horizon, seed)
            .map_err(|e| e.to_string())?;
        let mut bytes = Vec::with_capacity(12);
        wire::put_f64s(&mut bytes, &out.probabilities[..1]);
        Ok(bytes)
    }
}

/// Decode one slot's observation vector, mapping wire errors to the
/// driver-facing executor error type.
pub(crate) fn decode_obs(bytes: &[u8], what: &str) -> Result<Vec<f64>, String> {
    wire::decode_f64s(bytes).map_err(|e| format!("{what}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(job: &dyn PortableJob, reg: &JobRegistry) -> Box<dyn PortableJob> {
        let mut payload = Vec::new();
        job.encode_payload(&mut payload);
        reg.decode(job.kind(), &payload).unwrap()
    }

    #[test]
    fn payloads_round_trip_and_slots_agree() {
        let mut reg = JobRegistry::new();
        register(&mut reg);
        let jobs: Vec<Box<dyn PortableJob>> = vec![
            Box::new(CpuComparisonJob {
                lambda: 1.0,
                mu: 10.0,
                horizon: 150.0,
                power_up_delay: 0.3,
                seed: 0x5EED,
                grid: vec![0.001, 0.5],
            }),
            Box::new(NodeSweepJob {
                workload: Workload::Closed { interval: 1.0 },
                horizon: 80.0,
                grid: vec![0.00177, 1.0],
            }),
            Box::new(ValidationJob {
                workload: Workload::Open { rate: 1.0 },
                horizon: 80.0,
                grid: vec![0.01],
            }),
            Box::new(SeedAblationJob {
                params: CpuModelParams::paper_defaults(0.3, 0.3),
                horizon: 100.0,
            }),
        ];
        for job in &jobs {
            let back = round_trip(job.as_ref(), &reg);
            assert_eq!(back.kind(), job.kind());
            // Decoded job computes the exact same slot bytes.
            let a = job.run_slot(0, 1, 77).unwrap();
            let b = back.run_slot(0, 1, 77).unwrap();
            assert_eq!(a, b, "{} diverged after round-trip", job.kind());
        }
    }

    #[test]
    fn out_of_range_point_is_a_task_error() {
        let job = NodeSweepJob {
            workload: Workload::Closed { interval: 1.0 },
            horizon: 50.0,
            grid: vec![0.1],
        };
        assert!(job.run_slot(1, 0, 1).is_err());
    }
}
