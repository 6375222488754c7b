//! Substrate cross-validation sweep: the Petri-net node model against the
//! independent DES oracle at every threshold, as a machine-checkable CSV.
//!
//! This is the evidence behind the claim that our TimeNET replacement
//! implements the intended semantics: two independently written simulators
//! agreeing across the full parameter range. The sweep is a portable
//! [`ValidationJob`] on the executor seam, so it runs unchanged (and
//! byte-identically) in-process or across worker shards; the open
//! (stochastic) model can additionally run **adaptive** replications per
//! point until both energy estimates settle, instead of trusting a single
//! run.

use super::jobs::{decode_obs, ValidationJob, VALIDATION_WATCH};
use des::Workload;
use serde::{Deserialize, Serialize};
use sim_core::{Runner, StoppingRule};

/// One row of the validation sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ValidationRow {
    /// Power-Down Threshold (s).
    pub pdt: f64,
    /// Petri-net total energy (J), averaged over the row's replications.
    pub petri_j: f64,
    /// DES total energy (J), averaged over the row's replications.
    pub des_j: f64,
    /// Relative difference `|petri - des| / des` of the averages.
    pub rel_diff: f64,
    /// Petri CPU wake-ups (mean).
    pub petri_wakeups: f64,
    /// DES CPU wake-ups (mean).
    pub des_wakeups: f64,
    /// Replications averaged into this row.
    pub replications: u64,
    /// Whether the adaptive rule settled (always `true` in fixed mode).
    pub converged: bool,
}

/// Run the validation sweep over a threshold grid for one workload.
///
/// The closed workload is deterministic in both substrates, so rows should
/// agree to numerical precision and always use a single replication. For
/// the open workload, `rule: None` reproduces the historical single-run
/// rows exactly (the `--fixed-reps` escape hatch), while `rule: Some(_)`
/// runs adaptive replications per point until the 95 % CI of both the
/// Petri and DES energy estimates meets the rule.
pub fn run_validation(
    workload: Workload,
    grid: &[f64],
    horizon: f64,
    seed: u64,
    exec: &Runner,
    rule: Option<&StoppingRule>,
) -> Vec<ValidationRow> {
    let job = ValidationJob {
        workload,
        horizon,
        grid: grid.to_vec(),
    };
    let row = |pdt: f64, obs: &[f64], replications: u64, converged: bool| ValidationRow {
        pdt,
        petri_j: obs[0],
        des_j: obs[1],
        rel_diff: (obs[0] - obs[1]).abs() / obs[1],
        petri_wakeups: obs[2],
        des_wakeups: obs[3],
        replications,
        converged,
    };
    match (workload, rule) {
        (Workload::Open { .. }, Some(rule)) => {
            let adaptive = exec
                .run_adaptive_job(&job, grid.len(), rule, &VALIDATION_WATCH, &|_p, r| {
                    petri_core::rng::SimRng::child_seed(seed, r)
                })
                .unwrap_or_else(|e| panic!("adaptive validation sweep failed: {e}"));
            grid.iter()
                .zip(adaptive)
                .map(|(&pdt, p)| {
                    let means: Vec<f64> = p.stats.iter().map(|w| w.mean()).collect();
                    row(pdt, &means, p.replications, p.converged)
                })
                .collect()
        }
        _ => {
            // One exact (closed) or historical single-seed (open) run per
            // point: the constant seed table reproduces the pre-adaptive
            // sweep bit for bit.
            let reps = vec![1u64; grid.len()];
            let per_point = exec
                .run_job(&job, &reps, &|_p, _r| seed)
                .unwrap_or_else(|e| panic!("validation sweep failed: {e}"));
            grid.iter()
                .zip(per_point)
                .map(|(&pdt, slots)| {
                    let obs =
                        decode_obs(&slots[0], "validation slot").unwrap_or_else(|e| panic!("{e}"));
                    row(pdt, &obs, 1, true)
                })
                .collect()
        }
    }
}

/// Render the sweep as CSV.
pub fn render_validation_csv(rows: &[ValidationRow]) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("pdt,petri_j,des_j,rel_diff,petri_wakeups,des_wakeups,replications\n");
    for r in rows {
        let _ = writeln!(
            s,
            "{},{:.4},{:.4},{:.6},{:.1},{:.1},{}",
            r.pdt, r.petri_j, r.des_j, r.rel_diff, r.petri_wakeups, r.des_wakeups, r.replications
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec2() -> Runner {
        Runner::new(2)
    }

    #[test]
    fn closed_model_rows_agree_tightly() {
        let rows = run_validation(
            Workload::Closed { interval: 1.0 },
            &[1e-9, 0.00177, 0.1, 10.0],
            300.0,
            1,
            &exec2(),
            None,
        );
        for r in &rows {
            assert!(r.rel_diff < 0.005, "pdt={}: {:?}", r.pdt, r);
            assert!((r.petri_wakeups - r.des_wakeups).abs() <= 1.0, "{r:?}");
            assert_eq!(r.replications, 1);
            assert!(r.converged);
        }
    }

    #[test]
    fn open_model_rows_agree_statistically() {
        // Single runs with independent seeds: agreement is statistical
        // (relative Monte-Carlo std of a 5000 s energy estimate ≈ 2-3 %).
        let rows = run_validation(
            Workload::Open { rate: 1.0 },
            &[0.00177, 0.1],
            5000.0,
            7,
            &exec2(),
            None,
        );
        for r in &rows {
            assert!(r.rel_diff < 0.08, "pdt={}: {:?}", r.pdt, r);
        }
    }

    #[test]
    fn open_model_adaptive_tightens_the_gap() {
        // Averaging until the CI settles must agree at least as well as the
        // loose single-run bound, while recording its replication spend.
        let rule = StoppingRule::relative(0.05).with_budget(3, 24, 3);
        let rows = run_validation(
            Workload::Open { rate: 1.0 },
            &[0.00177, 0.1],
            800.0,
            7,
            &exec2(),
            Some(&rule),
        );
        for r in &rows {
            assert!(r.replications >= 3 && r.replications <= 24, "{r:?}");
            assert!(r.rel_diff < 0.15, "{r:?}");
        }
        // Deterministic across thread counts, replication budget included.
        let again = run_validation(
            Workload::Open { rate: 1.0 },
            &[0.00177, 0.1],
            800.0,
            7,
            &Runner::new(1),
            Some(&rule),
        );
        assert_eq!(rows, again);
    }

    #[test]
    fn csv_renders_all_rows() {
        let rows = run_validation(
            Workload::Closed { interval: 1.0 },
            &[0.01],
            100.0,
            1,
            &Runner::new(1),
            None,
        );
        let csv = render_validation_csv(&rows);
        assert_eq!(csv.lines().count(), 2);
        assert!(csv.starts_with("pdt,"));
        assert!(csv.contains("replications"));
    }
}
