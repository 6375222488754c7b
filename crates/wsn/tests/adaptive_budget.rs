//! Coverage for the adaptive-budget exhaustion path: when a
//! `StoppingRule` hits `max_replications` without its watched CIs
//! settling, the `converged = false` flag must propagate out of the
//! runtime and into every driver's row type — `CpuComparisonPoint`,
//! `ValidationRow`, `NodeSweepPoint` — and into the rendered budget
//! summary, so an under-resolved sweep is loud instead of silently
//! passing as converged.
//!
//! The rule used here is deliberately unsatisfiable (a 1e-12 relative CI
//! target on stochastic energy estimates) with a tiny cap, so every
//! stochastic point must exhaust its budget deterministically.

use des::Workload;
use sim_core::{Runner, StoppingRule};
use wsn::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
use wsn::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
use wsn::experiments::validation::run_validation;
use wsn::report::render_budget_summary;

/// A rule no stochastic estimate can satisfy, capped at 4 replications.
fn impossible_rule() -> StoppingRule {
    StoppingRule::relative(1e-12).with_budget(2, 4, 2)
}

#[test]
fn cpu_comparison_points_report_budget_exhaustion() {
    let grid = [0.001, 0.3, 1.0];
    let c = run_cpu_comparison(
        0.3,
        &grid,
        &CpuComparisonConfig {
            horizon: 120.0,
            exec: Runner::new(2),
            rule: impossible_rule(),
            ..Default::default()
        },
    );
    assert_eq!(c.points.len(), grid.len());
    for p in &c.points {
        assert!(!p.converged, "unsatisfiable rule must not converge: {p:?}");
        assert_eq!(
            p.replications, 4,
            "cap must be spent exactly before giving up: {p:?}"
        );
        // The estimates themselves are still real (means over the cap).
        assert!(p.sim_energy_j > 0.0 && p.petri_energy_j > 0.0);
    }
}

#[test]
fn validation_rows_report_budget_exhaustion() {
    let rule = impossible_rule();
    let rows = run_validation(
        Workload::Open { rate: 1.0 },
        &[0.01, 1.0],
        100.0,
        7,
        &Runner::new(1),
        &rule,
    );
    for r in &rows {
        assert!(!r.converged, "{r:?}");
        assert_eq!(r.replications, 4, "{r:?}");
    }
    // The closed sweep is exact single-run rows under any rule: always
    // converged, so the flag genuinely distinguishes the two regimes.
    let closed = run_validation(
        Workload::Closed { interval: 1.0 },
        &[0.01, 1.0],
        100.0,
        7,
        &Runner::new(1),
        &rule,
    );
    assert!(closed.iter().all(|r| r.converged));
}

#[test]
fn node_sweep_points_report_budget_exhaustion() {
    let sweep = run_node_sweep(
        Workload::Open { rate: 1.0 },
        &[1e-9, 0.1],
        &NodeSweepConfig {
            horizon: 80.0,
            exec: Runner::new(1),
            rule: impossible_rule(),
            ..Default::default()
        },
    );
    for p in &sweep.points {
        assert!(!p.converged, "pdt={}: must hit the cap", p.pdt);
        assert_eq!(p.replications, 4);
    }
}

#[test]
fn budget_summary_renders_cap_hits_and_fixed_mode() {
    let rule = impossible_rule();
    let c = run_cpu_comparison(
        0.3,
        &[0.001, 1.0],
        &CpuComparisonConfig {
            horizon: 100.0,
            exec: Runner::new(1),
            rule,
            ..Default::default()
        },
    );
    let line = render_budget_summary(
        c.points.iter().map(|p| (p.replications, p.converged)),
        &rule,
        "the widest energy curve",
    );
    assert!(
        line.contains("2 point(s) hit the cap"),
        "every point exhausted the budget, and the report must say so: {line}"
    );
    assert!(line.contains("8 replications over 2 points"), "{line}");
    assert!(
        line.contains("2..4"),
        "the budget bounds belong in the line: {line}"
    );

    // A satisfiable rule reports zero cap hits.
    let easy = StoppingRule::relative(0.9).with_budget(2, 8, 2);
    let c = run_cpu_comparison(
        0.3,
        &[0.001],
        &CpuComparisonConfig {
            horizon: 100.0,
            exec: Runner::new(1),
            rule: easy,
            ..Default::default()
        },
    );
    assert!(c.points.iter().all(|p| p.converged));
    let line = render_budget_summary(
        c.points.iter().map(|p| (p.replications, p.converged)),
        &easy,
        "the widest energy curve",
    );
    assert!(line.contains("0 point(s) hit the cap"), "{line}");

    // A fixed count is a rule with min = max: its bounds render as n..n.
    let fixed = StoppingRule::relative(0.03).with_budget(8, 8, 8);
    let line = render_budget_summary([(8u64, true), (8, false)].into_iter(), &fixed, "anything");
    assert!(line.contains("16 replications over 2 points"), "{line}");
    assert!(line.contains("8..8; 1 point(s) hit the cap"), "{line}");
}
