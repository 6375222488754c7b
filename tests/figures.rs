//! Figure-shape tests: reduced-horizon versions of every figure pipeline,
//! asserting the qualitative claims the paper's evaluation makes about
//! each plot. These are the regression net for the `repro` binary.

use wsn_petri::prelude::*;
use wsn_petri::sim_core::StoppingRule;
use wsn_petri::wsn::sweep::{fig4_9_pdt_grid, FIG14_15_PDT_GRID};

/// Eight replications per point at a reduced horizon.
fn quick_cpu_cfg() -> CpuComparisonConfig {
    CpuComparisonConfig {
        horizon: 2500.0,
        rule: StoppingRule::relative(0.03).with_budget(8, 8, 8),
        ..Default::default()
    }
}

/// Fig. 4: at PUD = 0.001 s, Idle rises with the threshold, Standby falls,
/// Active stays flat near ρ = 0.1, and Power-Up is negligible.
#[test]
fn fig4_shapes() {
    let c = run_cpu_comparison(0.001, &fig4_9_pdt_grid(), &quick_cpu_cfg());
    let first = &c.points[0];
    let last = c.points.last().unwrap();
    // Idle rises (sim, markov, petri all).
    assert!(last.sim_probs[2] > first.sim_probs[2] + 0.3);
    assert!(last.markov_probs[2] > first.markov_probs[2] + 0.3);
    assert!(last.petri_probs[2] > first.petri_probs[2] + 0.3);
    // Standby falls.
    assert!(last.sim_probs[0] < first.sim_probs[0] - 0.3);
    // Active flat near 0.1.
    for p in &c.points {
        assert!(
            (p.sim_probs[3] - 0.1).abs() < 0.03,
            "active {}",
            p.sim_probs[3]
        );
    }
    // Power-up negligible at D = 1 ms.
    for p in &c.points {
        assert!(p.sim_probs[1] < 0.01);
    }
}

/// Fig. 6: at PUD = 10 s the CPU spends a large share of time powering up,
/// and the Markov curve departs from the simulator while Petri stays close.
#[test]
fn fig6_shapes() {
    let grid = [0.001, 0.25, 0.5, 0.75, 1.0];
    let c = run_cpu_comparison(10.0, &grid, &quick_cpu_cfg());
    // Substantial power-up share at small thresholds.
    assert!(
        c.points[0].sim_probs[1] > 0.2,
        "powerup {}",
        c.points[0].sim_probs[1]
    );
    // Markov vs sim error dwarfs petri vs sim error, pointwise.
    for p in &c.points {
        let markov_err = (p.markov_probs[3] - p.sim_probs[3]).abs();
        let petri_err = (p.petri_probs[3] - p.sim_probs[3]).abs();
        assert!(
            markov_err > petri_err,
            "pdt={}: markov_err {markov_err} <= petri_err {petri_err}",
            p.pdt
        );
    }
}

/// Figs. 7 vs 9: energy *rises* with the threshold at PUD = 1 ms but
/// *falls* at PUD = 10 s — the paper's "more efficient to idle than to
/// repeatedly wake" observation.
#[test]
fn fig7_vs_fig9_energy_trend_inverts() {
    let grid = [0.001, 0.5, 1.0];
    let small = run_cpu_comparison(0.001, &grid, &quick_cpu_cfg());
    let large = run_cpu_comparison(10.0, &grid, &quick_cpu_cfg());
    let rows_small = small.energy_rows();
    let rows_large = large.energy_rows();
    assert!(rows_small[2].1 > rows_small[0].1, "PUD=1ms: rising");
    assert!(rows_large[2].1 < rows_large[0].1, "PUD=10s: falling");
}

/// Tables IV–VI trend: the Petri net's advantage over the Markov model
/// grows with the Power-Up Delay.
#[test]
fn delta_tables_trend() {
    let grid = fig4_9_pdt_grid();
    let cfg = quick_cpu_cfg();
    let t4 = run_cpu_comparison(0.001, &grid, &cfg).delta_table();
    let t5 = run_cpu_comparison(0.3, &grid, &cfg).delta_table();
    let t6 = run_cpu_comparison(10.0, &grid, &cfg).delta_table();
    // Table IV regime: both close to sim; Markov-Petri tiny relative to
    // the energies involved (paper: 0.05 J on ~10-50 J curves).
    assert!(t4.markov_petri.avg < 2.0, "{t4:?}");
    // Table V regime: Petri at least as good as Markov.
    assert!(t5.sim_petri.avg <= t5.sim_markov.avg * 1.1, "{t5:?}");
    // Table VI regime: Markov off by a large factor (paper: 42.41 vs 0.12).
    assert!(
        t6.sim_markov.avg > 5.0 * t6.sim_petri.avg,
        "markov {} vs petri {}",
        t6.sim_markov.avg,
        t6.sim_petri.avg
    );
}

/// Fig. 14: the closed-model sweep over the full published grid has its
/// optimum at the 0.00177 s knee (or inside the flat basin up to ~1 s) and
/// beats both extremes.
#[test]
fn fig14_optimum_location_and_savings() {
    let cfg = NodeSweepConfig {
        horizon: 600.0,
        ..Default::default()
    };
    let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &FIG14_15_PDT_GRID, &cfg);
    let a = sweep.optimum_analysis();
    assert!(
        (0.00177..=1.0).contains(&a.optimal_pdt),
        "optimum {}",
        a.optimal_pdt
    );
    assert!(a.savings_vs_immediate_pct > 5.0, "{a:?}");
    assert!(a.savings_vs_never_pct > 5.0, "{a:?}");
}

/// Fig. 15: the open-model sweep also has an interior optimum with
/// positive savings against both extremes.
#[test]
fn fig15_optimum_interior() {
    let cfg = NodeSweepConfig {
        horizon: 600.0,
        rule: StoppingRule::relative(0.03).with_budget(4, 4, 4),
        ..Default::default()
    };
    let sweep = run_node_sweep(Workload::Open { rate: 1.0 }, &FIG14_15_PDT_GRID, &cfg);
    let a = sweep.optimum_analysis();
    assert!(a.optimal_pdt > 1e-9 && a.optimal_pdt < 100.0, "{a:?}");
    assert!(a.savings_vs_immediate_pct > 5.0, "{a:?}");
    assert!(a.savings_vs_never_pct > 0.0, "{a:?}");
}

/// Fig. 14's stacked series: wake-up transitional energy shrinks with the
/// threshold while idle energy grows — the visual story of the figure.
#[test]
fn fig14_series_trends() {
    let cfg = NodeSweepConfig {
        horizon: 400.0,
        ..Default::default()
    };
    let grid = [1e-9, 0.00177, 1.0, 100.0];
    let sweep = run_node_sweep(Workload::Closed { interval: 1.0 }, &grid, &cfg);
    let wakeup: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.breakdown.cpu.wakeup.joules())
        .collect();
    let idle: Vec<f64> = sweep
        .points
        .iter()
        .map(|p| p.breakdown.cpu.idle.joules())
        .collect();
    assert!(
        wakeup.windows(2).all(|w| w[1] <= w[0] + 1e-9),
        "wakeup {wakeup:?}"
    );
    assert!(
        idle.windows(2).all(|w| w[1] >= w[0] - 1e-9),
        "idle {idle:?}"
    );
}

/// Tables VIII/IX/X: the simple-system pipeline reports self-consistent
/// probabilities and a small measured-vs-predicted gap.
#[test]
fn simple_system_tables() {
    let report = run_simple_system(10_000.0, 3);
    let total: f64 = report.rows.iter().map(|r| r.probability_pct).sum();
    assert!((total - 100.0).abs() < 1e-9);
    assert!((report.analytic.total() - 1.0).abs() < 1e-12);
    let x = run_table_x(3);
    assert!(x.percent_difference < 6.0, "{x:?}");
}
