//! Plain-text table/CSV rendering of experiment results — what the `repro`
//! binary prints so outputs can be diffed against the paper's tables.

use crate::experiments::cpu_comparison::CpuComparison;
use crate::experiments::node_energy::NodeSweep;
use crate::experiments::simple_system::SimpleSystemReport;
use crate::imote2::TableXComparison;
use crate::metrics::DeltaEnergyTable;
use std::fmt::Write as _;

/// Render a Δ-energy table in the paper's Tables IV–VI layout.
pub fn render_delta_table(title: &str, t: &DeltaEnergyTable) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "{:<12} {:>14} {:>14} {:>16}",
        "Power Down", "Δ Sim-Markov", "Δ Sim-Petri", "Δ Markov-Petri"
    );
    let _ = writeln!(
        s,
        "{:<12} {:>14.2} {:>14.2} {:>16.2}",
        "Avg.", t.sim_markov.avg, t.sim_petri.avg, t.markov_petri.avg
    );
    let _ = writeln!(
        s,
        "{:<12} {:>14.2} {:>14.2} {:>16.2}",
        "Variance", t.sim_markov.variance, t.sim_petri.variance, t.markov_petri.variance
    );
    let _ = writeln!(
        s,
        "{:<12} {:>14.2} {:>14.2} {:>16.2}",
        "STD DEV", t.sim_markov.std_dev, t.sim_petri.std_dev, t.markov_petri.std_dev
    );
    let _ = writeln!(
        s,
        "{:<12} {:>14.2} {:>14.2} {:>16.2}",
        "RMSE", t.sim_markov.rmse, t.sim_petri.rmse, t.markov_petri.rmse
    );
    s
}

/// Render the state-percentage curves of Figs. 4–6 as CSV
/// (`pdt,sim_*,markov_*,petri_*` with the four states each).
pub fn render_state_csv(c: &CpuComparison) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "pdt,sim_standby,sim_powerup,sim_idle,sim_active,\
         markov_standby,markov_powerup,markov_idle,markov_active,\
         petri_standby,petri_powerup,petri_idle,petri_active"
    );
    for p in &c.points {
        let _ = write!(s, "{}", p.pdt);
        for v in p
            .sim_probs
            .iter()
            .chain(&p.markov_probs)
            .chain(&p.petri_probs)
        {
            let _ = write!(s, ",{:.6}", 100.0 * v);
        }
        let _ = writeln!(s);
    }
    s
}

/// Render the energy curves of Figs. 7–9 as CSV.
pub fn render_energy_csv(c: &CpuComparison) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "pdt,simulation_j,markov_j,petri_j");
    for (pdt, sim, markov, petri) in c.energy_rows() {
        let _ = writeln!(s, "{pdt},{sim:.4},{markov:.4},{petri:.4}");
    }
    s
}

/// Render a Fig. 14/15 sweep as CSV with the eight breakdown series.
pub fn render_node_sweep_csv(sweep: &NodeSweep) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "pdt,total_j,radio_wakeup_j,cpu_wakeup_j,cpu_active_j,cpu_idle_j,cpu_sleep_j,\
         radio_active_j,radio_idle_j,radio_sleep_j,cpu_wakeups,cycles"
    );
    for p in &sweep.points {
        let series = p.breakdown.series();
        let _ = write!(s, "{},{:.4}", p.pdt, p.total_j());
        for (_, e) in series.iter() {
            let _ = write!(s, ",{:.4}", e.joules());
        }
        let _ = writeln!(s, ",{:.0},{:.0}", p.cpu_wakeups, p.cycles);
    }
    s
}

/// Render one sweep's replication spend as a single summary line: total
/// replications, point count, the governing rule, and — crucially — how
/// many points **hit the budget cap without converging**, so an
/// under-resolved sweep is visible in the report instead of silently
/// passing as converged.
///
/// `points` yields each point's `(replications, converged)`; `watch`
/// names the metric the rule watched (for the human reader).
pub fn render_budget_summary(
    points: impl Iterator<Item = (u64, bool)>,
    rule: &sim_core::StoppingRule,
    watch: &str,
) -> String {
    let (mut total, mut count, mut unconverged) = (0u64, 0usize, 0usize);
    for (reps, converged) in points {
        total += reps;
        count += 1;
        unconverged += usize::from(!converged);
    }
    format!(
        "  adaptive budget: {total} replications over {count} points (rule: {:.0}% CI on {watch}, {}..{}; {unconverged} point(s) hit the cap)",
        rule.relative.unwrap_or_default() * 100.0,
        rule.min_replications,
        rule.max_replications,
    )
}

/// Render Tables VIII/IX.
pub fn render_simple_system(r: &SimpleSystemReport) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Table VIII — transition parameters (steady state from renewal analysis)"
    );
    let _ = writeln!(
        s,
        "{:<20} {:<14} {:>10} {:>22}",
        "Transition", "Distribution", "Delay (s)", "Steady-state prob (%)"
    );
    for row in &r.rows {
        let _ = writeln!(
            s,
            "{:<20} {:<14} {:>10} {:>22.3}",
            row.transition, row.distribution, row.delay, row.probability_pct
        );
    }
    let _ = writeln!(s);
    let _ = writeln!(
        s,
        "Table IX — place probabilities (simulated vs analytic, %)"
    );
    let rows = [
        ("Wait", r.simulated.wait, r.analytic.wait),
        ("Temp_Place", r.simulated.temp_place, r.analytic.temp_place),
        ("Receiving", r.simulated.receiving, r.analytic.receiving),
        (
            "Computation",
            r.simulated.computation,
            r.analytic.computation,
        ),
        (
            "Transmitting",
            r.simulated.transmitting,
            r.analytic.transmitting,
        ),
    ];
    let _ = writeln!(s, "{:<14} {:>12} {:>12}", "State", "Simulated", "Analytic");
    for (name, sim, exact) in rows {
        let _ = writeln!(
            s,
            "{:<14} {:>12.3} {:>12.3}",
            name,
            100.0 * sim,
            100.0 * exact
        );
    }
    s
}

/// Render Table X.
pub fn render_table_x(c: &TableXComparison) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "Table X — emulated IMote2 vs Petri-net prediction");
    let _ = writeln!(
        s,
        "{:<32} {:>12.1} s",
        "IMote2 execution time", c.execution_time_s
    );
    let _ = writeln!(
        s,
        "{:<32} {:>12.4} mW",
        "Average IMote2 power", c.average_power_mw
    );
    let _ = writeln!(
        s,
        "{:<32} {:>12.6} J",
        "IMote2 energy usage", c.measured_energy_j
    );
    let _ = writeln!(
        s,
        "{:<32} {:>12.6} J",
        "Petri net energy usage", c.petri_energy_j
    );
    let _ = writeln!(
        s,
        "{:<32} {:>12.2} %",
        "Percent difference", c.percent_difference
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::cpu_comparison::{run_cpu_comparison, CpuComparisonConfig};
    use crate::experiments::node_energy::{run_node_sweep, NodeSweepConfig};
    use crate::experiments::simple_system::{run_simple_system, run_table_x};
    use des::Workload;

    fn tiny_comparison() -> CpuComparison {
        run_cpu_comparison(
            0.3,
            &[0.001, 0.5],
            &CpuComparisonConfig {
                horizon: 100.0,
                exec: sim_core::Runner::new(1),
                rule: sim_core::StoppingRule::relative(0.03).with_budget(2, 2, 2),
                ..Default::default()
            },
        )
    }

    #[test]
    fn delta_table_renders_all_rows() {
        let c = tiny_comparison();
        let text = render_delta_table("Table V", &c.delta_table());
        for needle in ["Table V", "Avg.", "Variance", "STD DEV", "RMSE"] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
    }

    #[test]
    fn csv_headers_and_row_counts() {
        let c = tiny_comparison();
        let state_csv = render_state_csv(&c);
        assert_eq!(state_csv.lines().count(), 1 + c.points.len());
        assert!(state_csv.starts_with("pdt,sim_standby"));
        let energy_csv = render_energy_csv(&c);
        assert_eq!(energy_csv.lines().count(), 1 + c.points.len());
    }

    #[test]
    fn node_sweep_csv_renders() {
        let sweep = run_node_sweep(
            Workload::Closed { interval: 1.0 },
            &[0.001, 0.01],
            &NodeSweepConfig {
                horizon: 100.0,
                exec: sim_core::Runner::new(1),
                ..Default::default()
            },
        );
        let csv = render_node_sweep_csv(&sweep);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("cpu_wakeup_j"));
    }

    #[test]
    fn simple_system_and_table_x_render() {
        let r = run_simple_system(500.0, 1);
        let text = render_simple_system(&r);
        assert!(text.contains("Job_Arrival"));
        assert!(text.contains("Transmitting"));
        let x = render_table_x(&run_table_x(1));
        assert!(x.contains("Percent difference"));
    }
}
