//! The paper's headline question (Sec. I): *should a processor be put to
//! sleep immediately after computation, or after some time has elapsed? Or
//! never?* — answered by sweeping the Power-Down Threshold of the full
//! sensor-node model (Figs. 14/15).
//!
//! ```sh
//! cargo run --release --example power_down_threshold
//! ```

use wsn_petri::prelude::*;
use wsn_petri::wsn::sweep::FIG14_15_PDT_GRID;

fn main() {
    // The whole (threshold × replication) grid runs as one flattened task
    // stream on the shared runtime; results are bit-identical for any
    // worker count (SWEEP_THREADS overrides the one-per-core default).
    // The closed model runs once per threshold; the open model runs
    // replications until each point's energy CI settles (the default
    // `paper_rule` budget).
    let threads = wsn_petri::sim_core::env_threads("SWEEP_THREADS")
        .unwrap_or_else(wsn_petri::sim_core::default_threads);
    for (label, workload) in [
        (
            "closed workload (Fig. 14)",
            Workload::Closed { interval: 1.0 },
        ),
        ("open workload (Fig. 15)", Workload::Open { rate: 1.0 }),
    ] {
        let cfg = NodeSweepConfig {
            horizon: 900.0, // the paper's 15 minutes
            exec: wsn_petri::sim_core::Runner::new(threads),
            ..Default::default()
        };
        let sweep = run_node_sweep(workload, &FIG14_15_PDT_GRID, &cfg);

        println!("=== {label} ===");
        println!(
            "{:>12} {:>12} {:>14} {:>10}",
            "PDT (s)", "energy (J)", "CPU wakeups", "cycles"
        );
        for p in &sweep.points {
            println!(
                "{:>12} {:>12.2} {:>14.0} {:>10.0}",
                p.pdt,
                p.total_j(),
                p.cpu_wakeups,
                p.cycles
            );
        }
        let a = sweep.optimum_analysis();
        println!(
            "\noptimum: PDT = {} s at {:.2} J — {:.0}% below immediate power-down, {:.0}% below never-power-down\n",
            a.optimal_pdt, a.optimal_energy_j, a.savings_vs_immediate_pct, a.savings_vs_never_pct
        );
    }
    println!(
        "(the closed-model knee sits at exactly 0.000194 + 0.001 + 0.000576 = 0.00177 s,\n\
         the CPU-visible gap inside one communication cycle — see DESIGN.md §5)"
    );
}
