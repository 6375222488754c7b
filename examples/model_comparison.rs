//! The paper's methodological claim (Secs. III–IV): Petri nets predict the
//! CPU's behaviour better than Markov models, dramatically so when the
//! deterministic Power-Up Delay grows.
//!
//! Reproduces the content of Figs. 7–9 / Tables IV–VI at the three
//! published Power-Up Delays.
//!
//! ```sh
//! cargo run --release --example model_comparison
//! ```

use wsn_petri::prelude::*;
use wsn_petri::wsn::report::render_delta_table;
use wsn_petri::wsn::sweep::fig4_9_pdt_grid;

fn main() {
    // One flattened (threshold × replication) grid per Power-Up Delay on
    // the shared runtime, each point running replications until both
    // stochastic energy CIs settle (the default `paper_rule` budget).
    // SWEEP_THREADS overrides the per-core default; the numbers are
    // bit-identical either way.
    let cfg = CpuComparisonConfig {
        exec: wsn_petri::sim_core::Runner::new(
            wsn_petri::sim_core::env_threads("SWEEP_THREADS")
                .unwrap_or_else(wsn_petri::sim_core::default_threads),
        ),
        ..Default::default()
    };
    let grid = fig4_9_pdt_grid();

    for (pud, table) in [(0.001, "IV"), (0.3, "V"), (10.0, "VI")] {
        let c = run_cpu_comparison(pud, &grid, &cfg);
        println!("--- Power_Up_Delay = {pud} s ---");
        println!(
            "{:>8} {:>12} {:>12} {:>12}",
            "PDT", "Sim (J)", "Markov (J)", "Petri (J)"
        );
        for (pdt, sim, markov, petri) in c.energy_rows() {
            println!("{pdt:>8.3} {sim:>12.2} {markov:>12.2} {petri:>12.2}");
        }
        println!();
        print!(
            "{}",
            render_delta_table(
                &format!("Table {table} analogue (Joules)"),
                &c.delta_table()
            )
        );
        let t = c.delta_table();
        if t.sim_petri.avg < t.sim_markov.avg {
            println!(
                "=> Petri net tracks the simulator {:.1}x more closely than the Markov model\n",
                t.sim_markov.avg / t.sim_petri.avg.max(1e-9)
            );
        } else {
            println!("=> both models track the simulator equally well here\n");
        }
    }
}
