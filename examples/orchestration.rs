//! The orchestration runtime, end to end: one flattened
//! `(sweep-point × replication)` grid for the paper's CPU model, a live
//! progress callback, and the adaptive stopping rule — the paper's "until
//! steady state probability values were obtained" as an explicit,
//! budget-aware criterion.
//!
//! ```sh
//! cargo run --release --example orchestration
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use wsn_petri::petri_core::replicate::run_replications_adaptive;
use wsn_petri::prelude::*;
use wsn_petri::sim_core::{Runner, StoppingRule};

fn main() {
    let threads = wsn_petri::sim_core::default_threads();
    let grid = [0.05, 0.1, 0.3, 0.5, 1.0];
    let reps_per_point = vec![6u64; grid.len()];

    // --- 1. A fixed flattened grid with a progress callback. ------------
    // 5 points × 6 replications = 30 tasks in one work-stealing stream;
    // per-point outputs come back in replication order, so the averages
    // below are bit-identical at any thread count.
    println!(
        "fixed grid: {} points x 6 replications on {threads} thread(s)",
        grid.len()
    );
    let done = Arc::new(AtomicUsize::new(0));
    let seen = done.clone();
    let runner = Runner::new(threads).on_progress(move |p| {
        seen.store(p.completed, Ordering::Relaxed);
    });
    let per_point = runner.grid(&reps_per_point, |point, rep| {
        let params = CpuModelParams::paper_defaults(grid[point], 0.3);
        let seed = wsn_petri::petri_core::rng::SimRng::child_seed(0xF00D, rep);
        simulate_cpu_model(&params, 1000.0, seed).probabilities[0]
    });
    println!("  {} tasks completed", done.load(Ordering::Relaxed));
    println!("{:>10} {:>16}", "PDT (s)", "mean P(standby)");
    for (pdt, outputs) in grid.iter().zip(&per_point) {
        let mean: f64 = outputs.iter().sum::<f64>() / outputs.len() as f64;
        println!("{pdt:>10} {mean:>16.5}");
    }

    // --- 2. The adaptive mode: spend replications where the noise is. ---
    println!("\nadaptive: 95% CI of P(standby) within 3%, budget 8..128");
    println!(
        "{:>10} {:>13} {:>13} {:>9}",
        "PDT (s)", "mean", "CI half", "reps"
    );
    let rule = StoppingRule::relative(0.03).with_budget(8, 128, 8);
    for &pdt in &grid {
        let model = build_cpu_model(&CpuModelParams::paper_defaults(pdt, 0.3));
        let mut sim = Simulator::new(&model.net, SimConfig::for_horizon(1000.0));
        let standby = sim.reward_place(model.places.stand_by);
        let a = run_replications_adaptive(&sim, 0xF00D, &rule, &[standby.index()], threads)
            .expect("CPU net runs");
        let ci = a.summary.ci(standby.index(), ConfidenceLevel::P95);
        println!(
            "{pdt:>10} {:>13.5} {:>13.5} {:>9}{}",
            ci.mean,
            ci.half_width,
            a.summary.replications,
            if a.converged { "" } else { "  (budget hit)" }
        );
    }
    println!("\n(re-run with any thread count — every number above is bit-identical)");
}
