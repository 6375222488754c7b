//! Pins every bit the discrete-event simulators produce on a grid that
//! includes the event-order tie cases: one SHA-256 over the `{:?}` of
//! each result. A change to the simulators' event ordering, sampling or
//! bookkeeping that moves any output bit fails here, even where the
//! end-to-end goldens (which see only the paper's sweep points) would not.
//!
//! * CPU: thresholds 0 and 1e-9 put the power-down timer at, or one
//!   rounding away from, the instant the CPU goes idle, and a power-up
//!   delay of 0 ends the wake-up at the arrival's instant.
//! * Node: at a threshold equal to the CPU-visible gap inside a cycle the
//!   timer and the next job's deposit are due together, and the timer must
//!   lose the tie; one ulp either side pins the neighbours.

use des::{simulate_cpu, simulate_node, CpuSimParams, NodeSimParams, Workload};

const SEEDS: std::ops::Range<u64> = 1..6;

/// SHA-256 of the grid's results, recorded with the event-queue kernel
/// the fixed clocks replaced.
const PINNED: &str = "f0be8928836c4d3e77263a2bd2485d1dc0cad7eb1807e44fea73a32b4c20758b";

fn grid_transcript() -> String {
    let mut out = String::new();
    for horizon in [300.0, 5000.0] {
        for t in [0.0, 1e-9, 0.001, 0.3, 2.0] {
            for d in [0.0, 0.001, 0.3, 10.0] {
                let mut p = CpuSimParams::paper_defaults(t, d);
                p.horizon = horizon;
                for seed in SEEDS {
                    out += &format!("cpu {p:?} {seed} {:?}\n", simulate_cpu(&p, seed));
                }
            }
        }
    }
    let gap =
        NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, 0.0).intra_cycle_gap();
    let below = f64::from_bits(gap.to_bits() - 1);
    let above = f64::from_bits(gap.to_bits() + 1);
    for workload in [
        Workload::Closed { interval: 1.0 },
        Workload::Open { rate: 1.0 },
    ] {
        for pdt in [0.0, 1e-9, below, gap, above, 0.1, 10.0] {
            let p = NodeSimParams::paper_defaults(workload, pdt);
            for seed in SEEDS {
                out += &format!("node {p:?} {seed} {:?}\n", simulate_node(&p, seed));
            }
        }
    }
    out
}

#[test]
fn des_outputs_match_the_pinned_digest() {
    let digest: String = sim_core::key::sha256(grid_transcript().as_bytes())
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(digest, PINNED, "DES output bits moved");
}
