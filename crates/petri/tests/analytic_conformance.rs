//! Analytic conformance: the lowered engine's steady-state token counts
//! must agree with the exact CTMC solution of the same net.
//!
//! The differential suites prove the lowered engine matches the reference
//! engine bit for bit — but two engines can agree and both be wrong. This
//! suite checks against ground truth that shares no code with either: a
//! fixed list of generator seeds builds small random closed,
//! token-conserving, exponential-only nets; [`extract_ctmc`] turns each
//! into its Markov chain and the `markov` crate's GTH solver gives the
//! exact steady state. Each place's time-average token count, estimated
//! over independent lowered-engine replications, must then lie inside the
//! Student-t confidence interval around the analytic value — and the
//! interval must be tight enough that the check is not vacuous.
//!
//! The seeds are fixed, so the suite is deterministic.

use petri_core::analysis::extract_ctmc;
use petri_core::prelude::*;
use petri_core::rng::SimRng;

/// Generator seeds: one random net each.
const NET_SEEDS: std::ops::Range<u64> = 1..13;
/// Independent replications per net.
const REPLICATIONS: u64 = 10;
const HORIZON: f64 = 1_000.0;
const WARMUP: f64 = 50.0;
/// Ceiling on the confidence half-width, as a fraction of the net's token
/// total: a wider interval would make containment meaningless.
const MAX_REL_HALF_WIDTH: f64 = 0.05;

/// A random closed net plus its token total.
///
/// A ring of unconditional single-token moves `p0 → p1 → … → p0` makes
/// every distribution of the tokens reachable from every other, so the
/// chain is irreducible (GTH's precondition) whatever extra transitions
/// ride along. The extras add the features the engine specializes on —
/// multi-token arcs, inhibitors, guards — while conserving tokens, which
/// keeps the state space at most C(4 + 4, 4) = 70 markings.
fn random_closed_net(seed: u64) -> (Net, u32) {
    let mut rng = SimRng::seed_from_u64(seed);
    let n = 2 + rng.below(4);
    let total = 1 + rng.below(4) as u32;
    let mut initial = vec![0u32; n];
    for _ in 0..total {
        initial[rng.below(n)] += 1;
    }
    let mut b = NetBuilder::new(format!("closed-{seed}"));
    let places: Vec<_> = initial
        .iter()
        .enumerate()
        .map(|(i, &k)| b.place(format!("p{i}")).tokens(k as usize).build())
        .collect();
    for i in 0..n {
        let rate = Timing::exponential(rng.uniform(0.5, 3.0));
        b.transition(format!("ring{i}"), rate)
            .input(places[i], 1)
            .output(places[(i + 1) % n], 1)
            .build();
    }
    for j in 0..1 + rng.below(4) {
        let (from, to, other) = (
            places[rng.below(n)],
            places[rng.below(n)],
            places[rng.below(n)],
        );
        let rate = Timing::exponential(rng.uniform(0.5, 3.0));
        let t = b.transition(format!("extra{j}"), rate);
        let t = match rng.below(4) {
            // Pairwise split: two tokens in, one to each of two places.
            0 => t.input(from, 2).output(to, 1).output(other, 1),
            1 => t
                .input(from, 1)
                .output(to, 1)
                .inhibitor(other, 1 + rng.below(2) as u32),
            2 => t
                .input(from, 1)
                .output(to, 1)
                .guard(Expr::count(other).le_c(rng.below(3) as i64)),
            _ => t.input(from, 1).output(to, 1),
        };
        t.build();
    }
    (b.build().unwrap(), total)
}

/// Exact steady-state mean token count of every place.
fn analytic_means(net: &Net) -> Vec<f64> {
    let ext = extract_ctmc(net, 500).expect("small exponential net");
    let chain =
        markov::Ctmc::from_rates(ext.states.len(), ext.rates.iter().copied()).expect("valid rates");
    let pi = chain.steady_state_gth();
    net.place_ids()
        .map(|p| {
            ext.states
                .iter()
                .zip(&pi)
                .map(|(m, w)| m.count(p) as f64 * w)
                .sum()
        })
        .collect()
}

#[test]
fn lowered_engine_matches_ctmc_steady_state_on_random_closed_nets() {
    for seed in NET_SEEDS {
        let (net, total) = random_closed_net(seed);
        let exact = analytic_means(&net);
        let mut sim = Simulator::new(&net, SimConfig::for_horizon(HORIZON).with_warmup(WARMUP));
        let rewards: Vec<_> = net.place_ids().map(|p| sim.reward_place(p)).collect();
        let runs: Vec<SimOutput> = (0..REPLICATIONS)
            .map(|r| {
                sim.run(SimRng::child_seed(seed, r))
                    .expect("closed net runs cleanly")
            })
            .collect();
        for (i, (&id, &want)) in rewards.iter().zip(&exact).enumerate() {
            let mut w = Welford::new();
            for out in &runs {
                w.push(out.reward(id));
            }
            let ci = w.confidence_interval(ConfidenceLevel::P99);
            assert!(
                ci.contains(want),
                "net {seed} place p{i}: analytic {want} outside simulated {:.4} ± {:.4}",
                ci.mean,
                ci.half_width
            );
            assert!(
                ci.half_width <= MAX_REL_HALF_WIDTH * total as f64,
                "net {seed} place p{i}: interval ±{} too wide to be a check",
                ci.half_width
            );
        }
    }
}

/// The generator really produces the variety the suite claims: every net
/// is irreducible and small, and across the seed list the nets span 2–5
/// places and several token totals.
#[test]
fn generated_nets_are_small_irreducible_and_varied() {
    let mut sizes = std::collections::BTreeSet::new();
    let mut totals = std::collections::BTreeSet::new();
    for seed in NET_SEEDS {
        let (net, total) = random_closed_net(seed);
        let ext = extract_ctmc(&net, 500).unwrap();
        assert!(
            ext.states.len() <= 70,
            "net {seed}: {} states",
            ext.states.len()
        );
        let chain = markov::Ctmc::from_rates(ext.states.len(), ext.rates.iter().copied()).unwrap();
        assert!(
            chain.try_steady_state_gth().is_some(),
            "net {seed} is reducible"
        );
        sizes.insert(net.num_places());
        totals.insert(total);
    }
    assert!(sizes.len() >= 3, "place counts {sizes:?}");
    assert!(totals.len() >= 3, "token totals {totals:?}");
}
