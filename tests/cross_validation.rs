//! Cross-substrate oracle tests: the same system modeled three independent
//! ways (Petri net / discrete-event simulation / Markov theory) must agree.
//!
//! These are the load-bearing correctness tests of the whole reproduction:
//! each substrate was written separately, so agreement is evidence, not
//! tautology.

use wsn_petri::prelude::*;

/// Exponential-only Petri nets ARE CTMCs: the extracted chain's analytic
/// steady state must match long-run simulation.
#[test]
fn petri_simulation_matches_extracted_ctmc() {
    // A 3-place cyclic net with contention.
    let mut b = NetBuilder::new("ctmc-bridge");
    let p0 = b.place("a").tokens(2).build();
    let p1 = b.place("b").build();
    let p2 = b.place("c").build();
    b.transition("ab", Timing::exponential(2.0))
        .input(p0, 1)
        .output(p1, 1)
        .build();
    b.transition("bc", Timing::exponential(3.0))
        .input(p1, 1)
        .output(p2, 1)
        .build();
    b.transition("ca", Timing::exponential(1.5))
        .input(p2, 1)
        .output(p0, 1)
        .build();
    let net = b.build().unwrap();

    // Analytic: extract CTMC, solve with GTH, compute E[#tokens in a].
    let extraction = petri_core::analysis::extract_ctmc(&net, 1000).unwrap();
    let chain = markov::Ctmc::from_rates(extraction.states.len(), extraction.rates.iter().copied())
        .unwrap();
    let pi = chain.steady_state().unwrap();
    let expected_tokens_a: f64 = extraction
        .states
        .iter()
        .zip(pi.iter())
        .map(|(m, p)| m.count(p0) as f64 * p)
        .sum();

    // Simulation estimate.
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(50_000.0).with_warmup(500.0));
    let r = sim.reward_place(p0);
    let out = sim.run(97).unwrap();

    assert!(
        (out.reward(r) - expected_tokens_a).abs() < 0.02,
        "simulated {} vs analytic {}",
        out.reward(r),
        expected_tokens_a
    );
}

/// M/M/1 through three routes: closed form, CTMC truncation, Petri
/// simulation.
#[test]
fn mm1_three_ways() {
    let lambda = 1.0;
    let mu = 4.0;
    let closed_form = Mm1::new(lambda, mu).mean_in_system();

    // Truncated birth-death CTMC.
    let k = 60;
    let mut chain = Ctmc::new(k + 1);
    for i in 0..k {
        chain.add_rate(i, i + 1, lambda).unwrap();
        chain.add_rate(i + 1, i, mu).unwrap();
    }
    let pi = chain.steady_state().unwrap();
    let ctmc_mean: f64 = pi.iter().enumerate().map(|(i, p)| i as f64 * p).sum();

    // Petri simulation.
    let mut b = NetBuilder::new("mm1");
    let q = b.place("q").build();
    b.transition("arrive", Timing::exponential(lambda))
        .output(q, 1)
        .build();
    b.transition("serve", Timing::exponential(mu))
        .input(q, 1)
        .build();
    let net = b.build().unwrap();
    let mut sim = Simulator::new(&net, SimConfig::for_horizon(100_000.0).with_warmup(1000.0));
    let r = sim.reward_place(q);
    let out = sim.run(3).unwrap();

    assert!((closed_form - ctmc_mean).abs() < 1e-6);
    assert!(
        (out.reward(r) - closed_form).abs() < 0.03,
        "petri {} vs closed form {}",
        out.reward(r),
        closed_form
    );
}

/// The power-managed CPU: Petri net vs DES vs supplementary-variable
/// Markov at small Power-Up Delay (where the closed form is nearly exact).
#[test]
fn cpu_three_ways_small_pud() {
    let (t, d) = (0.3, 0.001);
    let markov_sol = CpuMarkovParams {
        lambda: 1.0,
        mu: 10.0,
        power_down_threshold: t,
        power_up_delay: d,
    }
    .solve();
    let markov_probs = [
        markov_sol.p_standby,
        markov_sol.p_powerup,
        markov_sol.p_idle,
        markov_sol.p_active,
    ];

    let mut des_params = CpuSimParams::paper_defaults(t, d);
    des_params.horizon = 30_000.0;
    let des_probs = simulate_cpu(&des_params, 5).probabilities();

    let petri_probs =
        simulate_cpu_model(&CpuModelParams::paper_defaults(t, d), 30_000.0, 6).probabilities;

    for i in 0..4 {
        assert!(
            (markov_probs[i] - des_probs[i]).abs() < 0.02,
            "state {i}: markov {} vs des {}",
            markov_probs[i],
            des_probs[i]
        );
        assert!(
            (petri_probs[i] - des_probs[i]).abs() < 0.02,
            "state {i}: petri {} vs des {}",
            petri_probs[i],
            des_probs[i]
        );
    }
}

/// The paper's central claim, as a falsifiable test: at Power-Up Delay
/// 10 s the Markov model's active-state estimate degrades by an order of
/// magnitude more than the Petri net's.
#[test]
fn markov_fails_at_large_pud_petri_does_not() {
    let (t, d) = (0.5, 10.0);
    let markov_sol = CpuMarkovParams {
        lambda: 1.0,
        mu: 10.0,
        power_down_threshold: t,
        power_up_delay: d,
    }
    .solve();

    let mut des_params = CpuSimParams::paper_defaults(t, d);
    des_params.horizon = 30_000.0;
    let des_probs = simulate_cpu(&des_params, 7).probabilities();
    let petri_probs =
        simulate_cpu_model(&CpuModelParams::paper_defaults(t, d), 30_000.0, 8).probabilities;

    let markov_err = (markov_sol.p_active - des_probs[3]).abs();
    let petri_err = (petri_probs[3] - des_probs[3]).abs();
    assert!(
        markov_err > 10.0 * petri_err,
        "markov err {markov_err} should dwarf petri err {petri_err}"
    );
}

/// Node model: Petri and DES agree on total energy across the threshold
/// grid (closed workload — both deterministic, so the match is tight).
#[test]
fn node_energy_petri_vs_des_across_grid() {
    for pdt in [1e-9, 0.0017, 0.00177, 0.01, 0.5, 1.00177, 10.0] {
        let params = NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, pdt);
        let petri = simulate_node_model(&params, 1)
            .breakdown(&PXA271_CPU, &CC2420_RADIO)
            .total()
            .joules();
        let des = simulate_node(&params, 1)
            .total_energy(&PXA271_CPU, &CC2420_RADIO)
            .joules();
        let rel = (petri - des).abs() / des;
        assert!(
            rel < 0.005,
            "pdt={pdt}: petri {petri} J vs des {des} J (rel {rel})"
        );
    }
}

/// Erlang-k phase chains converge to the DES truth as k grows — the
/// quantitative version of "deterministic timers are not Markovian".
#[test]
fn erlang_expansion_converges_to_des() {
    let rows = wsn::experiments::ablations::erlang_ablation(
        0.3,
        0.3,
        &[1, 32],
        11,
        &wsn_petri::sim_core::Runner::new(2),
    );
    assert!(rows[1].max_abs_error < rows[0].max_abs_error * 0.5);
    assert!(rows[1].max_abs_error < 0.05);
}

/// The simple node's simulated probabilities match renewal theory, and the
/// energy matches the paper's published Petri-net figure.
#[test]
fn simple_node_matches_renewal_theory_and_paper() {
    let params = SimpleNodeParams::default();
    let sim = simulate_simple_node(&params, 30_000.0, 13);
    let exact = analytic_probabilities(&params);
    assert!((sim.wait - exact.wait).abs() < 0.01);
    assert!((sim.computation - exact.computation).abs() < 0.01);
    let e = exact.energy(&IMOTE2_MEASURED, 266.5).joules();
    assert!((e - 0.326519).abs() < 0.005, "energy {e}");
}
