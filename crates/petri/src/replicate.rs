//! Parallel independent replications.
//!
//! Simulation of one trajectory is inherently sequential, so the honest
//! parallelism for this workload is *across* independent replications (and,
//! one level up, across parameter-sweep points — see `wsn::sweep`). Both
//! levels are scheduled by the shared [`sim_core`] executor, which
//! flattens the `(point × replication)` grid into one work-stealing task
//! stream; this module is the replication-level entry point over a single
//! simulator.
//!
//! These entry points take closures over a **borrowed** `&Simulator`, so
//! they always run on the executor's in-process backend (a closure cannot
//! cross the process boundary). Experiment drivers that describe their
//! tasks as data instead — `sim_core::PortableJob` — run the identical
//! schedule on any plugged-in backend, multi-process ones included, with
//! byte-identical results; see `wsn::experiments::jobs`.

use crate::error::SimError;
use crate::sim::Simulator;
use crate::stats::{ConfidenceInterval, ConfidenceLevel, Welford};
use sim_core::{Runner, StoppingRule};

/// Aggregated results of `n` independent replications.
#[derive(Debug, Clone)]
pub struct ReplicationSummary {
    /// Per-reward statistics across replications (same order as the
    /// simulator's rewards).
    pub rewards: Vec<Welford>,
    /// Number of successful replications.
    pub replications: u64,
}

impl ReplicationSummary {
    /// Mean of reward `i` across replications.
    pub fn mean(&self, i: usize) -> f64 {
        self.rewards[i].mean()
    }

    /// Confidence interval of reward `i`.
    pub fn ci(&self, i: usize, level: ConfidenceLevel) -> ConfidenceInterval {
        self.rewards[i].confidence_interval(level)
    }
}

/// Run `replications` independent simulations sequentially.
///
/// Replication `i` uses seed `SimRng::child_seed(base_seed, i)`, so results
/// are identical to [`run_replications_parallel`] with any thread count.
pub fn run_replications(
    sim: &Simulator<'_>,
    base_seed: u64,
    replications: u64,
) -> Result<ReplicationSummary, SimError> {
    let num_rewards = sim.reward_count();
    let mut rewards = vec![Welford::new(); num_rewards];
    for i in 0..replications {
        let seed = crate::rng::SimRng::child_seed(base_seed, i);
        let out = sim.run(seed)?;
        for (w, &x) in rewards.iter_mut().zip(out.rewards.iter()) {
            w.push(x);
        }
    }
    Ok(ReplicationSummary {
        rewards,
        replications,
    })
}

/// Run `replications` independent simulations across `threads` worker
/// threads (scoped; no detached work).
///
/// Workers claim replication indices from the shared [`sim_core`]
/// executor, so load balances even when trajectories differ wildly in
/// event count. Per-replication outputs are folded into the summary in
/// replication-index order, so the result is **bit-identical** to
/// [`run_replications`] — same bits at 1, 2 or 128 threads.
pub fn run_replications_parallel(
    sim: &Simulator<'_>,
    base_seed: u64,
    replications: u64,
    threads: usize,
) -> Result<ReplicationSummary, SimError> {
    let per_point = Runner::new(threads).try_grid(&[replications], |_point, i| {
        let seed = crate::rng::SimRng::child_seed(base_seed, i);
        sim.run(seed).map(|out| out.rewards)
    })?;
    let mut rewards = vec![Welford::new(); sim.reward_count()];
    let [outputs] = <[_; 1]>::try_from(per_point).expect("one point scheduled");
    for out in outputs {
        for (w, x) in rewards.iter_mut().zip(out) {
            w.push(x);
        }
    }
    Ok(ReplicationSummary {
        rewards,
        replications,
    })
}

/// Result of [`run_replications_adaptive`]: a summary plus how the
/// stopping rule fared.
#[derive(Debug, Clone)]
pub struct AdaptiveSummary {
    /// The aggregated rewards (exactly as if `summary.replications`
    /// replications had been requested up front).
    pub summary: ReplicationSummary,
    /// Whether the watched rewards settled within the budget.
    pub converged: bool,
}

/// Run replications until the Student-t confidence interval of the watched
/// rewards satisfies `rule` (the paper's "until steady state probability
/// values were obtained", made precise and budget-aware).
///
/// `watch` lists reward indices the rule tests (empty = all rewards).
/// Replication `i` uses seed `SimRng::child_seed(base_seed, i)` and results
/// fold in index order, so the outcome — including the number of
/// replications run — is bit-identical at any thread count.
pub fn run_replications_adaptive(
    sim: &Simulator<'_>,
    base_seed: u64,
    rule: &StoppingRule,
    watch: &[usize],
    threads: usize,
) -> Result<AdaptiveSummary, SimError> {
    let points = Runner::new(threads).run_adaptive(1, rule, watch, |_point, i| {
        let seed = crate::rng::SimRng::child_seed(base_seed, i);
        sim.run(seed).map(|out| out.rewards)
    })?;
    let [point] = <[_; 1]>::try_from(points).expect("one point scheduled");
    let rewards = if point.stats.is_empty() {
        vec![Welford::new(); sim.reward_count()]
    } else {
        point.stats
    };
    Ok(AdaptiveSummary {
        summary: ReplicationSummary {
            rewards,
            replications: point.replications,
        },
        converged: point.converged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetBuilder;
    use crate::sim::SimConfig;
    use crate::timing::Timing;

    fn mm1_sim(net: &crate::net::Net) -> (Simulator<'_>, crate::sim::RewardId) {
        let mut sim = Simulator::new(net, SimConfig::for_horizon(2000.0).with_warmup(100.0));
        let q = net.place_by_name("q").unwrap();
        let r = sim.reward_place(q);
        (sim, r)
    }

    fn mm1_net() -> crate::net::Net {
        let mut b = NetBuilder::new("mm1");
        let q = b.place("q").build();
        b.transition("arrive", Timing::exponential(1.0))
            .output(q, 1)
            .build();
        b.transition("serve", Timing::exponential(2.0))
            .input(q, 1)
            .build();
        let _ = q;
        b.build().unwrap()
    }

    #[test]
    fn sequential_replications_estimate_mm1() {
        let net = mm1_net();
        let (sim, r) = mm1_sim(&net);
        let summary = run_replications(&sim, 7, 16).unwrap();
        assert_eq!(summary.replications, 16);
        let mean = summary.mean(r.index());
        assert!((mean - 1.0).abs() < 0.15, "E[N]={mean}");
        let ci = summary.ci(r.index(), ConfidenceLevel::P95);
        assert!(ci.contains(mean));
        assert!(ci.half_width < 0.2);
    }

    #[test]
    fn parallel_bit_identical_to_sequential() {
        let net = mm1_net();
        let (sim, r) = mm1_sim(&net);
        let seq = run_replications(&sim, 11, 12).unwrap();
        for threads in [1, 2, 4, 8] {
            let par = run_replications_parallel(&sim, 11, 12, threads).unwrap();
            // Same seeds, same per-replication outputs, same fold order:
            // the merged moments are the same bits at any thread count.
            assert_eq!(seq.replications, par.replications);
            assert_eq!(seq.rewards[r.index()], par.rewards[r.index()]);
        }
    }

    #[test]
    fn errors_propagate_from_workers() {
        // Unbounded net trips TokenOverflow inside workers.
        let mut b = NetBuilder::new("boom");
        let q = b.place("q").build();
        b.transition("gen", Timing::deterministic(0.001))
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        let mut cfg = SimConfig::for_horizon(1e9);
        cfg.max_tokens_per_place = 100;
        let sim = Simulator::new(&net, cfg);
        assert!(run_replications_parallel(&sim, 1, 8, 4).is_err());
    }

    #[test]
    fn adaptive_settles_and_matches_fixed_count() {
        let net = mm1_net();
        let (sim, r) = mm1_sim(&net);
        let rule = StoppingRule::relative(0.2).with_budget(4, 64, 4);
        let a = run_replications_adaptive(&sim, 7, &rule, &[r.index()], 4).unwrap();
        assert!(a.converged, "mm1 mean must settle within 64 replications");
        assert!(a.summary.replications >= 4);
        // Exactly reproducible by asking for that count up front.
        let fixed = run_replications(&sim, 7, a.summary.replications).unwrap();
        assert_eq!(a.summary.rewards[r.index()], fixed.rewards[r.index()]);
        // And independent of thread count, replication budget included.
        let b = run_replications_adaptive(&sim, 7, &rule, &[r.index()], 1).unwrap();
        assert_eq!(a.summary.replications, b.summary.replications);
        assert_eq!(a.summary.rewards[r.index()], b.summary.rewards[r.index()]);
    }

    #[test]
    fn adaptive_budget_exhaustion_reports_unconverged() {
        let net = mm1_net();
        let (sim, _r) = mm1_sim(&net);
        let rule = StoppingRule::relative(1e-9).with_budget(2, 6, 2);
        let a = run_replications_adaptive(&sim, 3, &rule, &[], 2).unwrap();
        assert!(!a.converged);
        assert_eq!(a.summary.replications, 6);
    }
}
