//! The sensor-node SCPNs of the paper's Figs. 12 (closed workload) and 13
//! (open workload), with Table XI/XII parameters.
//!
//! Reconstruction notes (see DESIGN.md §5):
//!
//! * The stage chain `Wait → Receiving(3 phases) → Computation →
//!   Transmitting(3 phases) → Wait` is modeled with one place per phase;
//!   the radio's power state is a *function of the stage* (sleeping in
//!   `Wait`, starting in `RxStart`/`TxStart`, active through listening /
//!   packet transfer / packet handling, idle during computation), measured
//!   with predicate rewards rather than a separate radio token — exactly
//!   the simplification TimeNET global guards exist for.
//! * The CPU is the Fig. 3 component with colored jobs: communication
//!   handlers carry the `Comm` DVS color (Table XI's `DVS_3` local guard),
//!   computation jobs carry their own color. `DVS_Delay` (0.05 s mode
//!   switch) is folded into each deterministic service transition — two
//!   deterministic delays in sequence with no escape are equivalent to
//!   their sum.
//! * Stage-advance transitions use Table XI's guard
//!   `(#Buffer == 0) && (#Idle > 0)` (the CPU finished the stage's job).
//! * `Power_Down_Threshold` is defined **last**, so at an exact
//!   firing-time tie a job-delivering transition wins — this is why the
//!   optimum sits *at* `PDT = 0.00177 s`, not just above it.

use crate::warm::Warm;
use des::{NodeSimParams, Workload};
use energy::{ComponentBreakdown, ComponentPower, NodeBreakdown, Power};
use petri_core::prelude::*;
use std::sync::Arc;

/// Job color of communication-handling jobs (selects `DVS_3` by default).
pub const COMM_JOB: Color = Color(3);
/// Job color of computation jobs.
pub const COMP_JOB: Color = Color(4);

/// Place handles of the node SCPN.
#[derive(Debug, Clone, Copy)]
pub struct NodePlaces {
    /// System waiting for an event (radio asleep).
    pub wait: PlaceId,
    /// Radio starting up for reception.
    pub rx_start: PlaceId,
    /// Radio listening for a channel slot (RX).
    pub rx_listen: PlaceId,
    /// Packet being received.
    pub rx_data: PlaceId,
    /// CPU checking the received packet (radio still active).
    pub rx_handle: PlaceId,
    /// Computation stage (radio idle).
    pub comp_handle: PlaceId,
    /// Radio starting up for transmission.
    pub tx_start: PlaceId,
    /// Radio listening for a channel slot (TX).
    pub tx_listen: PlaceId,
    /// Packet being transmitted.
    pub tx_data: PlaceId,
    /// CPU handling transmit completion (radio still active).
    pub tx_handle: PlaceId,
    /// CPU job queue (colored).
    pub buffer: PlaceId,
    /// CPU asleep.
    pub cpu_sleep: PlaceId,
    /// CPU powering up.
    pub cpu_wake: PlaceId,
    /// CPU idle.
    pub cpu_idle: PlaceId,
    /// CPU active.
    pub cpu_active: PlaceId,
    /// Open model only: generator home place (`P2` in Fig. 13).
    pub p2: Option<PlaceId>,
    /// Open model only: queued events (`Event_Arrival`).
    pub event_arrival: Option<PlaceId>,
}

/// Transition handles needed by the reward/energy pipeline.
#[derive(Debug, Clone, Copy)]
pub struct NodeTransitions {
    /// Workload source: closed `T0` or open `T_start`.
    pub cycle_start: TransitionId,
    /// `Wait_Begin`-analog: cycle completion (TxHandle → Wait).
    pub cycle_done: TransitionId,
    /// CPU sleep→wake (`T1`-analog); firings = CPU wake-ups.
    pub cpu_wakeup: TransitionId,
    /// Computation→TX transition; its firings count the radio's second
    /// wake-up per cycle.
    pub comp_done: TransitionId,
}

/// A built node model.
#[derive(Debug)]
pub struct NodeModel {
    /// The SCPN.
    pub net: Net,
    /// Place handles.
    pub places: NodePlaces,
    /// Transition handles.
    pub transitions: NodeTransitions,
}

/// Build the Fig. 12 (closed) or Fig. 13 (open) SCPN for the given
/// parameters.
pub fn build_node_model(params: &NodeSimParams) -> NodeModel {
    assert!(
        (1..=3).contains(&params.comm_dvs_level) && (1..=3).contains(&params.comp_dvs_level),
        "DVS levels are 1..=3"
    );
    assert!(
        params.power_down_threshold >= 0.0,
        "threshold must be non-negative"
    );
    let name = match params.workload {
        Workload::Closed { .. } => "fig12-node-closed",
        Workload::Open { .. } => "fig13-node-open",
    };
    let mut b = NetBuilder::new(name);

    // --- places ---
    let wait = b.place("Wait").tokens(1).build();
    let rx_start = b.place("RxStart").build();
    let rx_listen = b.place("RxListen").build();
    let rx_data = b.place("RxData").build();
    let rx_handle = b.place("RxHandle").build();
    let comp_handle = b.place("CompHandle").build();
    let tx_start = b.place("TxStart").build();
    let tx_listen = b.place("TxListen").build();
    let tx_data = b.place("TxData").build();
    let tx_handle = b.place("TxHandle").build();
    let buffer = b.place("Buffer").build();
    let cpu_sleep = b.place("Cpu_Sleep").tokens(1).build();
    let cpu_wake = b.place("Cpu_Wake").build();
    let cpu_idle = b.place("Cpu_Idle").build();
    let cpu_active = b.place("Cpu_Active").build();

    let (p2, event_arrival) = match params.workload {
        Workload::Closed { .. } => (None, None),
        Workload::Open { .. } => (
            Some(b.place("P2").tokens(1).build()),
            Some(b.place("Event_Arrival").build()),
        ),
    };

    // The stage-advance guard of Table XI: the CPU finished the stage's job.
    let cpu_done = || {
        Expr::count(buffer)
            .eq_c(0)
            .and(Expr::count(cpu_idle).gt_c(0))
    };

    // --- workload generator ---
    let cycle_start = match params.workload {
        Workload::Closed { interval } => b
            .transition("T0", Timing::deterministic(interval))
            .input(wait, 1)
            .output(rx_start, 1)
            .build(),
        Workload::Open { rate } => {
            let p2 = p2.expect("open places");
            let ev = event_arrival.expect("open places");
            b.transition("T0_open", Timing::exponential(rate))
                .input(p2, 1)
                .output(p2, 1)
                .output(ev, 1)
                .build();
            b.transition("T_start", Timing::immediate_pri(1))
                .input(wait, 1)
                .input(ev, 1)
                .output(rx_start, 1)
                .build()
        }
    };

    // --- receiving stage ---
    b.transition(
        "RadioStartUpDelay_R",
        Timing::deterministic(params.radio_startup),
    )
    .input(rx_start, 1)
    .output(rx_listen, 1)
    .build();
    b.transition(
        "Channel_Listening_R",
        Timing::deterministic(params.channel_listen),
    )
    .input(rx_listen, 1)
    .output(rx_data, 1)
    .build();
    b.transition(
        "Transmitting_Receiving_R",
        Timing::deterministic(params.tx_rx_time),
    )
    .input(rx_data, 1)
    .output(rx_handle, 1)
    .output_colored(
        buffer,
        1,
        ColorExpr::Const(Color(params.comm_dvs_level as u32)),
    )
    .build();
    // T17: packet checked -> computation begins (deposits the computation
    // job).
    b.transition("T17", Timing::immediate_pri(1))
        .input(rx_handle, 1)
        .output(comp_handle, 1)
        .output_colored(buffer, 1, ColorExpr::Const(COMP_JOB))
        .guard(cpu_done())
        .build();

    // --- computation -> transmit stage ---
    let comp_done = b
        .transition("T19", Timing::immediate_pri(1))
        .input(comp_handle, 1)
        .output(tx_start, 1)
        .guard(cpu_done())
        .build();
    b.transition(
        "RadioStartUpDelay_T",
        Timing::deterministic(params.radio_startup),
    )
    .input(tx_start, 1)
    .output(tx_listen, 1)
    .build();
    b.transition(
        "Channel_Listening_T",
        Timing::deterministic(params.channel_listen),
    )
    .input(tx_listen, 1)
    .output(tx_data, 1)
    .build();
    b.transition(
        "Transmitting_Receiving_T",
        Timing::deterministic(params.tx_rx_time),
    )
    .input(tx_data, 1)
    .output(tx_handle, 1)
    .output_colored(
        buffer,
        1,
        ColorExpr::Const(Color(params.comm_dvs_level as u32)),
    )
    .build();
    let cycle_done = b
        .transition("Wait_Begin", Timing::immediate_pri(1))
        .input(tx_handle, 1)
        .output(wait, 1)
        .guard(cpu_done())
        .build();

    // --- CPU component (Fig. 3 embedded, colored service) ---
    let cpu_wakeup = b
        .transition("Cpu_T1", Timing::immediate_pri(4))
        .input(cpu_sleep, 1)
        .output(cpu_wake, 1)
        .guard(Expr::count(buffer).gt_c(0))
        .build();
    b.transition(
        "Power_Up_Delay",
        Timing::deterministic(params.cpu_power_up_delay),
    )
    .input(cpu_wake, 1)
    .output(cpu_idle, 1)
    .build();
    b.transition("Cpu_T5", Timing::immediate_pri(2))
        .input(cpu_idle, 1)
        .output(cpu_active, 1)
        .guard(Expr::count(buffer).gt_c(0))
        .build();
    b.transition("Cpu_T6", Timing::immediate_pri(3))
        .input(cpu_active, 1)
        .output(cpu_idle, 1)
        .guard(Expr::count(buffer).eq_c(0))
        .build();

    // DVS service transitions: local color guards select the level
    // (Table XI's DVS_1/DVS_2/DVS_3); DVS_Delay is folded in.
    for (level, name) in [(1u32, "DVS_1"), (2, "DVS_2"), (3, "DVS_3")] {
        let dur = params.dvs_overhead + params.dvs_levels[(level - 1) as usize];
        b.transition(name, Timing::deterministic(dur))
            .input(cpu_active, 1)
            .input_filtered(buffer, 1, ColorFilter::Eq(Color(level)))
            .output(cpu_active, 1)
            .build();
    }
    let comp_dur = params.dvs_overhead
        + params.dvs_levels[(params.comp_dvs_level - 1) as usize]
        + params.tasks_per_job as f64 * params.task_delay_per_job;
    b.transition("Task_Delay_Per_Job", Timing::deterministic(comp_dur))
        .input(cpu_active, 1)
        .input_filtered(buffer, 1, ColorFilter::Eq(COMP_JOB))
        .output(cpu_active, 1)
        .build();

    // Defined last: loses exact firing-time ties against every
    // job-delivering transition above.
    b.transition(
        "Power_Down_Threshold",
        Timing::deterministic(params.power_down_threshold),
    )
    .input(cpu_idle, 1)
    .output(cpu_sleep, 1)
    .memory(MemoryPolicy::RaceEnable)
    .build();

    let net = b.build().expect("node net is statically valid");
    NodeModel {
        net,
        places: NodePlaces {
            wait,
            rx_start,
            rx_listen,
            rx_data,
            rx_handle,
            comp_handle,
            tx_start,
            tx_listen,
            tx_data,
            tx_handle,
            buffer,
            cpu_sleep,
            cpu_wake,
            cpu_idle,
            cpu_active,
            p2,
            event_arrival,
        },
        transitions: NodeTransitions {
            cycle_start,
            cycle_done,
            cpu_wakeup,
            comp_done,
        },
    }
}

/// Steady-state estimates from simulating the node SCPN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodePetriResult {
    /// CPU `[sleep, wakeup, idle, active]` time fractions.
    pub cpu_probabilities: [f64; 4],
    /// Radio `[sleep, wakeup, idle, active]` time fractions.
    pub radio_probabilities: [f64; 4],
    /// CPU sleep→wake transitions over the horizon.
    pub cpu_wakeups: f64,
    /// Radio sleep/idle→starting transitions over the horizon.
    pub radio_wakeups: f64,
    /// Completed event cycles.
    pub cycles_completed: f64,
    /// The simulated horizon (s).
    pub horizon: f64,
}

impl NodePetriResult {
    /// Energy breakdown (Fig. 14/15 series) under the given power tables.
    pub fn breakdown(
        &self,
        cpu_power: &ComponentPower,
        radio_power: &ComponentPower,
    ) -> NodeBreakdown {
        let comp = |probs: [f64; 4], table: &ComponentPower| {
            let [s, w, i, a] = probs;
            let t = self.horizon;
            ComponentBreakdown {
                sleep: table.sleep.over_seconds(s * t),
                wakeup: table.wakeup.over_seconds(w * t),
                idle: table.idle.over_seconds(i * t),
                active: table.active.over_seconds(a * t),
            }
        };
        NodeBreakdown {
            cpu: comp(self.cpu_probabilities, cpu_power),
            radio: comp(self.radio_probabilities, radio_power),
        }
    }

    /// Average node power under the given tables.
    pub fn average_power(&self, cpu_power: &ComponentPower, radio_power: &ComponentPower) -> Power {
        let [cs, cw, ci, ca] = self.cpu_probabilities;
        let [rs, rw, ri, ra] = self.radio_probabilities;
        cpu_power.average(cs, cw, ci, ca) + radio_power.average(rs, rw, ri, ra)
    }
}

/// Reward ids of the Fig. 14/15 measures on one simulator, from
/// [`NodeModel::register_rewards`].
#[derive(Debug, Clone, Copy)]
pub struct NodeRewards {
    /// CPU `[sleep, wakeup, idle, active]` place averages.
    cpu: [RewardId; 4],
    /// Radio `[sleep, wakeup, idle, active]` stage predicates.
    radio: [RewardId; 4],
    cpu_wakeups: RewardId,
    cycles_started: RewardId,
    comp_done: RewardId,
    cycles_done: RewardId,
}

impl NodeModel {
    /// Register every Fig. 14/15 measure on `sim` (a simulator of this
    /// model's net): the four CPU state places, the four radio state
    /// predicates over the stage places, and the wake-up and cycle
    /// counters.
    pub fn register_rewards(&self, sim: &mut Simulator<'_>) -> NodeRewards {
        register(&self.places, &self.transitions, sim)
    }
}

/// [`NodeModel::register_rewards`] on the handles of a model.
fn register(p: &NodePlaces, t: &NodeTransitions, sim: &mut Simulator<'_>) -> NodeRewards {
    // CPU state fractions: one token-average per power-state place.
    let cpu = [p.cpu_sleep, p.cpu_wake, p.cpu_idle, p.cpu_active].map(|q| sim.reward_place(q));

    // Radio state fractions: predicates over the stage places.
    let r_radio_sleep = sim
        .reward_predicate(Expr::count(p.wait).gt_c(0))
        .expect("valid predicate");
    let r_radio_wake = sim
        .reward_predicate(
            Expr::count(p.rx_start)
                .gt_c(0)
                .or(Expr::count(p.tx_start).gt_c(0)),
        )
        .expect("valid predicate");
    let active_expr = Expr::count(p.rx_listen)
        .add(Expr::count(p.rx_data))
        .add(Expr::count(p.rx_handle))
        .add(Expr::count(p.tx_listen))
        .add(Expr::count(p.tx_data))
        .add(Expr::count(p.tx_handle))
        .gt_c(0);
    let r_radio_active = sim.reward_predicate(active_expr).expect("valid predicate");
    let r_radio_idle = sim
        .reward_predicate(Expr::count(p.comp_handle).gt_c(0))
        .expect("valid predicate");

    NodeRewards {
        cpu,
        radio: [r_radio_sleep, r_radio_wake, r_radio_idle, r_radio_active],
        cpu_wakeups: sim.reward_firings(t.cpu_wakeup),
        cycles_started: sim.reward_firings(t.cycle_start),
        comp_done: sim.reward_firings(t.comp_done),
        cycles_done: sim.reward_firings(t.cycle_done),
    }
}

impl NodeRewards {
    /// Read the measures out of one run over `horizon` seconds.
    pub fn result(&self, out: &SimOutput, horizon: f64) -> NodePetriResult {
        NodePetriResult {
            cpu_probabilities: self.cpu.map(|r| out.reward(r)),
            radio_probabilities: self.radio.map(|r| out.reward(r)),
            cpu_wakeups: out.reward(self.cpu_wakeups),
            radio_wakeups: out.reward(self.cycles_started) + out.reward(self.comp_done),
            cycles_completed: out.reward(self.cycles_done),
            horizon,
        }
    }
}

/// Simulate the node SCPN and collect all Fig. 14/15 measures, on the
/// process's warm simulator of this point (see [`crate::warm`]).
pub fn simulate_node_model(params: &NodeSimParams, seed: u64) -> NodePetriResult {
    run_node_model(Warm::process(), params, seed)
}

/// [`simulate_node_model`] on `warm`'s simulator of this point.
pub(crate) fn run_node_model(warm: &Warm, params: &NodeSimParams, seed: u64) -> NodePetriResult {
    let warm = warm.simulator(crate::warm::node_key(params), |records| {
        let NodeModel {
            net,
            places,
            transitions,
        } = build_node_model(params);
        let mut sim = Simulator::shared(Arc::new(net), SimConfig::for_horizon(params.horizon));
        sim.share_memo(records);
        let rewards = register(&places, &transitions, &mut sim);
        (sim, rewards)
    });
    let (sim, rewards) = &*warm;
    let out = sim.run(seed).expect("node net cannot livelock or overflow");
    rewards.result(&out, params.horizon)
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::{CC2420_RADIO, PXA271_CPU};
    use petri_core::analysis::p_invariants;

    fn closed(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, pdt)
    }

    fn open(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Open { rate: 1.0 }, pdt)
    }

    #[test]
    fn closed_net_shape() {
        let m = build_node_model(&closed(0.01));
        assert_eq!(m.net.num_places(), 15);
        assert!(m.net.transition_by_name("Power_Down_Threshold").is_some());
        assert!(m.net.transition_by_name("T0").is_some());
        assert!(m.net.transition_by_name("T_start").is_none());
    }

    #[test]
    fn open_net_shape() {
        let m = build_node_model(&open(0.01));
        assert_eq!(m.net.num_places(), 17);
        assert!(m.net.transition_by_name("T0_open").is_some());
        assert!(m.net.transition_by_name("T_start").is_some());
    }

    #[test]
    fn stage_and_cpu_invariants_hold() {
        let m = build_node_model(&closed(0.01));
        let invs = p_invariants(&m.net);
        // Stage chain conservation: exactly one stage token.
        let stage_places = [
            m.places.wait.index(),
            m.places.rx_start.index(),
            m.places.rx_listen.index(),
            m.places.rx_data.index(),
            m.places.rx_handle.index(),
            m.places.comp_handle.index(),
            m.places.tx_start.index(),
            m.places.tx_listen.index(),
            m.places.tx_data.index(),
            m.places.tx_handle.index(),
        ];
        assert!(
            invs.iter().any(|inv| {
                let sup = inv.support();
                stage_places.iter().all(|p| sup.contains(p))
                    && !sup.contains(&m.places.buffer.index())
            }),
            "stage-token invariant missing: {invs:?}"
        );
        // CPU power-state conservation.
        let cpu_places = [
            m.places.cpu_sleep.index(),
            m.places.cpu_wake.index(),
            m.places.cpu_idle.index(),
            m.places.cpu_active.index(),
        ];
        assert!(
            invs.iter().any(|inv| {
                let sup = inv.support();
                cpu_places.iter().all(|p| sup.contains(p))
            }),
            "CPU-state invariant missing"
        );
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = simulate_node_model(&closed(0.01), 1);
        let cpu_total: f64 = r.cpu_probabilities.iter().sum();
        let radio_total: f64 = r.radio_probabilities.iter().sum();
        assert!((cpu_total - 1.0).abs() < 1e-9, "cpu={cpu_total}");
        assert!((radio_total - 1.0).abs() < 1e-9, "radio={radio_total}");
    }

    #[test]
    fn closed_model_matches_des_exactly_shaped() {
        // Both substrates implement the same deterministic closed model:
        // state fractions must agree tightly.
        for pdt in [1e-6, 0.00177, 0.01, 0.5, 100.0] {
            let petri = simulate_node_model(&closed(pdt), 1);
            let des_r = des::simulate_node(&closed(pdt), 1);
            let des_cpu = [
                des_r.cpu_times.fraction(energy::PowerState::Sleep),
                des_r.cpu_times.fraction(energy::PowerState::Wakeup),
                des_r.cpu_times.fraction(energy::PowerState::Idle),
                des_r.cpu_times.fraction(energy::PowerState::Active),
            ];
            for (i, (a, b)) in petri
                .cpu_probabilities
                .iter()
                .zip(des_cpu.iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 0.005,
                    "pdt={pdt} cpu state {i}: petri {a} vs des {b}"
                );
            }
            let des_radio = [
                des_r.radio_times.fraction(energy::PowerState::Sleep),
                des_r.radio_times.fraction(energy::PowerState::Wakeup),
                des_r.radio_times.fraction(energy::PowerState::Idle),
                des_r.radio_times.fraction(energy::PowerState::Active),
            ];
            for (i, (a, b)) in petri
                .radio_probabilities
                .iter()
                .zip(des_radio.iter())
                .enumerate()
            {
                assert!(
                    (a - b).abs() < 0.005,
                    "pdt={pdt} radio state {i}: petri {a} vs des {b}"
                );
            }
            assert!(
                (petri.cpu_wakeups - des_r.cpu_wakeups as f64).abs() <= 1.0,
                "pdt={pdt}: wakeups petri {} vs des {}",
                petri.cpu_wakeups,
                des_r.cpu_wakeups
            );
        }
    }

    #[test]
    fn tiny_pdt_two_wakeups_per_cycle() {
        let r = simulate_node_model(&closed(1e-6), 1);
        let per_cycle = r.cpu_wakeups / r.cycles_completed;
        assert!((per_cycle - 2.0).abs() < 0.05, "wakeups/cycle={per_cycle}");
    }

    #[test]
    fn boundary_pdt_one_wakeup_per_cycle() {
        // PDT exactly at the intra-cycle gap: deposit wins the tie.
        let r = simulate_node_model(&closed(0.00177), 1);
        let per_cycle = r.cpu_wakeups / r.cycles_completed;
        assert!((per_cycle - 1.0).abs() < 0.05, "wakeups/cycle={per_cycle}");
    }

    #[test]
    fn optimum_beats_extremes_closed() {
        let e = |pdt: f64| {
            simulate_node_model(&closed(pdt), 1)
                .breakdown(&PXA271_CPU, &CC2420_RADIO)
                .total()
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.00177);
        let never = e(1e4);
        assert!(optimum < immediate, "{optimum} !< {immediate}");
        assert!(optimum < never, "{optimum} !< {never}");
    }

    #[test]
    fn optimum_beats_extremes_open() {
        let e = |pdt: f64| {
            simulate_node_model(&open(pdt), 5)
                .breakdown(&PXA271_CPU, &CC2420_RADIO)
                .total()
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.01);
        let never = e(1e4);
        assert!(optimum < immediate, "{optimum} !< {immediate}");
        assert!(optimum < never, "{optimum} !< {never}");
    }

    #[test]
    fn open_model_close_to_des() {
        // Different RNG streams, so compare loosely over a long horizon.
        let mut params = open(0.01);
        params.horizon = 5000.0;
        let petri = simulate_node_model(&params, 21);
        let des_r = des::simulate_node(&params, 22);
        let des_cpu_sleep = des_r.cpu_times.fraction(energy::PowerState::Sleep);
        assert!(
            (petri.cpu_probabilities[0] - des_cpu_sleep).abs() < 0.03,
            "cpu sleep: petri {} vs des {}",
            petri.cpu_probabilities[0],
            des_cpu_sleep
        );
        let cycles_ratio = petri.cycles_completed / des_r.cycles_completed as f64;
        assert!(
            (cycles_ratio - 1.0).abs() < 0.05,
            "cycles ratio {cycles_ratio}"
        );
    }

    #[test]
    fn radio_wakes_twice_per_cycle() {
        let r = simulate_node_model(&closed(0.01), 1);
        let per_cycle = r.radio_wakeups / r.cycles_completed;
        assert!(
            (per_cycle - 2.0).abs() < 0.05,
            "radio wakeups/cycle={per_cycle}"
        );
    }

    #[test]
    fn breakdown_total_equals_average_power_times_horizon() {
        let r = simulate_node_model(&closed(0.05), 1);
        let b = r.breakdown(&PXA271_CPU, &CC2420_RADIO);
        let via_power = r
            .average_power(&PXA271_CPU, &CC2420_RADIO)
            .over_seconds(r.horizon);
        assert!((b.total().joules() - via_power.joules()).abs() < 1e-9);
    }
}
