//! Discrete-event simulation of the full sensor node (radio + CPU +
//! workload generator).
//!
//! This is the independent cross-check for the SCPN node models of the
//! paper's Figs. 12 (closed workload) and 13 (open workload); the `wsn`
//! crate builds the same system as a colored Petri net, and the test suite
//! requires the two to agree.
//!
//! ## Cycle semantics (reconstructed; see DESIGN.md §5)
//!
//! One event triggers the stage chain
//! `Wait → Receiving → Computation → Transmitting → Wait`:
//!
//! * **Receiving** — radio start-up (0.000194 s) → channel listening
//!   (0.001 s) → packet reception (0.000576 s) → a *communication-handling*
//!   CPU job (DVS overhead + `DVS_3` service) that wakes the CPU if needed.
//!   The radio stays active until the CPU finishes the packet check, then
//!   idles (paper, Sec. VI-A).
//! * **Computation** — a CPU job (DVS overhead + `DVS_1`/`DVS_2` service +
//!   `TaskPerJob × Task_Delay_Per_Job`).
//! * **Transmitting** — same radio sequence as Receiving, then a
//!   communication-handling CPU job; the radio sleeps when the stage ends.
//!
//! The CPU's Power-Down Threshold timer runs whenever its buffer is empty;
//! the CPU-visible gap *inside* a cycle is
//! `0.000194 + 0.001 + 0.000576 = 0.00177 s` — exactly the optimal PDT the
//! paper reports for the closed model.

use crate::kernel::Clock;
use crate::rng::DesRng;
use energy::{
    ComponentBreakdown, ComponentPower, Energy, NodeBreakdown, PowerState, StateTimes, StateTracker,
};
use serde::{Deserialize, Serialize};

/// Workload generator kind.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Closed: the next event is generated a fixed interval after the
    /// system returns to `Wait` (Fig. 12, transition `T0` with guard
    /// `#Wait > 0`).
    Closed {
        /// Generator interval (s); the paper uses 1 s.
        interval: f64,
    },
    /// Open: events arrive in a Poisson stream regardless of system state
    /// (Fig. 13); closely spaced events queue and each still triggers a
    /// full cycle.
    Open {
        /// Arrival rate (events/s); the paper uses 1/s.
        rate: f64,
    },
}

/// Parameters of the node simulation (defaults = Table XI).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NodeSimParams {
    /// Workload generator.
    pub workload: Workload,
    /// Radio start-up delay (s): `RadioStartUpDelay_R = _T` = 0.000194.
    pub radio_startup: f64,
    /// Channel-listening time (s): 0.001.
    pub channel_listen: f64,
    /// Packet transmit/receive time (s): `Transmitting_Receiving` 0.000576.
    pub tx_rx_time: f64,
    /// CPU power-up delay (s): 0.253.
    pub cpu_power_up_delay: f64,
    /// CPU Power-Down Threshold (s) — the swept variable of Figs. 14/15.
    pub power_down_threshold: f64,
    /// DVS mode-switch overhead (s): `DVS_Delay` 0.05.
    pub dvs_overhead: f64,
    /// DVS service times (s) for levels 1..=3: `DVS_1` 0.03, `DVS_2` 0.01,
    /// `DVS_3` 0.081578.
    pub dvs_levels: [f64; 3],
    /// DVS level of communication-handling jobs (paper: `Comm == 3.0`).
    pub comm_dvs_level: u8,
    /// DVS level of computation jobs.
    pub comp_dvs_level: u8,
    /// Tasks per computation job (`TaskPerJob`).
    pub tasks_per_job: u32,
    /// Per-task service time (s): `Task_Delay_Per_Job` 1e-6.
    pub task_delay_per_job: f64,
    /// Simulated horizon (s); the paper evaluates 15 min = 900 s.
    pub horizon: f64,
}

impl NodeSimParams {
    /// Table XI parameters with the given workload and threshold.
    pub fn paper_defaults(workload: Workload, power_down_threshold: f64) -> Self {
        NodeSimParams {
            workload,
            radio_startup: 0.000194,
            channel_listen: 0.001,
            tx_rx_time: 0.000576,
            cpu_power_up_delay: 0.253,
            power_down_threshold,
            dvs_overhead: 0.05,
            dvs_levels: [0.03, 0.01, 0.081578],
            comm_dvs_level: 3,
            comp_dvs_level: 1,
            tasks_per_job: 1,
            task_delay_per_job: 1e-6,
            horizon: 900.0,
        }
    }

    /// The CPU-visible gap inside one cycle: radio start-up + listening +
    /// packet time. With Table XI values this is exactly 0.00177 s — the
    /// paper's optimal closed-model PDT.
    pub fn intra_cycle_gap(&self) -> f64 {
        self.radio_startup + self.channel_listen + self.tx_rx_time
    }

    fn comm_job_duration(&self) -> f64 {
        self.dvs_overhead + self.dvs_levels[(self.comm_dvs_level - 1) as usize]
    }

    fn comp_job_duration(&self) -> f64 {
        self.dvs_overhead
            + self.dvs_levels[(self.comp_dvs_level - 1) as usize]
            + self.tasks_per_job as f64 * self.task_delay_per_job
    }
}

/// Results of one node simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSimResult {
    /// CPU dwell times.
    pub cpu_times: StateTimes,
    /// CPU sleep→wake transitions.
    pub cpu_wakeups: u64,
    /// Radio dwell times.
    pub radio_times: StateTimes,
    /// Radio sleep→wake transitions.
    pub radio_wakeups: u64,
    /// Full event cycles completed.
    pub cycles_completed: u64,
    /// Events generated by the workload.
    pub events_generated: u64,
    /// Largest backlog of pending events (open workload only).
    pub max_pending: u64,
}

impl NodeSimResult {
    /// Energy breakdown under the given power tables — one x-position of
    /// Fig. 14/15.
    pub fn breakdown(
        &self,
        cpu_power: &ComponentPower,
        radio_power: &ComponentPower,
    ) -> NodeBreakdown {
        NodeBreakdown {
            cpu: ComponentBreakdown::from_times(&self.cpu_times, cpu_power),
            radio: ComponentBreakdown::from_times(&self.radio_times, radio_power),
        }
    }

    /// Total node energy under the given power tables.
    pub fn total_energy(&self, cpu_power: &ComponentPower, radio_power: &ComponentPower) -> Energy {
        self.breakdown(cpu_power, radio_power).total()
    }
}

/// System stage within one event cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Wait,
    RxStartup,
    RxListen,
    RxData,
    RxHandle,
    CompHandle,
    TxStartup,
    TxListen,
    TxData,
    TxHandle,
}

/// The CPU and its one pending event: the end of its wake-up, of its
/// service or of its idle threshold, by its power state (idle while it
/// sleeps).
struct Cpu {
    tracker: StateTracker,
    /// Duration of the job waking up or in service. The stage chain is
    /// sequential, so the CPU never holds more than one job.
    job: Option<f64>,
    clock: Clock,
    pdt: f64,
    pud: f64,
}

impl Cpu {
    /// Hand the CPU a job; wake or activate it as needed.
    fn push_job(&mut self, dur: f64, now: f64, seq: &mut u64) {
        self.job = Some(dur);
        match self.tracker.state() {
            PowerState::Sleep => {
                self.tracker.transition_to(PowerState::Wakeup, now);
                self.clock = Clock::after(now, self.pud, 0, seq);
            }
            // Replaces the pending power-down with service.
            PowerState::Idle => self.start(dur, now, seq),
            // A waking or active CPU holds its one job already.
            PowerState::Wakeup | PowerState::Active => {
                unreachable!("a job handed to a CPU that holds one")
            }
        }
    }

    fn start(&mut self, dur: f64, now: f64, seq: &mut u64) {
        self.tracker.transition_to(PowerState::Active, now);
        self.clock = Clock::after(now, dur, 0, seq);
    }

    /// The CPU clock fired. Returns true if a job finished (the caller
    /// advances the system stage).
    fn fire(&mut self, now: f64, seq: &mut u64) -> bool {
        match self.tracker.state() {
            PowerState::Wakeup => {
                let dur = self.job.expect("a wake-up starts with a job");
                self.start(dur, now, seq);
                false
            }
            PowerState::Active => {
                self.job = None;
                self.tracker.transition_to(PowerState::Idle, now);
                // Priority 1: the power-down timer loses exact ties against
                // work-delivering events, so `PDT == gap` keeps the CPU
                // awake (the boundary the paper's optimum sits on).
                self.clock = Clock::after(now, self.pdt, 1, seq);
                true
            }
            PowerState::Idle => {
                self.tracker.transition_to(PowerState::Sleep, now);
                self.clock = Clock::IDLE;
                false
            }
            PowerState::Sleep => unreachable!("the CPU clock is idle while asleep"),
        }
    }
}

/// Which clock fires next.
enum Source {
    Workload,
    Radio,
    Cpu,
}

/// Run the node simulation for the given seed (only the open workload is
/// stochastic; the closed model is deterministic, and the seed is unused).
pub fn simulate_node(params: &NodeSimParams, seed: u64) -> NodeSimResult {
    assert!(params.horizon > 0.0, "horizon must be positive");
    assert!(
        (1..=3).contains(&params.comm_dvs_level) && (1..=3).contains(&params.comp_dvs_level),
        "DVS levels are 1..=3"
    );
    assert!(
        params.power_down_threshold >= 0.0,
        "threshold must be non-negative"
    );

    let mut rng = DesRng::seed_from_u64(seed);
    let mut seq = 0;
    let mut cpu = Cpu {
        tracker: StateTracker::new(PowerState::Sleep, 0.0),
        job: None,
        clock: Clock::IDLE,
        pdt: params.power_down_threshold,
        pud: params.cpu_power_up_delay,
    };
    let mut radio = StateTracker::new(PowerState::Sleep, 0.0);
    let mut stage = Stage::Wait;
    let mut pending: u64 = 0;
    let mut max_pending: u64 = 0;
    let mut cycles: u64 = 0;
    let mut events: u64 = 0;

    // The workload generator's next event (closed: the generator firing;
    // open: the next Poisson arrival) and the end of the current radio
    // phase (start-up, listening or data).
    let mut workload = match params.workload {
        Workload::Closed { interval } => Clock::after(0.0, interval, 0, &mut seq),
        Workload::Open { rate } => Clock::after(0.0, rng.exp(rate), 0, &mut seq),
    };
    let mut radio_phase = Clock::IDLE;

    // Local helper: begin a cycle (system leaves Wait).
    fn begin_cycle(
        stage: &mut Stage,
        radio: &mut StateTracker,
        params: &NodeSimParams,
        now: f64,
        seq: &mut u64,
    ) -> Clock {
        debug_assert_eq!(*stage, Stage::Wait);
        *stage = Stage::RxStartup;
        radio.transition_to(PowerState::Wakeup, now);
        Clock::after(now, params.radio_startup, 0, seq)
    }

    loop {
        let (mut source, mut next) = (Source::Workload, workload);
        if radio_phase.precedes(&next) {
            (source, next) = (Source::Radio, radio_phase);
        }
        if cpu.clock.precedes(&next) {
            (source, next) = (Source::Cpu, cpu.clock);
        }
        let now = next.time();
        if now >= params.horizon {
            break;
        }
        match source {
            Source::Workload => {
                events += 1;
                workload = match params.workload {
                    // The closed generator rearms when the cycle ends.
                    Workload::Closed { .. } => Clock::IDLE,
                    Workload::Open { rate } => Clock::after(now, rng.exp(rate), 0, &mut seq),
                };
                if stage == Stage::Wait {
                    radio_phase = begin_cycle(&mut stage, &mut radio, params, now, &mut seq);
                } else {
                    // Only an open arrival finds the system busy.
                    pending += 1;
                    max_pending = max_pending.max(pending);
                }
            }
            Source::Radio => match stage {
                Stage::RxStartup | Stage::TxStartup => {
                    // Radio is up: start channel listening.
                    radio.transition_to(PowerState::Active, now);
                    stage = if stage == Stage::RxStartup {
                        Stage::RxListen
                    } else {
                        Stage::TxListen
                    };
                    radio_phase = Clock::after(now, params.channel_listen, 0, &mut seq);
                }
                Stage::RxListen | Stage::TxListen => {
                    stage = if stage == Stage::RxListen {
                        Stage::RxData
                    } else {
                        Stage::TxData
                    };
                    radio_phase = Clock::after(now, params.tx_rx_time, 0, &mut seq);
                }
                Stage::RxData | Stage::TxData => {
                    // Packet done: hand to the CPU; radio stays active until
                    // the handler completes (Sec. VI-A).
                    radio_phase = Clock::IDLE;
                    stage = if stage == Stage::RxData {
                        Stage::RxHandle
                    } else {
                        Stage::TxHandle
                    };
                    cpu.push_job(params.comm_job_duration(), now, &mut seq);
                }
                _ => unreachable!("radio phase completion in stage {stage:?}"),
            },
            Source::Cpu => {
                if !cpu.fire(now, &mut seq) {
                    continue;
                }
                match stage {
                    Stage::RxHandle => {
                        // Packet checked: radio idles; computation begins.
                        radio.transition_to(PowerState::Idle, now);
                        stage = Stage::CompHandle;
                        cpu.push_job(params.comp_job_duration(), now, &mut seq);
                    }
                    Stage::CompHandle => {
                        // Results ready: wake the radio to transmit.
                        stage = Stage::TxStartup;
                        radio.transition_to(PowerState::Wakeup, now);
                        radio_phase = Clock::after(now, params.radio_startup, 0, &mut seq);
                    }
                    Stage::TxHandle => {
                        // Cycle complete: radio sleeps, system waits.
                        radio.transition_to(PowerState::Sleep, now);
                        stage = Stage::Wait;
                        cycles += 1;
                        match params.workload {
                            Workload::Closed { interval } => {
                                workload = Clock::after(now, interval, 0, &mut seq);
                            }
                            Workload::Open { .. } => {
                                if pending > 0 {
                                    pending -= 1;
                                    radio_phase =
                                        begin_cycle(&mut stage, &mut radio, params, now, &mut seq);
                                }
                            }
                        }
                    }
                    _ => unreachable!("CPU completion in stage {stage:?}"),
                }
            }
        }
    }

    let (cpu_times, cpu_wakeups) = cpu.tracker.finish(params.horizon);
    let (radio_times, radio_wakeups) = radio.finish(params.horizon);
    NodeSimResult {
        cpu_times,
        cpu_wakeups,
        radio_times,
        radio_wakeups,
        cycles_completed: cycles,
        events_generated: events,
        max_pending,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use energy::{CC2420_RADIO, PXA271_CPU};

    fn closed(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Closed { interval: 1.0 }, pdt)
    }

    fn open(pdt: f64) -> NodeSimParams {
        NodeSimParams::paper_defaults(Workload::Open { rate: 1.0 }, pdt)
    }

    #[test]
    fn intra_cycle_gap_is_the_magic_constant() {
        // 0.000194 + 0.001 + 0.000576 = 0.00177 exactly.
        let gap = closed(0.1).intra_cycle_gap();
        assert!((gap - 0.00177).abs() < 1e-12, "gap = {gap}");
    }

    #[test]
    fn dwell_times_cover_horizon() {
        let r = simulate_node(&closed(0.01), 1);
        assert!((r.cpu_times.total() - 900.0).abs() < 1e-6);
        assert!((r.radio_times.total() - 900.0).abs() < 1e-6);
    }

    #[test]
    fn closed_model_completes_one_cycle_per_interval() {
        let r = simulate_node(&closed(0.1), 1);
        // Cycle duration ~1.6 s at PDT=0.1 (1 s wait + processing);
        // expect on the order of 900/1.6 ≈ 550 cycles.
        assert!(
            (400..=800).contains(&(r.cycles_completed as i64)),
            "cycles = {}",
            r.cycles_completed
        );
        assert_eq!(r.max_pending, 0, "closed model never queues events");
    }

    #[test]
    fn closed_model_is_deterministic() {
        let a = simulate_node(&closed(0.01), 1);
        let b = simulate_node(&closed(0.01), 999);
        assert_eq!(a, b, "closed model must not depend on the seed");
    }

    #[test]
    fn tiny_pdt_causes_two_wakeups_per_cycle() {
        // PDT below the intra-cycle gap: the CPU sleeps in the TX window
        // and between cycles -> 2 wake-ups per cycle.
        let r = simulate_node(&closed(1e-6), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 2.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn moderate_pdt_causes_one_wakeup_per_cycle() {
        // Gap < PDT < inter-cycle gap: idle through the TX window, sleep
        // between events only.
        let r = simulate_node(&closed(0.01), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 1.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn huge_pdt_never_sleeps() {
        let r = simulate_node(&closed(100.0), 1);
        assert!(r.cpu_wakeups <= 1, "wakeups = {}", r.cpu_wakeups);
        // Only the initial pre-first-event sleep (~1 s) remains.
        assert!(r.cpu_times.sleep < 1.5, "sleep = {}", r.cpu_times.sleep);
    }

    #[test]
    fn pdt_exactly_at_gap_does_not_sleep_in_gap() {
        // Boundary semantics: at PDT == gap the job deposit and the timer
        // fire simultaneously; FIFO event order lets the deposit win
        // (the paper's optimum sits exactly on this boundary).
        let gap = closed(0.0).intra_cycle_gap();
        let r = simulate_node(&closed(gap), 1);
        let per_cycle = r.cpu_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 1.0).abs() < 0.05,
            "wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn optimum_beats_both_extremes_closed() {
        // The paper's headline (Fig. 14): an interior PDT beats both
        // immediate power-down and never-power-down.
        let e = |pdt: f64| {
            simulate_node(&closed(pdt), 1)
                .total_energy(&PXA271_CPU, &CC2420_RADIO)
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.00177);
        let never = e(1e4);
        assert!(
            optimum < immediate,
            "optimum {optimum} must beat immediate {immediate}"
        );
        assert!(optimum < never, "optimum {optimum} must beat never {never}");
    }

    #[test]
    fn optimum_beats_both_extremes_open() {
        let e = |pdt: f64| {
            simulate_node(&open(pdt), 7)
                .total_energy(&PXA271_CPU, &CC2420_RADIO)
                .joules()
        };
        let immediate = e(1e-9);
        let optimum = e(0.01);
        let never = e(1e4);
        assert!(
            optimum < immediate,
            "optimum {optimum} must beat immediate {immediate}"
        );
        assert!(optimum < never, "optimum {optimum} must beat never {never}");
    }

    #[test]
    fn open_model_queues_bursts() {
        let r = simulate_node(&open(0.01), 3);
        assert!(r.events_generated > 700, "events = {}", r.events_generated);
        // Poisson bursts inevitably overlap a ~0.6 s cycle.
        assert!(r.max_pending >= 1);
        // All queued events eventually trigger cycles (no starvation):
        // completed cycles track generated events minus backlog.
        assert!(r.cycles_completed as i64 >= r.events_generated as i64 - 20);
    }

    #[test]
    fn open_model_reproducible_per_seed() {
        let a = simulate_node(&open(0.05), 11);
        let b = simulate_node(&open(0.05), 11);
        assert_eq!(a, b);
        let c = simulate_node(&open(0.05), 12);
        assert_ne!(a, c);
    }

    #[test]
    fn radio_wakes_twice_per_cycle() {
        let r = simulate_node(&closed(0.01), 1);
        let per_cycle = r.radio_wakeups as f64 / r.cycles_completed as f64;
        assert!(
            (per_cycle - 2.0).abs() < 0.05,
            "radio wakeups/cycle = {per_cycle}"
        );
    }

    #[test]
    fn breakdown_totals_match() {
        let r = simulate_node(&closed(0.01), 1);
        let b = r.breakdown(&PXA271_CPU, &CC2420_RADIO);
        let total = r.total_energy(&PXA271_CPU, &CC2420_RADIO);
        assert!((b.total().joules() - total.joules()).abs() < 1e-12);
        // CPU dominates the node budget with these tables.
        assert!(b.cpu.total().joules() > b.radio.total().joules());
    }

    #[test]
    fn the_cpu_holds_one_job_under_heavy_load() {
        // Handing a job to a CPU that holds one panics; drive the node
        // with events far closer than a cycle.
        for pdt in [0.0, 0.00177, 0.1] {
            let mut p = NodeSimParams::paper_defaults(Workload::Open { rate: 20.0 }, pdt);
            p.horizon = 100.0;
            for seed in 1..4 {
                assert!(simulate_node(&p, seed).max_pending > 100);
            }
            p.workload = Workload::Closed { interval: 0.01 };
            assert!(simulate_node(&p, 1).cycles_completed > 100);
        }
    }

    fn with_delays(pdt: f64, pud: f64) {
        let mut p = closed(pdt);
        p.cpu_power_up_delay = pud;
        let _ = simulate_node(&p, 1);
    }

    #[test]
    #[should_panic(expected = "threshold must be non-negative")]
    fn negative_threshold_rejected() {
        with_delays(-0.1, 0.253);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn infinite_threshold_rejected() {
        with_delays(f64::INFINITY, 0.253);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_power_up_delay_rejected() {
        with_delays(0.01, -0.253);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn nan_power_up_delay_rejected() {
        with_delays(0.01, f64::NAN);
    }
}
