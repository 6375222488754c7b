//! Host-speed calibration of the end-to-end times.
//!
//! The benchmark's host is shared, and its speed drifts by up to 1.7× over
//! seconds to minutes, with CPU time equal to wall time (no steal): the
//! program itself runs slower. Two sets of runs minutes apart therefore
//! time two different machines, and no sample count inside one run
//! averages that away.
//!
//! So a run also times a fixed kernel of the benchmark's own, one pass
//! after the set-up probes and after every timed invocation, and reports
//! each end-to-end time scaled by [`REFERENCE_S`] over the run's typical
//! pass: the time on a host where a pass takes [`REFERENCE_S`]. Both sides
//! use the same statistic, the lower quartile (see
//! `stats::lower_quartile`). On 20-second windows of full `repro all`
//! runs this cut the spread of the windows' lower quartiles (interquartile
//! range over median) from 0.11–0.14 to 0.05–0.06. A pass runs the kernel
//! on [`THREADS`] threads at once, as many as the busiest invocation uses:
//! the whole host's speed tracked both the 1- and the 2-thread walls
//! better than one thread's did. The kernel has the shape of the
//! simulators' inner loops (an event queue, exponential sampling, float
//! accumulation) and calls nothing in the program, so a change to the
//! program moves a scaled time by the same factor as the raw one.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Kernel threads per pass.
pub const THREADS: usize = 2;
/// Kernel events per thread and pass.
const EVENTS: u64 = 1_000_000;
/// Seconds of one pass on the reference host: the typical pass on the
/// 2-CPU x86-64 host the bounds were set on.
pub const REFERENCE_S: f64 = 0.075;

/// One kernel run: a 256-entry event queue driven for [`EVENTS`] events.
fn kernel(seed: u64) -> f64 {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s >> 12;
        s ^= s << 25;
        s ^= s >> 27;
        s.wrapping_mul(0x2545_F491_4F6C_DD1D)
    };
    let mut queue = BinaryHeap::with_capacity(256);
    for id in 0..256u32 {
        queue.push(Reverse((next() >> 20, id)));
    }
    let mut acc = [0.0f64; 64];
    let mut now = 0u64;
    for _ in 0..EVENTS {
        let Reverse((t, id)) = queue.pop().expect("the queue never empties");
        let dt = (t - now) as f64;
        now = t;
        let u = ((next() >> 11) as f64 + 0.5) / (1u64 << 53) as f64;
        let delay = -u.ln() * f64::from(1 + id % 7) * 1e6;
        acc[(id % 64) as usize] += dt * delay.sqrt();
        queue.push(Reverse((now + delay as u64 + 1, id)));
    }
    acc.iter().sum()
}

/// The kernel passes of one run.
#[derive(Default)]
pub struct HostSpeed {
    passes: Vec<f64>,
}

impl HostSpeed {
    /// Time one pass: [`THREADS`] concurrent kernel runs, start to last
    /// finish.
    pub fn sample(&mut self) {
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                s.spawn(move || std::hint::black_box(kernel(std::hint::black_box(t as u64 + 1))));
            }
        });
        self.passes.push(start.elapsed().as_secs_f64());
    }

    /// The run's typical pass, seconds: the lower quartile of its passes.
    pub fn pass_s(&self) -> f64 {
        crate::stats::lower_quartile(&self.passes)
    }

    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// `raw_s`, timed during this run, at the reference host's speed.
    pub fn scale(&self, raw_s: f64) -> f64 {
        raw_s * REFERENCE_S / self.pass_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_divides_by_the_typical_slowdown() {
        let host = HostSpeed {
            passes: vec![REFERENCE_S * 9.0, REFERENCE_S * 1.5, REFERENCE_S * 7.0],
        };
        assert!((host.scale(3.0) - 2.0).abs() < 1e-12);
        let mut timed = HostSpeed::default();
        timed.sample();
        assert_eq!(timed.passes(), 1);
        assert!(timed.pass_s() > 0.0);
    }

    #[test]
    fn the_kernel_is_deterministic_work() {
        assert_eq!(kernel(7).to_bits(), kernel(7).to_bits());
        assert_ne!(kernel(7).to_bits(), kernel(8).to_bits());
    }
}
