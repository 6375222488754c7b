//! Discrete-event kernel: one fixed clock per event source.
//!
//! Neither simulator in this crate ever has more than one event pending
//! per source: the CPU simulator has an arrival clock and a CPU clock
//! (wake-up, service or power-down threshold, by the CPU's power state);
//! the node simulator has workload, radio and CPU clocks. So the pending
//! set is those two or three [`Clock`]s, the next event is the earliest
//! of them, and cancelling the threshold timer is clearing (or resetting)
//! the CPU clock. An idle clock sits at `+inf` and never fires.
//!
//! Events pop in the order `(time, priority, seq)`: earliest time first,
//! lower priority first among equal times, then scheduling order, `seq`
//! coming from one counter per run. That order is written once, in
//! [`Clock::precedes`].

/// When one event source fires next, and its place in the tie order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Clock {
    time: f64,
    priority: u8,
    seq: u64,
}

impl Clock {
    /// A clock with nothing scheduled.
    pub const IDLE: Clock = Clock {
        time: f64::INFINITY,
        priority: 0,
        seq: 0,
    };

    /// A clock due `delay` after `now`, taking the run's next sequence
    /// number from `seq`. Among events due at equal times, *lower*
    /// priority values fire first: threshold timers use 1 so they lose
    /// exact ties against work-delivering events (priority 0) — the
    /// boundary semantics behind the paper's optimum sitting exactly at
    /// `PDT = 0.00177 s`.
    ///
    /// Panics unless `delay` is non-negative and `now + delay` finite;
    /// with `now` itself a finite event time, the clock is never set into
    /// the past.
    #[inline]
    pub fn after(now: f64, delay: f64, priority: u8, seq: &mut u64) -> Clock {
        let time = now + delay;
        assert!(
            delay >= 0.0 && time.is_finite(),
            "event delay must be non-negative and finite: {delay} after {now}"
        );
        *seq += 1;
        Clock {
            time,
            priority,
            seq: *seq,
        }
    }

    /// When the clock fires (`+inf` when idle).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// True if `self` fires before `other`. Every set clock's time is
    /// `now + delay` with `now >= +0.0`, so it is finite and never `-0.0`,
    /// and `<` agrees with `f64::total_cmp`; priority and `seq` are read
    /// only at equal times.
    #[inline]
    pub fn precedes(&self, other: &Clock) -> bool {
        self.time < other.time
            || (self.time == other.time && (self.priority, self.seq) < (other.priority, other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index of the clock that fires first.
    fn first(clocks: &[Clock]) -> usize {
        (1..clocks.len()).fold(0, |best, i| {
            if clocks[i].precedes(&clocks[best]) {
                i
            } else {
                best
            }
        })
    }

    #[test]
    fn events_pop_in_time_order() {
        let mut seq = 0;
        let c = Clock::after(0.0, 3.0, 0, &mut seq);
        let a = Clock::after(0.0, 1.0, 0, &mut seq);
        let b = Clock::after(0.0, 2.0, 0, &mut seq);
        assert_eq!(first(&[c, a, b]), 1);
        assert_eq!(first(&[c, b]), 1);
        assert!(a.precedes(&b) && b.precedes(&c) && !c.precedes(&a));
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut seq = 0;
        let first_set = Clock::after(1.0, 0.0, 0, &mut seq);
        let second = Clock::after(0.5, 0.5, 0, &mut seq);
        let third = Clock::after(0.0, 1.0, 0, &mut seq);
        assert_eq!(first(&[third, second, first_set]), 2);
        assert_eq!(first(&[third, second]), 1);
        assert!(!third.precedes(&second));
    }

    #[test]
    fn priority_breaks_ties_before_fifo() {
        let mut seq = 0;
        let timer = Clock::after(0.0, 1.0, 5, &mut seq); // set first...
        let work = Clock::after(0.0, 1.0, 0, &mut seq); // ...but work outranks it
        assert!(work.precedes(&timer));
        assert!(!timer.precedes(&work));
    }

    #[test]
    fn priority_only_matters_at_equal_times() {
        let mut seq = 0;
        let late = Clock::after(0.0, 2.0, 0, &mut seq);
        let early = Clock::after(0.0, 1.0, 5, &mut seq);
        assert!(early.precedes(&late));
    }

    #[test]
    fn cancellation_skips_events() {
        // A cleared clock never fires: the live clock wins, and with every
        // clock cleared nothing falls before any finite horizon.
        let mut seq = 0;
        let mut a = Clock::after(0.0, 1.0, 0, &mut seq);
        let b = Clock::after(0.0, 2.0, 1, &mut seq);
        assert_eq!(first(&[a, b]), 0);
        a = Clock::IDLE;
        assert_eq!(first(&[a, b]), 1);
        assert!(!a.precedes(&b));
        assert!(Clock::IDLE.time() >= f64::MAX);
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut seq = 0;
        assert_eq!(Clock::after(5.0, 1.5, 0, &mut seq).time(), 6.5);
        assert_eq!(seq, 1);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn negative_delay_rejected() {
        Clock::after(0.0, -0.1, 0, &mut 0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn past_scheduling_rejected() {
        Clock::after(5.0, -1.0, 0, &mut 0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn infinite_time_rejected() {
        Clock::after(f64::MAX, f64::MAX, 0, &mut 0);
    }

    #[test]
    #[should_panic(expected = "non-negative and finite")]
    fn nan_delay_rejected() {
        Clock::after(0.0, f64::NAN, 0, &mut 0);
    }

    /// A naive model of the pending set: one list of live entries kept
    /// sorted by `(time, priority, seq)` under `f64::total_cmp` on every
    /// insert, so the next event is always at the front — a different
    /// algorithm from scanning the clocks with [`Clock::precedes`].
    #[derive(Default)]
    struct NaiveQueue {
        live: Vec<(f64, u8, u64, usize)>,
        seq: u64,
    }

    impl NaiveQueue {
        fn set(&mut self, source: usize, time: f64, priority: u8) {
            self.clear(source);
            self.seq += 1;
            let key = (time, priority, self.seq, source);
            let at = self.live.partition_point(|e| {
                e.0.total_cmp(&key.0)
                    .then(e.1.cmp(&key.1))
                    .then(e.2.cmp(&key.2))
                    .is_lt()
            });
            self.live.insert(at, key);
        }
        fn clear(&mut self, source: usize) {
            self.live.retain(|e| e.3 != source);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random set/clear/fire sequences on three clocks — few distinct
        /// delays and priorities, so exact ties are common; horizons on
        /// the same half-second grid, so events exactly at the horizon are
        /// common; and clears aimed at set and idle clocks alike — fire in
        /// the same order as the naive model, at the same times.
        #[test]
        fn queue_matches_naive_model(
            ops in proptest::collection::vec((0u8..4, 0usize..3, 0u8..3, 0u8..3), 1..80)
        ) {
            let mut clocks = [Clock::IDLE; 3];
            let mut seq = 0;
            let mut now = 0.0;
            let mut model = NaiveQueue::default();
            for (kind, source, delay, priority) in ops {
                let offset = f64::from(delay) * 0.5;
                match kind {
                    0 | 1 => {
                        clocks[source] = Clock::after(now, offset, priority, &mut seq);
                        model.set(source, now + offset, priority);
                    }
                    2 => {
                        clocks[source] = Clock::IDLE;
                        model.clear(source);
                    }
                    _ => {
                        let horizon = now + offset;
                        let next = first(&clocks);
                        let fired = (clocks[next].time() < horizon).then_some(next);
                        let expected = model.live.first().filter(|e| e.0 < horizon);
                        proptest::prop_assert_eq!(fired, expected.map(|e| e.3));
                        if let Some(source) = fired {
                            now = clocks[source].time();
                            clocks[source] = Clock::IDLE;
                            model.live.remove(0);
                        }
                    }
                }
            }
            while let Some(&(time, _, _, source)) = model.live.first() {
                proptest::prop_assert_eq!(first(&clocks), source);
                proptest::prop_assert_eq!(clocks[source].time(), time);
                clocks[source] = Clock::IDLE;
                model.live.remove(0);
            }
            proptest::prop_assert!(clocks.iter().all(|c| *c == Clock::IDLE));
        }
    }
}
