//! Generic discrete-event simulation kernel: a time-ordered event queue
//! with stable tie-breaking and eager cancellation.
//!
//! The pending set is an unsorted `Vec`. The simulators in this crate keep
//! very few events pending: the CPU simulator at most 2 (the next arrival
//! plus one of wake-up, service or threshold timer) and the node simulator
//! at most 3 (the workload generator, the radio phase, and one of the
//! CPU's wake-up, service or threshold timer — the timer is cancelled
//! before the CPU takes work); each simulator `debug_assert!`s its bound
//! after every event. At that size one linear pass beats any heap:
//!
//! * `schedule_*` is an O(1) push;
//! * `pop` / [`EventQueue::pop_before`] scan for the minimum under the
//!   total order `(time, priority, seq)` and `swap_remove` it, O(n);
//! * `cancel` finds its entry by sequence number and `swap_remove`s it,
//!   O(n). Cancelling an event that already fired (or was already
//!   cancelled) finds nothing and leaves no trace.
//!
//! `seq` is unique, so the order is total: the pop sequence does not
//! depend on where entries sit in the `Vec`.

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    time: f64,
    priority: u8,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// True if `self` pops before `other`: earliest time first; lowest
    /// priority value first among equal times; FIFO among equal
    /// `(time, priority)`.
    #[inline]
    fn precedes(&self, other: &Self) -> bool {
        self.time
            .total_cmp(&other.time)
            .then(self.priority.cmp(&other.priority))
            .then(self.seq.cmp(&other.seq))
            .is_lt()
    }
}

/// Pending-event set of a discrete-event simulation.
///
/// Events with equal timestamps pop in scheduling (FIFO) order, which makes
/// simultaneous-event semantics explicit and runs reproducible.
pub struct EventQueue<E> {
    events: Vec<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// Empty queue starting at time 0.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            seq: 0,
            now: 0.0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `payload` at absolute time `time` (must not be in the past)
    /// with default priority 0.
    pub fn schedule_at(&mut self, time: f64, payload: E) -> EventId {
        self.schedule_at_pri(time, 0, payload)
    }

    /// Schedule with an explicit simultaneity priority: among events with
    /// equal timestamps, *lower* priority values fire first.
    ///
    /// This is how threshold timers are made to lose exact ties against
    /// work-delivering events — the boundary semantics behind the paper's
    /// optimum sitting exactly at `PDT = 0.00177 s`.
    pub fn schedule_at_pri(&mut self, time: f64, priority: u8, payload: E) -> EventId {
        assert!(
            time >= self.now,
            "cannot schedule into the past: {time} < {}",
            self.now
        );
        assert!(time.is_finite(), "event time must be finite");
        let id = EventId(self.seq);
        self.events.push(Entry {
            time,
            priority,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
        id
    }

    /// Schedule `payload` after a non-negative delay (priority 0).
    pub fn schedule_in(&mut self, delay: f64, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay");
        self.schedule_at(self.now + delay, payload)
    }

    /// Schedule after a delay with an explicit simultaneity priority.
    pub fn schedule_in_pri(&mut self, delay: f64, priority: u8, payload: E) -> EventId {
        assert!(delay >= 0.0, "negative delay");
        self.schedule_at_pri(self.now + delay, priority, payload)
    }

    /// Cancel a previously scheduled event, removing it from the queue
    /// (O(n) in pending events). Cancelling an already-fired or
    /// already-cancelled event is a no-op.
    pub fn cancel(&mut self, id: EventId) {
        if let Some(i) = self.events.iter().position(|e| e.seq == id.0) {
            self.events.swap_remove(i);
        }
    }

    /// Index of the next event to pop, if any.
    #[inline]
    fn next_index(&self) -> Option<usize> {
        let mut events = self.events.iter().enumerate();
        let (mut best, mut first) = events.next()?;
        for (i, e) in events {
            if e.precedes(first) {
                best = i;
                first = e;
            }
        }
        Some(best)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        // Event times are finite, so every one falls before infinity.
        self.pop_before(f64::INFINITY)
    }

    /// Pop the next event if it falls strictly before `horizon`, advancing
    /// the clock to its timestamp; otherwise leave the queue and the clock
    /// untouched and return `None`. One scan per event, where
    /// [`EventQueue::peek_time`] followed by [`EventQueue::pop`] scans
    /// twice.
    #[inline]
    pub fn pop_before(&mut self, horizon: f64) -> Option<(f64, E)> {
        let i = self.next_index()?;
        if self.events[i].time >= horizon {
            return None;
        }
        let entry = self.events.swap_remove(i);
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.next_index().map(|i| self.events[i].time)
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.events.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(3.0, "c");
        q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        assert_eq!(q.pop(), Some((1.0, "a")));
        assert_eq!(q.pop(), Some((2.0, "b")));
        assert_eq!(q.pop(), Some((3.0, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 3.0);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at(1.0, "first");
        q.schedule_at(1.0, "second");
        q.schedule_at(1.0, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn cancellation_skips_events() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert_eq!(q.pop(), Some((2.0, "b")));
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        assert_eq!(q.pop(), Some((1.0, "a")));
        let b = q.schedule_at(2.0, "b");
        q.cancel(a); // already fired
        assert_eq!(q.pending(), 1);
        q.cancel(b);
        q.cancel(b); // already cancelled

        // No residue: the queue holds nothing but what is still pending.
        assert_eq!(q.events.len(), 0);
        q.schedule_at(3.0, "c");
        assert_eq!(q.events.len(), 1);
        assert_eq!(q.pop(), Some((3.0, "c")));
    }

    #[test]
    fn schedule_in_uses_current_time() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "x");
        q.pop();
        q.schedule_in(1.5, "y");
        assert_eq!(q.pop(), Some((6.5, "y")));
    }

    #[test]
    fn peek_respects_cancellation() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(1.0, "a");
        q.schedule_at(2.0, "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(2.0));
        assert_eq!(q.pending(), 1);
    }

    #[test]
    fn priority_breaks_ties_before_fifo() {
        let mut q = EventQueue::new();
        q.schedule_at_pri(1.0, 5, "timer"); // scheduled first...
        q.schedule_at_pri(1.0, 0, "work"); // ...but work outranks it
        assert_eq!(q.pop().unwrap().1, "work");
        assert_eq!(q.pop().unwrap().1, "timer");
    }

    #[test]
    fn priority_only_matters_at_equal_times() {
        let mut q = EventQueue::new();
        q.schedule_at_pri(1.0, 5, "early-low-pri");
        q.schedule_at_pri(2.0, 0, "late-high-pri");
        assert_eq!(q.pop().unwrap().1, "early-low-pri");
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn past_scheduling_rejected() {
        let mut q = EventQueue::new();
        q.schedule_at(5.0, "x");
        q.pop();
        q.schedule_at(1.0, "y");
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_rejected() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.schedule_in(-0.1, "x");
    }

    #[test]
    fn is_empty_and_pending() {
        let mut q: EventQueue<u32> = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule_at(1.0, 1);
        assert!(!q.is_empty());
        assert_eq!(q.pending(), 1);
        q.cancel(a);
        assert!(q.is_empty());
    }

    /// A naive model of the queue: a list of live entries kept sorted by
    /// `(time, priority, seq)` on every insert, so the next event is always
    /// at the front — a different algorithm from the queue's linear scan.
    #[derive(Default)]
    struct NaiveQueue {
        live: Vec<(f64, u8, u64)>,
        seq: u64,
        now: f64,
    }

    impl NaiveQueue {
        fn schedule(&mut self, time: f64, priority: u8) -> u64 {
            let key = (time, priority, self.seq);
            let at = self.live.partition_point(|e| {
                e.0.total_cmp(&key.0)
                    .then(e.1.cmp(&key.1))
                    .then(e.2.cmp(&key.2))
                    .is_lt()
            });
            self.live.insert(at, key);
            self.seq += 1;
            key.2
        }
        fn cancel(&mut self, seq: u64) {
            self.live.retain(|e| e.2 != seq);
        }
        fn peek_time(&self) -> Option<f64> {
            self.live.first().map(|e| e.0)
        }
        fn pop_before(&mut self, horizon: f64) -> Option<(f64, u64)> {
            let &(time, _, seq) = self.live.first()?;
            if time >= horizon {
                return None;
            }
            self.live.remove(0);
            self.now = time;
            Some((time, seq))
        }
        fn pop(&mut self) -> Option<(f64, u64)> {
            self.pop_before(f64::INFINITY)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random schedule/cancel/peek/pop/pop-before sequences — few
        /// distinct delays and priorities, so exact ties are common;
        /// horizons on the same half-second grid, so events exactly at the
        /// horizon are common; and cancels aimed at pending, fired and
        /// cancelled events alike — pop in the same order as the naive
        /// model, at the same clock, and agree on `pending()`.
        #[test]
        fn queue_matches_naive_model(
            ops in proptest::collection::vec((0u8..6, 0u8..3, 0u8..3, 0usize..64), 1..80)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut ids: Vec<EventId> = Vec::new();
            for (kind, delay, priority, pick) in ops {
                let offset = f64::from(delay) * 0.5;
                match kind {
                    0 | 1 => {
                        let time = model.now + offset;
                        let seq = model.schedule(time, priority);
                        ids.push(q.schedule_at_pri(time, priority, seq));
                    }
                    2 => {
                        if !ids.is_empty() {
                            let id = ids[pick % ids.len()];
                            q.cancel(id);
                            model.cancel(id.0);
                        }
                    }
                    3 => proptest::prop_assert_eq!(q.peek_time(), model.peek_time()),
                    4 => proptest::prop_assert_eq!(q.pop(), model.pop()),
                    _ => {
                        let horizon = model.now + offset;
                        proptest::prop_assert_eq!(q.pop_before(horizon), model.pop_before(horizon));
                    }
                }
                proptest::prop_assert_eq!(q.pending(), model.live.len());
                proptest::prop_assert_eq!(q.now(), model.now);
            }
            while let Some(e) = model.pop() {
                proptest::prop_assert_eq!(q.pop(), Some(e));
            }
            proptest::prop_assert!(q.is_empty());
        }
    }
}
