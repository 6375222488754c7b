//! Generic discrete-event simulation kernel: a time-ordered event queue
//! with stable tie-breaking and eager cancellation.
//!
//! `schedule_*` and `pop` are O(log n) binary-heap operations with no
//! cancellation bookkeeping at all: `cancel` removes its entry from the
//! heap at once, in O(n). The simulators in this crate keep a handful of
//! events pending and cancel at most one power-down timer per arrival, so
//! one short linear pass per cancel is cheaper than a lazy-deletion set
//! consulted on every pop. Cancelling an event that already fired (or was
//! already cancelled) finds nothing and leaves no trace.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Handle to a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

struct Entry<E> {
    time: f64,
    priority: u8,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed for min-heap behavior on BinaryHeap (max-heap):
        // earliest time first; lowest priority value first among equal
        // times; FIFO among equal (time, priority).
        other
            .time
            .total_cmp(&self.time)
            .then_with(|| other.priority.cmp(&self.priority))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Pending-event set of a discrete-event simulation.
///
/// Events with equal timestamps pop in scheduling (FIFO) order, which makes
/// simultaneous-event semantics explicit and runs reproducible.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: f64,
}

impl<E> EventQueue<E> {
    /// Empty queue starting at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
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
        self.heap.push(Entry {
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
        self.heap.retain(|e| e.seq != id.0);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.time >= self.now, "time went backwards");
        self.now = entry.time;
        Some((entry.time, entry.payload))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|e| e.time)
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
        assert_eq!(q.heap.len(), 0);
        q.schedule_at(3.0, "c");
        assert_eq!(q.heap.len(), 1);
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

    /// A naive model of the queue: a flat list of live entries, popped by
    /// a linear minimum over `(time, priority, seq)`.
    #[derive(Default)]
    struct NaiveQueue {
        live: Vec<(f64, u8, u64)>,
        seq: u64,
        now: f64,
    }

    impl NaiveQueue {
        fn schedule(&mut self, time: f64, priority: u8) -> u64 {
            self.live.push((time, priority, self.seq));
            self.seq += 1;
            self.seq - 1
        }
        fn cancel(&mut self, seq: u64) {
            self.live.retain(|e| e.2 != seq);
        }
        fn next(&self) -> Option<usize> {
            (0..self.live.len()).min_by(|&a, &b| {
                let (x, y) = (self.live[a], self.live[b]);
                x.0.total_cmp(&y.0).then(x.1.cmp(&y.1)).then(x.2.cmp(&y.2))
            })
        }
        fn peek_time(&self) -> Option<f64> {
            self.next().map(|i| self.live[i].0)
        }
        fn pop(&mut self) -> Option<(f64, u64)> {
            let e = self.live.remove(self.next()?);
            self.now = e.0;
            Some((e.0, e.2))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Random schedule/cancel/peek/pop sequences — few distinct
        /// delays and priorities, so exact ties are common, and cancels
        /// aimed at pending, fired and cancelled events alike — pop in
        /// the same order as the naive model and agree on `pending()`.
        #[test]
        fn queue_matches_naive_model(
            ops in proptest::collection::vec((0u8..5, 0u8..3, 0u8..3, 0usize..64), 1..80)
        ) {
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut model = NaiveQueue::default();
            let mut ids: Vec<EventId> = Vec::new();
            for (kind, delay, priority, pick) in ops {
                match kind {
                    0 | 1 => {
                        let time = model.now + f64::from(delay) * 0.5;
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
                    _ => proptest::prop_assert_eq!(q.pop(), model.pop()),
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
