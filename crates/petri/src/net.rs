//! The immutable net structure produced by [`crate::builder::NetBuilder`].
//!
//! A [`Net`] is validated once at build time and then shared (immutably,
//! cheaply, across threads) by any number of simulator instances — the
//! replication harness in [`crate::replicate`] relies on `Net: Sync`.

use crate::ids::{PlaceId, TransitionId};
use crate::marking::{Marking, MarkingLayout};
use crate::token::Color;
use crate::transition::Transition;
use std::sync::Arc;

/// A place definition: name + initial tokens.
#[derive(Debug, Clone)]
pub struct Place {
    /// Human-readable name (unique within the net).
    pub name: String,
    /// Initial token colors (FIFO order).
    pub initial: Vec<Color>,
}

/// An immutable, validated Petri net.
#[derive(Debug, Clone)]
pub struct Net {
    /// Net name (for diagnostics and DOT export).
    pub name: String,
    pub(crate) places: Vec<Place>,
    pub(crate) transitions: Vec<Transition>,
    /// `affected_by[p]` = transitions whose enabling status can change when
    /// the token count of place `p` changes (inputs, inhibitors, or guard
    /// references). Built once; drives incremental enabling re-checks.
    pub(crate) affected_by: Vec<Vec<TransitionId>>,
    /// Color-flow result: which places can ever hold a non-[`Color::NONE`]
    /// token (count-only places get the dense O(1) marking layout), and the
    /// color slots of the colored ones (see [`crate::marking`]).
    pub(crate) layout: Arc<MarkingLayout>,
}

/// Where a marking of some net keeps the count of one color in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ColorCountAt {
    /// At this index of the marking's dense count vector (the place total
    /// of a count-only place for [`Color::NONE`], or a color slot).
    Dense(u32),
    /// Nowhere: the color-flow analysis proves the place never holds it.
    AlwaysZero,
    /// Only in the place's FIFO bag (its color domain was too large to
    /// slot).
    Bag,
}

impl Net {
    /// Number of places.
    #[inline]
    pub fn num_places(&self) -> usize {
        self.places.len()
    }

    /// Number of transitions.
    #[inline]
    pub fn num_transitions(&self) -> usize {
        self.transitions.len()
    }

    /// Place metadata.
    #[inline]
    pub fn place(&self, p: PlaceId) -> &Place {
        &self.places[p.index()]
    }

    /// Transition metadata.
    #[inline]
    pub fn transition(&self, t: TransitionId) -> &Transition {
        &self.transitions[t.index()]
    }

    /// Iterate over all place ids.
    pub fn place_ids(&self) -> impl Iterator<Item = PlaceId> {
        (0..self.places.len()).map(PlaceId::from_index)
    }

    /// Iterate over all transition ids.
    pub fn transition_ids(&self) -> impl Iterator<Item = TransitionId> {
        (0..self.transitions.len()).map(TransitionId::from_index)
    }

    /// Look up a place by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places
            .iter()
            .position(|p| p.name == name)
            .map(PlaceId::from_index)
    }

    /// Look up a transition by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions
            .iter()
            .position(|t| t.name == name)
            .map(TransitionId::from_index)
    }

    /// The initial marking, laid out per the net's color-flow analysis:
    /// places that can never hold colors are stored count-only.
    pub fn initial_marking(&self) -> Marking {
        let mut m = Marking::with_layout(Arc::clone(&self.layout));
        for (i, p) in self.places.iter().enumerate() {
            let pid = PlaceId::from_index(i);
            for &c in &p.initial {
                m.deposit(pid, c);
            }
        }
        m
    }

    /// Can place `p` ever hold a non-[`Color::NONE`] token? (Result of the
    /// build-time color-flow fixpoint.)
    #[inline]
    pub fn place_may_hold_colors(&self, p: PlaceId) -> bool {
        self.layout.is_colored(p.index())
    }

    /// Where this net's markings keep the count of color `c` in place `p`.
    pub(crate) fn color_count_at(&self, p: PlaceId, c: Color) -> ColorCountAt {
        let i = p.index();
        if !self.layout.is_colored(i) {
            return if c == Color::NONE {
                ColorCountAt::Dense(i as u32)
            } else {
                ColorCountAt::AlwaysZero
            };
        }
        match self.layout.slot(i, c) {
            Some(s) => ColorCountAt::Dense(s),
            // A slotted place's slots cover its whole color domain.
            None if !self.layout.slot_colors(i).is_empty() => ColorCountAt::AlwaysZero,
            None => ColorCountAt::Bag,
        }
    }

    /// The colors place `p` keeps a dense count for (empty for count-only
    /// places and for colored places with too large a domain).
    pub(crate) fn slot_colors(&self, p: PlaceId) -> &[Color] {
        self.layout.slot_colors(p.index())
    }

    /// Transitions whose enabling may be affected by a token-count change in
    /// place `p`.
    #[inline]
    pub(crate) fn affected_by(&self, p: PlaceId) -> &[TransitionId] {
        &self.affected_by[p.index()]
    }

    /// All transitions (slice access for the engine's hot loop).
    #[inline]
    pub(crate) fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::NetBuilder;
    use crate::timing::Timing;

    #[test]
    fn lookups_by_name() {
        let mut b = NetBuilder::new("lookup");
        let p = b.place("Wait").tokens(1).build();
        let q = b.place("Run").build();
        let t = b
            .transition("go", Timing::immediate())
            .input(p, 1)
            .output(q, 1)
            .build();
        let net = b.build().unwrap();
        assert_eq!(net.place_by_name("Wait"), Some(p));
        assert_eq!(net.place_by_name("Run"), Some(q));
        assert_eq!(net.place_by_name("Nope"), None);
        assert_eq!(net.transition_by_name("go"), Some(t));
        assert_eq!(net.transition_by_name("stop"), None);
        assert_eq!(net.num_places(), 2);
        assert_eq!(net.num_transitions(), 1);
    }

    #[test]
    fn initial_marking_reflects_builder() {
        let mut b = NetBuilder::new("init");
        let p = b.place("a").tokens(2).build();
        let q = b.place("b").build();
        b.transition("t", Timing::immediate()).input(p, 1).build();
        let net = b.build().unwrap();
        let m = net.initial_marking();
        assert_eq!(m.count(p), 2);
        assert_eq!(m.count(q), 0);
    }

    #[test]
    fn affected_by_covers_inputs_inhibitors_and_guards() {
        use crate::expr::Expr;
        let mut b = NetBuilder::new("adj");
        let a = b.place("a").tokens(1).build();
        let g = b.place("g").build();
        let inh = b.place("inh").build();
        let out = b.place("out").build();
        let t = b
            .transition("t", Timing::immediate())
            .input(a, 1)
            .output(out, 1)
            .inhibitor(inh, 1)
            .guard(Expr::count(g).eq_c(0))
            .build();
        let net = b.build().unwrap();
        for p in [a, g, inh] {
            assert!(
                net.affected_by(p).contains(&t),
                "transition should be indexed under {p:?}"
            );
        }
        // Output-only places also wake the transition's re-check; harmless
        // and required for self-loop nets.
        assert!(net.affected_by(out).contains(&t));
    }
}
