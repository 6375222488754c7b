//! Fluent construction and validation of nets.
//!
//! ```
//! use petri_core::prelude::*;
//!
//! // A trivial open M/M/1-style net: jobs arrive, jobs get served.
//! let mut b = NetBuilder::new("mm1");
//! let queue = b.place("queue").build();
//! b.transition("arrive", Timing::exponential(1.0))
//!     .output(queue, 1)
//!     .build();
//! b.transition("serve", Timing::exponential(2.0))
//!     .input(queue, 1)
//!     .build();
//! let net = b.build().unwrap();
//! assert_eq!(net.num_transitions(), 2);
//! ```

use crate::arc::{ColorExpr, InhibitorArc, InputArc, OutputArc};
use crate::error::BuildError;
use crate::expr::{Expr, ExprKind};
use crate::ids::{PlaceId, TransitionId};
use crate::marking::MarkingLayout;
use crate::net::{Net, Place};
use crate::timing::{MemoryPolicy, Timing};
use crate::token::{Color, ColorFilter};
use crate::transition::Transition;

/// Largest color domain a colored place keeps per-color counts for; larger
/// domains leave the place with its FIFO bag alone.
const MAX_COLOR_SLOTS: usize = 16;

/// Builder for a [`Net`]. Add places, then transitions, then call
/// [`NetBuilder::build`] to validate.
#[derive(Debug, Default)]
pub struct NetBuilder {
    name: String,
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Start building a net with the given diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        NetBuilder {
            name: name.into(),
            places: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Begin defining a place. Finish with [`PlaceBuilder::build`], which
    /// returns the [`PlaceId`].
    pub fn place(&mut self, name: impl Into<String>) -> PlaceBuilder<'_> {
        PlaceBuilder {
            net: self,
            name: name.into(),
            initial: Vec::new(),
        }
    }

    /// Shorthand: add a place with `n` uncolored initial tokens.
    pub fn place_with(&mut self, name: impl Into<String>, n: usize) -> PlaceId {
        let mut pb = self.place(name);
        pb.initial = vec![Color::NONE; n];
        pb.build()
    }

    /// Begin defining a transition. Finish with [`TransitionBuilder::build`],
    /// which returns the [`TransitionId`].
    pub fn transition(&mut self, name: impl Into<String>, timing: Timing) -> TransitionBuilder<'_> {
        TransitionBuilder {
            net: self,
            t: Transition {
                name: name.into(),
                timing,
                memory: MemoryPolicy::default(),
                inputs: Vec::new(),
                outputs: Vec::new(),
                inhibitors: Vec::new(),
                guard: None,
            },
        }
    }

    /// Validate everything and produce the immutable [`Net`].
    pub fn build(self) -> Result<Net, BuildError> {
        // Unique names.
        for (i, p) in self.places.iter().enumerate() {
            if self.places[..i].iter().any(|q| q.name == p.name) {
                return Err(BuildError::DuplicatePlaceName(p.name.clone()));
            }
            if p.initial.iter().any(|c| c.0 == u32::MAX) {
                return Err(BuildError::ReservedColor {
                    context: format!("initial marking of place {:?}", p.name),
                });
            }
        }
        for (i, t) in self.transitions.iter().enumerate() {
            if self.transitions[..i].iter().any(|u| u.name == t.name) {
                return Err(BuildError::DuplicateTransitionName(t.name.clone()));
            }
        }
        if self.transitions.is_empty() {
            return Err(BuildError::NoTransitions);
        }

        let num_places = self.places.len();
        for t in &self.transitions {
            // Enabling tests count tokens per place, so a transition may
            // consume from (or inhibit on) each place through at most one arc.
            for (i, a) in t.inputs.iter().enumerate() {
                if t.inputs[..i].iter().any(|b| b.place == a.place) {
                    return Err(BuildError::DuplicateArcPlace {
                        transition: t.name.clone(),
                    });
                }
            }
            for (i, a) in t.inhibitors.iter().enumerate() {
                if t.inhibitors[..i].iter().any(|b| b.place == a.place) {
                    return Err(BuildError::DuplicateArcPlace {
                        transition: t.name.clone(),
                    });
                }
            }
            t.timing
                .validate()
                .map_err(|message| BuildError::InvalidTiming {
                    transition: t.name.clone(),
                    message,
                })?;
            for a in &t.inputs {
                if a.multiplicity == 0 {
                    return Err(BuildError::ZeroMultiplicity {
                        transition: t.name.clone(),
                    });
                }
            }
            for a in &t.outputs {
                if a.multiplicity == 0 {
                    return Err(BuildError::ZeroMultiplicity {
                        transition: t.name.clone(),
                    });
                }
                match &a.color {
                    ColorExpr::Const(c) => {
                        if c.0 == u32::MAX {
                            return Err(BuildError::ReservedColor {
                                context: format!("output arc of transition {:?}", t.name),
                            });
                        }
                    }
                    ColorExpr::Transfer { arc_index } => {
                        if *arc_index >= t.inputs.len() {
                            return Err(BuildError::BadTransferIndex {
                                transition: t.name.clone(),
                                index: *arc_index,
                                num_inputs: t.inputs.len(),
                            });
                        }
                    }
                    ColorExpr::Choice(pairs) => {
                        let total: f64 = pairs.iter().map(|(_, w)| *w).sum();
                        // `!(total > 0.0)` deliberately catches NaN too.
                        #[allow(clippy::neg_cmp_op_on_partial_ord)]
                        if pairs.is_empty() || !(total > 0.0) {
                            return Err(BuildError::BadChoice {
                                transition: t.name.clone(),
                            });
                        }
                        if pairs.iter().any(|(c, _)| c.0 == u32::MAX) {
                            return Err(BuildError::ReservedColor {
                                context: format!("Choice colors of transition {:?}", t.name),
                            });
                        }
                    }
                }
            }
            for a in &t.inhibitors {
                if a.threshold == 0 {
                    return Err(BuildError::ZeroMultiplicity {
                        transition: t.name.clone(),
                    });
                }
            }
            if let Some(g) = &t.guard {
                if g.kind() != Some(ExprKind::Bool) {
                    return Err(BuildError::IllTypedGuard {
                        transition: t.name.clone(),
                    });
                }
                if let Some(max) = g.max_place_index() {
                    if max >= num_places {
                        return Err(BuildError::GuardPlaceOutOfRange {
                            transition: t.name.clone(),
                        });
                    }
                }
            }
        }

        // Dependency index: which transitions must be re-checked when a
        // place's contents change. Inputs, inhibitors, and guard references
        // determine enabling; output places are included too so self-loops
        // and reward hooks stay conservative.
        let mut affected_by: Vec<Vec<TransitionId>> = vec![Vec::new(); num_places];
        let mut scratch: Vec<PlaceId> = Vec::new();
        for (ti, t) in self.transitions.iter().enumerate() {
            let tid = TransitionId::from_index(ti);
            scratch.clear();
            scratch.extend(t.inputs.iter().map(|a| a.place));
            scratch.extend(t.inhibitors.iter().map(|a| a.place));
            scratch.extend(t.outputs.iter().map(|a| a.place));
            if let Some(g) = &t.guard {
                g.collect_places(&mut scratch);
            }
            scratch.sort_unstable();
            scratch.dedup();
            for p in &scratch {
                affected_by[p.index()].push(tid);
            }
        }

        // Color-flow fixpoint: which places can ever hold a non-NONE token?
        // Sources: colored initial tokens, Const/Choice output arcs naming a
        // non-NONE color, and Transfer arcs copying from a (transitively)
        // colored place. Count-only places get the dense O(1) marking layout.
        let mut colored: Vec<bool> = self
            .places
            .iter()
            .map(|p| p.initial.iter().any(|c| *c != Color::NONE))
            .collect();
        loop {
            let mut changed = false;
            for t in &self.transitions {
                for a in &t.outputs {
                    let produces_color = match &a.color {
                        ColorExpr::Const(c) => *c != Color::NONE,
                        ColorExpr::Choice(pairs) => pairs.iter().any(|(c, _)| *c != Color::NONE),
                        // Validated above: arc_index is in range.
                        ColorExpr::Transfer { arc_index } => {
                            colored[t.inputs[*arc_index].place.index()]
                        }
                    };
                    if produces_color && !colored[a.place.index()] {
                        colored[a.place.index()] = true;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }

        // Only colored places keep color slots, so uncolored nets skip the
        // domain pass.
        let slots = if colored.contains(&true) {
            self.color_domains()
        } else {
            Vec::new()
        };

        Ok(Net {
            name: self.name,
            places: self.places,
            transitions: self.transitions,
            affected_by,
            layout: MarkingLayout::new(colored, &slots).into(),
        })
    }

    /// Color domains: per place, a superset of the colors it can ever hold,
    /// seeded with the colors its `Eq`-filtered input arcs ask for (so a
    /// structurally dead withdrawal still names a slot). Sources are the
    /// same as the colored-place fixpoint's; a Transfer passes on its input
    /// place's whole domain. A domain larger than [`MAX_COLOR_SLOTS`] is
    /// emptied: that place keeps its FIFO bag alone.
    fn color_domains(&self) -> Vec<Vec<Color>> {
        let mut domain: Vec<Vec<Color>> = self.places.iter().map(|p| p.initial.clone()).collect();
        for t in &self.transitions {
            for a in &t.inputs {
                if let ColorFilter::Eq(c) = a.filter {
                    domain[a.place.index()].push(c);
                }
            }
        }
        for d in &mut domain {
            d.sort_unstable();
            d.dedup();
        }
        let mut incoming: Vec<Color> = Vec::new();
        loop {
            let mut changed = false;
            for t in &self.transitions {
                for a in &t.outputs {
                    incoming.clear();
                    match &a.color {
                        ColorExpr::Const(c) => incoming.push(*c),
                        ColorExpr::Choice(pairs) => incoming.extend(pairs.iter().map(|(c, _)| *c)),
                        ColorExpr::Transfer { arc_index } => {
                            incoming.extend_from_slice(&domain[t.inputs[*arc_index].place.index()])
                        }
                    }
                    let d = &mut domain[a.place.index()];
                    for &c in &incoming {
                        if let Err(at) = d.binary_search(&c) {
                            d.insert(at, c);
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        for d in &mut domain {
            if d.len() > MAX_COLOR_SLOTS {
                d.clear();
            }
        }
        domain
    }
}

/// In-progress place definition.
pub struct PlaceBuilder<'a> {
    net: &'a mut NetBuilder,
    name: String,
    initial: Vec<Color>,
}

impl PlaceBuilder<'_> {
    /// Give the place `n` uncolored initial tokens.
    pub fn tokens(mut self, n: usize) -> Self {
        self.initial.extend((0..n).map(|_| Color::NONE));
        self
    }

    /// Give the place one initial token of color `c`.
    pub fn token_colored(mut self, c: Color) -> Self {
        self.initial.push(c);
        self
    }

    /// Finish; returns the place id.
    pub fn build(self) -> PlaceId {
        let id = PlaceId::from_index(self.net.places.len());
        self.net.places.push(Place {
            name: self.name,
            initial: self.initial,
        });
        id
    }
}

/// In-progress transition definition.
pub struct TransitionBuilder<'a> {
    net: &'a mut NetBuilder,
    t: Transition,
}

impl TransitionBuilder<'_> {
    /// Add an input arc consuming `multiplicity` tokens of any color.
    pub fn input(mut self, place: PlaceId, multiplicity: u32) -> Self {
        self.t.inputs.push(InputArc {
            place,
            multiplicity,
            filter: ColorFilter::Any,
        });
        self
    }

    /// Add an input arc with a color filter (local guard).
    pub fn input_filtered(
        mut self,
        place: PlaceId,
        multiplicity: u32,
        filter: ColorFilter,
    ) -> Self {
        self.t.inputs.push(InputArc {
            place,
            multiplicity,
            filter,
        });
        self
    }

    /// Add an output arc depositing `multiplicity` uncolored tokens.
    pub fn output(mut self, place: PlaceId, multiplicity: u32) -> Self {
        self.t.outputs.push(OutputArc {
            place,
            multiplicity,
            color: ColorExpr::default(),
        });
        self
    }

    /// Add an output arc with an explicit color expression.
    pub fn output_colored(mut self, place: PlaceId, multiplicity: u32, color: ColorExpr) -> Self {
        self.t.outputs.push(OutputArc {
            place,
            multiplicity,
            color,
        });
        self
    }

    /// Add an inhibitor arc: disabled while `place` holds >= `threshold`
    /// tokens.
    pub fn inhibitor(mut self, place: PlaceId, threshold: u32) -> Self {
        self.t.inhibitors.push(InhibitorArc {
            place,
            threshold,
            filter: ColorFilter::Any,
        });
        self
    }

    /// Add an inhibitor arc counting only tokens matching `filter`.
    pub fn inhibitor_filtered(
        mut self,
        place: PlaceId,
        threshold: u32,
        filter: ColorFilter,
    ) -> Self {
        self.t.inhibitors.push(InhibitorArc {
            place,
            threshold,
            filter,
        });
        self
    }

    /// Set the global guard (boolean marking predicate).
    pub fn guard(mut self, g: Expr) -> Self {
        self.t.guard = Some(g);
        self
    }

    /// Set the memory policy (timed transitions only; ignored otherwise).
    pub fn memory(mut self, m: MemoryPolicy) -> Self {
        self.t.memory = m;
        self
    }

    /// Finish; returns the transition id.
    pub fn build(self) -> TransitionId {
        let id = TransitionId::from_index(self.net.transitions.len());
        self.net.transitions.push(self.t);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_net_builds() {
        let mut b = NetBuilder::new("min");
        let p = b.place("p").tokens(1).build();
        b.transition("t", Timing::immediate()).input(p, 1).build();
        assert!(b.build().is_ok());
    }

    #[test]
    fn duplicate_place_name_rejected() {
        let mut b = NetBuilder::new("dup");
        b.place("x").build();
        b.place("x").build();
        b.transition("t", Timing::immediate()).build();
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicatePlaceName("x".into())
        );
    }

    #[test]
    fn duplicate_transition_name_rejected() {
        let mut b = NetBuilder::new("dup");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate()).input(p, 1).build();
        b.transition("t", Timing::immediate()).input(p, 1).build();
        assert_eq!(
            b.build().unwrap_err(),
            BuildError::DuplicateTransitionName("t".into())
        );
    }

    #[test]
    fn empty_net_rejected() {
        let b = NetBuilder::new("empty");
        assert_eq!(b.build().unwrap_err(), BuildError::NoTransitions);
    }

    #[test]
    fn bad_timing_rejected() {
        let mut b = NetBuilder::new("badtiming");
        let p = b.place("p").build();
        b.transition("t", Timing::exponential(-1.0))
            .input(p, 1)
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::InvalidTiming { .. }
        ));
    }

    #[test]
    fn zero_multiplicity_rejected() {
        let mut b = NetBuilder::new("zero");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate()).input(p, 0).build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ZeroMultiplicity { .. }
        ));
    }

    #[test]
    fn zero_inhibitor_threshold_rejected() {
        let mut b = NetBuilder::new("zeroinh");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate())
            .inhibitor(p, 0)
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ZeroMultiplicity { .. }
        ));
    }

    #[test]
    fn bad_transfer_index_rejected() {
        let mut b = NetBuilder::new("badtransfer");
        let p = b.place("p").build();
        let q = b.place("q").build();
        b.transition("t", Timing::immediate())
            .input(p, 1)
            .output_colored(q, 1, ColorExpr::Transfer { arc_index: 5 })
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadTransferIndex { index: 5, .. }
        ));
    }

    #[test]
    fn empty_choice_rejected() {
        let mut b = NetBuilder::new("badchoice");
        let q = b.place("q").build();
        b.transition("t", Timing::exponential(1.0))
            .output_colored(q, 1, ColorExpr::Choice(vec![]))
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::BadChoice { .. }
        ));
    }

    #[test]
    fn ill_typed_guard_rejected() {
        let mut b = NetBuilder::new("badguard");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate())
            .input(p, 1)
            .guard(Expr::constant(1)) // int, not bool
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::IllTypedGuard { .. }
        ));
    }

    #[test]
    fn guard_place_out_of_range_rejected() {
        let mut b = NetBuilder::new("oorguard");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate())
            .input(p, 1)
            .guard(Expr::count(PlaceId::from_index(99)).gt_c(0))
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::GuardPlaceOutOfRange { .. }
        ));
    }

    #[test]
    fn reserved_color_rejected() {
        let mut b = NetBuilder::new("reserved");
        b.place("p").token_colored(Color(u32::MAX)).build();
        b.transition("t", Timing::immediate()).build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::ReservedColor { .. }
        ));
    }

    #[test]
    fn colored_initial_tokens() {
        let mut b = NetBuilder::new("colors");
        let p = b
            .place("p")
            .token_colored(Color(1))
            .token_colored(Color(2))
            .build();
        b.transition("t", Timing::immediate()).input(p, 1).build();
        let net = b.build().unwrap();
        let m = net.initial_marking();
        assert_eq!(m.count(p), 2);
        assert_eq!(m.count_color(p, Color(1)), 1);
        assert_eq!(m.count_color(p, Color(2)), 1);
    }

    #[test]
    fn duplicate_input_arc_place_rejected() {
        let mut b = NetBuilder::new("duparc");
        let p = b.place("p").tokens(2).build();
        b.transition("t", Timing::immediate())
            .input(p, 1)
            .input(p, 1)
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::DuplicateArcPlace { .. }
        ));
    }

    #[test]
    fn duplicate_inhibitor_arc_place_rejected() {
        let mut b = NetBuilder::new("dupinh");
        let p = b.place("p").build();
        b.transition("t", Timing::immediate())
            .inhibitor(p, 1)
            .inhibitor(p, 2)
            .build();
        assert!(matches!(
            b.build().unwrap_err(),
            BuildError::DuplicateArcPlace { .. }
        ));
    }

    #[test]
    fn color_flow_marks_reachable_places() {
        // src holds a colored token; `stage` receives it via Transfer;
        // `plain` only ever sees NONE tokens; `chosen` gets Choice colors.
        let mut b = NetBuilder::new("flow");
        let src = b.place("src").token_colored(Color(2)).build();
        let stage = b.place("stage").build();
        let plain = b.place("plain").tokens(1).build();
        let chosen = b.place("chosen").build();
        b.transition("move", Timing::immediate())
            .input(src, 1)
            .output_colored(stage, 1, ColorExpr::Transfer { arc_index: 0 })
            .build();
        b.transition("cycle", Timing::exponential(1.0))
            .input(plain, 1)
            .output(plain, 1)
            .build();
        b.transition("pick", Timing::exponential(1.0))
            .output_colored(chosen, 1, ColorExpr::Choice(vec![(Color(1), 1.0)]))
            .build();
        let net = b.build().unwrap();
        assert!(net.place_may_hold_colors(src));
        assert!(
            net.place_may_hold_colors(stage),
            "Transfer propagates color"
        );
        assert!(net.place_may_hold_colors(chosen), "Choice produces color");
        assert!(!net.place_may_hold_colors(plain), "plain stays count-only");
    }

    #[test]
    fn color_domains_become_slots() {
        use crate::net::ColorCountAt;
        // `buf` receives Const 2 and Choice {1, 3}, and an Eq(5) input asks
        // for a color nothing deposits; `stage` inherits buf's domain via
        // Transfer; `wide` gets more colors than the slot cap.
        let mut b = NetBuilder::new("domains");
        let buf = b.place("buf").build();
        let stage = b.place("stage").build();
        let wide = b.place("wide").build();
        let plain = b.place("plain").tokens(1).build();
        b.transition("gen", Timing::exponential(1.0))
            .output_colored(buf, 1, ColorExpr::Const(Color(2)))
            .output_colored(
                buf,
                1,
                ColorExpr::Choice(vec![(Color(3), 1.0), (Color(1), 1.0)]),
            )
            .build();
        b.transition("dead", Timing::exponential(1.0))
            .input_filtered(buf, 1, ColorFilter::Eq(Color(5)))
            .build();
        b.transition("move", Timing::immediate())
            .input(buf, 1)
            .output_colored(stage, 1, ColorExpr::Transfer { arc_index: 0 })
            .build();
        let many: Vec<(Color, f64)> = (1..=MAX_COLOR_SLOTS as u32 + 1)
            .map(|c| (Color(c), 1.0))
            .collect();
        b.transition("spray", Timing::exponential(1.0))
            .input(plain, 1)
            .output(plain, 1)
            .output_colored(wide, 1, ColorExpr::Choice(many))
            .build();
        let net = b.build().unwrap();
        let colors = |cs: &[u32]| cs.iter().map(|&c| Color(c)).collect::<Vec<_>>();
        assert_eq!(net.slot_colors(buf), colors(&[1, 2, 3, 5]));
        assert_eq!(net.slot_colors(stage), colors(&[1, 2, 3, 5]));
        assert!(net.slot_colors(wide).is_empty(), "over the cap: bag only");
        assert!(net.slot_colors(plain).is_empty(), "count-only place");
        assert!(matches!(
            net.color_count_at(buf, Color(3)),
            ColorCountAt::Dense(i) if i as usize >= net.num_places()
        ));
        assert_eq!(net.color_count_at(buf, Color(9)), ColorCountAt::AlwaysZero);
        assert_eq!(net.color_count_at(wide, Color(1)), ColorCountAt::Bag);
        assert_eq!(
            net.color_count_at(plain, Color::NONE),
            ColorCountAt::Dense(plain.index() as u32)
        );
        assert_eq!(
            net.color_count_at(plain, Color(1)),
            ColorCountAt::AlwaysZero
        );
    }

    #[test]
    fn place_with_shorthand() {
        let mut b = NetBuilder::new("shorthand");
        let p = b.place_with("p", 3);
        b.transition("t", Timing::immediate()).input(p, 1).build();
        let net = b.build().unwrap();
        assert_eq!(net.initial_marking().count(p), 3);
    }
}
