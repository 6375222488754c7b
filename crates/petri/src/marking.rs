//! Markings: the global token state of a net.
//!
//! A [`Marking`] is stored as a dense per-place count vector plus a colored
//! side-table: only places that can ever hold a non-[`Color::NONE`] token
//! (decided once, at [`crate::builder::NetBuilder::build`] time, by a
//! color-flow fixpoint) materialize a FIFO [`TokenBag`]. On the paper's
//! uncolored nets every token operation — `count`, `count_matching`,
//! `deposit`, `withdraw` with [`ColorFilter::Any`] — is an O(1) integer
//! operation on the count vector, and [`Marking::canonical_key`] is simply
//! that vector, which is what makes the simulator's enabling checks and the
//! reachability explorer's hashing cheap.
//!
//! A colored place with a small finite color domain also keeps one dense
//! count per (place, color) pair — a *color slot* — appended to the same
//! count vector, so the simulator reads "tokens of color `c` in `p`" as one
//! load instead of a FIFO scan. The bag stays the source of token order.
//!
//! The simulator mutates a single marking in place; analysis code clones
//! markings to explore the reachability graph. FIFO order within a colored
//! place is a simulation artifact and must not distinguish states, so the
//! canonical key sorts colors within each place.

use crate::ids::PlaceId;
use crate::token::{Color, ColorFilter, TokenBag};
use std::sync::Arc;

/// Storage layout shared by every marking of one net (refcounted, never
/// mutated after construction): which places materialize a color bag, and
/// which (place, color) pairs keep a color slot beside it.
#[derive(Debug)]
pub(crate) struct MarkingLayout {
    /// `colored[p]`: place `p` materializes a color bag.
    colored: Vec<bool>,
    /// Place `p`'s slots are `slot_off[p]..slot_off[p + 1]`.
    slot_off: Vec<u32>,
    /// Color counted by each slot; slot `k` lives at count index `np + k`.
    slot_color: Vec<Color>,
    /// Place owning each slot.
    slot_place: Vec<u32>,
    /// The places with a bag, ascending.
    bagged: Vec<u32>,
}

impl MarkingLayout {
    /// A layout with the given bag mask and, per place, the colors that get
    /// a slot (ignored for places whose mask entry is `false`).
    pub(crate) fn new(colored: Vec<bool>, slots: &[Vec<Color>]) -> Self {
        let mut slot_off = Vec::with_capacity(colored.len() + 1);
        let mut slot_color = Vec::new();
        let mut slot_place = Vec::new();
        slot_off.push(0);
        for (p, &is_colored) in colored.iter().enumerate() {
            if is_colored {
                for &c in slots.get(p).map_or(&[][..], Vec::as_slice) {
                    slot_color.push(c);
                    slot_place.push(p as u32);
                }
            }
            slot_off.push(slot_color.len() as u32);
        }
        let bagged = (0..colored.len() as u32)
            .filter(|&p| colored[p as usize])
            .collect();
        MarkingLayout {
            colored,
            slot_off,
            slot_color,
            slot_place,
            bagged,
        }
    }

    /// A layout with the given bag mask and no color slots.
    pub(crate) fn masked(colored: Vec<bool>) -> Self {
        MarkingLayout::new(colored, &[])
    }

    /// Number of places.
    #[inline]
    pub(crate) fn num_places(&self) -> usize {
        self.colored.len()
    }

    /// Does place `p` materialize a color bag?
    #[inline]
    pub(crate) fn is_colored(&self, p: usize) -> bool {
        self.colored[p]
    }

    /// The colors with a slot in place `p` (empty for count-only places and
    /// for colored places whose domain was too large to slot).
    #[inline]
    pub(crate) fn slot_colors(&self, p: usize) -> &[Color] {
        &self.slot_color[self.slot_off[p] as usize..self.slot_off[p + 1] as usize]
    }

    /// Count index of the slot for color `c` in place `p`, if it has one.
    #[inline]
    pub(crate) fn slot(&self, p: usize, c: Color) -> Option<u32> {
        let lo = self.slot_off[p] as usize;
        self.slot_colors(p)
            .iter()
            .position(|&x| x == c)
            .map(|k| (self.colored.len() + lo + k) as u32)
    }

    /// The (place, color) pair a slot's count index stands for.
    #[inline]
    fn slot_owner(&self, slot: u32) -> (usize, Color) {
        let k = slot as usize - self.colored.len();
        (self.slot_place[k] as usize, self.slot_color[k])
    }
}

/// The token distribution over all places of a net.
#[derive(Debug, Clone)]
pub struct Marking {
    /// Total tokens per place — the single source of truth for counts —
    /// followed by one count per color slot.
    counts: Vec<u32>,
    /// Bag mask and color slots, shared between all markings of one net.
    layout: Arc<MarkingLayout>,
    /// FIFO color bags; maintained only for colored places, empty
    /// otherwise (their tokens are implicitly all [`Color::NONE`]).
    bags: Vec<TokenBag>,
    /// Number of non-[`Color::NONE`] tokens currently present, maintained on
    /// deposit/withdraw. Zero ⇔ the marking is semantically uncolored, which
    /// selects the dense [`Marking::canonical_key`] encoding regardless of
    /// layout.
    colored_tokens: u32,
}

impl Marking {
    /// A marking with `n` empty places, all of which may hold colors (the
    /// fully general layout; nets build their own layout via
    /// [`crate::net::Net::initial_marking`]).
    pub fn empty(n: usize) -> Self {
        Marking::with_layout(MarkingLayout::masked(vec![true; n]).into())
    }

    /// A marking with one empty place per layout entry.
    pub(crate) fn with_layout(layout: Arc<MarkingLayout>) -> Self {
        let n = layout.num_places();
        Marking {
            counts: vec![0; n + layout.slot_color.len()],
            layout,
            bags: vec![TokenBag::new(); n],
            colored_tokens: 0,
        }
    }

    /// Build from explicit bags. All places are treated as colored; used by
    /// tests and external constructions that bypass a net.
    pub fn from_bags(places: Vec<TokenBag>) -> Self {
        let mut m = Marking::empty(places.len());
        for (i, bag) in places.into_iter().enumerate() {
            m.counts[i] = bag.len() as u32;
            m.colored_tokens += bag.iter().filter(|&c| c != Color::NONE).count() as u32;
            m.bags[i] = bag;
        }
        m
    }

    /// Number of places.
    #[inline]
    pub fn num_places(&self) -> usize {
        self.layout.num_places()
    }

    /// Total tokens in place `p`.
    #[inline]
    pub fn count(&self, p: PlaceId) -> usize {
        self.counts[p.index()] as usize
    }

    /// One entry of the dense count vector: a place total, or a color
    /// slot's count (engine hot path).
    #[inline]
    pub(crate) fn count_raw(&self, i: u32) -> u32 {
        self.counts[i as usize]
    }

    /// The dense count vector (engine and compiled-guard hot path).
    #[inline]
    pub(crate) fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// Tokens of color `c` in place `p`.
    #[inline]
    pub fn count_color(&self, p: PlaceId, c: Color) -> usize {
        let i = p.index();
        if self.layout.is_colored(i) {
            match self.layout.slot(i, c) {
                Some(s) => self.counts[s as usize] as usize,
                None => self.bags[i].count_color(c),
            }
        } else if c == Color::NONE {
            self.counts[i] as usize
        } else {
            0
        }
    }

    /// Tokens in `p` matching `filter`.
    #[inline]
    pub fn count_matching(&self, p: PlaceId, filter: &ColorFilter) -> usize {
        let i = p.index();
        match filter {
            ColorFilter::Any => self.counts[i] as usize,
            _ if self.layout.is_colored(i) => self.bags[i].count_matching(filter),
            _ if filter.matches(Color::NONE) => self.counts[i] as usize,
            _ => 0,
        }
    }

    /// Deposit one token of color `c` into `p`.
    ///
    /// For count-only places the builder's color-flow analysis guarantees
    /// `c == Color::NONE`; that invariant is checked in debug builds.
    #[inline]
    pub fn deposit(&mut self, p: PlaceId, c: Color) {
        let i = p.index();
        // Saturating: counts cap at u32::MAX, which always exceeds the
        // engines' (clamped) token limit, so overflow surfaces as
        // SimError::TokenOverflow instead of a silent wrap.
        self.counts[i] = self.counts[i].saturating_add(1);
        if self.layout.is_colored(i) {
            self.colored_tokens += (c != Color::NONE) as u32;
            self.bags[i].push(c);
            if let Some(s) = self.layout.slot(i, c) {
                self.counts[s as usize] = self.counts[s as usize].saturating_add(1);
            }
        } else {
            debug_assert_eq!(
                c,
                Color::NONE,
                "colored token deposited into place {i} that the color-flow \
                 analysis marked count-only"
            );
        }
    }

    /// Remove the oldest token in `p` matching `filter`.
    #[inline]
    pub fn withdraw(&mut self, p: PlaceId, filter: &ColorFilter) -> Option<Color> {
        let i = p.index();
        if self.layout.is_colored(i) {
            let taken = self.bags[i].take_matching(filter);
            if let Some(c) = taken {
                self.counts[i] -= 1;
                self.colored_tokens -= (c != Color::NONE) as u32;
                if let Some(s) = self.layout.slot(i, c) {
                    self.counts[s as usize] -= 1;
                }
            }
            taken
        } else if self.counts[i] > 0 && filter.matches(Color::NONE) {
            self.counts[i] -= 1;
            Some(Color::NONE)
        } else {
            None
        }
    }

    /// Bulk-deposit `n` plain tokens into a count-only place (engine fast
    /// path; the caller guarantees the place is count-only).
    #[inline]
    pub(crate) fn add_plain(&mut self, p: u32, n: u32) -> u32 {
        debug_assert!(!self.layout.is_colored(p as usize));
        let c = &mut self.counts[p as usize];
        // Saturating for the same reason as `deposit`.
        *c = c.saturating_add(n);
        *c
    }

    /// Bulk-withdraw `n` plain tokens from a count-only place (engine fast
    /// path; the caller guarantees enabledness, i.e. `count >= n`).
    #[inline]
    pub(crate) fn sub_plain(&mut self, p: u32, n: u32) {
        debug_assert!(!self.layout.is_colored(p as usize));
        debug_assert!(self.counts[p as usize] >= n);
        self.counts[p as usize] -= n;
    }

    /// Withdraw the `n` oldest tokens of a color slot's color from its place
    /// (engine fast path; the caller guarantees the slot holds `n`).
    #[inline]
    pub(crate) fn withdraw_slot(&mut self, slot: u32, n: u32) {
        let (p, c) = self.layout.slot_owner(slot);
        debug_assert!(self.counts[slot as usize] >= n);
        let filter = ColorFilter::Eq(c);
        for _ in 0..n {
            let taken = self.bags[p].take_matching(&filter);
            debug_assert_eq!(taken, Some(c));
        }
        self.counts[p] -= n;
        self.counts[slot as usize] -= n;
        if c != Color::NONE {
            self.colored_tokens -= n;
        }
    }

    /// Deposit `n` tokens of a color slot's color into its place (engine
    /// fast path), returning the place and its new total count.
    #[inline]
    pub(crate) fn deposit_slot(&mut self, slot: u32, n: u32) -> (usize, u32) {
        let (p, c) = self.layout.slot_owner(slot);
        for _ in 0..n {
            self.bags[p].push(c);
        }
        // Saturating for the same reason as `deposit`.
        self.counts[slot as usize] = self.counts[slot as usize].saturating_add(n);
        if c != Color::NONE {
            self.colored_tokens += n;
        }
        let total = &mut self.counts[p];
        *total = total.saturating_add(n);
        (p, *total)
    }

    /// Iterate the colors currently in place `p` (FIFO order; count-only
    /// places yield `Color::NONE` `count` times).
    pub fn colors(&self, p: PlaceId) -> impl Iterator<Item = Color> + '_ {
        let i = p.index();
        let (bag_iter, plain) = if self.layout.is_colored(i) {
            (Some(self.bags[i].iter()), 0)
        } else {
            (None, self.counts[i] as usize)
        };
        bag_iter
            .into_iter()
            .flatten()
            .chain(std::iter::repeat_n(Color::NONE, plain))
    }

    /// The per-place totals (the count vector without its color slots).
    #[inline]
    fn place_counts(&self) -> &[u32] {
        &self.counts[..self.num_places()]
    }

    /// Total tokens across all places.
    pub fn total_tokens(&self) -> usize {
        self.place_counts().iter().map(|&c| c as usize).sum()
    }

    /// A canonical, order-independent key identifying this marking.
    ///
    /// A marking currently holding no non-[`Color::NONE`] token returns the
    /// dense count vector directly (fixed length, no sentinels — the cheap
    /// path the reachability explorer and CTMC extraction hash millions of
    /// times). Otherwise the key encodes, per place: the token count, the
    /// sorted non-`NONE` colors (plain tokens are implied by the count),
    /// then the sentinel `u32::MAX` (a color the builder rejects). The
    /// encoding depends only on token *content*, never on the storage
    /// layout, and the two forms cannot collide (different lengths). Two
    /// markings that differ only in FIFO order within a place map to the
    /// same key.
    pub fn canonical_key(&self) -> Vec<u32> {
        let counts = self.place_counts();
        if self.colored_tokens == 0 {
            return counts.to_vec();
        }
        let mut key = Vec::with_capacity(self.colored_tokens as usize + 2 * counts.len());
        let mut scratch: Vec<u32> = Vec::new();
        for (i, &n) in counts.iter().enumerate() {
            key.push(n);
            if self.layout.is_colored(i) {
                scratch.clear();
                scratch.extend(
                    self.bags[i]
                        .iter()
                        .filter(|&c| c != Color::NONE)
                        .map(|c| c.0),
                );
                scratch.sort_unstable();
                key.extend_from_slice(&scratch);
            }
            key.push(u32::MAX);
        }
        key
    }

    /// Write this marking's exact state to `out`: the dense count vector
    /// (place totals, then color slots), then every bag in FIFO order,
    /// ascending by place. Unlike [`Marking::canonical_key`] the key keeps
    /// FIFO order, since it decides which token a withdrawal takes: two
    /// markings with equal keys fire identically, and
    /// [`Marking::load_memo_key`] restores the marking from its key.
    pub(crate) fn memo_key(&self, out: &mut Vec<u32>) {
        out.clear();
        out.extend_from_slice(&self.counts);
        for &p in &self.layout.bagged {
            out.extend(self.bags[p as usize].iter().map(|c| c.0));
        }
    }

    /// The memo key without a copy, when the marking has no bags: the
    /// dense count vector.
    #[inline]
    pub(crate) fn plain_memo_key(&self) -> Option<&[u32]> {
        self.layout.bagged.is_empty().then_some(&self.counts[..])
    }

    /// Overwrite this marking with the one [`Marking::memo_key`] wrote
    /// `key` from (same net). A bag's length is its place's total, so the
    /// key needs no separators.
    pub(crate) fn load_memo_key(&mut self, key: &[u32]) {
        let n = self.counts.len();
        self.counts.copy_from_slice(&key[..n]);
        let mut pos = n;
        self.colored_tokens = 0;
        for &p in &self.layout.bagged {
            let colors = &key[pos..pos + self.counts[p as usize] as usize];
            pos += colors.len();
            self.colored_tokens += colors.iter().filter(|&&c| c != Color::NONE.0).count() as u32;
            self.bags[p as usize].refill(colors.iter().map(|&c| Color(c)));
        }
        debug_assert_eq!(pos, key.len(), "memo key longer than its marking");
    }

    /// Vector of per-place token counts (ignores colors). Handy for
    /// invariant checking and display.
    pub fn count_vector(&self) -> Vec<usize> {
        self.place_counts().iter().map(|&c| c as usize).collect()
    }
}

impl PartialEq for Marking {
    fn eq(&self, other: &Self) -> bool {
        // The colored mask is net-derived metadata, not token state: two
        // markings are equal iff their counts and token colors (in FIFO
        // order) agree. A count-only place holds `count` implicit
        // `Color::NONE` tokens, so against a materialized bag it is equal
        // exactly when that bag is all-NONE of the same length.
        // Color slots are derived from the bags, so only the place totals
        // take part.
        if self.place_counts() != other.place_counts() {
            return false;
        }
        for i in 0..self.num_places() {
            let equal = match (self.layout.is_colored(i), other.layout.is_colored(i)) {
                (true, true) => self.bags[i] == other.bags[i],
                (false, false) => true,
                (true, false) => self.bags[i].iter().all(|c| c == Color::NONE),
                (false, true) => other.bags[i].iter().all(|c| c == Color::NONE),
            };
            if !equal {
                return false;
            }
        }
        true
    }
}

impl Eq for Marking {}

impl Default for Marking {
    fn default() -> Self {
        Marking::empty(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> PlaceId {
        PlaceId::from_index(i)
    }

    fn masked(mask: &[bool]) -> Marking {
        Marking::with_layout(MarkingLayout::masked(mask.to_vec()).into())
    }

    #[test]
    fn empty_marking() {
        let m = Marking::empty(3);
        assert_eq!(m.num_places(), 3);
        assert_eq!(m.total_tokens(), 0);
        assert_eq!(m.count(p(0)), 0);
    }

    #[test]
    fn deposit_withdraw_roundtrip() {
        let mut m = Marking::empty(2);
        m.deposit(p(0), Color(1));
        m.deposit(p(0), Color(2));
        m.deposit(p(1), Color::NONE);
        assert_eq!(m.count(p(0)), 2);
        assert_eq!(m.count(p(1)), 1);
        assert_eq!(m.total_tokens(), 3);
        assert_eq!(m.withdraw(p(0), &ColorFilter::Eq(Color(2))), Some(Color(2)));
        assert_eq!(m.count(p(0)), 1);
        assert_eq!(m.withdraw(p(0), &ColorFilter::Any), Some(Color(1)));
        assert_eq!(m.withdraw(p(0), &ColorFilter::Any), None);
    }

    #[test]
    fn count_only_places_behave_like_plain_bags() {
        let mut m = masked(&[false, true]);
        m.deposit(p(0), Color::NONE);
        m.deposit(p(0), Color::NONE);
        m.deposit(p(1), Color(3));
        assert_eq!(m.count(p(0)), 2);
        assert_eq!(m.count_color(p(0), Color::NONE), 2);
        assert_eq!(m.count_color(p(0), Color(1)), 0);
        assert_eq!(m.count_matching(p(0), &ColorFilter::Eq(Color::NONE)), 2);
        assert_eq!(m.count_matching(p(0), &ColorFilter::Eq(Color(1))), 0);
        assert_eq!(m.withdraw(p(0), &ColorFilter::Eq(Color(9))), None);
        assert_eq!(m.withdraw(p(0), &ColorFilter::Any), Some(Color::NONE));
        assert_eq!(m.count(p(0)), 1);
        // The colored place still tracks real colors.
        assert_eq!(m.count_color(p(1), Color(3)), 1);
    }

    #[test]
    fn canonical_key_ignores_fifo_order() {
        let mut a = Marking::empty(1);
        a.deposit(p(0), Color(2));
        a.deposit(p(0), Color(1));
        let mut b = Marking::empty(1);
        b.deposit(p(0), Color(1));
        b.deposit(p(0), Color(2));
        assert_ne!(a, b); // FIFO order differs...
        assert_eq!(a.canonical_key(), b.canonical_key()); // ...but the state is the same.
    }

    #[test]
    fn canonical_key_distinguishes_places() {
        let mut a = Marking::empty(2);
        a.deposit(p(0), Color(1));
        let mut b = Marking::empty(2);
        b.deposit(p(1), Color(1));
        assert_ne!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn canonical_key_dense_for_uncolored() {
        let mut m = masked(&[false, false, false]);
        m.deposit(p(1), Color::NONE);
        m.deposit(p(1), Color::NONE);
        // The uncolored key IS the count vector: no sentinels, no sorting.
        assert_eq!(m.canonical_key(), vec![0, 2, 0]);
    }

    #[test]
    fn colors_iterator_covers_both_layouts() {
        let mut m = masked(&[false, true]);
        m.deposit(p(0), Color::NONE);
        m.deposit(p(0), Color::NONE);
        m.deposit(p(1), Color(7));
        let plain: Vec<Color> = m.colors(p(0)).collect();
        assert_eq!(plain, vec![Color::NONE, Color::NONE]);
        let colored: Vec<Color> = m.colors(p(1)).collect();
        assert_eq!(colored, vec![Color(7)]);
    }

    #[test]
    fn canonical_key_is_layout_independent() {
        // Same token content, different storage layouts: identical keys.
        let mut dense = masked(&[false, true]);
        dense.deposit(p(0), Color::NONE);
        dense.deposit(p(1), Color(4));
        let mut general = Marking::empty(2);
        general.deposit(p(0), Color::NONE);
        general.deposit(p(1), Color(4));
        assert_eq!(dense.canonical_key(), general.canonical_key());

        // And once the colored token is gone, both collapse to the dense
        // count-vector key.
        assert_eq!(dense.withdraw(p(1), &ColorFilter::Any), Some(Color(4)));
        assert_eq!(general.withdraw(p(1), &ColorFilter::Any), Some(Color(4)));
        assert_eq!(dense.canonical_key(), vec![1, 0]);
        assert_eq!(general.canonical_key(), vec![1, 0]);
    }

    #[test]
    fn count_vector_matches() {
        let mut m = Marking::empty(3);
        m.deposit(p(1), Color::NONE);
        m.deposit(p(1), Color(4));
        assert_eq!(m.count_vector(), vec![0, 2, 0]);
    }

    #[test]
    fn equality_ignores_mask_layout_when_states_differ() {
        let mut a = Marking::empty(1);
        a.deposit(p(0), Color::NONE);
        let mut b = Marking::empty(1);
        b.deposit(p(0), Color(1));
        assert_ne!(a, b);
    }

    #[test]
    fn color_slots_track_per_color_counts() {
        // Place 0 is count-only; place 1 is colored with slots for 1 and 2.
        let layout = MarkingLayout::new(vec![false, true], &[vec![], vec![Color(1), Color(2)]]);
        let s1 = layout.slot(1, Color(1)).unwrap();
        let s2 = layout.slot(1, Color(2)).unwrap();
        assert_eq!((s1, s2), (2, 3), "slots follow the place totals");
        assert_eq!(layout.slot(1, Color(3)), None);
        assert_eq!(layout.slot(0, Color::NONE), None);
        let mut m = Marking::with_layout(layout.into());
        m.deposit(p(1), Color(2));
        m.deposit(p(1), Color(1));
        m.deposit(p(1), Color(2));
        assert_eq!((m.count_raw(s1), m.count_raw(s2)), (1, 2));
        assert_eq!(m.count_color(p(1), Color(2)), 2);
        // The slot fast paths keep bag, totals and slots in step, FIFO-oldest
        // first.
        m.withdraw_slot(s2, 1);
        assert_eq!(m.colors(p(1)).collect::<Vec<_>>(), [Color(1), Color(2)]);
        assert_eq!(m.deposit_slot(s1, 2), (1, 4));
        assert_eq!((m.count_raw(s1), m.count_raw(s2)), (3, 1));
        assert_eq!(m.withdraw(p(1), &ColorFilter::Any), Some(Color(1)));
        assert_eq!((m.count(p(1)), m.count_raw(s1)), (3, 2));
        // Slots are derived state: they never enter equality or the key.
        let mut general = Marking::empty(2);
        for c in m.colors(p(1)) {
            general.deposit(p(1), c);
        }
        assert_eq!(m, general);
        assert_eq!(m.canonical_key(), general.canonical_key());
        assert_eq!(m.count_vector(), vec![0, 3]);
        assert_eq!(m.total_tokens(), 3);
    }

    #[test]
    fn memo_key_keeps_fifo_order_and_round_trips() {
        let layout = Arc::new(MarkingLayout::new(
            vec![false, true, true],
            &[vec![], vec![Color(1), Color(2)], vec![]],
        ));
        let mut a = Marking::with_layout(layout.clone());
        a.deposit(p(0), Color::NONE);
        a.deposit(p(1), Color(2));
        a.deposit(p(1), Color(1));
        a.deposit(p(2), Color(7));
        let mut b = Marking::with_layout(layout.clone());
        b.deposit(p(0), Color::NONE);
        b.deposit(p(1), Color(1));
        b.deposit(p(1), Color(2));
        b.deposit(p(2), Color(7));
        let (mut ka, mut kb) = (Vec::new(), Vec::new());
        a.memo_key(&mut ka);
        b.memo_key(&mut kb);
        // Totals, two slot counts, then the bags of places 1 and 2.
        assert_eq!(ka, [1, 2, 1, 1, 1, 2, 1, 7]);
        assert_eq!(a.plain_memo_key(), None);
        assert_ne!(ka, kb, "FIFO order is part of the memo key");
        assert_eq!(a.canonical_key(), b.canonical_key());
        // Loading a key restores bags, slots and the colored-token count.
        let mut c = Marking::with_layout(layout);
        c.deposit(p(2), Color(3));
        c.load_memo_key(&ka);
        assert_eq!(c, a);
        assert_eq!(c.canonical_key(), a.canonical_key());
        assert_eq!(c.withdraw(p(1), &ColorFilter::Any), Some(Color(2)));
        assert_eq!(c.count_color(p(1), Color(2)), 0);
    }

    #[test]
    fn equality_is_layout_independent() {
        // Same token content in different storage layouts compares equal.
        let mut dense = masked(&[false, true]);
        dense.deposit(p(0), Color::NONE);
        dense.deposit(p(0), Color::NONE);
        dense.deposit(p(1), Color(3));
        let mut general = Marking::empty(2);
        general.deposit(p(0), Color::NONE);
        general.deposit(p(0), Color::NONE);
        general.deposit(p(1), Color(3));
        assert_eq!(dense, general);
        assert_eq!(general, dense);
        // And differing counts still differ.
        general.deposit(p(0), Color::NONE);
        assert_ne!(dense, general);
    }
}
