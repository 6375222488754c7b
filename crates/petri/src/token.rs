//! Colored tokens and token bags.
//!
//! In a Stochastic *Colored* Petri Net (SCPN) every token carries a value —
//! its *color*. The paper (Sec. VI) uses colors to select among the DVS
//! service levels `DVS_1`, `DVS_2`, `DVS_3`: "Tokens of different values
//! result in different execution speeds". Uncolored nets simply use
//! [`Color::NONE`] everywhere.
//!
//! A [`TokenBag`] is the contents of one place: a FIFO multiset of colors.
//! FIFO order matters only when an input arc's color filter matches several
//! tokens; consuming the oldest matching token gives deterministic,
//! fair behaviour.

use std::collections::VecDeque;

/// A token color: a small integer attribute attached to each token.
///
/// `Color(0)` ([`Color::NONE`]) is the conventional color of uncolored nets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Color(pub u32);

impl Color {
    /// The default color carried by tokens of uncolored nets.
    pub const NONE: Color = Color(0);
}

impl From<u32> for Color {
    #[inline]
    fn from(v: u32) -> Self {
        Color(v)
    }
}

impl std::fmt::Display for Color {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A predicate over token colors, used as the *local guard* of an input arc.
///
/// TimeNET's local guards (e.g. `dvs1 == 1.0` in Table XI of the paper)
/// restrict which tokens may enable a transition through a given arc.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum ColorFilter {
    /// Any token matches (the default for uncolored nets).
    #[default]
    Any,
    /// Only tokens of exactly this color match.
    Eq(Color),
    /// Tokens of any listed color match.
    In(Vec<Color>),
    /// Tokens of any color except this one match.
    Ne(Color),
}

impl ColorFilter {
    /// Does `c` satisfy this filter?
    #[inline]
    pub fn matches(&self, c: Color) -> bool {
        match self {
            ColorFilter::Any => true,
            ColorFilter::Eq(x) => c == *x,
            ColorFilter::In(xs) => xs.contains(&c),
            ColorFilter::Ne(x) => c != *x,
        }
    }
}

/// FIFO multiset of token colors held by one place.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TokenBag {
    tokens: VecDeque<Color>,
}

impl TokenBag {
    /// Empty bag.
    pub fn new() -> Self {
        TokenBag {
            tokens: VecDeque::new(),
        }
    }

    /// Bag holding `n` tokens of [`Color::NONE`].
    pub fn with_plain(n: usize) -> Self {
        TokenBag {
            tokens: (0..n).map(|_| Color::NONE).collect(),
        }
    }

    /// Bag holding the given colors in FIFO order.
    pub fn with_colors(colors: &[Color]) -> Self {
        TokenBag {
            tokens: colors.iter().copied().collect(),
        }
    }

    /// Total token count.
    #[inline]
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Is the bag empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Number of tokens of exactly color `c`.
    #[inline]
    pub fn count_color(&self, c: Color) -> usize {
        self.tokens.iter().filter(|&&t| t == c).count()
    }

    /// Number of tokens matching `filter`.
    #[inline]
    pub fn count_matching(&self, filter: &ColorFilter) -> usize {
        match filter {
            // Fast path: no scan needed for `Any`.
            ColorFilter::Any => self.tokens.len(),
            _ => self.tokens.iter().filter(|&&t| filter.matches(t)).count(),
        }
    }

    /// Deposit a token of color `c` at the back of the FIFO.
    #[inline]
    pub fn push(&mut self, c: Color) {
        self.tokens.push_back(c);
    }

    /// Remove and return the oldest token matching `filter`, if any.
    pub fn take_matching(&mut self, filter: &ColorFilter) -> Option<Color> {
        match filter {
            ColorFilter::Any => self.tokens.pop_front(),
            _ => {
                let idx = self.tokens.iter().position(|&t| filter.matches(t))?;
                self.tokens.remove(idx)
            }
        }
    }

    /// Iterate over the colors currently in the bag (FIFO order).
    pub fn iter(&self) -> impl Iterator<Item = Color> + '_ {
        self.tokens.iter().copied()
    }

    /// Remove all tokens.
    pub fn clear(&mut self) {
        self.tokens.clear();
    }

    /// Replace the contents with `colors`, in FIFO order.
    pub(crate) fn refill(&mut self, colors: impl Iterator<Item = Color>) {
        self.tokens.clear();
        self.tokens.extend(colors);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_bag_counts() {
        let bag = TokenBag::with_plain(3);
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.count_color(Color::NONE), 3);
        assert_eq!(bag.count_color(Color(1)), 0);
        assert!(!bag.is_empty());
    }

    #[test]
    fn colored_bag_counts() {
        let bag = TokenBag::with_colors(&[Color(1), Color(2), Color(1)]);
        assert_eq!(bag.len(), 3);
        assert_eq!(bag.count_color(Color(1)), 2);
        assert_eq!(bag.count_color(Color(2)), 1);
    }

    #[test]
    fn filter_any_matches_all() {
        assert!(ColorFilter::Any.matches(Color(0)));
        assert!(ColorFilter::Any.matches(Color(99)));
    }

    #[test]
    fn filter_eq() {
        let f = ColorFilter::Eq(Color(2));
        assert!(f.matches(Color(2)));
        assert!(!f.matches(Color(3)));
    }

    #[test]
    fn filter_in() {
        let f = ColorFilter::In(vec![Color(1), Color(3)]);
        assert!(f.matches(Color(1)));
        assert!(f.matches(Color(3)));
        assert!(!f.matches(Color(2)));
    }

    #[test]
    fn filter_ne() {
        let f = ColorFilter::Ne(Color(1));
        assert!(!f.matches(Color(1)));
        assert!(f.matches(Color(0)));
    }

    #[test]
    fn take_matching_is_fifo() {
        let mut bag = TokenBag::with_colors(&[Color(1), Color(2), Color(1)]);
        // Oldest matching token of color 1 is at the front.
        assert_eq!(
            bag.take_matching(&ColorFilter::Eq(Color(1))),
            Some(Color(1))
        );
        assert_eq!(bag.len(), 2);
        // Remaining front token is color 2.
        assert_eq!(bag.take_matching(&ColorFilter::Any), Some(Color(2)));
        assert_eq!(bag.take_matching(&ColorFilter::Any), Some(Color(1)));
        assert_eq!(bag.take_matching(&ColorFilter::Any), None);
    }

    #[test]
    fn take_matching_skips_nonmatching() {
        let mut bag = TokenBag::with_colors(&[Color(5), Color(7)]);
        assert_eq!(
            bag.take_matching(&ColorFilter::Eq(Color(7))),
            Some(Color(7))
        );
        // Color 5 left untouched at the front.
        assert_eq!(bag.take_matching(&ColorFilter::Any), Some(Color(5)));
    }

    #[test]
    fn take_matching_none_when_no_match() {
        let mut bag = TokenBag::with_colors(&[Color(5)]);
        assert_eq!(bag.take_matching(&ColorFilter::Eq(Color(7))), None);
        assert_eq!(bag.len(), 1);
    }

    #[test]
    fn count_matching_filters() {
        let bag = TokenBag::with_colors(&[Color(1), Color(2), Color(1), Color(3)]);
        assert_eq!(bag.count_matching(&ColorFilter::Any), 4);
        assert_eq!(bag.count_matching(&ColorFilter::Eq(Color(1))), 2);
        assert_eq!(
            bag.count_matching(&ColorFilter::In(vec![Color(2), Color(3)])),
            2
        );
        assert_eq!(bag.count_matching(&ColorFilter::Ne(Color(1))), 2);
    }

    #[test]
    fn clear_empties() {
        let mut bag = TokenBag::with_plain(5);
        bag.clear();
        assert!(bag.is_empty());
    }
}
