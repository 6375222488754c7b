//! Benchmark-side spans for the traced run.
//!
//! The traced run wraps every call into a layer in a span recorded here,
//! from the benchmark's own code: nothing inside the program changes.
//! Spans nest; a span's *self time* is its duration minus the durations of
//! its direct children, so the self times of a tree sum to its root's wall.
//! The share of the root's wall that lands in layer spans (everything but
//! the root's own self time) is the ledger check: it must reach
//! [`MIN_ATTRIBUTED`].

use std::collections::BTreeMap;
use std::time::Instant;

/// Least share of the traced wall the layer spans must cover.
pub const MIN_ATTRIBUTED: f64 = 0.95;

/// One closed span; times in seconds from the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// In-memory span collector, read out once the run ends.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_s = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name: name.to_string(),
            parent: self.open.last().copied(),
            start_s,
            end_s: start_s,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in span order.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.duration();
        }
    }
    own
}

/// Self time summed per span name.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t;
    }
    out
}

/// Share of the root spans' wall covered by their descendants' self
/// times (1 − the roots' own self time / their wall).
pub fn attributed_fraction(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (wall, unattributed) = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.parent.is_none())
        .fold((0.0, 0.0), |(w, u), (s, t)| (w + s.duration(), u + t));
    if wall > 0.0 {
        1.0 - unattributed / wall
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, parent: Option<usize>, start_s: f64, end_s: f64) -> Span {
        Span {
            name: name.into(),
            parent,
            start_s,
            end_s,
        }
    }

    #[test]
    fn self_times_sum_to_the_traced_wall() {
        // run [0, 10] ⊃ repro [0, 4] ⊃ target [0.5, 3.5]; grid [4.2, 9.9].
        let spans = vec![
            span("run", None, 0.0, 10.0),
            span("repro", Some(0), 0.0, 4.0),
            span("target", Some(1), 0.5, 3.5),
            span("grid", Some(0), 4.2, 9.9),
        ];
        let own = self_times(&spans);
        let sum: f64 = own.iter().sum();
        assert!((sum - 10.0).abs() < 1e-12);
        assert!((own[0] - 0.3).abs() < 1e-12);
        assert!((own[1] - 1.0).abs() < 1e-12);
        // The layer spans cover 9.7 of 10 s: within the 5% ledger rule.
        let covered = attributed_fraction(&spans);
        assert!((covered - 0.97).abs() < 1e-12);
        assert!(covered >= MIN_ATTRIBUTED);
        let by_name = self_by_name(&spans);
        assert!((by_name["grid"] - 5.7).abs() < 1e-12);
    }

    #[test]
    fn a_gap_between_layers_fails_the_ledger_rule() {
        let spans = vec![
            span("run", None, 0.0, 10.0),
            span("a", Some(0), 0.0, 4.0),
            span("b", Some(0), 5.0, 9.0),
        ];
        assert!(attributed_fraction(&spans) < MIN_ATTRIBUTED);
    }

    #[test]
    fn recorder_nests_spans_and_covers_the_wall() {
        let mut rec = Recorder::default();
        rec.span("run", |rec| {
            rec.span("a", |rec| {
                rec.span("a.inner", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(20))
                })
            });
            rec.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[3].parent, Some(0));
        let sum: f64 = self_times(spans).iter().sum();
        assert!((sum - spans[0].duration()).abs() < 1e-9);
        assert!(attributed_fraction(spans) >= MIN_ATTRIBUTED);
    }
}
