//! In-memory spans for the traced run.
//!
//! A span is a named interval recorded around one call into a layer,
//! with the span that was open when it began as its parent. Spans stay
//! in memory until the run ends; a layer's time is the sum of its
//! spans' self times (duration minus the child spans' durations),
//! so a layer that calls back into the benchmark is not charged for the
//! benchmark's own work.

use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    start: Instant,
    end: Option<Instant>,
}

/// A single-threaded span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    spans: Vec<Span>,
    open: Vec<SpanId>,
}

impl Spans {
    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: Instant::now(),
            end: None,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let now = Instant::now();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end = Some(now);
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Wall seconds of one closed span.
    pub fn duration(&self, id: SpanId) -> f64 {
        let s = &self.spans[id];
        s.end
            .expect("span closed")
            .duration_since(s.start)
            .as_secs_f64()
    }

    /// Total self time of the spans of each name: every span's
    /// duration minus its child spans' durations. Spans close innermost
    /// first, so a span's children are disjoint and lie inside it.
    pub fn totals(&self) -> BTreeMap<&'static str, f64> {
        let mut totals = BTreeMap::new();
        for (id, s) in self.spans.iter().enumerate() {
            let secs = self.duration(id);
            *totals.entry(s.name).or_insert(0.0) += secs;
            if let Some(p) = s.parent {
                *totals.entry(self.spans[p].name).or_insert(0.0) -= secs;
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A recorder with hand-placed intervals, in milliseconds from a
    /// common origin.
    fn fixed(spans: &[(&'static str, Option<SpanId>, u64, u64)]) -> Spans {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        Spans {
            spans: spans
                .iter()
                .map(|&(name, parent, a, b)| Span {
                    name,
                    parent,
                    start: at(a),
                    end: Some(at(b)),
                })
                .collect(),
            open: Vec::new(),
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn self_time_subtracts_children() {
        // parent 0..100 with children 10..30 and 50..60.
        let s = fixed(&[
            ("p", None, 0, 100),
            ("c", Some(0), 10, 30),
            ("c", Some(0), 50, 60),
        ]);
        let t = s.totals();
        assert!(close(t["p"], 0.070));
        assert!(close(t["c"], 0.030));
        assert!(close(s.duration(0), 0.100));
    }

    #[test]
    fn grandchildren_belong_to_their_own_parent() {
        let s = fixed(&[
            ("p", None, 0, 100),
            ("c", Some(0), 0, 50),
            ("g", Some(1), 10, 20),
        ]);
        let t = s.totals();
        assert!(close(t["p"], 0.050));
        assert!(close(t["c"], 0.040));
        assert!(close(t["g"], 0.010));
    }

    #[test]
    fn recorded_spans_nest() {
        let mut s = Spans::default();
        let outer = s.begin("outer");
        let inner = s.time("inner", || 7);
        assert_eq!(inner, 7);
        s.end(outer);
        assert_eq!(s.spans[1].parent, Some(outer));
        let t = s.totals();
        assert!(close(t["outer"] + t["inner"], s.duration(outer)));
    }
}
