//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic behind the per-layer budget.
//!
//! A span holds a name, start, end, its parent and the id of the
//! request it belongs to. Spans live in memory while the workload runs
//! and are written out once it ends. A span's *self time* is its
//! duration minus the part of its interval its child spans cover (the
//! union of the children, so overlapping children count once). The
//! self time of a root span is the time no layer accounts for.

use std::io::Write;
use std::time::Instant;

use crate::stats::Samples;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// `layer.function`, or a bare name for a request's root span.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The request every span of one request shares.
    pub request: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: the name up to the first `.`, or
    /// `None` for a root span.
    pub fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

/// A span recorder. When off, [`Tracer::enter`] and [`Tracer::exit`]
/// do nothing and never read the clock.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    next_request: u64,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_request: 0,
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Closes every open span (after a caught panic).
    pub fn close_all(&mut self) {
        while !self.stack.is_empty() {
            self.exit();
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; a span opened with
    /// nothing open starts a new request.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.stack.last().copied();
        let request = match parent {
            Some(p) => self.spans[p].request,
            None => {
                self.next_request += 1;
                self.next_request
            }
        };
        let start = self.now();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            request,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let id = self.stack.pop().expect("exit matches an enter");
        self.spans[id].end = end;
    }

    /// Runs `f` under a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Self time (ns) of every span, aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur() - covered(&mut kids))
        .collect()
}

/// Length of the union of intervals.
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in intervals.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The per-layer budget of one traced run.
pub struct Budget<'a> {
    /// Σ root-span durations, ns: the end-to-end time traced.
    pub e2e_ns: u64,
    /// Σ root-span self time, ns: time no layer accounts for.
    pub unaccounted_ns: u64,
    self_ns: Vec<u64>,
    spans: &'a [Span],
}

impl<'a> Budget<'a> {
    /// Computes self times and the residual over `spans`.
    pub fn new(spans: &'a [Span]) -> Self {
        let self_ns = self_times(spans);
        let mut e2e_ns = 0;
        let mut unaccounted_ns = 0;
        for (s, &own) in spans.iter().zip(&self_ns) {
            if s.parent.is_none() {
                e2e_ns += s.dur();
                unaccounted_ns += own;
            }
        }
        Budget {
            e2e_ns,
            unaccounted_ns,
            self_ns,
            spans,
        }
    }

    /// `(e2e − Σ layer self time) / e2e`.
    pub fn unaccounted_fraction(&self) -> f64 {
        crate::stats::ratio(self.unaccounted_ns as f64, self.e2e_ns as f64)
    }

    /// Self times (µs) of every span named `name`.
    pub fn self_us(&self, name: &str) -> Samples {
        Samples::new(
            self.spans
                .iter()
                .zip(&self.self_ns)
                .filter(|(s, _)| s.name == name)
                .map(|(_, &ns)| ns as f64 / 1e3)
                .collect(),
        )
    }

    /// A layer's share of the end-to-end time: Σ self time of its
    /// spans over Σ root durations.
    pub fn layer_share(&self, layer: &str) -> f64 {
        let own: u64 = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| s.layer() == Some(layer))
            .map(|(_, &ns)| ns)
            .sum();
        crate::stats::ratio(own as f64, self.e2e_ns as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        let spans = [
            span("request", 0, 100, None),
            span("a.x", 10, 40, Some(0)),
            span("a.y", 50, 90, Some(0)),
            span("b.z", 60, 70, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 30, 10]);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped() {
        let spans = [
            span("request", 100, 200, None),
            span("a.x", 110, 150, Some(0)),
            span("a.y", 130, 170, Some(0)),
            // Starts before its parent: only the overlap counts.
            span("a.z", 90, 105, Some(0)),
            // Contained in an earlier sibling: adds nothing.
            span("a.w", 140, 145, Some(0)),
        ];
        // Covered: [100,105) ∪ [110,170) = 5 + 60.
        assert_eq!(self_times(&spans)[0], 35);
    }

    #[test]
    fn residual_is_root_self_time_over_root_duration() {
        let spans = [
            span("request", 0, 100, None),
            span("a.x", 0, 60, Some(0)),
            span("b.y", 60, 90, Some(0)),
            span("request", 200, 300, None),
            span("a.x", 200, 300, Some(3)),
        ];
        let b = Budget::new(&spans);
        assert_eq!(b.e2e_ns, 200);
        assert_eq!(b.unaccounted_ns, 10);
        assert!((b.unaccounted_fraction() - 0.05).abs() < 1e-12);
        assert!((b.layer_share("a") - 0.8).abs() < 1e-12);
        assert!((b.layer_share("b") - 0.15).abs() < 1e-12);
        let shares = b.layer_share("a") + b.layer_share("b") + b.unaccounted_fraction();
        assert!((shares - 1.0).abs() < 1e-12);
        let x = b.self_us("a.x");
        assert_eq!(x.len(), 2);
        assert!((x.sum() - 0.16).abs() < 1e-9);
    }

    #[test]
    fn tracer_links_parents_and_requests() {
        let mut t = Tracer::new(true);
        t.span("request", || ());
        t.enter("request");
        t.span("a.x", || ());
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].request), (None, 1));
        assert_eq!((s[1].parent, s[1].request), (None, 2));
        assert_eq!((s[2].parent, s[2].request), (Some(1), 2));
        assert!(s[1].start <= s[2].start && s[2].end <= s[1].end);
        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", || 7), 7);
        assert!(off.spans().is_empty());
    }
}
