//! Spans recorded from outside the program, around each call the
//! benchmark makes into a layer.
//!
//! A span is `(name, start, end, parent)`. Spans live in memory while a
//! run goes on and are written out as JSON lines when it ends. A layer's
//! *self time* is its span's duration minus the part of that interval
//! its child spans cover; the benchmark reports it for the timed
//! operation, whose children are the layer calls it makes.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `runtime.engine.run`.
    pub name: &'static str,
    /// Start, seconds since the tracer's epoch.
    pub start_s: f64,
    /// End, seconds since the tracer's epoch.
    pub end_s: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock length of the span.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records spans when enabled; when disabled, [`Tracer::span`] only
/// calls its closure, so untraced runs pay nothing but a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or stays silent.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Switches recording on or off (between spans, never inside one).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "cannot toggle tracing inside a span");
        self.enabled = enabled;
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.epoch.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    /// Self times of every span called `name`, in start order.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        let all = self_times(&self.spans);
        self.spans
            .iter()
            .zip(all)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start_s, s.end_s
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its direct children's intervals, each clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_s.max(parent.start_s), s.end_s.min(parent.end_s));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_s() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_s: f64, end_s: f64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_s,
            end_s,
            parent,
        }
    }

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn a_leaf_span_is_all_self_time() {
        let t = self_times(&[span(1.0, 3.5, None)]);
        assert!(close(t[0], 2.5));
    }

    #[test]
    fn disjoint_children_are_subtracted() {
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 3.0, Some(0)),
            span(5.0, 6.0, Some(0)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 7.0));
        assert!(close(t[1], 2.0));
        assert!(close(t[2], 1.0));
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = [
            span(0.0, 10.0, None),
            span(1.0, 4.0, Some(0)),
            span(3.0, 6.0, Some(0)),
            span(2.0, 3.0, Some(0)),
        ];
        assert!(close(self_times(&spans)[0], 5.0));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(2.0, 5.0, None),
            span(1.0, 3.0, Some(0)),
            span(4.0, 9.0, Some(0)),
        ];
        assert!(close(self_times(&spans)[0], 1.0));
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0.0, 10.0, None),
            span(2.0, 8.0, Some(0)),
            span(3.0, 4.0, Some(1)),
        ];
        let t = self_times(&spans);
        assert!(close(t[0], 4.0));
        assert!(close(t[1], 5.0));
        assert!(close(t[2], 1.0));
    }

    #[test]
    fn the_tracer_nests_spans_and_stays_silent_when_disabled() {
        let mut tracer = Tracer::new(false);
        tracer.span("outer", |t| t.span("inner", |_| ()));
        assert!(tracer.spans().is_empty());

        tracer.set_enabled(true);
        let out = tracer.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(out, 7);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[1].start_s >= spans[0].start_s && spans[1].end_s <= spans[0].end_s);
        assert_eq!(tracer.durations("inner").len(), 1);
        let own = tracer.self_times("outer")[0];
        assert!(own >= 0.0 && own <= spans[0].duration_s());
    }
}
