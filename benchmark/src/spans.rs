//! In-memory spans for the traced run. Each span records a layer name, its
//! start and end, the span that caused it and the request or write it
//! served; they are written out once, when the run ends. Spans are taken
//! around calls into the program's public functions, from the benchmark's
//! own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request or write this span served.
    pub req: u64,
}

/// Per-name totals: how many spans, their summed duration, and their summed
/// self time (duration not covered by child spans).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Run `f` inside a span and return its result.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        self.span_ms(name, parent, req, f).0
    }

    /// Run `f` inside a span; return its result and the span's length in
    /// milliseconds.
    pub fn span_ms<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, req);
        let out = f();
        self.end(id);
        let s = &self.spans[id];
        (out, (s.end_ns - s.start_ns) as f64 / 1e6)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Take over spans recorded by another tracer (another thread), with
    /// their times moved onto this tracer's clock.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = other.epoch.saturating_duration_since(self.epoch).as_nanos() as u64;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + offset,
            end_ns: s.end_ns + offset,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// The spans as a JSON array of `{name, start_ns, end_ns, parent, req}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("]\n");
        out
    }
}

/// Each layer's total and self time. A span's self time is its duration
/// minus the part of its interval that its children cover; overlapping
/// children are counted once and time a child spends outside its parent is
/// not subtracted.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut cover: Vec<(u64, u64)> = children[i]
            .iter()
            .map(|&c| {
                let c = &spans[c];
                (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
            })
            .filter(|(a, b)| a < b)
            .collect();
        cover.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start_ns;
        for (a, b) in cover {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur - covered;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("write", 0, 100, None),
            span("step", 10, 30, Some(0)),
            span("persist", 50, 90, Some(0)),
            span("fsync", 60, 80, Some(2)),
        ];
        let t = layer_times(&spans);
        assert_eq!(t["write"].self_ns, 40);
        assert_eq!(t["write"].total_ns, 100);
        assert_eq!(t["step"].self_ns, 20);
        assert_eq!(t["persist"].self_ns, 20);
        assert_eq!(t["fsync"].self_ns, 20);
    }

    #[test]
    fn overlapping_children_count_once_and_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 100, 200, None),
            span("a", 90, 140, Some(0)),
            span("b", 120, 160, Some(0)),
            span("c", 190, 250, Some(0)),
        ];
        // Covered: [100,160) and [190,200) = 70.
        assert_eq!(layer_times(&spans)["parent"].self_ns, 30);
    }

    #[test]
    fn same_named_spans_accumulate() {
        let spans = vec![span("q", 0, 5, None), span("q", 10, 12, None)];
        let t = layer_times(&spans)["q"];
        assert_eq!((t.count, t.total_ns, t.self_ns), (2, 7, 7));
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::new();
        main.span("a", None, 1, || ());
        let mut other = Tracer::new();
        let p = other.begin("p", None, 2);
        other.span("c", Some(p), 2, || ());
        other.end(p);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert!(main.spans()[1].start_ns >= main.spans()[0].start_ns);
        assert!(main.to_json().contains("\"name\":\"c\""));
    }
}
