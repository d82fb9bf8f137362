//! In-memory spans recorded from the benchmark's own code.
//!
//! A span is one call into a layer: its name, the layer (named after
//! the crate), the request kind it served, a request id shared by every
//! span of one request, its start and end, and the span that caused it.
//! Spans stay in memory and are written out once, when the run ends.
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover.
//!
//! A *shadow* child is a call made after its parent returned, on the
//! parent's inputs, standing in for an inner call the parent made but
//! that no span can wrap from outside the program. It lies after the
//! parent's interval, and the parent's self time subtracts its whole
//! duration.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub kind: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    /// Whether this span stands in for an inner call of its parent.
    pub shadow: bool,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The span store. `enter`/`exit` nest through an explicit stack, so a
/// span entered while another is open becomes its child; `adopt` puts a
/// closed span back on the stack so the spans entered until `release`
/// become its shadow children.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Open (or adopted, when the flag is set) spans, innermost last.
    stack: Vec<(usize, bool)>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer { origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(
        &mut self,
        name: &'static str,
        layer: &'static str,
        kind: &'static str,
        req: u64,
    ) -> usize {
        let start_ns = self.ns(Instant::now());
        let id = self.spans.len();
        let (parent, shadow) =
            self.stack.last().map_or((None, false), |&(p, adopted)| (Some(p), adopted));
        self.spans.push(Span {
            name,
            layer,
            kind,
            req,
            parent,
            shadow,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push((id, false));
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let end_ns = self.ns(Instant::now());
        assert_eq!(self.stack.pop(), Some((id, false)), "spans close in nesting order");
        self.spans[id].end_ns = end_ns;
    }

    /// Makes the closed span `id` the parent of the spans entered until
    /// [`Tracer::release`], as shadow children.
    pub fn adopt(&mut self, id: usize) {
        self.stack.push((id, true));
    }

    pub fn release(&mut self, id: usize) {
        assert_eq!(self.stack.pop(), Some((id, true)), "adoptions end in nesting order");
    }

    /// Records an already-measured interval as a child of `parent` (used
    /// for calls made on worker threads, which measure their own time).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        kind: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span { name, layer, kind, req, parent, shadow: false, start_ns, end_ns });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, in nanoseconds, indexed like `spans()`.
    pub fn self_times_ns(&self) -> Vec<u64> {
        // Intervals a span's self time excludes: its ordinary children,
        // and every shadow call made while it was still open (those ran
        // inside its interval on behalf of a descendant). A direct
        // shadow child ran after the span closed, so its whole duration
        // is subtracted instead.
        let mut covered: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut shadow = vec![0u64; self.spans.len()];
        for span in &self.spans {
            let Some(parent) = span.parent else { continue };
            if span.shadow {
                shadow[parent] += span.duration_ns();
                let mut ancestor = self.spans[parent].parent;
                while let Some(a) = ancestor {
                    covered[a].push((span.start_ns, span.end_ns));
                    ancestor = self.spans[a].parent;
                }
            } else {
                covered[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .zip(shadow)
            .map(|((span, mut intervals), shadow)| {
                intervals.sort_unstable();
                let (mut busy, mut reach) = (0u64, span.start_ns);
                for (s, e) in intervals {
                    let (s, e) = (s.max(reach), e.min(span.end_ns));
                    if e > s {
                        busy += e - s;
                        reach = e;
                    }
                }
                span.duration_ns().saturating_sub(busy + shadow)
            })
            .collect()
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"layer\":\"{}\",\"kind\":\"{}\",\"req\":{},\"parent\":{parent},\"shadow\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.layer, s.kind, s.req, s.shadow, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new();
        let base = t.origin;
        let at = |ms: u64| base + Duration::from_millis(ms);
        t.record("outer", "serve", "push", 1, None, at(0), at(10));
        // Two overlapping children (parallel work) cover [2, 7).
        t.record("a", "zone", "push", 1, Some(0), at(2), at(6));
        t.record("b", "zone", "push", 1, Some(0), at(4), at(7));
        let selfs = t.self_times_ns();
        assert_eq!(selfs[0], 5_000_000);
        assert_eq!(selfs[1], 4_000_000);
    }

    #[test]
    fn shadow_children_subtract_their_whole_duration() {
        let mut t = Tracer::new();
        let root = t.enter("request", "pass", "push", 1);
        let outer = t.enter("dispatch", "serve", "push", 1);
        std::thread::sleep(Duration::from_millis(4));
        t.exit(outer);
        t.adopt(outer);
        let inner = t.enter("append", "journal", "push", 1);
        std::thread::sleep(Duration::from_millis(1));
        t.exit(inner);
        t.release(outer);
        t.exit(root);
        assert!(t.spans()[inner].shadow);
        let selfs = t.self_times_ns();
        let (spans, d) = (t.spans(), |i: usize| t.spans()[i].duration_ns());
        assert_eq!(selfs[outer], d(outer) - d(inner));
        // The still-open ancestor loses both the real call and the
        // shadow call made inside its interval.
        assert_eq!(selfs[root], d(root) - d(outer) - d(inner));
        assert!(spans[inner].start_ns >= spans[outer].end_ns);
    }
}
