//! Host-time spans around the benchmark's calls into each layer.
//!
//! A [`Tracer`] belongs to one thread. It keeps its spans in a `Vec` sized
//! up front and a stack of the spans that are open, so a span's parent is the
//! one that was open when it started. A thread that starts others hands each
//! a [`Tracer::fork`] and takes the spans back with [`Tracer::absorb`].
//! Nothing is written out until the benchmark ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// `Span::parent` of a span that nothing caused.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// `layer.call`, e.g. `core.engine.submit`.
    pub name: &'static str,
    /// Host nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started, or [`ROOT`].
    pub parent: u32,
    /// What the span worked for: a repetition, a query id or a page number.
    /// Spans of one request share it.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    /// A tracer on the same clock for another thread, sized for `capacity`
    /// spans. Give its spans back with [`Tracer::absorb`].
    pub fn fork(&self, capacity: usize) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::with_capacity(capacity),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the one that is open now.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied().unwrap_or(ROOT),
            request,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the span opened last.
    pub fn exit(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close in the order they nest");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Take over the spans another thread recorded on a [`Tracer::fork`].
    /// Its outermost spans become children of the span open here.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let base = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == ROOT {
                parent
            } else {
                s.parent + base
            };
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per span, its duration minus what its children cover. Children recorded by
/// other threads may overlap each other, so the covered part is the union of
/// their intervals, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Totals of all spans that share a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl NameTotals {
    /// Mean duration of one span, in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.total_ns as f64 / self.count.max(1) as f64
    }
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        // rep [0,100] holds submit [10,30] and wait [30,90]; wait holds two
        // overlapping children from other threads, [40,70] and [60,80].
        let spans = vec![
            span("rep", 0, 100, ROOT),
            span("submit", 10, 30, 0),
            span("wait", 30, 90, 0),
            span("worker", 40, 70, 2),
            span("worker", 60, 80, 2),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 30, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["worker"],
            NameTotals {
                count: 2,
                total_ns: 50,
                self_ns: 50
            }
        );
        assert_eq!(totals["rep"].self_ns, 20);
    }

    #[test]
    fn a_child_is_clipped_to_its_parent() {
        let spans = vec![span("p", 10, 20, ROOT), span("c", 5, 15, 0)];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn nesting_and_absorb_keep_the_parent_links() {
        let mut t = Tracer::with_capacity(8);
        let rep = t.enter("rep", 7);
        let mut forked = t.fork(4);
        let q = forked.enter("query", 1);
        let s = forked.enter("submit", 1);
        forked.exit(s);
        forked.exit(q);
        let own = t.enter("stats", 7);
        t.exit(own);
        t.absorb(forked);
        t.exit(rep);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![("rep", ROOT), ("stats", 0), ("query", 0), ("submit", 2)]
        );
    }
}
