//! In-memory spans around the benchmark's own calls into each layer.
//! Spans inside the product are a later change.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one sampled request share this identifier.
    pub request: u32,
}

/// Records properly nested spans of one thread.
pub struct Recorder {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result and the span's duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u32,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, u64) {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        let r = f(self);
        self.open.pop();
        let end = self.t0.elapsed().as_nanos() as u64;
        self.spans[id].end_ns = end;
        (r, end - self.spans[id].start_ns)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover. Children recorded by one [`Recorder`] never
/// overlap each other, so their durations simply add.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span("request", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn recorder_nests_and_links_parents() {
        let mut rec = Recorder::new();
        rec.span("outer", 7, |rec| {
            rec.span("inner", 7, |_| ());
        });
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].parent, None);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert!(rec.spans[0].start_ns <= rec.spans[1].start_ns);
        assert!(rec.spans[1].end_ns <= rec.spans[0].end_ns);
        let own = self_times(&rec.spans);
        assert_eq!(own[0] + own[1], rec.spans[0].end_ns - rec.spans[0].start_ns);
    }
}
