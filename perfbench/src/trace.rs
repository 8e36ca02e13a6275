//! In-memory spans around the client's calls into the pool and the
//! compiler, written out as JSON lines when the run ends.
//!
//! A disabled tracer records nothing: `begin` returns `None` and `end`
//! ignores it, so the untraced runs that produce the end-to-end metrics
//! pay one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What the client called (`submit`, `wait`, `compile`, ...).
    pub name: &'static str,
    /// Start, in ns since the tracer was made.
    pub start_ns: u64,
    /// End, in ns since the tracer was made (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Ticket id of the request the call served, when there is one.
    pub request: Option<u64>,
}

/// Span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; `None` when tracing is off.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            request: None,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span.
    pub fn end(&mut self, id: Option<usize>) {
        self.end_request(id, None);
    }

    /// Closes a span and tags it with the request it served.
    pub fn end_request(&mut self, id: Option<usize>, request: Option<u64>) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            let span = &mut self.spans[i];
            span.end_ns = end_ns;
            span.request = request;
        }
    }

    /// Writes one JSON object per span.
    ///
    /// # Errors
    ///
    /// File creation or write failures.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {}, \"request\": {}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent.map(|p| p as u64)),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.begin("submit", None);
        tr.end_request(s, Some(3));
        assert!(s.is_none());
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn spans_keep_parent_and_request() {
        let mut tr = Tracer::new(true);
        let burst = tr.begin("burst", None);
        let sub = tr.begin("submit", burst);
        tr.end_request(sub, Some(7));
        tr.end(burst);
        let spans = &tr.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].request, Some(7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
