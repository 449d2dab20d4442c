//! Host-time spans recorded around the benchmark's own calls into each
//! layer. Spans stay in memory and are written out once, when the run
//! ends; an idle tracer still times every call but records nothing.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One timed call: a name, the round it belongs to (the identifier all
/// spans of one round share), the span that enclosed it, and its host
/// interval in nanoseconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub round: Option<usize>,
    pub parent: Option<usize>,
    pub start_ns: u128,
    pub end_ns: u128,
}

#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Tracer {
            recording,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Turns span recording on or off; timing is unaffected.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    /// Runs `f`, returning its result and host duration. While
    /// recording, the call becomes a span whose parent is the innermost
    /// span open around it.
    pub fn span<T>(
        &mut self,
        name: &str,
        round: Option<usize>,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, Duration) {
        let recorded = self.recording.then(|| {
            let idx = self.spans.len();
            self.spans.push(Span {
                name: name.to_string(),
                round,
                parent: self.open.last().copied(),
                start_ns: self.t0.elapsed().as_nanos(),
                end_ns: 0,
            });
            self.open.push(idx);
            idx
        });
        let start = Instant::now();
        let out = f(self);
        let took = start.elapsed();
        if let Some(idx) = recorded {
            self.open.pop();
            self.spans[idx].end_ns = self.t0.elapsed().as_nanos();
        }
        (out, took)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"round\": {}, \"parent\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}{}",
                s.name,
                opt(s.round),
                opt(s.parent),
                s.start_ns,
                s.end_ns,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_their_parent_only_while_recording() {
        let mut tr = Tracer::new(false);
        tr.span("skipped", None, |_| ());
        tr.set_recording(true);
        tr.span("round", Some(3), |tr| {
            tr.span("drain", Some(3), |_| ());
        });
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "drain");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
