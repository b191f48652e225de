//! The span recorder of the traced run.
//!
//! Spans are recorded from the benchmark's own code around each call into a
//! layer of the engine. They stay in memory until the run ends; per-layer
//! self times are derived from them, and they can be written out as JSON.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `codec.encode`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier of the operation the span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall time of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// A fresh operation identifier for the spans of one operation.
    pub fn next_op(&mut self) -> u64 {
        self.ops += 1;
        self.ops
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` that belongs to operation `op`;
    /// the innermost open span becomes its parent.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently started span, in seconds: right
    /// after a span without children closes, that span's wall time.
    pub fn last_secs(&self) -> f64 {
        self.spans
            .last()
            .map_or(0.0, |s| s.duration_ns() as f64 / 1e9)
    }

    /// Per-name self time (a span's duration minus what its children
    /// cover) and span count.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            entry.count += 1;
        }
        out
    }

    /// Self time of every span named `name`, in seconds.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_times()
            .get(name)
            .map_or(0.0, |t| t.self_ns as f64 / 1e9)
    }

    /// The spans and the per-name self times as one JSON object.
    pub fn to_json(&self) -> String {
        let self_times: Vec<String> = self
            .self_times()
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{name}\": {{\"self_ns\": {}, \"spans\": {}}}",
                    t.self_ns, t.count
                )
            })
            .collect();
        format!(
            "{{\"self_times\": {{{}}}, \"spans\": {}}}",
            self_times.join(", "),
            self.spans_json()
        )
    }

    fn spans_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op
            ));
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

/// Aggregated self time of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Sum of self times, in nanoseconds.
    pub self_ns: u64,
    /// Number of spans.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut rec = Recorder::new();
        rec.span("outer", 7, |rec| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            rec.span("inner", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(4))
            });
        });
        let spans = &rec.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 7);
        let times = rec.self_times();
        let outer = times["outer"].self_ns;
        let inner = times["inner"].self_ns;
        assert!(inner >= 4_000_000, "inner {inner}");
        assert!(
            outer >= 2_000_000 && outer < spans[0].duration_ns() - 4_000_000 + 1,
            "outer {outer}"
        );
        let json = rec.to_json();
        assert!(json.contains("\"parent\": 0"));
        assert!(json.contains("\"inner\": {\"self_ns\": "));
    }
}
