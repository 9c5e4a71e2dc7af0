//! Host-side spans recorded by the benchmark around its calls into the
//! workspace crates.
//!
//! A span has a name, a start, an end, the span that was open when it
//! started (its parent) and the run it belongs to (one run = one pass of a
//! workload). The layer of a span is its name up to the first `.`. Spans
//! stay in memory and are written out when the benchmark ends. With the
//! tracer disabled nothing is recorded and [`Tracer::span`] only calls its
//! closure.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub run: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer this span belongs to: its name up to the first `.`.
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans recorded from now on with `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name` as a child of the innermost open span;
    /// `None` when the tracer is disabled.
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let index = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(index);
        Some(index)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(index) = id {
            while let Some(top) = self.open.pop() {
                if top == index {
                    break;
                }
            }
            self.spans[index].end_ns = self.ns(Instant::now());
        }
    }

    /// Runs `f` inside a span named `name`; spans recorded by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Records a finished interval as a child of the currently open span,
    /// for calls timed where the tracer cannot be borrowed (inside a
    /// `TrialRunner` closure).
    pub fn record(&mut self, name: &str, start: Instant, end: Instant) {
        if self.enabled {
            let span = Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: self.open.last().copied(),
                run: self.run,
            };
            self.spans.push(span);
        }
    }

    /// Durations in nanoseconds of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
    }

    /// The spans as JSON lines: name, start, end, parent index, run id.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.run
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children of one parent never overlap (every call the
/// benchmark traces returns before the next starts), so the covered part
/// is the sum of the children's durations.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_ns();
        }
    }
    spans.iter().zip(covered).map(|(s, c)| s.duration_ns().saturating_sub(c)).collect()
}

/// Self time summed per layer, in nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += own;
    }
    out
}

/// Total duration of the root spans (those without a parent).
pub fn root_ns(spans: &[Span]) -> u64 {
    spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_ns).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: name.into(), start_ns, end_ns, parent, run: 0 }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // bench.pass [0,100] > channel.tx [10,60] > pool.acquire [20,30]
        //                    > channel.tx [70,90]
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("channel.tx", 10, 60, Some(0)),
            span("pool.acquire", 20, 30, Some(1)),
            span("channel.tx", 70, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
        let layers = layer_self_ns(&spans);
        assert_eq!(layers["bench"], 30);
        assert_eq!(layers["channel"], 60);
        assert_eq!(layers["pool"], 10);
        // Self times partition the root interval.
        assert_eq!(layers.values().sum::<u64>(), root_ns(&spans));
    }

    #[test]
    fn tracer_nests_spans_and_records_children() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let value = t.span("bench.pass", |t| {
            t.span("spec.parse", |_| ());
            let at = Instant::now();
            t.record("channel.tx", at, at);
            7
        });
        assert_eq!(value, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let value = t.span("bench.pass", |t| {
            let at = Instant::now();
            t.record("channel.tx", at, at);
            5
        });
        assert_eq!(value, 5);
        assert!(t.spans().is_empty());
    }
}
