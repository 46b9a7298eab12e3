//! The traced run's span log: one span per call the benchmark makes into a
//! layer (name, start, end, parent, request id), kept in memory and written
//! out when the run ends. A span's self time is its duration minus the
//! part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. Times are nanoseconds from the log's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds from the origin to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span given in origin-relative nanoseconds; returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        assert!(start_ns <= end_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            parent,
            req,
            start_ns,
            end_ns,
        });
        self.spans.len() - 1
    }

    /// Records a span between two instants.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let (s, e) = (self.ns(start), self.ns(end));
        self.push(name, parent, req, s, e.max(s))
    }

    /// Opens a span at the current instant; [`SpanLog::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, parent, req, now, now)
    }

    /// Ends span `id` at the current instant.
    pub fn close(&mut self, id: usize) {
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
    }

    /// Runs `f` under a span; returns its output and the span id.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, req, start, Instant::now());
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Duration minus the union of the children's intervals (clipped to
    /// the span), for every span, indexed like [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns) - covered
            })
            .collect()
    }

    /// Self times in microseconds, grouped by span name.
    pub fn self_us_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            out.entry(s.name).or_default().push(t as f64 / 1e3);
        }
        out
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// One JSON object per line: id, parent, request, name, start, end.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"req\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.req, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}
