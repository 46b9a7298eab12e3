//! Per-query structured tracing: a flat list of named, timed spans with
//! string attributes, built cheaply while a query runs and rendered as
//! text or JSON afterwards.
//!
//! The model is deliberately flat (parse → rewrite → plan → one span per
//! shard): the serving stack's per-query stages are sequential, so a flat
//! span list with start offsets reconstructs the timeline exactly, without
//! the allocation churn of a span tree. Attributes carry the attribution
//! payload — chosen `PlanKind`, SIMD tier, estimated vs observed rows,
//! cache hit/miss/refresh — as [`AttrValue`]s that read back as plain
//! strings, so the trace layer has no dependency on the layers it
//! describes. They are stored typed and rendered when read: a traced
//! query records a few dozen of them, and most are never read.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// An attribute value as it reads back: a string. It is stored as
/// recorded — a `&'static str` label by reference, an integer, range,
/// hash or shared [`Display`](fmt::Display) value as itself — and
/// rendered to text only when first read. Recording one therefore
/// neither formats nor allocates, unless it is an owned string.
#[derive(Clone)]
pub struct AttrValue {
    value: Typed,
    /// The rendering of a non-string value, made on first read.
    text: OnceLock<String>,
}

#[derive(Clone)]
enum Typed {
    Label(&'static str),
    Text(String),
    Uint(u64),
    Range(u64, u64),
    Hex(u64),
    Display(Arc<dyn fmt::Display + Send + Sync>),
}

impl AttrValue {
    fn new(value: Typed) -> Self {
        Self {
            value,
            text: OnceLock::new(),
        }
    }

    /// The value as text.
    pub fn as_str(&self) -> &str {
        match &self.value {
            Typed::Label(s) => s,
            Typed::Text(s) => s,
            Typed::Uint(v) => self.text.get_or_init(|| v.to_string()),
            Typed::Range(start, end) => self.text.get_or_init(|| format!("{start}..{end}")),
            Typed::Hex(v) => self.text.get_or_init(|| format!("{v:016x}")),
            Typed::Display(v) => self.text.get_or_init(|| v.to_string()),
        }
    }

    /// A shared value that reads as its [`Display`](fmt::Display)
    /// rendering, made on first read — for values, such as a query
    /// expression, whose rendering costs more than sharing them.
    pub fn display(v: Arc<dyn fmt::Display + Send + Sync>) -> Self {
        AttrValue::new(Typed::Display(v))
    }

    /// A 64-bit value that reads as 16 lowercase hex digits (a hash or
    /// fingerprint).
    pub fn hex(v: u64) -> Self {
        AttrValue::new(Typed::Hex(v))
    }
}

/// Values compare by their text.
impl PartialEq for AttrValue {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for AttrValue {}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl From<&'static str> for AttrValue {
    fn from(s: &'static str) -> Self {
        AttrValue::new(Typed::Label(s))
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::new(Typed::Text(s))
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::new(Typed::Label(if b { "true" } else { "false" }))
    }
}

impl From<Range<u64>> for AttrValue {
    /// Reads as `start..end`.
    fn from(r: Range<u64>) -> Self {
        AttrValue::new(Typed::Range(r.start, r.end))
    }
}

impl From<u64> for AttrValue {
    fn from(v: u64) -> Self {
        AttrValue::new(Typed::Uint(v))
    }
}

impl From<usize> for AttrValue {
    fn from(v: usize) -> Self {
        AttrValue::new(Typed::Uint(v as u64))
    }
}

/// One timed stage of a traced query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Stage name (`parse`, `plan`, `shard0.exec`, …): borrowed when
    /// the instrumentation site names it with a `'static` string, as every
    /// per-query site does.
    pub name: Cow<'static, str>,
    /// Start offset from the trace's origin, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration, nanoseconds.
    pub dur_ns: u64,
    /// Attribution payload as `(key, value)` pairs. Keys are `&'static`:
    /// attribute names are always literals at the instrumentation site, and
    /// tracing sits on the per-query hot path — one avoidable allocation
    /// per attribute is exactly the overhead budget this crate promises
    /// not to spend (see [`AttrValue`]).
    pub attrs: Vec<(&'static str, AttrValue)>,
}

impl Span {
    /// Adds one attribute (chainable).
    pub fn attr(&mut self, key: &'static str, value: impl Into<AttrValue>) -> &mut Self {
        if self.attrs.is_empty() {
            // One allocation covers the widest span the serving stack
            // records (a shard's six attributes).
            self.attrs.reserve(6);
        }
        self.attrs.push((key, value.into()));
        self
    }

    /// The value of an attribute, if set.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// An opaque span start marker from [`TraceBuilder::start_span`].
#[derive(Debug, Clone, Copy)]
pub struct SpanStart(Instant);

/// Accumulates spans while a query runs; [`TraceBuilder::finish`] seals it
/// into a [`QueryTrace`].
#[derive(Debug)]
pub struct TraceBuilder {
    origin: Instant,
    query: String,
    spans: Vec<Span>,
}

impl TraceBuilder {
    /// A new trace whose clock starts now.
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            origin: Instant::now(),
            query: query.into(),
            // One span per stage plus one per shard: 8 covers the serving
            // stack's default shape without a mid-query regrow.
            spans: Vec::with_capacity(8),
        }
    }

    /// Marks the start of a stage.
    pub fn start_span(&self) -> SpanStart {
        SpanStart(Instant::now())
    }

    /// Ends a stage started with [`TraceBuilder::start_span`], recording it
    /// under `name`; the returned reference takes attributes.
    pub fn end_span(&mut self, start: SpanStart, name: impl Into<Cow<'static, str>>) -> &mut Span {
        let start_ns = ns(start.0.duration_since(self.origin));
        let dur_ns = ns(start.0.elapsed());
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            dur_ns,
            attrs: Vec::new(),
        });
        // audit:allow(hot_path_panic): an element was pushed on the line above
        self.spans.last_mut().expect("just pushed")
    }

    /// Records an instantaneous (zero-duration) event span.
    pub fn event(&mut self, name: impl Into<Cow<'static, str>>) -> &mut Span {
        let at = self.start_span();
        self.end_span(at, name)
    }

    /// Seals the trace; `total_ns` covers from construction to this call.
    pub fn finish(self) -> QueryTrace {
        QueryTrace {
            total_ns: ns(self.origin.elapsed()),
            query: self.query,
            spans: self.spans,
        }
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A completed query trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryTrace {
    /// The query string as submitted.
    pub query: String,
    /// End-to-end wall clock, nanoseconds.
    pub total_ns: u64,
    /// Stages in completion order (stage pipelines are sequential, so this
    /// is also timeline order).
    pub spans: Vec<Span>,
}

impl QueryTrace {
    /// The first span with this name, if any.
    pub fn span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// A human-readable multi-line rendering:
    ///
    /// ```text
    /// trace "0 AND 1" total 182.4µs
    ///   parse        1.2µs
    ///   plan         3.4µs  plan=And[GallopProbe]
    ///   shard0      88.0µs  plan_kind=GallopProbe est_rows=120 rows=117
    /// ```
    pub fn render(&self) -> String {
        let mut out = format!("trace {:?} total {}\n", self.query, fmt_ns(self.total_ns));
        let width = self.spans.iter().map(|s| s.name.len()).max().unwrap_or(0);
        for s in &self.spans {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "  {:<width$}  {:>10}  {}\n",
                s.name,
                fmt_ns(s.dur_ns),
                attrs.join(" ")
            ));
        }
        out
    }

    /// A JSON document with the query, total, and every span.
    pub fn to_json(&self) -> String {
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let attrs: Vec<String> = s
                    .attrs
                    .iter()
                    .map(|(k, v)| format!("\"{}\": \"{}\"", escape(k), escape(v.as_str())))
                    .collect();
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"dur_ns\": {}, \"attrs\": {{{}}}}}",
                    escape(&s.name),
                    s.start_ns,
                    s.dur_ns,
                    attrs.join(", ")
                )
            })
            .collect();
        format!(
            "{{\"query\": \"{}\", \"total_ns\": {}, \"spans\": [{}]}}",
            escape(&self.query),
            self.total_ns,
            spans.join(", ")
        )
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Formats nanoseconds with an adaptive unit.
pub fn fmt_ns(ns: u64) -> String {
    let v = ns as f64;
    if v >= 1e9 {
        format!("{:.2}s", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}ms", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}µs", v / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_within_the_total() {
        let mut tb = TraceBuilder::new("0 AND 1");
        let s = tb.start_span();
        std::hint::black_box((0..1000u64).sum::<u64>());
        tb.end_span(s, "work").attr("rows", 42u64);
        let trace = tb.finish();
        assert_eq!(trace.spans.len(), 1);
        let span = trace.span("work").expect("span recorded");
        assert_eq!(span.get("rows"), Some("42"));
        assert!(span.start_ns + span.dur_ns <= trace.total_ns);
    }

    #[test]
    fn spans_are_in_timeline_order() {
        let mut tb = TraceBuilder::new("q");
        for name in ["parse", "plan", "exec"] {
            let s = tb.start_span();
            tb.end_span(s, name);
        }
        let trace = tb.finish();
        let starts: Vec<u64> = trace.spans.iter().map(|s| s.start_ns).collect();
        assert!(starts.windows(2).all(|w| w[0] <= w[1]), "{starts:?}");
    }

    #[test]
    fn render_and_json_carry_the_payload() {
        let mut tb = TraceBuilder::new("0 AND \"x\"");
        tb.event("cache").attr("outcome", "hit");
        let trace = tb.finish();
        let text = trace.render();
        assert!(text.contains("cache"), "{text}");
        assert!(text.contains("outcome=hit"), "{text}");
        let json = trace.to_json();
        assert!(json.contains("\\\"x\\\""), "{json}");
        assert!(json.contains("\"outcome\": \"hit\""), "{json}");
    }

    #[test]
    fn fmt_ns_units() {
        assert_eq!(fmt_ns(500), "500ns");
        assert_eq!(fmt_ns(1_500), "1.5µs");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
