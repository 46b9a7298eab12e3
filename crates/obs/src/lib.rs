//! # fsi-obs — the observability substrate
//!
//! Zero-external-dependency metrics and tracing for the serving stack,
//! sitting below every other `fsi-*` crate so any layer can report without
//! dependency cycles:
//!
//! * [`Histogram`] — a streaming log₂-bucket latency histogram: wait-free
//!   concurrent recording, bucket-wise (associative, commutative) merging
//!   across `QueryPool` workers and shards, exact `count`/`sum`/`max`, and
//!   nearest-rank-compatible percentile estimates with a documented
//!   ≤ 1/32 one-sided relative error ([`Histogram::MAX_RELATIVE_ERROR`]).
//! * [`Registry`] — named, labeled counters (striped atomics), gauges, and
//!   histograms; hot paths are one relaxed atomic op on a cached handle.
//!   [`Registry::global`] hosts process-wide metrics (kernel dispatch
//!   counters, planner plan-kind counters); servers own private instances.
//!   Point-in-time [`Snapshot`]s render as Prometheus exposition text or
//!   JSON and merge like histograms do.
//! * [`TraceBuilder`] / [`QueryTrace`] — per-query structured spans
//!   (parse → rewrite → plan → per-shard exec) with string attributes for
//!   the chosen `PlanKind`/`Kernel`/`SimdLevel`, estimated vs observed
//!   cardinalities, and cache attribution.
//! * [`SlowLog`] / [`TailSampler`] — the request-lifecycle layer: a
//!   fixed-capacity concurrent ring of retained request records (stage
//!   timestamps, outcome attribution, queue depth, optional full trace)
//!   and the tail-based retention policy (latency threshold, non-success
//!   outcome, or 1-in-N head sample). [`LabelCap`] bounds per-tenant
//!   label cardinality; [`Histogram::record_with_exemplar`] attaches the
//!   request id that hit the current maximum.
//!
//! The overhead discipline: instrumentation on always-on paths is counters
//! and histogram records only (~tens of nanoseconds against multi-µs
//! queries — `BENCH_obs.json` measures the traced-vs-untraced gap and CI
//! gates it at ≤ 5%); span construction allocates, so traces are built
//! only on the explicitly traced entry points.

#![forbid(unsafe_code)]

pub mod hist;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use hist::{HistSnapshot, Histogram, NUM_BUCKETS, SUB_BUCKETS};
pub use registry::{
    Counter, Gauge, LabelCap, Labels, Registry, Snapshot, SnapshotEntry, SnapshotValue,
};
pub use slowlog::{SlowLog, SlowLogEntry, Stage, TailSampler};
pub use trace::{fmt_ns, AttrValue, QueryTrace, Span, SpanStart, TraceBuilder};
