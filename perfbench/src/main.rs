//! `fsi-perfbench`: the repository's benchmark. One synthetic corpus, three
//! workloads, every result checked against an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hot-wire|cold-wire|batch-inproc> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is a separate
//! run that times the calls into each layer and reports the per-layer
//! metrics. Every metric is printed by name with its unit; the last line of
//! standard output is one JSON object. A wrong result exits nonzero. See
//! `perfbench/README.md` for what each workload and metric is for.

use fsi_core::HashContext;
use fsi_index::{Corpus, CorpusConfig, SearchEngine};
use fsi_net::{Client, NetConfig, NetServer, RequestFrame, ResponseFrame, Status};
use fsi_perfbench::digest::Digest;
use fsi_perfbench::oracle;
use fsi_perfbench::prom::{self, Hist};
use fsi_perfbench::queries::{self, NUM_TERMS};
use fsi_perfbench::schedule;
use fsi_perfbench::spans::SpanLog;
use fsi_perfbench::stats::{self, mean, median, percentile, sorted};
use fsi_perfbench::wire::{self, Planned};
use fsi_serve::{CacheOutcome, Request, ServeConfig, Server};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---- the system under test ----------------------------------------------

const NUM_DOCS: u32 = 2_000_000;
const NUM_SHARDS: usize = 4;
const CACHE_CAPACITY: usize = 8192;
/// The front door's backlog bound: large enough that an overloaded ladder
/// rung shows as a growing backlog, not as refused requests.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 7;
/// A query outside every workload, answered once to end each set-up.
const SETUP_QUERY: &str = "t4094 AND t4095";

// ---- the workloads ------------------------------------------------------

struct WireSpec {
    /// The fixed offered rate of the measured phase.
    rate_qps: f64,
    /// The latency limit on p99 and on each request for goodput.
    limit: Duration,
    /// Offered rates tried for `max_qps`, ascending.
    ladder: &'static [f64],
}

const HOT: WireSpec = WireSpec {
    rate_qps: 4000.0,
    limit: Duration::from_millis(10),
    ladder: &[
        8000.0, 9200.0, 10600.0, 12200.0, 14000.0, 16100.0, 18500.0, 21300.0, 24500.0, 28200.0,
        32400.0, 37300.0, 42900.0, 49300.0, 56700.0, 65200.0,
    ],
};

const COLD: WireSpec = WireSpec {
    rate_qps: 600.0,
    limit: Duration::from_millis(50),
    ladder: &[
        600.0, 700.0, 800.0, 900.0, 1050.0, 1200.0, 1400.0, 1600.0, 1850.0, 2100.0, 2400.0, 2800.0,
        3200.0, 3700.0, 4300.0, 4900.0,
    ],
};

/// Queries drawn from the stream for the hot set (its distinct canonical
/// queries are replayed).
const HOT_DRAWN: usize = 4000;
/// `execute_batch` batch size of `batch-inproc`.
const BATCH: usize = 64;
/// Per-request service-time limit of `batch-inproc` (for `goodput_frac`).
const BATCH_LIMIT: Duration = Duration::from_millis(25);
/// Cold queries prepared per measured second of `batch-inproc`: the pool
/// bounds a run, so it is sized above the closed loop's throughput.
const BATCH_POOL_PER_SEC: f64 = 4500.0;
/// Unmeasured warm-up of each wire workload.
const WARMUP_SECS: f64 = 0.3;
/// Share of `--seconds` spent at the fixed rate; the ladder gets the rest.
const MAIN_SHARE: f64 = 0.8;
/// A run whose generator falls further behind schedule than this at the
/// fixed rate is invalid.
const LAG_BOUND: Duration = Duration::from_millis(200);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    HotWire,
    ColdWire,
    BatchInproc,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: fsi-perfbench --workload <hot-wire|cold-wire|batch-inproc> \
                     --seed <n> --seconds <s> --trace <0|1>";

impl Args {
    fn parse() -> Result<Self, String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let get = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let workload = match get("--workload")? {
            "hot-wire" => Workload::HotWire,
            "cold-wire" => Workload::ColdWire,
            "batch-inproc" => Workload::BatchInproc,
            w => return Err(format!("unknown workload {w:?}")),
        };
        let num = |flag: &str| -> Result<f64, String> {
            get(flag)?
                .parse::<f64>()
                .map_err(|e| format!("{flag}: {e}"))
        };
        let seconds = num("--seconds")?;
        if !seconds.is_finite() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Self {
            workload,
            seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match get("--trace")? {
                "0" => false,
                "1" => true,
                t => return Err(format!("--trace takes 0 or 1, got {t:?}")),
            },
        })
    }
}

// ---- reporting ----------------------------------------------------------

/// Every number a run prints. `metrics` go into the JSON line; `notes` are
/// printed for the reader only.
#[derive(Default)]
struct Report {
    attempted: u64,
    failed: u64,
    wrong: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    /// A metric printed by name and unit but left out of the JSON line:
    /// too noisy on small virtual machines to gate a change on.
    fn shown(&mut self, name: &str, value: f64, unit: &str) {
        self.note(format!("{name} = {value} {unit} (not gated)"));
    }

    fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Folds one batch of answers into the attempted/failed tallies.
    fn account(&mut self, attempted: usize, failed: usize, wrong: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
        self.wrong += wrong as u64;
    }

    fn print(&self) {
        for n in &self.notes {
            println!("{n}");
        }
        println!(
            "failed_frac = {:.6} frac ({} of {} attempted; {} wrong results)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted,
            self.wrong
        );
        for (name, v, unit) in &self.metrics {
            println!("{name} = {v} {unit}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.wrong == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A required percentile: a run too short to support it is a broken run.
fn pct(sorted: &[f64], p: f64, what: &str) -> f64 {
    percentile(sorted, p).unwrap_or_else(|| {
        panic!(
            "{what}: {} samples cannot support p{}",
            sorted.len(),
            p * 100.0
        )
    })
}

/// `p99_ms` cuts the measured phase into at most this many windows...
const P99_WINDOWS: usize = 10;
/// ...each with at least this many samples above its p99.
const P99_WINDOW_BEYOND: usize = 50;

/// `p99_ms`: the median of the per-window p99s of time-ordered samples.
fn windowed_p99(lat_ms: &[f64]) -> f64 {
    stats::windowed_percentile(lat_ms, 0.99, P99_WINDOWS, P99_WINDOW_BEYOND)
        .unwrap_or_else(|| panic!("{} samples cannot support p99", lat_ms.len()))
}

// ---- set-up -------------------------------------------------------------

struct Stack {
    server: Arc<Server>,
    net: NetServer,
}

/// Set-up times of one stack: index, serve, net (including the first
/// answered request).
type SetupTimes = [Duration; 3];

fn set_up(corpus: &Corpus, ctx_seed: u64) -> (Stack, SetupTimes) {
    let corpus = corpus.clone();
    let t0 = Instant::now();
    let engine = SearchEngine::from_corpus(HashContext::new(ctx_seed), corpus);
    let t1 = Instant::now();
    let server = Arc::new(Server::new(
        &engine,
        ServeConfig {
            num_shards: NUM_SHARDS,
            cache_capacity: CACHE_CAPACITY,
            ..ServeConfig::default()
        },
    ));
    let t2 = Instant::now();
    let net = NetServer::start(
        Arc::clone(&server),
        NetConfig {
            queue_capacity: QUEUE_CAPACITY,
            ..NetConfig::default()
        },
    )
    .expect("bind loopback");
    let first = Client::connect(net.local_addr())
        .and_then(|mut c| {
            c.call(&RequestFrame::query(0, SETUP_QUERY))
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .expect("first request");
    assert_eq!(first.status, Status::Ok, "set-up query: {}", first.message);
    let t3 = Instant::now();
    (Stack { server, net }, [t1 - t0, t2 - t1, t3 - t2])
}

/// Sets the stack up [`SETUP_REPS`] times, keeping the last.
fn set_up_reps(corpus: &Corpus, ctx_seed: u64) -> (Stack, Vec<SetupTimes>) {
    let mut times = Vec::new();
    let mut stack = None;
    for _ in 0..SETUP_REPS {
        drop(stack.take());
        let (s, t) = set_up(corpus, ctx_seed);
        times.push(t);
        stack = Some(s);
    }
    (stack.expect("at least one set-up"), times)
}

fn total_postings(corpus: &Corpus) -> usize {
    corpus.postings().iter().map(|p| p.len()).sum()
}

// ---- the wire phases ----------------------------------------------------

/// Summary of one open-loop phase.
struct PhaseStats {
    n: usize,
    ok: usize,
    wrong: usize,
    shed: usize,
    overloaded: usize,
    hits: usize,
    good: usize,
    /// Latencies in plan (scheduled) order, and sorted.
    lat_ms: Vec<f64>,
    sorted_ms: Vec<f64>,
    /// Wire latency minus server-reported service time, per `Ok` answer.
    overhead_us: Vec<f64>,
    server_us: Vec<f64>,
    lag: Duration,
    drain: Duration,
    achieved_qps: f64,
}

impl PhaseStats {
    fn of(phase: &wire::Phase, plan: &[Planned], limit: Duration) -> Self {
        let mut s = PhaseStats {
            n: plan.len(),
            ok: 0,
            wrong: 0,
            shed: 0,
            overloaded: 0,
            hits: 0,
            good: 0,
            lat_ms: Vec::with_capacity(plan.len()),
            sorted_ms: Vec::new(),
            overhead_us: Vec::new(),
            server_us: Vec::new(),
            lag: phase.max_lag(plan),
            drain: phase
                .last_recv
                .saturating_sub(plan.last().map_or(Duration::ZERO, |p| p.at)),
            achieved_qps: plan.len() as f64 / phase.last_recv.as_secs_f64(),
        };
        for a in &phase.answers {
            s.lat_ms.push(ms(a.latency));
            match a.status {
                Status::Ok => {
                    s.ok += 1;
                    if !a.correct {
                        s.wrong += 1;
                    } else if a.latency <= limit {
                        s.good += 1;
                    }
                    if a.detail == fsi_net::protocol::DETAIL_CACHE_HIT {
                        s.hits += 1;
                    }
                    let server = f64::from(a.server_us);
                    s.server_us.push(server);
                    s.overhead_us.push(a.latency.as_secs_f64() * 1e6 - server);
                }
                Status::Shed => s.shed += 1,
                Status::Overloaded => s.overloaded += 1,
                Status::InvalidQuery | Status::BadFrame => {}
            }
        }
        s.sorted_ms = sorted(s.lat_ms.clone());
        s
    }

    fn failed(&self) -> usize {
        self.n - self.ok + self.wrong
    }
}

/// Draws the queries and arrival times of one phase.
fn plan(seed: u64, rate: f64, secs: f64, mut next: impl FnMut() -> usize) -> Vec<Planned> {
    let n = ((rate * secs).round() as usize).max(1);
    schedule::arrivals(seed, rate, n)
        .into_iter()
        .map(|at| Planned { query: next(), at })
        .collect()
}

/// The traffic of one wire workload: its queries, their oracle digests,
/// and the source of the next query index.
struct Traffic {
    queries: Vec<String>,
    digests: Vec<Digest>,
    /// Hot: the replay order over the distinct set; cold: sequential.
    order: Vec<usize>,
    cursor: usize,
}

impl Traffic {
    fn next(&mut self) -> usize {
        let q = self.order[self.cursor];
        self.cursor += 1;
        q
    }

    fn phase(&mut self, seed: u64, rate: f64, secs: f64) -> Vec<Planned> {
        plan(seed, rate, secs, || self.next())
    }

    /// The next `n` queries (fewer if the traffic runs out) as in-process
    /// requests, optionally traced, with their digests.
    fn requests(&mut self, n: usize, traced: bool) -> (Vec<Request>, Vec<Digest>) {
        let n = n.min(self.order.len() - self.cursor);
        (0..n)
            .map(|_| {
                let i = self.next();
                let r = Request::expr(self.queries[i].as_str());
                (if traced { r.traced() } else { r }, self.digests[i])
            })
            .unzip()
    }
}

fn wire_phase(
    stack: &Stack,
    traffic: &Traffic,
    plan: &[Planned],
    limit: Duration,
    report: &mut Report,
) -> PhaseStats {
    let phase = wire::run(
        stack.net.local_addr(),
        &traffic.queries,
        &traffic.digests,
        plan,
    );
    let s = PhaseStats::of(&phase, plan, limit);
    report.account(s.n, s.failed(), s.wrong);
    s
}

/// The ladder: offered rates in order until one misses the limit; the
/// achieved rate of the last one that met it.
fn ladder(
    stack: &Stack,
    traffic: &mut Traffic,
    spec: &WireSpec,
    seed: u64,
    rung_secs: f64,
    report: &mut Report,
) -> f64 {
    let mut best = None;
    for (i, &rate) in spec.ladder.iter().enumerate() {
        let plan = traffic.phase(seed ^ (0x1add_e400 + i as u64), rate, rung_secs);
        let s = wire_phase(stack, traffic, &plan, spec.limit, report);
        // A pass/fail test, not a reported value: the median of per-window
        // p99s when the rung is long enough for windows (one host stall
        // then cannot fail a rung), else nearest rank over the rung.
        let p99 = stats::windowed_percentile(&s.lat_ms, 0.99, 4, stats::MIN_BEYOND).unwrap_or_else(
            || s.sorted_ms[((0.99 * s.n as f64).ceil() as usize).clamp(1, s.n) - 1],
        );
        let pass =
            s.failed() == 0 && p99 <= ms(spec.limit) && s.drain <= spec.limit && s.lag <= LAG_BOUND;
        report.note(format!(
            "  ladder {rate:>7.0} q/s: achieved {:.0} q/s, p50 {:.3} ms, p99 {p99:.3} ms, \
             drain {:.3} ms, lag {:.3} ms -> {}",
            s.achieved_qps,
            s.sorted_ms[s.n / 2],
            ms(s.drain),
            ms(s.lag),
            if pass {
                "meets the limit"
            } else {
                "misses the limit"
            }
        ));
        if !pass {
            break;
        }
        best = Some(s.achieved_qps);
    }
    best.unwrap_or_else(|| {
        report.note("  no ladder rung met the limit; max_qps reports the lowest rung");
        spec.ladder[0]
    })
}

/// Requests one wire run plans: the cold pool's size and the length of the
/// hot replay order. Each phase may round its count up by one.
fn wire_requests(spec: &WireSpec, seconds: f64, traced: bool) -> usize {
    let main = seconds * MAIN_SHARE;
    let rung = seconds * (1.0 - MAIN_SHARE) / spec.ladder.len() as f64;
    let (timed, phases) = if traced {
        (
            spec.rate_qps * (WARMUP_SECS + main) + (2 * PROBE + 4 * BATCH) as f64,
            3,
        )
    } else {
        let ladder: f64 = spec.ladder.iter().map(|r| r * rung).sum();
        (
            spec.rate_qps * (WARMUP_SECS + main) + ladder,
            2 + spec.ladder.len(),
        )
    };
    timed.ceil() as usize + phases
}

/// Queries the batch workload prepares: the pool bounds a run.
fn batch_pool(seconds: f64) -> usize {
    (seconds * BATCH_POOL_PER_SEC) as usize + 2 * BATCH
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    report.print();
    if report.wrong > 0 {
        eprintln!("{} responses did not match the oracle", report.wrong);
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let seed = args.seed;
    let corpus = Corpus::generate(CorpusConfig {
        num_docs: NUM_DOCS,
        num_terms: NUM_TERMS,
        seed: seed ^ 0xc0_4b_05,
        ..CorpusConfig::default()
    });
    let postings = total_postings(&corpus);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.note(format!(
        "corpus: {NUM_DOCS} docs x {NUM_TERMS} terms, {postings} postings; \
         {NUM_SHARDS} shards, cache {CACHE_CAPACITY} entries; {cores} cores"
    ));

    // The workload's queries and their oracle digests, before any timing.
    let queries = match args.workload {
        Workload::HotWire => queries::hot_set(seed, HOT_DRAWN),
        Workload::ColdWire => queries::cold_pool(
            seed,
            wire_requests(&COLD, args.seconds, args.trace),
            &[SETUP_QUERY],
        ),
        Workload::BatchInproc => {
            queries::cold_pool(seed ^ 0xba7c_4000, batch_pool(args.seconds), &[SETUP_QUERY])
        }
    };
    match args.workload {
        Workload::HotWire => {
            let d = queries::check_fits(&queries, CACHE_CAPACITY).unwrap_or_else(|e| panic!("{e}"));
            report.note(format!(
                "self-check: hot-wire replays {d} distinct canonical queries, \
                 fitting in {CACHE_CAPACITY} cache slots"
            ));
        }
        _ => {
            let d = queries::check_cold(&queries, CACHE_CAPACITY).unwrap_or_else(|e| panic!("{e}"));
            report.note(format!(
                "self-check: {d} queries, no canonical query repeated, \
                 more than {CACHE_CAPACITY} cache slots"
            ));
        }
    }
    let ctx_seed = seed ^ 0x5eed;
    let t = Instant::now();
    let digests = {
        let engine = SearchEngine::from_corpus(HashContext::new(ctx_seed), corpus.clone());
        oracle::digests(&engine, &queries, cores)
    };
    report.note(format!(
        "oracle: {} digests in {:.2} s ({} cross-checked against naive_eval)",
        digests.len(),
        t.elapsed().as_secs_f64(),
        oracle::NAIVE_SAMPLE
    ));

    let (stack, setups) = set_up_reps(&corpus, ctx_seed);
    drop(corpus);
    let setup_med = |i: usize| {
        median(
            &setups
                .iter()
                .map(|t| t[i].as_secs_f64())
                .collect::<Vec<_>>(),
        )
    };
    let setup_s = median(
        &setups
            .iter()
            .map(|t| t.iter().sum::<Duration>().as_secs_f64())
            .collect::<Vec<_>>(),
    );
    let bytes_per_posting = stack.server.engine().size_in_bytes() as f64 / postings as f64;

    if args.trace {
        traced(args, &stack, queries, digests, &mut report);
        report.metric("setup.index_s", setup_med(0), "s");
        report.metric("setup.serve_s", setup_med(1), "s");
        report.metric("setup.net_s", setup_med(2), "s");
        let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
        report.metric("failed_frac", failed_frac, "frac");
    } else {
        let e2e = match args.workload {
            Workload::HotWire => wire_untraced(args, &HOT, &stack, queries, digests, &mut report),
            Workload::ColdWire => wire_untraced(args, &COLD, &stack, queries, digests, &mut report),
            Workload::BatchInproc => batch_untraced(args, &stack, &queries, &digests, &mut report),
        };
        report.metric("setup_s", setup_s, "s");
        report.metric("index_bytes_per_posting", bytes_per_posting, "B");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
        report.shown("p50_ms", e2e.p50_ms, "ms");
        report.shown("p99_ms", e2e.p99_ms, "ms");
        report.metric("service_p50_ms", e2e.service_p50_ms, "ms");
        report.shown("service_p99_ms", e2e.service_p99_ms, "ms");
        report.metric("goodput_frac", e2e.goodput_frac, "frac");
        report.shown("max_qps", e2e.max_qps, "1/s");
        report.metric("throughput_qps", e2e.throughput_qps, "1/s");
    }
    stack.net.stop();
    report
}

struct EndToEnd {
    /// Wire: scheduled send → response; batch: service time.
    p50_ms: f64,
    p99_ms: f64,
    /// Service time as the server measured it (`Response::latency`).
    service_p50_ms: f64,
    service_p99_ms: f64,
    goodput_frac: f64,
    max_qps: f64,
    throughput_qps: f64,
}

fn traffic_for(args: &Args, queries: Vec<String>, digests: Vec<Digest>, len: usize) -> Traffic {
    let order = match args.workload {
        Workload::HotWire => schedule::replay_order(args.seed ^ 0x0de7, queries.len(), len),
        _ => (0..queries.len()).collect(),
    };
    Traffic {
        queries,
        digests,
        order,
        cursor: 0,
    }
}

/// Hot-wire's warm-up: every distinct query once, in process, so the
/// measured traffic finds the cache full; then the cache must show that
/// the whole set fit.
fn warm_hot_cache(stack: &Stack, traffic: &Traffic, report: &mut Report) {
    let mut wrong = 0;
    for (q, d) in traffic.queries.iter().zip(&traffic.digests) {
        let resp = stack
            .server
            .execute(&Request::expr(q.as_str()))
            .expect("hot query executes");
        wrong += usize::from(Digest::of(&resp.docs) != *d);
    }
    report.account(traffic.queries.len(), wrong, wrong);
    let stats = stack.server.cache().stats();
    assert_eq!(stats.evictions, 0, "the hot set must fit in the cache");
    report.note(format!(
        "self-check: after warm-up the cache holds {} entries with 0 evictions",
        stats.len
    ));
}

fn wire_untraced(
    args: &Args,
    spec: &WireSpec,
    stack: &Stack,
    queries: Vec<String>,
    digests: Vec<Digest>,
    report: &mut Report,
) -> EndToEnd {
    let requests = wire_requests(spec, args.seconds, false);
    let mut traffic = traffic_for(args, queries, digests, requests);
    if args.workload == Workload::HotWire {
        warm_hot_cache(stack, &traffic, report);
    }
    let warm = traffic.phase(args.seed ^ 0x3a7e, spec.rate_qps, WARMUP_SECS);
    wire_phase(stack, &traffic, &warm, spec.limit, report);

    let main = traffic.phase(args.seed ^ 0x3a1f, spec.rate_qps, args.seconds * MAIN_SHARE);
    let s = wire_phase(stack, &traffic, &main, spec.limit, report);
    report.note(format!(
        "fixed rate {:.0} q/s: {} requests, {} ok, {} cache hits, generator lag max {:.3} ms",
        spec.rate_qps,
        s.n,
        s.ok,
        s.hits,
        ms(s.lag)
    ));
    report.note(format!("loadgen.lag_ms.max = {} ms", ms(s.lag)));
    assert!(
        s.lag <= LAG_BOUND,
        "run invalid: the generator fell {:.1} ms behind schedule (bound {:.0} ms)",
        ms(s.lag),
        ms(LAG_BOUND)
    );
    let rung_secs = args.seconds * (1.0 - MAIN_SHARE) / spec.ladder.len() as f64;
    let max_qps = ladder(stack, &mut traffic, spec, args.seed, rung_secs, report);
    let service_ms: Vec<f64> = s.server_us.iter().map(|us| us / 1e3).collect();
    EndToEnd {
        p50_ms: pct(&s.sorted_ms, 0.5, "p50_ms"),
        p99_ms: windowed_p99(&s.lat_ms),
        service_p50_ms: pct(&sorted(service_ms.clone()), 0.5, "service_p50_ms"),
        service_p99_ms: windowed_p99(&service_ms),
        goodput_frac: s.good as f64 / s.n as f64,
        max_qps,
        throughput_qps: s.achieved_qps * s.ok as f64 / s.n as f64,
    }
}

/// What [`batches`] observed.
struct BatchRun {
    /// Per-request service time (µs; infinite for a failed request).
    lat_us: Vec<f64>,
    /// Per request: served and equal to the oracle's digest.
    correct: Vec<bool>,
    hits: usize,
    /// Summed batch wall time.
    wall: Duration,
    /// Per batch: max / mean `executed_per_worker`.
    imbalance: Vec<f64>,
}

/// Runs `execute_batch` over consecutive batches of `reqs` until `secs`
/// of batch wall time have passed or the pool runs out, checking every
/// response; with a log, each batch is a `pool.batch` span.
fn batches(
    stack: &Stack,
    reqs: &[Request],
    digests: &[Digest],
    secs: f64,
    mut log: Option<&mut SpanLog>,
    report: &mut Report,
) -> BatchRun {
    let mut run = BatchRun {
        lat_us: Vec::new(),
        correct: Vec::new(),
        hits: 0,
        wall: Duration::ZERO,
        imbalance: Vec::new(),
    };
    for (k, (chunk, want)) in reqs.chunks(BATCH).zip(digests.chunks(BATCH)).enumerate() {
        if run.wall.as_secs_f64() >= secs {
            break;
        }
        let out = match log.as_deref_mut() {
            Some(log) => {
                log.time("pool.batch", None, k as u64, || {
                    stack.server.execute_batch(chunk)
                })
                .0
            }
            None => stack.server.execute_batch(chunk),
        };
        run.wall += out.wall;
        let per: Vec<f64> = out.executed_per_worker.iter().map(|&n| n as f64).collect();
        run.imbalance
            .push(per.iter().copied().fold(0.0, f64::max) / mean(&per));
        let mut wrong = 0;
        let mut failed = 0;
        for (r, d) in out.responses.iter().zip(want) {
            match r {
                Ok(resp) if resp.is_served() => {
                    let ok = Digest::of(&resp.docs) == *d;
                    wrong += usize::from(!ok);
                    failed += usize::from(!ok);
                    run.hits += usize::from(resp.cache == CacheOutcome::Hit);
                    run.correct.push(ok);
                    run.lat_us.push(resp.latency.as_secs_f64() * 1e6);
                }
                _ => {
                    failed += 1;
                    run.correct.push(false);
                    run.lat_us.push(f64::INFINITY);
                }
            }
        }
        report.account(chunk.len(), failed, wrong);
    }
    if run.wall.as_secs_f64() < secs && secs.is_finite() {
        report.note(format!(
            "note: the query pool ran out after {:.2} s of {secs} s",
            run.wall.as_secs_f64()
        ));
    }
    run
}

fn batch_untraced(
    args: &Args,
    stack: &Stack,
    queries: &[String],
    digests: &[Digest],
    report: &mut Report,
) -> EndToEnd {
    let reqs: Vec<Request> = queries.iter().map(|q| Request::expr(q.as_str())).collect();
    // Two unmeasured batches warm the pool threads and the allocator.
    let warm = 2 * BATCH;
    batches(
        stack,
        &reqs[..warm],
        &digests[..warm],
        f64::INFINITY,
        None,
        report,
    );
    let run = batches(
        stack,
        &reqs[warm..],
        &digests[warm..],
        args.seconds,
        None,
        report,
    );
    let n = run.lat_us.len();
    let limit_us = BATCH_LIMIT.as_secs_f64() * 1e6;
    let good = run
        .lat_us
        .iter()
        .zip(&run.correct)
        .filter(|&(&l, &c)| c && l <= limit_us)
        .count();
    let lat_ms: Vec<f64> = run.lat_us.iter().map(|l| l / 1e3).collect();
    let (p50_ms, p99_ms) = (
        pct(&sorted(lat_ms.clone()), 0.5, "p50_ms"),
        windowed_p99(&lat_ms),
    );
    let throughput = n as f64 / run.wall.as_secs_f64();
    report.note(format!(
        "batch-inproc: {n} requests in {} batches of {BATCH}, {:.3} s of batch wall time",
        n.div_ceil(BATCH),
        run.wall.as_secs_f64()
    ));
    EndToEnd {
        p50_ms,
        p99_ms,
        service_p50_ms: p50_ms,
        service_p99_ms: p99_ms,
        goodput_frac: good as f64 / n as f64,
        // A closed loop's completion rate is the highest rate it sustains.
        max_qps: throughput,
        throughput_qps: throughput,
    }
}

// ---- the traced run -----------------------------------------------------

/// In-process probe size of the traced run.
const PROBE: usize = 1500;

/// What one in-process probe pass observed.
#[derive(Default)]
struct Probe {
    log: SpanLog,
    /// Per shard span: `|log2((est_rows + 1) / (rows + 1))|`.
    est_err: Vec<f64>,
    /// Per query that reached the shards: max / mean shard span.
    skew: Vec<f64>,
    /// Per shard span: the root plan operator.
    kinds: Vec<String>,
    /// `serve.execute` time of cache hits, µs.
    hit_us: Vec<f64>,
    /// Response documents per query, for the encode measurement.
    results: Vec<Arc<Vec<u32>>>,
    wrong: usize,
}

/// Runs `queries` in process under spans: a `request` root with
/// `query.parse`, `query.rewrite` and a traced `serve.execute`, whose
/// `serve.cache` and `serve.shard` children come from the response's own
/// trace; then, outside the request and only when `shards` is set,
/// `serve.shards`: the sharded engine alone, no cache.
fn probe(stack: &Stack, queries: &[(String, Digest)], shards: bool) -> Probe {
    let mut p = Probe::default();
    for (k, (q, want)) in queries.iter().enumerate() {
        let k = k as u64;
        let log = &mut p.log;
        let root = log.open("request", None, k);
        let (ast, _) = log.time("query.parse", Some(root), k, || fsi_query::parse(q));
        let ast = ast.expect("generated queries parse");
        let (norm, _) = log.time("query.rewrite", Some(root), k, || {
            fsi_query::normalize(&ast)
        });
        let norm = norm.expect("generated queries normalize");
        let exec_start = Instant::now();
        let resp = stack
            .server
            .execute(&Request::norm(norm.clone()).traced())
            .expect("probe query executes");
        let exec_end = Instant::now();
        let exec = log.record("serve.execute", Some(root), k, exec_start, exec_end);
        log.close(root);
        p.wrong += usize::from(Digest::of(&resp.docs) != *want);
        if resp.cache == CacheOutcome::Hit {
            p.hit_us.push((exec_end - exec_start).as_secs_f64() * 1e6);
        }

        // The trace's origin is taken inside `execute`, just after
        // `exec_start`: its spans are placed relative to that.
        let base = log.ns(exec_start);
        let trace = resp.trace.as_ref().expect("traced request returns a trace");
        let mut shard_ns = Vec::new();
        for s in &trace.spans {
            let (start, end) = (base + s.start_ns, base + s.start_ns + s.dur_ns);
            if s.name.starts_with("shard") {
                log.push("serve.shard", Some(exec), k, start, end);
                shard_ns.push(s.dur_ns as f64);
                let num = |key: &str| s.get(key).and_then(|v| v.parse::<f64>().ok());
                if let (Some(est), Some(rows)) = (num("est_rows"), num("rows")) {
                    p.est_err.push(((est + 1.0) / (rows + 1.0)).log2().abs());
                }
                if let Some(kind) = s.get("kind") {
                    p.kinds.push(kind.to_string());
                }
            } else if s.name == "cache" {
                log.push("serve.cache", Some(exec), k, start, end);
            }
        }
        if !shard_ns.is_empty() {
            let max = shard_ns.iter().copied().fold(0.0, f64::max);
            p.skew.push(max / mean(&shard_ns));
        }
        if shards {
            log.time("serve.shards", None, k, || {
                stack.server.engine().query_expr(&norm)
            });
        }
        p.results.push(Arc::clone(&resp.docs));
    }
    p
}

/// Median per-call time (µs) of the front door's frame codec on this
/// workload's own frames: `decode_request` of each query's request frame,
/// `encode_response` of each query's result.
fn codec_us(
    queries: &[(String, Digest)],
    results: &[Arc<Vec<u32>>],
    log: &mut SpanLog,
) -> (f64, f64) {
    for (k, ((q, _), docs)) in queries.iter().zip(results).enumerate() {
        let body = fsi_net::protocol::encode_request(&RequestFrame::query(k as u64, q.as_str()));
        let (frame, _) = log.time("net.decode", None, k as u64, || {
            fsi_net::protocol::decode_request(&body)
        });
        assert_eq!(frame.expect("own frame decodes").query, *q);
        let resp = ResponseFrame {
            status: Status::Ok,
            detail: 0,
            flags: 0,
            id: k as u64,
            latency_us: 0,
            docs: docs.as_slice().to_vec(),
            message: String::new(),
        };
        let (bytes, _) = log.time("net.encode", None, k as u64, || {
            fsi_net::protocol::encode_response(&resp)
        });
        std::hint::black_box(bytes);
    }
    (
        median(&log.durations_us("net.decode")),
        median(&log.durations_us("net.encode")),
    )
}

fn scrape(stack: &Stack) -> String {
    Client::connect(stack.net.local_addr())
        .and_then(|mut c| {
            c.metrics()
                .map_err(|e| std::io::Error::other(e.to_string()))
        })
        .expect("Metrics admin op")
}

fn plans(text: &str) -> f64 {
    prom::counter_sum(text, "fsi_plan_kind_total")
}

fn dispatches(text: &str) -> f64 {
    prom::counter_sum(text, "fsi_kernel_pair_dispatch_total")
        + prom::counter_sum(text, "fsi_kernel_multiway_dispatch_total")
}

/// Root operators a plan can report (`Response::plan_kind` and the shard
/// spans' `kind`).
const PLAN_KINDS: [(&str, &str); 11] = [
    ("Term", "index.plan.Term"),
    ("Empty", "index.plan.Empty"),
    ("Single", "index.plan.Single"),
    ("RanGroupScan", "index.plan.RanGroupScan"),
    ("HashProbe", "index.plan.HashProbe"),
    ("BitmapAnd", "index.plan.BitmapAnd"),
    ("GallopProbe", "index.plan.GallopProbe"),
    ("HeapMerge", "index.plan.HeapMerge"),
    ("CompressedGallop", "index.plan.CompressedGallop"),
    ("SliceProbe", "index.plan.SliceProbe"),
    ("BitmapOr", "index.plan.BitmapOr"),
];

/// Per-layer figures the wire phase (or, for `batch-inproc`, the batch
/// phase) contributes.
struct Front {
    overhead_us: Vec<f64>,
    queue_wait: Hist,
    batch_size: Hist,
    shed_frac: f64,
    overloaded_frac: f64,
    hit_rate: f64,
    evictions_per_req: f64,
    dispatch_per_query: f64,
    plans_per_query: f64,
    imbalance: f64,
    lag_ms: f64,
    /// Mean wire (or batch) latency, µs, and the mean of the parts the
    /// run attributes to a layer.
    mean_total_us: f64,
    mean_attributed_us: f64,
    /// p50 of the untraced and traced phases, for the overhead ratio.
    p50_plain_ms: f64,
    p50_traced_ms: f64,
    log: SpanLog,
}

fn traced(
    args: &Args,
    stack: &Stack,
    queries: Vec<String>,
    digests: Vec<Digest>,
    report: &mut Report,
) {
    let spec = match args.workload {
        Workload::HotWire => &HOT,
        _ => &COLD,
    };
    let requests = wire_requests(spec, args.seconds, true);
    let mut traffic = traffic_for(args, queries, digests, requests);
    let take = |t: &mut Traffic, n: usize| -> Vec<(String, Digest)> {
        (0..n)
            .map(|_| {
                let i = t.next();
                (t.queries[i].clone(), t.digests[i])
            })
            .collect()
    };

    // In-process probe. Hot: the distinct set once (misses: shards, plans,
    // estimates), then the replay order (hits). Cold and batch: fresh
    // queries, every one a miss, serve both roles.
    let hot = args.workload == Workload::HotWire;
    let miss_q = if hot {
        traffic
            .queries
            .iter()
            .cloned()
            .zip(traffic.digests.iter().copied())
            .collect()
    } else {
        take(&mut traffic, PROBE)
    };
    let misses = probe(stack, &miss_q, true);
    let replay_q = if hot {
        take(&mut traffic, PROBE)
    } else {
        Vec::new()
    };
    let replay = hot.then(|| probe(stack, &replay_q, false));
    let (served, served_q) = match &replay {
        Some(p) => (p, &replay_q),
        None => (&misses, &miss_q),
    };
    let probe_wrong = misses.wrong + replay.as_ref().map_or(0, |p| p.wrong);
    report.account(miss_q.len() + replay_q.len(), probe_wrong, probe_wrong);

    let mut codec_log = SpanLog::new();
    let (decode_us, encode_us) = codec_us(served_q, &served.results, &mut codec_log);
    let span_mean = |log: &SpanLog, name: &str| mean(&log.durations_us(name));

    let front = match args.workload {
        Workload::BatchInproc => batch_front(args, stack, &mut traffic, report),
        _ => wire_front(args, spec, stack, &mut traffic, report),
    };

    // ---- per-layer metrics ----
    let us = |v: &[f64], p: f64, what: &str| pct(&sorted(v.to_vec()), p, what);
    let self_us = served.log.self_us_by_name();
    let med = |name: &str| median(self_us.get(name).map_or(&[][..], Vec::as_slice));
    let exec_us = served.log.durations_us("serve.execute");
    let shards_us = misses.log.durations_us("serve.shards");
    let zero_if_empty =
        |v: &[f64], p: f64, what: &str| if v.is_empty() { 0.0 } else { us(v, p, what) };

    report.metric(
        "net.overhead_us.p50",
        zero_if_empty(&front.overhead_us, 0.5, "net.overhead_us"),
        "us",
    );
    report.metric(
        "net.overhead_us.p99",
        zero_if_empty(&front.overhead_us, 0.99, "net.overhead_us"),
        "us",
    );
    report.metric("net.decode_us", decode_us, "us");
    report.metric("net.encode_us", encode_us, "us");
    let wait_pct = |p: f64| front.queue_wait.percentile(p).map_or(0.0, |ns| ns / 1e3);
    report.metric("net.queue_wait_us.p50", wait_pct(0.5), "us");
    report.metric("net.queue_wait_us.p99", wait_pct(0.99), "us");
    let batch_mean = front.batch_size.mean();
    report.metric(
        "net.batch_size.mean",
        if batch_mean.is_finite() {
            batch_mean
        } else {
            0.0
        },
        "count",
    );
    report.metric("net.shed_frac", front.shed_frac, "frac");
    report.metric("net.overloaded_frac", front.overloaded_frac, "frac");
    report.metric("query.parse_us", med("query.parse"), "us");
    report.metric("query.rewrite_us", med("query.rewrite"), "us");
    report.metric(
        "serve.execute_us.p50",
        us(&exec_us, 0.5, "serve.execute_us"),
        "us",
    );
    report.metric(
        "serve.execute_us.p99",
        us(&exec_us, 0.99, "serve.execute_us"),
        "us",
    );
    report.metric("serve.cache.hit_rate", front.hit_rate, "frac");
    report.metric(
        "serve.cache.hit_us",
        if served.hit_us.is_empty() {
            0.0
        } else {
            median(&served.hit_us)
        },
        "us",
    );
    report.metric(
        "serve.cache.evictions_per_req",
        front.evictions_per_req,
        "count",
    );
    report.metric(
        "serve.shards_us.p50",
        us(&shards_us, 0.5, "serve.shards_us"),
        "us",
    );
    report.metric(
        "serve.shards_us.p99",
        us(&shards_us, 0.99, "serve.shards_us"),
        "us",
    );
    report.metric("serve.shard_skew", median(&misses.skew), "ratio");
    report.metric("serve.pool.imbalance", front.imbalance, "ratio");
    for (kind, name) in PLAN_KINDS {
        let n = misses.kinds.iter().filter(|k| k.as_str() == kind).count();
        report.metric(name, n as f64 / misses.kinds.len().max(1) as f64, "frac");
    }
    report.metric(
        "index.est_err.p50",
        us(&misses.est_err, 0.5, "index.est_err"),
        "log2",
    );
    report.metric(
        "index.est_err.p99",
        us(&misses.est_err, 0.99, "index.est_err"),
        "log2",
    );
    report.metric("index.plans_per_query", front.plans_per_query, "count");
    report.metric(
        "kernels.dispatch_per_query",
        front.dispatch_per_query,
        "count",
    );
    // Wire: generator lag, client send, frame decode, queue wait, server
    // service time and frame encode. Batch: parse, rewrite and execute.
    let attributed = match args.workload {
        Workload::BatchInproc => ["query.parse", "query.rewrite", "serve.execute"]
            .iter()
            .map(|n| span_mean(&served.log, n))
            .sum::<f64>(),
        _ => {
            front.mean_attributed_us
                + span_mean(&codec_log, "net.decode")
                + span_mean(&codec_log, "net.encode")
        }
    };
    report.metric(
        "trace.unattributed_frac",
        1.0 - attributed / front.mean_total_us,
        "frac",
    );
    report.metric(
        "trace.overhead_frac",
        front.p50_traced_ms / front.p50_plain_ms - 1.0,
        "frac",
    );
    report.metric("loadgen.lag_ms.max", front.lag_ms, "ms");
    report.note(format!(
        "traced run: {} probe misses, {} probe replays, {} spans",
        miss_q.len(),
        replay_q.len(),
        misses.log.spans().len()
            + replay.as_ref().map_or(0, |p| p.log.spans().len())
            + codec_log.spans().len()
    ));
    write_spans(
        args,
        [&misses.log, &codec_log, &front.log]
            .into_iter()
            .chain(replay.as_ref().map(|p| &p.log)),
    );
}

/// Writes the traced run's spans, one JSON object per line, under
/// `perfbench/out/`.
fn write_spans<'a>(args: &Args, logs: impl Iterator<Item = &'a SpanLog>) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let name = match args.workload {
        Workload::HotWire => "hot-wire",
        Workload::ColdWire => "cold-wire",
        Workload::BatchInproc => "batch-inproc",
    };
    let path = dir.join(format!("spans-{name}-{}.jsonl", args.seed));
    let body: String = logs.map(SpanLog::to_jsonl).collect();
    match std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, body)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
    }
}

/// Runs the workload's fixed rate for half the latency phase, twice: a plain
/// phase, then a traced one whose spans (`wire.request` with children
/// `loadgen.lag`, `net.send` and the server-reported `serve.execute`) are
/// assembled from the phase's timestamps, around scrapes of the `Metrics`
/// admin op and the cache counters.
fn wire_front(
    args: &Args,
    spec: &WireSpec,
    stack: &Stack,
    traffic: &mut Traffic,
    report: &mut Report,
) -> Front {
    let secs = args.seconds * MAIN_SHARE / 2.0;
    let (reqs, want) = traffic.requests(4 * BATCH, false);
    let imbalance = median(&batches(stack, &reqs, &want, f64::INFINITY, None, report).imbalance);
    let warm = traffic.phase(args.seed ^ 0x3a7e, spec.rate_qps, WARMUP_SECS);
    wire_phase(stack, traffic, &warm, spec.limit, report);
    let plain_plan = traffic.phase(args.seed ^ 0x3a1f, spec.rate_qps, secs);
    let plain = wire_phase(stack, traffic, &plain_plan, spec.limit, report);

    let before = scrape(stack);
    let cache_before = stack.server.cache().stats();
    let plan = traffic.phase(args.seed ^ 0x3a2f, spec.rate_qps, secs);
    let phase = wire::run(
        stack.net.local_addr(),
        &traffic.queries,
        &traffic.digests,
        &plan,
    );
    let after = scrape(stack);
    let cache_after = stack.server.cache().stats();
    let s = PhaseStats::of(&phase, &plan, spec.limit);
    report.account(s.n, s.failed(), s.wrong);

    let mut log = SpanLog::new();
    for (k, (p, (a, &(send0, send1)))) in plan
        .iter()
        .zip(phase.answers.iter().zip(&phase.sends))
        .enumerate()
    {
        let k = k as u64;
        let ns = |d: Duration| d.as_nanos() as u64;
        let recv = p.at + a.latency;
        let root = log.push("wire.request", None, k, ns(p.at), ns(recv));
        log.push("loadgen.lag", Some(root), k, ns(p.at), ns(send0.max(p.at)));
        log.push("net.send", Some(root), k, ns(send0), ns(send1));
        let server = Duration::from_micros(u64::from(a.server_us)).min(recv);
        log.push("serve.execute", Some(root), k, ns(recv - server), ns(recv));
    }
    let mean_of = |name: &str| mean(&log.durations_us(name));
    report.note(format!(
        "traced wire phase: {} requests, wire p50 {:.1} us (mean {:.1} us), \
         server-reported p50 {:.1} us (mean {:.1} us)",
        s.n,
        pct(&s.sorted_ms, 0.5, "wire p50") * 1e3,
        mean_of("wire.request"),
        median(&s.server_us),
        mean(&s.server_us)
    ));
    let queue_wait = Hist::scrape(&after, "fsi_net_queue_wait_ns")
        .since(&Hist::scrape(&before, "fsi_net_queue_wait_ns"));
    let batch_size = Hist::scrape(&after, "fsi_net_batch_size")
        .since(&Hist::scrape(&before, "fsi_net_batch_size"));
    let attributed = mean_of("loadgen.lag")
        + mean_of("net.send")
        + mean_of("serve.execute")
        + queue_wait.mean() / 1e3;
    let n = s.n as f64;
    Front {
        overhead_us: s.overhead_us.clone(),
        shed_frac: s.shed as f64 / n,
        overloaded_frac: s.overloaded as f64 / n,
        hit_rate: s.hits as f64 / s.ok.max(1) as f64,
        evictions_per_req: (cache_after.evictions - cache_before.evictions) as f64 / n,
        dispatch_per_query: (dispatches(&after) - dispatches(&before)) / n,
        plans_per_query: (plans(&after) - plans(&before)) / n,
        imbalance,
        lag_ms: ms(s.lag.max(plain.lag)),
        mean_total_us: mean_of("wire.request"),
        mean_attributed_us: attributed,
        p50_plain_ms: pct(&plain.sorted_ms, 0.5, "p50_ms"),
        p50_traced_ms: pct(&s.sorted_ms, 0.5, "p50_ms"),
        queue_wait,
        batch_size,
        log,
    }
}

/// The batch workload's traced phase: plain batches, then batches of
/// traced requests (the program's own per-request tracing), around scrapes
/// of the `Metrics` admin op and the cache counters. Each batch is a
/// `pool.batch` span.
fn batch_front(args: &Args, stack: &Stack, traffic: &mut Traffic, report: &mut Report) -> Front {
    let secs = args.seconds * MAIN_SHARE / 2.0;
    let n = (secs * BATCH_POOL_PER_SEC) as usize;
    let (reqs, want) = traffic.requests(n, false);
    let plain = batches(stack, &reqs, &want, secs, None, report);
    let (reqs, want) = traffic.requests(n, true);
    let before = scrape(stack);
    let cache_before = stack.server.cache().stats();
    let mut log = SpanLog::new();
    let run = batches(stack, &reqs, &want, secs, Some(&mut log), report);
    let after = scrape(stack);
    let cache_after = stack.server.cache().stats();
    let n = run.lat_us.len() as f64;
    Front {
        overhead_us: Vec::new(),
        queue_wait: Hist::default(),
        batch_size: Hist::default(),
        shed_frac: 0.0,
        overloaded_frac: 0.0,
        hit_rate: run.hits as f64 / n,
        evictions_per_req: (cache_after.evictions - cache_before.evictions) as f64 / n,
        dispatch_per_query: (dispatches(&after) - dispatches(&before)) / n,
        plans_per_query: (plans(&after) - plans(&before)) / n,
        imbalance: median(&run.imbalance),
        lag_ms: 0.0,
        mean_total_us: mean(&run.lat_us),
        mean_attributed_us: 0.0,
        p50_plain_ms: median(&plain.lat_us) / 1e3,
        p50_traced_ms: median(&run.lat_us) / 1e3,
        log,
    }
}
