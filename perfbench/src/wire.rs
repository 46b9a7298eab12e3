//! The open-loop load generator. One connection, split into a paced sender
//! (the calling thread) and a receiver thread: two threads in all. Each
//! request is timed from its *scheduled* send, so a stalled generator or
//! server charges its delay to every request due during the stall, and the
//! sender reports how late it ran.

use crate::digest::Digest;
use fsi_net::{Client, RequestFrame, Status};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One planned request: which query, and when it is due.
#[derive(Debug, Clone, Copy)]
pub struct Planned {
    pub query: usize,
    pub at: Duration,
}

/// What came back for one request.
#[derive(Debug, Clone, Copy)]
pub struct Answer {
    pub status: Status,
    /// Frame `detail` byte (the cache outcome for `Ok`).
    pub detail: u8,
    /// The docs match the oracle's digest (false for any non-`Ok`).
    pub correct: bool,
    /// Scheduled send → response received.
    pub latency: Duration,
    /// Service time the server reported (`ResponseFrame::latency_us`).
    pub server_us: u32,
}

/// One phase's raw outcome, indexed like the plan.
#[derive(Debug)]
pub struct Phase {
    pub answers: Vec<Answer>,
    /// Actual send start and end per request, from the phase origin.
    pub sends: Vec<(Duration, Duration)>,
    /// Latest response, from the phase origin.
    pub last_recv: Duration,
}

impl Phase {
    /// Worst lateness of the generator against its schedule.
    pub fn max_lag(&self, plan: &[Planned]) -> Duration {
        plan.iter()
            .zip(&self.sends)
            .map(|(p, &(start, _))| start.saturating_sub(p.at))
            .max()
            .unwrap_or_default()
    }
}

/// Sleeps to an absolute instant. No spinning: the generator shares the
/// cores with the server it measures, and its oversleep shows as lag.
fn wait_until(t: Instant) {
    while let Some(left) = t.checked_duration_since(Instant::now()) {
        std::thread::sleep(left);
    }
}

/// Replays `plan` against the server at `addr` and checks every response
/// against `expected[query]`. Panics if the connection breaks: every
/// request must get exactly one response.
pub fn run(addr: SocketAddr, queries: &[String], expected: &[Digest], plan: &[Planned]) -> Phase {
    let client = Client::connect(addr).expect("connect to the server under test");
    let mut sender = client.try_clone().expect("split the connection");
    let mut receiver = client;
    let origin = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut answers: Vec<Option<Answer>> = vec![None; plan.len()];
            let mut last = Instant::now();
            for _ in 0..plan.len() {
                let resp = receiver
                    .recv()
                    .expect("read a response")
                    .expect("server closed the connection early");
                last = Instant::now();
                let k = resp.id as usize;
                let p = plan.get(k).expect("response id outside the plan");
                assert!(answers[k].is_none(), "two responses for request {k}");
                answers[k] = Some(Answer {
                    status: resp.status,
                    detail: resp.detail,
                    correct: resp.status == Status::Ok
                        && Digest::of(&resp.docs) == expected[p.query],
                    latency: last.saturating_duration_since(origin + p.at),
                    server_us: resp.latency_us,
                });
            }
            let answers = answers
                .into_iter()
                .map(|a| a.expect("one response per request"))
                .collect();
            (answers, last.saturating_duration_since(origin))
        });
        let mut sends = Vec::with_capacity(plan.len());
        for (k, p) in plan.iter().enumerate() {
            let frame = RequestFrame::query(k as u64, queries[p.query].as_str());
            wait_until(origin + p.at);
            let start = Instant::now();
            sender.send(&frame).expect("send a request");
            sends.push((
                start.saturating_duration_since(origin),
                Instant::now().saturating_duration_since(origin),
            ));
        }
        let (answers, last_recv) = reader.join().expect("receiver thread");
        Phase {
            answers,
            sends,
            last_recv,
        }
    })
}
