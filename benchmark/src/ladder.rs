//! The open-loop rate ladder (traced run only, informational).
//!
//! A seeded Poisson schedule over two connections at 200, 400 and 800
//! requests per second. Every request is timed from the instant it was
//! *due*, so a stall is paid for by the requests queued behind it, and
//! the generator's own lateness (actual send minus due time) is reported
//! beside the latencies. With two cores the scheduler, not the server,
//! decides much of the result — which is why none of this is gated.

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use permsearch_serve::{Client, ProtocolError};

use crate::harness::Harness;
use crate::inputs::{Fnv, SplitMix, K};
use crate::spans::SpanId;
use crate::stats::percentile_us;

pub const RATES: [(u32, &str); 3] = [
    (200, "loadgen.r200_p50_us"),
    (400, "loadgen.r400_p50_us"),
    (800, "loadgen.r800_p50_us"),
];
pub const CONNECTIONS: usize = 2;
/// Latency limit on the p90 for `loadgen.slo_rate_qps`, microseconds.
pub const SLO_P90_US: f64 = 3_000.0;
const SALT: u64 = 0x7C9_0005;

/// Arrival offsets of a Poisson process at `rate` per second over
/// `seconds`, from the harness's own generator, in whole microseconds:
/// `ln` is not bit-reproducible across libms, a microsecond of it is.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix::new(seed ^ SALT ^ rate.to_bits());
    let mut arrivals = Vec::with_capacity((rate * seconds) as usize + 16);
    let mut t = 0.0f64;
    loop {
        // 1 − u lies in (0, 1], so the gap is finite and non-negative.
        t += -(1.0 - rng.unit()).ln() / rate;
        if t >= seconds {
            return arrivals;
        }
        arrivals.push((t * 1e6).round() as u64);
    }
}

/// How long each rate of the ladder runs.
fn rate_seconds(h: &Harness) -> f64 {
    if h.cfg.smoke {
        1.0
    } else {
        5.0
    }
}

/// Fingerprint of the three schedules of this run.
pub fn schedule_fingerprint(h: &Harness) -> u64 {
    let mut fnv = Fnv::new();
    for (rate, _) in RATES {
        for t in poisson_schedule(f64::from(rate), rate_seconds(h), h.cfg.seed) {
            fnv.u64(t);
        }
    }
    fnv.finish()
}

/// One request as a sender thread saw it.
struct Sent {
    due: Instant,
    sent: Instant,
    done: Instant,
    ok: bool,
}

/// Run one rate: the senders sleep until each request is due, send it,
/// and wait for the reply. Returns every request of every connection.
fn run_rate(addr: SocketAddr, queries: &[Vec<f32>], schedule: &[u64]) -> Vec<Sent> {
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).expect("connect a ladder connection"))
        .collect();
    let start = Instant::now() + Duration::from_millis(20);
    let mut all = Vec::with_capacity(schedule.len());
    std::thread::scope(|scope| {
        let senders: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut sent = Vec::new();
                    for (i, &offset) in schedule.iter().enumerate() {
                        if i % CONNECTIONS != c {
                            continue;
                        }
                        let due = start + Duration::from_micros(offset);
                        if let Some(gap) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(gap);
                        }
                        let query = std::slice::from_ref(&queries[i % queries.len()]);
                        let at = Instant::now();
                        let reply = client.search_deadline(query, K as u32, None);
                        // Shed and remote errors leave the connection
                        // usable; any other error fails the rest of this
                        // connection's share.
                        let (ok, broken) = match reply {
                            Ok(r) => (r.statuses.iter().all(|s| s.is_ok()), false),
                            Err(ProtocolError::Overloaded { .. } | ProtocolError::Remote(_)) => {
                                (false, false)
                            }
                            Err(_) => (false, true),
                        };
                        sent.push(Sent {
                            due,
                            sent: at,
                            done: Instant::now(),
                            ok,
                        });
                        if broken {
                            break;
                        }
                    }
                    sent
                })
            })
            .collect();
        for sender in senders {
            all.extend(sender.join().expect("a ladder sender panicked"));
        }
    });
    all
}

/// Climb the ladder and report `loadgen.*`.
pub fn run(h: &mut Harness, addr: SocketAddr, queries: &[Vec<f32>]) {
    let seconds = rate_seconds(h);
    let ladder_span = h.rec.open("loadgen.ladder", SpanId::NONE, 0);
    let (mut offered, mut failed) = (0usize, 0usize);
    let mut lateness_ns: Vec<u64> = Vec::new();
    let mut slo_rate = 0.0f64;
    for (rate, p50_metric) in RATES {
        let schedule = poisson_schedule(f64::from(rate), seconds, h.cfg.seed);
        let rate_span = h.rec.open("loadgen.rate", ladder_span, 0);
        let sent = run_rate(addr, queries, &schedule);
        h.rec.close(rate_span, schedule.len() as u64);

        let rate_failed = schedule.len() - sent.iter().filter(|s| s.ok).count();
        offered += schedule.len();
        failed += rate_failed;
        let mut latency_ns: Vec<u64> = Vec::with_capacity(sent.len());
        for s in &sent {
            let request = h.request_id();
            let (due, done) = (h.rec.offset_ns(s.due), h.rec.offset_ns(s.done));
            let span = h
                .rec
                .record("loadgen.request", rate_span, request, due, done, 1);
            h.rec.record(
                "serve.round_trip",
                span,
                request,
                h.rec.offset_ns(s.sent),
                done,
                1,
            );
            lateness_ns.push(s.sent.saturating_duration_since(s.due).as_nanos() as u64);
            if s.ok {
                latency_ns.push(s.done.saturating_duration_since(s.due).as_nanos() as u64);
            }
        }
        let p90 = percentile_us(&mut latency_ns, 0.9);
        h.set(p50_metric, percentile_us(&mut latency_ns, 0.5));
        if rate == 800 {
            h.set("loadgen.r800_p90_us", p90);
        }
        // The limit is met only if nothing failed and the p90 holds; the
        // senders wait for every reply, so no backlog outlives the rate.
        if rate_failed == 0 && p90 <= SLO_P90_US {
            slo_rate = slo_rate.max(f64::from(rate));
        }
    }
    h.rec.close(ladder_span, offered as u64);
    h.set("loadgen.late_p90_us", percentile_us(&mut lateness_ns, 0.9));
    h.set("loadgen.slo_rate_qps", slo_rate);
    h.set(
        "loadgen.failed_share",
        failed as f64 / offered.max(1) as f64,
    );
}
