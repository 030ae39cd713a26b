//! Load generators for the served workload: a closed loop with a fixed
//! window of outstanding requests, and an open loop with Poisson arrivals.
//!
//! Both use one connection. The open loop runs two threads, a sender and
//! a receiver (the caller's thread). The sender sleeps until each
//! request's due time and never spin-waits, so it does not take a core
//! from the server; how late it ran is reported instead.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use psi_query::ConjunctiveQuery;
use psi_serve::wire::Response;
use psi_serve::{Client, Receiver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Samples;
use crate::oracle::{check, Digest};

/// Send offsets of a Poisson process at `rate` per second over
/// `duration`, from `seed` alone.
pub fn poisson_schedule(rate: f64, duration: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(1e-12..1.0);
        t += -u.ln() / rate;
        if t >= duration.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// The served query stream: request `i` carries `queries[i % len]`.
pub struct Stream<'a> {
    pub queries: &'a [ConjunctiveQuery],
    pub expected: &'a [Digest],
}

impl Stream<'_> {
    pub fn query(&self, i: u64) -> &ConjunctiveQuery {
        &self.queries[i as usize % self.queries.len()]
    }

    /// Checks one response: rows must match the oracle; an error reply
    /// (shed or typed) is returned as `Ok(false)`, a failed operation.
    pub fn check(&self, resp: &Response) -> Result<bool, String> {
        match &resp.body {
            Ok(reply) => {
                let want = self.expected[resp.id as usize % self.expected.len()];
                check(
                    &format!("request {}", resp.id),
                    Digest::of(reply.rows.iter().copied()),
                    want,
                )?;
                Ok(true)
            }
            Err(_) => Ok(false),
        }
    }
}

fn recv(rx: &mut Receiver) -> Result<Response, String> {
    rx.recv()
        .map_err(|e| format!("receive failed: {e}"))?
        .ok_or_else(|| "server closed the connection".to_string())
}

/// What a closed-loop phase saw.
pub struct ClosedLoop {
    pub completed: u64,
    pub elapsed: Duration,
    /// Per-request round trip (µs), including time queued behind the
    /// other outstanding requests.
    pub rtt: Samples,
    /// `(id, sent, received)` per request, for spans.
    pub timings: Vec<(u64, Instant, Instant)>,
}

/// Keeps `window` requests outstanding on `client` for `duration`,
/// starting at request id `first`.
pub fn closed_loop(
    client: &mut Client,
    stream: &Stream<'_>,
    window: usize,
    first: u64,
    duration: Duration,
) -> Result<ClosedLoop, String> {
    let start = Instant::now();
    let mut sent_at: HashMap<u64, Instant> = HashMap::with_capacity(window);
    let mut next = first;
    let mut out = ClosedLoop {
        completed: 0,
        elapsed: Duration::ZERO,
        rtt: Samples::default(),
        timings: Vec::new(),
    };
    loop {
        let sending = start.elapsed() < duration;
        while sending && sent_at.len() < window {
            client
                .send(next, stream.query(next))
                .map_err(|e| format!("send failed: {e}"))?;
            sent_at.insert(next, Instant::now());
            next += 1;
        }
        if sent_at.is_empty() {
            break;
        }
        let resp = client
            .recv()
            .map_err(|e| format!("receive failed: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())?;
        let done = Instant::now();
        let t0 = sent_at
            .remove(&resp.id)
            .ok_or_else(|| format!("reply for unknown request {}", resp.id))?;
        if stream.check(&resp)? {
            out.rtt.push((done - t0).as_secs_f64() * 1e6);
        } else {
            out.rtt.fail();
        }
        out.completed += 1;
        out.timings.push((resp.id, t0, done));
    }
    out.elapsed = start.elapsed();
    Ok(out)
}

/// What an open-loop phase saw.
pub struct OpenLoop {
    /// Latency (µs) from each request's scheduled send time to its reply.
    pub latency: Samples,
    /// How late the sender ran against its schedule (µs).
    pub late: Samples,
    /// `(id, due, received)` per request, for spans.
    pub timings: Vec<(u64, Instant, Instant)>,
}

/// Sends request `first + i` at `schedule[i]` after the start and times
/// each reply from its due time. `every_reply` runs on the receiving
/// thread after each reply (for sampling server state).
pub fn open_loop(
    addr: SocketAddr,
    stream: &Stream<'_>,
    schedule: &[Duration],
    first: u64,
    mut every_reply: impl FnMut(u64),
) -> Result<OpenLoop, String> {
    let client = Client::connect(addr).map_err(|e| format!("connect failed: {e}"))?;
    let (mut tx, mut rx) = client.split();
    let start = Instant::now() + Duration::from_millis(5);
    let mut out = OpenLoop {
        latency: Samples::default(),
        late: Samples::default(),
        timings: Vec::with_capacity(schedule.len()),
    };
    out.late = std::thread::scope(|scope| -> Result<Samples, String> {
        let sender = scope.spawn(move || -> Result<Samples, String> {
            let mut late = Samples::default();
            for (i, offset) in schedule.iter().enumerate() {
                let due = start + *offset;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e6);
                let id = first + i as u64;
                tx.send(id, stream.query(id))
                    .map_err(|e| format!("send failed: {e}"))?;
            }
            Ok(late)
        });
        let mut received = 0usize;
        let mut failure = None;
        while received < schedule.len() {
            let resp = match recv(&mut rx) {
                Ok(r) => r,
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            };
            let done = Instant::now();
            received += 1;
            let i = resp
                .id
                .checked_sub(first)
                .filter(|&i| (i as usize) < schedule.len());
            let Some(i) = i else {
                failure = Some(format!("reply for unknown request {}", resp.id));
                break;
            };
            let due = start + schedule[i as usize];
            match stream.check(&resp) {
                Ok(true) => out
                    .latency
                    .push(done.saturating_duration_since(due).as_secs_f64() * 1e6),
                Ok(false) => out.latency.fail(),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            out.timings.push((resp.id, due, done));
            every_reply(resp.id);
        }
        // Dropping the receiver would not stop a blocked sender; it ends
        // on its own once the schedule is sent.
        let late = sender.join().expect("sender thread panicked");
        match failure {
            Some(e) => Err(e),
            None => late,
        }
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_repeats_for_a_seed() {
        let a = poisson_schedule(1500.0, Duration::from_secs(2), 7);
        let b = poisson_schedule(1500.0, Duration::from_secs(2), 7);
        let c = poisson_schedule(1500.0, Duration::from_secs(2), 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().unwrap() < &Duration::from_secs(2));
        // ~3000 arrivals; far outside ±10% would mean a wrong rate.
        assert!((2_700..3_300).contains(&a.len()), "{} arrivals", a.len());
    }
}
