//! The served phase of a traced `scan_wide` run: the per-layer metrics of
//! `psi-serve`.
//!
//! Point lookups against the same opened store are served in-process by
//! `Server::serve` (default configuration) over loopback TCP, one
//! connection at a time: a closed loop with 16 outstanding requests, then
//! an open loop with Poisson arrivals. The pool is 4096 queries with `a`'s
//! values drawn from Zipf(0.9): 60% `a=v`, 30% `a=v ∧ b=w`, 10%
//! `a=v ∧ ¬(b=w)`. Every reply is checked against the oracle.
//!
//! A served workload of its own was measured and left out of the
//! benchmark: on a 2-core VM with noisy neighbours its closed-loop
//! throughput and p99 latency moved by 20-40% between runs.

use std::sync::Arc;
use std::time::{Duration, Instant};

use psi_query::IndexedTable;
use psi_serve::{wire, Client, ServeConfig, Server};
use psi_workloads::Table;

use crate::data;
use crate::layers::Delta;
use crate::loadgen::{self, Stream};
use crate::metrics::{Report, Samples};
use crate::oracle::{check, Digest, Oracle};
use crate::trace::Tracer;

/// Offered rate of the open loop: about 15% of the closed-loop throughput
/// (1200-2100/s) on a 2-core x86-64 VM, so queueing stays short.
const OPEN_RATE: f64 = 250.0;
/// Outstanding requests in the closed loop.
const WINDOW: usize = 16;
/// Queries replayed in-process for the wire codec and `execute` timings.
const REPLAYED: usize = 512;

/// Serves point lookups for `phase` closed-loop and `phase` open-loop and
/// reports `serve.*` and `loadgen.late_us.*`; returns the requests
/// attempted and failed.
pub fn layers(
    report: &mut Report,
    tracer: &mut Tracer,
    table: &Table,
    indexed: Arc<IndexedTable>,
    seed: u64,
    phase: Duration,
) -> Result<(u64, u64), String> {
    let queries = data::point_queries(seed);
    let oracle = Oracle::new(table);
    let expected: Vec<Digest> = queries.iter().map(|q| oracle.digest(q)).collect();
    drop(oracle);
    let stream = Stream {
        queries: &queries,
        expected: &expected,
    };

    let server = Server::serve(Arc::clone(&indexed), ServeConfig::default())
        .map_err(|e| format!("serve: {e}"))?;
    let addr = server.addr().expect("a TCP server has an address");
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let mut stats = connect()?;
    let before = stats.stats(1).map_err(|e| format!("stats: {e}"))?;
    let closed = loadgen::closed_loop(&mut connect()?, &stream, WINDOW, 0, phase)?;
    let after = stats.stats(2).map_err(|e| format!("stats: {e}"))?;
    for &(id, sent, done) in &closed.timings {
        tracer.record("serve.request", id, sent, done);
    }
    let served = Delta { before, after };
    let server_ns = served.hist("serve/request_ns");
    let rtt = &closed.rtt;
    report.add(
        "serve.rtt_us.p50",
        rtt.percentile_or(0.50, 0.0),
        "us",
        rtt.attempted(),
    );
    report.add(
        "serve.rtt_us.p99",
        rtt.percentile_or(0.99, 0.0),
        "us",
        rtt.attempted(),
    );
    report.add(
        "serve.server_us.p50",
        server_ns.quantile(0.50) as f64 / 1e3,
        "us",
        server_ns.count,
    );
    report.add(
        "serve.server_us.p99",
        server_ns.quantile(0.99) as f64 / 1e3,
        "us",
        server_ns.count,
    );
    let occupancy = served.hist("serve/batch_occupancy");
    report.add(
        "serve.batch_occupancy.mean",
        occupancy.mean(),
        "count",
        occupancy.count,
    );

    // The open loop samples the server's queue depth as replies arrive.
    let schedule = loadgen::poisson_schedule(OPEN_RATE, phase, data::sub_seed(seed, 5));
    let mut depth_max = 0i64;
    let mut depth_samples = 0u64;
    let open = loadgen::open_loop(addr, &stream, &schedule, closed.completed, |id| {
        if id % 16 == 0 {
            let depth = server.snapshot().gauge("serve/queue_depth").unwrap_or(0);
            depth_max = depth_max.max(depth);
            depth_samples += 1;
        }
    })?;
    for &(id, due, done) in &open.timings {
        tracer.record("serve.open_request", id, due, done);
    }
    report.add(
        "serve.queue_depth.max",
        depth_max as f64,
        "count",
        depth_samples,
    );
    for (q, tag) in [(0.50, "p50"), (0.99, "p99")] {
        report.add(
            format!("loadgen.late_us.{tag}"),
            open.late.percentile_or(q, 0.0),
            "us",
            open.late.attempted(),
        );
    }

    // In-process: `execute` and the wire codec on the same queries.
    let mut execute = Samples::default();
    let (mut wire_bytes, mut wire_rows, mut compressed_bytes) = (0u64, 0u64, 0.0f64);
    for (i, q) in queries.iter().enumerate().take(REPLAYED) {
        let t0 = Instant::now();
        let outcome = indexed
            .execute_conjunctive(q)
            .map_err(|e| format!("execute failed: {e}"))?;
        execute.push(t0.elapsed().as_secs_f64() * 1e6);
        check(
            &format!("served query {i}"),
            Digest::of(outcome.rows.iter()),
            expected[i],
        )?;
        let bytes = tracer.time("serve.wire", i as u64, None, || {
            let request = wire::encode_request(i as u64, q);
            let decoded = wire::decode_request(&request).map_err(|(_, e)| e.to_string())?;
            let response = wire::encode_rows(decoded.id, &outcome);
            std::hint::black_box(wire::decode_response(&response).map_err(|e| e.to_string())?);
            Ok::<u64, String>(response.len() as u64)
        })?;
        wire_bytes += bytes;
        wire_rows += outcome.rows.cardinality();
        compressed_bytes += outcome.rows.size_bits() as f64 / 8.0;
    }
    let n = execute.attempted();
    report.add(
        "serve.wire_us",
        tracer.durations("serve.wire").mean(),
        "us",
        n,
    );
    report.add(
        "serve.response_bytes_per_row",
        wire_bytes as f64 / wire_rows.max(1) as f64,
        "B/row",
        n,
    );
    report.add(
        "serve.wire_over_compressed",
        wire_bytes as f64 / compressed_bytes.max(1.0),
        "ratio",
        n,
    );

    let totals = server.shutdown();
    if totals.protocol_errors > 0 {
        return Err(format!("{} protocol errors", totals.protocol_errors));
    }
    let requests = totals.admitted + totals.shed;
    report.add("serve.shed", totals.shed as f64, "count", requests);
    report.add(
        "serve.protocol_errors",
        totals.protocol_errors as f64,
        "count",
        requests,
    );

    let (rtt_us, server_us) = (rtt.mean(), server_ns.mean() / 1e3);
    crate::waterfall(
        "served point lookups",
        &[
            ("rtt (client round trip, 16 outstanding)", rtt_us, false),
            (
                "client, socket and wire: rtt - server",
                rtt_us - server_us,
                true,
            ),
            (
                "queue, batch and encode: server - execute",
                server_us - execute.mean(),
                true,
            ),
            ("execute (in-process, unloaded)", execute.mean(), false),
        ],
    );
    Ok((
        closed.rtt.attempted() + open.latency.attempted(),
        closed.rtt.failed() + open.latency.failed(),
    ))
}
