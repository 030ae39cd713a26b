//! Per-layer measurements shared by the workloads: an in-process replay
//! of a read query stream that times each layer's public calls from the
//! outside, and deltas of the program's own registry counters.

use std::time::{Duration, Instant};

use psi_api::{RidSet, SecondaryIndex};
use psi_io::IoSession;
use psi_obs::{HistSnapshot, Registry, Snapshot};
use psi_query::{CombineStrategy, ConjunctiveQuery, IndexedTable};

use crate::metrics::{Report, Samples};
use crate::oracle::{check, Digest};
use crate::trace::Tracer;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.rtt_us.p50", "us"),
    ("serve.rtt_us.p99", "us"),
    ("serve.server_us.p50", "us"),
    ("serve.server_us.p99", "us"),
    ("serve.wire_us", "us"),
    ("serve.response_bytes_per_row", "B/row"),
    ("serve.wire_over_compressed", "ratio"),
    ("serve.batch_occupancy.mean", "count"),
    ("serve.queue_depth.max", "count"),
    ("serve.shed", "count"),
    ("serve.protocol_errors", "count"),
    ("query.execute_us.p50", "us"),
    ("query.execute_us.p99", "us"),
    ("query.plan_us", "us"),
    ("query.misestimate.max", "ratio"),
    ("query.strategy.gallop", "share"),
    ("query.strategy.probe", "share"),
    ("query.strategy.scan", "share"),
    ("core.cond_us.p50", "us"),
    ("core.cond_us.p99", "us"),
    ("core.cover_us", "us"),
    ("core.ns_per_row", "ns/row"),
    ("core.blocks_per_kilorow", "blocks"),
    ("core.result_bits_per_row", "bits/row"),
    ("io.pool.hit_ratio", "ratio"),
    ("io.pool.misses_per_query", "count"),
    ("io.pool.evictions", "count"),
    ("io.pool.fetch_us.p50", "us"),
    ("io.pool.fetch_us.p99", "us"),
    ("io.pool.overhead_us", "us"),
    ("bits.decode_ns_per_row", "ns/row"),
    ("bits.kernel.decode_swar", "count"),
    ("bits.kernel.decode_simd", "count"),
    ("bits.kernel.decode_scalar", "count"),
    ("bits.kernel.reencode_bitset", "count"),
    ("bits.kernel.intersect_gallop", "count"),
    ("bits.kernel.intersect_block_skip", "count"),
    ("bits.kernel.contains_block_skip", "count"),
    ("api.intersect_us", "us"),
    ("api.negate_us", "us"),
    ("store.build_s", "s"),
    ("store.save_s", "s"),
    ("store.open_s", "s"),
    ("store.warmup_s", "s"),
    ("store.file_bytes.a", "B"),
    ("store.file_bytes.b", "B"),
    ("store.file_bytes.c", "B"),
    ("wal.apply_us.p50", "us"),
    ("wal.commit_us.p50", "us"),
    ("wal.commit_us.p99", "us"),
    ("wal.checkpoint_ms.p50", "ms"),
    ("wal.checkpoint_ms.max", "ms"),
    ("wal.fsync_us.p50", "us"),
    ("wal.fsync_us.p99", "us"),
    ("wal.checkpoints", "count"),
    ("wal.log_bytes_per_op", "B/op"),
    ("wal.checkpoint_bytes_per_op", "B/op"),
    ("wal.bytes_written_per_op", "B/op"),
    ("wal.replayed_ops", "count"),
    ("loadgen.late_us.p50", "us"),
    ("loadgen.late_us.p99", "us"),
    ("loadgen.failed_permille", "permille"),
    ("trace.overhead_pct.throughput_ops_s", "pct"),
    ("trace.overhead_pct.latency_p50_us", "pct"),
    ("trace.overhead_pct.latency_p99_us", "pct"),
];

/// Reports 0 for every per-layer metric under `prefix` that the run did
/// not measure: the layer is not on this workload's path.
pub fn not_on_path(report: &mut Report, prefixes: &[&str]) {
    for &(name, unit) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) && report.get(name).is_none() {
            report.add(name, 0.0, unit, 0);
        }
    }
}

/// `a + b` of two histogram snapshots, bucket by bucket.
pub fn hist_add(a: &HistSnapshot, b: &HistSnapshot) -> HistSnapshot {
    let mut buckets = a.buckets.clone();
    for &(high, n) in &b.buckets {
        match buckets.iter_mut().find(|(h, _)| *h == high) {
            Some((_, m)) => *m += n,
            None => buckets.push((high, n)),
        }
    }
    buckets.sort_unstable();
    HistSnapshot {
        count: a.count + b.count,
        sum: a.sum + b.sum,
        buckets,
    }
}

/// `after − before` of one histogram, bucket by bucket.
pub fn hist_delta(after: &HistSnapshot, before: &HistSnapshot) -> HistSnapshot {
    let buckets = after
        .buckets
        .iter()
        .filter_map(|&(high, n)| {
            let was = before
                .buckets
                .iter()
                .find(|&&(h, _)| h == high)
                .map_or(0, |&(_, m)| m);
            (n > was).then_some((high, n - was))
        })
        .collect();
    HistSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        buckets,
    }
}

/// Counter and histogram deltas between two registry snapshots.
pub struct Delta {
    pub before: Snapshot,
    pub after: Snapshot,
}

impl Delta {
    pub fn counter(&self, name: &str) -> u64 {
        let get = |s: &Snapshot| s.counter(name).unwrap_or(0);
        get(&self.after).saturating_sub(get(&self.before))
    }

    pub fn hist(&self, name: &str) -> HistSnapshot {
        let empty = HistSnapshot::default();
        hist_delta(
            self.after.histogram(name).unwrap_or(&empty),
            self.before.histogram(name).unwrap_or(&empty),
        )
    }
}

/// Registry snapshot bracket around `f`.
pub fn registry_delta<R>(f: impl FnOnce() -> R) -> (R, Delta) {
    let before = Registry::global().snapshot();
    let r = f();
    let after = Registry::global().snapshot();
    (r, Delta { before, after })
}

/// `pool/*` deltas as per-layer metrics, per query of the phase.
pub fn report_pool(report: &mut Report, d: &Delta, queries: u64) {
    let (hits, misses) = (d.counter("pool/hits"), d.counter("pool/misses"));
    let fetch = d.hist("pool/fetch_ns");
    report.add(
        "io.pool.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
        hits + misses,
    );
    report.add(
        "io.pool.misses_per_query",
        misses as f64 / queries.max(1) as f64,
        "count",
        queries,
    );
    report.add(
        "io.pool.evictions",
        d.counter("pool/evictions") as f64,
        "count",
        1,
    );
    report.add(
        "io.pool.fetch_us.p50",
        fetch.quantile(0.50) as f64 / 1e3,
        "us",
        fetch.count,
    );
    report.add(
        "io.pool.fetch_us.p99",
        fetch.quantile(0.99) as f64 / 1e3,
        "us",
        fetch.count,
    );
}

/// The kernel dispatch counters reported per query, by registry name.
const KERNELS: &[(&str, &str)] = &[
    ("kernel/decode_swar", "bits.kernel.decode_swar"),
    ("kernel/decode_simd", "bits.kernel.decode_simd"),
    ("kernel/decode_scalar", "bits.kernel.decode_scalar"),
    ("kernel/reencode_bitset", "bits.kernel.reencode_bitset"),
    ("kernel/intersect_gallop", "bits.kernel.intersect_gallop"),
    (
        "kernel/intersect_block_skip",
        "bits.kernel.intersect_block_skip",
    ),
    (
        "kernel/contains_block_skip",
        "bits.kernel.contains_block_skip",
    ),
];

/// Records, as counts of `request`, how far each kernel counter moved
/// since `before` (a `psi_bits::kernel::snapshot`).
pub fn count_kernels(tracer: &mut Tracer, request: u64, before: &[(&'static str, u64)]) {
    let after = psi_bits::kernel::snapshot();
    for &(name, _) in KERNELS {
        let get = |s: &[(&str, u64)]| s.iter().find(|(n, _)| *n == name).map_or(0, |&(_, v)| v);
        tracer.count(name, request, get(&after).saturating_sub(get(before)));
    }
}

/// `bits.kernel.*` per query from the summed counter deltas.
pub fn report_kernels(report: &mut Report, total: impl Fn(&str) -> u64, queries: u64) {
    for &(name, metric) in KERNELS {
        report.add(
            metric,
            total(name) as f64 / queries.max(1) as f64,
            "count",
            queries,
        );
    }
}

/// Means (µs per query) of the replayed layers, for the waterfall.
#[derive(Debug, Default)]
pub struct ReplayMeans {
    pub execute_us: f64,
    pub plan_us: f64,
    pub cover_us: f64,
    pub cond_us: f64,
    pub cond_ram_us: f64,
}

fn column<'t>(t: &'t IndexedTable, attr: &str) -> &'t dyn SecondaryIndex {
    t.columns()
        .iter()
        .find(|c| c.name == attr)
        .map(|c| c.index.as_ref())
        .unwrap_or_else(|| panic!("no column {attr}"))
}

/// Replays `queries` in-process until `budget` runs out (at least one
/// pass over them), timing each layer's public calls:
/// `plan_query`, per condition `cardinality_hint` and `try_query` on the
/// pooled index and on its RAM twin, `RidSet::negate` and
/// `RidSet::intersect`, `IndexedTable::execute_conjunctive`,
/// and `RidSet::to_vec`. Every result is checked against `expected`.
pub fn replay(
    report: &mut Report,
    tracer: &mut Tracer,
    pooled: &IndexedTable,
    ram: &IndexedTable,
    queries: &[ConjunctiveQuery],
    expected: &[Digest],
    budget: Duration,
) -> Result<ReplayMeans, String> {
    let start = Instant::now();
    let mut cond = Samples::default();
    let mut execute = Samples::default();
    let (mut cond_rows, mut cond_bits, mut cond_reads) = (0u64, 0u64, 0u64);
    let (mut decoded_rows, mut decode_us) = (0u64, 0.0f64);
    let mut strategies = [0u64; 3];
    let mut misestimate = 1.0f64;
    let mut done = 0usize;
    while done < queries.len() || start.elapsed() < budget {
        let i = done % queries.len();
        let q = &queries[i];
        let req = done as u64;
        let kernels = psi_bits::kernel::snapshot();
        let root = tracer.begin("replay", req, None);
        let plan = tracer
            .time("query.plan", req, Some(root), || pooled.plan_query(q))
            .map_err(|e| format!("plan failed: {e}"))?;
        let mut results: Vec<RidSet> = Vec::new();
        for &ci in &plan.order {
            let c = &q.conditions[ci];
            let (index, twin) = (column(pooled, &c.attr), column(ram, &c.attr));
            tracer.time("core.cover", req, Some(root), || {
                std::hint::black_box(index.cardinality_hint(c.lo, c.hi))
            });
            let io = IoSession::new();
            let s = tracer.begin("core.cond", req, Some(root));
            let r = index
                .try_query(c.lo, c.hi, &io)
                .map_err(|e| format!("condition read failed: {e}"))?;
            tracer.end(s);
            cond.push(tracer.spans()[s].us());
            cond_rows += r.cardinality();
            cond_bits += r.size_bits();
            cond_reads += io.stats().reads;
            tracer.time("core.cond_ram", req, Some(root), || {
                std::hint::black_box(twin.query(c.lo, c.hi, &IoSession::untracked()))
            });
            let r = if c.negated {
                tracer.time("api.negate", req, Some(root), || r.negate())
            } else {
                r
            };
            results.push(r);
        }
        let combined = if results.len() > 1 {
            let s = tracer.begin("api.intersect", req, Some(root));
            let mut acc = results[0].intersect(&results[1]);
            for r in &results[2..] {
                acc = acc.intersect(r);
            }
            tracer.end(s);
            acc
        } else {
            results.pop().expect("a query has a condition")
        };
        let outcome = tracer
            .time("query.execute", req, Some(root), || {
                pooled.execute_conjunctive(q)
            })
            .map_err(|e| format!("execute failed: {e}"))?;
        execute.push(tracer.spans().last().expect("span").us());
        let s = tracer.begin("bits.decode", req, Some(root));
        let rows = outcome.rows.to_vec();
        tracer.end(s);
        decode_us += tracer.spans()[s].us();
        decoded_rows += rows.len() as u64;
        let want = expected[i];
        check(
            &format!("replayed query {i}"),
            Digest::of(rows.iter().copied()),
            want,
        )?;
        check(
            &format!("recombined query {i}"),
            Digest::of(combined.iter()),
            want,
        )?;
        strategies[match outcome.plan.strategy {
            CombineStrategy::Gallop => 0,
            CombineStrategy::Probe => 1,
            CombineStrategy::Scan => 2,
        }] += 1;
        misestimate = misestimate.max(outcome.trace.worst_misestimate());
        tracer.end(root);
        count_kernels(tracer, req, &kernels);
        done += 1;
    }

    let n = done as u64;
    let means = ReplayMeans {
        execute_us: execute.mean(),
        plan_us: tracer.durations("query.plan").mean(),
        cover_us: tracer.durations("core.cover").sum() / n as f64,
        cond_us: cond.sum() / n as f64,
        cond_ram_us: tracer.durations("core.cond_ram").sum() / n as f64,
    };
    report_kernels(report, |name| tracer.count_sum(name), n);
    report.add(
        "query.execute_us.p50",
        execute.percentile_or(0.50, 0.0),
        "us",
        n,
    );
    report.add(
        "query.execute_us.p99",
        execute.percentile_or(0.99, 0.0),
        "us",
        n,
    );
    report.add("query.plan_us", means.plan_us, "us", n);
    report.add("query.misestimate.max", misestimate, "ratio", n);
    for (k, name) in ["gallop", "probe", "scan"].iter().enumerate() {
        report.add(
            format!("query.strategy.{name}"),
            strategies[k] as f64 / n as f64,
            "share",
            n,
        );
    }
    report.add(
        "core.cond_us.p50",
        cond.percentile_or(0.50, 0.0),
        "us",
        cond.attempted(),
    );
    report.add(
        "core.cond_us.p99",
        cond.percentile_or(0.99, 0.0),
        "us",
        cond.attempted(),
    );
    let covers = tracer.durations("core.cover");
    report.add("core.cover_us", covers.mean(), "us", covers.attempted());
    report.add(
        "core.ns_per_row",
        cond.sum() * 1e3 / cond_rows.max(1) as f64,
        "ns/row",
        cond.attempted(),
    );
    report.add(
        "core.blocks_per_kilorow",
        cond_reads as f64 * 1e3 / cond_rows.max(1) as f64,
        "blocks",
        cond.attempted(),
    );
    report.add(
        "core.result_bits_per_row",
        cond_bits as f64 / cond_rows.max(1) as f64,
        "bits/row",
        cond.attempted(),
    );
    report.add(
        "io.pool.overhead_us",
        (cond.sum() - tracer.durations("core.cond_ram").sum()) / cond.attempted().max(1) as f64,
        "us",
        cond.attempted(),
    );
    report.add(
        "bits.decode_ns_per_row",
        decode_us * 1e3 / decoded_rows.max(1) as f64,
        "ns/row",
        n,
    );
    let intersect = tracer.durations("api.intersect");
    report.add(
        "api.intersect_us",
        intersect.mean(),
        "us",
        intersect.attempted(),
    );
    let negate = tracer.durations("api.negate");
    report.add("api.negate_us", negate.mean(), "us", negate.attempted());
    Ok(means)
}
