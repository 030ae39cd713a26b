//! `scan_wide`: wide range queries through `IndexedTable::execute`.
//!
//! One `OptimalIndex` per column of a 2^20-row table, saved and opened with a pool
//! that holds every block and warmed before timing. One thread runs a
//! closed loop over the query pool; no server is involved. The traced run
//! adds a served phase of point lookups (see `served`).

use std::time::{Duration, Instant};

use psi_query::{ConjunctiveQuery, IndexedTable};

use crate::data;
use crate::layers::{self, registry_delta};
use crate::metrics::{Report, Samples};
use crate::oracle::{self, check, Digest, Oracle};
use crate::trace::Tracer;
use crate::{Args, Run, REOPENS, SETUPS};

/// Distinct queries in the scan pool.
const POOL: usize = 64;

/// What one closed-loop pass saw.
struct Loop {
    latency: Samples,
    single_latency: Samples,
    busy: Duration,
}

impl Loop {
    fn throughput(&self) -> f64 {
        self.latency.attempted() as f64 / self.busy.as_secs_f64()
    }
}

/// Runs `execute` over the pool from query `first` for `duration`,
/// checking every answer outside the timed call.
fn closed_loop(
    indexed: &IndexedTable,
    queries: &[ConjunctiveQuery],
    expected: &[Digest],
    first: usize,
    duration: Duration,
    mut tracer: Option<&mut Tracer>,
) -> Result<Loop, String> {
    let mut out = Loop {
        latency: Samples::default(),
        single_latency: Samples::default(),
        busy: Duration::ZERO,
    };
    let start = Instant::now();
    let mut i = first;
    while start.elapsed() < duration {
        let k = i % queries.len();
        let q = &queries[k];
        let t0 = Instant::now();
        let result = indexed.execute_conjunctive(q);
        let t1 = Instant::now();
        out.busy += t1 - t0;
        if let Some(t) = tracer.as_deref_mut() {
            t.record("query.execute", i as u64, t0, t1);
        }
        let us = (t1 - t0).as_secs_f64() * 1e6;
        match result {
            Ok(outcome) => {
                check(
                    &format!("query {k}"),
                    Digest::of(outcome.rows.iter()),
                    expected[k],
                )?;
                out.latency.push(us);
                if q.len() == 1 {
                    out.single_latency.push(us);
                }
            }
            Err(_) => {
                out.latency.fail();
                if q.len() == 1 {
                    out.single_latency.fail();
                }
            }
        }
        i += 1;
    }
    Ok(out)
}

pub fn run(args: &Args) -> Result<Run, String> {
    let table = data::table(args.seed);
    let queries = data::scan_queries(args.seed, POOL);
    let oracle = Oracle::new(&table);
    oracle::agrees_with_naive_rows(
        &oracle,
        &table,
        &psi_query::Predicate::and([
            psi_query::Predicate::range("b", 10, 73),
            psi_query::Predicate::range("c", 3, 10),
        ]),
    )?;
    let expected: Vec<Digest> = queries.iter().map(|q| oracle.digest(q)).collect();
    drop(oracle);

    let mut report = Report::default();
    let dir = args.work_dir.join("scan_wide");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut totals = Vec::new();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t = Instant::now();
        let (built, mut setup) = data::build_and_save(&table, &dir);
        let indexed = data::open(&table, &built, &dir, &mut setup);
        let warm = Instant::now();
        for (k, q) in queries.iter().enumerate() {
            let out = indexed
                .execute_conjunctive(q)
                .map_err(|e| format!("warm-up query {k}: {e}"))?;
            check(
                &format!("warm-up query {k}"),
                Digest::of(out.rows.iter()),
                expected[k],
            )?;
        }
        setup.warmup_s = warm.elapsed().as_secs_f64();
        totals.push(t.elapsed().as_secs_f64());
        setups.push(setup);
        last = Some((indexed, built));
    }
    let (indexed, built) = last.expect("at least one set-up");
    let indexed = std::sync::Arc::new(indexed);
    let mut reopens = Vec::new();
    for _ in 0..REOPENS {
        let mut timing = data::StoreSetup::default();
        drop(data::open(&table, &built, &dir, &mut timing));
        reopens.push(timing.open_s);
    }
    crate::report_setup(&mut report, &totals, &setups, &reopens, table.rows());
    let miss = args.seconds.as_secs_f64() * 1e6;

    if !args.trace {
        let run = closed_loop(&indexed, &queries, &expected, 0, args.seconds, None)?;
        report.add(
            "throughput_ops_s",
            run.throughput(),
            "1/s",
            run.latency.attempted(),
        );
        report.add_latency("", std::slice::from_ref(&run.latency), miss);
        report.add_latency("read_", std::slice::from_ref(&run.single_latency), miss);
        return Ok(Run {
            report,
            attempted: run.latency.attempted(),
            failed: run.latency.failed(),
            tracer: None,
        });
    }

    let mut t = Tracer::new();
    let phase = args.seconds.mul_f64(1.0 / 3.0);
    let plain = closed_loop(&indexed, &queries, &expected, 0, phase, None)?;
    let (traced, pool) =
        registry_delta(|| closed_loop(&indexed, &queries, &expected, 0, phase, Some(&mut t)));
    let traced = traced?;
    layers::report_pool(&mut report, &pool, traced.latency.attempted());
    let pct = |traced: f64, plain: f64| 100.0 * (traced - plain) / plain.max(f64::MIN_POSITIVE);
    report.add(
        "trace.overhead_pct.throughput_ops_s",
        pct(traced.throughput(), plain.throughput()),
        "pct",
        traced.latency.attempted() + plain.latency.attempted(),
    );
    for (q, name) in [(0.50, "latency_p50_us"), (0.99, "latency_p99_us")] {
        report.add(
            format!("trace.overhead_pct.{name}"),
            pct(
                traced.latency.percentile_or(q, miss),
                plain.latency.percentile_or(q, miss),
            ),
            "pct",
            traced.latency.attempted() + plain.latency.attempted(),
        );
    }
    let ram = data::ram_table(&table, built);
    let means = layers::replay(
        &mut report,
        &mut t,
        &indexed,
        &ram,
        &queries,
        &expected,
        phase,
    )?;
    crate::waterfall(
        "scan_wide",
        &[
            ("execute", means.execute_us, false),
            ("plan", means.plan_us, false),
            ("conditions: cover", means.cover_us, false),
            (
                "conditions: pool overhead: pooled - RAM twin",
                means.cond_us - means.cond_ram_us,
                true,
            ),
            (
                "conditions: merge and decode: RAM twin - cover",
                means.cond_ram_us - means.cover_us,
                true,
            ),
            (
                "combine: execute - plan - conditions",
                means.execute_us - means.plan_us - means.cond_us,
                true,
            ),
        ],
    );
    let (served, served_failed) = crate::served::layers(
        &mut report,
        &mut t,
        &table,
        indexed,
        args.seed,
        phase.mul_f64(0.5),
    )?;
    layers::not_on_path(&mut report, &["wal."]);
    Ok(Run {
        report,
        attempted: plain.latency.attempted() + traced.latency.attempted() + served,
        failed: plain.latency.failed() + traced.latency.failed() + served_failed,
        tracer: Some(t),
    })
}
