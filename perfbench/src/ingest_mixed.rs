//! `ingest_mixed`: durable writes with reads in between, then recovery.
//!
//! A `FullyDynamicIndex` over a 2^18-row Zipf(0.8), σ=256 column, made
//! durable with `Durable::create` (group commit of 64 operations, a
//! checkpoint once the log passes 64 KiB). One thread applies a seeded
//! stream of 60% changes, 20% appends and 20% deletes, and after every
//! 10th write runs a width-4 `Durable::try_query`. The last 1024 writes
//! are appends after an explicit checkpoint, so recovery always replays
//! that many.
//! The cycle ends with a commit, drops the handle and times
//! `psi_wal::recover`. A run repeats
//! the same cycle from a fresh build until its time is up, so each cycle
//! is one set-up and one identical measured stream.

use std::path::Path;
use std::time::Instant;

use psi_api::{naive_query, MutOp, SecondaryIndex};
use psi_core::FullyDynamicIndex;
use psi_io::{IoConfig, IoSession};
use psi_obs::HistSnapshot;
use psi_wal::{Durable, DurableOptions, CHECKPOINT_FILE};
use rand::rngs::StdRng;
use rand::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::data::sub_seed;
use crate::layers::{self, hist_add, registry_delta};
use crate::metrics::{median, Report, Samples};
use crate::oracle::{check, Digest};
use crate::trace::Tracer;
use crate::{Args, Run};

const ROWS: usize = 1 << 18;
const SIGMA: u32 = 256;
/// Writes per cycle.
const WRITES: usize = 16_000;
const READ_EVERY: usize = 10;
const READ_WIDTH: u32 = 4;
/// Writes after the cycle's explicit checkpoint: the log tail recovery
/// replays, the same length in every cycle and for every seed. The tail
/// is appends only: replaying changes onto the file-backed recovered
/// index costs 10 to 55 ms depending on which extents the seed's tail
/// touches, which would make `recover_s` a property of the seed.
const TAIL: usize = 1024;
/// Cycles per run at least, so `setup_s` and `recover_s` are medians.
const MIN_CYCLES: usize = 3;

fn options() -> DurableOptions {
    DurableOptions {
        group_commit_ops: 64,
        checkpoint_wal_bytes: Some(64 * 1024),
        ..DurableOptions::default()
    }
}

enum Step {
    Write(MutOp),
    /// A read of `[lo, lo + READ_WIDTH)` and its expected answer.
    Read(u32, Digest),
}

/// One cycle's inputs and the oracle's answers, made from the seed.
struct Plan {
    column: Vec<u32>,
    steps: Vec<Step>,
    /// The column after every write (deleted rows hold `SIGMA`).
    shadow: Vec<u32>,
    /// Bytes the log records of all writes take.
    record_bytes: u64,
}

fn plan(seed: u64) -> Plan {
    let column = psi_workloads::zipf(ROWS, SIGMA, 0.8, sub_seed(seed, 6));
    let symbols = psi_workloads::zipf(WRITES, SIGMA, 0.8, sub_seed(seed, 7));
    let mut rng = StdRng::seed_from_u64(sub_seed(seed, 8));
    // Reads cycle through every start symbol in a seeded order, so each
    // seed reads the hot and the cold symbols equally often.
    let mut starts: Vec<u32> = (0..=SIGMA - READ_WIDTH).collect();
    starts.shuffle(&mut rng);
    let mut next_start = starts.iter().copied().cycle();
    let mut shadow = column.clone();
    let mut steps = Vec::new();
    let mut record = Vec::new();
    for (w, &symbol) in symbols.iter().enumerate() {
        let len = shadow.len() as u64;
        let roll = if w >= WRITES - TAIL {
            6
        } else {
            rng.gen_range(0..10u32)
        };
        let op = match roll {
            0..=5 => MutOp::Change {
                pos: rng.gen_range(0..len),
                symbol,
            },
            6..=7 => MutOp::Append { symbol },
            _ => MutOp::Delete {
                pos: rng.gen_range(0..len),
            },
        };
        match op {
            MutOp::Change { pos, symbol } => shadow[pos as usize] = symbol,
            MutOp::Append { symbol } => shadow.push(symbol),
            MutOp::Delete { pos } => shadow[pos as usize] = SIGMA,
        }
        psi_wal::record::encode_record(w as u64 + 1, &op, &mut record);
        steps.push(Step::Write(op));
        if (w + 1) % READ_EVERY == 0 {
            let lo = next_start.next().expect("a cycle never ends");
            let want = Digest::of(naive_query(&shadow, lo, lo + READ_WIDTH - 1).iter());
            steps.push(Step::Read(lo, want));
        }
    }
    Plan {
        column,
        steps,
        shadow,
        record_bytes: record.len() as u64,
    }
}

/// What one cycle measured.
#[derive(Default)]
struct Cycle {
    setup_s: f64,
    build_s: f64,
    create_s: f64,
    loop_s: f64,
    writes: Samples,
    reads: Samples,
    /// Final checkpoint file size, and its bytes still referenced.
    checkpoint_bytes: u64,
    live_bytes: u64,
    checkpoints: u64,
    recover_s: f64,
    replayed: u64,
}

fn io_err(what: &str) -> impl Fn(psi_wal::WalError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Runs one cycle in `dir`; spans go to `tracer` when given.
fn cycle(plan: &Plan, dir: &Path, mut tracer: Option<&mut Tracer>) -> Result<Cycle, String> {
    let _ = std::fs::remove_dir_all(dir);
    let mut c = Cycle::default();
    let t = Instant::now();
    let index = FullyDynamicIndex::build(&plan.column, SIGMA, IoConfig::default());
    c.build_s = t.elapsed().as_secs_f64();
    let created = Instant::now();
    let mut d = Durable::create(dir, index, options()).map_err(io_err("create"))?;
    c.create_s = created.elapsed().as_secs_f64();
    c.setup_s = t.elapsed().as_secs_f64();

    let io = IoSession::untracked();
    let mut pending: Vec<Instant> = Vec::with_capacity(64);
    let start = Instant::now();
    let mut req = 0u64;
    let mut written = 0usize;
    for step in &plan.steps {
        req += 1;
        match step {
            Step::Write(op) => {
                if written == WRITES - TAIL {
                    d.checkpoint()
                        .map_err(io_err("checkpoint before the tail"))?;
                    // The checkpoint commits the log first: that
                    // acknowledges every pending write.
                    let now = Instant::now();
                    for p in pending.drain(..) {
                        c.writes.push((now - p).as_secs_f64() * 1e6);
                    }
                }
                written += 1;
                let (epoch, acked) = (d.epoch(), d.acked_seq());
                let t0 = Instant::now();
                let applied = d.apply(op, &io);
                let t1 = Instant::now();
                pending.push(t0);
                if let Err(e) = applied {
                    return Err(format!("write {op:?} failed: {e}"));
                }
                if d.acked_seq() > acked {
                    for p in pending.drain(..) {
                        c.writes.push((t1 - p).as_secs_f64() * 1e6);
                    }
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    let name = if d.epoch() != epoch {
                        "wal.checkpoint"
                    } else if d.acked_seq() > acked {
                        "wal.commit"
                    } else {
                        "wal.apply"
                    };
                    tr.record(name, req, t0, t1);
                }
            }
            Step::Read(lo, want) => {
                let hi = lo + READ_WIDTH - 1;
                let read_io = if tracer.is_some() {
                    IoSession::new()
                } else {
                    IoSession::untracked()
                };
                let kernels = psi_bits::kernel::snapshot();
                let t0 = Instant::now();
                let result = d.try_query(*lo, hi, &read_io);
                let t1 = Instant::now();
                let Ok(rows) = result else {
                    c.reads.fail();
                    continue;
                };
                c.reads.push((t1 - t0).as_secs_f64() * 1e6);
                if let Some(tr) = tracer.as_deref_mut() {
                    tr.record("core.cond", req, t0, t1);
                    tr.time("core.cover", req, None, || {
                        std::hint::black_box(d.index().cardinality_hint(*lo, hi))
                    });
                    let v = tr.time("bits.decode", req, None, || rows.to_vec());
                    tr.count("core.rows", req, v.len() as u64);
                    tr.count("core.bits", req, rows.size_bits());
                    tr.count("core.blocks", req, read_io.stats().reads);
                    layers::count_kernels(tr, req, &kernels);
                }
                check(&format!("read {req}"), Digest::of(rows.iter()), *want)?;
            }
        }
    }
    d.commit().map_err(io_err("final commit"))?;
    let t1 = Instant::now();
    for p in pending.drain(..) {
        c.writes.push((t1 - p).as_secs_f64() * 1e6);
    }
    c.loop_s = start.elapsed().as_secs_f64();
    c.checkpoints = d.epoch() - 1;
    c.checkpoint_bytes = std::fs::metadata(dir.join(CHECKPOINT_FILE))
        .map_err(|e| format!("checkpoint file: {e}"))?
        .len();
    let writes = d.acked_seq() as usize;
    drop(d);

    let t = Instant::now();
    let (recovered, rep) =
        psi_wal::recover::<FullyDynamicIndex>(dir, options()).map_err(io_err("recover"))?;
    c.recover_s = t.elapsed().as_secs_f64();
    c.replayed = rep.replayed as u64;
    if rep.checkpoint_seq as usize + rep.replayed != writes {
        return Err(format!(
            "recovery kept {} + {} operations of {writes} acknowledged",
            rep.checkpoint_seq, rep.replayed
        ));
    }
    if rep.replayed != TAIL {
        return Err(format!(
            "recovery replayed {} operations, not {TAIL}",
            rep.replayed
        ));
    }
    if recovered.index().len() != plan.shadow.len() as u64 {
        return Err("recovered index has the wrong length".into());
    }
    let io = IoSession::untracked();
    for lo in (0..SIGMA).step_by(16) {
        let rows = recovered
            .try_query(lo, lo + 15, &io)
            .map_err(|e| format!("read after recovery: {e}"))?;
        check(
            &format!("recovered range {lo}..{}", lo + 15),
            Digest::of(rows.iter()),
            Digest::of(naive_query(&plan.shadow, lo, lo + 15).iter()),
        )?;
    }
    drop(recovered);
    let ck = psi_store::CheckpointFile::attach(dir.join(CHECKPOINT_FILE))
        .map_err(|e| format!("checkpoint file: {e}"))?;
    c.live_bytes = ck.file_bytes() - ck.dead_bytes();
    Ok(c)
}

/// Pooled figures of several cycles.
struct Totals {
    writes: Samples,
    reads: Samples,
    loop_s: f64,
}

impl Totals {
    fn of(cycles: &[&Cycle]) -> Totals {
        let mut t = Totals {
            writes: Samples::default(),
            reads: Samples::default(),
            loop_s: 0.0,
        };
        for c in cycles {
            t.writes.extend(&c.writes);
            t.reads.extend(&c.reads);
            t.loop_s += c.loop_s;
        }
        t
    }

    fn throughput(&self) -> f64 {
        self.writes.attempted() as f64 / self.loop_s
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let plan = plan(args.seed);
    let dir = args.work_dir.join("ingest_mixed");
    let mut report = Report::default();
    let mut plain: Vec<Cycle> = Vec::new();
    let mut traced: Vec<Cycle> = Vec::new();
    let mut tracer = args.trace.then(Tracer::new);
    // Registry deltas of the traced cycles only.
    let mut fsync = HistSnapshot::default();
    let mut checkpoint_bytes = 0u64;
    let min_cycles = if args.trace {
        2 * MIN_CYCLES
    } else {
        MIN_CYCLES
    };
    let start = Instant::now();
    while plain.len() + traced.len() < min_cycles || start.elapsed() < args.seconds {
        // A traced run alternates untraced and traced cycles.
        match tracer.as_mut().filter(|_| plain.len() > traced.len()) {
            Some(t) => {
                let (c, d) = registry_delta(|| cycle(&plan, &dir, Some(t)));
                traced.push(c?);
                fsync = hist_add(&fsync, &d.hist("wal/fsync_ns"));
                checkpoint_bytes += d.counter("wal/checkpoint_bytes");
            }
            None => plain.push(cycle(&plan, &dir, None)?),
        }
    }
    let all: Vec<&Cycle> = plain.iter().chain(&traced).collect();
    let med = |f: &dyn Fn(&Cycle) -> f64| median(&all.iter().map(|c| f(c)).collect::<Vec<_>>());
    let n = all.len() as u64;
    let rows = plan.shadow.len() as f64;
    let last = all.last().expect("a cycle");
    report.add("setup_s", med(&|c| c.setup_s), "s", n);
    report.add("recover_s", med(&|c| c.recover_s), "s", n);
    report.add(
        "index_bytes_per_row",
        last.live_bytes as f64 / rows,
        "B/row",
        1,
    );
    let totals = Totals::of(&all);
    let miss = args.seconds.as_secs_f64() * 1e6;
    let attempted = totals.writes.attempted() + totals.reads.attempted();
    let failed = totals.writes.failed() + totals.reads.failed();
    let Some(t) = tracer else {
        // Medians over cycles: one cycle disturbed by the machine does not
        // move them.
        report.add(
            "throughput_ops_s",
            med(&|c| c.writes.attempted() as f64 / c.loop_s),
            "1/s",
            totals.writes.attempted(),
        );
        let writes: Vec<Samples> = all.iter().map(|c| c.writes.clone()).collect();
        let reads: Vec<Samples> = all.iter().map(|c| c.reads.clone()).collect();
        report.add_latency("", &writes, miss);
        report.add_latency("read_", &reads, miss);
        return Ok(Run {
            report,
            attempted,
            failed,
            tracer: None,
        });
    };

    let p = Totals::of(&plain.iter().collect::<Vec<_>>());
    let tr = Totals::of(&traced.iter().collect::<Vec<_>>());
    let pct = |traced: f64, plain: f64| 100.0 * (traced - plain) / plain.max(f64::MIN_POSITIVE);
    report.add(
        "trace.overhead_pct.throughput_ops_s",
        pct(tr.throughput(), p.throughput()),
        "pct",
        n,
    );
    for (q, name) in [(0.50, "latency_p50_us"), (0.99, "latency_p99_us")] {
        report.add(
            format!("trace.overhead_pct.{name}"),
            pct(
                tr.writes.percentile_or(q, miss),
                p.writes.percentile_or(q, miss),
            ),
            "pct",
            tr.writes.attempted() + p.writes.attempted(),
        );
    }
    report.add("store.build_s", med(&|c| c.build_s), "s", n);
    report.add("store.save_s", med(&|c| c.create_s), "s", n);
    let opened = Instant::now();
    psi_store::open_checkpoint::<FullyDynamicIndex>(dir.join(CHECKPOINT_FILE), &options().open)
        .map_err(|e| format!("open checkpoint: {e}"))?;
    report.add("store.open_s", opened.elapsed().as_secs_f64(), "s", 1);
    // No warm-up: the index is resident, and a cycle starts cold.
    report.add("store.warmup_s", 0.0, "s", 0);
    report.add("store.file_bytes.a", last.checkpoint_bytes as f64, "B", 1);
    report.add("store.file_bytes.b", 0.0, "B", 0);
    report.add("store.file_bytes.c", 0.0, "B", 0);
    report_wal(
        &mut report,
        &t,
        &traced,
        &fsync,
        checkpoint_bytes,
        plan.record_bytes,
    );
    report_reads(&mut report, &t);
    layers::not_on_path(
        &mut report,
        &["serve.", "query.", "io.pool.", "api.", "loadgen.late"],
    );
    Ok(Run {
        report,
        attempted,
        failed,
        tracer: Some(t),
    })
}

fn report_wal(
    report: &mut Report,
    t: &Tracer,
    traced: &[Cycle],
    fsync: &HistSnapshot,
    checkpoint_bytes: u64,
    record_bytes: u64,
) {
    let n = traced.len() as u64;
    let apply = t.durations("wal.apply");
    let commit = t.durations("wal.commit");
    let ckpt = t.durations("wal.checkpoint");
    report.add(
        "wal.apply_us.p50",
        apply.percentile_or(0.50, 0.0),
        "us",
        apply.attempted(),
    );
    report.add(
        "wal.commit_us.p50",
        commit.percentile_or(0.50, 0.0),
        "us",
        commit.attempted(),
    );
    report.add(
        "wal.commit_us.p99",
        commit.percentile_or(0.99, 0.0),
        "us",
        commit.attempted(),
    );
    report.add(
        "wal.checkpoint_ms.p50",
        ckpt.percentile_or(0.50, 0.0) / 1e3,
        "ms",
        ckpt.attempted(),
    );
    report.add(
        "wal.checkpoint_ms.max",
        ckpt.max() / 1e3,
        "ms",
        ckpt.attempted(),
    );
    report.add(
        "wal.fsync_us.p50",
        fsync.quantile(0.50) as f64 / 1e3,
        "us",
        fsync.count,
    );
    report.add(
        "wal.fsync_us.p99",
        fsync.quantile(0.99) as f64 / 1e3,
        "us",
        fsync.count,
    );
    let checkpoints = median(
        &traced
            .iter()
            .map(|c| c.checkpoints as f64)
            .collect::<Vec<_>>(),
    );
    report.add("wal.checkpoints", checkpoints, "count", n);
    let log = (record_bytes + psi_wal::WAL_HEADER_BYTES as u64 * (checkpoints as u64 + 1)) as f64
        / WRITES as f64;
    let ck = checkpoint_bytes as f64 / (WRITES as f64 * n as f64);
    report.add("wal.log_bytes_per_op", log, "B/op", WRITES as u64);
    report.add("wal.checkpoint_bytes_per_op", ck, "B/op", WRITES as u64 * n);
    report.add(
        "wal.bytes_written_per_op",
        log + ck,
        "B/op",
        WRITES as u64 * n,
    );
    let replayed = median(&traced.iter().map(|c| c.replayed as f64).collect::<Vec<_>>());
    report.add("wal.replayed_ops", replayed, "count", n);
}

fn report_reads(report: &mut Report, t: &Tracer) {
    let cond = t.durations("core.cond");
    let n = cond.attempted();
    let rows = t.count_sum("core.rows").max(1) as f64;
    let reads = n.max(1);
    report.add("core.cond_us.p50", cond.percentile_or(0.50, 0.0), "us", n);
    report.add("core.cond_us.p99", cond.percentile_or(0.99, 0.0), "us", n);
    report.add("core.cover_us", t.durations("core.cover").mean(), "us", n);
    report.add("core.ns_per_row", cond.sum() * 1e3 / rows, "ns/row", n);
    report.add(
        "core.blocks_per_kilorow",
        t.count_sum("core.blocks") as f64 * 1e3 / rows,
        "blocks",
        n,
    );
    report.add(
        "core.result_bits_per_row",
        t.count_sum("core.bits") as f64 / rows,
        "bits/row",
        n,
    );
    report.add(
        "bits.decode_ns_per_row",
        t.durations("bits.decode").sum() * 1e3 / rows,
        "ns/row",
        n,
    );
    layers::report_kernels(report, |name| t.count_sum(name), reads);
}
