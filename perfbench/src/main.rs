//! The psi workspace's benchmark: one command runs a named workload with
//! a seed, checks every answer against an oracle, and prints each metric
//! by name with its unit and sample count. The last line of standard
//! output is one JSON object: the end-to-end metrics of an untraced run
//! (`--trace 0`), or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan_wide --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each was chosen):
//! * `scan_wide` — wide ranges through `IndexedTable::execute`, every
//!   block pooled, no server; its traced run also serves point lookups
//!   over loopback TCP for the `psi-serve` metrics;
//! * `ingest_mixed` — changes, appends and deletes through the WAL with
//!   group commit and checkpoints, reads in between, then recovery.
//!
//! Files go under `.bench_work/` (removed when the run ends) and a traced
//! run's spans under `.bench_out/`, both relative to the working
//! directory. Wrong rows or any error end the run with a non-zero exit
//! and no result line. The benchmark's own logic has unit tests:
//! `cargo test --manifest-path perfbench/Cargo.toml`.

mod data;
mod ingest_mixed;
mod layers;
mod loadgen;
mod metrics;
mod oracle;
mod scan_wide;
mod served;
mod trace;

use std::path::PathBuf;
use std::time::Duration;

use metrics::{median, Report};
use trace::Tracer;

/// Every end-to-end metric, with its unit, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("read_latency_p50_us", "us"),
    ("read_latency_p99_us", "us"),
    ("index_bytes_per_row", "B/row"),
    ("peak_rss_mb", "MB"),
    ("recover_s", "s"),
];

pub const WORKLOADS: &[&str] = &["scan_wide", "ingest_mixed"];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Extra re-opens of the store per run; `recover_s` is their median.
pub const REOPENS: usize = 7;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub work_dir: PathBuf,
}

/// What a workload hands back: every metric it measured, the operations
/// it attempted and how many of them failed, and its spans when traced.
pub struct Run {
    pub report: Report,
    pub attempted: u64,
    pub failed: u64,
    pub tracer: Option<Tracer>,
}

const USAGE: &str = "usage: perfbench --workload <scan_wide|ingest_mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag} {value}")),
        }
    }
    let workload = workload.ok_or("--workload missing or unknown")?;
    let seed = seed.ok_or("--seed missing")?;
    let work_dir = PathBuf::from(".bench_work").join(format!("{workload}-{}", std::process::id()));
    Ok(Args {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds missing")?,
        trace: trace.ok_or("--trace missing")?,
        work_dir,
    })
}

/// `setup_s` and `recover_s` (the median time to re-open the saved
/// store, `reopens`) of a read workload, and the `store.*` medians of its
/// set-ups.
pub fn report_setup(
    report: &mut Report,
    totals: &[f64],
    setups: &[data::StoreSetup],
    reopens: &[f64],
    rows: usize,
) {
    let n = setups.len() as u64;
    let med =
        |f: &dyn Fn(&data::StoreSetup) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    report.add("setup_s", median(totals), "s", n);
    report.add("recover_s", median(reopens), "s", reopens.len() as u64);
    report.add("store.build_s", med(&|s| s.build_s), "s", n);
    report.add("store.save_s", med(&|s| s.save_s), "s", n);
    report.add("store.open_s", med(&|s| s.open_s), "s", n);
    report.add("store.warmup_s", med(&|s| s.warmup_s), "s", n);
    let last = setups.last().expect("a set-up");
    for (name, bytes) in ["a", "b", "c"].iter().zip(&last.file_bytes) {
        report.add(format!("store.file_bytes.{name}"), *bytes as f64, "B", 1);
    }
    let total: u64 = last.file_bytes.iter().sum();
    report.add(
        "index_bytes_per_row",
        total as f64 / rows as f64,
        "B/row",
        1,
    );
}

/// Prints a waterfall of mean per-request costs (µs). Rows computed as a
/// difference of two measurements are labelled as such.
pub fn waterfall(workload: &str, rows: &[(&str, f64, bool)]) {
    println!("waterfall ({workload}, mean µs per request):");
    let (total, parts) = rows.split_first().expect("a total row");
    println!("  {:<52} {:>10.1}", total.0, total.1);
    for (label, us, diff) in parts {
        let tag = if *diff { " (difference)" } else { "" };
        println!("    {:<50} {:>10.1}{tag}", label, us);
    }
    let sum: f64 = parts.iter().map(|r| r.1).sum();
    println!("  {:<52} {:>10.1}", "sum of the rows above", sum);
}

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn run(args: &Args) -> Result<String, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("creating {}: {e}", args.work_dir.display()))?;
    let result = match args.workload.as_str() {
        "scan_wide" => scan_wide::run(args),
        "ingest_mixed" => ingest_mixed::run(args),
        other => unreachable!("workload {other} passed argument checks"),
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let Run {
        mut report,
        attempted,
        failed,
        tracer,
    } = result?;
    let permille = 1000.0 * failed as f64 / attempted.max(1) as f64;
    if args.trace {
        report.add("loadgen.failed_permille", permille, "permille", attempted);
    } else {
        report.add("peak_rss_mb", peak_rss_mb()?, "MB", 1);
    }
    println!(
        "{} seed={} trace={} attempted={attempted} failed={failed} ({permille:.3} per mille)",
        args.workload, args.seed, args.trace as u8
    );
    print!("{}", report.render());
    if let Some(t) = tracer {
        let dir = PathBuf::from(".bench_out");
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
        t.write(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("{} spans written to {}", t.spans().len(), path.display());
    }
    let wanted = if args.trace {
        layers::PER_LAYER
    } else {
        END_TO_END
    };
    report.result_json(wanted, attempted.max(1), failed)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_legal_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(metrics::valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
            assert!(seen.insert(*name), "{name} listed twice");
        }
        for w in WORKLOADS {
            assert!(metrics::valid_name(w), "{w}");
        }
    }

    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in WORKLOADS {
            assert!(spec.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let listed = spec.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + layers::PER_LAYER.len());
    }
}
