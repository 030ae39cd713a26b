//! E20 — kernel-layer microbenchmarks and their correctness gate.
//!
//! The full run times batch gamma decode in its three dispatch regimes
//! (sparse and wide codes with the burst test compiled out, dense codes
//! with it in; all dual-chain), the bitset re-encode (`from_words` at
//! densities ¼ and ⅛), the pooled lift of dense slots (`StoredBitmap::copy`
//! through a warm pool) and the occupancy probe-skipping intersection
//! against its forced-scalar arm. Along the way it asserts that the fast
//! paths actually ran (kernel counters), that the re-encode equals a
//! per-element encode directory included, that the pooled lift copies
//! the resident bits, that skip-on equals skip-off element for element,
//! and that the sparse-probe-vs-dense workload beats forced scalar by
//! ≥2×. `--smoke` shrinks the workloads and loosens the speedup gate to
//! 1.5× so shared CI runners gate on correctness and gross regressions
//! without flaking on noise. The machine-readable `kernel/*` rows land
//! in `BENCH_NNNN.json` via `all_experiments --json`.

fn main() {
    match std::env::args().nth(1).as_deref() {
        Some("--smoke") => {
            psi_bench::e20_run(20_000, 400, 1.5);
        }
        Some(other) => {
            eprintln!("unknown argument `{other}`; usage: e20_kernels [--smoke]");
            std::process::exit(2);
        }
        None => {
            psi_bench::e20();
        }
    }
}
