//! The dense cover merge over an opened store, end to end.
//!
//! A dense multi-slot cover (every wide range, and every range answered
//! by §2.1's complement trick) lifts each stored slot out of the buffer
//! pool with one verbatim copy and decodes it with the batch kernel.
//! The cut-stream families and the bitmap-catalog families share that
//! one cover merge (`psi_bits::stored::merge`). Pinned here, for
//! `OptimalIndex`, `UniformTreeIndex`, `CompressedScanIndex` and
//! `BinnedBitmapIndex` reopened from a File-backed store with verified
//! fetches over a pool of about 1/8 of their payload blocks (so queries
//! miss and evict):
//!
//! * rows equal `naive_query`;
//! * the charged `IoStats` equal a forced-`Heap` replay of the same query
//!   over one streaming decoder per slot;
//! * on a cold pool, real block fetches equal the charged reads;
//! * the batch kernel runs once per lifted slot and the scalar cursor
//!   decoder never runs (the forced-`Heap` replay, which streams every
//!   slot through the scalar decoder, counts the slots).
//!
//! The kernel counters are process-global, so every test in this file
//! holds `KERNEL_LOCK` while it queries.

use std::path::PathBuf;
use std::sync::Mutex;

use psi::baselines::{BinnedBitmapIndex, CompressedScanIndex};
use psi::bits::kernel;
use psi::bits::merge::MergeStrategy;
use psi::io::ExtentId;
use psi::store::{open, Backend, OpenOptions, Opened, PersistIndex};
use psi::{
    naive_query, HasDisk, IoConfig, IoSession, OptimalIndex, RidSet, SecondaryIndex,
    UniformTreeIndex,
};

static KERNEL_LOCK: Mutex<()> = Mutex::new(());

const N: usize = 1 << 15;
const SIGMA: u32 = 64;

type Forced<I> = fn(&I, u32, u32, MergeStrategy, &IoSession) -> RidSet;

fn symbols() -> Vec<u32> {
    psi::workloads::zipf(N, SIGMA, 0.5, 41)
}

/// Wide ranges: some answered directly (`2z ≤ n`), some through the
/// complement trick (`2z > n`).
fn dense_ranges() -> Vec<(u32, u32)> {
    vec![
        (1, 20),
        (5, 30),
        (12, 45),
        (3, 6),
        (0, 40),
        (3, 60),
        (10, 53),
        (2, 58),
    ]
}

fn payload_blocks(disk: &psi::io::Disk) -> u64 {
    (0..disk.num_extents())
        .map(|i| {
            disk.extent_bits(ExtentId(i as u32))
                .div_ceil(disk.block_bits())
        })
        .sum()
}

fn store_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("psi_pooled_lift_parity");
    std::fs::create_dir_all(&dir).expect("store dir");
    dir.join(format!("{tag}.psi"))
}

/// `(swar, scalar, bitset re-encodes)` kernel counts so far.
fn kernels() -> (u64, u64, u64) {
    (
        kernel::DECODE_SWAR.get(),
        kernel::DECODE_SCALAR.get(),
        kernel::REENCODE_BITSET.get(),
    )
}

/// `complements`: whether the family answers large results through
/// §2.1's complement trick (the cut-stream families do, the catalog
/// families never).
fn lift_parity<I: PersistIndex + SecondaryIndex + HasDisk>(
    built: &I,
    forced: Forced<I>,
    complements: bool,
) {
    let data = symbols();
    let path = store_path(I::TAG);
    psi::store::save(built, &path).expect("save");
    let opts = OpenOptions {
        backend: Backend::File,
        pool_blocks: (payload_blocks(built.disk()) / 8).max(1) as usize,
        retry: None,
        verify: true,
    };
    let _guard = KERNEL_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (mut evictions, mut complemented) = (0, 0);
    for (lo, hi) in dense_ranges() {
        let want = naive_query(&data, lo, hi).to_vec();
        let cold: Opened<I> = open(&path, &opts).expect("open");
        let io = IoSession::new();
        let k0 = kernels();
        let got = cold.index.query(lo, hi, &io);
        let k1 = kernels();
        assert_eq!(
            cold.real_fetches(),
            io.stats().reads,
            "{} [{lo},{hi}]: cold real fetches must equal the charged reads",
            I::TAG
        );
        evictions += cold.pool_stats().evictions;
        complemented += u32::from(got.is_complemented());

        let io_heap = IoSession::new();
        let heap = forced(&cold.index, lo, hi, MergeStrategy::Heap, &io_heap);
        let k2 = kernels();
        assert_eq!(got.to_vec(), want, "{} [{lo},{hi}] rows", I::TAG);
        assert_eq!(got, heap, "{} [{lo},{hi}] forced-heap rows", I::TAG);
        assert_eq!(
            io.stats(),
            io_heap.stats(),
            "{} [{lo},{hi}]: the lift must charge exactly the streaming merge's I/O",
            I::TAG
        );

        // The forced-heap replay streams each slot through one scalar
        // decoder, so its scalar count is the cover's slot count.
        let slots = k2.1 - k1.1;
        assert!(slots >= 2, "{} [{lo},{hi}]: not a multi-slot cover", I::TAG);
        assert_eq!(k1.2 - k0.2, 1, "{} [{lo},{hi}]: bitset arm", I::TAG);
        assert_eq!(
            k1.0 - k0.0,
            slots,
            "{} [{lo},{hi}]: one batch decode per lifted slot",
            I::TAG
        );
        assert_eq!(k1.1 - k0.1, 0, "{} [{lo},{hi}]: no scalar decode", I::TAG);
        assert_eq!(k2.0 - k1.0, 0, "{} [{lo},{hi}]: heap replay", I::TAG);
    }
    assert!(
        evictions > 0,
        "{}: the pool must be small enough to evict",
        I::TAG
    );
    if complements {
        assert!(
            (1..dense_ranges().len() as u32).contains(&complemented),
            "{}: both direct and complement-trick ranges",
            I::TAG
        );
    } else {
        assert_eq!(complemented, 0, "{}: no complement trick", I::TAG);
    }
    let _ = std::fs::remove_file(&path);
}

fn config() -> IoConfig {
    IoConfig::with_block_bits(4096)
}

#[test]
fn optimal_pooled_lift_matches_naive_and_forced_heap() {
    let built = OptimalIndex::build(&symbols(), SIGMA, config());
    lift_parity(&built, OptimalIndex::query_with_strategy, true);
}

#[test]
fn uniform_tree_pooled_lift_matches_naive_and_forced_heap() {
    let built = UniformTreeIndex::build(&symbols(), SIGMA, config());
    lift_parity(&built, UniformTreeIndex::query_with_strategy, true);
}

#[test]
fn compressed_scan_pooled_lift_matches_naive_and_forced_heap() {
    let built = CompressedScanIndex::build(&symbols(), SIGMA, config());
    lift_parity(&built, CompressedScanIndex::query_with_strategy, false);
}

#[test]
fn binned_pooled_lift_matches_naive_and_forced_heap() {
    let built = BinnedBitmapIndex::build(&symbols(), SIGMA, 8, config());
    lift_parity(&built, BinnedBitmapIndex::query_with_strategy, false);
}
