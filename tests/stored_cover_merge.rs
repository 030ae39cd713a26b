//! Differential of the one cover merge over stored gap-coded bitmaps.
//!
//! `psi_bits::stored::merge` answers every cover of the cut-stream
//! families (`OptimalIndex`, `UniformTreeIndex`) and of the bitmap-catalog
//! families (`CompressedScanIndex`, `BinnedBitmapIndex`,
//! `MultiResolutionIndex`). Over random disjoint position groups stored
//! both as `CutStream` slots and as `BitmapCatalog` entries, and random
//! covers over them, every strategy — planned, forced `Bitset`, and the
//! dense word path `stored::lift` — must equal the forced-`Heap` merge in
//! rows, in the encoded bitmap and in the charged `IoStats`. The groups
//! mix empty entries, entries below `DIR_MIN_COUNT` (no persisted
//! directory), entries at or above `SKIP_LIFT_MIN` (a single-entry cover
//! lifts its directory) and word-unaligned spans.

use psi::baselines::BitmapCatalog;
use psi::bits::merge::{self, MergeStrategy};
use psi::bits::skip::{DIR_MIN_COUNT, SKIP_LIFT_MIN};
use psi::bits::stored::{self, StoredBitmap};
use psi::bits::GapBitmap;
use psi::core::cutstream::{CutStream, Slack};
use psi::io::Disk;
use psi::{IoConfig, IoSession, IoStats};
use rand::prelude::*;
use rand::rngs::StdRng;

const CASES: u64 = 48;

/// Disjoint sorted position groups over `[0, universe)`. Group 0 is
/// heavy (often past `SKIP_LIFT_MIN`), some groups live in a short
/// unaligned window (often below `DIR_MIN_COUNT`), and some are empty.
fn groups(rng: &mut StdRng, universe: u64) -> Vec<Vec<u64>> {
    let k = rng.gen_range(2..=9usize);
    let windows: Vec<(u64, u64, f64)> = (0..k)
        .map(|g| match (g, rng.gen_range(0..4u32)) {
            (0, _) => (0, universe, 0.6),
            (_, 0) => (0, 0, 0.0),
            (_, 1) => {
                let a = rng.gen_range(0..universe);
                (a, (a + rng.gen_range(1..300u64)).min(universe), 0.5)
            }
            _ => {
                let a = rng.gen_range(0..universe);
                (a, rng.gen_range(a..=universe), rng.gen_range(0.05..0.9))
            }
        })
        .collect();
    let mut out = vec![Vec::new(); k];
    for p in 0..universe {
        let g = rng.gen_range(0..k);
        let (a, b, density) = windows[g];
        if (a..b).contains(&p) && rng.gen_bool(density) {
            out[g].push(p);
        }
    }
    out
}

/// Forced-`Heap` merge of `cover` with its charges.
fn merged(
    disk: &Disk,
    cover: &[StoredBitmap],
    universe: u64,
    strategy: Option<MergeStrategy>,
) -> (GapBitmap, IoStats) {
    let io = IoSession::new();
    let got = stored::merge(disk, cover, &io, universe, strategy);
    (got, io.stats())
}

#[test]
fn every_strategy_equals_forced_heap_in_rows_bits_and_io() {
    let (mut lifted_dirs, mut tiny, mut bitset_plans) = (0, 0, 0);
    for seed in 0..CASES {
        let mut rng = StdRng::seed_from_u64(seed);
        let universe = rng.gen_range(1..=24_000u64);
        let block_bits = 64 * rng.gen_range(1..=64u64);
        let mut disk = Disk::new(IoConfig::with_block_bits(block_bits));
        let groups = groups(&mut rng, universe);
        let slack = if rng.gen_bool(0.5) {
            Slack::None
        } else {
            Slack::Proportional
        };
        let mut cut = CutStream::new(&mut disk, 1, slack);
        let untracked = IoSession::untracked();
        let slots: Vec<usize> = groups
            .iter()
            .map(|g| cut.push_bitmap(&mut disk, g.iter().copied(), &untracked))
            .collect();
        let catalog = BitmapCatalog::build(&mut disk, universe, groups.clone());
        tiny += groups
            .iter()
            .filter(|g| (1..DIR_MIN_COUNT as usize).contains(&g.len()))
            .count();

        for _ in 0..4 {
            // A random sub-cover, in random order.
            let mut members: Vec<usize> = (0..groups.len()).filter(|_| rng.gen_bool(0.6)).collect();
            members.shuffle(&mut rng);
            let mut want: Vec<u64> = members
                .iter()
                .flat_map(|&g| groups[g].iter().copied())
                .collect();
            want.sort_unstable();
            let non_empty: Vec<usize> = members
                .iter()
                .copied()
                .filter(|&g| !groups[g].is_empty())
                .collect();
            if let [g] = non_empty[..] {
                lifted_dirs += usize::from(groups[g].len() as u64 >= SKIP_LIFT_MIN);
            }
            let from_cut: Vec<StoredBitmap> =
                members.iter().map(|&g| cut.bitmap(slots[g])).collect();
            let from_catalog: Vec<StoredBitmap> =
                members.iter().map(|&g| catalog.bitmap(g)).collect();

            let mut answers = Vec::new();
            for (source, cover) in [("cut", &from_cut), ("catalog", &from_catalog)] {
                let ctx = format!("seed {seed} {source} cover {members:?}");
                let (heap, heap_io) = merged(&disk, cover, universe, Some(MergeStrategy::Heap));
                assert_eq!(heap.to_vec(), want, "{ctx}: forced-heap rows");
                for strategy in [None, Some(MergeStrategy::Bitset)] {
                    let (got, io) = merged(&disk, cover, universe, strategy);
                    assert_eq!(got, heap, "{ctx}: {strategy:?} bitmap");
                    assert_eq!(io, heap_io, "{ctx}: {strategy:?} charges");
                }
                // The dense word path lifts the same bitmaps.
                let io = IoSession::new();
                let mut words = vec![0u64; merge::universe_words(universe)];
                stored::lift(&disk, cover, &io, universe, |positions| {
                    merge::or_positions(&mut words, 0, positions.iter().copied())
                });
                assert_eq!(
                    GapBitmap::from_words(&words, universe),
                    heap,
                    "{ctx}: lift rows"
                );
                assert_eq!(io.stats(), heap_io, "{ctx}: lift charges");
                answers.push(heap);
            }
            assert_eq!(answers[0], answers[1], "seed {seed}: cut vs catalog");

            let live: Vec<&StoredBitmap> = from_cut.iter().filter(|b| b.count > 0).collect();
            let (total, span) = merge::cover_stats(
                live.iter()
                    .map(|b| (b.count, b.first_pos.unwrap(), b.last_pos.unwrap())),
            );
            bitset_plans +=
                usize::from(merge::plan(live.len(), total, span) == MergeStrategy::Bitset);
        }
    }
    // The generator must reach every shape the differential is about.
    assert!(lifted_dirs > 0, "no single-entry cover lifted a directory");
    assert!(tiny > 0, "no entry below DIR_MIN_COUNT");
    assert!(bitset_plans > 0, "the planner never picked the bitset arm");
}
