//! Stored gap-coded bitmaps: the one reader and the one cover merge.
//!
//! Every structure that keeps gap-coded bitmaps on disk — the paper's
//! tree cuts (`psi_core::cutstream`) and the baselines' bitmap catalogs
//! (`psi_baselines::BitmapCatalog`) — lays them out alike: the code
//! streams concatenated in one payload extent, with "the position and
//! length of its compressed bitmap" (§2.1) held in memory, and one
//! persisted skip directory per bitmap in a side extent. A
//! [`StoredBitmap`] is that per-bitmap metadata as a `Copy` descriptor.
//! It is the only reader of stored bitmaps ([`StoredBitmap::decoder`],
//! the verbatim [`StoredBitmap::copy`], [`StoredBitmap::copy_auto`]) and
//! the input of the one cover merge ([`merge()`], with its dense lift loop
//! [`lift`]) that every such family shares. [`encode`] is the matching
//! write loop. All reads are charged to the caller's [`IoSession`].

use psi_io::{Disk, DiskReader, DiskWriter, ExtentId, IoSession};

use crate::merge::{self, MergeStrategy, SpanBitset};
use crate::skip::{SkipDirectory, SkipEntry, DIR_MIN_COUNT, SKIP_LIFT_MIN};
use crate::{BitBuf, GapBitmap, GapDecoder, GapEncoder, SKIP_SAMPLE};

/// Where one stored bitmap lives and what the in-memory directory knows
/// about it before any of its bits is read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoredBitmap {
    /// Payload extent holding the code stream.
    pub ext: ExtentId,
    /// Bit offset of the code stream within `ext`.
    pub off: u64,
    /// Length of the code stream in bits.
    pub len: u64,
    /// Number of encoded positions.
    pub count: u64,
    /// Smallest encoded position (with `last_pos`, the bitmap's span —
    /// read by the merge planner before any decode).
    pub first_pos: Option<u64>,
    /// Largest encoded position.
    pub last_pos: Option<u64>,
    /// Side extent holding the skip directory.
    pub dir_ext: ExtentId,
    /// Bit offset of the skip directory within `dir_ext`.
    pub dir_off: u64,
    /// Persisted skip-directory entries.
    pub dir_entries: u64,
}

impl StoredBitmap {
    /// Streaming decoder over the code stream, charging `io`.
    pub fn decoder<'a>(&self, disk: &'a Disk, io: &'a IoSession) -> GapDecoder<DiskReader<'a>> {
        GapDecoder::new(disk.reader(self.ext, self.off, io), self.count)
    }

    /// Lifts the code stream verbatim into a [`GapBitmap`] over
    /// `universe`, charging `io` for the bits read. A query covered by
    /// one stored bitmap already holds its answer in the output encoding,
    /// so this replaces decode-merge-reencode with a block copy.
    pub fn copy(&self, disk: &Disk, io: &IoSession, universe: u64) -> GapBitmap {
        GapBitmap::from_code_bits(self.lift_codes(disk, io), self.count, universe)
    }

    /// [`Self::copy`] plus a sequential lift of the persisted skip
    /// directory (charged against the side extent), so the result
    /// answers membership/rank/select and gallops in `O(lg(z/K) + K)`
    /// without a decode pass. Payload charges equal [`Self::copy`]'s; the
    /// directory costs exactly its own blocks on top.
    pub fn copy_indexed(&self, disk: &Disk, io: &IoSession, universe: u64) -> GapBitmap {
        let skip = SkipDirectory::read_from_source(
            &mut disk.reader(self.dir_ext, self.dir_off, io),
            SKIP_SAMPLE,
            self.dir_entries,
        );
        GapBitmap::from_code_bits_indexed(self.lift_codes(disk, io), self.count, universe, skip)
    }

    /// [`Self::copy_indexed`] when the result is large enough for
    /// galloping to repay the directory blocks ([`SKIP_LIFT_MIN`]), else
    /// the plain [`Self::copy`].
    pub fn copy_auto(&self, disk: &Disk, io: &IoSession, universe: u64) -> GapBitmap {
        if self.count >= SKIP_LIFT_MIN {
            self.copy_indexed(disk, io, universe)
        } else {
            self.copy(disk, io, universe)
        }
    }

    /// The code stream as a word-aligned buffer: one block copy, whose
    /// reader (and pool pin) is gone when this returns.
    fn lift_codes(&self, disk: &Disk, io: &IoSession) -> BitBuf {
        let mut bits = BitBuf::with_capacity(self.len);
        bits.extend_from_source(&mut disk.reader(self.ext, self.off, io), self.len);
        bits
    }
}

/// What [`encode`] wrote for one bitmap.
#[derive(Debug)]
pub struct Encoded {
    /// Code stream length in bits.
    pub len: u64,
    /// Number of encoded positions.
    pub count: u64,
    /// First encoded position.
    pub first_pos: Option<u64>,
    /// Last encoded position.
    pub last_pos: Option<u64>,
    /// The skip-directory entries to persist: none below
    /// [`DIR_MIN_COUNT`].
    pub samples: Vec<SkipEntry>,
}

/// Gap-codes `positions` (strictly increasing) at the end of `w`,
/// sampling every [`SKIP_SAMPLE`]-th element for the skip directory on
/// the way (offsets relative to the stream start, each entry with its
/// exact occupancy word). The shared write loop of cut streams and
/// bitmap catalogs; each persists [`Encoded::samples`] in its own side
/// extent.
pub fn encode<I: IntoIterator<Item = u64>>(w: &mut DiskWriter<'_>, positions: I) -> Encoded {
    let off = w.pos();
    let mut samples: Vec<SkipEntry> = Vec::new();
    let mut first_pos = None;
    let mut enc = GapEncoder::new(w);
    for p in positions {
        enc.push(p);
        // A constant interval: the sampling test is a mask, not a
        // division, on this per-element build path.
        if (enc.count() - 1).is_multiple_of(u64::from(SKIP_SAMPLE)) {
            samples.push(SkipEntry {
                pos: p,
                bit_off: enc.bit_pos() - off,
                occ: SkipEntry::OCC_SELF,
            });
        } else if let Some(last) = samples.last_mut() {
            last.cover(p);
        }
        first_pos.get_or_insert(p);
    }
    let last_pos = enc.last();
    let count = enc.finish();
    if count < DIR_MIN_COUNT {
        samples.clear();
    }
    Encoded {
        len: w.pos() - off,
        count,
        first_pos,
        last_pos,
        samples,
    }
}

/// Merges the stored bitmaps of a query's cover (empty ones allowed)
/// into one bitmap over `universe`, charging `io`: the cover merge of
/// every gap-coded family.
///
/// The execution is planned from the descriptors alone (counts and
/// first/last positions, known before any stream bit is read):
/// * one non-empty bitmap is already the answer in the output encoding:
///   [`StoredBitmap::copy_auto`];
/// * dense covers ([`MergeStrategy::Bitset`], the complement trick's
///   usual shape) go through [`lift`] into a [`SpanBitset`] and
///   re-encode once;
/// * sparse covers ([`MergeStrategy::Heap`]) stream through one decoder
///   per bitmap in a [`merge::KWayMerge`], in bounded memory.
///
/// Both arms read every payload bit of every bitmap exactly once, so the
/// blocks and bits charged are identical whatever the plan. `strategy`
/// forces the plan of a multi-bitmap cover (the forced-`Heap` replay is
/// the differential oracle of the planner); `None` lets [`merge::plan`]
/// pick.
pub fn merge(
    disk: &Disk,
    cover: &[StoredBitmap],
    io: &IoSession,
    universe: u64,
    strategy: Option<MergeStrategy>,
) -> GapBitmap {
    let cover = non_empty(cover);
    match cover[..] {
        [] => return GapBitmap::empty(universe),
        [one] => return one.copy_auto(disk, io, universe),
        _ => {}
    }
    let (total, span) = merge::cover_stats(cover.iter().map(|b| {
        (
            b.count,
            b.first_pos.expect("non-empty bitmap"),
            b.last_pos.expect("non-empty bitmap"),
        )
    }));
    match strategy.unwrap_or_else(|| merge::plan(cover.len(), total, span)) {
        MergeStrategy::Bitset => {
            let mut acc = SpanBitset::new(span.expect("non-empty cover"));
            lift(disk, &cover, io, universe, |positions| {
                acc.extend(positions.iter().copied())
            });
            acc.finish(universe)
        }
        MergeStrategy::Heap => {
            let decoders = cover.iter().map(|b| b.decoder(disk, io)).collect();
            GapBitmap::from_sorted_iter_sized(merge::merge_disjoint(decoders), universe, total)
        }
    }
}

/// The one lift loop of the dense paths: each non-empty bitmap of
/// `cover` in turn is copied verbatim — [`StoredBitmap::copy_auto`] when
/// it is the whole cover, else [`StoredBitmap::copy`] — batch-decoded
/// with the word kernel ([`GapBitmap::decode_all`]) into one reused
/// buffer, and handed to `sink`. One copy at a time, so one pin at a
/// time on a pooled disk.
///
/// Callers that OR into word arrays never gallop, so they have no use
/// for a single bitmap's skip directory; the loop still reads it,
/// through `copy_auto`, only so that its charges equal the single-bitmap
/// answer of [`merge()`] block for block (the I/O-parity contract the
/// replay tests assert across combine strategies).
pub fn lift(
    disk: &Disk,
    cover: &[StoredBitmap],
    io: &IoSession,
    universe: u64,
    mut sink: impl FnMut(&[u64]),
) {
    let cover = non_empty(cover);
    let mut positions = Vec::new();
    for b in &cover {
        let bitmap = if cover.len() == 1 {
            b.copy_auto(disk, io, universe)
        } else {
            b.copy(disk, io, universe)
        };
        bitmap.decode_all(&mut positions);
        sink(&positions);
    }
}

/// The cover without its empty bitmaps, which contribute nothing and
/// would poison the span.
fn non_empty(cover: &[StoredBitmap]) -> Vec<StoredBitmap> {
    cover.iter().copied().filter(|b| b.count > 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SKIP_ENTRY_BITS;
    use psi_io::IoConfig;

    /// Encodes `positions` into a fresh payload extent, persisting the
    /// sampled directory in a fresh side extent.
    fn store(disk: &mut Disk, positions: &[u64]) -> StoredBitmap {
        let (ext, dir_ext) = (disk.alloc(), disk.alloc());
        let io = IoSession::untracked();
        let e = encode(&mut disk.writer(ext, &io), positions.iter().copied());
        let mut dw = disk.writer(dir_ext, &io);
        for s in &e.samples {
            s.write_to(&mut dw);
        }
        StoredBitmap {
            ext,
            off: 0,
            len: e.len,
            count: e.count,
            first_pos: e.first_pos,
            last_pos: e.last_pos,
            dir_ext,
            dir_off: 0,
            dir_entries: e.samples.len() as u64,
        }
    }

    #[test]
    fn copy_is_verbatim_and_charged_like_decode() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let positions: Vec<u64> = (0..200u64).map(|i| i * 7).collect();
        let b = store(&mut disk, &positions);
        let decode_io = IoSession::new();
        let decoded: Vec<u64> = b.decoder(&disk, &decode_io).collect();
        let copy_io = IoSession::new();
        let copied = b.copy(&disk, &copy_io, 1400);
        assert_eq!(decoded, positions);
        assert_eq!(copied.to_vec(), decoded);
        assert_eq!(copied.universe(), 1400);
        assert_eq!(copied.size_bits(), b.len);
        // The copy reads the same stream, so it charges the same blocks.
        assert_eq!(copy_io.stats().reads, decode_io.stats().reads);
        assert_eq!(copy_io.stats().bits_read, decode_io.stats().bits_read);
    }

    #[test]
    fn copy_indexed_charges_payload_parity_plus_directory() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let positions: Vec<u64> = (0..600u64).map(|i| i * 4).collect();
        let b = store(&mut disk, &positions);
        assert_eq!(b.dir_entries, 600u64.div_ceil(64));
        assert_eq!((b.first_pos, b.last_pos), (Some(0), Some(2396)));
        let plain_io = IoSession::new();
        let plain = b.copy(&disk, &plain_io, 2400);
        let indexed_io = IoSession::new();
        let indexed = b.copy_indexed(&disk, &indexed_io, 2400);
        assert_eq!(indexed, plain);
        // Payload parity: the extra charges are exactly the directory's
        // blocks and bits, nothing else.
        let dir_blocks =
            (b.dir_off + b.dir_entries * SKIP_ENTRY_BITS - 1) / 256 - b.dir_off / 256 + 1;
        assert_eq!(
            indexed_io.stats().reads,
            plain_io.stats().reads + dir_blocks
        );
        assert_eq!(
            indexed_io.stats().bits_read,
            plain_io.stats().bits_read + b.dir_entries * SKIP_ENTRY_BITS
        );
        // The lifted directory gallops without further decoding.
        assert_eq!(indexed.skip_dir().len() as u64, b.dir_entries);
        assert!(indexed.contains(2396) && !indexed.contains(2395));
        assert_eq!(indexed.rank(1200), 300);
        assert_eq!(indexed.select(599), Some(2396));
        // `copy_auto` lifts the directory only from SKIP_LIFT_MIN up.
        let auto_io = IoSession::new();
        b.copy_auto(&disk, &auto_io, 2400);
        assert_eq!(auto_io.stats(), plain_io.stats());
    }

    #[test]
    fn small_streams_persist_no_directory() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let small: Vec<u64> = (0..DIR_MIN_COUNT - 1).collect();
        let b = store(&mut disk, &small);
        assert_eq!(b.dir_entries, 0);
        // The indexed copy still works: an empty directory means every
        // operation takes the linear path.
        let copied = b.copy_indexed(&disk, &IoSession::untracked(), 1000);
        assert_eq!(copied.to_vec(), small);
        let b = store(&mut disk, &(0..DIR_MIN_COUNT).collect::<Vec<_>>());
        assert_eq!(b.dir_entries, 2);
    }

    #[test]
    fn merge_of_empty_and_single_covers() {
        let mut disk = Disk::new(IoConfig::with_block_bits(256));
        let empty = store(&mut disk, &[]);
        let one = store(&mut disk, &[3, 9, 40]);
        let io = IoSession::new();
        assert_eq!(merge(&disk, &[empty, empty], &io, 50, None).count(), 0);
        assert_eq!(io.stats().reads, 0, "empty bitmaps read nothing");
        let got = merge(&disk, &[empty, one, empty], &io, 50, None);
        assert_eq!(got.to_vec(), vec![3, 9, 40]);
        assert_eq!(got.size_bits(), one.len, "a one-bitmap cover is a copy");
    }
}
