//! `DiskReader::read_bulk` against its oracle, a `read_bits(64)` loop.
//!
//! The bulk read lifts a span block by block: one charge, one pin and
//! one shifted slice copy per block, and one `bits_read` update. It must
//! be indistinguishable from the per-word cursor loop it replaced:
//!
//! * the same bits, MSB-first, with the final word zero past the span;
//! * the same `IoStats`, and the cursor left where the loop leaves it;
//! * the same order of charged blocks: pooled readers over a fresh pool
//!   fetch each block once, in charge order, so the backend's fetch log
//!   shows it; resident readers show it through a bounded session, whose
//!   FIFO residency keeps exactly the last `m` blocks charged.
//!
//! Both over every bit offset 0–63, at span lengths of 0, under one
//! word, one word, one block and several blocks, for 128-bit and default
//! blocks. Two more properties of pooled reads: a pin never outlives its
//! block (a one-frame pool serves a multi-block read and the next read
//! after it), and a corrupt block mid-span surfaces as the typed
//! `ReadError` under `catch_read`, exactly as the loop reports it.

use std::sync::{Arc, Mutex};

use psi_io::{
    catch_read, BlockStore, BlockStoreError, BufferPool, Disk, DiskReader, ErrorClass, ExtentId,
    IoConfig, IoSession, IoStats, MemStore, ReadError, StoredExtent, DEFAULT_BLOCK_BITS,
};

/// A backend that logs every fetch and fails one block as corrupt.
#[derive(Debug)]
struct Recording {
    inner: MemStore,
    log: Mutex<Vec<u64>>,
    corrupt: Option<u64>,
}

impl BlockStore for Recording {
    fn read_block(
        &self,
        ext: ExtentId,
        block: u64,
        out: &mut [u64],
    ) -> Result<(), BlockStoreError> {
        self.log.lock().unwrap().push(block);
        if self.corrupt == Some(block) {
            return Err(BlockStoreError::corrupt(format!("block {block} rotted")));
        }
        self.inner.read_block(ext, block, out)
    }

    fn fetches(&self) -> u64 {
        self.inner.fetches()
    }

    fn kind(&self) -> &'static str {
        "recording"
    }
}

/// A resident one-extent disk of `blocks` blocks plus a 29-bit tail,
/// filled with a fixed pseudo-random word pattern.
fn resident(block_bits: u64, blocks: u64) -> Disk {
    let mut disk = Disk::new(IoConfig::with_block_bits(block_bits));
    let ext = disk.alloc();
    let io = IoSession::untracked();
    {
        let mut w = disk.writer(ext, &io);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..blocks * block_bits / 64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            w.write_bits(x, 64);
        }
        w.write_bits(0x1555_5555, 29);
    }
    disk
}

/// The same extent, non-resident behind a fresh pool of `frames` frames
/// (one shard, hard ceiling `frames`) over a [`Recording`] backend.
fn pooled(built: &Disk, frames: usize, corrupt: Option<u64>) -> (Disk, Arc<Recording>) {
    let store = Arc::new(Recording {
        inner: MemStore::from_disk(built),
        log: Mutex::new(Vec::new()),
        corrupt,
    });
    let shared: Arc<dyn BlockStore> = store.clone();
    let pool = Arc::new(BufferPool::with_shards(
        shared,
        frames,
        frames,
        1,
        built.block_bits(),
    ));
    let stored = [StoredExtent {
        bit_len: built.extent_bits(ExtentId(0)),
        freed: false,
    }];
    (Disk::from_stored(*built.config(), &stored, pool), store)
}

/// The oracle: the span read one `read_bits(64)` field at a time, packed
/// MSB-first into words.
fn loop_read(r: &mut DiskReader<'_>, bits: u64, out: &mut Vec<u64>) {
    let mut remaining = bits;
    while remaining > 0 {
        let k = remaining.min(64) as u32;
        let v = r.read_bits(k);
        out.push(if k == 64 { v } else { v << (64 - k) });
        remaining -= u64::from(k);
    }
}

type Read = fn(&mut DiskReader<'_>, u64, &mut Vec<u64>);

fn bulk_read(r: &mut DiskReader<'_>, bits: u64, out: &mut Vec<u64>) {
    r.read_bulk(bits, out);
}

/// What one read of `[start, start + bits)` looks like from outside: the
/// words (after a sentinel word, so the append is checked too) and the
/// value of a 7-bit follow-up read, which checks where the cursor was
/// left; its charge shows in the caller's stats too.
fn observe(disk: &Disk, io: &IoSession, start: u64, bits: u64, read: Read) -> (Vec<u64>, u64) {
    let mut r = disk.reader(ExtentId(0), start, io);
    let mut out = vec![0xFEED];
    read(&mut r, bits, &mut out);
    let next = if r.remaining() >= 7 {
        r.read_bits(7)
    } else {
        0
    };
    (out, next)
}

fn spans(block_bits: u64) -> Vec<(u64, u64)> {
    let lengths = [0, 1, 37, 64, block_bits, 3 * block_bits + 29];
    let mut out = Vec::new();
    // Starts in the first word and in the last word of block 0, so short
    // spans also straddle a block boundary.
    for base in [0, block_bits - 64] {
        for off in 0..64 {
            for &len in &lengths {
                out.push((base + off, len));
            }
        }
    }
    out
}

fn check_span(built: &Disk, start: u64, bits: u64) -> (Vec<u64>, IoStats) {
    let mut seen = Vec::new();
    for read in [loop_read as Read, bulk_read] {
        let io = IoSession::new();
        let resident = observe(built, &io, start, bits, read);
        let resident_stats = io.stats();
        let (disk, store) = pooled(built, 4, None);
        let io = IoSession::new();
        let pooled = observe(&disk, &io, start, bits, read);
        assert_eq!(resident, pooled, "span {start}+{bits}: pooled bits");
        assert_eq!(
            resident_stats,
            io.stats(),
            "span {start}+{bits}: pooled stats"
        );
        let log = store.log.lock().unwrap().clone();
        seen.push((resident, resident_stats, log));
    }
    let (want, got) = (&seen[0], &seen[1]);
    assert_eq!(got.0, want.0, "span {start}+{bits}: bits");
    assert_eq!(got.1, want.1, "span {start}+{bits}: stats");
    assert_eq!(got.2, want.2, "span {start}+{bits}: fetch (charge) order");
    (got.0 .0.clone(), got.1)
}

#[test]
fn bulk_read_matches_the_word_loop_at_every_offset() {
    for block_bits in [128, DEFAULT_BLOCK_BITS] {
        let built = resident(block_bits, 5);
        for (start, bits) in spans(block_bits) {
            let (words, stats) = check_span(&built, start, bits);
            assert_eq!(words.len() as u64, 1 + bits.div_ceil(64));
            assert_eq!(stats.bits_read, bits + 7);
            let blocks = if bits == 0 {
                0
            } else {
                (start + bits - 1) / block_bits - start / block_bits + 1
            };
            assert!(
                stats.reads >= blocks,
                "span {start}+{bits}: every block charged"
            );
        }
    }
}

/// The blocks still resident in a FIFO session of `m` blocks after
/// `read`: the last `m` distinct blocks it charged.
fn fifo_tail(built: &Disk, start: u64, bits: u64, read: Read, m: usize) -> Vec<u64> {
    let blocks = built.extent_blocks(ExtentId(0));
    (0..blocks)
        .filter(|&b| {
            let io = IoSession::with_memory_blocks(m);
            let mut r = built.reader(ExtentId(0), start, &io);
            read(&mut r, bits, &mut Vec::new());
            let before = io.stats().reads;
            io.charge_read(ExtentId(0), b);
            io.stats().reads == before
        })
        .collect()
}

#[test]
fn resident_bulk_read_charges_blocks_in_loop_order() {
    let built = resident(128, 5);
    for start in [0, 1, 63, 64, 127] {
        let bits = 4 * 128 + 29 - start;
        for m in 1..=5 {
            assert_eq!(
                fifo_tail(&built, start, bits, bulk_read, m),
                fifo_tail(&built, start, bits, loop_read, m),
                "span {start}+{bits}: last {m} blocks charged"
            );
        }
    }
}

#[test]
fn bulk_read_moves_its_pin_and_leaves_none_behind() {
    let built = resident(128, 5);
    let (disk, store) = pooled(&built, 1, None);
    let io = IoSession::new();
    let mut want = Vec::new();
    loop_read(&mut built.reader(ExtentId(0), 5, &io), 5 * 128, &mut want);
    // One frame, no growth: the read only gets past block 0 if each
    // block's pin is released before the next one is taken.
    let io = IoSession::new();
    let mut got = Vec::new();
    disk.reader(ExtentId(0), 5, &io)
        .read_bulk(5 * 128, &mut got);
    assert_eq!(got, want);
    assert_eq!(*store.log.lock().unwrap(), [0, 1, 2, 3, 4, 5]);
    // The reader is gone, so is its pin: the frame serves the next read.
    let mut again = Vec::new();
    disk.reader(ExtentId(0), 0, &io).read_bulk(64, &mut again);
    assert_eq!(again[0], built.extent_words(ExtentId(0))[0]);
}

#[test]
fn corrupt_block_mid_span_is_a_typed_error() {
    let built = resident(128, 5);
    let failed = |read: Read| -> (ReadError, Vec<u64>) {
        let (disk, store) = pooled(&built, 1, Some(2));
        let io = IoSession::new();
        let err = catch_read(&io, || {
            read(
                &mut disk.reader(ExtentId(0), 3, &io),
                4 * 128,
                &mut Vec::new(),
            )
        })
        .expect_err("block 2 is corrupt");
        // No pin leaked by the abort: the one frame serves block 0.
        let mut out = Vec::new();
        disk.reader(ExtentId(0), 0, &io).read_bulk(64, &mut out);
        assert_eq!(out[0], built.extent_words(ExtentId(0))[0]);
        let log = store.log.lock().unwrap().clone();
        (err, log)
    };
    let (err, log) = failed(bulk_read);
    assert_eq!(err.class, ErrorClass::Corrupt);
    assert_eq!((err.extent, err.block), (ExtentId(0), 2));
    assert_eq!(failed(loop_read), (err, log));
}
