//! SWAR multi-codeword gamma decoding.
//!
//! The batch decode kernel behind [`crate::GapBitmap::decode_all`]. The
//! stream is processed through a 64-bit register window: one (pair of)
//! word loads per window, then every gamma codeword that lies entirely
//! inside the register is decoded with a shift, a `leading_zeros` and a
//! shift-extract — no cursor, no per-code memory traffic, and runs of
//! unit gaps (leading 1-bits) burst-emitted as whole slices. Codes wider
//! than the window (gaps ≥ 2³², > 64 code bits) take a word-scan unary
//! fallback and re-synchronize the window.
//!
//! Gamma codes chain serially — each codeword's start depends on the
//! previous one's length — so a single decode loop is bound by its
//! `leading_zeros` → shift dependency chain, not by issue width. When
//! the bitmap carries a skip directory, its entries record exact
//! `(element, bit offset)` resume points, which lets the decoder split
//! the stream in two and run **two independent chains interleaved** in
//! one loop: the out-of-order core overlaps them for close to twice the
//! throughput on one thread.
//!
//! There is one portable body, differentially tested against the
//! bit-by-bit reference decoders in `tests/differential.rs` in both
//! debug and release builds.

use crate::kernel;
use crate::skip::SkipDirectory;

/// Streams shorter than this decode single-chain even when a directory
/// is available: the dual-chain setup is not worth it under a few
/// hundred codes.
const DUAL_MIN_COUNT: u64 = 512;

/// Streams whose mean code is at least this wide decode with the
/// run-of-ones burst test compiled out of the fast drain: runs of unit
/// gaps need ~1 bit/code to arise, so past a few bits/code the per-code
/// test never fires and only costs issue slots.
const BURST_MAX_BITS_PER_CODE: u64 = 6;

/// Decodes `count` gamma gap codes (`bit_len` valid bits of `words`,
/// MSB-first; first code is `gamma(p₀ + 1)`, the rest gaps) into `out`,
/// which is cleared first. `dir`, when present, must be the stream's own
/// skip directory; it enables the dual-chain split (only its exact
/// `pos`/`bit_off` fields are used, never the occupancy words).
///
/// # Panics
/// Panics if the stream holds more or fewer codes than `count`, or does
/// not end exactly at `bit_len`.
pub(crate) fn decode_gaps(
    words: &[u64],
    bit_len: u64,
    count: u64,
    dir: Option<&SkipDirectory>,
    out: &mut Vec<u64>,
) {
    out.clear();
    if count == 0 {
        assert_eq!(bit_len, 0, "gap stream holds more codes than its count");
        return;
    }
    out.reserve(count as usize);
    let split = dir.and_then(|d| split_points(d, bit_len, count));
    // Unit-gap run bursts only pay when the mean code is short enough
    // for runs to show up at all; wider streams compile the run test out
    // of the hot drain (see `Chain::step` — a unit gap still decodes
    // correctly through the plain gamma path, the burst is only ever an
    // optimization).
    let pos = if bit_len / count < BURST_MAX_BITS_PER_CODE {
        decode_body::<true>(words, bit_len, out, count as usize, split)
    } else {
        decode_body::<false>(words, bit_len, out, count as usize, split)
    };
    kernel::DECODE_SWAR.add(1);
    check_count(out, count, bit_len, pos);
}

/// Plans the dual-chain split for one decode: the first directory entry
/// at or past the stream's bit midpoint (balancing decode work, not
/// element counts), as the resuming chain's `(element index, value,
/// resume bit offset)` — or `None` for short streams, where one chain
/// decodes all.
fn split_points(dir: &SkipDirectory, bit_len: u64, count: u64) -> Option<(usize, u64, u64)> {
    if count < DUAL_MIN_COUNT {
        return None;
    }
    let entries = dir.entries();
    let j = entries.partition_point(|e| e.bit_off < bit_len / 2);
    // Entry 0 is the first element (offset past its code ≈ 0 bits in):
    // splitting there degenerates the leading chain.
    if j == 0 || j >= entries.len() {
        return None;
    }
    let e = &entries[j];
    let idx = j as u64 * u64::from(dir.k());
    if idx >= count || e.bit_off > bit_len {
        // A directory that disagrees with the count is not split on; the
        // count checks still police the result.
        return None;
    }
    Some((idx as usize, e.pos, e.bit_off))
}

/// The post-decode count check: `pos` is where decoding stopped — short
/// of `bit_len` only when an output bound was hit with stream left over.
fn check_count(out: &[u64], count: u64, bit_len: u64, pos: u64) {
    assert!(pos >= bit_len, "gap stream holds more codes than its count");
    assert!(
        out.len() as u64 == count,
        "gap stream ended early: {} of {count} codes in {bit_len} bits",
        out.len()
    );
}

/// One decode chain: an independent cursor over a half-open bit range of
/// the stream, emitting into its own half-open slot range of the output.
struct Chain {
    /// Next bit to decode.
    pos: u64,
    /// End of this chain's bit range.
    end: u64,
    /// Next output slot.
    idx: usize,
    /// End of this chain's slot range.
    lim: usize,
    /// Running position sum (`u64::MAX` seeds the first chain, since the
    /// stream opens with `gamma(p₀ + 1)`).
    prev: u64,
}

impl Chain {
    #[inline(always)]
    fn live(&self) -> bool {
        self.pos < self.end && self.idx < self.lim
    }

    /// Decodes every codeword inside one 64-bit window at `self.pos`.
    ///
    /// # Safety
    /// `base` must point at storage with at least `self.lim` writable
    /// slots.
    #[inline(always)]
    unsafe fn step<const BURST: bool>(&mut self, words: &[u64], base: *mut u64) {
        let pos = self.pos;
        let end = self.end;
        let lim = self.lim;
        // Load a 64-bit window at `pos`, then drain every codeword that
        // lies entirely inside it. The drain keeps the *residual* window
        // as its loop state (`rest <<= len`), so the per-code dependency
        // chain is one count-leading-zeros plus one shift.
        let w = (pos >> 6) as usize;
        let off = (pos & 63) as u32;
        let lo = words.get(w + 1).copied().unwrap_or(0);
        // `(lo >> 1) >> (63 − off)` is `lo >> (64 − off)` without the
        // undefined 64-bit shift at off = 0.
        let window = (words[w] << off) | ((lo >> 1) >> (63 - off));
        let valid = (end - pos).min(64) as u32;
        let mut rest = window;
        let mut used = 0u32;
        let mut idx = self.idx;
        let mut prev = self.prev;
        if valid == 64 && lim - idx >= 64 {
            // Fast drain: a full window emits at most 64 elements (every
            // code is ≥ 1 bit), so `lim - idx ≥ 64` clears every output
            // bound up front and the per-code loop carries no capacity
            // checks. The `used ≥ 64` test is only needed after a burst:
            // on the gamma path a fully-consumed `rest` is all zero
            // (`<<=` drained it), the next `lz` reads 64, and the length
            // test breaks — one spare iteration instead of a per-code
            // compare.
            loop {
                let lz = rest.leading_zeros();
                // The run-of-ones burst is an optimization, never a
                // requirement: with `BURST` off a unit gap decodes
                // through the gamma path below (`lz = 0` → `len = 1`,
                // mantissa the 1-bit itself), and the per-code test
                // disappears from streams whose mean code is too wide
                // for runs to matter.
                if BURST && lz == 0 {
                    // Shifted-in zeros cap the run at `64 - used` — no
                    // clamp needed.
                    let ones = (!rest).leading_zeros();
                    for d in 0..u64::from(ones) {
                        // SAFETY: `idx + ones ≤ idx + 64 ≤ lim`.
                        unsafe { base.add(idx + d as usize).write(prev.wrapping_add(d + 1)) };
                    }
                    idx += ones as usize;
                    prev = prev.wrapping_add(u64::from(ones));
                    used += ones;
                    if used >= 64 {
                        break;
                    }
                    rest = window << used;
                    continue;
                }
                let len = 2 * lz + 1;
                if used + len > 64 {
                    break;
                }
                prev = prev.wrapping_add(rest >> (63 - 2 * lz));
                // SAFETY: `idx < idx₀ + 64 ≤ lim` — at most 64 emits per
                // window.
                unsafe { base.add(idx).write(prev) };
                idx += 1;
                used += len;
                rest <<= len;
            }
        } else {
            loop {
                let lz = rest.leading_zeros();
                if lz == 0 {
                    // A leading 1 codes gap 1, and a run of k ones is k
                    // consecutive positions — the dense-bitmap case, emitted
                    // as one burst with no per-element decode at all.
                    let ones = (!rest)
                        .leading_zeros()
                        .min(valid - used)
                        .min((lim - idx) as u32);
                    for d in 0..u64::from(ones) {
                        // SAFETY: `idx + ones ≤ lim` by the clamp above.
                        unsafe { base.add(idx + d as usize).write(prev.wrapping_add(d + 1)) };
                    }
                    idx += ones as usize;
                    prev = prev.wrapping_add(u64::from(ones));
                    used += ones;
                    if used >= valid || idx >= lim {
                        break;
                    }
                    rest = window << used;
                    continue;
                }
                // A whole gamma code is 2·lz + 1 ≤ 63 bits when it fits the
                // window (lz ≥ 32 forces the fallback below), so the shifts
                // stay in range.
                let len = 2 * lz + 1;
                if used + len > valid {
                    break;
                }
                // Top `lz` bits of `rest` are zero, so no mask is needed.
                prev = prev.wrapping_add(rest >> (63 - 2 * lz));
                // SAFETY: `idx < lim` is a loop invariant (checked on entry
                // and after every emit).
                unsafe { base.add(idx).write(prev) };
                idx += 1;
                used += len;
                if used >= valid || idx >= lim {
                    break;
                }
                rest <<= len;
            }
        }
        if used == 0 {
            if idx >= lim {
                self.idx = idx;
                self.prev = prev;
                return;
            }
            // Codeword longer than the window (gap ≥ 2³²): word-scan the
            // unary prefix, extract the mantissa, re-synchronize.
            let n = unary_at(words, end, pos);
            let tail = pos + u64::from(n) + 1;
            prev = prev.wrapping_add((1u64 << n) | bits_at(words, tail, n));
            // SAFETY: `idx < lim` checked just above.
            unsafe { base.add(idx).write(prev) };
            idx += 1;
            self.pos = tail + u64::from(n);
        } else {
            self.pos = pos + u64::from(used);
        }
        self.idx = idx;
        self.prev = prev;
    }
}

/// Whether chain `c` finished exactly at a split boundary: it emitted
/// its whole slot range, and the residue of its bit range is exactly the
/// split element's own codeword (whose gamma length follows from the gap
/// to the chain's last emitted value).
#[inline(always)]
fn boundary_ok(c: &Chain, split_pos: u64, split_off: u64) -> bool {
    let gap = split_pos.wrapping_sub(c.prev);
    c.idx == c.lim && gap != 0 && c.pos + u64::from(2 * (63 - gap.leading_zeros()) + 1) == split_off
}

/// The decode loop. Emits through a raw pointer bounded by each chain's
/// slot range (≤ the reserved capacity) — `Vec::push` would reload and
/// store the length through memory on every element, which costs more
/// than the decode itself. `split`, when present, is a directory resume
/// point giving two interleaved chains. Returns the bit position where
/// decoding stopped (short of `bit_len` only if an output bound was hit
/// first, i.e. the stream holds more codes than its count).
#[inline(always)]
fn decode_body<const BURST: bool>(
    words: &[u64],
    bit_len: u64,
    out: &mut Vec<u64>,
    cap: usize,
    split: Option<(usize, u64, u64)>,
) -> u64 {
    debug_assert!(out.is_empty() && out.capacity() >= cap);
    let base = out.as_mut_ptr();
    let mut a = Chain {
        pos: 0,
        end: bit_len,
        idx: 0,
        lim: cap,
        prev: u64::MAX,
    };
    let (pos, len) = match split {
        // The split element's value is recorded in the directory — it is
        // written to its slot directly; the second chain resumes decoding
        // just past its codeword. The interleaved hot loop runs one
        // window per chain per iteration with no dependency between
        // them, so the out-of-order core overlaps the two decode chains.
        Some(s) if s.0 < cap => {
            // SAFETY: `s.0 < cap`.
            unsafe { base.add(s.0).write(s.1) };
            a.end = s.2;
            a.lim = s.0;
            let mut b = Chain {
                pos: s.2,
                end: bit_len,
                idx: s.0 + 1,
                lim: cap,
                prev: s.1,
            };
            while a.live() && b.live() {
                // SAFETY: each chain stays inside its own slot range.
                unsafe {
                    a.step::<BURST>(words, base);
                    b.step::<BURST>(words, base);
                }
            }
            while a.live() {
                // SAFETY: as above.
                unsafe { a.step::<BURST>(words, base) };
            }
            while b.live() {
                // SAFETY: as above.
                unsafe { b.step::<BURST>(words, base) };
            }
            if boundary_ok(&a, s.1, s.2) {
                (b.pos, b.idx)
            } else {
                // Chain A's region disagrees with the directory: report
                // its cursor (its slot prefix is the initialized one) so
                // the count checks fire.
                (a.pos.min(s.2.saturating_sub(1)), a.idx)
            }
        }
        _ => {
            while a.live() {
                // SAFETY: the single chain owns slots `0..cap`.
                unsafe { a.step::<BURST>(words, base) };
            }
            (a.pos, a.idx)
        }
    };
    // SAFETY: slots `0..len` were written by the chains above (`len`
    // falls back to the first disagreeing chain's cursor on any early
    // stop, so the exposed prefix is always initialized).
    unsafe { out.set_len(len) };
    pos
}

/// Zeros before the next 1-bit at `pos` (the unary prefix), scanning
/// whole words.
#[inline(always)]
fn unary_at(words: &[u64], bit_len: u64, mut pos: u64) -> u32 {
    let mut zeros = 0u32;
    loop {
        assert!(pos < bit_len, "unary code ran past end of stream");
        let w = (pos >> 6) as usize;
        let off = (pos & 63) as u32;
        let chunk = words[w] << off;
        let avail = (64 - off).min((bit_len - pos) as u32);
        let lz = chunk.leading_zeros().min(avail);
        if lz < avail {
            return zeros + lz;
        }
        zeros += avail;
        pos += u64::from(avail);
    }
}

/// Reads `k ≤ 64` bits at `pos` (MSB-first, may straddle two words).
#[inline(always)]
fn bits_at(words: &[u64], pos: u64, k: u32) -> u64 {
    if k == 0 {
        return 0;
    }
    let w = (pos >> 6) as usize;
    let off = (pos & 63) as u32;
    let avail = 64 - off;
    if k <= avail {
        (words[w] << off) >> (64 - k)
    } else {
        let hi = words[w] << off >> (64 - k);
        let lo = words[w + 1] >> (64 - (k - avail));
        hi | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skip::SkipEntry;
    use crate::{GapBitmap, SKIP_SAMPLE};

    fn stream(count: u64, gap: u64) -> (Vec<u64>, GapBitmap) {
        let positions: Vec<u64> = (0..count).map(|i| i * gap + i % 3).collect();
        let bm = GapBitmap::from_sorted(&positions, count * gap + 3);
        (positions, bm)
    }

    #[test]
    fn no_split_below_dual_min_count() {
        for gap in [3, 100, 50_000] {
            let (_, bm) = stream(DUAL_MIN_COUNT - 1, gap);
            let (bits, dir) = (bm.code_bits().len(), bm.skip_dir());
            assert_eq!(
                split_points(dir, bits, DUAL_MIN_COUNT - 1),
                None,
                "gap {gap}"
            );
        }
    }

    #[test]
    fn no_split_when_the_directory_disagrees_with_the_count() {
        let (_, bm) = stream(4096, 100);
        let (bits, dir) = (bm.code_bits().len(), bm.skip_dir());
        // The midpoint sample's element index lies past the claimed count.
        assert_eq!(split_points(dir, bits, 600), None);
        // A sample whose resume offset lies past the end of the stream.
        let entries = vec![
            dir.entries()[0],
            SkipEntry {
                bit_off: bits + 5,
                ..dir.entries()[1]
            },
        ];
        let past_end = SkipDirectory::from_entries(SKIP_SAMPLE, entries);
        assert_eq!(split_points(&past_end, bits, 4096), None);
        // A directory truncated to its first sample has nothing to split at.
        let first_only = SkipDirectory::from_entries(SKIP_SAMPLE, dir.entries()[..1].to_vec());
        assert_eq!(split_points(&first_only, bits, 4096), None);
    }

    #[test]
    fn one_split_at_or_above_dual_min_count() {
        for count in [DUAL_MIN_COUNT, 1000, 8192, 9000] {
            for gap in [3, 100, 50_000] {
                let (positions, bm) = stream(count, gap);
                let (bits, dir) = (bm.code_bits().len(), bm.skip_dir());
                let (idx, pos, off) = split_points(dir, bits, count)
                    .unwrap_or_else(|| panic!("no split: count {count}, gap {gap}"));
                assert!(idx > 0 && (idx as u64) < count, "count {count}, gap {gap}");
                assert_eq!(idx as u64 % u64::from(SKIP_SAMPLE), 0);
                assert_eq!(pos, positions[idx]);
                // The first sample at or past the stream's bit midpoint.
                assert!(off >= bits / 2);
                let prev = dir.entries()[idx / SKIP_SAMPLE as usize - 1].bit_off;
                assert!(prev < bits / 2, "count {count}, gap {gap}");
                let mut out = Vec::new();
                decode_gaps(bm.code_bits().words(), bits, count, Some(dir), &mut out);
                assert_eq!(out, positions);
            }
        }
    }

    #[test]
    #[should_panic(expected = "gap stream holds more codes than its count")]
    fn wrong_dual_boundary_residue_fails_the_count_check() {
        // Every sample's resume offset one bit late: the leading chain
        // stops one bit short of the split, and the boundary check must
        // turn that into the count-check panic rather than let the
        // misaligned second chain's output through.
        let (_, bm) = stream(1024, 3);
        let dir = bm.skip_dir();
        let mut entries = dir.entries().to_vec();
        for e in &mut entries[1..] {
            e.bit_off += 1;
        }
        let late = SkipDirectory::from_entries(dir.k(), entries);
        let bits = bm.code_bits().len();
        assert!(split_points(&late, bits, 1024).is_some());
        decode_gaps(
            bm.code_bits().words(),
            bits,
            1024,
            Some(&late),
            &mut Vec::new(),
        );
    }
}
