//! `kernel/decode_scalar` counts every stream handed to the scalar cursor
//! decoder, whether it starts at the head of the stream
//! ([`GapDecoder::new`]) or resumes at a skip-directory sample
//! ([`GapDecoder::resume`], the directory-assisted seek). The kernel
//! counters are process-global, so this check lives in a test binary of
//! its own: no other test decodes concurrently and the deltas are exact.

use psi_bits::{kernel, GapBitmap, GapDecoder};

#[test]
fn new_and_resumed_decoders_each_count_one_scalar_decode() {
    let positions: Vec<u64> = (0..300u64).map(|i| 3 * i + 1).collect();
    let bm = GapBitmap::from_sorted(&positions, 1000);
    let entry = bm.skip_dir().entries()[1];

    let before = kernel::DECODE_SCALAR.get();
    let head: Vec<u64> = GapDecoder::new(bm.code_bits().reader(), bm.count()).collect();
    assert_eq!(head, positions);
    assert_eq!(kernel::DECODE_SCALAR.get(), before + 1, "GapDecoder::new");

    let rank = u64::from(bm.skip_dir().k());
    let src = bm.code_bits().reader_at(entry.bit_off);
    let tail: Vec<u64> = GapDecoder::resume(src, bm.count() - rank - 1, entry.pos).collect();
    assert_eq!(tail, positions[rank as usize + 1..]);
    assert_eq!(
        kernel::DECODE_SCALAR.get(),
        before + 2,
        "GapDecoder::resume"
    );

    // The batch kernel is counted on its own counters, never as scalar.
    let fast_before = kernel::DECODE_SWAR.get();
    assert_eq!(bm.to_vec(), positions);
    assert_eq!(kernel::DECODE_SCALAR.get(), before + 2, "decode_all");
    assert_eq!(kernel::DECODE_SWAR.get(), fast_before + 1);
}
