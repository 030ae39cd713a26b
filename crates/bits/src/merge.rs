//! K-way merges over sorted position streams.
//!
//! Range queries in every structure of the paper end by "merging the
//! bitmaps" of the canonical subtrees (§2.1, §2.2). The inputs are sorted
//! position streams decoded from disjoint sets (each position carries
//! exactly one character), so the common case is a disjoint merge; hashed
//! sets in the approximate index (§3) may collide, so a deduplicating
//! union is also provided.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use crate::GapBitmap;

/// K-way merge of sorted streams into one sorted stream, assuming global
/// distinctness (disjoint inputs). Duplicates are passed through unchanged;
/// use [`union_dedup`] when inputs may overlap.
pub fn merge_disjoint<I>(inputs: Vec<I>) -> KWayMerge<I>
where
    I: Iterator<Item = u64>,
{
    KWayMerge::new(inputs)
}

/// K-way union of sorted streams with duplicate removal.
pub fn union_dedup<I>(inputs: Vec<I>) -> impl Iterator<Item = u64>
where
    I: Iterator<Item = u64>,
{
    let mut last: Option<u64> = None;
    KWayMerge::new(inputs).filter(move |&p| {
        if last == Some(p) {
            false
        } else {
            last = Some(p);
            true
        }
    })
}

/// How a k-way union is executed (chosen by [`plan`] from metadata known
/// *before* any stream is decoded: fan-in, summed element counts, and the
/// position span of the cover).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MergeStrategy {
    /// Stream every input through one [`KWayMerge`] (which picks its
    /// one-input, two-input or min-heap form from the fan-in) and encode
    /// the merged stream.
    Heap,
    /// Three or more inputs whose union is dense in its span: set bits in
    /// an LSB-first word array (no comparisons, no heap), then re-encode
    /// once with a `trailing_zeros` word scan
    /// ([`GapBitmap::from_words_span`]). Exactly where the complement
    /// trick makes results dense, this turns `O(z lg k)` heap traffic
    /// into straight-line word operations.
    Bitset,
}

/// Average gap (span/total) at or below which the bitset path wins: one
/// element per word on average, so the accumulate-and-scan pass touches
/// no more words than the union has elements.
pub const BITSET_MAX_AVG_GAP: u64 = 64;

/// Minimum union size for the bitset path (below this the word array's
/// allocation dominates any heap savings).
pub const BITSET_MIN_TOTAL: u64 = 128;

/// Folds a cover's per-member metadata `(count, first_pos, last_pos)` —
/// non-empty members only — into the planner inputs `(total, span)`.
pub fn cover_stats<I: IntoIterator<Item = (u64, u64, u64)>>(
    members: I,
) -> (u64, Option<(u64, u64)>) {
    let mut total = 0u64;
    let (mut lo, mut hi) = (u64::MAX, 0u64);
    for (count, first, last) in members {
        debug_assert!(count > 0, "cover members must be non-empty");
        total += count;
        lo = lo.min(first);
        hi = hi.max(last);
    }
    (total, (total > 0).then_some((lo, hi)))
}

/// Picks the strategy for `streams` inputs totalling `total` elements
/// within the inclusive position span `span` (when known).
pub fn plan(streams: usize, total: u64, span: Option<(u64, u64)>) -> MergeStrategy {
    match span {
        Some((lo, hi))
            if streams >= 3
                && total >= BITSET_MIN_TOTAL
                && (hi - lo).saturating_add(1) <= total.saturating_mul(BITSET_MAX_AVG_GAP) =>
        {
            MergeStrategy::Bitset
        }
        _ => MergeStrategy::Heap,
    }
}

/// Merges disjoint sorted streams into a [`GapBitmap`] under the planned
/// strategy. `total` is the summed element count (known from slot/entry
/// metadata); `span` bounds every element inclusively. Every strategy
/// consumes each input exactly once in order, so the I/O charged to any
/// underlying reader is identical across strategies by construction.
pub fn merge_adaptive<I>(
    inputs: Vec<I>,
    universe: u64,
    total: u64,
    span: Option<(u64, u64)>,
) -> GapBitmap
where
    I: Iterator<Item = u64>,
{
    let strategy = plan(inputs.len(), total, span);
    merge_with_strategy(inputs, universe, total, span, strategy)
}

/// [`merge_adaptive`] with the strategy forced — the differential-testing
/// and benchmarking hook that pins every branch against the heap merge.
pub fn merge_with_strategy<I>(
    inputs: Vec<I>,
    universe: u64,
    total: u64,
    span: Option<(u64, u64)>,
    strategy: MergeStrategy,
) -> GapBitmap
where
    I: Iterator<Item = u64>,
{
    match strategy {
        MergeStrategy::Bitset => {
            let mut acc = SpanBitset::new(span.expect("bitset strategy requires a span"));
            for input in inputs {
                acc.extend(input);
            }
            acc.finish(universe)
        }
        MergeStrategy::Heap => {
            GapBitmap::from_sorted_iter_sized(merge_disjoint(inputs), universe, total)
        }
    }
}

/// The accumulator of the [`MergeStrategy::Bitset`] path: an LSB-first
/// word array over a cover's word-aligned position span. Members are
/// OR-ed in one at a time, in any order, and the union is re-encoded
/// once by [`Self::finish`] ([`GapBitmap::from_words_span`]). Stored
/// streams feed it batch-decoded slices; generic streams feed it through
/// [`merge_with_strategy`].
#[derive(Debug, Clone)]
pub struct SpanBitset {
    base: u64,
    lo: u64,
    hi: u64,
    words: Vec<u64>,
}

impl SpanBitset {
    /// An empty accumulator for elements in the inclusive span `(lo, hi)`.
    pub fn new((lo, hi): (u64, u64)) -> Self {
        assert!(lo <= hi, "empty span [{lo}, {hi}]");
        let base = lo & !63;
        SpanBitset {
            base,
            lo,
            hi,
            words: vec![0u64; ((hi - base) / 64 + 1) as usize],
        }
    }

    /// Sets every element of `positions` (each inside the span).
    #[inline]
    pub fn extend<I: IntoIterator<Item = u64>>(&mut self, positions: I) {
        let (lo, hi) = (self.lo, self.hi);
        or_positions(
            &mut self.words,
            self.base,
            positions.into_iter().inspect(|p| {
                debug_assert!(
                    (lo..=hi).contains(p),
                    "element {p} outside declared span [{lo}, {hi}]"
                )
            }),
        );
    }

    /// Re-encodes the accumulated union as a bitmap over `universe`.
    pub fn finish(&self, universe: u64) -> GapBitmap {
        GapBitmap::from_words_span(&self.words, self.base, universe)
    }
}

/// Length of a full-universe word array: LSB-first words over
/// `[0, universe)`, the layout [`GapBitmap::from_words`] encodes. Dense
/// conjunctions evaluate each condition into one such array and AND
/// them, so only the final answer is ever encoded.
pub fn universe_words(universe: u64) -> usize {
    universe.div_ceil(64) as usize
}

/// ORs every element of `positions` into the LSB-first word array
/// `words`, whose bit 0 stands for position `base`.
#[inline]
pub fn or_positions<I: IntoIterator<Item = u64>>(words: &mut [u64], base: u64, positions: I) {
    for p in positions {
        let off = p - base;
        words[(off / 64) as usize] |= 1u64 << (off % 64);
    }
}

/// Complements a full-universe word array ([`universe_words`] long)
/// within `[0, universe)`, keeping the bits at or beyond `universe` zero:
/// §2.1's complement trick on words.
pub fn invert_within(words: &mut [u64], universe: u64) {
    debug_assert_eq!(
        words.len(),
        universe_words(universe),
        "not a full-universe array"
    );
    for w in words.iter_mut() {
        *w = !*w;
    }
    if let (Some(last), tail @ 1..) = (words.last_mut(), universe % 64) {
        *last &= (1u64 << tail) - 1;
    }
}

/// A k-way merge iterator.
///
/// Fan-in 1 is a passthrough and fan-in 2 a branch-per-element linear
/// merge (the overwhelmingly common shapes in the canonical
/// decompositions, which produce `O(lg n)` streams but usually one or
/// two). Larger fan-ins use a min-heap advanced via
/// [`BinaryHeap::peek_mut`]: replacing the head sifts it in place, one
/// `O(lg k)` walk per element instead of the pop-then-push pair.
#[derive(Debug)]
pub struct KWayMerge<I: Iterator<Item = u64>> {
    inner: Inner<I>,
}

#[derive(Debug)]
enum Inner<I: Iterator<Item = u64>> {
    One(Option<I>),
    Two {
        a: I,
        b: I,
        a_head: Option<u64>,
        b_head: Option<u64>,
    },
    Heap {
        heap: BinaryHeap<Reverse<(u64, usize)>>,
        inputs: Vec<I>,
    },
}

impl<I: Iterator<Item = u64>> KWayMerge<I> {
    fn new(mut inputs: Vec<I>) -> Self {
        let inner = match inputs.len() {
            0 => Inner::One(None),
            1 => Inner::One(inputs.pop()),
            2 => {
                let mut b = inputs.pop().expect("two inputs");
                let mut a = inputs.pop().expect("two inputs");
                let (a_head, b_head) = (a.next(), b.next());
                Inner::Two {
                    a,
                    b,
                    a_head,
                    b_head,
                }
            }
            _ => {
                let mut heap = BinaryHeap::with_capacity(inputs.len());
                for (idx, it) in inputs.iter_mut().enumerate() {
                    if let Some(first) = it.next() {
                        heap.push(Reverse((first, idx)));
                    }
                }
                Inner::Heap { heap, inputs }
            }
        };
        KWayMerge { inner }
    }
}

impl<I: Iterator<Item = u64>> Iterator for KWayMerge<I> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        match &mut self.inner {
            Inner::One(input) => input.as_mut()?.next(),
            Inner::Two {
                a,
                b,
                a_head,
                b_head,
            } => match (*a_head, *b_head) {
                (Some(x), Some(y)) => {
                    if x <= y {
                        *a_head = a.next();
                        Some(x)
                    } else {
                        *b_head = b.next();
                        Some(y)
                    }
                }
                (Some(x), None) => {
                    *a_head = a.next();
                    Some(x)
                }
                (None, Some(y)) => {
                    *b_head = b.next();
                    Some(y)
                }
                (None, None) => None,
            },
            Inner::Heap { heap, inputs } => {
                let mut top = heap.peek_mut()?;
                let Reverse((pos, idx)) = *top;
                match inputs[idx].next() {
                    Some(next) => {
                        debug_assert!(next > pos, "input stream {idx} not strictly increasing");
                        // Sifts the replaced head in place when `top` drops.
                        *top = Reverse((next, idx));
                    }
                    None => {
                        PeekMut::pop(top);
                    }
                }
                Some(pos)
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            Inner::One(None) => (0, Some(0)),
            Inner::One(Some(input)) => input.size_hint(),
            _ => (0, None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn merge_of_disjoint_streams() {
        let a = vec![1u64, 4, 7];
        let b = vec![2u64, 5];
        let c = vec![0u64, 3, 6, 8];
        let merged: Vec<u64> =
            merge_disjoint(vec![a.into_iter(), b.into_iter(), c.into_iter()]).collect();
        assert_eq!(merged, (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn merge_of_empty_inputs() {
        let empty: Vec<std::vec::IntoIter<u64>> = vec![];
        assert_eq!(merge_disjoint(empty).count(), 0);
        let some_empty = vec![
            vec![].into_iter(),
            vec![5u64].into_iter(),
            vec![].into_iter(),
        ];
        assert_eq!(merge_disjoint(some_empty).collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn union_removes_duplicates() {
        let a = vec![1u64, 3, 5];
        let b = vec![1u64, 2, 5, 6];
        let u: Vec<u64> = union_dedup(vec![a.into_iter(), b.into_iter()]).collect();
        assert_eq!(u, vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn plan_picks_by_fanin_and_density() {
        // Fewer than three streams always stream: dense or not.
        assert_eq!(plan(0, 0, None), MergeStrategy::Heap);
        assert_eq!(plan(2, 10_000, Some((0, 10_000))), MergeStrategy::Heap);
        // Dense: 8 streams, 10k elements across a 20k span.
        assert_eq!(plan(8, 10_000, Some((0, 19_999))), MergeStrategy::Bitset);
        // Sparse: same elements across a 10M span.
        assert_eq!(plan(8, 10_000, Some((0, 9_999_999))), MergeStrategy::Heap);
        // No span known: cannot size a word array.
        assert_eq!(plan(8, 10_000, None), MergeStrategy::Heap);
        // Tiny unions never pay for the allocation.
        assert_eq!(plan(8, 64, Some((0, 63))), MergeStrategy::Heap);
    }

    fn strided(streams: u64, per: u64, stride: u64, offset: u64) -> Vec<Vec<u64>> {
        (0..streams)
            .map(|k| {
                (0..per)
                    .map(|i| offset + i * stride * streams + k * stride)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn bitset_path_matches_heap_on_dense_cover() {
        // 8 disjoint dense streams with a word-unaligned span start.
        let streams = strided(8, 1000, 1, 37);
        let universe = 37 + 8 * 1000 + 1;
        let total = 8 * 1000;
        let span = Some((37, 37 + 8 * 1000 - 1));
        let mk = || {
            streams
                .iter()
                .map(|s| s.iter().copied())
                .collect::<Vec<_>>()
        };
        let heap = merge_with_strategy(mk(), universe, total, span, MergeStrategy::Heap);
        let bitset = merge_with_strategy(mk(), universe, total, span, MergeStrategy::Bitset);
        assert_eq!(plan(8, total, span), MergeStrategy::Bitset);
        assert_eq!(bitset, heap);
        assert_eq!(bitset.count(), total);
    }

    #[test]
    fn word_helpers_or_and_invert_within_the_universe() {
        for universe in [0u64, 1, 63, 64, 65, 200] {
            let mut words = vec![0u64; universe_words(universe)];
            let set: Vec<u64> = (0..universe).filter(|p| p % 3 == 0).collect();
            or_positions(&mut words, 0, set.iter().copied());
            assert_eq!(GapBitmap::from_words(&words, universe).to_vec(), set);
            invert_within(&mut words, universe);
            let rest: Vec<u64> = (0..universe).filter(|p| p % 3 != 0).collect();
            // Tail bits stay zero, so the encode accepts the array.
            assert_eq!(GapBitmap::from_words(&words, universe).to_vec(), rest);
        }
        // A based array: bit 0 is position `base`.
        let mut span = vec![0u64; 2];
        or_positions(&mut span, 128, [128, 191, 255]);
        assert_eq!(span, vec![1 | 1 << 63, 1 << 63]);
    }

    proptest! {
        #[test]
        fn adaptive_matches_heap_on_every_branch(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..5_000, 0..400), 1..6),
            dense in any::<bool>(),
        ) {
            // Disjoint by stride-tagging; `dense` narrows the value range
            // so both planner outcomes are exercised.
            let stride = if dense { 1 } else { 97 };
            let k = parts.len() as u64;
            let streams: Vec<Vec<u64>> = parts
                .iter()
                .enumerate()
                .map(|(i, s)| s.iter().map(|&x| (x * k + i as u64) * stride).collect())
                .collect();
            let total: u64 = streams.iter().map(|s| s.len() as u64).sum();
            let lo = streams.iter().filter_map(|s| s.first()).min().copied();
            let hi = streams.iter().filter_map(|s| s.last()).max().copied();
            let span = lo.zip(hi);
            let universe = hi.map_or(1, |h| h + 1);
            let mk = || streams.iter().map(|s| s.iter().copied()).collect::<Vec<_>>();
            let reference = merge_with_strategy(
                mk(), universe, total, span, MergeStrategy::Heap);
            let adaptive = merge_adaptive(mk(), universe, total, span);
            prop_assert_eq!(&adaptive, &reference);
            if span.is_some() && total > 0 {
                let forced = merge_with_strategy(
                    mk(), universe, total, span, MergeStrategy::Bitset);
                prop_assert_eq!(&forced, &reference);
            }
        }
    }

    proptest! {
        #[test]
        fn merge_equals_sorted_concat(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..10_000, 0..50), 1..8)
        ) {
            // Make the parts disjoint by tagging with the part index modulo
            // a stride, then check merge == sorted union.
            let streams: Vec<Vec<u64>> = parts
                .iter()
                .enumerate()
                .map(|(i, s)| s.iter().map(|&x| x * parts.len() as u64 + i as u64).collect())
                .collect();
            let mut expected: Vec<u64> = streams.iter().flatten().copied().collect();
            expected.sort_unstable();
            let merged: Vec<u64> =
                merge_disjoint(streams.into_iter().map(|v| v.into_iter()).collect()).collect();
            prop_assert_eq!(merged, expected);
        }

        #[test]
        fn union_equals_set_union(
            parts in proptest::collection::vec(
                proptest::collection::btree_set(0u64..1000, 0..100), 1..6)
        ) {
            let mut expected: Vec<u64> = parts
                .iter()
                .flat_map(|s| s.iter().copied())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            expected.sort_unstable();
            let streams: Vec<_> = parts
                .into_iter()
                .map(|s| s.into_iter().collect::<Vec<_>>().into_iter())
                .collect();
            let got: Vec<u64> = union_dedup(streams).collect();
            prop_assert_eq!(got, expected);
        }
    }
}
