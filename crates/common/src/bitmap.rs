//! Query-membership bitmaps — the core bookkeeping device of shared
//! operators (paper §2.4): every tuple flowing through a Global Query Plan
//! carries one bit per active query; shared hash-joins AND the bitmaps of
//! joined tuples; the distributor routes on the surviving bits.

use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// A dynamically sized bitmap over query slots.
///
/// A bitmap of one word (up to 64 query slots) lives inline, so cloning
/// it — a filter entry's staged bits, a page's member stamp — allocates
/// nothing; any other width is one heap slice. Equality, hashing and
/// `Debug` see only the words, never which form holds them: a bitmap
/// hashes as its `[u64]` word slice.
#[derive(Clone)]
pub struct QueryBitmap {
    words: Words,
}

/// The words of a [`QueryBitmap`]. `Many` holds widths 0 and ≥ 2, never 1,
/// so a one-word bitmap is always inline; both variants fit the 16 bytes
/// of a boxed slice.
#[derive(Clone)]
enum Words {
    One(u64),
    Many(Box<[u64]>),
}

impl Words {
    /// `n` zero words.
    fn zeroed(n: usize) -> Words {
        match n {
            1 => Words::One(0),
            n => Words::Many(vec![0u64; n].into_boxed_slice()),
        }
    }
}

impl Deref for Words {
    type Target = [u64];
    fn deref(&self) -> &[u64] {
        match self {
            Words::One(w) => std::slice::from_ref(w),
            Words::Many(ws) => ws,
        }
    }
}

impl DerefMut for Words {
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::One(w) => std::slice::from_mut(w),
            Words::Many(ws) => ws,
        }
    }
}

impl PartialEq for QueryBitmap {
    fn eq(&self, other: &QueryBitmap) -> bool {
        *self.words == *other.words
    }
}

impl Eq for QueryBitmap {}

impl Hash for QueryBitmap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (*self.words).hash(state);
    }
}

impl std::fmt::Debug for QueryBitmap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryBitmap")
            .field("words", &self.words())
            .finish()
    }
}

impl Default for QueryBitmap {
    fn default() -> QueryBitmap {
        QueryBitmap {
            words: Words::Many(Box::default()),
        }
    }
}

impl QueryBitmap {
    /// All-zero bitmap able to hold `nbits` query slots.
    pub fn zeros(nbits: usize) -> QueryBitmap {
        QueryBitmap {
            words: Words::zeroed(nbits.div_ceil(64)),
        }
    }

    /// Bitmap with the first `nbits` slots set.
    pub fn ones(nbits: usize) -> QueryBitmap {
        let mut b = Self::zeros(nbits);
        for i in 0..nbits {
            b.set(i);
        }
        b
    }

    /// Bitmap adopting `words` as its backing words — word-level
    /// construction for hot paths that already hold the words (the
    /// preprocessor's per-page mask snapshot), skipping per-bit `set`. One
    /// word is stored inline, with no allocation.
    pub fn from_words(words: impl IntoIterator<Item = u64>) -> QueryBitmap {
        let mut it = words.into_iter().fuse();
        let words = match (it.next(), it.next()) {
            (Some(w), None) => Words::One(w),
            (first, second) => Words::Many(first.into_iter().chain(second).chain(it).collect()),
        };
        QueryBitmap { words }
    }

    /// Capacity in bits (a multiple of 64).
    pub fn capacity(&self) -> usize {
        self.words.len() * 64
    }

    /// Number of 64-bit words (the unit the cost model charges per AND).
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// Set bit `i`, growing if needed (query admission extends bitmaps —
    /// one of the admission costs SP avoids for identical queries).
    pub fn set(&mut self, i: usize) {
        if i >= self.capacity() {
            self.grow(i + 1);
        }
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Clear bit `i` (query finalization).
    pub fn clear(&mut self, i: usize) {
        if i < self.capacity() {
            self.words[i / 64] &= !(1u64 << (i % 64));
        }
    }

    /// Test bit `i`.
    pub fn get(&self, i: usize) -> bool {
        i < self.capacity() && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Grow capacity to at least `nbits`.
    pub fn grow(&mut self, nbits: usize) {
        let need = nbits.div_ceil(64);
        let have = self.words.len();
        if need > have {
            let mut grown = Words::zeroed(need);
            grown[..have].copy_from_slice(&self.words);
            self.words = grown;
        }
    }

    /// `self &= other` (missing words in either side are zero).
    /// Returns whether any bit survives.
    pub fn and_assign(&mut self, other: &QueryBitmap) -> bool {
        let n = self.words.len().min(other.words.len());
        let mut any = 0u64;
        for (w, o) in self.words.iter_mut().zip(other.words()) {
            *w &= o;
            any |= *w;
        }
        self.words[n..].fill(0);
        any != 0
    }

    /// `self |= other`, growing as needed.
    pub fn or_assign(&mut self, other: &QueryBitmap) {
        if other.words.len() > self.words.len() {
            self.grow(other.capacity());
        }
        for (w, o) in self.words.iter_mut().zip(other.words()) {
            *w |= o;
        }
    }

    /// Shared-filter AND: `self &= entry | !referencing`.
    ///
    /// This is the probe step of a CJOIN filter. Queries *referencing* the
    /// filter's dimension keep their bit only if the dimension tuple's
    /// `entry` bitmap has it (`entry = None` on a hash miss); queries that do
    /// not reference the dimension pass through untouched. Returns whether
    /// any bit survives.
    pub fn and_filtered(
        &mut self,
        entry: Option<&QueryBitmap>,
        referencing: &QueryBitmap,
    ) -> bool {
        let entry = entry.map_or(&[][..], QueryBitmap::words);
        let referencing = referencing.words();
        let mut any = 0u64;
        for (i, w) in self.words.iter_mut().enumerate() {
            let e = entry.get(i).copied().unwrap_or(0);
            let r = referencing.get(i).copied().unwrap_or(0);
            *w &= e | !r;
            any |= *w;
        }
        any != 0
    }

    /// Whether any bit is set.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterate indices of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// The backing 64-bit words (the unit batch operators work in).
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

// ---------------------------------------------------------------------------
// Batch-at-a-time structures
// ---------------------------------------------------------------------------

/// A reusable selection bitmap over the tuples of one batch: bit `i` set
/// means tuple `i` is selected. This is the unit the batch-at-a-time filter
/// pipeline threads between operators — predicates produce one, shared
/// filters consume and narrow one — replacing per-tuple `bool` control flow
/// with whole-word bit arithmetic.
///
/// Invariant: bits at positions `>= len` are always zero, so `count` /
/// `any` / word-level ANDs need no tail masking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SelVec {
    words: Vec<u64>,
    len: usize,
}

impl SelVec {
    /// Empty selection (reusable; call [`SelVec::reset`] before use).
    pub fn new() -> SelVec {
        SelVec::default()
    }

    /// Resize to cover `len` tuples and set every bit to `selected`,
    /// reusing the existing allocation.
    pub fn reset(&mut self, len: usize, selected: bool) {
        let nwords = len.div_ceil(64);
        self.words.clear();
        self.words
            .resize(nwords, if selected { u64::MAX } else { 0 });
        self.len = len;
        if selected && !len.is_multiple_of(64) {
            // Maintain the zero-tail invariant.
            *self.words.last_mut().unwrap() = (1u64 << (len % 64)) - 1;
        }
    }

    /// Number of tuples covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the selection covers zero tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Select tuple `i`.
    pub fn set(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Deselect tuple `i`.
    pub fn clear(&mut self, i: usize) {
        debug_assert!(i < self.len);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Whether tuple `i` is selected.
    pub fn get(&self, i: usize) -> bool {
        i < self.len && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Whether any tuple is selected.
    pub fn any(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Number of selected tuples.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `self &= other` (both must cover the same batch).
    pub fn and_assign(&mut self, other: &SelVec) {
        debug_assert_eq!(self.len, other.len);
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w &= o;
        }
    }

    /// Iterate selected tuple indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Visit each selected tuple and deselect those for which `keep` returns
    /// false. Word-at-a-time: dead words are skipped entirely.
    pub fn retain(&mut self, mut keep: impl FnMut(usize) -> bool) {
        for wi in 0..self.words.len() {
            let mut scan = self.words[wi];
            if scan == 0 {
                continue;
            }
            let mut kept = scan;
            while scan != 0 {
                let tz = scan.trailing_zeros() as usize;
                scan &= scan - 1;
                if !keep(wi * 64 + tz) {
                    kept &= !(1u64 << tz);
                }
            }
            self.words[wi] = kept;
        }
    }

    /// The backing words.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// One contiguous bank of per-tuple query-membership bitmaps for a whole
/// work batch, word-strided: tuple `i`'s bitmap occupies words
/// `[i*stride, (i+1)*stride)`. This replaces the per-tuple
/// `QueryBitmap::clone()` of the scalar filter path with a single
/// `Vec<u64>` that a worker reuses batch after batch — the steady-state
/// filter loop performs zero heap allocations per tuple.
#[derive(Debug, Clone, Default)]
pub struct BitmapBank {
    words: Vec<u64>,
    stride: usize,
    len: usize,
}

impl BitmapBank {
    /// Empty bank (reusable; call [`BitmapBank::reset`] before use).
    pub fn new() -> BitmapBank {
        BitmapBank::default()
    }

    /// Resize to `len` tuples of all-zero bitmaps able to hold `nbits` bits
    /// each, reusing the allocation. This is the layout of a **per-query
    /// selection bank**: multi-predicate evaluation
    /// ([`crate::Predicate::eval_batch_multi`]) sets bit `q` of tuple `i`
    /// when predicate `q` selects row `i`, so one pass over a decoded page
    /// yields every pending query's selection at once.
    pub fn reset_zeros(&mut self, len: usize, nbits: usize) {
        self.stride = nbits.div_ceil(64).max(1);
        self.len = len;
        self.words.clear();
        self.words.resize(len * self.stride, 0);
    }

    /// Set bit `bit` of tuple `i` (must be within the bank's stride).
    #[inline]
    pub fn set(&mut self, i: usize, bit: usize) {
        debug_assert!(bit / 64 < self.stride);
        self.words[i * self.stride + bit / 64] |= 1u64 << (bit % 64);
    }

    /// Whether tuple `i` has any bit set.
    #[inline]
    pub fn row_any(&self, i: usize) -> bool {
        self.row(i).iter().any(|w| *w != 0)
    }

    /// Iterate the set bit indices of tuple `i` in ascending order.
    pub fn row_ones(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.row(i).iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }

    /// Number of tuples with bit `bit` set (a column population count —
    /// per-query admission-scan hit counts for the selectivity EWMA).
    pub fn count_column(&self, bit: usize) -> usize {
        let (wi, mask) = (bit / 64, 1u64 << (bit % 64));
        if wi >= self.stride {
            return 0;
        }
        (0..self.len)
            .filter(|&i| self.words[i * self.stride + wi] & mask != 0)
            .count()
    }

    /// Resize to `len` tuples and stamp every tuple's bitmap with a copy of
    /// `seed` (the page's active-query membership), reusing the allocation.
    pub fn reset(&mut self, len: usize, seed: &QueryBitmap) {
        self.stride = seed.word_count();
        self.len = len;
        self.words.clear();
        let sw = seed.words();
        if sw.len() == 1 {
            self.words.resize(len, sw[0]);
        } else {
            self.words.reserve(len * self.stride);
            for _ in 0..len {
                self.words.extend_from_slice(sw);
            }
        }
    }

    /// Words per tuple bitmap.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of tuple bitmaps held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bank holds zero tuples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Tuple `i`'s bitmap words.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Whether bit `bit` of tuple `i` is set.
    pub fn get(&self, i: usize, bit: usize) -> bool {
        bit / 64 < self.stride && self.row(i)[bit / 64] & (1u64 << (bit % 64)) != 0
    }

    /// AND tuple `i`'s bitmap with a precomputed mask of exactly `stride`
    /// words (the hot-loop form: the filter kernel computes
    /// `entry | !referencing` once per key run and reapplies it per tuple).
    /// Returns whether any bit survives.
    #[inline]
    pub fn and_mask_row(&mut self, i: usize, mask: &[u64]) -> bool {
        debug_assert_eq!(mask.len(), self.stride);
        let row = &mut self.words[i * self.stride..(i + 1) * self.stride];
        let mut any = 0u64;
        for (w, m) in row.iter_mut().zip(mask) {
            *w &= m;
            any |= *w;
        }
        any != 0
    }

    /// Tuple `i`'s bitmap in a bank with `stride == 1`.
    #[inline]
    pub fn word(&self, i: usize) -> u64 {
        debug_assert_eq!(self.stride, 1);
        self.words[i]
    }

    /// Single-word specialization of [`BitmapBank::and_mask_row`] for banks
    /// with `stride == 1` (up to 64 query slots, the common case).
    #[inline]
    pub fn and_word(&mut self, i: usize, mask: u64) -> bool {
        debug_assert_eq!(self.stride, 1);
        let w = &mut self.words[i];
        *w &= mask;
        *w != 0
    }

    /// Whether any tuple has any bit set.
    pub fn any_alive(&self) -> bool {
        self.words.iter().any(|w| *w != 0)
    }

    /// Keep only the tuples selected in `keep`, in order (stable
    /// compaction), producing the survivor-aligned bank of a filtered page.
    pub fn compact_into(&self, keep: &SelVec, dst: &mut BitmapBank) {
        dst.stride = self.stride;
        dst.words.clear();
        dst.words.reserve(keep.count() * self.stride);
        dst.len = 0;
        for i in keep.iter_ones() {
            dst.words.extend_from_slice(self.row(i));
            dst.len += 1;
        }
    }

    /// Copy tuple `i`'s bitmap out as a standalone [`QueryBitmap`].
    pub fn to_query_bitmap(&self, i: usize) -> QueryBitmap {
        QueryBitmap::from_words(self.row(i).iter().copied())
    }

    /// Append one tuple bitmap (scalar reference path compatibility); the
    /// bitmap is truncated or zero-extended to the bank's stride.
    pub fn push_bitmap(&mut self, bits: &QueryBitmap) {
        let bw = bits.words();
        for j in 0..self.stride {
            self.words.push(bw.get(j).copied().unwrap_or(0));
        }
        self.len += 1;
    }

    /// Reset to an empty bank with the given stride (scalar path builds
    /// banks incrementally with [`BitmapBank::push_bitmap`]).
    pub fn reset_empty(&mut self, stride: usize) {
        self.words.clear();
        self.stride = stride;
        self.len = 0;
    }
}

/// The distributor's routing columns: one [`SelVec`] per routed query slot
/// over the tuples of a bank, selecting the tuples whose bitmap carries the
/// slot's bit. [`RouteColumns::route`] fills them all in one pass over the
/// bank, so routing a page costs its tuples plus its set bits, not tuples ×
/// queries. The buffers are reused page after page: once they reach a
/// page's size, routing allocates nothing.
#[derive(Debug, Default)]
pub struct RouteColumns {
    cols: Vec<SelVec>,
    /// Column index of each routed slot (entries of other slots are stale).
    col_of: Vec<u32>,
    /// The routed slots' bits, one word per bank word.
    mask: Vec<u64>,
}

impl RouteColumns {
    /// Empty scratch.
    pub fn new() -> RouteColumns {
        RouteColumns::default()
    }

    /// Route `bank`: column `k` of the result selects tuple `i` iff bit
    /// `slots[k]` of tuple `i`'s bitmap is set (a slot past the bank's
    /// stride routes nothing). `slots` must be distinct.
    pub fn route(&mut self, bank: &BitmapBank, slots: &[usize]) -> &mut [SelVec] {
        if self.cols.len() < slots.len() {
            self.cols.resize_with(slots.len(), SelVec::new);
        }
        let cols = &mut self.cols[..slots.len()];
        for col in cols.iter_mut() {
            col.reset(bank.len, false);
        }
        // A default bank has stride 0 and no words.
        let stride = bank.stride.max(1);
        if let [slot] = *slots {
            // One query: its column is one bit of each tuple, gathered 64
            // tuples to a word store.
            let (wi, b) = (slot / 64, slot % 64);
            if wi < bank.stride {
                let chunks = bank.words.chunks(64 * stride);
                for (out, chunk) in cols[0].words.iter_mut().zip(chunks) {
                    let bits = chunk.iter().skip(wi).step_by(stride);
                    *out = bits.enumerate().fold(0, |w, (k, x)| w | ((x >> b) & 1) << k);
                }
            }
            return cols;
        }
        let RouteColumns { col_of, mask, .. } = self;
        mask.clear();
        mask.resize(stride, 0);
        col_of.resize(64 * stride, u32::MAX);
        for (k, &slot) in slots.iter().enumerate() {
            if slot / 64 < stride {
                mask[slot / 64] |= 1 << (slot % 64);
                col_of[slot] = k as u32;
            }
        }
        // Each tuple's routed bits, lowest first, each to its column.
        if stride == 1 {
            // Up to 64 query slots: a tuple's bitmap is one word.
            let mask0 = mask[0];
            for (i, &w) in bank.words.iter().enumerate() {
                let mut bits = w & mask0;
                while bits != 0 {
                    cols[col_of[bits.trailing_zeros() as usize] as usize].set(i);
                    bits &= bits - 1;
                }
            }
        } else {
            for (i, row) in bank.words.chunks(stride).enumerate() {
                for (wi, (&w, &m)) in row.iter().zip(&mask[..]).enumerate() {
                    let mut bits = w & m;
                    while bits != 0 {
                        let slot = wi * 64 + bits.trailing_zeros() as usize;
                        cols[col_of[slot] as usize].set(i);
                        bits &= bits - 1;
                    }
                }
            }
        }
        cols
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Bit `bit` of every tuple of `bank` into `out`: one routing column,
    /// read one tuple at a time (the oracle [`RouteColumns::route`] is
    /// compared against).
    fn extract_column(bank: &BitmapBank, bit: usize, out: &mut SelVec) {
        out.reset(bank.len, false);
        let (wi, mask) = (bit / 64, 1u64 << (bit % 64));
        if wi >= bank.stride {
            return;
        }
        for i in 0..bank.len {
            if bank.words[i * bank.stride + wi] & mask != 0 {
                out.set(i);
            }
        }
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut b = QueryBitmap::zeros(10);
        assert!(!b.get(3));
        b.set(3);
        assert!(b.get(3));
        b.clear(3);
        assert!(!b.get(3));
        assert!(!b.get(1000), "out-of-range get is false");
    }

    #[test]
    fn a_bitmap_is_the_size_of_a_boxed_slice() {
        assert_eq!(std::mem::size_of::<QueryBitmap>(), 16);
    }

    #[test]
    fn set_grows_automatically() {
        let mut b = QueryBitmap::zeros(1);
        b.set(200);
        assert!(b.get(200));
        assert!(b.capacity() >= 201);
    }

    #[test]
    fn ones_sets_exactly_n() {
        let b = QueryBitmap::ones(70);
        assert_eq!(b.count_ones(), 70);
        assert!(b.get(69));
        assert!(!b.get(70));
    }

    #[test]
    fn and_matches_set_semantics() {
        let xs: BTreeSet<usize> = [1, 5, 64, 100, 130].into();
        let ys: BTreeSet<usize> = [5, 64, 99, 130, 200].into();
        let mut a = QueryBitmap::zeros(256);
        let mut b = QueryBitmap::zeros(256);
        for &x in &xs {
            a.set(x);
        }
        for &y in &ys {
            b.set(y);
        }
        let survived = a.and_assign(&b);
        let expect: BTreeSet<usize> = xs.intersection(&ys).copied().collect();
        assert_eq!(a.iter_ones().collect::<BTreeSet<_>>(), expect);
        assert_eq!(survived, !expect.is_empty());
    }

    #[test]
    fn and_with_shorter_bitmap_zeroes_tail() {
        let mut a = QueryBitmap::zeros(200);
        a.set(10);
        a.set(150);
        let mut b = QueryBitmap::zeros(64);
        b.set(10);
        assert!(a.and_assign(&b));
        assert!(a.get(10));
        assert!(!a.get(150), "bits beyond other's capacity must clear");
    }

    #[test]
    fn or_unions_and_grows() {
        let mut a = QueryBitmap::zeros(64);
        a.set(1);
        let mut b = QueryBitmap::zeros(256);
        b.set(200);
        a.or_assign(&b);
        assert!(a.get(1) && a.get(200));
    }

    #[test]
    fn iter_ones_ascending() {
        let mut b = QueryBitmap::zeros(256);
        for i in [0, 63, 64, 127, 255] {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 127, 255]);
    }

    #[test]
    fn and_filtered_passes_non_referencing_queries() {
        // Queries 0,1 reference the filter; query 2 does not.
        let mut referencing = QueryBitmap::zeros(64);
        referencing.set(0);
        referencing.set(1);
        // Dim tuple selected only by query 0.
        let mut entry = QueryBitmap::zeros(64);
        entry.set(0);
        let mut tuple = QueryBitmap::zeros(64);
        tuple.set(0);
        tuple.set(1);
        tuple.set(2);
        assert!(tuple.and_filtered(Some(&entry), &referencing));
        assert!(tuple.get(0), "selected by the dim tuple");
        assert!(!tuple.get(1), "referencing but not selected");
        assert!(tuple.get(2), "non-referencing query unaffected");
    }

    #[test]
    fn and_filtered_miss_kills_only_referencing_bits() {
        let mut referencing = QueryBitmap::zeros(64);
        referencing.set(0);
        let mut tuple = QueryBitmap::zeros(64);
        tuple.set(0);
        tuple.set(3);
        assert!(tuple.and_filtered(None, &referencing));
        assert!(!tuple.get(0));
        assert!(tuple.get(3));
        // A miss with only referencing bits kills the tuple.
        let mut t2 = QueryBitmap::zeros(64);
        t2.set(0);
        assert!(!t2.and_filtered(None, &referencing));
    }

    #[test]
    fn empty_any_count() {
        let b = QueryBitmap::zeros(128);
        assert!(!b.any());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }

    #[test]
    fn selvec_reset_respects_tail_invariant() {
        let mut s = SelVec::new();
        s.reset(70, true);
        assert_eq!(s.len(), 70);
        assert_eq!(s.count(), 70);
        assert!(s.get(69) && !s.get(70));
        // Words beyond len stay zero, so count never overshoots.
        assert_eq!(s.words().len(), 2);
        assert_eq!(s.words()[1].count_ones(), 6);
        s.reset(3, false);
        assert_eq!(s.count(), 0);
        assert!(!s.any());
    }

    #[test]
    fn selvec_retain_deselects() {
        let mut s = SelVec::new();
        s.reset(130, true);
        s.retain(|i| i % 3 == 0);
        let expect: Vec<usize> = (0..130).filter(|i| i % 3 == 0).collect();
        assert_eq!(s.iter_ones().collect::<Vec<_>>(), expect);
        assert_eq!(s.count(), expect.len());
        // retain never revives deselected tuples.
        s.retain(|_| true);
        assert_eq!(s.count(), expect.len());
    }

    #[test]
    fn selvec_and_assign_intersects() {
        let mut a = SelVec::new();
        a.reset(100, true);
        a.retain(|i| i % 2 == 0);
        let mut b = SelVec::new();
        b.reset(100, true);
        b.retain(|i| i % 3 == 0);
        a.and_assign(&b);
        assert_eq!(
            a.iter_ones().collect::<Vec<_>>(),
            (0..100).filter(|i| i % 6 == 0).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bank_reset_broadcasts_seed() {
        let mut seed = QueryBitmap::zeros(130);
        seed.set(0);
        seed.set(129);
        let mut bank = BitmapBank::new();
        bank.reset(5, &seed);
        assert_eq!(bank.len(), 5);
        assert_eq!(bank.stride(), seed.word_count());
        for i in 0..5 {
            assert!(bank.get(i, 0) && bank.get(i, 129) && !bank.get(i, 64));
            assert_eq!(bank.to_query_bitmap(i), seed);
        }
        assert!(bank.any_alive());
    }

    #[test]
    fn bank_extract_column_and_compact() {
        let mut members = QueryBitmap::zeros(64);
        members.set(0);
        members.set(1);
        let mut bank = BitmapBank::new();
        bank.reset(4, &members);
        // Kill bit 0 on rows 1 and 3.
        bank.and_mask_row(1, &[!1]);
        bank.and_mask_row(3, &[!1]);
        let mut col = SelVec::new();
        extract_column(&bank, 0, &mut col);
        assert_eq!(col.iter_ones().collect::<Vec<_>>(), vec![0, 2]);
        extract_column(&bank, 1, &mut col);
        assert_eq!(col.count(), 4);
        // Out-of-stride column reads as all-zero.
        extract_column(&bank, 64 * bank.stride() + 5, &mut col);
        assert_eq!(col.count(), 0);
        // Compact down to rows 0 and 2.
        let mut keep = SelVec::new();
        keep.reset(4, false);
        keep.set(0);
        keep.set(2);
        let mut dst = BitmapBank::new();
        bank.compact_into(&keep, &mut dst);
        assert_eq!(dst.len(), 2);
        assert_eq!(dst.to_query_bitmap(0), bank.to_query_bitmap(0));
        assert_eq!(dst.to_query_bitmap(1), bank.to_query_bitmap(2));
    }

    #[test]
    fn bank_reset_zeros_set_and_column_ops() {
        let mut bank = BitmapBank::new();
        bank.reset_zeros(5, 70); // 2-word stride
        assert_eq!(bank.stride(), 2);
        assert_eq!(bank.len(), 5);
        assert!(!bank.any_alive());
        bank.set(0, 3);
        bank.set(0, 69);
        bank.set(4, 3);
        assert!(bank.row_any(0) && !bank.row_any(1) && bank.row_any(4));
        assert_eq!(bank.row_ones(0).collect::<Vec<_>>(), vec![3, 69]);
        assert_eq!(bank.count_column(3), 2);
        assert_eq!(bank.count_column(69), 1);
        assert_eq!(bank.count_column(40), 0);
        assert_eq!(bank.count_column(1000), 0, "out-of-stride column is zero");
        // Reuse shrinks and clears stale bits.
        bank.reset_zeros(2, 1);
        assert_eq!(bank.stride(), 1);
        assert!(!bank.row_any(0) && !bank.row_any(1));
    }

    #[test]
    fn bank_push_bitmap_extends_and_truncates() {
        let mut bank = BitmapBank::new();
        bank.reset_empty(2);
        let mut small = QueryBitmap::zeros(64);
        small.set(5);
        bank.push_bitmap(&small); // zero-extended to 2 words
        let mut big = QueryBitmap::zeros(256);
        big.set(64);
        big.set(200);
        bank.push_bitmap(&big); // truncated to 2 words
        assert_eq!(bank.len(), 2);
        assert!(bank.get(0, 5) && !bank.get(0, 64));
        assert!(bank.get(1, 64) && !bank.get(1, 200));
    }

    /// One-pass routing against one [`extract_column`] per slot, at
    /// strides 1 and 2, over random banks, slot sets (one slot, several,
    /// none, some past the stride) and page sizes, with one scratch reused
    /// across cases so stale columns would show.
    mod routing_oracle {
        use super::*;
        use proptest::collection::{btree_set, vec};
        use proptest::prelude::*;
        use std::cell::RefCell;

        thread_local! {
            static ROUTES: RefCell<RouteColumns> = RefCell::new(RouteColumns::new());
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn one_pass_routing_equals_a_column_per_slot(
                stride in 1usize..3,
                words in vec((any::<u64>(), any::<u64>(), 0u8..4), 0..300),
                slots in btree_set(0usize..140, 0..6),
                one in 0usize..140,
                single in any::<bool>(),
            ) {
                // Sparse, dense and empty bitmaps, so columns both fill and
                // stay empty.
                let mut bank = BitmapBank::new();
                bank.reset_empty(stride);
                for &(a, b, density) in &words {
                    let thin = |w: u64| match density {
                        0 => 0,
                        1 => w & w.rotate_left(17) & w.rotate_left(31),
                        _ => w,
                    };
                    let bits = QueryBitmap::from_words([thin(a), thin(b)].into_iter().take(stride));
                    bank.push_bitmap(&bits);
                }
                let slots: Vec<usize> =
                    if single { vec![one] } else { slots.into_iter().collect() };
                ROUTES.with(|r| {
                    let mut routes = r.borrow_mut();
                    let cols = routes.route(&bank, &slots);
                    prop_assert_eq!(cols.len(), slots.len());
                    let mut want = SelVec::new();
                    for (col, &slot) in cols.iter().zip(&slots) {
                        extract_column(&bank, slot, &mut want);
                        prop_assert_eq!(col, &want, "slot {} of {:?}", slot, slots);
                    }
                });
            }
        }
    }
}
