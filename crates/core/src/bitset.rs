//! Block bitsets (`SWccDesc.free`).
//!
//! Each slab descriptor embeds a bitset with one bit per block — set
//! means *free*. Like mimalloc's sharded free lists, a per-slab bitset
//! keeps allocation state local to the slab, decreasing contention and
//! improving spatial locality (paper §3.2.1). The bitset is single-writer
//! (the slab's owner), so words are plain loads and stores through the
//! pod memory — no atomics, no flushes on the fast path.

use cxl_pod::{CoreId, PodMemory};

/// One bitset word as a single load read it, and the bit of it an op
/// tests or flips. The owner's free sets the bit in the word its
/// double-free test loaded, and its alloc clears the bit in the word
/// its scan loaded: the bitset is single-writer, so the word cannot
/// have changed in between, and neither op loads it twice.
#[derive(Debug, Clone, Copy)]
pub struct BitWord {
    /// Segment offset of the word.
    off: u64,
    /// The word's value at the load.
    word: u64,
    /// The bit's index in the slab.
    bit: u32,
}

impl BitWord {
    /// The bit's index in the slab (its block's index).
    #[inline]
    pub fn bit(&self) -> u32 {
        self.bit
    }

    /// Whether the bit read set (the block free) at the load.
    #[inline]
    pub fn is_set(&self) -> bool {
        self.word & self.mask() != 0
    }

    #[inline]
    fn mask(&self) -> u64 {
        1 << (self.bit & 63)
    }
}

/// A view of one slab's free-block bitset inside the segment.
pub struct BlockBits<'m, M: PodMemory + ?Sized> {
    mem: &'m M,
    /// Segment offset of the first word.
    base: u64,
    /// Number of meaningful bits (blocks in the slab at its current
    /// class).
    nbits: u32,
}

// Not derived: a derive would demand `M: Copy`, and the handle only
// holds a reference.
impl<M: PodMemory + ?Sized> Clone for BlockBits<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: PodMemory + ?Sized> Copy for BlockBits<'_, M> {}

impl<M: PodMemory + ?Sized> std::fmt::Debug for BlockBits<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BlockBits")
            .field("base", &self.base)
            .field("nbits", &self.nbits)
            .finish()
    }
}

impl<'m, M: PodMemory + ?Sized> BlockBits<'m, M> {
    /// Creates a view of `nbits` bits starting at segment offset `base`.
    pub fn new(mem: &'m M, base: u64, nbits: u32) -> Self {
        debug_assert_eq!(base % 8, 0);
        BlockBits {
            mem,
            base,
            nbits,
        }
    }

    /// Number of meaningful bits.
    #[inline]
    pub fn len(&self) -> u32 {
        self.nbits
    }

    /// Whether the view covers zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nbits == 0
    }

    #[inline]
    fn words(&self) -> u32 {
        (self.nbits + 63) >> 6
    }

    #[inline]
    fn word_offset(&self, word: u32) -> u64 {
        self.base + word as u64 * 8
    }

    /// Loads the word holding bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bit` is out of range.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn load(&self, core: CoreId, bit: u32) -> BitWord {
        debug_assert!(bit < self.nbits);
        let off = self.word_offset(bit >> 6);
        BitWord {
            off,
            word: self.mem.load_u64(core, off),
            bit,
        }
    }

    /// Stores `loaded`'s word with its bit set (the block freed), without
    /// loading it again. `loaded` must come from this view, and no store
    /// to its word may have come between.
    #[inline]
    pub fn store_set(&self, core: CoreId, loaded: BitWord) {
        self.mem.store_u64(core, loaded.off, loaded.word | loaded.mask());
    }

    /// Stores `loaded`'s word with its bit clear (the block allocated),
    /// under [`BlockBits::store_set`]'s terms.
    #[inline]
    pub fn store_clear(&self, core: CoreId, loaded: BitWord) {
        self.mem.store_u64(core, loaded.off, loaded.word & !loaded.mask());
    }

    /// Reads bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bit` is out of range.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn get(&self, core: CoreId, bit: u32) -> bool {
        self.load(core, bit).is_set()
    }

    /// Sets bit `bit` (marks the block free).
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn set(&self, core: CoreId, bit: u32) {
        self.store_set(core, self.load(core, bit));
    }

    /// Clears bit `bit` (marks the block allocated).
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn clear(&self, core: CoreId, bit: u32) {
        self.store_clear(core, self.load(core, bit));
    }

    /// Finds the lowest set (free) bit, if any.
    pub fn find_set(&self, core: CoreId) -> Option<u32> {
        self.find_set_from(core, 0)
    }

    /// The bit [`BlockBits::find_from`] finds.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn find_set_from(&self, core: CoreId, start: u32) -> Option<u32> {
        self.find_from(core, start).map(|found| found.bit)
    }

    /// Finds the next set (free) bit at or after `start`, wrapping to the
    /// bits below `start` when the tail holds none — the rover scan — and
    /// returns it with its word as loaded, for
    /// [`BlockBits::store_clear`]. `start` is a *hint*: any value (even
    /// out of range, which is treated as 0) yields a correct answer,
    /// because every candidate word is re-read from the durable bitset;
    /// only the scan order — never the result's validity — depends on
    /// it.
    ///
    /// With `start == 0` the word loads are exactly those of the classic
    /// scan-from-zero, so paths that do not carry a rover are
    /// byte-identical in the simulated-traffic model.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn find_from(&self, core: CoreId, start: u32) -> Option<BitWord> {
        let words = self.words();
        if words == 0 {
            return None;
        }
        let (mut w, bit0) = if start < self.nbits {
            (start >> 6, start & 63)
        } else {
            (0, 0)
        };
        let tail = self.nbits & 63;
        // When the scan starts mid-word, the first word is visited twice:
        // high bits first, then (after a full wrap) its low bits.
        let extra = (bit0 != 0) as u32;
        for i in 0..words + extra {
            let off = self.word_offset(w);
            let loaded = self.mem.load_u64(core, off);
            let mut word = loaded;
            if w == words - 1 && tail != 0 {
                word &= (1u64 << tail) - 1;
            }
            if i == 0 {
                word &= !0u64 << bit0;
            } else if i == words {
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                return Some(BitWord {
                    off,
                    word: loaded,
                    bit: (w << 6) + word.trailing_zeros(),
                });
            }
            w += 1;
            if w == words {
                w = 0;
            }
        }
        None
    }

    /// Sets all `nbits` bits (slab initialization: every block free) and
    /// zeroes any tail bits of the last word.
    pub fn set_all(&self, core: CoreId) {
        let full = self.nbits / 64;
        for w in 0..full {
            self.mem.store_u64(core, self.word_offset(w), u64::MAX);
        }
        if !self.nbits.is_multiple_of(64) {
            self.mem
                .store_u64(core, self.word_offset(full), (1u64 << (self.nbits % 64)) - 1);
        }
    }

    /// Counts set (free) bits.
    pub fn count_set(&self, core: CoreId) -> u32 {
        let full = self.nbits / 64;
        let mut count = (0..full)
            .map(|w| self.mem.load_u64(core, self.word_offset(w)).count_ones())
            .sum();
        if !self.nbits.is_multiple_of(64) {
            let word = self.mem.load_u64(core, self.word_offset(full));
            count += (word & ((1u64 << (self.nbits % 64)) - 1)).count_ones();
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{Pod, PodConfig};

    fn fixture() -> (Pod, u64) {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let base = pod.layout().small.bitset_at(0);
        (pod, base)
    }

    #[test]
    fn set_clear_get() {
        let (pod, base) = fixture();
        let bits = BlockBits::new(pod.memory().as_ref(), base, 100);
        let core = CoreId(0);
        assert!(!bits.get(core, 3));
        bits.set(core, 3);
        assert!(bits.get(core, 3));
        bits.clear(core, 3);
        assert!(!bits.get(core, 3));
    }

    #[test]
    fn set_all_and_count() {
        let (pod, base) = fixture();
        let core = CoreId(0);
        for nbits in [1u32, 63, 64, 65, 100, 4096] {
            let bits = BlockBits::new(pod.memory().as_ref(), base, nbits);
            bits.set_all(core);
            assert_eq!(bits.count_set(core), nbits, "nbits={nbits}");
            assert_eq!(bits.find_set(core), Some(0));
        }
    }

    #[test]
    fn find_skips_cleared() {
        let (pod, base) = fixture();
        let bits = BlockBits::new(pod.memory().as_ref(), base, 130);
        let core = CoreId(0);
        bits.set_all(core);
        for expected in 0..130 {
            assert_eq!(bits.find_set(core), Some(expected));
            bits.clear(core, expected);
        }
        assert_eq!(bits.find_set(core), None);
        assert_eq!(bits.count_set(core), 0);
    }

    #[test]
    fn tail_bits_do_not_leak() {
        let (pod, base) = fixture();
        let core = CoreId(0);
        // A 4096-bit view sets all words; a narrower re-view over the
        // same memory must mask the tail.
        let wide = BlockBits::new(pod.memory().as_ref(), base, 128);
        wide.set_all(core);
        let narrow = BlockBits::new(pod.memory().as_ref(), base, 70);
        assert_eq!(narrow.count_set(core), 70);
        for bit in 0..70 {
            narrow.clear(core, bit);
        }
        assert_eq!(narrow.find_set(core), None, "tail bits must be masked");
    }

    #[test]
    fn find_set_from_wraps_and_matches_scan(){
        let (pod, base) = fixture();
        let core = CoreId(0);
        for nbits in [1u32, 63, 64, 65, 130, 512, 4096] {
            let bits = BlockBits::new(pod.memory().as_ref(), base, nbits);
            // A sparse pattern: a few set bits scattered over the range.
            let set: Vec<u32> = [0u32, 1, 62, 63, 64, 100, 511, 4090]
                .iter()
                .copied()
                .filter(|&b| b < nbits)
                .collect();
            for bit in 0..nbits {
                bits.clear(core, bit);
            }
            for &b in &set {
                bits.set(core, b);
            }
            for start in 0..nbits.min(200) {
                // Reference: first set bit >= start, else wrap to lowest.
                let expected = set
                    .iter()
                    .copied()
                    .find(|&b| b >= start)
                    .or_else(|| set.first().copied());
                assert_eq!(
                    bits.find_set_from(core, start),
                    expected,
                    "nbits={nbits} start={start}"
                );
            }
            // Out-of-range hints degrade to scan-from-zero.
            assert_eq!(bits.find_set_from(core, nbits + 7), set.first().copied());
            assert_eq!(bits.find_set_from(core, u32::MAX), set.first().copied());
        }
    }

    #[test]
    fn find_set_from_empty_bitset() {
        let (pod, base) = fixture();
        let core = CoreId(0);
        let bits = BlockBits::new(pod.memory().as_ref(), base, 130);
        for bit in 0..130 {
            bits.clear(core, bit);
        }
        for start in [0u32, 1, 63, 64, 129, 500] {
            assert_eq!(bits.find_set_from(core, start), None);
        }
    }

    #[test]
    fn find_set_from_tail_bits_masked() {
        let (pod, base) = fixture();
        let core = CoreId(0);
        // Pollute the word beyond nbits, then check the narrow view
        // never reports a tail bit no matter where the rover starts.
        let wide = BlockBits::new(pod.memory().as_ref(), base, 128);
        wide.set_all(core);
        let narrow = BlockBits::new(pod.memory().as_ref(), base, 70);
        for bit in 0..70 {
            narrow.clear(core, bit);
        }
        for start in 0..70 {
            assert_eq!(narrow.find_set_from(core, start), None, "start={start}");
        }
    }

    #[test]
    fn words_are_independent() {
        let (pod, base) = fixture();
        let bits = BlockBits::new(pod.memory().as_ref(), base, 256);
        let core = CoreId(0);
        bits.set(core, 0);
        bits.set(core, 64);
        bits.set(core, 255);
        assert_eq!(bits.count_set(core), 3);
        bits.clear(core, 64);
        assert!(bits.get(core, 0));
        assert!(bits.get(core, 255));
        assert!(!bits.get(core, 64));
    }
}
