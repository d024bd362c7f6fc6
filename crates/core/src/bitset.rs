//! Block bitsets (`SWccDesc.free`).
//!
//! Each slab descriptor embeds a bitset with one bit per block — set
//! means *free*. Like mimalloc's sharded free lists, a per-slab bitset
//! keeps allocation state local to the slab, decreasing contention and
//! improving spatial locality (paper §3.2.1). The bitset is single-writer
//! (the slab's owner), so words are plain loads and stores through the
//! pod memory — no atomics, no flushes on the fast path.

use cxl_pod::{CoreId, PodMemory};

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
        self.nbits.div_ceil(64)
    }

    #[inline]
    fn word_offset(&self, word: u32) -> u64 {
        self.base + word as u64 * 8
    }

    /// Reads bit `bit`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `bit` is out of range.
    pub fn get(&self, core: CoreId, bit: u32) -> bool {
        debug_assert!(bit < self.nbits);
        let word = self.mem.load_u64(core, self.word_offset(bit / 64));
        word & (1 << (bit % 64)) != 0
    }

    /// Sets bit `bit` (marks the block free).
    pub fn set(&self, core: CoreId, bit: u32) {
        debug_assert!(bit < self.nbits);
        let off = self.word_offset(bit / 64);
        let word = self.mem.load_u64(core, off);
        self.mem.store_u64(core, off, word | 1 << (bit % 64));
    }

    /// Clears bit `bit` (marks the block allocated).
    pub fn clear(&self, core: CoreId, bit: u32) {
        debug_assert!(bit < self.nbits);
        let off = self.word_offset(bit / 64);
        let word = self.mem.load_u64(core, off);
        self.mem.store_u64(core, off, word & !(1 << (bit % 64)));
    }

    /// Finds the lowest set (free) bit, if any.
    pub fn find_set(&self, core: CoreId) -> Option<u32> {
        self.find_set_from(core, 0)
    }

    /// Finds the next set (free) bit at or after `start`, wrapping to the
    /// bits below `start` when the tail holds none — the rover scan. `start` is a *hint*: any value (even out of range, which is
    /// treated as 0) yields a correct answer, because every candidate
    /// word is re-read from the durable bitset; only the scan order —
    /// never the result's validity — depends on it.
    ///
    /// With `start == 0` the word loads are exactly those of the classic
    /// scan-from-zero, so paths that do not carry a rover are
    /// byte-identical in the simulated-traffic model.
    pub fn find_set_from(&self, core: CoreId, start: u32) -> Option<u32> {
        let words = self.words();
        if words == 0 {
            return None;
        }
        let (w0, bit0) = if start < self.nbits {
            (start / 64, start % 64)
        } else {
            (0, 0)
        };
        // When the scan starts mid-word, the first word is visited twice:
        // high bits first, then (after a full wrap) its low bits.
        let extra = (bit0 != 0) as u32;
        for i in 0..words + extra {
            let w = (w0 + i) % words;
            let mut word = self.mem.load_u64(core, self.word_offset(w));
            if w == words - 1 && !self.nbits.is_multiple_of(64) {
                word &= (1u64 << (self.nbits % 64)) - 1;
            }
            if i == 0 {
                word &= !0u64 << bit0;
            } else if i == words {
                word &= (1u64 << bit0) - 1;
            }
            if word != 0 {
                return Some(w * 64 + word.trailing_zeros());
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
