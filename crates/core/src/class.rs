//! Size classes for the small and large heaps.
//!
//! Slab allocation (paper §2.2) statically splits memory into fixed-size
//! slabs and dynamically splits each slab into equal blocks of one *size
//! class*. Class granularity balances internal fragmentation against the
//! number of thread-local free lists.
//!
//! * Small heap: 28 classes from 8 B to 1 KiB (8-byte steps up to 128 B,
//!   then ~25 % geometric steps), in 32 KiB slabs.
//! * Large heap: 19 classes from 1 KiB to 512 KiB (power-of-two and
//!   mid-point steps), in 512 KiB slabs.

use cxl_pod::{LARGE_CLASSES, LARGE_SLAB_SIZE, SMALL_CLASSES, SMALL_SLAB_SIZE};

/// Block sizes of the small heap's classes, ascending.
pub const SMALL_CLASS_SIZES: [u32; SMALL_CLASSES as usize] = [
    8, 16, 24, 32, 40, 48, 56, 64, 72, 80, 88, 96, 104, 112, 120, 128, // 8-byte steps
    160, 192, 224, 256, // 32-byte steps
    320, 384, 448, 512, // 64-byte steps
    640, 768, 896, 1024, // 128-byte steps
];

/// Block sizes of the large heap's classes, ascending.
pub const LARGE_CLASS_SIZES: [u32; LARGE_CLASSES as usize] = [
    1 << 10,
    3 << 9, // 1.5 KiB
    2 << 10,
    3 << 10,
    4 << 10,
    6 << 10,
    8 << 10,
    12 << 10,
    16 << 10,
    24 << 10,
    32 << 10,
    48 << 10,
    64 << 10,
    96 << 10,
    128 << 10,
    192 << 10,
    256 << 10,
    384 << 10,
    512 << 10,
];

/// Shift of the block-index reciprocals: `index_of` is exact for
/// offsets and block sizes below `2^19` (every slab of both heaps).
const RECIP_SHIFT: u32 = 40;

/// Each class's block count per `slab` bytes, computed at compile time.
const fn blocks_of<const N: usize>(sizes: [u32; N], slab: u64) -> [u32; N] {
    let mut out = [0; N];
    let mut i = 0;
    while i < N {
        out[i] = (slab / sizes[i] as u64) as u32;
        i += 1;
    }
    out
}

/// Each class's reciprocal `ceil(2^RECIP_SHIFT / size)`.
const fn recips_of<const N: usize>(sizes: [u32; N]) -> [u64; N] {
    let mut out = [0; N];
    let mut i = 0;
    while i < N {
        out[i] = (1u64 << RECIP_SHIFT).div_ceil(sizes[i] as u64);
        i += 1;
    }
    out
}

const SMALL_BLOCKS: [u32; SMALL_CLASSES as usize] = blocks_of(SMALL_CLASS_SIZES, SMALL_SLAB_SIZE);
const LARGE_BLOCKS: [u32; LARGE_CLASSES as usize] = blocks_of(LARGE_CLASS_SIZES, LARGE_SLAB_SIZE);
const SMALL_RECIPS: [u64; SMALL_CLASSES as usize] = recips_of(SMALL_CLASS_SIZES);
const LARGE_RECIPS: [u64; LARGE_CLASSES as usize] = recips_of(LARGE_CLASS_SIZES);

/// A size-class table: maps request sizes to classes and back.
///
/// The per-class block counts and reciprocals are precomputed, so the
/// owner's alloc and free paths divide nowhere (`index_of`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassTable {
    sizes: &'static [u32],
    blocks: &'static [u32],
    recips: &'static [u64],
    slab_size: u64,
}

/// The small heap's class table.
pub const SMALL_CLASSES_TABLE: ClassTable = ClassTable {
    sizes: &SMALL_CLASS_SIZES,
    blocks: &SMALL_BLOCKS,
    recips: &SMALL_RECIPS,
    slab_size: SMALL_SLAB_SIZE,
};

/// The large heap's class table.
pub const LARGE_CLASSES_TABLE: ClassTable = ClassTable {
    sizes: &LARGE_CLASS_SIZES,
    blocks: &LARGE_BLOCKS,
    recips: &LARGE_RECIPS,
    slab_size: LARGE_SLAB_SIZE,
};

impl ClassTable {
    /// Number of classes.
    #[inline]
    pub fn len(&self) -> u32 {
        self.sizes.len() as u32
    }

    /// Whether the table is empty (never, provided for completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Largest size this table serves.
    #[inline]
    pub fn max_size(&self) -> u32 {
        *self.sizes.last().expect("tables are nonempty")
    }

    /// The class serving `size` bytes, or `None` if `size` is zero or
    /// exceeds [`ClassTable::max_size`].
    #[inline]
    pub fn class_of(&self, size: usize) -> Option<u8> {
        if size == 0 || size > self.max_size() as usize {
            return None;
        }
        // Tables are tiny (≤ 28 entries) and the partition point is found
        // by binary search.
        let idx = self.sizes.partition_point(|&s| (s as usize) < size);
        Some(idx as u8)
    }

    /// Block size of `class`.
    ///
    /// # Panics
    ///
    /// Panics if `class` is out of range.
    #[inline]
    pub fn block_size(&self, class: u8) -> u32 {
        self.sizes[class as usize]
    }

    /// Number of blocks a slab of this heap holds at `class`.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn blocks_per_slab(&self, class: u8) -> u32 {
        self.blocks[class as usize]
    }

    /// The block of `class` that starts `within` bytes into its slab's
    /// data: `Some(within / size)` when `within` is a multiple of the
    /// block size and names one of the slab's blocks, `None` for an
    /// interior pointer or one into the slab's trailing waste.
    ///
    /// One multiply by the class's reciprocal `r = ceil(2^40 / size)`
    /// gives both answers: the high bits of `within * r` are the
    /// quotient, and the low 40 bits are below `r` exactly when the
    /// remainder is zero. Both are exact for `within` and `size` below
    /// `2^19` (Lemire, Kaser and Kurz, *Faster Remainder by Direct
    /// Computation*, 2019), which every slab offset of both heaps is;
    /// `index_of_matches_division_everywhere` checks every class at
    /// every 8-aligned offset.
    #[inline]
    #[deny(clippy::integer_division_remainder_used)]
    pub fn index_of(&self, class: u8, within: u64) -> Option<u32> {
        debug_assert!(within < self.slab_size);
        let recip = self.recips[class as usize];
        let product = within * recip;
        let index = (product >> RECIP_SHIFT) as u32;
        let aligned = product & ((1 << RECIP_SHIFT) - 1) < recip;
        (aligned && index < self.blocks[class as usize]).then_some(index)
    }

    /// Internal fragmentation of serving `size` from its class, in bytes.
    pub fn waste(&self, size: usize) -> Option<usize> {
        self.class_of(size)
            .map(|c| self.block_size(c) as usize - size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_lengths_match_layout_constants() {
        assert_eq!(SMALL_CLASSES_TABLE.len(), SMALL_CLASSES);
        assert_eq!(LARGE_CLASSES_TABLE.len(), LARGE_CLASSES);
    }

    #[test]
    fn sizes_are_strictly_ascending_and_aligned() {
        for table in [&SMALL_CLASSES_TABLE, &LARGE_CLASSES_TABLE] {
            for w in table.sizes.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &s in table.sizes {
                assert_eq!(s % 8, 0, "class size {s} must be 8-byte aligned");
                // Sizes need not divide the slab exactly (trailing waste
                // is allowed), but every class must fit at least one
                // block.
                assert!(table.slab_size >= s as u64);
            }
        }
    }

    #[test]
    fn class_of_boundaries() {
        let t = &SMALL_CLASSES_TABLE;
        assert_eq!(t.class_of(0), None);
        assert_eq!(t.class_of(1), Some(0));
        assert_eq!(t.class_of(8), Some(0));
        assert_eq!(t.class_of(9), Some(1));
        assert_eq!(t.class_of(128), Some(15));
        assert_eq!(t.class_of(129), Some(16));
        assert_eq!(t.class_of(1024), Some(27));
        assert_eq!(t.class_of(1025), None);
    }

    #[test]
    fn large_class_boundaries() {
        let t = &LARGE_CLASSES_TABLE;
        assert_eq!(t.class_of(1024), Some(0));
        assert_eq!(t.class_of(1025), Some(1));
        assert_eq!(t.class_of(512 << 10), Some(18));
        assert_eq!(t.class_of((512 << 10) + 1), None);
    }

    #[test]
    fn blocks_per_slab_is_sane() {
        assert_eq!(SMALL_CLASSES_TABLE.blocks_per_slab(0), 4096); // 32 KiB / 8 B
        assert_eq!(SMALL_CLASSES_TABLE.blocks_per_slab(27), 32); // 32 KiB / 1 KiB
        assert_eq!(LARGE_CLASSES_TABLE.blocks_per_slab(0), 512); // 512 KiB / 1 KiB
        assert_eq!(LARGE_CLASSES_TABLE.blocks_per_slab(18), 1); // 512 KiB / 512 KiB
    }

    #[test]
    fn index_of_matches_division_everywhere() {
        for table in [&SMALL_CLASSES_TABLE, &LARGE_CLASSES_TABLE] {
            for class in 0..table.len() as u8 {
                let size = table.block_size(class) as u64;
                let blocks = table.blocks_per_slab(class) as u64;
                assert_eq!(blocks, table.slab_size / size);
                for within in (0..table.slab_size).step_by(8) {
                    let expected = (within.is_multiple_of(size) && within / size < blocks)
                        .then_some((within / size) as u32);
                    assert_eq!(
                        table.index_of(class, within),
                        expected,
                        "size {size} within {within}"
                    );
                }
            }
        }
    }

    #[test]
    fn block_size_roundtrip() {
        for table in [&SMALL_CLASSES_TABLE, &LARGE_CLASSES_TABLE] {
            for class in 0..table.len() as u8 {
                let size = table.block_size(class) as usize;
                assert_eq!(table.class_of(size), Some(class));
                assert_eq!(table.waste(size), Some(0));
            }
        }
    }

    #[test]
    fn waste_is_bounded() {
        // Geometric spacing keeps internal fragmentation under ~25 %.
        for size in 1..=1024usize {
            let waste = SMALL_CLASSES_TABLE.waste(size).unwrap();
            assert!(
                waste < 8.max(size / 3),
                "size {size} wastes {waste} bytes"
            );
        }
    }
}
