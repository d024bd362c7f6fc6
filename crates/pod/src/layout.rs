//! Segment layout computation.
//!
//! The paper's key layout idea (Figure 2) is that heap metadata is
//! *partitioned* into a small HWcc region and a larger SWcc region, and
//! that data regions are contiguous so that offset pointers stay
//! consistent across processes. This module computes the exact byte
//! offset of every structure from a [`PodConfig`], deterministically, so
//! every process derives identical offsets (PC-S).
//!
//! Segment order:
//!
//! ```text
//! [ HWcc: small global | large global | small HWccDesc[] | large HWccDesc[]
//!        | huge reservations[] | dcas help[] | thread registry[] | leases[] ]
//! [ SWcc: small locals[] | large locals[] | small SWccDesc[] | large SWccDesc[]
//!        | huge locals[] | huge desc pools[] | per-thread op logs[]
//!        | liveness (fallback lock) ]
//! [ data: small slabs | large slabs | huge pages ]
//! ```

use crate::config::{
    PodConfig, CACHELINE, LARGE_CLASSES, LARGE_SLAB_SIZE, SMALL_CLASSES, SMALL_SLAB_SIZE,
};
use crate::PodError;

/// A contiguous byte range inside the segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte offset.
    pub start: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Region {
    /// One-past-the-end offset.
    #[inline]
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// Whether `offset` lies inside this region.
    #[inline]
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.start && offset < self.end()
    }
}

/// Layout of one slab heap (the small and large heaps share this shape).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HeapLayout {
    /// Offset of the 8-byte heap-length cell (`SmallGlobal.len`), a
    /// detectable-CAS target.
    pub global_len: u64,
    /// Offset of the 8-byte global free-list head (`SmallGlobal.free`), a
    /// detectable-CAS target.
    pub global_free: u64,
    /// Per-slab HWcc descriptors, 8 bytes each: the remote-free counter
    /// plus the embedded detectable-CAS thread id and version (paper
    /// §3.4.2: "2B to 6B (8B aligned) per slab").
    pub hwcc_desc: Region,
    /// Per-thread local free-list heads (`SmallLocal`).
    pub local: Region,
    /// Stride between consecutive threads' `SmallLocal` records.
    pub local_stride: u64,
    /// Per-slab SWcc descriptors (`SWccDesc`): 8-byte header (next /
    /// owner / class / flags) followed by the block bitset.
    pub swcc_desc: Region,
    /// Stride between consecutive slabs' SWcc descriptors.
    pub swcc_desc_stride: u64,
    /// Slab data region.
    pub data: Region,
    /// Slab size in bytes (a power of two).
    pub slab_size: u64,
    /// `log2(slab_size)`, so `slab_of` shifts instead of dividing by a
    /// runtime field. Private: derived from `slab_size` in
    /// [`Layout::compute`] and must stay consistent with it.
    slab_shift: u32,
    /// Maximum number of slabs.
    pub max_slabs: u32,
    /// Number of size classes (length of `SmallLocal.sized`).
    pub num_classes: u32,
}

impl HeapLayout {
    /// Offset of slab `index`'s HWcc descriptor.
    #[inline]
    pub fn hwcc_desc_at(&self, index: u32) -> u64 {
        debug_assert!(index < self.max_slabs);
        self.hwcc_desc.start + index as u64 * 8
    }

    /// Offset of slab `index`'s SWcc descriptor header.
    #[inline]
    pub fn swcc_desc_at(&self, index: u32) -> u64 {
        debug_assert!(index < self.max_slabs);
        self.swcc_desc.start + index as u64 * self.swcc_desc_stride
    }

    /// Offset of slab `index`'s free-block count word (owner-maintained;
    /// lets the owner test "was full" / "now empty" without scanning the
    /// bitset).
    #[inline]
    pub fn free_count_at(&self, index: u32) -> u64 {
        self.swcc_desc_at(index) + 8
    }

    /// Offset of slab `index`'s block bitset (after the header and
    /// free-count words).
    #[inline]
    pub fn bitset_at(&self, index: u32) -> u64 {
        self.swcc_desc_at(index) + 16
    }

    /// Offset of thread `slot`'s unsized free-list head.
    #[inline]
    pub fn local_unsized_at(&self, slot: u32) -> u64 {
        self.local.start + slot as u64 * self.local_stride
    }

    /// Offset of thread `slot`'s sized free-list head for `class`.
    ///
    /// Heads are stored as 8-byte cells so they can be written atomically
    /// and flushed independently of their neighbours.
    #[inline]
    pub fn local_sized_at(&self, slot: u32, class: u32) -> u64 {
        debug_assert!(class < self.num_classes);
        self.local.start + slot as u64 * self.local_stride + 8 + class as u64 * 8
    }

    /// Offset of slab `index`'s data.
    #[inline]
    pub fn slab_data_at(&self, index: u32) -> u64 {
        debug_assert!(index < self.max_slabs);
        self.data.start + index as u64 * self.slab_size
    }

    /// Maps a data offset back to its slab index, if it is in range.
    #[inline]
    pub fn slab_of(&self, offset: u64) -> Option<u32> {
        if !self.data.contains(offset) {
            return None;
        }
        Some(((offset - self.data.start) >> self.slab_shift) as u32)
    }

    /// Bytes of HWcc memory used once `len` slabs exist: the two global
    /// cells plus one 8-byte descriptor per slab. This is the §5.2.1
    /// "HWcc memory" metric.
    pub fn hwcc_bytes(&self, len: u32) -> u64 {
        16 + len as u64 * 8
    }
}

/// Layout of the huge heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HugeLayout {
    /// Reservation array: one 8-byte detectable-CAS cell per region.
    pub reservations: Region,
    /// Per-thread `HugeLocal`: descriptor-list head followed by the
    /// hazard-offset slots and the claimed-region hint.
    pub local: Region,
    /// Stride between threads' `HugeLocal` records.
    pub local_stride: u64,
    /// Per-thread pools of 32-byte `HugeDesc` records.
    pub desc_pool: Region,
    /// Data region backing huge allocations.
    pub data: Region,
    /// Size of one reservation region in bytes.
    pub region_size: u64,
    /// Number of reservation regions.
    pub num_regions: u32,
    /// Descriptors per thread pool.
    pub descs_per_thread: u32,
    /// Hazard slots per thread.
    pub hazards_per_thread: u32,
}

/// Size in bytes of one `HugeDesc` (next, offset, size, flags).
pub const HUGE_DESC_SIZE: u64 = 32;

impl HugeLayout {
    /// Offset of reservation entry `region`.
    #[inline]
    pub fn reservation_at(&self, region: u32) -> u64 {
        debug_assert!(region < self.num_regions);
        self.reservations.start + region as u64 * 8
    }

    /// Offset of thread `slot`'s descriptor-list head.
    #[inline]
    pub fn local_descs_at(&self, slot: u32) -> u64 {
        self.local.start + slot as u64 * self.local_stride
    }

    /// Offset of thread `slot`'s hazard slot `i`.
    #[inline]
    pub fn hazard_at(&self, slot: u32, i: u32) -> u64 {
        debug_assert!(i < self.hazards_per_thread);
        self.local.start + slot as u64 * self.local_stride + 8 + i as u64 * 8
    }

    /// Offset of thread `slot`'s claimed-region hint, the word after its
    /// hazard slots: every region the thread has ever claimed lies in
    /// the range it names.
    #[inline]
    pub fn claimed_at(&self, slot: u32) -> u64 {
        self.local.start + slot as u64 * self.local_stride + 8 + self.hazards_per_thread as u64 * 8
    }

    /// Offset of descriptor `i` in thread `slot`'s pool.
    #[inline]
    pub fn desc_at(&self, slot: u32, i: u32) -> u64 {
        debug_assert!(i < self.descs_per_thread);
        self.desc_pool.start + (slot as u64 * self.descs_per_thread as u64 + i as u64) * HUGE_DESC_SIZE
    }

    /// Maps a descriptor offset back to `(thread_slot, index)`.
    pub fn desc_owner(&self, desc_offset: u64) -> Option<(u32, u32)> {
        if !self.desc_pool.contains(desc_offset) {
            return None;
        }
        let idx = (desc_offset - self.desc_pool.start) / HUGE_DESC_SIZE;
        let slot = (idx / self.descs_per_thread as u64) as u32;
        let i = (idx % self.descs_per_thread as u64) as u32;
        Some((slot, i))
    }

    /// The reservation region containing data offset `offset`.
    #[inline]
    pub fn region_of(&self, offset: u64) -> Option<u32> {
        if !self.data.contains(offset) {
            return None;
        }
        Some(((offset - self.data.start) / self.region_size) as u32)
    }

    /// Data offset at which reservation region `region` starts.
    #[inline]
    pub fn region_data_at(&self, region: u32) -> u64 {
        self.data.start + region as u64 * self.region_size
    }

    /// Bytes of HWcc memory used by the huge heap (constant — paper §3.2:
    /// "8KiB in our prototype").
    pub fn hwcc_bytes(&self) -> u64 {
        self.reservations.len
    }
}

/// Complete segment layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// The entire HWcc region (must stay small; see §3.2).
    pub hwcc: Region,
    /// Detectable-CAS help array: one 8-byte cell per thread slot.
    pub help: Region,
    /// Thread registry: one 8-byte claim cell per thread slot.
    pub registry: Region,
    /// Lease words: one epoch-stamped 8-byte cell per thread slot,
    /// renewed by live threads (via mCAS on pods without HWcc) and
    /// scanned by liveness detectors. HWcc so renewals are atomic in
    /// every coherence mode.
    pub leases: Region,
    /// The software-fallback CAS lock word: a single-writer spin word in
    /// SWcc space used when the NMP health breaker is open. It lives
    /// outside the HWcc region precisely because that region is
    /// unusable while the mCAS device is degraded; accesses bypass the
    /// cache model (modeled as an MTRR-uncachable line).
    pub fallback_lock: u64,
    /// Small heap (8 B – 1 KiB blocks in 32 KiB slabs).
    pub small: HeapLayout,
    /// Large heap (1 KiB – 512 KiB blocks in 512 KiB slabs).
    pub large: HeapLayout,
    /// Huge heap (512 KiB+ allocations backed by mappings).
    pub huge: HugeLayout,
    /// Per-thread recovery logs: one cacheline per thread, first 8 bytes
    /// are the atomically updated operation word (paper §3.4.2).
    pub log: Region,
    /// Per-thread durable remote-free buffer headers: one cacheline (8
    /// words) per thread mirroring the in-DRAM
    /// [`RemoteFreeBuffer`](../cxl_core/remote/struct.RemoteFreeBuffer.html)
    /// entries. Each word packs `(kind, slab, pending)`; recovery scans a
    /// dead thread's line and republishes buffered decrements so batched
    /// remote frees survive crashes. Lives at the segment tail so adding
    /// it never shifts existing offsets.
    pub remote_buf: Region,
    /// Total segment length in bytes.
    pub total_len: u64,
    /// Thread slots.
    pub max_threads: u32,
}

/// `log2(slab_size)`.
///
/// # Panics
///
/// Panics unless `slab_size` is a power of two (both slab sizes are
/// compile-time constants, so this is a build-configuration bug).
fn slab_shift(slab_size: u64) -> u32 {
    assert!(
        slab_size.is_power_of_two(),
        "slab size {slab_size} is not a power of two"
    );
    slab_size.trailing_zeros()
}

fn align_up(x: u64, align: u64) -> u64 {
    debug_assert!(align.is_power_of_two());
    (x + align - 1) & !(align - 1)
}

impl Layout {
    /// Computes the layout for `config`.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation errors and rejects layouts
    /// whose total size exceeds `config.max_segment_bytes`.
    pub fn compute(config: &PodConfig) -> Result<Layout, PodError> {
        config.validate()?;
        let threads = config.max_threads as u64;
        let mut cursor = 0u64;
        let region = |len: u64, align: u64, cursor: &mut u64| {
            *cursor = align_up(*cursor, align);
            let r = Region {
                start: *cursor,
                len,
            };
            *cursor += len;
            r
        };

        // ---- HWcc region -------------------------------------------------
        let hwcc_start = cursor;
        let small_global = region(16, CACHELINE, &mut cursor);
        let large_global = region(16, CACHELINE, &mut cursor);
        let small_hwcc = region(config.small_max_slabs as u64 * 8, CACHELINE, &mut cursor);
        let large_hwcc = region(config.large_max_slabs as u64 * 8, CACHELINE, &mut cursor);
        let reservations = region(config.huge_regions as u64 * 8, CACHELINE, &mut cursor);
        let help = region(threads * 8, CACHELINE, &mut cursor);
        let registry = region(threads * 8, CACHELINE, &mut cursor);
        let leases = region(threads * 8, CACHELINE, &mut cursor);
        let hwcc = Region {
            start: hwcc_start,
            len: align_up(cursor, CACHELINE) - hwcc_start,
        };

        // ---- SWcc region -------------------------------------------------
        // Per-thread local heads: 8-byte unsized head + 8 bytes per class,
        // rounded to a cacheline multiple so threads never share lines.
        let small_local_stride = align_up(8 + SMALL_CLASSES as u64 * 8, CACHELINE);
        let large_local_stride = align_up(8 + LARGE_CLASSES as u64 * 8, CACHELINE);
        let small_local = region(threads * small_local_stride, CACHELINE, &mut cursor);
        let large_local = region(threads * large_local_stride, CACHELINE, &mut cursor);

        // SWcc descriptors: 8-byte header + 8-byte free count + bitset
        // sized for the maximum block count of the heap (32 KiB / 8 B =
        // 4096 bits = 512 B for small; 512 KiB / 1 KiB = 512 bits = 64 B
        // for large), rounded to a cacheline multiple.
        let small_desc_stride = align_up(16 + SMALL_SLAB_SIZE / 8 / 8, CACHELINE);
        let large_desc_stride = align_up(16 + LARGE_SLAB_SIZE / 1024 / 8, CACHELINE);
        let small_swcc = region(
            config.small_max_slabs as u64 * small_desc_stride,
            CACHELINE,
            &mut cursor,
        );
        let large_swcc = region(
            config.large_max_slabs as u64 * large_desc_stride,
            CACHELINE,
            &mut cursor,
        );

        // Huge heap locals: descriptor-list head + hazard slots + the
        // claimed-region hint. The hint takes a word the cacheline
        // rounding leaves spare unless `hazards_per_thread` is 7 mod 8.
        let huge_local_stride = align_up(16 + config.hazards_per_thread as u64 * 8, CACHELINE);
        let huge_local = region(threads * huge_local_stride, CACHELINE, &mut cursor);
        let huge_pool = region(
            threads * config.huge_descs_per_thread as u64 * HUGE_DESC_SIZE,
            CACHELINE,
            &mut cursor,
        );

        // Per-thread recovery logs, one cacheline each.
        let log = region(threads * CACHELINE, CACHELINE, &mut cursor);

        // Liveness coordination in SWcc space: the software-fallback CAS
        // lock word gets a cacheline to itself.
        let liveness = region(CACHELINE, CACHELINE, &mut cursor);

        // ---- Data region ---------------------------------------------------
        let small_data = region(
            config.small_max_slabs as u64 * SMALL_SLAB_SIZE,
            4096,
            &mut cursor,
        );
        let large_data = region(
            config.large_max_slabs as u64 * LARGE_SLAB_SIZE,
            4096,
            &mut cursor,
        );
        let region_size = config.huge_region_size();
        let huge_data = region(
            region_size * config.huge_regions as u64,
            4096,
            &mut cursor,
        );

        // ---- Tail metadata -------------------------------------------------
        // Durable remote-free buffer headers sit AFTER the data regions:
        // appending here keeps every pre-existing offset stable, which
        // pins replay fingerprints across versions.
        let remote_buf = region(threads * CACHELINE, CACHELINE, &mut cursor);

        let total_len = align_up(cursor, 4096);
        if total_len > config.max_segment_bytes {
            return Err(PodError::SegmentTooLarge {
                requested: total_len,
                max: config.max_segment_bytes,
            });
        }

        Ok(Layout {
            hwcc,
            help,
            registry,
            leases,
            fallback_lock: liveness.start,
            small: HeapLayout {
                global_len: small_global.start,
                global_free: small_global.start + 8,
                hwcc_desc: small_hwcc,
                local: small_local,
                local_stride: small_local_stride,
                swcc_desc: small_swcc,
                swcc_desc_stride: small_desc_stride,
                data: small_data,
                slab_size: SMALL_SLAB_SIZE,
                slab_shift: slab_shift(SMALL_SLAB_SIZE),
                max_slabs: config.small_max_slabs,
                num_classes: SMALL_CLASSES,
            },
            large: HeapLayout {
                global_len: large_global.start,
                global_free: large_global.start + 8,
                hwcc_desc: large_hwcc,
                local: large_local,
                local_stride: large_local_stride,
                swcc_desc: large_swcc,
                swcc_desc_stride: large_desc_stride,
                data: large_data,
                slab_size: LARGE_SLAB_SIZE,
                slab_shift: slab_shift(LARGE_SLAB_SIZE),
                max_slabs: config.large_max_slabs,
                num_classes: LARGE_CLASSES,
            },
            huge: HugeLayout {
                reservations,
                local: huge_local,
                local_stride: huge_local_stride,
                desc_pool: huge_pool,
                data: huge_data,
                region_size,
                num_regions: config.huge_regions,
                descs_per_thread: config.huge_descs_per_thread,
                hazards_per_thread: config.hazards_per_thread,
            },
            log,
            remote_buf,
            total_len,
            max_threads: config.max_threads,
        })
    }

    /// Offset of thread `slot`'s detectable-CAS help cell.
    #[inline]
    pub fn help_at(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.max_threads);
        self.help.start + slot as u64 * 8
    }

    /// Offset of thread `slot`'s registry claim cell.
    #[inline]
    pub fn registry_at(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.max_threads);
        self.registry.start + slot as u64 * 8
    }

    /// Offset of thread `slot`'s lease word.
    #[inline]
    pub fn lease_at(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.max_threads);
        self.leases.start + slot as u64 * 8
    }

    /// Offset of thread `slot`'s recovery-log operation word.
    #[inline]
    pub fn log_at(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.max_threads);
        self.log.start + slot as u64 * CACHELINE
    }

    /// Auxiliary word `i` (1..=7) of thread `slot`'s recovery-log line.
    #[inline]
    pub fn log_aux_at(&self, slot: u32, i: u32) -> u64 {
        debug_assert!((1..8).contains(&i));
        self.log_at(slot) + i as u64 * 8
    }

    /// Offset of thread `slot`'s durable remote-free buffer line.
    #[inline]
    pub fn remote_buf_at(&self, slot: u32) -> u64 {
        debug_assert!(slot < self.max_threads);
        self.remote_buf.start + slot as u64 * CACHELINE
    }

    /// Word `i` (0..8) of thread `slot`'s durable remote-free buffer
    /// line.
    #[inline]
    pub fn remote_buf_word_at(&self, slot: u32, i: u32) -> u64 {
        debug_assert!(i < (CACHELINE / 8) as u32);
        self.remote_buf_at(slot) + i as u64 * 8
    }

    /// Whether `offset` is inside the HWcc metadata region.
    #[inline]
    pub fn is_hwcc(&self, offset: u64) -> bool {
        self.hwcc.contains(offset)
    }

    /// Whether `offset` is inside any data region (application memory,
    /// never routed through the coherence simulation).
    #[inline]
    pub fn is_data(&self, offset: u64) -> bool {
        self.small.data.contains(offset)
            || self.large.data.contains(offset)
            || self.huge.data.contains(offset)
    }

    /// Total HWcc bytes in use given current heap lengths — the §5.2.1
    /// "HWcc memory" metric for cxlalloc.
    pub fn hwcc_bytes_in_use(&self, small_len: u32, large_len: u32) -> u64 {
        self.small.hwcc_bytes(small_len) + self.large.hwcc_bytes(large_len)
            + self.huge.hwcc_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout() -> Layout {
        Layout::compute(&PodConfig::small_for_tests()).unwrap()
    }

    #[test]
    fn regions_do_not_overlap_and_are_ordered() {
        let l = layout();
        let regions = [
            ("hwcc", l.hwcc),
            ("small.local", l.small.local),
            ("large.local", l.large.local),
            ("small.swcc", l.small.swcc_desc),
            ("large.swcc", l.large.swcc_desc),
            ("huge.local", l.huge.local),
            ("huge.pool", l.huge.desc_pool),
            ("log", l.log),
            (
                "liveness",
                Region {
                    start: l.fallback_lock,
                    len: 8,
                },
            ),
            ("small.data", l.small.data),
            ("large.data", l.large.data),
            ("huge.data", l.huge.data),
            ("remote_buf", l.remote_buf),
        ];
        for w in regions.windows(2) {
            let (name_a, a) = w[0];
            let (name_b, b) = w[1];
            assert!(
                a.end() <= b.start,
                "{name_a} [{}, {}) overlaps {name_b} [{}, {})",
                a.start,
                a.end(),
                b.start,
                b.end()
            );
        }
        assert!(l.remote_buf.end() <= l.total_len);
    }

    #[test]
    fn remote_buf_is_the_tail_and_segment_sizes_are_pinned() {
        // Sizes read off commit e188e34, whose layout still ended in
        // the (empty by default) stripe-head regions: dropping them
        // moved no offset and resized no segment.
        for (config, total_len) in [
            (PodConfig::default(), 8_999_403_520),
            (PodConfig::small_for_tests(), 73_490_432),
        ] {
            let l = Layout::compute(&config).unwrap();
            assert_eq!(l.total_len, align_up(l.remote_buf.end(), 4096));
            assert_eq!(l.total_len, total_len);
        }
    }

    #[test]
    fn hwcc_region_covers_globals_and_descriptors() {
        let l = layout();
        assert!(l.is_hwcc(l.small.global_len));
        assert!(l.is_hwcc(l.small.global_free));
        assert!(l.is_hwcc(l.small.hwcc_desc_at(0)));
        assert!(l.is_hwcc(l.large.hwcc_desc_at(0)));
        assert!(l.is_hwcc(l.huge.reservation_at(0)));
        assert!(l.is_hwcc(l.help_at(0)));
        assert!(l.is_hwcc(l.registry_at(0)));
        assert!(l.is_hwcc(l.lease_at(0)));
        assert!(l.is_hwcc(l.lease_at(l.max_threads - 1)));
        assert!(!l.is_hwcc(l.small.swcc_desc_at(0)));
        assert!(!l.is_hwcc(l.log_at(0)));
        // The fallback lock must be usable while the HWcc region is not.
        assert!(!l.is_hwcc(l.fallback_lock));
    }

    #[test]
    fn hwcc_region_is_small() {
        // The whole point of the metadata split: HWcc must be a tiny
        // fraction of the segment.
        let l = Layout::compute(&PodConfig::default()).unwrap();
        assert!(l.hwcc.len * 100 < l.total_len, "HWcc region should be <1% of segment");
    }

    #[test]
    fn slab_offsets_roundtrip() {
        let l = layout();
        for index in [0u32, 1, 7, 63] {
            let off = l.small.slab_data_at(index);
            assert_eq!(l.small.slab_of(off), Some(index));
            assert_eq!(l.small.slab_of(off + 31), Some(index));
        }
        assert_eq!(l.small.slab_of(l.small.data.end()), None);
        // The shift agrees with a division by the slab size on both
        // heaps, at slab boundaries and in the last byte of the region.
        for hl in [&l.small, &l.large] {
            for off in [
                hl.data.start,
                hl.data.start + hl.slab_size - 1,
                hl.data.start + hl.slab_size,
                hl.data.end() - 1,
            ] {
                let by_division = ((off - hl.data.start) / hl.slab_size) as u32;
                assert_eq!(hl.slab_of(off), Some(by_division));
            }
            assert_eq!(hl.slab_of(hl.data.start - 1), None);
        }
    }

    #[test]
    fn desc_offsets_roundtrip() {
        let l = layout();
        let off = l.huge.desc_at(3, 17);
        assert_eq!(l.huge.desc_owner(off), Some((3, 17)));
        assert_eq!(l.huge.desc_owner(l.huge.desc_pool.end()), None);
    }

    #[test]
    fn all_cells_are_aligned() {
        let l = layout();
        for slot in 0..16u32 {
            assert_eq!(l.log_at(slot) % 8, 0);
            assert_eq!(l.help_at(slot) % 8, 0);
            assert_eq!(l.lease_at(slot) % 8, 0);
            assert_eq!(l.small.local_unsized_at(slot) % 8, 0);
            for class in 0..SMALL_CLASSES {
                assert_eq!(l.small.local_sized_at(slot, class) % 8, 0);
            }
        }
        for slab in 0..64u32 {
            assert_eq!(l.small.hwcc_desc_at(slab) % 8, 0);
            assert_eq!(l.small.swcc_desc_at(slab) % 8, 0);
        }
    }

    #[test]
    fn data_region_is_page_aligned() {
        let l = layout();
        assert_eq!(l.small.data.start % 4096, 0);
        assert_eq!(l.large.data.start % 4096, 0);
        assert_eq!(l.huge.data.start % 4096, 0);
    }

    #[test]
    fn huge_region_mapping_roundtrip() {
        let l = layout();
        let off = l.huge.region_data_at(5) + 100;
        assert_eq!(l.huge.region_of(off), Some(5));
        assert_eq!(l.huge.region_of(l.small.data.start), None);
    }

    #[test]
    fn hwcc_bytes_match_paper_accounting() {
        let l = layout();
        // 2B logical remote counter stored in an 8B-aligned detectable-CAS
        // cell per slab + 16B of globals.
        assert_eq!(l.small.hwcc_bytes(0), 16);
        assert_eq!(l.small.hwcc_bytes(10), 16 + 80);
        // Reservation array is the huge heap's constant HWcc cost.
        assert_eq!(l.huge.hwcc_bytes(), 32 * 8);
    }

    #[test]
    fn oversized_config_is_rejected() {
        let config = PodConfig {
            max_segment_bytes: 1 << 20,
            ..PodConfig::small_for_tests()
        };
        assert!(matches!(
            Layout::compute(&config),
            Err(PodError::SegmentTooLarge { .. })
        ));
    }
}
