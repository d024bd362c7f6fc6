//! Differential property test for `Process`'s mapped-range tables.
//!
//! `Process` answers "is this range mapped?" for the two slab heaps with
//! one byte watermark per heap (two compares), where it used to walk
//! slab indices. The slab-index walk survives here, as the oracle: a
//! model that keeps a *slab count* per heap and a *page set* for the
//! huge heap, and divides offsets by the slab size to judge them. Random
//! sequences of `map_small_upto` / `map_large_upto` / `map_huge` /
//! `unmap_huge` / `resolve(offset, len)` run through both, with the same
//! fault-handler policy on each side; every result, every translated
//! pointer, `fault_count`, `maps_installed` and `maps_removed` must
//! agree after every step. Offsets cluster around region edges and the
//! current watermarks, and lengths include 0, 1 and `u64::MAX`.

use cxl_pod::{Fault, Layout, Pod, PodConfig, Process, Region, PAGE_SIZE};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the "allocator" knows and both fault handlers consult: the heap
/// lengths in slabs, and the live huge allocations as `(offset, len)`.
struct World {
    small_len: AtomicU64,
    large_len: AtomicU64,
    huge_allocs: Vec<(u64, u64)>,
}

impl World {
    /// The live huge allocation holding all of `offset..=last`, if any.
    fn huge_alloc_covering(&self, offset: u64, last: u64) -> Option<(u64, u64)> {
        self.huge_allocs
            .iter()
            .copied()
            .find(|&(start, len)| start <= offset && last < start + len)
    }
}

/// The reference model: slab counts and a page bitmap.
struct Oracle {
    layout: Layout,
    small_slabs: u64,
    large_slabs: u64,
    /// One flag per page of the huge data region.
    huge_pages: Vec<bool>,
    faults: u64,
    maps_installed: u64,
    maps_removed: u64,
}

/// Slab index by division: the walk `Process` no longer does.
fn slab_index(data: Region, slab_size: u64, offset: u64) -> Option<u64> {
    data.contains(offset)
        .then(|| (offset - data.start) / slab_size)
}

impl Oracle {
    fn new(layout: Layout) -> Self {
        let pages = (layout.huge.data.len / PAGE_SIZE) as usize;
        Oracle {
            layout,
            small_slabs: 0,
            large_slabs: 0,
            huge_pages: vec![false; pages],
            faults: 0,
            maps_installed: 0,
            maps_removed: 0,
        }
    }

    fn map_slabs(mapped: &mut u64, installed: &mut u64, max_slabs: u32, slabs: u64) {
        let slabs = slabs.min(max_slabs as u64);
        if slabs > *mapped {
            *mapped = slabs;
            *installed += 1;
        }
    }

    fn map_small_upto(&mut self, slabs: u64) {
        let max = self.layout.small.max_slabs;
        Self::map_slabs(&mut self.small_slabs, &mut self.maps_installed, max, slabs);
    }

    fn map_large_upto(&mut self, slabs: u64) {
        let max = self.layout.large.max_slabs;
        Self::map_slabs(&mut self.large_slabs, &mut self.maps_installed, max, slabs);
    }

    fn huge_page(&self, offset: u64) -> usize {
        ((offset - self.layout.huge.data.start) / PAGE_SIZE) as usize
    }

    fn set_huge(&mut self, offset: u64, len: u64, mapped: bool) {
        let (first, last) = (self.huge_page(offset), self.huge_page(offset + len - 1));
        self.huge_pages[first..=last].fill(mapped);
    }

    fn map_huge(&mut self, offset: u64, len: u64) {
        self.set_huge(offset, len, true);
        self.maps_installed += 1;
    }

    fn unmap_huge(&mut self, offset: u64, len: u64) {
        self.set_huge(offset, len, false);
        self.maps_removed += 1;
    }

    /// The last byte of the range, judging an empty range as one byte;
    /// `None` when the range wraps the address space.
    fn last_byte(offset: u64, len: u64) -> Option<u64> {
        offset.checked_add(len.max(1) - 1)
    }

    fn is_mapped(&self, offset: u64, len: u64) -> bool {
        let Some(last) = Self::last_byte(offset, len) else {
            return false;
        };
        for (heap, mapped) in [
            (&self.layout.small, self.small_slabs),
            (&self.layout.large, self.large_slabs),
        ] {
            if let Some(first_slab) = slab_index(heap.data, heap.slab_size, offset) {
                return match slab_index(heap.data, heap.slab_size, last) {
                    Some(last_slab) => (first_slab..=last_slab).all(|slab| slab < mapped),
                    None => false,
                };
            }
        }
        let huge = self.layout.huge.data;
        if huge.contains(offset) {
            return huge.contains(last)
                && self.huge_pages[self.huge_page(offset)..=self.huge_page(last)]
                    .iter()
                    .all(|&mapped| mapped);
        }
        [self.layout.hwcc, self.layout.log]
            .iter()
            .any(|region| region.contains(offset) && region.contains(last))
    }

    /// The handler policy, on the model: extend a slab heap's mapping
    /// to the heap length when the whole range is below it, map the
    /// live huge allocation that holds the whole range, decline
    /// everything else.
    fn handle_fault(&mut self, world: &World, offset: u64, last: u64) -> bool {
        let (small, large) = (&self.layout.small, &self.layout.large);
        let (small, small_size) = (small.data, small.slab_size);
        let (large, large_size) = (large.data, large.slab_size);
        if small.contains(offset) {
            let len = world.small_len.load(Ordering::Relaxed);
            let inside = slab_index(small, small_size, last).is_some_and(|s| s < len);
            if inside {
                self.map_small_upto(len);
            }
            return inside;
        }
        if large.contains(offset) {
            let len = world.large_len.load(Ordering::Relaxed);
            let inside = slab_index(large, large_size, last).is_some_and(|s| s < len);
            if inside {
                self.map_large_upto(len);
            }
            return inside;
        }
        match world.huge_alloc_covering(offset, last) {
            Some((start, len)) => {
                self.map_huge(start, len);
                true
            }
            None => false,
        }
    }

    /// Whether a dereference of `[offset, offset+len)` succeeds.
    fn resolve(&mut self, world: &World, offset: u64, len: u64) -> bool {
        if self.is_mapped(offset, len) {
            return true;
        }
        self.faults += 1;
        let Some(last) = Self::last_byte(offset, len) else {
            return false;
        };
        self.handle_fault(world, offset, last) && self.is_mapped(offset, len)
    }
}

/// The same policy as [`Oracle::handle_fault`], against the real
/// `Process` API.
fn install_handler(process: &Process, world: Arc<World>) {
    process.set_fault_handler(Arc::new(move |p: &Process, fault: Fault| {
        let layout = p.memory().layout();
        let last = fault.offset + fault.len.max(1) - 1;
        if layout.small.data.contains(fault.offset) {
            let len = world.small_len.load(Ordering::Relaxed);
            let inside = layout.small.slab_of(last).is_some_and(|s| (s as u64) < len);
            if inside {
                p.map_small_upto(len);
            }
            return inside;
        }
        if layout.large.data.contains(fault.offset) {
            let len = world.large_len.load(Ordering::Relaxed);
            let inside = layout.large.slab_of(last).is_some_and(|s| (s as u64) < len);
            if inside {
                p.map_large_upto(len);
            }
            return inside;
        }
        match world.huge_alloc_covering(fault.offset, last) {
            Some((start, len)) => {
                p.map_huge(start, len);
                true
            }
            None => false,
        }
    }));
}

#[derive(Debug, Clone, Copy)]
enum Anchor {
    Zero,
    HwccEnd,
    LogStart,
    LogEnd,
    SmallStart,
    /// The small heap's current mapped end in the *oracle*.
    SmallWatermark,
    SmallSlab(u64),
    SmallEnd,
    LargeWatermark,
    LargeSlab(u64),
    LargeEnd,
    HugeStart,
    HugePage(u64),
    HugeEnd,
    TotalLen,
    Max,
}

#[derive(Debug, Clone, Copy)]
enum Op {
    MapSmall(u64),
    MapLarge(u64),
    ExtendSmall(u64),
    ExtendLarge(u64),
    /// `(first page, pages)` of the huge data region.
    MapHuge(u64, u64),
    UnmapHuge(u64, u64),
    Resolve {
        anchor: Anchor,
        /// Added to the anchor, after subtracting 64.
        delta: u64,
        len: u64,
    },
}

const SMALL_SLABS: u64 = 64;
const LARGE_SLABS: u64 = 8;
/// Pages the huge ops roam over (the first 4 MiB of the region).
const HUGE_PAGES: u64 = 1024;

fn anchor() -> impl Strategy<Value = Anchor> {
    prop_oneof![
        1 => Just(Anchor::Zero),
        1 => Just(Anchor::HwccEnd),
        1 => Just(Anchor::LogStart),
        1 => Just(Anchor::LogEnd),
        2 => Just(Anchor::SmallStart),
        6 => Just(Anchor::SmallWatermark),
        4 => (0..=SMALL_SLABS).prop_map(Anchor::SmallSlab),
        2 => Just(Anchor::SmallEnd),
        6 => Just(Anchor::LargeWatermark),
        4 => (0..=LARGE_SLABS).prop_map(Anchor::LargeSlab),
        2 => Just(Anchor::LargeEnd),
        2 => Just(Anchor::HugeStart),
        6 => (0..HUGE_PAGES + 8).prop_map(Anchor::HugePage),
        1 => Just(Anchor::HugeEnd),
        1 => Just(Anchor::TotalLen),
        1 => Just(Anchor::Max),
    ]
}

fn len() -> impl Strategy<Value = u64> {
    prop_oneof![
        2 => Just(0u64),
        2 => Just(1u64),
        3 => Just(8u64),
        3 => Just(24u64),
        2 => 1u64..200,
        2 => Just(32u64 << 10),
        1 => Just((32u64 << 10) + 1),
        1 => Just(512u64 << 10),
        2 => 1u64..(3 << 20),
        1 => Just(u64::MAX),
        1 => Just(u64::MAX - 64),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => (0..SMALL_SLABS + 6).prop_map(Op::MapSmall),
        2 => (0..LARGE_SLABS + 3).prop_map(Op::MapLarge),
        1 => Just(Op::MapSmall(u64::MAX)),
        2 => (0..=SMALL_SLABS).prop_map(Op::ExtendSmall),
        2 => (0..=LARGE_SLABS).prop_map(Op::ExtendLarge),
        3 => (0..HUGE_PAGES, 1u64..64).prop_map(|(p, n)| Op::MapHuge(p, n)),
        2 => (0..HUGE_PAGES, 1u64..64).prop_map(|(p, n)| Op::UnmapHuge(p, n)),
        24 => (anchor(), 0u64..128, len())
            .prop_map(|(anchor, delta, len)| Op::Resolve { anchor, delta, len }),
    ]
}

fn anchor_offset(anchor: Anchor, layout: &Layout, oracle: &Oracle) -> u64 {
    let (small, large, huge) = (&layout.small, &layout.large, &layout.huge);
    match anchor {
        Anchor::Zero => 0,
        Anchor::HwccEnd => layout.hwcc.end(),
        Anchor::LogStart => layout.log.start,
        Anchor::LogEnd => layout.log.end(),
        Anchor::SmallStart => small.data.start,
        Anchor::SmallWatermark => small.data.start + oracle.small_slabs * small.slab_size,
        Anchor::SmallSlab(slab) => small.data.start + slab * small.slab_size,
        Anchor::SmallEnd => small.data.end(),
        Anchor::LargeWatermark => large.data.start + oracle.large_slabs * large.slab_size,
        Anchor::LargeSlab(slab) => large.data.start + slab * large.slab_size,
        Anchor::LargeEnd => large.data.end(),
        Anchor::HugeStart => huge.data.start,
        Anchor::HugePage(page) => huge.data.start + page * PAGE_SIZE,
        Anchor::HugeEnd => huge.data.end(),
        Anchor::TotalLen => layout.total_len,
        Anchor::Max => u64::MAX,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn byte_watermarks_match_the_slab_index_walk(
        ops in proptest::collection::vec(op(), 1..400),
        huge_allocs in proptest::collection::vec((0..HUGE_PAGES / 64, 1u64..64), 0..6),
    ) {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let layout = pod.layout().clone();
        prop_assert_eq!(layout.small.max_slabs as u64, SMALL_SLABS);
        prop_assert_eq!(layout.large.max_slabs as u64, LARGE_SLABS);
        let process = pod.spawn_process();
        let base = pod.memory().segment().data_ptr(0, 0) as usize;

        // Live huge allocations: one per 64-page stripe at most, so they
        // never overlap.
        let mut stripes: Vec<(u64, u64)> = huge_allocs;
        stripes.sort_unstable();
        stripes.dedup_by_key(|&mut (stripe, _)| stripe);
        let world = Arc::new(World {
            small_len: AtomicU64::new(0),
            large_len: AtomicU64::new(0),
            huge_allocs: stripes
                .iter()
                .map(|&(stripe, pages)| {
                    (layout.huge.data.start + stripe * 64 * PAGE_SIZE, pages * PAGE_SIZE)
                })
                .collect(),
        });
        install_handler(&process, world.clone());
        let mut oracle = Oracle::new(layout.clone());

        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::MapSmall(slabs) => {
                    process.map_small_upto(slabs);
                    oracle.map_small_upto(slabs);
                }
                Op::MapLarge(slabs) => {
                    process.map_large_upto(slabs);
                    oracle.map_large_upto(slabs);
                }
                Op::ExtendSmall(slabs) => {
                    world.small_len.fetch_max(slabs, Ordering::Relaxed);
                }
                Op::ExtendLarge(slabs) => {
                    world.large_len.fetch_max(slabs, Ordering::Relaxed);
                }
                Op::MapHuge(page, pages) => {
                    let offset = layout.huge.data.start + page * PAGE_SIZE;
                    process.map_huge(offset, pages * PAGE_SIZE);
                    oracle.map_huge(offset, pages * PAGE_SIZE);
                }
                Op::UnmapHuge(page, pages) => {
                    let offset = layout.huge.data.start + page * PAGE_SIZE;
                    process.unmap_huge(offset, pages * PAGE_SIZE);
                    oracle.unmap_huge(offset, pages * PAGE_SIZE);
                }
                Op::Resolve { anchor, delta, len } => {
                    let offset = anchor_offset(anchor, &layout, &oracle)
                        .wrapping_add(delta)
                        .wrapping_sub(64);
                    prop_assert_eq!(
                        process.is_mapped(offset, len),
                        oracle.is_mapped(offset, len),
                        "is_mapped({}, {}) at step {} ({:?})", offset, len, step, op
                    );
                    let got = process.resolve(offset, len);
                    let expect = oracle.resolve(&world, offset, len);
                    match got {
                        Ok(raw) => {
                            prop_assert!(expect, "step {} ({:?}): oracle faults", step, op);
                            prop_assert_eq!(raw as usize, base + offset as usize);
                        }
                        Err(fault) => {
                            prop_assert!(!expect, "step {} ({:?}): oracle resolves", step, op);
                            prop_assert_eq!((fault.offset, fault.len), (offset, len));
                        }
                    }
                }
            }
            prop_assert_eq!(
                process.fault_count(), oracle.faults,
                "faults at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                (process.maps_installed(), process.maps_removed()),
                (oracle.maps_installed, oracle.maps_removed),
                "mapping counters at step {} ({:?})", step, op
            );
            prop_assert_eq!(
                (process.small_mapped(), process.large_mapped()),
                (oracle.small_slabs, oracle.large_slabs),
                "watermarks at step {} ({:?})", step, op
            );
        }
    }
}
