//! Owner-side DRAM shadow of slab descriptors.
//!
//! Paper §3.2: a slab's SWcc descriptor (header + free count) has a
//! single writer — its owner — so the owner never needs to re-read it
//! from CXL memory between its own writes. This module caches the two
//! descriptor words in a small per-thread direct-mapped table of plain
//! `Cell`s, so the `alloc`/`free_local` hot paths stop doing simulated
//! SWcc `load_u64`/`store_u64` round trips (each of which charges cache
//! model latency and bumps shared counters) and instead touch local
//! DRAM.
//!
//! Coherence and crash-consistency rules (mirroring the per-core
//! simulated cache exactly):
//!
//! * **Write-through on coherent backends** ([`HwccMode::Full`], which
//!   includes `RawMemory`): stores also go straight to pod memory, so
//!   other threads and the invariant checker always read current state;
//!   the shadow only short-circuits loads.
//! * **Write-back on software-coherent backends** (`Limited`/`None`):
//!   stores are deferred. This is sound because the simulated per-core
//!   cache *already* defers them — the shadow just deepens the same
//!   staleness the SWcc protocol is built to tolerate. Deferred stores
//!   are drained into the simulated cache before every descriptor flush
//!   ([`SlabHeap::flush_desc`](crate::slab::SlabHeap::flush_desc)), at
//!   armed crash points (so the crash image — memory plus the
//!   to-be-discarded cache — is byte-identical to the unshadowed
//!   implementation), and at
//!   [`ThreadHandle::flush_cache`](crate::ThreadHandle::flush_cache).
//! * **Invalidate on ownership boundaries**: the entry is dropped
//!   whenever the descriptor is flushed for an ownership transition and
//!   before the global-pop re-read of `next`, exactly where the
//!   simulated cache drops its lines. Reads of *foreign* descriptors
//!   may be installed; a stale cached `owner` field is tolerated by the
//!   paper's four-case argument (§3.2.2), the same way a stale cache
//!   line is.
//!
//! A dirty shadow that is simply dropped (thread crash) loses exactly
//! the stores the simulated cache would have lost to
//! `discard_all`, so recovery and schedule-exploration fingerprints are
//! unchanged.

use crate::error::HeapKind;
use cxl_pod::{CoreId, HwccMode, PodMemory};
use std::cell::Cell;

/// Direct-mapped entries. Sized past the steady-state descriptor
/// working set (a thread's sized-list heads plus its unsized list);
/// conflict evictions write back and are merely a lost caching
/// opportunity.
const SLOTS: usize = 64;

const HEADER_VALID: u8 = 1 << 0;
const HEADER_DIRTY: u8 = 1 << 1;
const COUNT_VALID: u8 = 1 << 2;
const COUNT_DIRTY: u8 = 1 << 3;

#[derive(Clone, Copy)]
struct Entry {
    /// `(kind_tag << 32) | (slab + 1)`; 0 marks an empty slot.
    key: u64,
    header: u64,
    count: u64,
    flags: u8,
    /// First-fit rover: where the next `find_set_from` scan starts.
    /// Allocation advances it past the chosen bit; a local free pulls
    /// it back to the freed bit, so on the owner's local path no free
    /// bit lies below it and the scan finds the first free block at
    /// one-word cost. Purely volatile — a *hint*, never written back,
    /// dropped with the entry — because any start value yields a
    /// correct scan (the durable bitset is re-validated word by word,
    /// wrapping to zero) and the `AllocBlock` oplog word records the
    /// chosen bit, so recovery never depends on scan order.
    rover: u32,
}

const EMPTY: Entry = Entry {
    key: 0,
    header: 0,
    count: 0,
    flags: 0,
    rover: 0,
};

fn kind_tag(kind: HeapKind) -> u64 {
    match kind {
        HeapKind::Small => 1,
        HeapKind::Large => 2,
        HeapKind::Huge => unreachable!("huge allocations have no slab descriptors"),
    }
}

fn key_of(kind: HeapKind, slab: u32) -> u64 {
    (kind_tag(kind) << 32) | (slab as u64 + 1)
}

fn slot_of(kind: HeapKind, slab: u32) -> usize {
    // Interleave the two heaps so small slab N and large slab N never
    // collide.
    (slab as usize * 2 + (kind_tag(kind) as usize - 1)) & (SLOTS - 1)
}

fn desc_off<M: PodMemory + ?Sized>(mem: &M, kind: HeapKind, slab: u32) -> u64 {
    let layout = mem.layout();
    let hl = match kind {
        HeapKind::Small => &layout.small,
        HeapKind::Large => &layout.large,
        HeapKind::Huge => unreachable!(),
    };
    hl.swcc_desc_at(slab)
}

fn count_off<M: PodMemory + ?Sized>(mem: &M, kind: HeapKind, slab: u32) -> u64 {
    let layout = mem.layout();
    let hl = match kind {
        HeapKind::Small => &layout.small,
        HeapKind::Large => &layout.large,
        HeapKind::Huge => unreachable!(),
    };
    hl.free_count_at(slab)
}

/// One thread's descriptor shadow. `!Sync` by construction (`Cell`s):
/// it lives inside the owning [`ThreadHandle`](crate::ThreadHandle).
pub(crate) struct DescShadow {
    slots: [Cell<Entry>; SLOTS],
    /// Whether stores are deferred (software-coherent backends) rather
    /// than written through.
    write_back: bool,
    /// Conservative "any entry may be dirty" flag, so [`sync_all`]
    /// (`DescShadow::sync_all`) is O(1) on clean shadows (always, in
    /// write-through mode).
    ///
    /// [`sync_all`]: DescShadow::sync_all
    maybe_dirty: Cell<bool>,
}

impl DescShadow {
    /// Creates an empty shadow for a backend in `mode`.
    pub fn new(mode: HwccMode) -> Self {
        DescShadow {
            slots: [const { Cell::new(EMPTY) }; SLOTS],
            write_back: mode != HwccMode::Full,
            maybe_dirty: Cell::new(false),
        }
    }

    /// Writes `entry`'s dirty words into pod memory (the owner's
    /// simulated cache, for software-coherent backends) and returns it
    /// marked clean.
    fn written_back<M: PodMemory + ?Sized>(mem: &M, core: CoreId, mut entry: Entry) -> Entry {
        let kind = match entry.key >> 32 {
            1 => HeapKind::Small,
            2 => HeapKind::Large,
            _ => unreachable!("corrupt shadow key"),
        };
        let slab = (entry.key as u32) - 1;
        if entry.flags & HEADER_DIRTY != 0 {
            mem.store_u64(core, desc_off(mem, kind, slab), entry.header);
        }
        if entry.flags & COUNT_DIRTY != 0 {
            mem.store_u64(core, count_off(mem, kind, slab), entry.count);
        }
        entry.flags &= !(HEADER_DIRTY | COUNT_DIRTY);
        entry
    }

    /// The live entry for `(kind, slab)`, evicting (with writeback) any
    /// conflicting resident first.
    fn entry_for<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32) -> Entry {
        let key = key_of(kind, slab);
        let slot = &self.slots[slot_of(kind, slab)];
        let entry = slot.get();
        if entry.key == key {
            return entry;
        }
        if entry.flags & (HEADER_DIRTY | COUNT_DIRTY) != 0 {
            Self::written_back(mem, core, entry);
        }
        Entry { key, ..EMPTY }
    }

    /// The cached packed header, if present.
    pub fn header(&self, kind: HeapKind, slab: u32) -> Option<u64> {
        let entry = self.slots[slot_of(kind, slab)].get();
        (entry.key == key_of(kind, slab) && entry.flags & HEADER_VALID != 0)
            .then_some(entry.header)
    }

    /// The cached free count, if present.
    pub fn free_count(&self, kind: HeapKind, slab: u32) -> Option<u64> {
        let entry = self.slots[slot_of(kind, slab)].get();
        (entry.key == key_of(kind, slab) && entry.flags & COUNT_VALID != 0).then_some(entry.count)
    }

    /// Installs a header just loaded from pod memory (clean).
    pub fn install_header<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32, packed: u64) {
        let mut entry = self.entry_for(mem, core, kind, slab);
        entry.header = packed;
        entry.flags |= HEADER_VALID;
        self.slots[slot_of(kind, slab)].set(entry);
    }

    /// Installs a free count just loaded from pod memory (clean).
    pub fn install_count<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32, count: u64) {
        let mut entry = self.entry_for(mem, core, kind, slab);
        entry.count = count;
        entry.flags |= COUNT_VALID;
        self.slots[slot_of(kind, slab)].set(entry);
    }

    /// Records a header store. Returns `true` when the store was
    /// absorbed (write-back mode); `false` when the caller must also
    /// write through to pod memory.
    pub fn store_header<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32, packed: u64) -> bool {
        let mut entry = self.entry_for(mem, core, kind, slab);
        entry.header = packed;
        entry.flags |= HEADER_VALID;
        if self.write_back {
            entry.flags |= HEADER_DIRTY;
            self.maybe_dirty.set(true);
        }
        self.slots[slot_of(kind, slab)].set(entry);
        self.write_back
    }

    /// The cached first-fit rover for `(kind, slab)`: 0 (scan from the
    /// bottom) when the entry is absent — a cold shadow just degrades to
    /// the classic scan.
    pub fn rover(&self, kind: HeapKind, slab: u32) -> u32 {
        let entry = self.slots[slot_of(kind, slab)].get();
        if entry.key == key_of(kind, slab) {
            entry.rover
        } else {
            0
        }
    }

    /// Records the first-fit rover for `(kind, slab)`. Volatile: never
    /// marks the entry dirty and is never written back — see
    /// [`Entry::rover`].
    pub fn set_rover<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32, rover: u32) {
        let mut entry = self.entry_for(mem, core, kind, slab);
        entry.rover = rover;
        self.slots[slot_of(kind, slab)].set(entry);
    }

    /// Records a free-count store; as [`DescShadow::store_header`].
    pub fn store_count<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32, count: u64) -> bool {
        let mut entry = self.entry_for(mem, core, kind, slab);
        entry.count = count;
        entry.flags |= COUNT_VALID;
        if self.write_back {
            entry.flags |= COUNT_DIRTY;
            self.maybe_dirty.set(true);
        }
        self.slots[slot_of(kind, slab)].set(entry);
        self.write_back
    }

    /// Writes back (if dirty) and drops the entry for `(kind, slab)` —
    /// the shadow's equivalent of flushing the descriptor's cache
    /// lines. Call before any flush after which ownership may change,
    /// and before re-reading a descriptor another thread may have
    /// published (global-list pop).
    pub fn drop_entry<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, kind: HeapKind, slab: u32) {
        let slot = &self.slots[slot_of(kind, slab)];
        let entry = slot.get();
        if entry.key != key_of(kind, slab) {
            return;
        }
        if entry.flags & (HEADER_DIRTY | COUNT_DIRTY) != 0 {
            Self::written_back(mem, core, entry);
        }
        slot.set(EMPTY);
    }

    /// Drains every dirty entry into pod memory (the owner's simulated
    /// cache), keeping entries resident (clean). Called at the end of
    /// every allocator operation, before cache-wide flushes, and at
    /// armed crash points — so at every op boundary the cache and
    /// memory state is byte-identical to the unshadowed implementation
    /// (within an op nothing else reads through this core). O(1) when
    /// nothing is dirty.
    pub fn sync_all<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId) {
        if !self.maybe_dirty.replace(false) {
            return;
        }
        for slot in &self.slots {
            let entry = slot.get();
            if entry.flags & (HEADER_DIRTY | COUNT_DIRTY) != 0 {
                slot.set(Self::written_back(mem, core, entry));
            }
        }
    }
}

impl std::fmt::Debug for DescShadow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let live = self.slots.iter().filter(|s| s.get().key != 0).count();
        let dirty = self
            .slots
            .iter()
            .filter(|s| s.get().flags & (HEADER_DIRTY | COUNT_DIRTY) != 0)
            .count();
        f.debug_struct("DescShadow")
            .field("live", &live)
            .field("dirty", &dirty)
            .field("write_back", &self.write_back)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{Pod, PodConfig};

    fn raw_mem() -> Pod {
        Pod::new(PodConfig::small_for_tests()).unwrap()
    }

    fn sim_mem(mode: HwccMode) -> Pod {
        Pod::with_simulation(PodConfig::small_for_tests(), mode).unwrap()
    }

    #[test]
    fn write_through_reaches_memory_immediately() {
        let pod = raw_mem();
        let mem = pod.memory().as_ref();
        let shadow = DescShadow::new(HwccMode::Full);
        let absorbed = shadow.store_header(mem, CoreId(0), HeapKind::Small, 3, 0xABCD);
        assert!(!absorbed, "write-through mode must not absorb stores");
        assert_eq!(shadow.header(HeapKind::Small, 3), Some(0xABCD));
    }

    #[test]
    fn write_back_defers_until_sync() {
        let pod = sim_mem(HwccMode::None);
        let mem = pod.memory().as_ref();
        let core = CoreId(0);
        let off = pod.layout().small.free_count_at(5);
        let shadow = DescShadow::new(HwccMode::None);
        assert!(shadow.store_count(mem, core, HeapKind::Small, 5, 7));
        assert_eq!(mem.load_u64(core, off), 0, "store must be deferred");
        shadow.sync_all(mem, core);
        assert_eq!(mem.load_u64(core, off), 7);
        // Still resident and clean after the sync.
        assert_eq!(shadow.free_count(HeapKind::Small, 5), Some(7));
    }

    #[test]
    fn conflicting_slabs_evict_with_writeback() {
        let pod = sim_mem(HwccMode::None);
        let mem = pod.memory().as_ref();
        let core = CoreId(0);
        let shadow = DescShadow::new(HwccMode::None);
        shadow.store_count(mem, core, HeapKind::Small, 0, 11);
        // Slab SLOTS/2 of the same heap maps to the same slot.
        let conflicting = (SLOTS / 2) as u32;
        assert_eq!(
            slot_of(HeapKind::Small, 0),
            slot_of(HeapKind::Small, conflicting)
        );
        shadow.store_count(mem, core, HeapKind::Small, conflicting, 22);
        assert_eq!(shadow.free_count(HeapKind::Small, 0), None);
        assert_eq!(
            mem.load_u64(core, pod.layout().small.free_count_at(0)),
            11,
            "eviction must write the displaced dirty count back"
        );
    }

    #[test]
    fn small_and_large_do_not_collide() {
        assert_ne!(slot_of(HeapKind::Small, 0), slot_of(HeapKind::Large, 0));
        assert_ne!(slot_of(HeapKind::Small, 7), slot_of(HeapKind::Large, 7));
    }

    #[test]
    fn rover_is_volatile_and_dies_with_the_entry() {
        let pod = raw_mem();
        let mem = pod.memory().as_ref();
        let core = CoreId(0);
        let shadow = DescShadow::new(HwccMode::Full);
        assert_eq!(shadow.rover(HeapKind::Small, 9), 0, "cold shadow scans from 0");
        shadow.set_rover(mem, core, HeapKind::Small, 9, 137);
        assert_eq!(shadow.rover(HeapKind::Small, 9), 137);
        // Dropping the entry forgets the hint without touching memory.
        shadow.drop_entry(mem, core, HeapKind::Small, 9);
        assert_eq!(shadow.rover(HeapKind::Small, 9), 0);
        // A conflicting resident evicts the hint along with the entry.
        shadow.set_rover(mem, core, HeapKind::Small, 9, 23);
        let conflicting = 9 + (SLOTS / 2) as u32;
        shadow.set_rover(mem, core, HeapKind::Small, conflicting, 5);
        assert_eq!(shadow.rover(HeapKind::Small, 9), 0);
        assert_eq!(shadow.rover(HeapKind::Small, conflicting), 5);
    }

    #[test]
    fn drop_entry_forgets_and_persists() {
        let pod = sim_mem(HwccMode::Limited);
        let mem = pod.memory().as_ref();
        let core = CoreId(0);
        let shadow = DescShadow::new(HwccMode::Limited);
        shadow.store_header(mem, core, HeapKind::Large, 2, 0x55);
        shadow.drop_entry(mem, core, HeapKind::Large, 2);
        assert_eq!(shadow.header(HeapKind::Large, 2), None);
        assert_eq!(
            mem.load_u64(core, pod.layout().large.swcc_desc_at(2)),
            0x55
        );
    }
}
