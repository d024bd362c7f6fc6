//! First-fit rovers: where the next block scan of each recently used
//! slab starts (`SlabHeap::alloc_block`).
//!
//! A rover is a volatile hint, never written to pod memory: any start
//! yields a correct scan (`find_set_from` re-validates the durable bitset
//! and wraps to zero), and the `AllocBlock` oplog word records the chosen
//! bit, so recovery never depends on scan order. The table is
//! direct-mapped over `(heap, slab)`: every owner descriptor access
//! claims its slab's slot, forgetting a conflicting resident's rover, and
//! an absent rover reads 0. A slab's rover is also forgotten where its
//! descriptor is flushed for an ownership transition and where a
//! global-list pop re-reads it.
//!
//! The same per-thread table keeps the DRAM mirror of the thread's
//! durable dirty-list mask (`oplog::DIRTY_WORD`), so an owner whose
//! list is already marked tests one bit instead of storing the word.

use crate::error::HeapKind;
use std::cell::Cell;

/// Sized past a thread's steady-state working set of slabs (its
/// sized-list heads plus its unsized list).
const SLOTS: usize = 64;

/// `(key, slot)` of a slab. The key is `(heap_tag << 32) | (slab + 1)`,
/// never 0; the heaps interleave so small and large slab N never collide.
fn key_slot(kind: HeapKind, slab: u32) -> (u64, usize) {
    let tag = match kind {
        HeapKind::Small => 0,
        HeapKind::Large => 1,
        HeapKind::Huge => unreachable!("huge allocations have no slab rovers"),
    };
    (((tag + 1) << 32) | (slab as u64 + 1), (slab as usize * 2 + tag as usize) & (SLOTS - 1))
}

/// One thread's rovers. `!Sync` by construction (`Cell`s): it lives
/// inside the owning [`ThreadHandle`](crate::ThreadHandle).
#[derive(Debug)]
pub(crate) struct Rovers {
    /// `(key, rover)`; key 0 marks an empty slot.
    slots: [Cell<(u64, u32)>; SLOTS],
    /// The dirty-list mask this thread last stored into its log line.
    dirty: Cell<u64>,
}

impl Rovers {
    /// A cold table whose dirty-list mirror starts at `dirty`, the
    /// thread's durable mask.
    pub fn new(dirty: u64) -> Self {
        Rovers {
            slots: [const { Cell::new((0, 0)) }; SLOTS],
            dirty: Cell::new(dirty),
        }
    }

    /// The dirty-list mirror.
    pub fn dirty(&self) -> u64 {
        self.dirty.get()
    }

    /// Records the mask just stored into the log line.
    pub fn set_dirty(&self, mask: u64) {
        self.dirty.set(mask);
    }

    /// The rover of `(kind, slab)`; 0 when absent.
    pub fn get(&self, kind: HeapKind, slab: u32) -> u32 {
        let (key, slot) = key_slot(kind, slab);
        let (resident, rover) = self.slots[slot].get();
        if resident == key {
            rover
        } else {
            0
        }
    }

    /// Claims `(kind, slab)`'s slot: a resident keeps its rover, any
    /// other slab's is forgotten.
    pub fn claim(&self, kind: HeapKind, slab: u32) {
        let (key, slot) = key_slot(kind, slab);
        if self.slots[slot].get().0 != key {
            self.slots[slot].set((key, 0));
        }
    }

    /// Records the rover of `(kind, slab)`, claiming its slot.
    pub fn set(&self, kind: HeapKind, slab: u32, rover: u32) {
        let (key, slot) = key_slot(kind, slab);
        self.slots[slot].set((key, rover));
    }

    /// Forgets the rover of `(kind, slab)`, leaving any other resident.
    pub fn forget(&self, kind: HeapKind, slab: u32) {
        let (key, slot) = key_slot(kind, slab);
        if self.slots[slot].get().0 == key {
            self.slots[slot].set((0, 0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use HeapKind::{Large, Small};

    #[test]
    fn small_and_large_do_not_collide() {
        let rovers = Rovers::new(0);
        for slab in [0, 7, 31] {
            rovers.set(Small, slab, 11);
            rovers.set(Large, slab, 22);
            assert_eq!((rovers.get(Small, slab), rovers.get(Large, slab)), (11, 22));
        }
    }

    #[test]
    fn rover_is_volatile_and_dies_with_the_slot() {
        let rovers = Rovers::new(0);
        let conflicting = 9 + (SLOTS / 2) as u32;
        assert_eq!(rovers.get(Small, 9), 0, "a cold table scans from 0");
        rovers.set(Small, 9, 137);
        rovers.claim(Small, 9);
        rovers.forget(Small, conflicting);
        assert_eq!(rovers.get(Small, 9), 137, "neither its own claim nor another's forget drops it");
        rovers.forget(Small, 9);
        assert_eq!(rovers.get(Small, 9), 0);
        rovers.set(Small, 9, 23);
        rovers.claim(Small, conflicting);
        assert_eq!((rovers.get(Small, 9), rovers.get(Small, conflicting)), (0, 0));
    }
}
