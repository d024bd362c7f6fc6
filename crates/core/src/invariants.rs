//! Runtime invariant checks (paper §5.1).
//!
//! "We compile cxlalloc with a host of runtime invariant checks, for
//! example: SWccDesc.owner is null when popping a slab from the global
//! free list, all slabs in thread-local sized free lists are non-full,
//! all free lists are acyclic."
//!
//! [`check`] validates the whole heap. It must run while the heap is
//! quiescent — concurrent transitions look momentarily inconsistent.

use crate::cell::{flags, Detect, SwccHeader};
use crate::slab::SlabHeap;
use cxl_pod::{CoreId, HeapLayout, PodMemory};

/// Checks every heap invariant; returns a description of the first
/// violation.
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn check(mem: &dyn PodMemory, core: CoreId) -> Result<(), String> {
    let _scope = mem.op_scope(core);
    check_registry(mem, core)?;
    for heap in [SlabHeap::small(), SlabHeap::large()] {
        check_slab_heap(mem, core, &heap)?;
    }
    check_huge(mem, core)
}

/// Every registry cell holds a legal state. ADOPTING is legal but, in a
/// quiescent heap, suspicious: it means an adopter died mid-recovery.
fn check_registry(mem: &dyn PodMemory, core: CoreId) -> Result<(), String> {
    let layout = mem.layout();
    for slot in 0..layout.max_threads {
        let state = mem.load_u64(core, layout.registry_at(slot));
        if state > crate::liveness::registry::MAX {
            return Err(format!("registry: slot {slot} holds invalid state {state}"));
        }
    }
    Ok(())
}

fn read_header(mem: &dyn PodMemory, core: CoreId, hl: &HeapLayout, slab: u32) -> SwccHeader {
    // The checker may run on any core; flush to see durable state.
    mem.flush(core, hl.swcc_desc_at(slab), 16);
    SwccHeader::unpack(mem.load_u64(core, hl.swcc_desc_at(slab)))
}

fn check_slab_heap(mem: &dyn PodMemory, core: CoreId, heap: &SlabHeap) -> Result<(), String> {
    let hl = heap.hl(mem);
    let kind = heap.kind;
    let len = heap.len(mem, core);
    if len > hl.max_slabs {
        return Err(format!("{kind}: heap length {len} exceeds capacity {}", hl.max_slabs));
    }

    // Global free list: acyclic, within length, unowned, unsized.
    let mut seen = vec![false; len as usize];
    let head = Detect::unpack(mem.load_u64(core, hl.global_free)).payload;
    let mut cursor = head.checked_sub(1);
    while let Some(slab) = cursor {
        if slab >= len {
            return Err(format!("{kind}: global list contains unmapped slab {slab}"));
        }
        if seen[slab as usize] {
            return Err(format!("{kind}: global list cycles at slab {slab}"));
        }
        seen[slab as usize] = true;
        let header = read_header(mem, core, hl, slab);
        if header.owner != 0 {
            return Err(format!(
                "{kind}: slab {slab} on global list has owner {}",
                header.owner
            ));
        }
        if header.flags & flags::SIZED != 0 {
            return Err(format!("{kind}: slab {slab} on global list is sized"));
        }
        cursor = header.next.checked_sub(1);
    }

    // Per-thread lists.
    let layout = mem.layout();
    for slot in 0..layout.max_threads {
        let tid_raw = (slot + 1) as u16;
        mem.flush(core, hl.local_unsized_at(slot), hl.local_stride);
        mem.fence(core);

        // Unsized list: owned by the thread, unsized.
        let mut cursor = (mem.load_u64(core, hl.local_unsized_at(slot)) as u32).checked_sub(1);
        let mut hops = 0;
        while let Some(slab) = cursor {
            hops += 1;
            if hops > hl.max_slabs {
                return Err(format!("{kind}: unsized list of slot {slot} cycles"));
            }
            if slab >= len {
                return Err(format!(
                    "{kind}: unsized list of slot {slot} has unmapped slab {slab}"
                ));
            }
            let header = read_header(mem, core, hl, slab);
            if header.owner != tid_raw {
                return Err(format!(
                    "{kind}: slab {slab} on slot {slot}'s unsized list owned by {}",
                    header.owner
                ));
            }
            cursor = header.next.checked_sub(1);
        }

        // Sized lists: owned, sized with matching class, non-full.
        for class in 0..hl.num_classes {
            let mut cursor =
                (mem.load_u64(core, hl.local_sized_at(slot, class)) as u32).checked_sub(1);
            let mut hops = 0;
            while let Some(slab) = cursor {
                hops += 1;
                if hops > hl.max_slabs {
                    return Err(format!(
                        "{kind}: sized list {class} of slot {slot} cycles"
                    ));
                }
                let header = read_header(mem, core, hl, slab);
                if header.owner != tid_raw {
                    return Err(format!(
                        "{kind}: slab {slab} on slot {slot}'s sized list owned by {}",
                        header.owner
                    ));
                }
                if header.flags & flags::SIZED == 0 || header.class as u32 != class {
                    return Err(format!(
                        "{kind}: slab {slab} on sized list {class} has class {} flags {:#x}",
                        header.class, header.flags
                    ));
                }
                mem.flush(core, hl.free_count_at(slab), 8);
                let free = mem.load_u64(core, hl.free_count_at(slab)) as u32;
                if free == 0 {
                    return Err(format!(
                        "{kind}: full slab {slab} on slot {slot}'s sized list {class}"
                    ));
                }
                let bits = crate::bitset::BlockBits::new(
                    mem,
                    hl.bitset_at(slab),
                    heap.classes.blocks_per_slab(class as u8),
                );
                mem.flush(core, hl.bitset_at(slab), hl.swcc_desc_stride - 16);
                let counted = bits.count_set(core);
                if counted != free {
                    return Err(format!(
                        "{kind}: slab {slab} free count {free} != bitset population {counted}"
                    ));
                }
                cursor = header.next.checked_sub(1);
            }
        }
    }
    Ok(())
}

fn check_huge(mem: &dyn PodMemory, core: CoreId) -> Result<(), String> {
    let layout = mem.layout();
    let hl = &layout.huge;
    // Every linked descriptor must be within its owner's pool, acyclic,
    // and have a sane extent.
    for slot in 0..layout.max_threads {
        mem.flush(core, hl.local_descs_at(slot), 8);
        let mut cursor = mem.load_u64(core, hl.local_descs_at(slot));
        let mut hops = 0;
        while cursor != 0 {
            hops += 1;
            if hops > hl.descs_per_thread {
                return Err(format!("huge: descriptor list of slot {slot} cycles"));
            }
            if hl.desc_owner(cursor).is_none() {
                return Err(format!(
                    "huge: slot {slot} links descriptor at bad offset {cursor:#x}"
                ));
            }
            mem.flush(core, cursor, 32);
            let offset = mem.load_u64(core, cursor + 8);
            let size = mem.load_u64(core, cursor + 16);
            if size == 0 || !hl.data.contains(offset) || offset + size > hl.data.end() {
                return Err(format!(
                    "huge: descriptor {cursor:#x} covers bad range [{offset:#x}, +{size})"
                ));
            }
            cursor = mem.load_u64(core, cursor);
        }
    }
    // Reservation entries name real thread slots.
    for region in 0..hl.num_regions {
        let owner = Detect::unpack(mem.load_u64(core, hl.reservation_at(region))).payload;
        if owner != 0 && owner > layout.max_threads {
            return Err(format!("huge: region {region} owned by bogus thread {owner}"));
        }
    }
    Ok(())
}
