//! The huge heap (512 KiB+ allocations backed by individual mappings).
//!
//! Paper §3.1.2 and §3.3.2. The design differs from the slab heaps
//! because each allocation is backed by its own memory mapping, which
//! must be created — and eventually removed — in *every* process that
//! touches it:
//!
//! * The **reservation array** (`HugeGlobal.reservations`, HWcc) grants a
//!   thread exclusive permission to install mappings in a coarse virtual
//!   region; entries are claimed with detectable CAS.
//! * Each thread tracks its owned free space in a volatile
//!   [`IntervalTree`] — deterministic, so it can be reconstructed after a
//!   crash from the reservation array and the descriptor list.
//! * Every mapping gets an intrusive **`HugeDesc`** (offset, size, free
//!   bit) on the allocating thread's single-writer descriptor list.
//! * **Hazard offsets** — a variant of hazard pointers — make unmapping
//!   safe: a thread publishes the offset before mapping, removes it after
//!   unmapping, and a freed allocation is reclaimed only when its offset
//!   is published in no thread's hazard list. Unlike classic hazard
//!   pointers no re-validation is needed: the racing free would be a
//!   use-after-free, excluded for correct programs.
//!
//! Performance is less critical here, so all SWcc metadata (`HugeLocal`,
//! `HugeDesc`) is treated as uncachable: flush + fence after every write
//! and before every read (§3.2.2).

use crate::cell::LogWord;
use crate::crash;
use crate::ctx::Ctx;
use crate::error::AllocError;
use crate::interval::IntervalTree;
use crate::recovery::Op;
use crate::ThreadId;
use cxl_pod::{CoreId, HugeLayout, PodMemory, PAGE_SIZE};
use std::ops::Range;

/// Crash-point labels compiled into this module.
pub const CRASH_POINTS: &[&str] = &[
    "huge::claim::after_log",
    "huge::claim::after_cas",
    "huge::alloc::after_log",
    "huge::alloc::after_desc",
    "huge::alloc::after_hazard",
    "huge::alloc::after_link",
    "huge::free::after_log",
    "huge::free::after_flag",
    "huge::cleanup::after_log",
];

/// Crash-point labels of the claimed-region hint's store. Kept out of
/// [`CRASH_POINTS`] so schedule generation (which indexes that list by
/// RNG draw) is unperturbed; the crash matrix iterates this list
/// separately.
pub const HINT_CRASH_POINTS: &[&str] = &["huge::claim::after_hint"];

/// Volatile per-thread huge-heap state (`HugeLocal.free` plus the
/// descriptor-slot pool). Reconstructible from the segment.
#[derive(Debug, Default)]
pub struct HugeThread {
    /// Free virtual space in regions this thread owns.
    pub free: IntervalTree,
    /// Free descriptor slots in this thread's pool.
    pub desc_slots: Vec<u32>,
    /// Next-fit rover for the reservation-array scan: the region after
    /// this thread's most recent successful claim. Volatile (rebuilt as
    /// 0 by recovery) and advisory — `claim_regions` falls back to a
    /// scan from region 0 before reporting exhaustion, so a stale hint
    /// never hides a free run.
    pub region_rover: u32,
    /// Every region this thread has ever claimed lies in this range:
    /// the volatile copy of its durable claimed-region hint
    /// (`HugeLayout::claimed_at`), which only widens.
    pub claimed: Range<u32>,
}

/// Packs a claimed-region range into its hint word: `end` in the high
/// half, `start` in the low one, so the zeroed word of a slot that never
/// claimed reads as an empty range.
fn pack_claimed(range: &Range<u32>) -> u64 {
    (range.end as u64) << 32 | range.start as u64
}

fn unpack_claimed(word: u64) -> Range<u32> {
    word as u32..(word >> 32) as u32
}

/// A decoded `HugeDesc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HugeDesc {
    /// Next descriptor's segment offset (0 = end of list).
    pub next: u64,
    /// Data offset of the backing mapping.
    pub offset: u64,
    /// Mapping size in bytes.
    pub size: u64,
    /// Whether the allocation has been freed (awaiting reclamation).
    pub free: bool,
}

/// The huge heap.
#[derive(Debug, Clone, Copy, Default)]
pub struct HugeHeap;

impl HugeHeap {
    fn hl<'a, M: PodMemory + ?Sized>(&self, mem: &'a M) -> &'a HugeLayout {
        &mem.layout().huge
    }

    // ---- uncachable access helpers (flush before read, flush after write) --

    fn read_word<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, off: u64) -> u64 {
        ctx.mem.flush(ctx.core, off, 8);
        ctx.mem.load_u64(ctx.core, off)
    }

    fn write_word<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, off: u64, value: u64) {
        ctx.mem.store_u64(ctx.core, off, value);
        ctx.mem.flush(ctx.core, off, 8);
        ctx.mem.fence(ctx.core);
    }

    /// Reads the descriptor at the given segment offset.
    pub(crate) fn read_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, desc_off: u64) -> HugeDesc {
        ctx.mem.flush(ctx.core, desc_off, 32);
        HugeDesc {
            next: ctx.mem.load_u64(ctx.core, desc_off),
            offset: ctx.mem.load_u64(ctx.core, desc_off + 8),
            size: ctx.mem.load_u64(ctx.core, desc_off + 16),
            free: ctx.mem.load_u64(ctx.core, desc_off + 24) & 1 == 1,
        }
    }

    fn write_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, desc_off: u64, desc: HugeDesc) {
        ctx.mem.store_u64(ctx.core, desc_off, desc.next);
        ctx.mem.store_u64(ctx.core, desc_off + 8, desc.offset);
        ctx.mem.store_u64(ctx.core, desc_off + 16, desc.size);
        ctx.mem
            .store_u64(ctx.core, desc_off + 24, desc.free as u64);
        ctx.mem.flush(ctx.core, desc_off, 32);
        ctx.mem.fence(ctx.core);
    }

    /// Head of thread `slot`'s descriptor list (descriptor offset, 0 =
    /// empty).
    pub(crate) fn descs_head<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slot: u32) -> u64 {
        self.read_word(ctx, self.hl(ctx.mem).local_descs_at(slot))
    }

    // ---- reservation array -------------------------------------------------

    /// The thread owning reservation `region` (raw id, 0 = unowned).
    pub fn region_owner<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, region: u32) -> u16 {
        let cell = mem.load_u64(core, mem.layout().huge.reservation_at(region));
        crate::cell::Detect::unpack(cell).payload as u16
    }

    /// Claims a run of `count` adjacent unowned regions starting at a
    /// scan; returns the first region index claimed, with all claimed
    /// regions' space inserted into `st.free` (even on partial-run
    /// failures, so nothing leaks).
    fn claim_regions<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, st: &mut HugeThread, count: u32) -> bool {
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        'scan: loop {
            // Find a candidate run of unowned regions, starting at the
            // thread's region rover (next-fit over the reservation
            // array). Runs cannot wrap — regions in a run must be
            // virtually contiguous — so a failed pass from the hint
            // falls back to one full pass from region 0 before we
            // report exhaustion.
            let start_hint = st.region_rover.min(hl.num_regions);
            let mut run_start = None;
            let mut run_len = 0;
            'passes: for pass in [start_hint, 0] {
                run_start = None;
                run_len = 0;
                for r in pass..hl.num_regions {
                    if self.region_owner(ctx.mem, ctx.core, r) == 0 {
                        if run_start.is_none() {
                            run_start = Some(r);
                            run_len = 0;
                        }
                        run_len += 1;
                        if run_len == count {
                            break 'passes;
                        }
                    } else {
                        run_start = None;
                        run_len = 0;
                    }
                }
                if pass == 0 {
                    break;
                }
            }
            let Some(start) = run_start else {
                return false;
            };
            if run_len < count {
                return false;
            }
            // Claim each region in the run with detectable CAS.
            for r in start..start + count {
                let cell_off = hl.reservation_at(r);
                let observed = dcas.read(ctx.core, cell_off);
                if observed.payload != 0 {
                    // Lost a race mid-run; keep what we claimed (already
                    // in the tree) and rescan.
                    continue 'scan;
                }
                let version = ctx.log().bump_version(ctx.core);
                ctx.log().begin(
                    ctx.core,
                    LogWord {
                        op: Op::HugeClaim as u8,
                        a: r,
                        b: 0,
                        c: version,
                    },
                    &[],
                );
                crash::point("huge::claim::after_log");
                // Widen the durable hint before the CAS can make the
                // region ours, so reconstruction always scans it.
                if !st.claimed.contains(&r) {
                    st.claimed = if st.claimed.is_empty() {
                        r..r + 1
                    } else {
                        st.claimed.start.min(r)..st.claimed.end.max(r + 1)
                    };
                    self.write_word(ctx, hl.claimed_at(ctx.tid.slot()), pack_claimed(&st.claimed));
                    crash::point("huge::claim::after_hint");
                }
                if dcas
                    .attempt(
                        ctx.core,
                        cell_off,
                        observed,
                        ctx.tid.raw() as u32,
                        ctx.tid,
                        version,
                    )
                    .is_err()
                {
                    ctx.log().clear(ctx.core);
                    continue 'scan;
                }
                crash::point("huge::claim::after_cas");
                ctx.log().clear(ctx.core);
                st.free.insert(hl.region_data_at(r), hl.region_size);
            }
            st.region_rover = start + count;
            return true;
        }
    }

    // ---- hazard offsets ------------------------------------------------------

    /// Publishes `offset` in `tid`'s hazard array (before mapping —
    /// protocol rule 1).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::HazardSlotsExhausted`] when every slot is in
    /// use.
    pub(crate) fn publish_hazard<M: PodMemory + ?Sized>(
        &self,
        mem: &M,
        core: CoreId,
        tid: ThreadId,
        offset: u64,
    ) -> Result<(), AllocError> {
        let hl = &mem.layout().huge;
        for i in 0..hl.hazards_per_thread {
            let slot_off = hl.hazard_at(tid.slot(), i);
            mem.flush(core, slot_off, 8);
            let cur = mem.load_u64(core, slot_off);
            if cur == offset + 1 {
                return Ok(()); // already published (fault handler re-entry)
            }
            if cur == 0 {
                mem.store_u64(core, slot_off, offset + 1);
                mem.flush(core, slot_off, 8);
                mem.fence(core);
                return Ok(());
            }
        }
        Err(AllocError::HazardSlotsExhausted { thread: tid })
    }

    /// Removes `offset` from `tid`'s hazard array (after unmapping —
    /// protocol rule 2).
    pub(crate) fn remove_hazard<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId, tid: ThreadId, offset: u64) {
        let hl = &mem.layout().huge;
        for i in 0..hl.hazards_per_thread {
            let slot_off = hl.hazard_at(tid.slot(), i);
            mem.flush(core, slot_off, 8);
            if mem.load_u64(core, slot_off) == offset + 1 {
                mem.store_u64(core, slot_off, 0);
                mem.flush(core, slot_off, 8);
                mem.fence(core);
            }
        }
    }

    /// Whether any thread publishes `offset` as a hazard.
    pub(crate) fn hazard_published<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> bool {
        let layout = ctx.mem.layout();
        let hl = &layout.huge;
        for slot in 0..layout.max_threads {
            for i in 0..hl.hazards_per_thread {
                let slot_off = hl.hazard_at(slot, i);
                ctx.mem.flush(ctx.core, slot_off, 8);
                if ctx.mem.load_u64(ctx.core, slot_off) == offset + 1 {
                    return true;
                }
            }
        }
        false
    }

    // ---- descriptor lookup ---------------------------------------------------

    /// Finds the in-use descriptor whose mapping covers `offset`, by
    /// consulting the reservation array for the owning thread and walking
    /// its descriptor list (the deallocation path of §3.1.2).
    pub(crate) fn find_desc_by_offset<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> Option<(u64, HugeDesc)> {
        let hl = self.hl(ctx.mem);
        let region = hl.region_of(offset)?;
        let owner = self.region_owner(ctx.mem, ctx.core, region);
        let owner_slot = owner.checked_sub(1)? as u32;
        self.walk_descs(ctx, owner_slot, |_, d| d.offset == offset && !d.free)
    }

    /// Finds an in-use descriptor whose mapping *covers* `offset` in any
    /// thread's list (the signal-handler path of §3.3.2).
    pub(crate) fn find_desc_covering<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> Option<(u64, HugeDesc)> {
        // Try the region owner first (common case), then all threads —
        // multi-region allocations live on the first region's owner's
        // list, but a fault may land in a later region.
        if let Some(hit) =
            self.find_cover_in_owner(ctx, offset)
        {
            return Some(hit);
        }
        let layout = ctx.mem.layout();
        for slot in 0..layout.max_threads {
            if let Some(hit) = self.walk_descs(ctx, slot, |_, d| {
                !d.free && d.offset <= offset && offset < d.offset + d.size
            }) {
                return Some(hit);
            }
        }
        None
    }

    fn find_cover_in_owner<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> Option<(u64, HugeDesc)> {
        let hl = self.hl(ctx.mem);
        let region = hl.region_of(offset)?;
        let owner_slot = self
            .region_owner(ctx.mem, ctx.core, region)
            .checked_sub(1)? as u32;
        self.walk_descs(ctx, owner_slot, |_, d| {
            !d.free && d.offset <= offset && offset < d.offset + d.size
        })
    }

    /// Walks thread `slot`'s descriptor list, returning the first
    /// descriptor matching `pred`.
    pub(crate) fn walk_descs<M: PodMemory + ?Sized>(
        &self,
        ctx: &Ctx<'_, M>,
        slot: u32,
        pred: impl Fn(u64, &HugeDesc) -> bool,
    ) -> Option<(u64, HugeDesc)> {
        let mut cursor = self.descs_head(ctx, slot);
        let mut hops = 0u32;
        while cursor != 0 {
            assert!(
                hops <= self.hl(ctx.mem).descs_per_thread,
                "cycle in huge descriptor list of slot {slot}"
            );
            hops += 1;
            let desc = self.read_desc(ctx, cursor);
            if pred(cursor, &desc) {
                return Some((cursor, desc));
            }
            cursor = desc.next;
        }
        None
    }

    // ---- allocation ------------------------------------------------------------

    /// Allocates `size` bytes backed by a fresh mapping; returns the data
    /// offset.
    pub(crate) fn alloc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, st: &mut HugeThread, size: usize) -> Result<u64, AllocError> {
        if size == 0 {
            return Err(AllocError::InvalidSize { size });
        }
        let hl = self.hl(ctx.mem);
        let bytes = (size as u64).div_ceil(PAGE_SIZE) * PAGE_SIZE;

        // Find free virtual space, claiming more regions if needed.
        let data_off = match st.free.take(bytes) {
            Some(off) => off,
            None => {
                let regions = bytes.div_ceil(hl.region_size) as u32;
                // Claiming regions merges their space into the tree; a
                // multi-region allocation may additionally need adjacency
                // luck, so retry a few times before giving up.
                let mut attempts = 0;
                loop {
                    if !self.claim_regions(ctx, st, regions) {
                        return Err(AllocError::OutOfMemory {
                            heap: crate::HeapKind::Huge,
                            size,
                        });
                    }
                    if let Some(off) = st.free.take(bytes) {
                        break off;
                    }
                    attempts += 1;
                    if attempts > 8 {
                        return Err(AllocError::OutOfMemory {
                            heap: crate::HeapKind::Huge,
                            size,
                        });
                    }
                }
            }
        };

        // Allocate a descriptor slot.
        let Some(slot_index) = st.desc_slots.pop() else {
            st.free.insert(data_off, bytes);
            return Err(AllocError::DescriptorPoolExhausted { thread: ctx.tid });
        };
        let desc_off = hl.desc_at(ctx.tid.slot(), slot_index);

        ctx.log().begin(
            ctx.core,
            LogWord {
                op: Op::HugeAlloc as u8,
                a: 0,
                b: 0,
                c: 0,
            },
            &[desc_off, data_off, bytes],
        );
        crash::point("huge::alloc::after_log");

        // Initialize the descriptor (free bit unset) and link it.
        let head = self.descs_head(ctx, ctx.tid.slot());
        self.write_desc(ctx, desc_off, HugeDesc {
            next: head,
            offset: data_off,
            size: bytes,
            free: false,
        });
        crash::point("huge::alloc::after_desc");

        // Protocol rule 1: publish the hazard offset before mapping.
        self.publish_hazard(ctx.mem, ctx.core, ctx.tid, data_off)?;
        crash::point("huge::alloc::after_hazard");

        self.write_word(ctx, hl.local_descs_at(ctx.tid.slot()), desc_off);
        crash::point("huge::alloc::after_link");

        // Install the mapping in our own process; other processes fault
        // it in lazily (PC-T).
        ctx.process.map_huge(data_off, bytes);
        ctx.log().clear(ctx.core);
        Ok(data_off)
    }

    // ---- deallocation -----------------------------------------------------------

    /// Frees the huge allocation at `offset`.
    pub(crate) fn dealloc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> Result<(), AllocError> {
        let (desc_off, desc) = self
            .find_desc_by_offset(ctx, offset)
            .ok_or(AllocError::NotAllocated { offset })?;
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: Op::HugeFree as u8,
                a: 0,
                b: 0,
                c: 0,
            },
            &[desc_off],
        );
        crash::point("huge::free::after_log");
        // Setting the free bit needs no CAS: huge descriptors are never
        // updated concurrently (§3.1.2).
        self.write_word(ctx, desc_off + 24, 1);
        crash::point("huge::free::after_flag");
        // Unmap locally; protocol rule 2: remove the hazard afterwards.
        ctx.process.unmap_huge(desc.offset, desc.size);
        self.remove_hazard(ctx.mem, ctx.core, ctx.tid, desc.offset);
        ctx.log().clear(ctx.core);
        Ok(())
    }

    // ---- asynchronous cleanup ------------------------------------------------------

    /// One cleanup pass (paper: "each thread occasionally walks its
    /// hazard offset list and huge descriptor list"):
    ///
    /// 1. For each of our published hazards whose descriptor is free:
    ///    unmap locally and remove the hazard.
    /// 2. For each free descriptor on our list with no published hazards
    ///    anywhere: unlink it, return its space to our interval tree, and
    ///    recycle the descriptor slot.
    ///
    /// Returns the number of allocations fully reclaimed.
    pub(crate) fn cleanup<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, st: &mut HugeThread) -> u32 {
        let hl = self.hl(ctx.mem);
        let my_slot = ctx.tid.slot();

        // Pass 1: drop our mappings of freed allocations.
        for i in 0..hl.hazards_per_thread {
            let slot_off = hl.hazard_at(my_slot, i);
            ctx.mem.flush(ctx.core, slot_off, 8);
            let raw = ctx.mem.load_u64(ctx.core, slot_off);
            let Some(offset) = raw.checked_sub(1) else {
                continue;
            };
            // Find the descriptor; it may be on any thread's list.
            let desc = self
                .find_desc_covering(ctx, offset)
                .map(|(_, d)| d)
                .or_else(|| self.find_freed_desc(ctx, offset));
            if let Some(desc) = desc {
                if desc.free {
                    ctx.process.unmap_huge(desc.offset, desc.size);
                    self.remove_hazard(ctx.mem, ctx.core, ctx.tid, offset);
                }
            } else {
                // Descriptor already reclaimed: stale hazard, drop it.
                self.remove_hazard(ctx.mem, ctx.core, ctx.tid, offset);
            }
        }

        // Pass 2: reclaim free descriptors nobody hazards.
        let mut reclaimed = 0;
        while let Some((desc_off, desc)) = self.walk_descs(ctx, my_slot, |_, d| d.free) {
            if self.hazard_published(ctx, desc.offset) {
                // Someone still has it mapped; try again next pass. (We
                // stop rather than skip: descriptors are reclaimed in
                // list order, which keeps this loop simple; a production
                // allocator would skip and continue.)
                break;
            }
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: Op::HugeCleanup as u8,
                    a: 0,
                    b: 0,
                    c: 0,
                },
                &[desc_off],
            );
            crash::point("huge::cleanup::after_log");
            self.unlink_desc(ctx, my_slot, desc_off);
            st.free.insert(desc.offset, desc.size);
            if let Some((_, index)) = self.hl(ctx.mem).desc_owner(desc_off) {
                st.desc_slots.push(index);
            }
            ctx.log().clear(ctx.core);
            reclaimed += 1;
        }
        reclaimed
    }

    /// Finds a *freed* descriptor for `offset` (used by cleanup, where
    /// `find_desc_by_offset` skips free descriptors).
    fn find_freed_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64) -> Option<HugeDesc> {
        let layout = ctx.mem.layout();
        for slot in 0..layout.max_threads {
            if let Some((_, d)) = self.walk_descs(ctx, slot, |_, d| {
                d.offset <= offset && offset < d.offset + d.size
            }) {
                return Some(d);
            }
        }
        None
    }

    /// Unlinks the given descriptor from thread `slot`'s list (single-writer).
    pub(crate) fn unlink_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slot: u32, desc_off: u64) -> bool {
        let hl = self.hl(ctx.mem);
        let head_off = hl.local_descs_at(slot);
        let mut prev: Option<u64> = None;
        let mut cursor = self.read_word(ctx, head_off);
        while cursor != 0 {
            let desc = self.read_desc(ctx, cursor);
            if cursor == desc_off {
                match prev {
                    None => self.write_word(ctx, head_off, desc.next),
                    Some(p) => self.write_word(ctx, p, desc.next),
                }
                return true;
            }
            prev = Some(cursor);
            cursor = desc.next;
        }
        false
    }

    // ---- fault handling (PC-T) -----------------------------------------------------

    /// The huge-heap part of the signal handler: decides whether the
    /// faulting bytes `offset..=last` are inside one live huge
    /// allocation and, if so, publishes a hazard for `tid` and installs
    /// the mapping in `process`.
    pub(crate) fn handle_fault<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64, last: u64) -> bool {
        let Some((_, desc)) = self.find_desc_covering(ctx, offset) else {
            return false;
        };
        if last - desc.offset >= desc.size {
            return false;
        }
        // Publish the hazard before mapping (protocol rule 1). No
        // re-validation is needed — see §3.3.2: the racing free would be
        // a use-after-free in the application.
        if self
            .publish_hazard(ctx.mem, ctx.core, ctx.tid, desc.offset)
            .is_err()
        {
            return false;
        }
        ctx.process.map_huge(desc.offset, desc.size);
        true
    }

    // ---- reconstruction (recovery / adoption) -----------------------------------------

    /// Deterministically reconstructs `tid`'s volatile state from the
    /// reservation array and its descriptor list (paper §3.4.2).
    ///
    /// Only the regions in the thread's claimed-region hint are looked
    /// up: the hint is widened durably before every claim CAS, so it
    /// covers every region the thread owns, and a slot that never
    /// claimed one (every fresh slot: slots never return to FREE) reads
    /// no reservation cell at all. The hint is loaded without a flush,
    /// like the dirty-list mask beside it in `Cxlalloc::make_handle`:
    /// `ctx.core` is the thread's own core, which a crash empties and
    /// no other thread writes through.
    pub(crate) fn reconstruct<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) -> HugeThread {
        let hl = self.hl(ctx.mem);
        let mut st = HugeThread::default();
        let hint = unpack_claimed(ctx.mem.load_u64(ctx.core, hl.claimed_at(ctx.tid.slot())));
        st.claimed = hint.start.min(hl.num_regions)..hint.end.min(hl.num_regions);
        // Descriptor pool: every slot, in descending order so pops hand
        // out low indices first, built in one allocation; the descriptor
        // walk below strikes out the linked ones.
        const LINKED: u32 = u32::MAX;
        let last = hl.descs_per_thread - 1;
        st.desc_slots = (0..=last).rev().collect();
        // Free space: all owned regions...
        for r in st.claimed.clone() {
            if self.region_owner(ctx.mem, ctx.core, r) == ctx.tid.raw() {
                st.free.insert(hl.region_data_at(r), hl.region_size);
            }
        }
        // ...minus every linked descriptor's range (free-but-unreclaimed
        // descriptors still hold their space until cleanup).
        let mut cursor = self.descs_head(ctx, ctx.tid.slot());
        while cursor != 0 {
            let desc = self.read_desc(ctx, cursor);
            st.free.subtract(desc.offset, desc.size);
            if let Some((slot, index)) = hl.desc_owner(cursor) {
                if slot == ctx.tid.slot() {
                    st.desc_slots[(last - index) as usize] = LINKED;
                }
            }
            cursor = desc.next;
        }
        st.desc_slots.retain(|&index| index != LINKED);
        st
    }
}
