//! The slab heaps (small and large).
//!
//! The small heap serves 8 B – 1 KiB blocks from 32 KiB slabs; the large
//! heap serves 1 KiB – 512 KiB blocks from 512 KiB slabs. Both share the
//! design of paper §3.1.1:
//!
//! * The data region is divided into fixed-size slabs; the heap length
//!   (`SmallGlobal.len`) is the current slab count and only grows.
//! * Slabs move between the states of Figure 4: **unmapped** (past the
//!   heap length), **global** (on the CAS-managed global free list),
//!   **TL unsized** (owned, no class, all memory available), **TL
//!   sized** (owned, classed, non-full), **detached** (full, owned,
//!   unlinked — no remote frees yet), and **disowned** (full, unowned,
//!   unlinked — had remote frees).
//! * Each slab splits its metadata between an 8-byte HWcc descriptor
//!   (the remote-free counter, a detectable-CAS cell) and a SWcc
//!   descriptor (header + free count + block bitset) that only the owner
//!   writes.
//!
//! The remote-free protocol is the paper's §3.2.1: remote frees only
//! decrement the HWcc counter (which counts *down* so correctness never
//! depends on the possibly-stale class field); the thread whose decrement
//! reaches zero steals the slab. Detached slabs let fully-remote-freed
//! slabs (producer/consumer) be reclaimed without coordinating with the
//! owner; disowning forces mixed local/remote slabs to eventually drain
//! through the remote path.
//!
//! The SWcc discipline is §3.2.2: owners keep descriptors cached and only
//! flush + fence when ownership may change (push to global, detach,
//! disown); readers flush before loading `next` on the global-list path;
//! the `owner` field may be read from cache without flushing (the
//! four-case argument in the paper, reproduced in this crate's tests).
//!
//! Every structural step first updates the thread's 8-byte recovery log
//! (§3.4.2); `recovery.rs` redoes interrupted steps idempotently. Before
//! that, `alloc` and `free_local` mark their class's list in the log
//! line's dirty-list mask (`oplog.rs`), which limits recovery's list
//! walk to the lists the thread edited since its last flush point (on a
//! coherent pod nothing is marked: no edit can die with the thread).

use crate::bitset::BlockBits;
use crate::cell::{flags, Detect, LogWord, SwccHeader};
use crate::class::ClassTable;
use crate::crash;
use crate::ctx::Ctx;
use crate::error::{AllocError, HeapKind};
use crate::recovery::Op;
use crate::remote;
use crate::remote::RemoteFreeBuffer;
use cxl_pod::trace::TraceKind;
use cxl_pod::{CoreId, HeapLayout, HwccMode, PodMemory};

/// Crash-point labels compiled into this module (white-box failure
/// tests iterate these).
pub const CRASH_POINTS: &[&str] = &[
    "slab::alloc_block::rover",
    "slab::alloc_block::after_log",
    "slab::alloc_block::after_clear",
    "slab::alloc_block::after_deliver",
    "slab::alloc_block::after_unlink",
    "slab::alloc_block::after_transition",
    "slab::free_local::after_log",
    "slab::free_local::after_set",
    "slab::free_local::after_relink",
    "slab::remote_free::after_log",
    "slab::remote_free::after_cas",
    "slab::remote_free::before_steal_push",
    "slab::init::after_log",
    "slab::init::mid",
    "slab::pop_global::after_log",
    "slab::pop_global::after_cas",
    "slab::push_global::after_log",
    "slab::push_global::after_pop",
    "slab::push_global::after_cas",
    "slab::extend::after_log",
    "slab::extend::after_cas",
];

/// Crash-point labels on the *batched* remote-free publish path. Kept
/// out of [`CRASH_POINTS`] so schedule generation (which indexes that
/// list by RNG draw) is unperturbed for configurations that never
/// batch; the batched crash matrix iterates this list separately.
pub const BATCH_CRASH_POINTS: &[&str] = &[
    "slab::remote_free::publish_after_log",
    "slab::remote_free::publish_after_cas",
];

/// Crash-point labels of a detectable free's claim, on the local, eager
/// remote and buffered remote paths alike: a list of its own, so no
/// script indexing [`CRASH_POINTS`] moves.
pub const DETECT_CRASH_POINTS: &[&str] = &[
    "slab::dealloc_detectable::before_claim",
    "slab::dealloc_detectable::after_claim",
    "slab::dealloc_detectable::after_lost_claim",
];

/// A detectable free's claim: a CAS of the cell `dst` (a segment
/// offset) from `seen` to 0 (`ThreadHandle::dealloc_detectable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Claim {
    pub dst: u64,
    pub seen: u64,
}

/// One slab heap (instantiated once for small, once for large).
#[derive(Debug, Clone, Copy)]
pub struct SlabHeap {
    /// Which heap this is.
    pub kind: HeapKind,
    /// Its size-class table.
    pub classes: ClassTable,
}

impl SlabHeap {
    /// The small heap.
    pub fn small() -> Self {
        SlabHeap {
            kind: HeapKind::Small,
            classes: crate::class::SMALL_CLASSES_TABLE,
        }
    }

    /// The large heap.
    pub fn large() -> Self {
        SlabHeap {
            kind: HeapKind::Large,
            classes: crate::class::LARGE_CLASSES_TABLE,
        }
    }

    /// The slab heap for `kind` (huge is not a slab heap).
    pub(crate) fn of(kind: HeapKind) -> Self {
        match kind {
            HeapKind::Small => Self::small(),
            HeapKind::Large => Self::large(),
            HeapKind::Huge => unreachable!("huge heap is not a slab heap"),
        }
    }

    /// This heap's region layout.
    pub fn hl<'a, M: PodMemory + ?Sized>(&self, mem: &'a M) -> &'a HeapLayout {
        match self.kind {
            HeapKind::Small => &mem.layout().small,
            HeapKind::Large => &mem.layout().large,
            HeapKind::Huge => unreachable!("huge heap is not a slab heap"),
        }
    }

    fn op(&self, op: Op) -> u8 {
        op.encode(self.kind)
    }

    /// Logs a free's record `word`: as ever for a plain free; marked
    /// [`DETECT_BIT`](crate::recovery::DETECT_BIT) and naming a detectable
    /// free's claim, which it then takes when `take` (the first store
    /// after `begin`). A lost claim first rewrites the record's `seen` to
    /// the value it found, so recovery reads the cell as still holding it
    /// and aborts, then clears the log and fails having freed nothing.
    #[inline(always)]
    fn begin_free<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, word: LogWord, claim: Option<Claim>, take: bool) -> Result<(), AllocError> {
        let Some(Claim { dst, seen }) = claim else {
            ctx.log().begin(ctx.core, word, &[]);
            return Ok(());
        };
        let word = LogWord { op: word.op | crate::recovery::DETECT_BIT, ..word };
        ctx.log().begin(ctx.core, word, &[dst, seen]);
        if !take {
            return Ok(());
        }
        crash::point("slab::dealloc_detectable::before_claim");
        let cell = ctx.mem.segment().atomic_u64(dst);
        match cell.compare_exchange(seen, 0, std::sync::atomic::Ordering::SeqCst, std::sync::atomic::Ordering::SeqCst) {
            Ok(_) => {
                crash::point("slab::dealloc_detectable::after_claim");
                Ok(())
            }
            Err(found) => {
                ctx.log().begin(ctx.core, word, &[dst, found]);
                crash::point("slab::dealloc_detectable::after_lost_claim");
                ctx.log().clear(ctx.core);
                Err(AllocError::ClaimLost { dst, seen, found })
            }
        }
    }

    // ---- the dirty-list mask --------------------------------------------

    /// This heap's bit in a thread's dirty-list mask (`oplog::DIRTY_WORD`)
    /// for its private list of `class` (`None`: the unsized list). The
    /// small heap's 29 lists take bits 0–28 and the large heap's 20 take
    /// bits 29–48, each heap's unsized list first.
    pub fn list_bit(&self, class: Option<u8>) -> u64 {
        let base = match self.kind {
            HeapKind::Small => 0,
            HeapKind::Large => 1 + crate::class::SMALL_CLASSES_TABLE.len(),
            HeapKind::Huge => unreachable!("huge heap is not a slab heap"),
        };
        1 << (base + class.map_or(0, |c| 1 + c as u32))
    }

    /// Marks the caller's sized list of `class` dirty before its op's
    /// first `begin`, whose writeback makes the mark durable ahead of any
    /// list or descriptor write. Only the owner marks (its context
    /// carries the mirror), and only a list the mirror lacks: once set,
    /// a bit costs one test per op until the next flush point clears it.
    ///
    /// On a fully coherent pod nothing is marked and the mask stays 0:
    /// no store dies with its thread there, so every list but the ones
    /// recovery always walks is durably the owner's view at death
    /// (DESIGN.md §6). On `RawMemory` the mode test is a constant; on a
    /// simulated pod it is asked only when a bit would be set.
    fn mark_dirty<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, class: u8) {
        let Some(rovers) = ctx.rovers.filter(|_| ctx.recoverable) else {
            return;
        };
        let mask = rovers.dirty() | self.list_bit(Some(class));
        if mask != rovers.dirty() && ctx.mem.hwcc_mode() != HwccMode::Full {
            rovers.set_dirty(mask);
            ctx.log().set_dirty(ctx.core, mask);
        }
    }

    // ---- descriptor accessors ------------------------------------------
    //
    // Each is one access through the calling core's cache; the owner's
    // stay hits until an ownership transition flushes them (§3.2.2). An
    // owner's access also claims the slab's rover slot (`rover.rs`),
    // except through `count` / `set_count`, whose callers' ops have
    // claimed it already.

    #[inline(always)]
    fn claim_rover<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) {
        if let Some(rovers) = ctx.rovers {
            rovers.claim(self.kind, slab);
        }
    }

    #[inline]
    pub(crate) fn header<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) -> SwccHeader {
        self.claim_rover(ctx, slab);
        SwccHeader::unpack(ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).swcc_desc_at(slab)))
    }

    #[inline]
    pub(crate) fn set_header<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, header: SwccHeader) {
        self.claim_rover(ctx, slab);
        ctx.mem
            .store_u64(ctx.core, self.hl(ctx.mem).swcc_desc_at(slab), header.pack());
    }

    #[inline]
    pub(crate) fn free_count<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) -> u32 {
        self.claim_rover(ctx, slab);
        self.count(ctx, slab)
    }

    #[inline]
    pub(crate) fn set_free_count<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, count: u32) {
        self.claim_rover(ctx, slab);
        self.set_count(ctx, slab, count);
    }

    /// The free count, without a claim: for `free_local`, whose slot
    /// `dealloc`'s header load claimed, and `alloc_block`, whose rover
    /// store holds it. Nothing between claims another slot.
    #[inline(always)]
    fn count<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) -> u32 {
        ctx.mem.load_u64(ctx.core, self.hl(ctx.mem).free_count_at(slab)) as u32
    }

    /// Stores the free count, without a claim (see [`SlabHeap::count`]).
    #[inline(always)]
    fn set_count<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, count: u32) {
        ctx.mem
            .store_u64(ctx.core, self.hl(ctx.mem).free_count_at(slab), count as u64);
    }

    #[inline]
    pub(crate) fn bits<'m, M: PodMemory + ?Sized>(&self, ctx: &Ctx<'m, M>, slab: u32, class: u8) -> BlockBits<'m, M> {
        BlockBits::new(
            ctx.mem,
            self.hl(ctx.mem).bitset_at(slab),
            self.classes.blocks_per_slab(class),
        )
    }

    /// Flushes a slab's entire SWcc descriptor (header, count, bitset)
    /// and fences — required before any transition after which another
    /// thread may become the owner (§3.2.2).
    pub(crate) fn flush_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) {
        let hl = self.hl(ctx.mem);
        // After the flush another thread may own the slab.
        if let Some(rovers) = ctx.rovers {
            rovers.forget(self.kind, slab);
        }
        ctx.mem
            .flush(ctx.core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
        ctx.mem.fence(ctx.core);
    }

    /// Current heap length (number of mapped slabs).
    pub fn len<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId) -> u32 {
        Detect::unpack(mem.load_u64(core, self.hl(mem).global_len)).payload
    }

    /// Whether the heap has no slabs yet.
    pub fn is_empty<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId) -> bool {
        self.len(mem, core) == 0
    }

    // ---- private (thread-local) free lists ------------------------------

    fn head_of<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64) -> Option<u32> {
        let raw = ctx.mem.load_u64(ctx.core, head_off) as u32;
        raw.checked_sub(1)
    }

    pub(crate) fn unsized_head_off<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) -> u64 {
        self.hl(ctx.mem).local_unsized_at(ctx.tid.slot())
    }

    pub(crate) fn sized_head_off<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, class: u8) -> u64 {
        self.hl(ctx.mem).local_sized_at(ctx.tid.slot(), class as u32)
    }

    /// Pushes `slab` onto the private list at `head_off`.
    pub(crate) fn push_local<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64, slab: u32) {
        let old = ctx.mem.load_u64(ctx.core, head_off) as u32;
        let mut header = self.header(ctx, slab);
        header.next = old;
        self.set_header(ctx, slab, header);
        ctx.mem.store_u64(ctx.core, head_off, (slab + 1) as u64);
    }

    /// Pops the head of the private list at `head_off`.
    pub(crate) fn pop_local<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64) -> Option<u32> {
        let slab = self.head_of(ctx, head_off)?;
        let header = self.header(ctx, slab);
        ctx.mem.store_u64(ctx.core, head_off, header.next as u64);
        Some(slab)
    }

    /// Unlinks a node from the private list at `head_off`, given its
    /// predecessor there (`None`: the node is the head) and its raw
    /// `next` link: one store, to the head or to `prev`'s header.
    pub(crate) fn unlink_local<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64, prev: Option<u32>, next_raw: u32) {
        match prev {
            None => ctx.mem.store_u64(ctx.core, head_off, next_raw as u64),
            Some(p) => {
                let mut ph = self.header(ctx, p);
                ph.next = next_raw;
                self.set_header(ctx, p, ph);
            }
        }
    }

    /// Removes `slab` from the private list at `head_off`; returns
    /// whether it was present. It walks the list up to `slab`, which is
    /// as long as the thread's non-full slabs of one class. Its one
    /// caller is the owner's live empty-slab move in `free_local`.
    /// Recovery does not call it: sanitize records where the logged
    /// slab sits, and the redo unlinks it there with
    /// [`SlabHeap::unlink_local`].
    pub(crate) fn remove_local<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64, slab: u32) -> bool {
        let mut prev: Option<u32> = None;
        let mut cursor = self.head_of(ctx, head_off);
        let mut hops = 0u32;
        while let Some(cur) = cursor {
            assert!(
                hops <= self.hl(ctx.mem).max_slabs,
                "cycle in private free list at head {head_off:#x}"
            );
            hops += 1;
            let header = self.header(ctx, cur);
            if cur == slab {
                self.unlink_local(ctx, head_off, prev, header.next);
                return true;
            }
            prev = Some(cur);
            cursor = header.next.checked_sub(1);
        }
        false
    }

    /// Whether `slab` is on the private list at `head_off`.
    pub(crate) fn contains_local<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64, slab: u32) -> bool {
        let mut cursor = self.head_of(ctx, head_off);
        let mut hops = 0u32;
        while let Some(cur) = cursor {
            assert!(hops <= self.hl(ctx.mem).max_slabs, "cycle in private free list");
            hops += 1;
            if cur == slab {
                return true;
            }
            cursor = self.header(ctx, cur).next.checked_sub(1);
        }
        false
    }

    /// Walks the private list at `head_off`, up to `cap` nodes.
    pub(crate) fn list_len<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, head_off: u64, cap: u32) -> u32 {
        let mut n = 0;
        let mut cursor = self.head_of(ctx, head_off);
        while let Some(cur) = cursor {
            n += 1;
            if n >= cap {
                break;
            }
            cursor = self.header(ctx, cur).next.checked_sub(1);
        }
        n
    }

    // ---- slab acquisition -------------------------------------------------

    /// Initializes `slab` for `class` and links it into the calling
    /// thread's sized list. The slab must be owned by the caller and
    /// unlinked (freshly popped from the unsized list, the global list,
    /// or the heap end).
    fn init_slab<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8) {
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::InitSlab),
                a: slab,
                b: class,
                c: 0,
            },
            &[],
        );
        crash::point("slab::init::after_log");
        self.init_slab_body(ctx, slab, class);
        ctx.log().clear(ctx.core);
    }

    /// The body of slab initialization: the descriptor, then the link
    /// into the sized list unless the slab is already on it. The guard
    /// keeps the body idempotent; the caller acquires only for an empty
    /// sized list, so it costs one head load.
    fn init_slab_body<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8) {
        self.init_slab_desc(ctx, slab, class);
        if !self.contains_local(ctx, self.sized_head_off(ctx, class), slab) {
            self.push_local(ctx, self.sized_head_off(ctx, class), slab);
        }
    }

    /// Writes `slab`'s descriptor for `class` (header with a null
    /// `next`, free count, full bitset) and resets its remote-free
    /// counter. Idempotent; recovery's `InitSlab` redo calls it and
    /// links the slab itself.
    pub(crate) fn init_slab_desc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8) {
        let blocks = self.classes.blocks_per_slab(class);
        self.set_header(ctx, slab, SwccHeader {
            next: 0,
            owner: ctx.tid.raw(),
            class,
            flags: flags::SIZED,
        });
        self.set_free_count(ctx, slab, blocks);
        crash::point("slab::init::mid");
        self.bits(ctx, slab, class).set_all(ctx.core);
        // Reset the remote-free counter to the block count. A plain
        // store is safe: no block of this slab is live, so no thread can
        // be racing a remote free (§3.1.1).
        ctx.mem.store_u64(
            ctx.core,
            self.hl(ctx.mem).hwcc_desc_at(slab),
            Detect {
                version: 0,
                tid: 0,
                payload: blocks,
            }
            .pack(),
        );
    }

    /// Pops a slab from the global free list (paper §3.2.2's
    /// flush-before-load discipline on `next`). Returns `None` when the
    /// list is empty.
    fn pop_global<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) -> Option<u32> {
        let hl = self.hl(ctx.mem);
        let head_cell = hl.global_free;
        let dcas = ctx.dcas();
        loop {
            let head = dcas.read(ctx.core, head_cell);
            let slab = head.payload.checked_sub(1)?;
            // Readers flush before loading SWccDesc.next; a stale load is
            // caught by the CAS on the head (version mismatch). We don't
            // own slabs on the global list, so any rover we kept for this
            // one is forgotten too.
            if let Some(rovers) = ctx.rovers {
                rovers.forget(self.kind, slab);
            }
            ctx.mem.flush(ctx.core, hl.swcc_desc_at(slab), 8);
            let next = self.header(ctx, slab).next;
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::PopGlobal),
                    a: slab,
                    b: 0,
                    c: version,
                },
                &[],
            );
            crash::point("slab::pop_global::after_log");
            if dcas
                .attempt(ctx.core, head_cell, head, next, ctx.tid, version)
                .is_ok()
            {
                crash::point("slab::pop_global::after_cas");
                return Some(slab);
            }
            ctx.log().clear(ctx.core);
            ctx.mem.event(ctx.core, TraceKind::CasRetry, head_cell);
        }
    }

    /// Pushes `slab` (owned, unlinked, empty) onto the global free list.
    pub(crate) fn push_global<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) {
        let hl = self.hl(ctx.mem);
        let head_cell = hl.global_free;
        let dcas = ctx.dcas();
        loop {
            let head = dcas.read(ctx.core, head_cell);
            // Slabs on the global list are unowned and unsized.
            self.set_header(ctx, slab, SwccHeader {
                next: head.payload,
                owner: 0,
                class: 0,
                flags: 0,
            });
            // Ownership is about to change: flush + fence the descriptor
            // before publishing (§3.2.2).
            self.flush_desc(ctx, slab);
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::PushGlobal),
                    a: slab,
                    b: 0,
                    c: version,
                },
                &[],
            );
            crash::point("slab::push_global::after_log");
            if dcas
                .attempt(ctx.core, head_cell, head, slab + 1, ctx.tid, version)
                .is_ok()
            {
                crash::point("slab::push_global::after_cas");
                ctx.log().clear(ctx.core);
                return;
            }
            ctx.log().clear(ctx.core);
            ctx.mem.event(ctx.core, TraceKind::CasRetry, head_cell);
        }
    }

    /// Extends the heap by one slab; returns the new slab's index.
    fn extend<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) -> Option<u32> {
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        loop {
            let len = dcas.read(ctx.core, hl.global_len);
            if len.payload >= hl.max_slabs {
                return None;
            }
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::Extend),
                    a: len.payload,
                    b: 0,
                    c: version,
                },
                &[],
            );
            crash::point("slab::extend::after_log");
            if dcas
                .attempt(ctx.core, hl.global_len, len, len.payload + 1, ctx.tid, version)
                .is_ok()
            {
                crash::point("slab::extend::after_cas");
                let slab = len.payload;
                self.map_upto(ctx, slab as u64 + 1);
                return Some(slab);
            }
            ctx.log().clear(ctx.core);
        }
    }

    /// Installs this process's mappings up to `slabs` slabs (the three
    /// mappings of §3.3.1, modeled as the process's heap watermark).
    pub(crate) fn map_upto<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slabs: u64) {
        match self.kind {
            HeapKind::Small => ctx.process.map_small_upto(slabs),
            HeapKind::Large => ctx.process.map_large_upto(slabs),
            HeapKind::Huge => unreachable!(),
        }
    }

    /// Acquires a slab for `class` into the sized list, per the paper's
    /// transfer order: thread-local unsized list, global free list, heap
    /// extension.
    fn acquire<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, class: u8) -> Result<(), AllocError> {
        let slab = if let Some(slab) = self.head_of(ctx, self.unsized_head_off(ctx)) {
            // We log the init *before* popping so recovery can redo the
            // pop (the init body is idempotent and pops if still linked).
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(Op::InitSlab),
                    a: slab,
                    b: class,
                    c: 0,
                },
                &[],
            );
            crash::point("slab::init::after_log");
            self.pop_local(ctx, self.unsized_head_off(ctx));
            self.init_slab_body(ctx, slab, class);
            ctx.log().clear(ctx.core);
            return Ok(());
        } else if let Some(slab) = self.pop_global(ctx) {
            slab
        } else if let Some(slab) = self.extend(ctx) {
            slab
        } else {
            return Err(AllocError::OutOfMemory {
                heap: self.kind,
                size: self.classes.block_size(class) as usize,
            });
        };
        self.init_slab(ctx, slab, class);
        Ok(())
    }

    // ---- allocation ------------------------------------------------------

    /// Allocates `size` bytes; returns the block's segment offset.
    ///
    /// `detect_dst` is an optional segment offset of an 8-byte cell the
    /// caller will store the resulting pointer into; recovery uses it to
    /// decide whether an interrupted allocation reached the application
    /// (see `recovery.rs`).
    #[deny(clippy::integer_division_remainder_used)]
    pub(crate) fn alloc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, size: usize, detect_dst: u64) -> Result<u64, AllocError> {
        let class = self
            .classes
            .class_of(size)
            .ok_or(AllocError::InvalidSize { size })?;
        self.mark_dirty(ctx, class);
        loop {
            let Some(slab) = self.head_of(ctx, self.sized_head_off(ctx, class)) else {
                self.acquire(ctx, class)?;
                continue;
            };
            return Ok(self.alloc_block(ctx, slab, class, detect_dst));
        }
    }

    /// Allocates one block from `slab` (the head of the caller's sized
    /// list for `class`), handling the full-slab transition.
    #[deny(clippy::integer_division_remainder_used)]
    fn alloc_block<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8, detect_dst: u64) -> u64 {
        let bits = self.bits(ctx, slab, class);
        // Next-fit: start the scan at the volatile per-slab rover hint.
        // Any hint value is safe — the scan re-validates the durable
        // bitset word by word and wraps — and the log word below records
        // the *chosen* bit, so recovery never depends on scan order. A
        // crash here loses only the hint.
        let hint = ctx.rovers.map_or(0, |rovers| rovers.get(self.kind, slab));
        let found = bits
            .find_from(ctx.core, hint)
            .expect("sized-list invariant: slabs on sized lists are non-full");
        let bit = found.bit();
        crash::point("slab::alloc_block::rover");
        if let Some(rovers) = ctx.rovers {
            rovers.set(self.kind, slab, bit + 1);
        }
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: self.op(Op::AllocBlock),
                a: slab,
                b: class,
                c: bit as u16,
            },
            &[detect_dst],
        );
        crash::point("slab::alloc_block::after_log");
        // The word the scan loaded: only the owner writes it.
        bits.store_clear(ctx.core, found);
        let remaining = self.count(ctx, slab) - 1;
        self.set_count(ctx, slab, remaining);
        crash::point("slab::alloc_block::after_clear");
        if remaining == 0 {
            // The slab is now full: unlink it so the sized list only
            // holds non-full slabs, then detach or disown (Figure 4).
            self.pop_local(ctx, self.sized_head_off(ctx, class));
            crash::point("slab::alloc_block::after_unlink");
            self.full_transition(ctx, slab, class);
            crash::point("slab::alloc_block::after_transition");
        }
        self.finish_alloc(ctx, slab, class, bit, detect_dst)
    }

    /// Common allocation epilogue: deliver the pointer, retire the log
    /// entry, return the block offset.
    ///
    /// When the caller asked for detectability (`detect_dst != 0`), the
    /// block offset is stored into `*detect_dst` *before* the log entry
    /// is cleared. The redo log's `AllocBlock` handler keeps the block
    /// iff `*detect_dst` names it, so delivering here — rather than
    /// trusting the application to store after we return — closes the
    /// window where a crash between our return and the application's own
    /// store would leak the block. The store goes straight to the
    /// segment: `detect_dst` is application data, written exactly as the
    /// caller would have written it.
    #[deny(clippy::integer_division_remainder_used)]
    fn finish_alloc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8, bit: u32, detect_dst: u64) -> u64 {
        let block =
            self.hl(ctx.mem).slab_data_at(slab) + bit as u64 * self.classes.block_size(class) as u64;
        if detect_dst != 0 {
            ctx.mem
                .segment()
                .atomic_u64(detect_dst)
                .store(block, std::sync::atomic::Ordering::SeqCst);
            crash::point("slab::alloc_block::after_deliver");
        }
        ctx.log().clear(ctx.core);
        block
    }

    /// Detaches or disowns a just-full slab, per its remote counter.
    /// Idempotent (also used by recovery).
    pub(crate) fn full_transition<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, class: u8) {
        let hl = self.hl(ctx.mem);
        let remote = Detect::unpack(ctx.mem.load_u64(ctx.core, hl.hwcc_desc_at(slab))).payload;
        let blocks = self.classes.blocks_per_slab(class);
        if remote == blocks {
            // No remote frees: detach, keeping ownership. The descriptor
            // must be durable before our allocation returns, because the
            // final remote free may steal the slab and read it.
            self.flush_desc(ctx, slab);
        } else {
            // At least one remote free: disown so every subsequent free
            // takes the remote path and the whole slab drains (§3.2.1).
            let mut header = self.header(ctx, slab);
            header.owner = 0;
            self.set_header(ctx, slab, header);
            self.flush_desc(ctx, slab);
        }
    }

    // ---- deallocation ------------------------------------------------------

    /// Frees the block at segment offset `offset`, detectably when it
    /// has a `claim` ([`SlabHeap::begin_free`]).
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::NotAllocated`] for misaligned interior
    /// pointers, blocks that are already free, or slabs past the heap
    /// length; [`AllocError::ClaimLost`] for a lost claim.
    #[deny(clippy::integer_division_remainder_used)]
    pub(crate) fn dealloc<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, offset: u64, claim: Option<Claim>) -> Result<(), AllocError> {
        let hl = self.hl(ctx.mem);
        let slab = hl
            .slab_of(offset)
            .ok_or(AllocError::WildPointer { offset })?;
        // No heap-length check here: it would cost an HWcc read on every
        // free. A pointer past the heap length hits an all-zero
        // descriptor (owner 0 -> remote path -> zero counter) and is
        // rejected by the counter check.
        // Loading the owner from our own cache without flushing is safe:
        // the four-case analysis of §3.2.2. `header`'s claim and load,
        // written out so they inline here while recovery's many `header`
        // calls stay out of line (adoption runs cold, its code size is
        // its time).
        self.claim_rover(ctx, slab);
        let header = SwccHeader::unpack(ctx.mem.load_u64(ctx.core, hl.swcc_desc_at(slab)));
        if header.owner == ctx.tid.raw() {
            self.free_local(ctx, slab, header, offset, claim)
        } else {
            self.free_remote(ctx, slab, offset, claim)
        }
    }

    /// The unsynchronized local-free fast path.
    ///
    /// Applies the empty-slab hysteresis (argued where the slab
    /// empties, below): at most one fully-free slab per (thread, class)
    /// stays sized, and only while its list would otherwise go empty. An
    /// empty sized slab is a valid Figure-4 state for every checker, and
    /// the policy is live-path only — crash recovery still moves empty
    /// slabs to the unsized list (the paper's transition).
    #[deny(clippy::integer_division_remainder_used)]
    fn free_local<M: PodMemory + ?Sized>(
        &self,
        ctx: &Ctx<'_, M>,
        slab: u32,
        header: SwccHeader,
        offset: u64,
        claim: Option<Claim>,
    ) -> Result<(), AllocError> {
        let class = header.class;
        let within = offset - self.hl(ctx.mem).slab_data_at(slab);
        let bit = self
            .classes
            .index_of(class, within)
            .ok_or(AllocError::NotAllocated { offset })?;
        let bits = self.bits(ctx, slab, class);
        // The word tested here is the word set below: only the owner
        // writes it.
        let word = bits.load(ctx.core, bit);
        if word.is_set() {
            return Err(AllocError::NotAllocated { offset }); // double free
        }
        self.mark_dirty(ctx, class);
        self.begin_free(
            ctx,
            LogWord {
                op: self.op(Op::FreeLocal),
                a: slab,
                b: class,
                c: bit as u16,
            },
            claim,
            true,
        )?;
        crash::point("slab::free_local::after_log");
        let free = self.count(ctx, slab);
        bits.store_set(ctx.core, word);
        let now_free = free + 1;
        self.set_count(ctx, slab, now_free);
        crash::point("slab::free_local::after_set");
        if free == 0 {
            // It was detached (full + owned + unlinked): re-link it.
            self.push_local(ctx, self.sized_head_off(ctx, class), slab);
        }
        let mut stayed_sized = true;
        if now_free == self.classes.blocks_per_slab(class) {
            // Fully empty. Hysteresis: when this is the *only* slab on
            // the thread's sized list for its class, keep it sized — the
            // next same-class allocation reuses it directly instead of
            // paying the unsized-push + full re-init cycle (header,
            // count, bitset `set_all`, HWcc counter, `InitSlab` log
            // record). Retention is bounded to one empty slab per
            // (thread, class): keeping requires a singleton list, and no
            // second slab joins while the retained one still has free
            // blocks. Recovery is untouched — `normalize_slab` still
            // maps a crashed empty slab to the unsized list, which is a
            // valid (paper Figure-4) state the next allocation handles.
            let alone = self.head_of(ctx, self.sized_head_off(ctx, class)) == Some(slab)
                && self.header(ctx, slab).next == 0;
            if !alone {
                // Move from the sized list to the unsized list.
                self.remove_local(ctx, self.sized_head_off(ctx, class), slab);
                let mut h = self.header(ctx, slab);
                h.class = 0;
                h.flags = 0;
                self.set_header(ctx, slab, h);
                self.push_local(ctx, self.unsized_head_off(ctx), slab);
                stayed_sized = false;
            }
        }
        crash::point("slab::free_local::after_relink");
        ctx.log().clear(ctx.core);
        if stayed_sized {
            // Pull the rover back to the freed bit. Without this the
            // hint is pure next-fit: it marches past freed-behind
            // blocks until it falls off the end of the bitmap and the
            // wrap pass pays a full scan-from-zero — on a
            // fragmentation-adversarial shape that is every few
            // operations. With the pull-back the owner maintains
            // "no free bit below the rover" across *local* frees, so
            // `find_set_from` degenerates to exact first-fit at
            // one-word cost. Remote frees don't update the hint (the
            // freer doesn't own the rover); the wrap pass in
            // `find_set_from` keeps those reachable.
            if let Some(rovers) = ctx.rovers {
                if bit < rovers.get(self.kind, slab) {
                    rovers.set(self.kind, slab, bit);
                }
            }
        } else {
            // Only an op that pushed onto the unsized list can have taken
            // it past the limit.
            self.release_overflow(ctx);
        }
        Ok(())
    }

    /// Releases unsized slabs beyond the configured threshold to the
    /// global free list.
    ///
    /// It runs only after an op that pushed onto the caller's unsized
    /// list — the owner's empty-slab move in `free_local` and the steal
    /// at the end of a remote free — so the list never exceeds
    /// `unsized_limit` after a live op, and no other free walks it. The
    /// one way past the limit is adoption: the slabs recovery parks on
    /// a dead thread's unsized list stay there, over the limit if there
    /// are more, until the adopter's next unsized push (or
    /// `ThreadHandle::flush_local_caches`) releases the surplus.
    pub(crate) fn release_overflow<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) {
        let head_off = self.unsized_head_off(ctx);
        while self.list_len(ctx, head_off, ctx.unsized_limit + 1) > ctx.unsized_limit {
            let Some(slab) = self.pop_local(ctx, head_off) else {
                return;
            };
            crash::point("slab::push_global::after_pop");
            self.push_global(ctx, slab);
        }
    }

    /// The remote-free path: decrement the HWcc counter with detectable
    /// (m)CAS; steal the slab if we reach zero. A detectable free claims
    /// in its first attempt; a retry logs over the claimed record without
    /// clearing it, as an idle log would lose the claimed block.
    fn free_remote<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, offset: u64, claim: Option<Claim>) -> Result<(), AllocError> {
        if ctx.remote_free_batch > 1 {
            if let Some(buf) = ctx.remote {
                return self.free_remote_buffered(ctx, buf, slab, offset, claim);
            }
        }
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        let mut take = true;
        loop {
            let remote = dcas.read(ctx.core, hl.hwcc_desc_at(slab));
            if remote.payload == 0 {
                // Every block was already remotely freed; another free
                // into this slab is an application bug.
                if claim.is_some() {
                    ctx.log().clear(ctx.core);
                }
                return Err(AllocError::NotAllocated { offset });
            }
            let last = remote.payload == 1;
            let version = ctx.log().bump_version(ctx.core);
            self.begin_free(
                ctx,
                LogWord {
                    op: self.op(if last {
                        Op::RemoteFreeLast
                    } else {
                        Op::RemoteFree
                    }),
                    a: slab,
                    b: 0,
                    c: version,
                },
                claim,
                std::mem::take(&mut take),
            )?;
            crash::point("slab::remote_free::after_log");
            if dcas
                .attempt(
                    ctx.core,
                    hl.hwcc_desc_at(slab),
                    remote,
                    remote.payload - 1,
                    ctx.tid,
                    version,
                )
                .is_ok()
            {
                crash::point("slab::remote_free::after_cas");
                ctx.mem.event(ctx.core, TraceKind::RemoteFreePublish, 1);
                if last {
                    self.steal(ctx, slab);
                }
                ctx.log().clear(ctx.core);
                if last {
                    self.release_overflow(ctx);
                }
                return Ok(());
            }
            if claim.is_none() {
                ctx.log().clear(ctx.core);
            }
            ctx.mem
                .event(ctx.core, TraceKind::CasRetry, hl.hwcc_desc_at(slab));
        }
    }

    /// The batched remote-free path: validate the free against the live
    /// counter, buffer it, and publish the whole batch with a single
    /// detectable CAS once the slab's entry reaches `remote_free_batch`.
    ///
    /// Every buffered free holds one of the counter's remaining credits,
    /// so the payload can never reach zero while frees sit in the buffer
    /// — no steal or slab reinitialization can race the buffered state.
    /// A detectable free logs its claim and its pending-count record as
    /// one op, [`Op::RemoteNote`], after any eviction's publish.
    fn free_remote_buffered<M: PodMemory + ?Sized>(
        &self,
        ctx: &Ctx<'_, M>,
        buf: &RemoteFreeBuffer,
        slab: u32,
        offset: u64,
        claim: Option<Claim>,
    ) -> Result<(), AllocError> {
        let hl = self.hl(ctx.mem);
        let remote = ctx.dcas().read(ctx.core, hl.hwcc_desc_at(slab));
        // Double-free / wild-pointer parity with the eager path: the
        // payload must strictly exceed the already-buffered count for
        // one more free into this slab to be legal.
        let pending = buf.pending(self.kind, slab);
        if remote.payload <= pending {
            return Err(AllocError::NotAllocated { offset });
        }
        let (count, evicted) = buf.note(self.kind, slab);
        if let Some((vkind, vslab, vpending)) = evicted {
            SlabHeap::of(vkind).publish_remote_frees(ctx, vslab, vpending);
        }
        if claim.is_some() {
            let word = LogWord { op: self.op(Op::RemoteNote), a: slab, b: (count - 1) as u8, c: 0 };
            if let Err(lost) = self.begin_free(ctx, word, claim, true) {
                buf.unnote(self.kind, slab);
                return Err(lost);
            }
        }
        if count >= ctx.remote_free_batch {
            let k = buf.take(self.kind, slab);
            self.publish_remote_frees(ctx, slab, k);
        } else if ctx.recoverable {
            // Mirror the new pending count into the durable header line
            // so recovery can republish the batch if we die before the
            // publish. At the threshold the publish immediately clears
            // the word, so recording first would be wasted traffic.
            remote::durable::record(ctx, self.kind, slab, count);
            if claim.is_some() {
                ctx.log().clear(ctx.core);
            }
        }
        Ok(())
    }

    /// Publishes `k` buffered remote frees against `slab` with one
    /// detectable CAS decrementing the HWcc counter by `k`. The batch
    /// width travels in the oplog record's `b` byte (`k` ≤ 255 by the
    /// `remote_free_batch` clamp) so recovery redoes exactly the
    /// undelivered decrement. `k` is capped at the live payload as a
    /// defense against application double-frees that were never
    /// buffered; a zero payload drops the batch the same way the eager
    /// path would have rejected each free. Recovery redoes an undelivered
    /// decrement through this same function, so the live publish and the
    /// redo share one log, retire and CAS order.
    pub(crate) fn publish_remote_frees<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32, k: u32) {
        let hl = self.hl(ctx.mem);
        let dcas = ctx.dcas();
        loop {
            let remote = dcas.read(ctx.core, hl.hwcc_desc_at(slab));
            if remote.payload == 0 {
                // The batch is dropped, so its durable record must not
                // survive to be republished by a later recovery.
                if ctx.recoverable {
                    remote::durable::clear(ctx, self.kind, slab);
                }
                return;
            }
            let k_eff = k.min(remote.payload);
            let last = remote.payload == k_eff;
            let version = ctx.log().bump_version(ctx.core);
            ctx.log().begin(
                ctx.core,
                LogWord {
                    op: self.op(if last {
                        Op::RemoteFreeLast
                    } else {
                        Op::RemoteFree
                    }),
                    a: slab,
                    b: k_eff as u8,
                    c: version,
                },
                &[],
            );
            crash::point("slab::remote_free::publish_after_log");
            // Durably retire the batch's header word *before* the CAS:
            // once the decrement can have landed, no recovery may
            // republish it. A crash in between is covered by the oplog
            // record just written — the logged redo applies the
            // decrement and recovery's scan skips this slab's word.
            if ctx.recoverable {
                remote::durable::clear(ctx, self.kind, slab);
            }
            if dcas
                .attempt(
                    ctx.core,
                    hl.hwcc_desc_at(slab),
                    remote,
                    remote.payload - k_eff,
                    ctx.tid,
                    version,
                )
                .is_ok()
            {
                crash::point("slab::remote_free::publish_after_cas");
                ctx.mem
                    .event(ctx.core, TraceKind::RemoteFreePublish, k_eff as u64);
                if last {
                    self.steal(ctx, slab);
                }
                ctx.log().clear(ctx.core);
                if last {
                    self.release_overflow(ctx);
                }
                return;
            }
            ctx.log().clear(ctx.core);
            ctx.mem
                .event(ctx.core, TraceKind::CasRetry, hl.hwcc_desc_at(slab));
        }
    }

    /// Steals a fully-remotely-freed slab (detached or disowned, hence
    /// unlinked) onto our unsized list. Safe without coordination: with
    /// the counter at zero there can be no further allocation from or
    /// deallocation to this slab (§3.1.1).
    pub(crate) fn steal<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>, slab: u32) {
        self.set_header(ctx, slab, SwccHeader {
            next: 0,
            owner: ctx.tid.raw(),
            class: 0,
            flags: 0,
        });
        self.set_free_count(ctx, slab, 0);
        crash::point("slab::remote_free::before_steal_push");
        self.push_local(ctx, self.unsized_head_off(ctx), slab);
    }

    // ---- introspection ------------------------------------------------------

    /// Total data bytes mapped (heap length × slab size).
    pub fn mapped_bytes<M: PodMemory + ?Sized>(&self, mem: &M, core: CoreId) -> u64 {
        self.len(mem, core) as u64 * self.hl(mem).slab_size
    }
}
