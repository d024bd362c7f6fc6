//! The whole-heap audit: every runtime invariant of §5.1 and the
//! end-of-run "zero lost blocks" census, in one walk.
//!
//! "We compile cxlalloc with a host of runtime invariant checks, for
//! example: SWccDesc.owner is null when popping a slab from the global
//! free list, all slabs in thread-local sized free lists are non-full,
//! all free lists are acyclic."
//!
//! [`census`] checks, in order:
//! - every thread-registry cell holds a legal state;
//! - per slab heap, its length is within capacity; every free list is
//!   acyclic and names only mapped slabs; the global list's slabs are
//!   unowned and unsized, a thread's lists hold only its own slabs, and
//!   its sized list of class `c` only non-full slabs sized for `c`;
//! - per mapped sized slab, a valid class, `free_count` equal to its
//!   bitset population (counter credit), and an HWcc payload that
//!   accounts for at most its open blocks (below);
//! - every huge descriptor lies in the descriptor pool, no thread's
//!   descriptor list cycles, every extent lies inside the huge data
//!   region, and every reservation names a real thread slot.
//!
//! On the way it enumerates the exact set of allocated block offsets.
//! [`Cxlalloc::check_invariants`](crate::Cxlalloc::check_invariants)
//! is the same walk with the block list dropped. The serve harness
//! compares the census against its workers' ledgers: a block the heap
//! thinks is allocated but no ledger names is a *lost* block — memory
//! leaked by a crash — and a ledger entry the heap thinks is free is a
//! *phantom* (double-free / lost allocation record).
//!
//! The walk must run on a quiescent heap: concurrent transitions look
//! momentarily inconsistent, and concurrent allocation makes the bitsets
//! a moving target. It reads durable state (flushing the auditing
//! core's view first), so on software-coherent pods the owners must
//! have flushed or crashed.
//! Remote frees that were published to a slab's HWcc counter but not
//! yet applied to its bitset by the owner still count as allocated —
//! the block's bit is the ground truth the next owner recovers from.
//!
//! That last rule means a census over a heap with cross-thread frees
//! *over-counts* live blocks, by an amount the audit can compute
//! exactly: a sized slab's HWcc payload starts at `blocks` and is
//! decremented once per published-but-unapplied remote free, so
//! `blocks - payload` ([`SlabAudit::remote_pending`]) is precisely the
//! number of census-"allocated" blocks in that slab that are in fact
//! freed and merely awaiting the owner (or a crashed owner's heir).
//! [`remote_buffered`] adds the third population: frees a thread
//! batched in its durable [`Layout::remote_buf`](cxl_pod::Layout)
//! line that were never published at all — visible after a crash that
//! lands mid-batch. A ledger-vs-census audit that credits both terms
//! stays exact under any mix of remote frees and kills.

use std::fmt;

use crate::cell::{flags, Detect, SwccHeader};
use crate::slab::SlabHeap;
use cxl_pod::{CoreId, HeapLayout, PodMemory};

/// Per-slab detail of one sized slab the census walked: where its
/// blocks live and how many of its census-"allocated" blocks are in
/// fact remotely freed but not yet applied by the owner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabAudit {
    /// Which sized heap the slab belongs to.
    pub kind: crate::HeapKind,
    /// Slab index within its heap.
    pub slab: u32,
    /// Segment offset of the slab's first block.
    pub base: u64,
    /// Block size in bytes.
    pub block_size: u64,
    /// Blocks per slab for the slab's size class.
    pub blocks: u32,
    /// Blocks whose bitset bit is clear (census counts them allocated).
    pub open: u32,
    /// Published-but-unapplied remote frees: `blocks - HWcc payload`.
    /// Exactly this many of the slab's `open` blocks are actually free.
    pub remote_pending: u32,
}

impl SlabAudit {
    /// Whether `offset` falls inside this slab's block range.
    pub fn contains(&self, offset: u64) -> bool {
        offset >= self.base && offset < self.base + self.blocks as u64 * self.block_size
    }
}

/// One batch of remote frees found in a thread's durable
/// [`Layout::remote_buf`](cxl_pod::Layout) line: recorded against a
/// slab but never published to its HWcc counter. After a crash these
/// are frees the heap does not know about yet; a recovery pass
/// republishes them, and an audit must credit them like
/// [`SlabAudit::remote_pending`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedBatch {
    /// Thread slot whose durable line holds the batch.
    pub slot: u32,
    /// Which sized heap the batch targets.
    pub kind: crate::HeapKind,
    /// Target slab index.
    pub slab: u32,
    /// Frees in the batch.
    pub pending: u32,
}

/// The result of a full-heap walk: every allocated block, by heap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BlockCensus {
    /// Segment offsets of every allocated small-heap block, ascending.
    pub small: Vec<u64>,
    /// Segment offsets of every allocated large-heap block, ascending.
    pub large: Vec<u64>,
    /// Segment offsets of every live huge allocation, ascending.
    pub huge: Vec<u64>,
    /// Mapped slabs walked (small heap).
    pub small_slabs: u32,
    /// Mapped slabs walked (large heap).
    pub large_slabs: u32,
    /// Per-slab audit detail for every *sized* slab, in walk order
    /// (small heap first). Slabs with `open == 0 && remote_pending == 0`
    /// are omitted — only slabs that matter to an audit appear.
    pub slabs: Vec<SlabAudit>,
}

impl BlockCensus {
    /// Total allocated blocks across all three heaps.
    pub fn total(&self) -> usize {
        self.small.len() + self.large.len() + self.huge.len()
    }

    /// All allocated offsets across all three heaps, ascending.
    pub fn all_offsets(&self) -> Vec<u64> {
        let mut all: Vec<u64> =
            self.small.iter().chain(&self.large).chain(&self.huge).copied().collect();
        all.sort_unstable();
        all
    }

    /// Total published-but-unapplied remote frees across every slab:
    /// how many census-"allocated" blocks are actually free.
    pub fn remote_pending_total(&self) -> u64 {
        self.slabs.iter().map(|s| s.remote_pending as u64).sum()
    }
}

/// The allocation state of a single block, as probed by
/// [`block_state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockState {
    /// The block's bitset bit is clear (small/large) or its huge
    /// descriptor carries no free bit: the heap considers it allocated.
    Allocated,
    /// The heap considers the offset free (cleared bit, freed huge
    /// descriptor, unsized slab, or no descriptor at all).
    Free,
}

/// Probes whether the durable heap image considers `offset` allocated.
///
/// Used by crash adopters to reconcile an inherited allocation ledger:
/// a ledger cell naming a [`BlockState::Free`] offset is a phantom left
/// by a crash between a completed free and the ledger update, and must
/// be cleared. The probe only reads the slab that owns `offset` (or the
/// huge descriptor lists), so it is safe while *other* threads run —
/// the caller must own (or have adopted) the blocks it probes.
///
/// # Errors
///
/// A description of why the offset cannot be probed (outside every
/// heap, or a bogus descriptor on the way).
pub fn block_state(mem: &dyn PodMemory, core: CoreId, offset: u64) -> Result<BlockState, String> {
    let _scope = mem.op_scope(core);
    let layout = mem.layout();
    for heap in [SlabHeap::small(), SlabHeap::large()] {
        let hl = heap.hl(mem);
        if !hl.data.contains(offset) {
            continue;
        }
        let Some(slab) = hl.slab_of(offset) else {
            return Err(format!("{}: offset {offset:#x} maps to no slab", heap.kind));
        };
        let header = durable_header(mem, core, hl, slab);
        if header.flags & flags::SIZED == 0 {
            return Ok(BlockState::Free);
        }
        let blocks = heap.classes.blocks_per_slab(header.class);
        let size = heap.classes.block_size(header.class) as u64;
        let within = offset - hl.slab_data_at(slab);
        if !within.is_multiple_of(size) || (within / size) as u32 >= blocks {
            return Ok(BlockState::Free);
        }
        let bits = crate::bitset::BlockBits::new(mem, hl.bitset_at(slab), blocks);
        return Ok(if bits.get(core, (within / size) as u32) {
            BlockState::Free
        } else {
            BlockState::Allocated
        });
    }
    if layout.huge.data.contains(offset) {
        let found = walk_huge(mem, core, |base, freed| (base == offset).then_some(freed))?;
        return Ok(match found {
            Some(false) => BlockState::Allocated,
            _ => BlockState::Free,
        });
    }
    Err(format!("offset {offset:#x} is outside every heap"))
}

/// Walks the whole heap, checking every invariant the module doc
/// lists, and enumerates every allocated block.
///
/// # Errors
///
/// A human-readable description of the first violation found.
pub fn census(mem: &dyn PodMemory, core: CoreId) -> Result<BlockCensus, String> {
    let _scope = mem.op_scope(core);
    let layout = mem.layout();
    // Every registry cell holds a legal state. ADOPTING is legal but, in
    // a quiescent heap, suspicious: it means an adopter died mid-recovery.
    for slot in 0..layout.max_threads {
        let state = mem.load_u64(core, layout.registry_at(slot));
        if state > crate::liveness::registry::MAX {
            return Err(format!("registry: slot {slot} holds invalid state {state}"));
        }
    }
    let mut out = BlockCensus::default();
    for heap in [SlabHeap::small(), SlabHeap::large()] {
        let (offsets, walked) = match heap.kind {
            crate::HeapKind::Small => (&mut out.small, &mut out.small_slabs),
            _ => (&mut out.large, &mut out.large_slabs),
        };
        *walked = census_slab_heap(mem, core, &heap, offsets, &mut out.slabs)?;
    }
    // Freed descriptors linger on the list until a cleanup pass
    // recycles them; the free bit says the block is gone.
    walk_huge(mem, core, |offset, freed| {
        if !freed {
            out.huge.push(offset);
        }
        None::<()>
    })?;
    let hl = &layout.huge;
    for region in 0..hl.num_regions {
        let owner = Detect::unpack(mem.load_u64(core, hl.reservation_at(region))).payload;
        if owner > layout.max_threads {
            return Err(format!(
                "huge: region {region} owned by bogus thread {owner}"
            ));
        }
    }
    out.small.sort_unstable();
    out.large.sort_unstable();
    out.huge.sort_unstable();
    Ok(out)
}

/// Checks one slab heap: its length, its free lists, then every mapped
/// slab, appending each allocated block to `offsets` and each sized slab
/// that matters to an audit to `slabs`. Returns the number of slabs walked.
fn census_slab_heap(
    mem: &dyn PodMemory,
    core: CoreId,
    heap: &SlabHeap,
    offsets: &mut Vec<u64>,
    slabs: &mut Vec<SlabAudit>,
) -> Result<u32, String> {
    let hl = heap.hl(mem);
    let kind = heap.kind;
    let len = heap.len(mem, core);
    if len > hl.max_slabs {
        return Err(format!(
            "{kind}: heap length {len} exceeds capacity {}",
            hl.max_slabs
        ));
    }
    check_lists(mem, core, heap, len)?;
    for slab in 0..len {
        let header = durable_header(mem, core, hl, slab);
        if header.flags & flags::SIZED == 0 {
            // Unsized (or never-initialized): no block structure, no
            // allocated blocks. Its memory is wholly available.
            continue;
        }
        let class = header.class;
        let blocks = heap.classes.blocks_per_slab(class);
        if blocks == 0 {
            return Err(format!("{kind}: slab {slab} has bogus class {class}"));
        }
        let bits = crate::bitset::BlockBits::new(mem, hl.bitset_at(slab), blocks);
        let free = bits.count_set(core);
        let counted = mem.load_u64(core, hl.free_count_at(slab)) as u32;
        // Counter credit: owners may cache the count, but the audit
        // runs against the durable image, where the two must agree.
        if counted != free {
            return Err(format!(
                "{kind}: slab {slab} free count {counted} != bitset population {free}"
            ));
        }
        let base = hl.slab_data_at(slab);
        let size = heap.classes.block_size(class) as u64;
        for bit in 0..blocks {
            if !bits.get(core, bit) {
                offsets.push(base + bit as u64 * size);
            }
        }
        // The HWcc payload (hardware-coherent, no flush needed) starts
        // at `blocks` and loses one per published remote free the owner
        // has not applied — so `blocks - payload` of this slab's open
        // blocks are actually free.
        let payload = Detect::unpack(mem.load_u64(core, hl.hwcc_desc_at(slab))).payload;
        if payload > blocks {
            return Err(format!(
                "{kind}: slab {slab} HWcc payload {payload} exceeds {blocks} blocks"
            ));
        }
        let open = blocks - free;
        let remote_pending = blocks - payload;
        if remote_pending > open {
            return Err(format!(
                "{kind}: slab {slab} has {remote_pending} pending remote frees \
                 but only {open} open blocks"
            ));
        }
        if open > 0 || remote_pending > 0 {
            slabs.push(SlabAudit {
                kind,
                slab,
                base,
                block_size: size,
                blocks,
                open,
                remote_pending,
            });
        }
    }
    Ok(len)
}

/// Slab `slab`'s SWcc header as the durable image holds it. The auditor
/// may run on any core, so it first flushes its (possibly stale) view
/// of the whole descriptor — header, free count and bitset — and fences.
fn durable_header(mem: &dyn PodMemory, core: CoreId, hl: &HeapLayout, slab: u32) -> SwccHeader {
    mem.flush(core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
    mem.fence(core);
    SwccHeader::unpack(mem.load_u64(core, hl.swcc_desc_at(slab)))
}

/// Walks one slab list from `head` (slab index + 1; 0 is the end),
/// refusing an unmapped slab or a cycle, and fails with the first
/// complaint `check` makes about a slab's durable header.
fn walk_list(
    mem: &dyn PodMemory,
    core: CoreId,
    heap: &SlabHeap,
    len: u32,
    head: u32,
    list: fmt::Arguments<'_>,
    mut check: impl FnMut(u32, SwccHeader) -> Option<String>,
) -> Result<(), String> {
    let kind = heap.kind;
    let mut cursor = head.checked_sub(1);
    let mut hops = 0;
    while let Some(slab) = cursor {
        if slab >= len {
            return Err(format!("{kind}: {list} has unmapped slab {slab}"));
        }
        // More hops than mapped slabs means some slab came round twice.
        hops += 1;
        if hops > len {
            return Err(format!("{kind}: {list} cycles"));
        }
        let header = durable_header(mem, core, heap.hl(mem), slab);
        if let Some(problem) = check(slab, header) {
            return Err(format!("{kind}: slab {slab} on {list} {problem}"));
        }
        cursor = header.next.checked_sub(1);
    }
    Ok(())
}

/// Checks every free list of `heap`, whose first `len` slabs are mapped.
fn check_lists(mem: &dyn PodMemory, core: CoreId, heap: &SlabHeap, len: u32) -> Result<(), String> {
    let hl = heap.hl(mem);
    let global = Detect::unpack(mem.load_u64(core, hl.global_free)).payload;
    let list = format_args!("global list");
    walk_list(mem, core, heap, len, global, list, |_, header| {
        if header.owner != 0 {
            Some(format!("has owner {}", header.owner))
        } else {
            (header.flags & flags::SIZED != 0).then(|| "is sized".into())
        }
    })?;
    for slot in 0..mem.layout().max_threads {
        let owner = (slot + 1) as u16;
        let owned = |header: &SwccHeader| {
            (header.owner != owner).then(|| format!("is owned by {}", header.owner))
        };
        mem.flush(core, hl.local_unsized_at(slot), hl.local_stride);
        mem.fence(core);
        let head = mem.load_u64(core, hl.local_unsized_at(slot)) as u32;
        let list = format_args!("slot {slot}'s unsized list");
        walk_list(mem, core, heap, len, head, list, |_, header| owned(&header))?;
        for class in 0..hl.num_classes {
            let head = mem.load_u64(core, hl.local_sized_at(slot, class)) as u32;
            let list = format_args!("slot {slot}'s sized list {class}");
            walk_list(mem, core, heap, len, head, list, |slab, header| {
                owned(&header).or_else(|| {
                    if header.flags & flags::SIZED == 0 || header.class as u32 != class {
                        Some(format!(
                            "has class {} flags {:#x}",
                            header.class, header.flags
                        ))
                    } else {
                        (mem.load_u64(core, hl.free_count_at(slab)) == 0).then(|| "is full".into())
                    }
                })
            })?;
        }
    }
    Ok(())
}

/// Walks every thread's huge-descriptor list, refusing a descriptor
/// outside the descriptor pool, a cycle, or an extent outside the huge
/// data region, and hands each descriptor's block offset and free bit
/// to `visit`. The first `Some` that `visit` returns ends the walk.
fn walk_huge<T>(
    mem: &dyn PodMemory,
    core: CoreId,
    mut visit: impl FnMut(u64, bool) -> Option<T>,
) -> Result<Option<T>, String> {
    let layout = mem.layout();
    let hl = &layout.huge;
    for slot in 0..layout.max_threads {
        mem.flush(core, hl.local_descs_at(slot), 8);
        mem.fence(core);
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
            if size == 0 || !hl.data.contains(offset) || size > hl.data.end() - offset {
                return Err(format!(
                    "huge: descriptor {cursor:#x} covers bad range [{offset:#x}, +{size})"
                ));
            }
            if let Some(found) = visit(offset, mem.load_u64(core, cursor + 24) != 0) {
                return Ok(Some(found));
            }
            cursor = mem.load_u64(core, cursor);
        }
    }
    Ok(None)
}

/// Scans every thread slot's durable remote-free line and returns the
/// batches recorded there: frees buffered against a slab but never
/// published to its HWcc counter. On a quiesced heap of *live* threads
/// this is empty (quiesce points drain the buffers); after a crash it
/// holds exactly the batches the kill caught in flight, which a
/// ledger-vs-census audit must credit as already-freed.
///
/// Batches double-counted against a logged `RemoteFree*` redo are the
/// recovery scanner's concern ([`crate::recovery`]), not this one's:
/// by the time an audit runs, recovery has already republished or
/// cleared every line belonging to an adopted slot, so whatever this
/// scan still sees is genuinely unpublished.
pub fn remote_buffered(mem: &dyn PodMemory, core: CoreId) -> Vec<BufferedBatch> {
    let layout = mem.layout();
    let mut out = Vec::new();
    for slot in 0..layout.max_threads {
        for i in 0..crate::remote::durable::WORDS {
            let off = layout.remote_buf_word_at(slot, i);
            mem.flush(core, off, 8);
            mem.fence(core);
            let word = mem.load_u64(core, off);
            if let Some((kind, slab, pending)) = crate::remote::durable::unpack(word) {
                if pending > 0 {
                    out.push(BufferedBatch { slot, kind, slab, pending });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::{AttachOptions, Cxlalloc};
    use cxl_pod::{CoreId, Pod, PodConfig};

    fn heap() -> Cxlalloc {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap()
    }

    #[test]
    fn empty_heap_has_empty_census() {
        let heap = heap();
        let census = heap.census(CoreId(0)).unwrap();
        assert_eq!(census.total(), 0);
    }

    #[test]
    fn census_counts_exactly_the_live_blocks() {
        let heap = heap();
        let mut t = heap.register_thread().unwrap();
        let small: Vec<_> = (0..300).map(|_| t.alloc(64).unwrap()).collect();
        let large: Vec<_> = (0..5).map(|_| t.alloc(8192).unwrap()).collect();
        let huge = t.alloc(2 << 20).unwrap();
        t.flush_cache();

        let census = heap.census(t.core()).unwrap();
        assert_eq!(census.small.len(), 300);
        assert_eq!(census.large.len(), 5);
        assert_eq!(census.huge, vec![huge.offset()]);
        let mut want: Vec<u64> = small.iter().chain(&large).map(|p| p.offset()).collect();
        want.push(huge.offset());
        want.sort_unstable();
        assert_eq!(census.all_offsets(), want);

        // Free half; the census tracks exactly.
        for p in &small[..150] {
            t.dealloc(*p).unwrap();
        }
        t.dealloc(huge).unwrap();
        t.flush_cache();
        let census = heap.census(t.core()).unwrap();
        assert_eq!(census.small.len(), 150);
        assert_eq!(census.huge.len(), 0);
        let survivors: std::collections::BTreeSet<u64> =
            small[150..].iter().map(|p| p.offset()).collect();
        assert_eq!(
            census.small.iter().copied().collect::<std::collections::BTreeSet<u64>>(),
            survivors
        );
    }

    #[test]
    fn block_state_tracks_alloc_and_free() {
        use super::BlockState;
        let heap = heap();
        let mut t = heap.register_thread().unwrap();
        let small = t.alloc(64).unwrap();
        let large = t.alloc(8192).unwrap();
        let huge = t.alloc(2 << 20).unwrap();
        t.flush_cache();
        let mem = || heap.process().memory().clone();
        for p in [small, large, huge] {
            assert_eq!(
                super::block_state(mem().as_ref(), t.core(), p.offset()),
                Ok(BlockState::Allocated),
                "{p}"
            );
        }
        t.dealloc(small).unwrap();
        t.dealloc(huge).unwrap();
        t.flush_cache();
        assert_eq!(
            super::block_state(mem().as_ref(), t.core(), small.offset()),
            Ok(BlockState::Free)
        );
        assert_eq!(
            super::block_state(mem().as_ref(), t.core(), huge.offset()),
            Ok(BlockState::Free)
        );
        assert_eq!(
            super::block_state(mem().as_ref(), t.core(), large.offset()),
            Ok(BlockState::Allocated)
        );
        assert!(super::block_state(mem().as_ref(), t.core(), u64::MAX).is_err());
    }

    fn heap_with(options: AttachOptions) -> Cxlalloc {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        Cxlalloc::attach(pod.spawn_process(), options).unwrap()
    }

    #[test]
    fn census_accounts_for_pending_remote_frees() {
        let heap = heap();
        let mut a = heap.register_thread().unwrap();
        let mut b = heap.register_thread().unwrap();
        let blocks: Vec<_> = (0..20).map(|_| a.alloc(64).unwrap()).collect();
        a.flush_cache();

        // b frees 7 of a's blocks: owner mismatch takes the remote path,
        // and the default batch width of 1 publishes each immediately.
        for p in &blocks[..7] {
            b.dealloc(*p).unwrap();
        }
        b.flush_cache();
        a.flush_cache();

        let census = heap.census(a.core()).unwrap();
        // The bits stay clear until the payload drains, so the census
        // still "sees" all 20 — but the pending arithmetic knows 7 of
        // them are already free.
        assert_eq!(census.small.len(), 20);
        assert_eq!(census.remote_pending_total(), 7);
        let slab = census.slabs.iter().find(|s| s.remote_pending > 0).unwrap();
        assert_eq!(slab.kind, crate::HeapKind::Small);
        assert!(slab.open >= slab.remote_pending);
        for p in &blocks {
            assert!(slab.contains(p.offset()), "{p}");
        }
        assert_eq!(
            census.small.len() as u64 - census.remote_pending_total(),
            13,
            "effective live population must credit the pending frees"
        );
    }

    #[test]
    fn remote_buffered_sees_mid_batch_frees() {
        let heap = heap_with(AttachOptions {
            remote_free_batch: 8,
            ..AttachOptions::default()
        });
        let mut a = heap.register_thread().unwrap();
        let mut b = heap.register_thread().unwrap();
        let blocks: Vec<_> = (0..20).map(|_| a.alloc(64).unwrap()).collect();
        a.flush_cache();

        // 3 frees sit below the batch threshold of 8: buffered in DRAM,
        // mirrored in b's durable remote_buf line, unpublished.
        for p in &blocks[..3] {
            b.dealloc(*p).unwrap();
        }
        let mem = heap.process().memory().clone();
        let batches = super::remote_buffered(mem.as_ref(), a.core());
        assert_eq!(batches.len(), 1, "{batches:?}");
        assert_eq!(batches[0].slot, b.tid().slot());
        assert_eq!(batches[0].kind, crate::HeapKind::Small);
        assert_eq!(batches[0].pending, 3);
        // Unpublished means the payload has not moved yet.
        let census = heap.census(a.core()).unwrap();
        assert_eq!(census.remote_pending_total(), 0);
        assert_eq!(census.small.len(), 20);

        // The quiesce point publishes the batch: buffer empty, pending
        // arithmetic takes over.
        b.flush_cache();
        assert!(super::remote_buffered(mem.as_ref(), a.core()).is_empty());
        let census = heap.census(a.core()).unwrap();
        assert_eq!(census.remote_pending_total(), 3);
        assert_eq!(census.small.len(), 20);
    }

    #[test]
    fn census_spans_threads() {
        let heap = heap();
        let mut a = heap.register_thread().unwrap();
        let mut b = heap.register_thread().unwrap();
        let pa = a.alloc(64).unwrap();
        let pb = b.alloc(900).unwrap();
        a.flush_cache();
        b.flush_cache();
        let census = heap.census(a.core()).unwrap();
        assert_eq!(census.small.len(), 2);
        assert!(census.small.contains(&pa.offset()));
        assert!(census.small.contains(&pb.offset()));
    }
}
