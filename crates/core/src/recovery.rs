//! Non-blocking crash recovery (paper §3.4).
//!
//! A crashed thread's 8-byte log word names the operation it was inside;
//! recovery redoes that operation idempotently from durable ground truth:
//!
//! * **Block-level ops** (`AllocBlock`, `FreeLocal`) are normalized from
//!   the slab's bitset: the free count is recomputed, the slab is
//!   re-linked to the list its fullness dictates, and an interrupted
//!   allocation is rolled back unless the application demonstrably
//!   received the pointer (the *detectable allocation* destination cell,
//!   the same idea Memento-style recoverable structures rely on).
//! * **Detectable-CAS ops** (`Extend`, `PopGlobal`, `PushGlobal`,
//!   `RemoteFree*`, `HugeClaim`) query [`Dcas::detect`](crate::dcas::Dcas::detect) to learn whether
//!   the crashed CAS took effect, then either complete the operation's
//!   post-actions or redo it.
//! * **Detectable frees** (the log word's `DETECT_BIT`) are aborted
//!   when their destination still holds the value the claim expected,
//!   and otherwise redone like the plain free the record names.
//! * **Huge-heap ops** roll back an un-handed-out allocation (by marking
//!   the descriptor free, letting normal cleanup reclaim it) and roll
//!   frees and cleanups forward.
//!
//! Recovery never blocks live threads: it touches only the dead thread's
//! single-writer structures plus lock-free cells, exactly like a normal
//! operation. Recovery is itself crash-tolerant — every step is
//! idempotent, so a crashed recovery can simply be re-run
//! ([`CRASH_POINTS`] lets tests crash it).
//!
//! The sanitize pass walks, once each, only the dead thread's private
//! lists the crash could have torn: those its durable dirty-list mask
//! names (`oplog::DIRTY_WORD`; none on a coherent pod), both unsized
//! lists, and the logged op's class list. On a coherent pod that last
//! list is read only where the in-flight op can have written it: its
//! head and the logged slab (`sanitize_logged_list`). The redo finds the
//! logged slab where sanitize recorded it.

use crate::crash;
use crate::ctx::Ctx;
use crate::error::HeapKind;
use crate::huge::HugeHeap;
use crate::slab::SlabHeap;
use cxl_pod::{HwccMode, PodMemory};

/// Crash-point labels compiled into recovery itself (white-box tests
/// crash a recovery and run it again).
pub const CRASH_POINTS: &[&str] = &[
    "recovery::after_sanitize",
    "recovery::redo::after_unlink",
    "recovery::after_redo",
];

/// Operation codes stored in the log word. Slab ops are tagged with the
/// heap they apply to via [`Op::encode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Op {
    /// No operation in flight.
    Idle = 0,
    /// Heap extension: `a` = expected length, `c` = dcas version.
    Extend = 1,
    /// Global free-list pop: `a` = slab, `c` = version.
    PopGlobal = 2,
    /// Global free-list push: `a` = slab, `c` = version.
    PushGlobal = 3,
    /// Slab initialization / unsized→sized transfer: `a` = slab, `b` =
    /// class.
    InitSlab = 4,
    /// Block allocation: `a` = slab, `b` = class, `c` = bit, aux0 =
    /// detect destination.
    AllocBlock = 5,
    /// Local free: `a` = slab, `b` = class, `c` = bit.
    FreeLocal = 6,
    /// Remote free (not reaching zero): `a` = slab, `b` = batch width
    /// (0 on the eager path, meaning 1), `c` = version.
    RemoteFree = 7,
    /// Remote free reaching zero (steal): `a` = slab, `b` = batch
    /// width as above, `c` = version.
    RemoteFreeLast = 8,
    // Codes 9 and 10 are retired (the flat-combined remote-free
    // records); they stay unused so later codes do not move.
    /// A detectable remote free's claim and durable pending-count record
    /// (always with `DETECT_BIT`): `a` = slab, `b` = the slab's pending
    /// count before it.
    RemoteNote = 11,
    /// Huge allocation: aux = `[desc_off, data_off, size]`.
    HugeAlloc = 13,
    /// Huge free: aux = `[desc_off]`.
    HugeFree = 14,
    /// Reservation claim: `a` = region, `c` = version.
    HugeClaim = 15,
    /// Huge descriptor reclamation: aux = `[desc_off]`.
    HugeCleanup = 16,
}

/// Bit set in the encoded op byte for large-heap operations.
const LARGE_BIT: u8 = 0x40;

/// Bit set in the op byte of a detectable free: aux0 = the claimed cell,
/// aux1 = the value it must hold. A flag, not a nonzero aux word, as
/// `OpLog::begin` writes only the aux words it is given.
pub(crate) const DETECT_BIT: u8 = 0x80;

impl Op {
    /// Encodes with the heap tag.
    pub fn encode(self, kind: HeapKind) -> u8 {
        match kind {
            HeapKind::Small | HeapKind::Huge => self as u8,
            HeapKind::Large => self as u8 | LARGE_BIT,
        }
    }

    /// Decodes an op byte into the operation and its heap.
    pub fn decode(raw: u8) -> Option<(Op, HeapKind)> {
        let kind = if raw & LARGE_BIT != 0 {
            HeapKind::Large
        } else {
            HeapKind::Small
        };
        let op = match raw & !(LARGE_BIT | DETECT_BIT) {
            0 => Op::Idle,
            1 => Op::Extend,
            2 => Op::PopGlobal,
            3 => Op::PushGlobal,
            4 => Op::InitSlab,
            5 => Op::AllocBlock,
            6 => Op::FreeLocal,
            7 => Op::RemoteFree,
            8 => Op::RemoteFreeLast,
            11 => Op::RemoteNote,
            13 => Op::HugeAlloc,
            14 => Op::HugeFree,
            15 => Op::HugeClaim,
            16 => Op::HugeCleanup,
            _ => return None,
        };
        let kind = match op {
            Op::HugeAlloc | Op::HugeFree | Op::HugeClaim | Op::HugeCleanup => HeapKind::Huge,
            _ => kind,
        };
        Some((op, kind))
    }
}

/// What recovery found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The interrupted operation, if any.
    pub interrupted: Option<(Op, HeapKind)>,
    /// Human-readable outcome.
    pub outcome: &'static str,
    /// Offset of a block the durable log says was being allocated with
    /// no detect destination when the thread died: allocated, and
    /// recovery cannot prove the application got the pointer. The record
    /// of a *returned* `alloc` is durably cleared before it returns, so
    /// a block reported here was never handed out and the application
    /// (or harness) may reclaim it. `None` when recovery rolled the
    /// allocation back itself.
    pub lost_block: Option<u64>,
    /// Private lists of the dead thread that sanitize read: both unsized
    /// lists, the logged op's class list and every list the durable
    /// dirty-list mask names (all 49 without recovery state). On a fully
    /// coherent pod the mask stays 0, so at most 3, and the logged class
    /// list counts although sanitize reads only its head and the logged
    /// slab (and, for a local free into a slab further down the list,
    /// the headers ahead of it).
    pub lists_walked: u32,
    /// Walked lists on which sanitize unlinked a node, rewrote a free
    /// count or finished a full transition.
    pub lists_repaired: u32,
}

/// Runs recovery for the thread owning `ctx.tid` (a *dead* thread; the
/// context's core and process belong to the recovering thread).
pub(crate) fn recover<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>) -> RecoveryReport {
    // Structural repair precedes the logged-op redo. The dead thread
    // mutated its list heads and `next` links through its private SWcc
    // cache and only published slab descriptors at linearization
    // points, so the durable image of its private lists mixes epochs:
    // a head may still name a slab whose flushed descriptor says full
    // or disowned, and links may run into foreign chains. The redo log
    // cannot help — it covers only the one interrupted operation —
    // so the lists are validated against the flushed descriptors and
    // bitmaps (the durable ground truth): every list the crash could have
    // torn (`walk_set`). The log is read first (sanitize never writes it)
    // so the same walk records where the logged slab sits, and the redo
    // needs no walk of its own.
    let log = ctx.log();
    let entry = log.read(ctx.core);
    let decoded = Op::decode(entry.word.op);
    let logged_in = |heap: HeapKind| match decoded {
        Some((op, kind)) if op != Op::Idle && kind == heap => Some(entry.word.a),
        _ => None,
    };
    let walk = walk_set(ctx, &entry);
    let in_flight = InFlight::of(ctx, &entry);
    let mut report = RecoveryReport {
        interrupted: None,
        outcome: "",
        lost_block: None,
        lists_walked: 0,
        lists_repaired: 0,
    };
    let mut visited = Visited::default();
    let mut sanitize = |heap: &SlabHeap| {
        let in_flight = in_flight.filter(|f| f.kind == heap.kind);
        sanitize_slab_lists(ctx, heap, walk, &mut visited, logged_in(heap.kind), in_flight, &mut report)
    };
    let small = sanitize(&SlabHeap::small());
    let large = sanitize(&SlabHeap::large());
    let place = small.or(large);
    crash::point("recovery::after_sanitize");
    let Some((op, kind)) = decoded else {
        log.clear(ctx.core);
        republish_remote_buffer(ctx, None);
        flush_thread_lines(ctx);
        report.outcome = "unknown op cleared";
        return report;
    };
    if op == Op::Idle {
        republish_remote_buffer(ctx, None);
        flush_thread_lines(ctx);
        report.outcome = "idle";
        return report;
    }
    // A detectable free's claim is its first store after `begin`, so
    // one whose `dst` still holds `seen` did nothing: it is aborted, not
    // redone. A lost claim rewrote `seen` to the value it found first.
    let aborted = entry.word.op & DETECT_BIT != 0
        && ctx.mem.segment().atomic_u64(entry.aux[0]).load(std::sync::atomic::Ordering::SeqCst) == entry.aux[1];
    // The durable-buffer scan must skip the batch a logged
    // `RemoteFree*` record already covers: a record whose CAS never
    // landed is applied by the logged redo. Evaluated *before* the redo,
    // which reruns the CAS with a newer version (making the logged
    // version undetectable).
    let mut scan_skip = None;
    if !aborted && matches!(op, Op::RemoteFree | Op::RemoteFreeLast) && kind != HeapKind::Huge {
        let heap = SlabHeap::of(kind);
        let cell = heap.hl(ctx.mem).hwcc_desc_at(entry.word.a);
        if !ctx.dcas().detect(ctx.core, cell, ctx.tid, entry.word.c) {
            scan_skip = Some((kind, entry.word.a));
        }
    }
    report.interrupted = Some((op, kind));
    report.outcome = "redone";
    match kind {
        _ if aborted => report.outcome = "detectable free aborted",
        HeapKind::Small | HeapKind::Large => {
            recover_slab(ctx, &SlabHeap::of(kind), op, &entry, place, &mut report);
        }
        HeapKind::Huge => recover_huge(ctx, op, &entry, &mut report),
    }
    crash::point("recovery::after_redo");
    // Republish batched remote frees the dead thread had buffered but
    // not yet published. Each publish is itself logged and leaves the
    // log idle again, so this must precede the final log clear only in
    // program order. Its steals edit the unsized list, so the logged
    // slab's place is stale from here on; nothing below reads it.
    republish_remote_buffer(ctx, scan_skip);
    log.clear(ctx.core);
    // Everything recovery wrote must be durable before the slot is
    // reused: flush the thread's local-head lines.
    flush_thread_lines(ctx);
    report
}

/// Scans the dead thread's durable remote-free header line and
/// republishes every batch whose decrement never reached its HWcc
/// counter. `skip` names the batch the thread's logged `RemoteFree*`
/// redo already covers: its word is cleared without republishing
/// (publishing again would double-decrement the counter). Closes the
/// pre-PR-5 `SLOTS × (batch − 1)` leak of buffered-but-unpublished
/// frees.
fn republish_remote_buffer<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, skip: Option<(HeapKind, u32)>) {
    use crate::remote::durable;
    if !ctx.recoverable {
        return;
    }
    let layout = ctx.mem.layout();
    let line = layout.remote_buf_at(ctx.tid.slot());
    // Drop any stale view the recovering core holds of the line before
    // reading the durable image.
    ctx.mem.flush(ctx.core, line, cxl_pod::CACHELINE);
    ctx.mem.fence(ctx.core);
    for i in 0..durable::WORDS {
        let off = durable::word_at(ctx, i);
        let word = ctx.mem.load_u64(ctx.core, off);
        let Some((kind, slab, pending)) = durable::unpack(word) else {
            continue;
        };
        if skip == Some((kind, slab)) || pending == 0 {
            durable::clear_word(ctx, off);
            continue;
        }
        // The publish durably clears the slab's word before its CAS (or
        // on the zero-counter drop path), so the line is empty once the
        // loop completes.
        SlabHeap::of(kind).publish_remote_frees(ctx, slab, pending);
    }
}

/// Flushes the dead thread's local free-list heads so repairs are
/// durable (the recovering core wrote them through its own cache).
fn flush_thread_lines<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>) {
    let layout = ctx.mem.layout();
    let slot = ctx.tid.slot();
    ctx.mem.flush(
        ctx.core,
        layout.small.local_unsized_at(slot),
        layout.small.local_stride,
    );
    ctx.mem.flush(
        ctx.core,
        layout.large.local_unsized_at(slot),
        layout.large.local_stride,
    );
    ctx.mem.flush(
        ctx.core,
        layout.huge.local_descs_at(slot),
        layout.huge.local_stride,
    );
    ctx.mem.fence(ctx.core);
}

/// Visited marks for [`sanitize_list`], one scratch for all the lists of
/// one recovery: `touched` names the slabs the list now being walked has
/// visited. A list's first [`Visited::LINEAR`] nodes are looked up there
/// directly, so a recovery whose lists are all short (on a coherent pod,
/// every list walked in full is an unsized one) never allocates the
/// bitmap. A longer list spills its marks into `bits`, one bit per slab,
/// and the next list clears just the bits it set.
#[derive(Default)]
struct Visited {
    bits: Vec<u64>,
    touched: Vec<u32>,
    spilled: bool,
}

impl Visited {
    /// Nodes of one list looked up without the bitmap.
    const LINEAR: usize = 16;

    /// Starts a new list.
    fn next_list(&mut self) {
        if self.spilled {
            for &slab in &self.touched {
                self.bits[slab as usize / 64] &= !(1 << (slab % 64));
            }
            self.spilled = false;
        }
        self.touched.clear();
    }

    /// Marks `slab` of a heap of `len` slabs (`slab < len`); returns
    /// whether the current list had already visited it.
    fn revisit(&mut self, slab: u32, len: u32) -> bool {
        if !self.spilled {
            if self.touched.contains(&slab) {
                return true;
            }
            if self.touched.len() == Self::LINEAR {
                let words = len.div_ceil(64) as usize;
                if self.bits.len() < words {
                    self.bits.resize(words, 0);
                }
                for &seen in &self.touched {
                    self.bits[seen as usize / 64] |= 1 << (seen % 64);
                }
                self.spilled = true;
            }
        }
        if self.spilled {
            let (word, bit) = (&mut self.bits[slab as usize / 64], 1 << (slab % 64));
            if *word & bit != 0 {
                return true;
            }
            *word |= bit;
        }
        self.touched.push(slab);
        false
    }
}

/// Where a slab sits on the dead thread's sanitized private lists: the
/// list that keeps it and its kept predecessor there.
///
/// Exact from the moment sanitize records it until the redo edits a
/// list. After sanitize every node on any list is kept, and a node is
/// kept only on the list its durable header names, so a slab sits on
/// at most one list. Its predecessor is never rewritten once recorded:
/// sanitize's unlinks rewrite only the previous *kept* node's `next`
/// (the slab itself, or a node after it) or the head of a list with no
/// kept node yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Place {
    /// Head offset of the list.
    head_off: u64,
    /// The kept predecessor; `None` when the slab is the head.
    prev: Option<u32>,
}

/// A block-level op (`InitSlab`, `AllocBlock`, `FreeLocal`) in flight on
/// a coherent pod, whose class list the durable mask does not name: the
/// list [`sanitize_logged_list`] reads only where the op can have
/// written it. A forced or marked list is walked in full.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    op: Op,
    kind: HeapKind,
    slab: u32,
    class: u8,
    /// The logged bit (`AllocBlock`, `FreeLocal`).
    bit: u32,
}

impl InFlight {
    fn of<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, entry: &crate::oplog::LogEntry) -> Option<Self> {
        let Some((op @ (Op::InitSlab | Op::AllocBlock | Op::FreeLocal), kind)) = Op::decode(entry.word.op) else {
            return None;
        };
        let class = entry.word.b;
        let marked = entry.dirty & SlabHeap::of(kind).list_bit(Some(class)) != 0;
        (ctx.mem.hwcc_mode() == HwccMode::Full && !marked).then_some(InFlight {
            op,
            kind,
            slab: entry.word.a,
            class,
            bit: u32::from(entry.word.c),
        })
    }
}

/// The dead thread's lists the crash could have torn, as a dirty-list
/// mask ([`SlabHeap::list_bit`]): every list the durable mask names,
/// both unsized lists, and the logged op's class list. On a fully
/// coherent pod the mask stays 0 (no store can die with its thread), so
/// the set is just the lists the in-flight op or an unlogged unsized
/// edit can have torn, and the logged class list is read only where the
/// op wrote it ([`sanitize_logged_list`]).
///
/// A sized list outside that set has had no owner write since the last
/// point where the thread's whole cache was durable, and nobody else
/// writes an owned list or an owned slab's SWcc descriptor, so its
/// durable image is the consistent one from that point. The unsized
/// lists are edited outside a logged `begin` (overflow releases, steals,
/// the redo). The logged class list is the one the redo pushes onto, so
/// a rerun of a crashed recovery must find the slab there. Without
/// recovery state the mask is inert and every list is walked.
fn walk_set<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, entry: &crate::oplog::LogEntry) -> u64 {
    if !ctx.recoverable {
        return !0;
    }
    let logged_class = match Op::decode(entry.word.op) {
        Some((Op::InitSlab | Op::AllocBlock | Op::FreeLocal, kind)) => SlabHeap::of(kind).list_bit(Some(entry.word.b)),
        _ => 0,
    };
    entry.dirty | SlabHeap::small().list_bit(None) | SlabHeap::large().list_bit(None) | logged_class
}

/// Restores the dead thread's private free lists of `heap` that `walk`
/// names to a state satisfying the list invariants, using only durable
/// data, and counts them into `report`. `in_flight` is this heap's op in
/// flight on a coherent pod, whose class list is read only where the op
/// wrote it. Returns the [`Place`] of `logged` (the slab the log names,
/// when it names one in this heap), or `None` if no walked list keeps it.
fn sanitize_slab_lists<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    walk: u64,
    visited: &mut Visited,
    logged: Option<u32>,
    in_flight: Option<InFlight>,
    report: &mut RecoveryReport,
) -> Option<Place> {
    let hl = heap.hl(ctx.mem);
    // Drop any lines the recoverer itself may hold over the thread's
    // heads before reading the durable image.
    ctx.mem.flush(
        ctx.core,
        hl.local_unsized_at(ctx.tid.slot()),
        hl.local_stride,
    );
    ctx.mem.fence(ctx.core);
    let lists = std::iter::once(None).chain((0..hl.num_classes as u8).map(Some));
    let mut place = None;
    for class in lists.filter(|&class| walk & heap.list_bit(class) != 0) {
        let head_off = match class {
            None => heap.unsized_head_off(ctx),
            Some(c) => heap.sized_head_off(ctx, c),
        };
        let targeted = in_flight
            .filter(|f| class == Some(f.class))
            .and_then(|f| sanitize_logged_list(ctx, heap, head_off, f));
        let (found, repaired) =
            targeted.unwrap_or_else(|| sanitize_list(ctx, heap, head_off, class, visited, logged));
        report.lists_walked += 1;
        report.lists_repaired += u32::from(repaired);
        if found.is_some() {
            debug_assert!(place.is_none(), "slab kept on two lists");
            place = found;
        }
    }
    place
}

/// Walks one private list in durable state and unlinks every node that
/// does not belong there (`class` is `None` for the unsized list).
/// Kept sized nodes get their free count recomputed from the durable
/// bitmap; nodes the bitmap shows full are unlinked and re-detached.
/// Unlinking rewrites only the head or the previous *kept* node's
/// `next`, never a foreign header, so chains that strayed into another
/// list's slabs drain without corrupting that list. Unmapped indices
/// and revisits within this list (stale links can tie cycles) truncate
/// the remainder. Returns the [`Place`] of `logged` if this list keeps
/// it, and whether the list needed a repair: an unlink, a rewritten free
/// count or a finished full transition. On a coherent pod every list it
/// walks there is an unsized one, a marked one, or a logged class list
/// [`sanitize_logged_list`] handed back.
fn sanitize_list<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    head_off: u64,
    class: Option<u8>,
    visited: &mut Visited,
    logged: Option<u32>,
) -> (Option<Place>, bool) {
    let hl = heap.hl(ctx.mem);
    // Read per list, not per recovery: a live thread may extend the heap
    // meanwhile, and the load is part of the simulated op stream.
    let len = heap.len(ctx.mem, ctx.core);
    visited.next_list();
    let tid_raw = ctx.tid.raw();
    let mut prev: Option<u32> = None;
    let mut place = None;
    let mut repaired = false;
    let mut cursor = (ctx.mem.load_u64(ctx.core, head_off) as u32).checked_sub(1);
    while let Some(slab) = cursor {
        if slab >= len || visited.revisit(slab, len) {
            unlink_after(ctx, heap, head_off, prev, 0);
            return (place, true);
        }
        ctx.mem
            .flush(ctx.core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
        ctx.mem.fence(ctx.core);
        let header = heap.header(ctx, slab);
        let sized = header.flags & crate::cell::flags::SIZED != 0;
        let mut keep = header.owner == tid_raw
            && match class {
                None => !sized,
                Some(c) => sized && header.class == c,
            };
        if keep {
            if let Some(c) = class {
                let free = heap.bits(ctx, slab, c).count_set(ctx.core);
                if heap.free_count(ctx, slab) != free {
                    heap.set_free_count(ctx, slab, free);
                    repaired = true;
                }
                if free == 0 {
                    // Durably full: the owner's unlink + detach never
                    // became durable. Finish it.
                    heap.full_transition(ctx, slab, c);
                    keep = false;
                } else {
                    heap.flush_desc(ctx, slab);
                }
            }
        }
        if keep {
            if logged == Some(slab) {
                place = Some(Place { head_off, prev });
            }
            prev = Some(slab);
        } else {
            unlink_after(ctx, heap, head_off, prev, header.next);
            repaired = true;
        }
        cursor = header.next.checked_sub(1);
    }
    (place, repaired)
}

/// Sanitizes the logged class list of an op in flight on a coherent
/// pod, reading it only where that op can have written it. Every store
/// made before the op is visible there, so only the op's own edits can
/// be torn, and each edits the list in one place:
///
/// * `InitSlab` pushes the slab onto the list (empty: the owner acquires
///   only for an empty list); `AllocBlock` pops it off the head when it
///   goes full. The slab is the head or on no list.
/// * `FreeLocal` relinks a slab that was full at the head, or unlinks the
///   slab it empties from wherever it sits. A sized slab the owner holds
///   is on its list unless it is full, so the slab is on the list before
///   the free unless the freed block was its only free one.
///
/// A recovery that crashed at one of its own labels leaves the same
/// shapes: its redo unlinks the logged slab and pushes it at a head. So
/// sanitize reads the head and the logged slab, and recounts only that
/// slab's bitmap. Only for a `FreeLocal` whose slab sits further down the
/// list does it walk to it, loading headers only: the redo moves the
/// slab, so it needs the predecessor. Repairs are the ones
/// [`sanitize_list`] makes to the logged slab, which is every repair it
/// can make on such a list: no other node was written since the list was
/// last whole.
///
/// Returns `None`, having written nothing, when the logged slab or that
/// walk meets a shape no coherent pod leaves (an index past the heap, or
/// more links than slabs); the caller then walks the whole list.
fn sanitize_logged_list<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    head_off: u64,
    f: InFlight,
) -> Option<(Option<Place>, bool)> {
    let hl = heap.hl(ctx.mem);
    let len = heap.len(ctx.mem, ctx.core);
    let slab = f.slab;
    if slab >= len {
        return None;
    }
    let head = (ctx.mem.load_u64(ctx.core, head_off) as u32).checked_sub(1);
    ctx.mem
        .flush(ctx.core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
    ctx.mem.fence(ctx.core);
    let header = heap.header(ctx, slab);
    let belongs = header.owner == ctx.tid.raw()
        && header.flags & crate::cell::flags::SIZED != 0
        && header.class == f.class;
    let bits = heap.bits(ctx, slab, f.class);
    let free = bits.count_set(ctx.core);
    // Listed: `Some(prev)`, `prev` `None` at the head.
    let listed = if head == Some(slab) {
        Some(None)
    } else if f.op == Op::FreeLocal && belongs && free + u32::from(!bits.get(ctx.core, f.bit)) > 1 {
        let (mut prev, mut cursor, mut hops) = (None, head, 0);
        loop {
            match cursor {
                None => break None,
                Some(node) if node >= len || hops >= len => return None,
                Some(node) if node == slab => break Some(prev),
                Some(node) => {
                    prev = Some(node);
                    hops += 1;
                    cursor = heap.header(ctx, node).next.checked_sub(1);
                }
            }
        }
    } else {
        None
    };
    let Some(prev) = listed else {
        return Some((None, false));
    };
    // A head whose header names another list is dropped from this one,
    // as the full walk drops it.
    if !belongs {
        unlink_after(ctx, heap, head_off, None, header.next);
        return Some((None, true));
    }
    let mut repaired = false;
    if heap.free_count(ctx, slab) != free {
        heap.set_free_count(ctx, slab, free);
        repaired = true;
    }
    if free == 0 {
        // Durably full: finish the owner's unlink + detach.
        heap.full_transition(ctx, slab, f.class);
        unlink_after(ctx, heap, head_off, prev, header.next);
        return Some((None, true));
    }
    heap.flush_desc(ctx, slab);
    Some((Some(Place { head_off, prev }), repaired))
}

/// Points the list at `head_off` past an unlinked node: rewrites the
/// head (no kept predecessor) or the previous kept node's `next`, and
/// makes a rewritten node durable.
fn unlink_after<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, heap: &SlabHeap, head_off: u64, prev: Option<u32>, next_raw: u32) {
    heap.unlink_local(ctx, head_off, prev, next_raw);
    if let Some(p) = prev {
        heap.flush_desc(ctx, p);
    }
}

/// Flushes (invalidates) the recovering core's view of the dead thread's
/// slab descriptor and list heads before reading them — the recoverer
/// may hold stale cached lines.
fn refresh_slab_view<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, heap: &SlabHeap, slab: u32) {
    let hl = heap.hl(ctx.mem);
    ctx.mem
        .flush(ctx.core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
    ctx.mem.flush(
        ctx.core,
        hl.local_unsized_at(ctx.tid.slot()),
        hl.local_stride,
    );
    ctx.mem.fence(ctx.core);
}

/// Redoes the slab-heap op the log names. `place` is where sanitize
/// found the logged slab; every redo path reads it instead of walking
/// the lists, and the redo's first list edit consumes it.
fn recover_slab<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    op: Op,
    entry: &crate::oplog::LogEntry,
    place: Option<Place>,
    report: &mut RecoveryReport,
) {
    let hl = heap.hl(ctx.mem);
    let dcas = ctx.dcas();
    let slab = entry.word.a;
    let version = entry.word.c;
    let on_unsized = place.is_some_and(|p| p.head_off == heap.unsized_head_off(ctx));
    match op {
        Op::Idle => {}
        Op::Extend => {
            if dcas.detect(ctx.core, hl.global_len, ctx.tid, version) {
                // The CAS landed: slab `a` is ours and orphaned.
                refresh_slab_view(ctx, heap, slab);
                heap.map_upto(ctx, slab as u64 + 1);
                park_orphan(ctx, heap, slab, place);
                report.outcome = "extend completed; slab parked on unsized list";
            } else {
                report.outcome = "extend had not happened";
            }
        }
        Op::PopGlobal => {
            if dcas.detect(ctx.core, hl.global_free, ctx.tid, version) {
                refresh_slab_view(ctx, heap, slab);
                park_orphan(ctx, heap, slab, place);
                report.outcome = "pop completed; slab parked on unsized list";
            } else {
                report.outcome = "pop had not happened";
            }
        }
        Op::PushGlobal => {
            refresh_slab_view(ctx, heap, slab);
            if dcas.detect(ctx.core, hl.global_free, ctx.tid, version) {
                // The slab is on the global list; it must not also be on
                // any of our private lists (the pop precedes the CAS,
                // but be defensive — and a stale sized-list link from a
                // lost cached epoch may still be durable).
                unlink_logged(ctx, heap, slab, place);
                report.outcome = "push completed";
            } else if on_unsized {
                // Crash before the pop: nothing happened.
                report.outcome = "push had not happened";
            } else {
                // Popped but not pushed: complete the push.
                heap.push_global(ctx, slab);
                report.outcome = "push redone";
            }
        }
        Op::InitSlab => {
            refresh_slab_view(ctx, heap, slab);
            // Still on the unsized list if the pop was lost, or on an
            // old class's list (see `unlink_logged`).
            unlink_logged(ctx, heap, slab, place);
            let class = entry.word.b;
            heap.init_slab_desc(ctx, slab, class);
            heap.push_local(ctx, heap.sized_head_off(ctx, class), slab);
            heap.flush_desc(ctx, slab);
            report.outcome = "init redone";
        }
        Op::AllocBlock => {
            refresh_slab_view(ctx, heap, slab);
            let class = entry.word.b;
            let bit = entry.word.c as u32;
            let bits = heap.bits(ctx, slab, class);
            if !bits.get(ctx.core, bit) {
                // The block was allocated. Did the application get the
                // pointer? Only if the detect destination holds it.
                let block_off =
                    hl.slab_data_at(slab) + bit as u64 * heap.classes.block_size(class) as u64;
                let dst = entry.aux[0];
                let delivered = dst != 0
                    && ctx.mem.segment().atomic_u64(dst).load(std::sync::atomic::Ordering::SeqCst)
                        == block_off;
                if delivered {
                    report.outcome = "allocation delivered; kept";
                } else if dst != 0 {
                    bits.set(ctx.core, bit);
                    report.outcome = "allocation rolled back";
                } else {
                    // No detect destination: we cannot prove the app
                    // didn't get it. Keep it allocated, report it.
                    report.lost_block = Some(block_off);
                    report.outcome = "allocation kept; reported as lost";
                }
            } else {
                report.outcome = "allocation had not happened";
            }
            normalize_slab(ctx, heap, slab, class, place);
        }
        Op::FreeLocal => {
            refresh_slab_view(ctx, heap, slab);
            let class = entry.word.b;
            let bit = entry.word.c as u32;
            // Redo: the target state is "block free".
            heap.bits(ctx, slab, class).set(ctx.core, bit);
            normalize_slab(ctx, heap, slab, class, place);
            report.outcome = "free redone";
        }
        Op::RemoteFree | Op::RemoteFreeLast => {
            let cell = hl.hwcc_desc_at(slab);
            if dcas.detect(ctx.core, cell, ctx.tid, version) {
                if op == Op::RemoteFreeLast {
                    refresh_slab_view(ctx, heap, slab);
                    if !on_unsized {
                        heap.steal(ctx, slab);
                    }
                    heap.flush_desc(ctx, slab);
                    report.outcome = "final remote free completed; slab stolen";
                } else {
                    report.outcome = "remote free completed";
                }
            } else {
                // The decrement never landed: redo it through the live
                // publish, by the logged batch width (eager records carry
                // b = 0, meaning 1). The publish logs the redo under its
                // own version and retires the slab's durable buffer word
                // before its CAS, so a rerun of a recovery that dies
                // after the CAS detects the redo instead of redoing it
                // again; a rerun after a crash at one of the publish's own
                // labels finds the redo's record the same way. The view
                // refresh and the descriptor flush bracket a steal the
                // publish may do.
                refresh_slab_view(ctx, heap, slab);
                heap.publish_remote_frees(ctx, slab, (entry.word.b as u32).max(1));
                heap.flush_desc(ctx, slab);
                report.outcome = "remote free redone";
            }
        }
        Op::RemoteNote => {
            // Claimed: one more free buffered against the slab, which the
            // scan below republishes.
            crate::remote::durable::raise(ctx, heap.kind, slab, u32::from(entry.word.b) + 1);
            report.outcome = "buffered remote free recorded";
        }
        _ => unreachable!("huge ops dispatched separately"),
    }
}

/// Parks an orphaned, freshly acquired slab on the dead thread's unsized
/// list (idempotent).
fn park_orphan<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, heap: &SlabHeap, slab: u32, place: Option<Place>) {
    let unsized_off = heap.unsized_head_off(ctx);
    if place.is_some_and(|p| p.head_off == unsized_off) {
        return;
    }
    // A reacquired slab may still carry a stale sized-list link from a
    // lost cached epoch of this same thread; clear it before parking.
    unlink_logged(ctx, heap, slab, place);
    heap.set_header(ctx, slab, crate::cell::SwccHeader {
        next: 0,
        owner: ctx.tid.raw(),
        class: 0,
        flags: 0,
    });
    heap.set_free_count(ctx, slab, 0);
    heap.push_local(ctx, unsized_off, slab);
    heap.flush_desc(ctx, slab);
}

/// Takes the logged `slab` off the one private list that keeps it, at
/// the `place` sanitize recorded: one store, to its kept predecessor's
/// header or to the head. `None` (no list keeps it) unlinks nothing.
///
/// The logged class alone does not say which list that is: the dead
/// thread's cached relinks are lost with its cache, so a slab that
/// migrated classes (sized A → unsized → sized B) can still be on the
/// *old* class's list in the durable image while the pending log entry
/// names the new class. Only the dead thread's own lists can be stale
/// like this — ownership transfers flush + fence — and sanitize walks
/// every one of them.
fn unlink_logged<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, heap: &SlabHeap, slab: u32, place: Option<Place>) {
    if let Some(Place { head_off, prev }) = place {
        let next_raw = heap.header(ctx, slab).next;
        heap.unlink_local(ctx, head_off, prev, next_raw);
    }
    crash::point("recovery::redo::after_unlink");
}

/// Normalizes a slab after a block-level op: recompute the free count
/// from the bitset (the durable ground truth) and place the slab on the
/// list its state dictates (Figure 4).
fn normalize_slab<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, heap: &SlabHeap, slab: u32, class: u8, place: Option<Place>) {
    let blocks = heap.classes.blocks_per_slab(class);
    let free = heap.bits(ctx, slab, class).count_set(ctx.core);
    heap.set_free_count(ctx, slab, free);
    unlink_logged(ctx, heap, slab, place);
    if free == 0 {
        // Full: unlinked, then detached or disowned.
        heap.full_transition(ctx, slab, class);
        return;
    }
    // Empty: unsized. Non-full: on (only) the logged class's sized list.
    let (head_off, class, flags) = if free == blocks {
        (heap.unsized_head_off(ctx), 0, 0)
    } else {
        (heap.sized_head_off(ctx, class), class, crate::cell::flags::SIZED)
    };
    let mut header = heap.header(ctx, slab);
    header.class = class;
    header.flags = flags;
    header.owner = ctx.tid.raw();
    heap.set_header(ctx, slab, header);
    heap.push_local(ctx, head_off, slab);
    heap.flush_desc(ctx, slab);
}

fn recover_huge<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    op: Op,
    entry: &crate::oplog::LogEntry,
    report: &mut RecoveryReport,
) {
    let huge = HugeHeap;
    match op {
        Op::HugeClaim => {
            // Whether or not the claim landed, reconstruction will pick
            // the region up from the reservation array.
            report.outcome = "claim state derived from reservation array";
        }
        Op::HugeAlloc => {
            let desc_off = entry.aux[0];
            let data_off = entry.aux[1];
            if huge
                .walk_descs(ctx, ctx.tid.slot(), |off, _| off == desc_off)
                .is_some()
            {
                // Linked but never handed out: mark free; cleanup
                // reclaims it (space and descriptor) later.
                ctx.mem.store_u64(ctx.core, desc_off + 24, 1);
                ctx.mem.flush(ctx.core, desc_off + 24, 8);
                ctx.mem.fence(ctx.core);
                huge.remove_hazard(ctx.mem, ctx.core, ctx.tid, data_off);
                report.outcome = "huge alloc rolled back (descriptor freed)";
            } else {
                // Never linked: the descriptor slot and interval come
                // back via reconstruction.
                huge.remove_hazard(ctx.mem, ctx.core, ctx.tid, data_off);
                report.outcome = "huge alloc had not happened";
            }
        }
        Op::HugeFree => {
            let desc_off = entry.aux[0];
            let desc = huge.read_desc(ctx, desc_off);
            ctx.mem.store_u64(ctx.core, desc_off + 24, 1);
            ctx.mem.flush(ctx.core, desc_off + 24, 8);
            ctx.mem.fence(ctx.core);
            huge.remove_hazard(ctx.mem, ctx.core, ctx.tid, desc.offset);
            report.outcome = "huge free redone";
        }
        Op::HugeCleanup => {
            // Reclamation is completed by the next cleanup pass; nothing
            // is lost because the descriptor is still linked or already
            // unlinked, and reconstruction recomputes both pools.
            report.outcome = "cleanup will re-run";
        }
        _ => unreachable!("slab ops dispatched separately"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::LogWord;

    #[test]
    fn op_encode_decode_roundtrip() {
        for op in [
            Op::Extend,
            Op::PopGlobal,
            Op::PushGlobal,
            Op::InitSlab,
            Op::AllocBlock,
            Op::FreeLocal,
            Op::RemoteFree,
            Op::RemoteFreeLast,
            Op::RemoteNote,
        ] {
            for kind in [HeapKind::Small, HeapKind::Large] {
                let raw = op.encode(kind);
                assert_eq!(Op::decode(raw), Some((op, kind)), "{op:?} {kind:?}");
                assert_eq!(Op::decode(raw | DETECT_BIT), Some((op, kind)), "detectable {op:?} {kind:?}");
            }
        }
        for op in [Op::HugeAlloc, Op::HugeFree, Op::HugeClaim, Op::HugeCleanup] {
            let raw = op.encode(HeapKind::Huge);
            assert_eq!(Op::decode(raw), Some((op, HeapKind::Huge)));
        }
        assert_eq!(Op::decode(0), Some((Op::Idle, HeapKind::Small)));
        assert_eq!(Op::decode(99), None);
    }

    #[test]
    fn visited_marks_hold_past_the_spill_and_clear_per_list() {
        let mut visited = Visited::default();
        for _ in 0..2 {
            visited.next_list();
            for slab in (0..120).step_by(3) {
                assert!(!visited.revisit(slab, 200), "{slab} is new");
            }
            for slab in (0..120).step_by(3) {
                assert!(visited.revisit(slab, 200), "{slab} was visited");
            }
            assert!(!visited.revisit(1, 200));
        }
        visited.next_list();
        assert!(!visited.revisit(3, 200), "the next list starts clean");
        assert!(visited.revisit(3, 200));
    }

    #[test]
    fn idle_log_word_is_zero() {
        assert_eq!(Op::Idle.encode(HeapKind::Small), 0);
        assert_eq!(LogWord::IDLE.op, 0);
    }
}
