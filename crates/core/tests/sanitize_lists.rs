//! `recovery::sanitize_list` edge cases: a dead thread's durable private
//! lists are corrupted by hand — a cycle, a chain that strays into
//! another class's list, a `next` past the heap length — and recovery
//! must still hand back a heap that passes every check. The redo
//! variants also write a durable log record naming a slab in one of
//! those shapes, so the redo meets the repaired lists too.
//!
//! Live operation never writes these shapes; they stand for the
//! mixed-epoch images a crash on a software-coherent pod can leave (a
//! `next` link flushed by one operation, the head that made it reachable
//! lost with the cache). A raw pod is used so the test can write the
//! durable image directly.
//!
//! Recovery sanitizes only the lists the dead thread's durable
//! dirty-list mask names (plus both unsized lists and the logged class),
//! so every hand edit below also sets its list's bit, as the owner's own
//! edit of that list would have. The last tests hold the mask to its
//! lifecycle and its cost.

use cxl_core::cell::{LogWord, SwccHeader};
use cxl_core::class::{LARGE_CLASS_SIZES, SMALL_CLASSES_TABLE, SMALL_CLASS_SIZES};
use cxl_core::oplog::{OpLog, DIRTY_WORD};
use cxl_core::slab::SlabHeap;
use cxl_core::{AttachOptions, Cxlalloc, HeapKind, Op, OffsetPtr, RecoveryReport, ThreadId};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};
use std::sync::atomic::Ordering;

const CLASS_A_SIZE: usize = 64;
const CLASS_B_SIZE: usize = 128;

/// Sets the bit of `tid`'s small-heap `class` list in its durable
/// dirty-list mask, as the owner's first edit of that list would have.
fn mark_dirty(pod: &Pod, tid: ThreadId, class: u8) {
    let bit = SlabHeap::small().list_bit(Some(class));
    let off = pod.layout().log_aux_at(tid.slot(), DIRTY_WORD);
    pod.memory().segment().atomic_u64(off).fetch_or(bit, Ordering::SeqCst);
}

fn class_of(size: usize) -> u8 {
    SMALL_CLASSES_TABLE.class_of(size).unwrap()
}

/// A dead thread's heap just before it is marked crashed: two non-full
/// slabs on its 64 B list (`a1` → `a2`), one on its 128 B list (`b`).
struct Victim {
    pod: Pod,
    heap: Cxlalloc,
    tid: ThreadId,
    /// Every block the victim still held when it died.
    live: Vec<OffsetPtr>,
    a1: u32,
    a2: u32,
    b: u32,
    /// The slabs the next 64 B allocation may come from after recovery.
    reuse: Vec<u32>,
}

/// The ops whose redo places a slab on a list, each checked below on a
/// slab in every corrupted shape.
const REDO_OPS: [Op; 3] = [Op::FreeLocal, Op::AllocBlock, Op::InitSlab];

impl Victim {
    fn new() -> Self {
        // Room for one (retained) slab per large class.
        let pod = Pod::new(PodConfig {
            large_max_slabs: 32,
            ..PodConfig::small_for_tests()
        })
        .unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let mut t = heap.register_thread().unwrap();
        let tid = t.tid();
        let layout = pod.layout().clone();
        let slab_of = |p: OffsetPtr| layout.small.slab_of(p.offset()).unwrap();

        // Fill one 64 B slab (it detaches) and start a second, then free
        // a few blocks of the first: it relinks at the head.
        let per_slab = SMALL_CLASSES_TABLE
            .blocks_per_slab(SMALL_CLASSES_TABLE.class_of(CLASS_A_SIZE).unwrap())
            as usize;
        let mut live: Vec<OffsetPtr> = (0..per_slab + 40).map(|_| t.alloc(CLASS_A_SIZE).unwrap()).collect();
        let (a1, a2) = (slab_of(live[0]), slab_of(live[per_slab]));
        assert_ne!(a1, a2);
        for p in live.drain(..10) {
            t.dealloc(p).unwrap();
        }
        live.extend((0..10).map(|_| t.alloc(CLASS_B_SIZE).unwrap()));
        let b = slab_of(*live.last().unwrap());
        // A large block too, so the large heap has something to keep.
        live.push(t.alloc(4096).unwrap());
        drop(t); // dies: the slot stays LIVE, nothing is released

        let v = Victim {
            pod,
            heap,
            tid,
            live,
            a1,
            a2,
            b,
            reuse: vec![a1, a2],
        };
        // The shape the corruptions below start from.
        assert_eq!(v.head(CLASS_A_SIZE), a1 + 1);
        assert_eq!(v.header(a1).next, a2 + 1);
        assert_eq!(v.header(a2).next, 0);
        assert_eq!(v.head(CLASS_B_SIZE), b + 1);
        assert_eq!(v.header(b).next, 0);
        v
    }

    fn head(&self, size: usize) -> u32 {
        let class = SMALL_CLASSES_TABLE.class_of(size).unwrap() as u32;
        let off = self.pod.layout().small.local_sized_at(self.tid.slot(), class);
        self.pod.memory().load_u64(CoreId(0), off) as u32
    }

    fn header(&self, slab: u32) -> SwccHeader {
        let off = self.pod.layout().small.swcc_desc_at(slab);
        SwccHeader::unpack(self.pod.memory().load_u64(CoreId(0), off))
    }

    /// Overwrites `slab`'s durable `next` link (raw: index + 1, 0 null).
    fn set_next(&self, slab: u32, next: u32) {
        let off = self.pod.layout().small.swcc_desc_at(slab);
        let header = SwccHeader {
            next,
            ..self.header(slab)
        };
        mark_dirty(&self.pod, self.tid, header.class);
        self.pod.memory().store_u64(CoreId(0), off, header.pack());
    }

    /// Overwrites the 128 B list's durable head (raw: index + 1, 0 null).
    fn set_head_b(&self, head: u32) {
        let class = class_of(CLASS_B_SIZE);
        let off = self.pod.layout().small.local_sized_at(self.tid.slot(), class as u32);
        mark_dirty(&self.pod, self.tid, class);
        self.pod.memory().store_u64(CoreId(0), off, head as u64);
    }

    /// Marks every `size` block of `slab` free in its durable bitmap,
    /// as the victim's lost epoch had left it (freed, or re-initialized
    /// for `size`), and drops those blocks from the live set. A logged
    /// op may then name the slab as any redo finds it: the free and the
    /// allocation of its block 0 had not happened, and an init finds no
    /// live block to overwrite.
    fn empty(&mut self, slab: u32, size: usize) {
        let hl = self.pod.layout().small.clone();
        let blocks = SMALL_CLASSES_TABLE.blocks_per_slab(class_of(size));
        mark_dirty(&self.pod, self.tid, self.header(slab).class);
        mark_dirty(&self.pod, self.tid, class_of(size));
        for word in 0..u64::from(blocks.div_ceil(64)) {
            self.pod.memory().store_u64(CoreId(0), hl.bitset_at(slab) + 8 * word, u64::MAX);
        }
        self.live.retain(|p| hl.slab_of(p.offset()) != Some(slab));
    }

    /// Writes a durable log record, as if the victim died inside `op` on
    /// block 0 of `slab`, for blocks of `size`, with no detect
    /// destination. Callers empty `slab` first ([`Victim::empty`]), so
    /// no redo touches a live block.
    fn log(&self, op: Op, slab: u32, size: usize) {
        let word = LogWord {
            op: op.encode(HeapKind::Small),
            a: slab,
            b: class_of(size),
            c: 0,
        };
        mark_dirty(&self.pod, self.tid, word.b);
        OpLog::new(self.pod.memory().as_ref(), self.tid.slot()).begin(CoreId(0), word, &[0]);
    }

    /// Slabs the victim owns that are neither full nor on one of its
    /// small-heap lists: a redo that unlinked at the wrong place leaks
    /// them, and neither the invariants nor the census can tell.
    fn orphans(&self) -> Vec<u32> {
        let hl = &self.pod.layout().small;
        let load = |off: u64| self.pod.memory().load_u64(CoreId(0), off);
        let slot = self.tid.slot();
        let heads = std::iter::once(hl.local_unsized_at(slot))
            .chain((0..hl.num_classes).map(|class| hl.local_sized_at(slot, class)));
        let mut listed = std::collections::BTreeSet::new();
        for head in heads {
            let mut cursor = (load(head) as u32).checked_sub(1);
            while let Some(slab) = cursor.filter(|&slab| listed.insert(slab)) {
                cursor = self.header(slab).next.checked_sub(1);
            }
        }
        (0..self.heap.stats().small_slabs)
            .filter(|slab| {
                let header = self.header(*slab);
                let open = header.flags & cxl_core::cell::flags::SIZED == 0 || load(hl.free_count_at(*slab)) > 0;
                header.owner == self.tid.raw() && open && !listed.contains(slab)
            })
            .collect()
    }

    /// `mark_crashed` → `recover` → `adopt`, then every check the issue
    /// names: invariants, an exact census, and an adopted handle that
    /// still allocates from every class. The invariants and the orphan
    /// check also run between `recover` and `adopt`, whose own recovery
    /// pass would otherwise re-sanitize a list the redo left wrong.
    /// Returns the number of lists the recovery repaired.
    fn recover_and_check(self) -> u32 {
        let survivor = self.heap.register_thread().unwrap();
        let via = survivor.core();
        self.heap.mark_crashed(self.tid).unwrap();
        let repaired = self.heap.recover(self.tid, via).unwrap().lists_repaired;
        self.heap.check_invariants(via).unwrap();
        assert_eq!(self.orphans(), Vec::<u32>::new(), "owned, open and on no list");
        let (mut adopted, _report) = self.heap.adopt(self.tid, via).unwrap();
        assert_eq!(adopted.tid(), self.tid);

        self.heap.check_invariants(via).unwrap();
        let mut expected: Vec<u64> = self.live.iter().map(|p| p.offset()).collect();
        expected.sort_unstable();
        assert_eq!(self.heap.census(via).unwrap().all_offsets(), expected);

        // The kept slabs are still reachable through the repaired list:
        // the next 64 B blocks come from them, not from a fresh slab.
        let reused = adopted.alloc(CLASS_A_SIZE).unwrap();
        let slab = self.pod.layout().small.slab_of(reused.offset()).unwrap();
        assert!(self.reuse.contains(&slab), "64 B block came from slab {slab}");
        adopted.dealloc(reused).unwrap();

        for &size in SMALL_CLASS_SIZES.iter().chain(&LARGE_CLASS_SIZES) {
            let p = adopted.alloc(size as usize).unwrap();
            assert_eq!(self.heap.census(via).unwrap().total(), expected.len() + 1);
            adopted.dealloc(p).unwrap();
        }
        assert_eq!(self.heap.census(via).unwrap().all_offsets(), expected);
        // The victim's own blocks are the adopter's to free.
        for p in &self.live {
            adopted.dealloc(*p).unwrap();
        }
        self.heap.check_invariants(via).unwrap();
        assert_eq!(self.heap.census(via).unwrap().total(), 0);
        repaired
    }
}

#[test]
fn uncorrupted_lists_are_the_control() {
    assert_eq!(Victim::new().recover_and_check(), 0, "nothing to repair");
}

#[test]
fn cycle_is_cut_after_its_last_new_node() {
    let v = Victim::new();
    // a1 → a2 → a1 → …, and a self-loop on the other list.
    v.set_next(v.a2, v.a1 + 1);
    v.set_next(v.b, v.b + 1);
    assert_eq!(v.recover_and_check(), 2, "both lists are cut");
}

#[test]
fn chain_that_strays_into_another_class_is_unlinked() {
    let v = Victim::new();
    // The 64 B list runs on into the 128 B list's slab.
    v.set_next(v.a2, v.b + 1);
    assert_eq!(v.recover_and_check(), 1, "the 64 B list drops its stray");
}

#[test]
fn next_past_the_heap_length_truncates() {
    let v = Victim::new();
    let len = v.heap.stats().small_slabs;
    assert!(v.a1 < len && v.a2 < len);
    // One past the last slab, and far past it.
    v.set_next(v.a2, len + 1);
    v.set_next(v.b, u32::MAX);
    assert_eq!(v.recover_and_check(), 2, "both lists are truncated");
}

#[test]
fn stray_slab_is_dropped_from_the_wrong_list_and_kept_on_its_own() {
    // Unlinking rewrites only the previous kept node, never the stray's
    // header, and the visited scratch is shared by all the lists of one
    // recovery: `b` is first walked (and dropped) as a stray of the 64 B
    // list, and must not read as a revisit when its own list is walked.
    let v = Victim::new();
    v.set_next(v.a2, v.b + 1);
    let survivor = v.heap.register_thread().unwrap();
    v.heap.mark_crashed(v.tid).unwrap();
    v.heap.recover(v.tid, survivor.core()).unwrap();
    assert_eq!(v.head(CLASS_A_SIZE), v.a1 + 1);
    assert_eq!(v.header(v.a1).next, v.a2 + 1);
    assert_eq!(v.header(v.a2).next, 0, "stray tail unlinked");
    assert_eq!(v.head(CLASS_B_SIZE), v.b + 1, "128 B list kept its slab");
    assert_eq!(v.header(v.b).next, 0);
    v.heap.check_invariants(survivor.core()).unwrap();
}

#[test]
fn redo_of_a_stray_slab_finds_it_on_its_own_list() {
    // `b` is reached (and dropped) as a stray of the 64 B list, and kept
    // as the head of its own list: the redo unlinks it there.
    for op in REDO_OPS {
        let mut v = Victim::new();
        v.set_next(v.a2, v.b + 1);
        v.empty(v.b, CLASS_B_SIZE);
        v.log(op, v.b, CLASS_B_SIZE);
        v.recover_and_check();
    }
}

#[test]
fn redo_of_the_slab_behind_a_cut_cycle() {
    // a1 → a2 → a1 → …: the cut rewrites a2's `next` to null, and a2
    // keeps a1 as its predecessor, which the redo's unlink rewrites.
    for op in REDO_OPS {
        let mut v = Victim::new();
        v.set_next(v.a2, v.a1 + 1);
        v.empty(v.a2, CLASS_A_SIZE);
        v.log(op, v.a2, CLASS_A_SIZE);
        v.recover_and_check();
    }
}

#[test]
fn redo_of_a_slab_on_no_list() {
    // The 128 B head was lost: `b` is owned and sized but on no list,
    // so the redo unlinks nothing and links it afresh.
    for op in REDO_OPS {
        let mut v = Victim::new();
        v.set_head_b(0);
        v.empty(v.b, CLASS_B_SIZE);
        v.log(op, v.b, CLASS_B_SIZE);
        v.recover_and_check();
    }
}

#[test]
fn redo_for_a_new_class_unlinks_the_slab_from_its_stale_class_list() {
    // The migration case: the victim moved `b` from 128 B to 64 B in
    // its cache and died inside an op on it, so the durable image keeps
    // `b` on the 128 B list with a 128 B header while the log names
    // 64 B. The re-initialized bitmap was evicted before the header.
    for op in REDO_OPS {
        let mut v = Victim::new();
        v.empty(v.b, CLASS_A_SIZE);
        v.log(op, v.b, CLASS_A_SIZE);
        if op == Op::InitSlab {
            // The init leaves `b` at the head of the 64 B list.
            v.reuse.push(v.b);
        }
        v.recover_and_check();
    }
}

/// How the `recovery_traffic` victim dies, after filling its 64 B list
/// and quiescing with `flush_cache`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Death {
    /// Idle log, with the 64 B list marked dirty by hand.
    Idle,
    /// Inside a `FreeLocal` on the tail slab, logged and marked by hand.
    FreeTail,
    /// Idle log after one 128 B allocation of its own.
    After128,
}

/// Memory traffic of one recovery, as `[loads, stores, cached_hits,
/// line_fills, writebacks, flushes]`, and its report, of a victim on a
/// `Limited` pod whose 64 B list holds `slabs` non-full slabs and that
/// dies as `death` says. The counts are summed over cores, and only the
/// recovering core runs in between.
fn recovery_traffic(slabs: usize, death: Death) -> ([u64; 6], RecoveryReport) {
    let pod = Pod::with_simulation(
        PodConfig {
            small_max_slabs: 64,
            ..PodConfig::small_for_tests()
        },
        HwccMode::Limited,
    )
    .unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let survivor = heap.register_thread().unwrap();
    let mut t = heap.register_thread().unwrap();
    let (tid, core) = (t.tid(), t.core());
    let class = class_of(CLASS_A_SIZE);
    let per_slab = SMALL_CLASSES_TABLE.blocks_per_slab(class) as usize;
    // Fill the slabs (each detaches full), then free block 0 of each in
    // fill order: each relinks at the head, so the first is the tail.
    let blocks: Vec<OffsetPtr> = (0..slabs * per_slab).map(|_| t.alloc(CLASS_A_SIZE).unwrap()).collect();
    for s in 0..slabs {
        t.dealloc(blocks[s * per_slab]).unwrap();
    }
    let durable_mask = || pod.memory().segment().peek_u64(pod.layout().log_aux_at(tid.slot(), DIRTY_WORD));
    assert_ne!(durable_mask(), 0, "the victim's edits marked its lists");
    t.flush_cache();
    assert_eq!(durable_mask(), 0, "flush_cache clears the mask durably");
    if death == Death::After128 {
        t.alloc(CLASS_B_SIZE).unwrap();
    }
    drop(t);
    let hl = &pod.layout().small;
    let tail = hl.slab_of(blocks[0].offset()).unwrap();
    let head_off = hl.local_sized_at(tid.slot(), class as u32);
    let head = hl.slab_of(blocks[(slabs - 1) * per_slab].offset()).unwrap();
    assert_eq!(pod.memory().load_u64(core, head_off), (head + 1) as u64);
    match death {
        Death::Idle => mark_dirty(&pod, tid, class),
        Death::FreeTail => {
            // Block 0 is already free: the redo's set is a no-op and the
            // normalization moves the tail slab to the head.
            mark_dirty(&pod, tid, class);
            let word = LogWord {
                op: Op::FreeLocal.encode(HeapKind::Small),
                a: tail,
                b: class,
                c: 0,
            };
            OpLog::new(pod.memory().as_ref(), tid.slot()).begin(core, word, &[]);
        }
        Death::After128 => {}
    }
    heap.mark_crashed(tid).unwrap();

    let before = pod.memory().stats();
    let report = heap.recover(tid, survivor.core()).unwrap();
    let after = pod.memory().stats();
    heap.check_invariants(survivor.core()).unwrap();
    if death == Death::FreeTail {
        assert_eq!(pod.memory().load_u64(survivor.core(), head_off), (tail + 1) as u64);
    }
    let counts = [
        after.loads - before.loads,
        after.stores - before.stores,
        after.cached_hits - before.cached_hits,
        after.line_fills - before.line_fills,
        after.writebacks - before.writebacks,
        after.flushes - before.flushes,
    ];
    (counts, report)
}

#[test]
fn redo_cost_does_not_grow_with_the_list() {
    // Subtracting the idle-log recovery of the same victim cancels the
    // sanitize walk, which grows with the list; what is left is the
    // redo, which finds the tail slab where sanitize recorded it.
    let redo = |slabs| {
        let (logged, idle) = (recovery_traffic(slabs, Death::FreeTail).0, recovery_traffic(slabs, Death::Idle).0);
        std::array::from_fn::<i64, 6, _>(|i| logged[i] as i64 - idle[i] as i64)
    };
    let (short, long) = (redo(4), redo(32));
    assert!(short[0] > 0, "the redo loads something: {short:?}");
    assert_eq!(short, long, "[loads, stores, hits, fills, writebacks, flushes]");
}

#[test]
fn sanitize_cost_does_not_grow_with_untouched_lists() {
    // After its quiesce the victim touched only the 128 B list, so the
    // 64 B list's 4 or 32 slabs are never walked: recovery walks the two
    // unsized lists and the 128 B list, at the same cost either way.
    let (short, short_report) = recovery_traffic(4, Death::After128);
    let (long, long_report) = recovery_traffic(32, Death::After128);
    assert_eq!(short_report.lists_walked, 3, "{short_report:?}");
    assert_eq!(short_report, long_report);
    assert_eq!(short, long, "[loads, stores, hits, fills, writebacks, flushes]");
}

#[test]
fn without_recovery_state_the_mask_is_inert_and_every_list_is_walked() {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let options = AttachOptions { recoverable: false, ..AttachOptions::default() };
    let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
    let survivor = heap.register_thread().unwrap();
    let mut t = heap.register_thread().unwrap();
    let tid = t.tid();
    let live: Vec<OffsetPtr> = [8, 64, 4096].map(|size| t.alloc(size).unwrap()).to_vec();
    drop(t);
    assert_eq!(pod.memory().segment().peek_u64(pod.layout().log_aux_at(tid.slot(), DIRTY_WORD)), 0);
    heap.mark_crashed(tid).unwrap();
    let report = heap.recover(tid, survivor.core()).unwrap();
    assert_eq!(report.lists_walked, 2 + SMALL_CLASS_SIZES.len() as u32 + LARGE_CLASS_SIZES.len() as u32);
    let mut expected: Vec<u64> = live.iter().map(|p| p.offset()).collect();
    expected.sort_unstable();
    assert_eq!(heap.census(survivor.core()).unwrap().all_offsets(), expected);
}
