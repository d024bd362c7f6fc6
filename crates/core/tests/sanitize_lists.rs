//! `recovery::sanitize_list` edge cases: a dead thread's durable private
//! lists are corrupted by hand — a cycle, a chain that strays into
//! another class's list, a `next` past the heap length — and recovery
//! must still hand back a heap that passes every check.
//!
//! Live operation never writes these shapes; they stand for the
//! mixed-epoch images a crash on a software-coherent pod can leave (a
//! `next` link flushed by one operation, the head that made it reachable
//! lost with the cache). A raw pod is used so the test can write the
//! durable image directly.

use cxl_core::cell::SwccHeader;
use cxl_core::class::{LARGE_CLASS_SIZES, SMALL_CLASSES_TABLE, SMALL_CLASS_SIZES};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr, ThreadId};
use cxl_pod::{CoreId, Pod, PodConfig};

const CLASS_A_SIZE: usize = 64;
const CLASS_B_SIZE: usize = 128;

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
}

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
        self.pod.memory().store_u64(CoreId(0), off, header.pack());
    }

    /// `mark_crashed` → `recover` → `adopt`, then every check the issue
    /// names: invariants, an exact census, and an adopted handle that
    /// still allocates from every class.
    fn recover_and_check(self) {
        let survivor = self.heap.register_thread().unwrap();
        let via = survivor.core();
        self.heap.mark_crashed(self.tid).unwrap();
        self.heap.recover(self.tid, via).unwrap();
        let (mut adopted, _report) = self.heap.adopt(self.tid, via).unwrap();
        assert_eq!(adopted.tid(), self.tid);

        self.heap.check_invariants(via).unwrap();
        let mut expected: Vec<u64> = self.live.iter().map(|p| p.offset()).collect();
        expected.sort_unstable();
        assert_eq!(self.heap.census(via).unwrap().all_offsets(), expected);

        // Both kept slabs are still reachable through the repaired list:
        // the next 64 B blocks come from them, not from a fresh slab.
        let reused = adopted.alloc(CLASS_A_SIZE).unwrap();
        let slab = self.pod.layout().small.slab_of(reused.offset()).unwrap();
        assert!(slab == self.a1 || slab == self.a2, "64 B block came from slab {slab}");
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
    }
}

#[test]
fn uncorrupted_lists_are_the_control() {
    Victim::new().recover_and_check();
}

#[test]
fn cycle_is_cut_after_its_last_new_node() {
    let v = Victim::new();
    // a1 → a2 → a1 → …, and a self-loop on the other list.
    v.set_next(v.a2, v.a1 + 1);
    v.set_next(v.b, v.b + 1);
    v.recover_and_check();
}

#[test]
fn chain_that_strays_into_another_class_is_unlinked() {
    let v = Victim::new();
    // The 64 B list runs on into the 128 B list's slab.
    v.set_next(v.a2, v.b + 1);
    v.recover_and_check();
}

#[test]
fn next_past_the_heap_length_truncates() {
    let v = Victim::new();
    let len = v.heap.stats().small_slabs;
    assert!(v.a1 < len && v.a2 < len);
    // One past the last slab, and far past it.
    v.set_next(v.a2, len + 1);
    v.set_next(v.b, u32::MAX);
    v.recover_and_check();
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
