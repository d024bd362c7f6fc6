//! Partial-failure tests (paper §3.4 and §5.1): the white-box crash
//! matrix over every crash point compiled into the allocator, a few
//! single-point scenarios it does not spell out, and black-box tests
//! with random crashes.
//!
//! A crash is an unwinding panic at a named point inside the allocator
//! (`crash::point`). It leaves shared state exactly as a real crash
//! would and, on simulated-coherence pods, `mark_crashed` drops the
//! victim's dirty cache lines. A survivor then recovers the victim; live
//! threads never block on the dead one.

use cxl_core::class::{LARGE_CLASSES_TABLE, LARGE_CLASS_SIZES, SMALL_CLASSES_TABLE, SMALL_CLASS_SIZES};
use cxl_core::crash;
use cxl_core::{AllocError, AttachOptions, BlockCensus, Cxlalloc, HeapKind, OffsetPtr, ThreadHandle, ThreadId};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};
use std::collections::BTreeSet;
use std::sync::atomic::Ordering;

const MIB: usize = 1 << 20;

fn pod(mode: Option<HwccMode>) -> Pod {
    let config = PodConfig {
        small_max_slabs: 256,
        // A slab for every large class (the matrix's adopter sweep).
        large_max_slabs: 32,
        ..PodConfig::small_for_tests()
    };
    match mode {
        None => Pod::new(config).unwrap(),
        Some(mode) => Pod::with_simulation(config, mode).unwrap(),
    }
}

include!("common/crash.rs");

/// A thread that dies inside the first allocation from its retained
/// empty slab: recovery undoes the allocation and `normalize_slab` moves
/// the (again fully free) slab to the unsized list — the hysteresis is a
/// live-path policy only — with a census naming exactly the blocks the
/// victim still held.
#[test]
fn retained_empty_slab_is_normalized_by_recovery() {
    use cxl_core::cell::{flags, SwccHeader};
    let class = SMALL_CLASSES_TABLE.class_of(64).unwrap();
    let blocks = SMALL_CLASSES_TABLE.blocks_per_slab(class);
    for mode in [None, Some(HwccMode::Limited)] {
        let pod = pod(mode);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let survivor = heap.register_thread().unwrap();
        let mut t = heap.register_thread().unwrap();
        // Blocks of other classes stay live across the crash; the first
        // doubles as the detect destination.
        let mut kept: Vec<OffsetPtr> = [8, 128, 4096].map(|size| t.alloc(size).unwrap()).to_vec();
        let cycle: Vec<OffsetPtr> = (0..blocks).map(|_| t.alloc(64).unwrap()).collect();
        let slab = pod.layout().small.slab_of(cycle[0].offset()).unwrap();
        for p in cycle {
            t.dealloc(p).unwrap();
        }
        // Quiesce, so the interrupted allocation is the only thing the
        // crash can take with the victim's cache.
        t.flush_cache();
        let crashed = crash_at("slab::alloc_block::after_clear", 0, || t.alloc_detectable(64, kept[0]));
        assert!(crashed.is_err(), "the allocation passes after_clear");
        let tid = t.tid();
        drop(t);
        heap.mark_crashed(tid).unwrap();
        let via = survivor.core();
        heap.recover(tid, via).unwrap();

        // Durable image, read through the survivor's (flushed) view.
        let mem = pod.memory();
        let hl = &pod.layout().small;
        let durable = |off: u64| {
            mem.flush(via, off, 8);
            mem.fence(via);
            mem.load_u64(via, off)
        };
        let header = SwccHeader::unpack(durable(hl.swcc_desc_at(slab)));
        assert_eq!(header.owner, tid.raw(), "{mode:?}");
        assert_eq!(header.flags & flags::SIZED, 0, "{mode:?}: slab {slab} is unsized");
        assert_eq!(durable(hl.local_sized_at(tid.slot(), class as u32)), 0, "{mode:?}");
        assert_eq!(durable(hl.local_unsized_at(tid.slot())), slab as u64 + 1, "{mode:?}");
        heap.check_invariants(via)
            .unwrap_or_else(|e| panic!("invariants ({mode:?}): {e}"));
        let mut expected: Vec<u64> = kept.iter().map(|p| p.offset()).collect();
        expected.sort_unstable();
        assert_eq!(heap.census(via).unwrap().all_offsets(), expected, "{mode:?}");

        // The adopter allocates from the normalized slab, not a new one.
        let slabs = heap.stats().small_slabs;
        let (mut adopted, _report) = heap.adopt(tid, via).unwrap();
        let reused = adopted.alloc(64).unwrap();
        assert_eq!(pod.layout().small.slab_of(reused.offset()), Some(slab), "{mode:?}");
        assert_eq!(heap.stats().small_slabs, slabs, "{mode:?}");
        kept.push(reused);
        for p in kept {
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(via).unwrap();
    }
}

#[test]
fn steal_crash_point_recovers_slab() {
    // Crash exactly between the final decrement and the steal push: the
    // slab would be orphaned without recovery.
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut producer = heap.register_thread().unwrap();
    let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

    let mut t = heap.register_thread().unwrap();
    let crashed = crash_at("slab::remote_free::before_steal_push", 0, || {
        for p in &ptrs {
            t.dealloc(*p).unwrap();
        }
    });
    assert!(crashed.is_err());
    heap.mark_crashed(t.tid()).unwrap();
    let slabs_before = heap.stats().small_slabs;
    let (mut adopted, report) = heap.adopt(t.tid(), CoreId(5)).unwrap();
    assert!(report.outcome.contains("stolen") || report.outcome.contains("redone"),
        "unexpected outcome: {}", report.outcome);
    // The stolen slab is on the adopted thread's unsized list: new
    // allocations must not extend the heap.
    let p: Vec<OffsetPtr> = (0..512).map(|_| adopted.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs_before);
    for ptr in p {
        adopted.dealloc(ptr).unwrap();
    }
    heap.check_invariants(adopted.core()).unwrap();
}

#[test]
fn interrupted_alloc_is_rolled_back_without_delivery() {
    // Detectable allocation: the app's destination cell never received
    // the pointer, so recovery rolls the block back — no leak.
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut owner = heap.register_thread().unwrap();
    let dst = owner.alloc(8).unwrap();

    let mut t = heap.register_thread().unwrap();
    let crashed = crash_at("slab::alloc_block::after_clear", 0, || t.alloc_detectable(64, dst));
    assert!(crashed.is_err(), "crash point must fire");
    heap.mark_crashed(t.tid()).unwrap();
    let report = heap.recover(t.tid(), owner.core()).unwrap();
    assert_eq!(report.outcome, "allocation rolled back");
    assert_eq!(report.lost_block, None);
    heap.check_invariants(owner.core()).unwrap();
}

#[test]
fn interrupted_alloc_without_destination_is_reported() {
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    assert!(crash_at("slab::alloc_block::after_clear", 0, || t.alloc(64)).is_err());
    heap.mark_crashed(t.tid()).unwrap();
    let report = heap.recover(t.tid(), CoreId(3)).unwrap();
    assert_eq!(report.outcome, "allocation kept; reported as lost");
    let lost = report.lost_block.expect("lost block must be reported");
    // The harness can reclaim it through the adopted thread.
    let (mut adopted, _) = heap.adopt(t.tid(), CoreId(3)).unwrap();
    adopted.dealloc(OffsetPtr::new(lost).unwrap()).unwrap();
    heap.check_invariants(adopted.core()).unwrap();
}

#[test]
fn random_blackbox_crashes() {
    // §5.1's black-box methodology: crash at a random operation count,
    // recover, validate, repeat — across coherence modes.
    for seed in 0..12u32 {
        let mode = match seed % 3 {
            0 => None,
            1 => Some(HwccMode::Limited),
            _ => Some(HwccMode::None),
        };
        let pod = pod(mode);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        // Use op-count-based crashes at the log point (reached by every
        // structural operation).
        let mut t = heap.register_thread().unwrap();
        let crashed = crash_at("slab::alloc_block::after_log", 17 * seed + 3, || {
            let mut live = Vec::new();
            for op in 0..2000usize {
                live.push(t.alloc(8 + (op * 13) % 1000).unwrap());
                if live.len() > 40 {
                    let p = live.swap_remove(op % 40);
                    t.dealloc(p).unwrap();
                }
            }
            for p in live.drain(..) {
                t.dealloc(p).unwrap();
            }
        });
        assert!(crashed.is_err(), "seed {seed} never crashed");
        heap.mark_crashed(t.tid()).unwrap();
        let (mut adopted, _) = heap.adopt(t.tid(), CoreId(9)).unwrap();
        for _ in 0..100 {
            let p = adopted.alloc(64).unwrap();
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(adopted.core())
            .unwrap_or_else(|e| panic!("seed {seed} ({mode:?}): {e}"));
    }
}

#[test]
fn recovery_requires_crashed_state() {
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let t = heap.register_thread().unwrap();
    // Recovering a live thread is rejected.
    assert!(heap.recover(t.tid(), CoreId(0)).is_err());
    // Marking a never-registered slot crashed is rejected.
    assert!(heap.mark_crashed(ThreadId::new(9).unwrap()).is_err());
}

#[test]
fn double_recovery_is_idempotent() {
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    let crashed = crash_at("slab::free_local::after_set", 5, || {
        let ptrs: Vec<_> = (0..100).map(|_| t.alloc(64).unwrap()).collect();
        for p in ptrs {
            t.dealloc(p).unwrap();
        }
    });
    assert!(crashed.is_err());
    heap.mark_crashed(t.tid()).unwrap();
    let r1 = heap.recover(t.tid(), CoreId(2)).unwrap();
    // Recovery itself can crash; re-running must be safe.
    let r2 = heap.recover(t.tid(), CoreId(2)).unwrap();
    assert!(r1.interrupted.is_some());
    assert_eq!(r2.interrupted, None, "second pass sees a clean log");
    heap.check_invariants(CoreId(2)).unwrap();
}


// ---- The crash matrix -----------------------------------------------------

/// The one victim op that reaches a crash label.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Allocates the last free block of the victim's slab, which goes
    /// full.
    AllocLast,
    /// Allocates a class the victim has no slab for, re-initializing an
    /// empty slab on its unsized list (last sized for another class).
    AllocReinit,
    /// The same with no unsized slab: pops the global free list.
    AllocPop,
    /// The same with the global free list empty: extends the heap.
    AllocExtend,
    /// Frees a block of the victim's partly used slab.
    Free,
    /// Frees the last block of a slab that is not alone on its list: the
    /// slab overflows to the global free list.
    FreeOverflow,
    /// Frees one block of the survivor's full slab.
    FreeRemote,
    /// Frees the last block of the survivor's full slab that the victim
    /// has not freed yet: the victim steals the slab.
    FreeRemoteLast,
    /// The remote free that fills a batch of [`BATCH`] and publishes it.
    Publish,
    /// The victim's first huge allocation, which claims a region.
    HugeAlloc,
    /// Frees the victim's huge allocation.
    HugeFree,
    /// The cleanup pass that reclaims the victim's freed huge allocation.
    HugeCleanup,
}

/// The op each crash label is reached by: the first entry whose prefix
/// the label starts with. Re-initializing a slab reaches every
/// `alloc_block` label but the two of a slab going full.
const OPS: [(&str, Op); 14] = [
    ("slab::alloc_block::after_unlink", Op::AllocLast),
    ("slab::alloc_block::after_transition", Op::AllocLast),
    ("slab::alloc_block::", Op::AllocReinit),
    ("slab::init::", Op::AllocReinit),
    ("slab::pop_global::", Op::AllocPop),
    ("slab::extend::", Op::AllocExtend),
    ("slab::free_local::", Op::Free),
    ("slab::push_global::", Op::FreeOverflow),
    ("slab::remote_free::publish_", Op::Publish),
    ("slab::remote_free::before_steal_push", Op::FreeRemoteLast),
    ("slab::remote_free::", Op::FreeRemote),
    ("huge::free::", Op::HugeFree),
    ("huge::cleanup::", Op::HugeCleanup),
    ("huge::", Op::HugeAlloc),
];

/// Remote frees per publish in the `Publish` cells.
const BATCH: u32 = 8;

/// The ops that pass a detectable free's claim labels: the local, the
/// eager remote and the buffered remote free.
const CLAIMING: [Op; 3] = [Op::Free, Op::FreeRemote, Op::Publish];

impl Op {
    fn of(label: &str) -> Op {
        let found = OPS.iter().find(|(prefix, _)| label.starts_with(prefix));
        found.unwrap_or_else(|| panic!("no op reaches {label}")).1
    }

    /// The `(op, record)` runs that reach `label`: a claim label on every
    /// claiming path, and any other label of a slab free with a plain and
    /// with a detectable record.
    fn runs(label: &str) -> Vec<(Op, Record)> {
        if label.starts_with("slab::dealloc_detectable::") {
            let record = if label.ends_with("lost_claim") { Record::Lost } else { Record::Detectable };
            return CLAIMING.iter().map(|&op| (op, record)).collect();
        }
        let op = Op::of(label);
        let frees = matches!(op, Op::Free | Op::FreeRemote | Op::FreeRemoteLast | Op::Publish);
        std::iter::once((op, Record::Plain)).chain(frees.then_some((op, Record::Detectable))).collect()
    }

    fn heaps(self) -> &'static [HeapKind] {
        match self {
            Op::HugeAlloc | Op::HugeFree | Op::HugeCleanup => &[HeapKind::Huge],
            _ => &[HeapKind::Small, HeapKind::Large],
        }
    }

    fn allocates(self) -> bool {
        matches!(self, Op::AllocLast | Op::AllocReinit | Op::AllocPop | Op::AllocExtend | Op::HugeAlloc)
    }

    fn options(self) -> AttachOptions {
        AttachOptions {
            // Every slab a thread gives up goes to the global list, but
            // for the two `AllocReinit` parks on its unsized list.
            unsized_limit: if self == Op::AllocReinit { 2 } else { 0 },
            remote_free_batch: if self == Op::Publish { BATCH } else { 1 },
            ..AttachOptions::default()
        }
    }
}

/// The block size a cell's op uses on `heap`, and the size `AllocReinit`
/// last sized its unsized slabs for. Few blocks per slab keep setups
/// short.
fn sizes(heap: HeapKind) -> (usize, usize) {
    match heap {
        HeapKind::Small => (256, 1024),
        HeapKind::Large => (64 << 10, 128 << 10),
        HeapKind::Huge => (MIB, MIB),
    }
}

fn blocks_per_slab(size: usize) -> usize {
    let table = if size <= 1024 { SMALL_CLASSES_TABLE } else { LARGE_CLASSES_TABLE };
    table.blocks_per_slab(table.class_of(size).unwrap()) as usize
}

/// What the driver knows is allocated: the blocks it holds, and its
/// remote frees that the slab's owner has not applied (the census lists
/// those and counts them in `remote_pending`).
#[derive(Default)]
struct Ledger {
    held: BTreeSet<u64>,
    pending: BTreeSet<u64>,
    /// The survivor's full slab the victim frees into remotely.
    remote_slab: Vec<u64>,
}

impl Ledger {
    fn alloc(&mut self, t: &mut ThreadHandle, size: usize, count: usize) -> Vec<OffsetPtr> {
        let ptrs: Vec<OffsetPtr> = (0..count).map(|_| t.alloc(size).unwrap()).collect();
        self.held.extend(ptrs.iter().map(|p| p.offset()));
        ptrs
    }

    fn free(&mut self, t: &mut ThreadHandle, ptrs: &[OffsetPtr]) {
        for &p in ptrs {
            t.dealloc(p).unwrap();
            self.freed(p);
        }
    }

    /// Books the free of `p`, done or redone by recovery.
    fn freed(&mut self, p: OffsetPtr) {
        let p = p.offset();
        self.held.remove(&p);
        if self.remote_slab.contains(&p) {
            self.pending.insert(p);
        }
        // The free that drains the slab steals it: every block is free.
        if !self.remote_slab.is_empty() && self.remote_slab.iter().all(|b| self.pending.contains(b)) {
            self.pending.clear();
        }
    }

    /// How `census` differs from this ledger with `more` blocks held.
    fn judge(&self, census: &BlockCensus, more: &[OffsetPtr]) -> Verdict {
        let mut want: BTreeSet<u64> = self.held.union(&self.pending).copied().collect();
        let reused = more.iter().filter(|p| !want.insert(p.offset())).count();
        let got: BTreeSet<u64> = census.all_offsets().into_iter().collect();
        Verdict {
            extra: got.difference(&want).count(),
            missing: want.difference(&got).count() + reused,
            pending: census.remote_pending_total() as i64 - self.pending.len() as i64,
            reused,
            ..Verdict::default()
        }
    }
}

/// How a cell's heap differs from the ledger: the census's refusal of a
/// torn heap (nothing else is judged then), blocks the census lists
/// that nobody holds, held blocks it does not list, remote frees it
/// counts beyond the ledger's, held blocks the adopter's sweep hands out
/// again, and slabs the heap has after the sweep beyond the crash-free
/// baseline's. All empty: exact.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Verdict {
    refusal: Option<String>,
    extra: usize,
    missing: usize,
    pending: i64,
    reused: usize,
    grown: u32,
}

/// The cells whose heap is not exact, and what each shows instead: the
/// one list of pinned exceptions (ROADMAP item 1). `sim`: a
/// simulated pod, where the victim's dirty cache lines die with it.
fn pinned(cell: &Cell) -> Verdict {
    let sim = cell.mode.is_some();
    let (size, other) = sizes(cell.heap);
    let n = || blocks_per_slab(size);
    let verdict = |extra, missing, pending, reused, grown| Verdict { refusal: None, extra, missing, pending, reused, grown };
    let torn = |refusal: &str| Verdict { refusal: Some(refusal.to_string()), ..Verdict::default() };
    let label = cell.label.unwrap_or_default();
    if !cell.quiesced && sim {
        // An unquiesced victim on a simulated pod loses what it did
        // since its last flush.
        // Its destination's allocation, the last, extended the small
        // heap by a fresh 8 B slab whose header dies in the cache: the
        // destination reads free (`missing` 1) and the slab is nobody's,
        // so the sweep extends the heap once more (`grown` 1; more where
        // the setup's slabs are lost too). A fresh slab the setup
        // allocated from loses its bitset, so its blocks nobody holds
        // read allocated (`extra`).
        return match (cell.op, cell.heap, label) {
            // The destination's allocation re-initialized slab 3 (sized
            // for 1 KiB, 32 blocks) for 8 B: its HWcc payload, 4096
            // blocks, reached the device, its SWcc header did not. Past
            // `rover` the op's own re-init of slab 2 is torn the same
            // way, and the census names the first torn slab.
            (Op::AllocReinit, HeapKind::Small, "slab::alloc_block::after_deliver" | "slab::alloc_block::rover") => {
                torn("small: slab 2 HWcc payload 128 exceeds 32 blocks")
            }
            (Op::AllocReinit, HeapKind::Small, _) => torn("small: slab 3 HWcc payload 4096 exceeds 32 blocks"),
            (Op::AllocReinit, HeapKind::Large, "slab::alloc_block::after_deliver" | "slab::alloc_block::rover") => {
                torn("large: slab 2 HWcc payload 8 exceeds 4 blocks")
            }
            (Op::AllocReinit, HeapKind::Large, "slab::init::after_log" | "slab::init::mid") => verdict(n(), 1, 0, 0, 3),
            (Op::AllocReinit, HeapKind::Large, _) => verdict(2 * n() - 1, 1, 0, 0, 3),
            // The op's rolled-back block serves the sweep's block of its
            // class, for which the crash-free run extends the heap: on
            // the small heap that cancels the lost slab.
            (Op::AllocLast, HeapKind::Small, _) => verdict(0, 1, 0, 0, 0),
            // A detectable free that dies before its claim or loses it is
            // aborted: recovery leaves the freeing slab alone, so the
            // setup's fresh slab, whose header died in the cache, stays
            // nobody's. Both held blocks in it read free (with the
            // destination, `missing` 3) and the sweep extends the heap
            // for it too.
            (Op::Free, ..) if !cell.completes() => verdict(0, 3, 0, 0, 2),
            (Op::Free, ..) => verdict(n() - 2, 1, 0, 0, 1),
            (Op::FreeOverflow, _, "slab::push_global::after_pop") => verdict(2 * n(), 1, 0, 0, 3),
            (Op::FreeOverflow, ..) => verdict(n(), 1, 0, 0, 2),
            _ => verdict(0, 1, 0, 0, 1),
        };
    }
    match (label, cell.recovery) {
        // The free that empties the slab has cleared its log and the pop
        // off the unsized list is not logged: on a raw pod the slab is on
        // no list. On a simulated pod the pop dies in the cache, but so
        // does the freed bit, so the block reads allocated and holds it.
        ("slab::push_global::after_pop", _) if sim => verdict(1, 0, 0, 0, 1),
        ("slab::push_global::after_pop", _) => verdict(0, 0, 0, 0, 1),
        // The slab's unlink from its sized list dies in the cache, but its
        // header, flushed for the push with the global head as `next`,
        // does not: sanitize drops it from the sized list, and the slab
        // behind it on that list is on no list.
        ("slab::push_global::after_log" | "slab::push_global::after_cas", _) if sim => verdict(0, 0, 0, 0, 1),
        // The re-initialized slab's full bitset dies in the cache: the
        // blocks beyond the old class's count read allocated. The block
        // delivered to the detect destination reads free, and the
        // adopter hands it out again.
        ("slab::alloc_block::after_log" | "slab::alloc_block::after_clear", _) if sim => {
            verdict(n() - blocks_per_slab(other), 0, 0, 0, 0)
        }
        ("slab::alloc_block::after_deliver", _) if sim => {
            verdict(n() - blocks_per_slab(other), 1, 0, 1, 0)
        }
        _ => Verdict::default(),
    }
}

/// How a cell's op frees its target.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Record {
    /// `dealloc`.
    Plain,
    /// `dealloc_detectable`, claiming the detect destination, which
    /// names the target.
    Detectable,
    /// The same, expecting the target's tagged offset, which the
    /// destination does not hold: the claim loses and nothing is freed.
    Lost,
}

/// One cell: `label` fired by `op` on `heap` on a pod of `mode`, with the
/// first recovery crashed at `recovery`. No label: the crash-free
/// baseline of the op.
#[derive(Clone, Copy, Debug)]
struct Cell {
    label: Option<&'static str>,
    op: Op,
    heap: HeapKind,
    mode: Option<HwccMode>,
    record: Record,
    /// The victim's setup ends with `flush_cache`, so the op is all that
    /// a crash can take with its cache. An unquiesced victim flushes
    /// nothing, and its last setup op allocates its detect destination:
    /// on a simulated pod the crash can take two ops' lines. On a raw pod
    /// nothing dies with the victim, but its setup's list edits are not
    /// behind a flush point: only the coherent-pod rule keeps them out of
    /// the targeted walk, which these cells compare with the full one.
    quiesced: bool,
    recovery: Option<&'static str>,
}

impl Cell {
    /// Whether the cell's op frees or allocates what it set out to: all
    /// but a detectable free that dies before its claim or loses it. The
    /// crash-free baseline of one that does not is a lost claim.
    fn completes(&self) -> bool {
        self.record != Record::Lost && self.label != Some("slab::dealloc_detectable::before_claim")
    }
}

/// What one run of a cell left: its recovery, the census right after it
/// and how it differs from the ledger, the metadata image, and the
/// heap's length after the adopter's sweep.
struct Run {
    outcome: &'static str,
    /// `(lists_walked, lists_repaired)`.
    walks: (u32, u32),
    census: (Vec<u64>, u64),
    verdict: Verdict,
    image: Vec<u8>,
    slabs: (u32, u32),
}

/// Runs `cell`, walking every list of the victim when `full`. A
/// survivor and a victim register, the victim sets up (and quiesces,
/// when the cell says so), and it runs the cell's op with the crash
/// armed (or, for a baseline, to completion and a flush). The survivor
/// recovers it, crashed once at `cell.recovery` first. The census is
/// then judged against the ledger. After the targeted walk an adopter
/// allocates one block of every class and a huge block: the census must
/// then differ from the ledger plus those blocks exactly as before, and
/// an exact heap must drain. `None` when `cell.recovery` never fired.
fn run_cell(cell: &Cell, full: bool) -> Option<Run> {
    let pod = pod(cell.mode);
    let heap = Cxlalloc::attach(pod.spawn_process(), cell.op.options()).unwrap();
    let mut survivor = heap.register_thread().unwrap();
    let mut victim = heap.register_thread().unwrap();
    let (size, other) = sizes(cell.heap);
    let n = || blocks_per_slab(size);
    let mut ledger = Ledger::default();
    ledger.alloc(&mut survivor, 128, 1);
    // The detect destination: a quiesced victim's first block, an
    // unquiesced victim's last setup op (below).
    let first = cell.quiesced.then(|| ledger.alloc(&mut victim, 8, 1)[0]);
    // The block a freeing op frees.
    let mut target = None;
    // Remote frees the victim buffers after quiescing: each is durable
    // on its own, and a flush would publish them.
    let mut buffered = Vec::new();
    match cell.op {
        Op::AllocLast => drop(ledger.alloc(&mut victim, size, n() - 1)),
        Op::AllocReinit => {
            // One emptied slab stays sized for `other`; the next two go
            // to the unsized list: one for the op, one for an unquiesced
            // victim's destination.
            let ptrs = ledger.alloc(&mut victim, other, 3 * blocks_per_slab(other));
            ledger.free(&mut victim, &ptrs);
        }
        Op::AllocPop => {
            // The survivor keeps one emptied slab and gives up two: one
            // for the op, one for an unquiesced victim's destination.
            let ptrs = ledger.alloc(&mut survivor, size, 3 * n());
            ledger.free(&mut survivor, &ptrs);
        }
        Op::AllocExtend | Op::HugeAlloc => {}
        Op::Free => target = Some(ledger.alloc(&mut victim, size, 2)[0]),
        Op::FreeOverflow => {
            let mut ptrs = ledger.alloc(&mut victim, size, 2 * n());
            target = ptrs.pop();
            ledger.free(&mut victim, &ptrs);
        }
        Op::FreeRemote | Op::FreeRemoteLast | Op::Publish => {
            let mut ptrs = ledger.alloc(&mut survivor, size, n());
            ledger.remote_slab = ptrs.iter().map(|p| p.offset()).collect();
            target = ptrs.pop();
            // The victim's earlier frees into the slab: all of it before
            // the last; half of it, in whole batches, mid-stream when
            // unquiesced.
            let earlier = match cell.op {
                Op::FreeRemoteLast => ptrs.len(),
                _ if cell.quiesced => 0,
                Op::Publish => (ptrs.len() + 1 - BATCH as usize) / 2 / BATCH as usize * BATCH as usize,
                _ => ptrs.len() / 2,
            };
            ledger.free(&mut victim, &ptrs[..earlier]);
            if cell.op == Op::Publish {
                buffered = ptrs[earlier..][..BATCH as usize - 1].to_vec();
            }
        }
        Op::HugeFree => target = Some(ledger.alloc(&mut victim, MIB, 1)[0]),
        Op::HugeCleanup => {
            let ptrs = ledger.alloc(&mut victim, MIB, 1);
            ledger.free(&mut victim, &ptrs);
        }
    }
    survivor.flush_cache();
    if cell.quiesced {
        victim.flush_cache();
    }
    ledger.free(&mut victim, &buffered);
    let dst = first.unwrap_or_else(|| ledger.alloc(&mut victim, 8, 1)[0]);
    let cell_of = |dst: OffsetPtr| pod.memory().segment().atomic_u64(dst.offset());
    let seen = target.map(|t| {
        cell_of(dst).store(t.offset(), Ordering::SeqCst);
        t.offset() | u64::from(cell.record == Record::Lost)
    });

    let mut op = || match cell.op {
        op if op.allocates() => victim.alloc_detectable(size, dst).map(Some),
        Op::HugeCleanup => {
            victim.cleanup();
            Ok(None)
        }
        _ if cell.record != Record::Plain => victim.dealloc_detectable(target.unwrap(), dst, seen.unwrap()).map(|()| None),
        _ => victim.dealloc(target.unwrap()).map(|()| None),
    };
    let returned = match cell.label {
        Some(at) => match crash_at(at, 0, op) {
            Err(signal) => {
                assert_eq!(signal.at, at);
                None
            }
            Ok(_) => panic!("{cell:?}: the op never reached its label"),
        },
        None => {
            let returned = match op() {
                Err(AllocError::ClaimLost { .. }) if cell.record == Record::Lost => None,
                returned => returned.unwrap(),
            };
            // A clean death: the op's effects are durable.
            victim.flush_cache();
            returned
        }
    };
    let tid = victim.tid();
    drop(victim);
    heap.mark_crashed(tid).unwrap();
    if full {
        force_full_walk(&pod, tid.slot());
    }
    // The survivor keeps working while the victim is dead (paper §3.4.1).
    let p = survivor.alloc(size).unwrap();
    survivor.dealloc(p).unwrap();
    survivor.flush_cache();
    let via = survivor.core();
    if let Some(at) = cell.recovery {
        if crash_at(at, 0, || heap.recover(tid, via)).is_ok() {
            return None;
        }
    }
    let report = heap.recover(tid, via).unwrap();
    if let Some((_, kind)) = report.interrupted {
        assert_eq!(kind, cell.heap, "{cell:?}: recovery redid another heap's op");
    }
    // Every allocation names a detect destination (a huge one is rolled
    // back), so recovery can always tell whether it was delivered.
    assert_eq!(report.lost_block, None, "{cell:?}");
    let outcome = report.outcome;
    let walks = (report.lists_walked, report.lists_repaired);
    let image = metadata_image(&pod);
    let census = match heap.census(via) {
        Ok(census) => census,
        Err(e) => {
            let verdict = Verdict { refusal: Some(e.to_string()), ..Verdict::default() };
            let stats = heap.stats();
            let slabs = (stats.small_slabs, stats.large_slabs);
            return Some(Run { outcome, walks, census: (Vec::new(), 0), verdict, image, slabs });
        }
    };

    // Book the op: an allocation is held if it returned or reached its
    // detect destination; a plain free is done or redone, and a
    // detectable one is done iff its destination no longer names the
    // block.
    if cell.op.allocates() {
        let delivered = cell_of(dst).load(Ordering::SeqCst);
        let got = [returned.map(|p| p.offset()), Some(delivered)];
        ledger.held.extend(got.into_iter().flatten().filter(|&p| p != 0));
    } else if cell.op != Op::HugeCleanup
        && !(cell.record != Record::Plain && cell_of(dst).load(Ordering::SeqCst) == target.unwrap().offset())
    {
        ledger.freed(target.unwrap());
    }
    let mut verdict = ledger.judge(&census, &[]);
    let census_list = (census.all_offsets(), census.remote_pending_total());
    if full {
        // The full walk is judged by its image and census, which must
        // equal the targeted walk's; only the targeted heap goes on.
        return Some(Run { outcome, walks, census: census_list, verdict, image, slabs: (0, 0) });
    }

    // The adopter serves every class, without handing out a held block.
    let (mut adopter, _report) = heap.adopt(tid, via).unwrap();
    let sizes = SMALL_CLASS_SIZES.iter().chain(&LARGE_CLASS_SIZES).map(|&s| s as usize);
    let sweep: Vec<OffsetPtr> = sizes.chain([4 * MIB]).map(|s| adopter.alloc(s).unwrap()).collect();
    adopter.flush_cache();
    let stats = heap.stats();
    let swept = heap.census(via).unwrap_or_else(|e| panic!("{cell:?}: after the sweep: {e}"));
    // A held block the sweep hands out again no longer reads free.
    let after = ledger.judge(&swept, &sweep);
    assert_eq!(Verdict { reused: 0, ..after.clone() }, verdict, "{cell:?}: the sweep");
    verdict.reused = after.reused;
    if verdict == Verdict::default() {
        // An exact heap drains: once every block is freed, the census
        // lists only remote frees the slabs' owners have not applied.
        let held = ledger.held.iter().copied().chain(sweep.iter().map(|p| p.offset()));
        for p in held.collect::<BTreeSet<u64>>() {
            adopter.dealloc(OffsetPtr::new(p).unwrap()).unwrap();
        }
        adopter.flush_cache();
        let drained = heap.census(via).unwrap_or_else(|e| panic!("{cell:?}: drained: {e}"));
        assert_eq!(drained.total() as u64, drained.remote_pending_total(), "{cell:?}: drained");
    }
    Some(Run { outcome, walks, census: census_list, verdict, image, slabs: (stats.small_slabs, stats.large_slabs) })
}

/// A churn cell, on a simulated pod: the victim host of a `cxl-drive`
/// schedule crashes at `at` inside `sched`'s churn (`Step::Crash`,
/// nothing flushed, after `skip` earlier passes), the survivor keeps
/// allocating and recovers it, and `sched`'s audited drain ends the run.
/// These are the states a quiesced victim does not reach: a crash that
/// takes a whole churn's unflushed lines, at a label's first and third
/// pass. Both walks must end with the same fingerprint and metadata; on
/// `None` the run must also replay. Returns the crashes fired and
/// `(lists_walked, lists_repaired)` of both walks.
fn churn_cell(mode: HwccMode, at: &'static str, skip: u32) -> (u64, [(u64, u64); 2]) {
    use cxl_drive::sched::{self, Schedule, SimConfig, Step};
    let config = SimConfig { mode, ..SimConfig::default() };
    let schedule = Schedule {
        seed: 0,
        hosts: 2,
        steps: vec![
            Step::Alloc { host: 0, size: 64 },
            Step::Crash { host: 1, at, skip },
            Step::Alloc { host: 0, size: 256 },
            Step::Alloc { host: 0, size: 4096 },
            Step::Recover { host: 1, via: 0 },
            Step::Alloc { host: 1, size: 64 },
        ],
    };
    let run = |full: bool| {
        let pod = config.pod();
        if full {
            // Host 1 registers second, in slot 1.
            force_full_walk(&pod, 1);
        }
        let report = sched::run_on(&pod, &config, &schedule, &[])
            .unwrap_or_else(|e| panic!("churn {mode:?} {at} skip {skip} (full walk: {full}): {e}"));
        (report, metadata_image(&pod))
    };
    let ((targeted, image), (full, full_image)) = (run(false), run(true));
    assert_eq!(targeted.fingerprint, full.fingerprint, "churn {mode:?} {at} skip {skip}: the full walk diverged");
    assert!(image == full_image, "churn {mode:?} {at} skip {skip}: the walks leave different metadata");
    if mode == HwccMode::None {
        let replay = sched::run(&config, &schedule, &[]).unwrap();
        assert_eq!(targeted.fingerprint, replay.fingerprint, "churn {mode:?} {at} skip {skip}: replay diverged");
    }
    let walks = [&targeted, &full].map(|r| (r.lists_walked, r.lists_repaired));
    assert_eq!(walks[0].1, walks[1].1, "churn {mode:?} {at} skip {skip}: the full walk repaired a list the targeted one skipped");
    (targeted.crashes_fired, walks)
}

/// The crash matrix on one pod (paper §5.1's white-box crash points).
/// Every label in `crash::known_points()` but recovery's own is fired by
/// the one op of `OPS` that reaches it, on each heap the op serves,
/// under the targeted and the forced-full sanitize walk, by a quiesced
/// victim and by an unquiesced one; each quiesced cell runs again with the first recovery crashed at each of
/// recovery's labels. `run_cell` is the one oracle; the two walks of a
/// cell must also leave byte-identical metadata, the same census and
/// outcome, and repair the same lists. A cell passes only if its crashes
/// fired and its verdict is exact or exactly its pin. Every label must
/// fire in some cell. On a simulated pod the churn column (`churn_cell`)
/// then crashes `sched`'s churn at every label it passes, at the first
/// pass and, where it passes again, the third; every such cell must
/// fire. Its one thread never passes the remote-free or claim labels.
/// `--nocapture` prints the table.
fn matrix(mode: Option<HwccMode>) {
    let pod_name = mode.map_or("raw".to_string(), |m| format!("{m:?}"));
    let mut known: Vec<(&str, &[&str])> = crash::known_points().into_iter().collect();
    known.sort();
    let recovery = crash::known_points()["recovery"];
    let victim_labels = known.iter().filter(|(list, _)| *list != "recovery").flat_map(|(_, labels)| labels.iter().copied());
    let mut cells = Vec::new();
    for label in victim_labels.clone() {
        for (op, record) in Op::runs(label) {
            for &heap in op.heaps() {
                let cell = Cell { label: Some(label), op, heap, mode, record, quiesced: true, recovery: None };
                cells.push(cell);
                cells.extend(recovery.iter().map(|&at| Cell { recovery: Some(at), ..cell }));
                cells.push(Cell { quiesced: false, ..cell });
            }
        }
    }
    let key = |c: &Cell| (c.op, c.heap, c.quiesced, c.completes());
    let mut baselines: Vec<(Cell, (u32, u32))> = Vec::new();
    for cell in &cells {
        if !baselines.iter().any(|(b, _)| key(b) == key(cell)) {
            let record = if cell.completes() { Record::Plain } else { Record::Lost };
            let baseline = Cell { label: None, recovery: None, record, ..*cell };
            baselines.push((baseline, run_cell(&baseline, false).unwrap().slabs));
        }
    }

    println!(
        "crash matrix on {pod_name}: label | heap | record | victim | recovery crashed at | outcome | verdict | \
         walked/repaired targeted, full"
    );
    let (mut fired, mut exact) = (0, 0);
    let mut labels_fired = BTreeSet::new();
    for cell in &cells {
        let Some(mut targeted) = run_cell(cell, false) else {
            assert_ne!(cell.recovery, Some("recovery::after_sanitize"), "{cell:?}: every recovery passes it");
            continue;
        };
        let full = run_cell(cell, true).unwrap_or_else(|| panic!("{cell:?}: the full walk never fired"));
        if let Some(at) = targeted.image.iter().zip(&full.image).position(|(a, b)| a != b) {
            panic!("{cell:?}: targeted and full walks leave different metadata at byte {at:#x}");
        }
        assert_eq!((targeted.outcome, &targeted.census), (full.outcome, &full.census), "{cell:?}");
        assert_eq!(targeted.walks.1, full.walks.1, "{cell:?}: the full walk repaired a list the targeted one skipped");
        assert!(targeted.walks.0 <= full.walks.0, "{cell:?}");
        let base = baselines.iter().find(|(b, _)| key(b) == key(cell)).unwrap().1;
        if targeted.verdict.refusal.is_none() {
            targeted.verdict.grown = targeted.slabs.0.saturating_sub(base.0) + targeted.slabs.1.saturating_sub(base.1);
        }
        assert_eq!(targeted.verdict, pinned(cell), "{cell:?}");
        fired += 2;
        labels_fired.extend(cell.label.into_iter().chain(cell.recovery));
        let verdict = if targeted.verdict == Verdict::default() {
            exact += 2;
            "exact".to_string()
        } else {
            format!("pinned {:?}", targeted.verdict)
        };
        println!(
            "  {} | {:?} | {} | {} | {} | {} | {verdict} | {}/{}, {}/{}",
            cell.label.unwrap(),
            cell.heap,
            format!("{:?}", cell.record).to_lowercase(),
            if cell.quiesced { "quiesced" } else { "unquiesced" },
            cell.recovery.unwrap_or("-"),
            targeted.outcome,
            targeted.walks.0,
            targeted.walks.1,
            full.walks.0,
            full.walks.1
        );
    }
    println!(
        "crash matrix on {pod_name}: {} cells run, {fired} fired, {exact} with an exact heap, {} pinned",
        2 * cells.len(),
        fired - exact
    );
    let all: BTreeSet<&str> = known.iter().flat_map(|(_, labels)| labels.iter().copied()).collect();
    let missing: Vec<&&str> = all.difference(&labels_fired).collect();
    assert!(missing.is_empty(), "labels no cell fired on {pod_name}: {missing:?}");

    let Some(mode) = mode else { return };
    println!("churn column on {pod_name}: label | skip | walked/repaired targeted, full");
    let mut churned = 0;
    for label in victim_labels.filter(|label| !label.starts_with("slab::remote_free::") && !label.starts_with("slab::dealloc_detectable::")) {
        // The churn passes these once: one huge round, one detectable
        // allocation.
        let once = label.starts_with("huge::") || label == "slab::alloc_block::after_deliver";
        for skip in if once { &[0][..] } else { &[0, 2] } {
            let (crashes, [targeted, full]) = churn_cell(mode, label, *skip);
            assert_eq!(crashes, 1, "churn on {pod_name} never reached {label} at skip {skip}");
            churned += 2;
            println!("  {label} | {skip} | {}/{}, {}/{}", targeted.0, targeted.1, full.0, full.1);
        }
    }
    println!("churn column on {pod_name}: {churned} cells fired");
}

#[test]
fn crash_matrix_raw() {
    matrix(None);
}

#[test]
fn crash_matrix_limited() {
    matrix(Some(HwccMode::Limited));
}

#[test]
fn crash_matrix_none() {
    matrix(Some(HwccMode::None));
}
