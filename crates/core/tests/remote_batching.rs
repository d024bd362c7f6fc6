//! PR 4 acceptance tests: batched remote frees and fence coalescing.
//!
//! * Crash matrix over the batched publish path
//!   ([`cxl_core::slab::BATCH_CRASH_POINTS`]): a decrement-by-k must be
//!   crash-equivalent to k delayed decrements-by-1 — the logged batch
//!   width lets recovery redo exactly the undelivered decrement, and
//!   detect prevents a double decrement when the CAS already landed.
//! * Differential proptest: fence-coalescing and default heaps driven
//!   by the same op sequence produce identical post-quiesce slab
//!   bitsets and identical bitset-visible live bytes at every quiesce
//!   point.
//! * Differential (seeded): a producer/consumer run with batch 8 ends
//!   with exactly the HWcc counters of the eager (batch 1) run once the
//!   consumer's buffer drains at its quiesce point.

use cxl_core::bitset::BlockBits;
use cxl_core::cell::{flags, Detect, SwccHeader};
use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr, ThreadId};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn pod() -> Pod {
    Pod::with_simulation(
        PodConfig {
            small_max_slabs: 256,
            ..PodConfig::small_for_tests()
        },
        HwccMode::Limited,
    )
    .unwrap()
}

/// Attach options with every PR-4 amortization enabled.
fn batched_options(batch: u32) -> AttachOptions {
    AttachOptions {
        remote_free_batch: batch,
        coalesce_fences: true,
        ..AttachOptions::default()
    }
}

/// Runs `victim` on a fresh thread with a crash plan armed; returns the
/// victim's tid plus whether the crash fired.
fn crash_thread(
    heap: &Cxlalloc,
    plan: CrashPlan,
    victim: impl FnOnce(&mut cxl_core::ThreadHandle) + Send,
) -> (ThreadId, bool) {
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut t = heap.register_thread().unwrap();
            let tid = t.tid();
            crash::arm(plan);
            let crashed = crash::catch(std::panic::AssertUnwindSafe(|| victim(&mut t))).is_err();
            crash::disarm();
            (tid, crashed)
        })
        .join()
        .unwrap()
    })
}

/// Reads a small-heap slab's HWcc remote counter from durable memory.
fn remote_counter(pod: &Pod, slab: u32) -> u32 {
    let mem = pod.memory().as_ref();
    Detect::unpack(mem.load_u64(CoreId(13), mem.layout().small.hwcc_desc_at(slab))).payload
}

/// Crash matrix: every label between buffering and publish, at several
/// skips, with a live survivor and cross-thread recovery + invariants.
#[test]
fn batched_publish_crash_points_recover() {
    for &point in cxl_core::slab::BATCH_CRASH_POINTS {
        for skip in [0u32, 10] {
            let pod = pod();
            let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(8)).unwrap();
            let mut producer = heap.register_thread().unwrap();
            let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

            let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip }, |t| {
                for p in &ptrs {
                    t.dealloc(*p).unwrap();
                }
            });
            assert!(crashed, "never reached {point} (skip {skip})");
            heap.mark_crashed(tid).unwrap();

            // The producer keeps working while the victim is dead.
            for _ in 0..100 {
                let p = producer.alloc(64).unwrap();
                producer.dealloc(p).unwrap();
            }

            let report = heap.recover(tid, producer.core()).unwrap();
            assert!(report.interrupted.is_some(), "{point} skip {skip}");
            heap.check_invariants(producer.core())
                .unwrap_or_else(|e| panic!("invariants after {point} skip {skip}: {e}"));

            // The adopted slot is fully usable; frees that were still
            // buffered at the crash were republished from the victim's
            // durable header line during recovery (see
            // `buffered_frees_republished_after_crash` for the direct
            // counter assertion).
            let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
            let fresh: Vec<OffsetPtr> = (0..256).map(|_| adopted.alloc(64).unwrap()).collect();
            for p in fresh {
                adopted.dealloc(p).unwrap();
            }
            heap.check_invariants(adopted.core()).unwrap();
        }
    }
}

/// The batched final publish steals the slab; crashing between the
/// decrement-to-zero and the steal push must still recover the slab.
#[test]
fn batched_steal_crash_point_recovers() {
    let pod = pod();
    let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(8)).unwrap();
    let mut producer = heap.register_thread().unwrap();
    let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

    let (tid, crashed) = crash_thread(
        &heap,
        CrashPlan {
            at: "slab::remote_free::before_steal_push",
            skip: 0,
        },
        |t| {
            for p in &ptrs {
                t.dealloc(*p).unwrap();
            }
        },
    );
    assert!(crashed, "batched drain never reached the steal");
    heap.mark_crashed(tid).unwrap();
    let slabs_before = heap.stats().small_slabs;
    let (mut adopted, report) = heap.adopt(tid, CoreId(5)).unwrap();
    assert!(
        report.outcome.contains("stolen") || report.outcome.contains("redone"),
        "unexpected outcome: {}",
        report.outcome
    );
    // The stolen slab is on the adopted thread's unsized list: new
    // allocations must not extend the heap.
    let p: Vec<OffsetPtr> = (0..512).map(|_| adopted.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs_before);
    for ptr in p {
        adopted.dealloc(ptr).unwrap();
    }
    heap.check_invariants(adopted.core()).unwrap();
}

/// Decrement-by-k ≡ k decrements-by-1, verified on the counter itself:
/// a crash before the CAS leaves the counter untouched and recovery
/// redoes the full logged width; a crash after the CAS leaves it
/// decremented by exactly k and detect forbids a second decrement.
#[test]
fn publish_crash_counter_equivalence() {
    const BATCH: u32 = 4;
    for (point, at_crash, after_recovery) in [
        // CAS not yet attempted: 512 at crash, redo lands the 4.
        ("slab::remote_free::publish_after_log", 512u32, 508u32),
        // CAS landed: already 508, detect must not redo.
        ("slab::remote_free::publish_after_cas", 508, 508),
    ] {
        let pod = pod();
        let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(BATCH)).unwrap();
        let mut producer = heap.register_thread().unwrap();
        // Exactly one 64 B slab (512 blocks), full and detached.
        let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();
        let slab = pod.layout().small.slab_of(ptrs[0].offset()).unwrap();
        assert_eq!(remote_counter(&pod, slab), 512);

        let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip: 0 }, |t| {
            // The BATCH-th free fills the slab's buffer entry and
            // triggers the publish this plan crashes.
            for p in &ptrs[..BATCH as usize] {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed, "never reached {point}");
        assert_eq!(remote_counter(&pod, slab), at_crash, "{point}: counter at crash");
        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, producer.core()).unwrap();
        assert!(report.interrupted.is_some(), "{point}");
        assert_eq!(
            remote_counter(&pod, slab),
            after_recovery,
            "{point}: counter after recovery"
        );
        heap.check_invariants(producer.core()).unwrap();
    }
}

/// The PR-4 deferral, closed: frees that are *buffered but unpublished*
/// when a thread dies must survive the crash. The victim buffers 5
/// frees against slab A (below the batch threshold, so they only exist
/// in its DRAM buffer and its durable header line), then crashes inside
/// the publish of slab B's full batch. Recovery must (a) settle slab
/// B's logged batch exactly once — redo when the CAS had not landed,
/// detect-skip when it had — and (b) republish slab A's 5 buffered
/// decrements from the durable line, leaving zero leaked blocks.
#[test]
fn buffered_frees_republished_after_crash() {
    const BATCH: u32 = 8;
    for (point, b_at_crash) in [
        // CAS not yet attempted: B still holds all 512 at the crash.
        ("slab::remote_free::publish_after_log", 512u32),
        // CAS landed: B already decremented by the batch.
        ("slab::remote_free::publish_after_cas", 504),
    ] {
        let pod = pod();
        let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(BATCH)).unwrap();
        let mut producer = heap.register_thread().unwrap();
        // Two full 64 B slabs: A = ptrs[..512], B = ptrs[512..].
        let ptrs: Vec<OffsetPtr> = (0..1024).map(|_| producer.alloc(64).unwrap()).collect();
        let slab_a = pod.layout().small.slab_of(ptrs[0].offset()).unwrap();
        let slab_b = pod.layout().small.slab_of(ptrs[512].offset()).unwrap();
        assert_ne!(slab_a, slab_b);

        let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip: 0 }, |t| {
            // 5 buffered frees against A (durably recorded, unpublished)…
            for p in &ptrs[..5] {
                t.dealloc(*p).unwrap();
            }
            // …then fill B's buffer entry; the 8th free triggers the
            // publish this plan crashes inside.
            for p in &ptrs[512..512 + BATCH as usize] {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed, "never reached {point}");
        assert_eq!(remote_counter(&pod, slab_a), 512, "{point}: A untouched at crash");
        assert_eq!(remote_counter(&pod, slab_b), b_at_crash, "{point}: B at crash");

        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, producer.core()).unwrap();
        assert!(report.interrupted.is_some(), "{point}");
        assert_eq!(
            remote_counter(&pod, slab_a),
            507,
            "{point}: A's buffered frees must be republished, not leaked"
        );
        assert_eq!(
            remote_counter(&pod, slab_b),
            504,
            "{point}: B's logged batch must land exactly once"
        );
        heap.check_invariants(producer.core()).unwrap();

        // A second recovery pass must be a no-op: the durable line was
        // drained, so nothing can be republished twice.
        let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
        assert_eq!(remote_counter(&pod, slab_a), 507, "{point}: adopt must not republish");
        assert_eq!(remote_counter(&pod, slab_b), 504, "{point}: adopt must not republish");
        let fresh: Vec<OffsetPtr> = (0..64).map(|_| adopted.alloc(64).unwrap()).collect();
        for p in fresh {
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(adopted.core()).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Fence-coalescing differential: same ops, coalescing on vs off.
// ---------------------------------------------------------------------------

/// Sums live (allocated) bytes of the small heap's sized slabs from the
/// durable bitsets, and hashes the full durable bitset image. The
/// reader flushes its own lines first so repeated quiesce reads on the
/// same core never see stale cache contents.
fn durable_small_image(pod: &Pod, class: u8) -> (u64, u64) {
    let mem = pod.memory().as_ref();
    let core = CoreId(13);
    let hl = &mem.layout().small;
    let table = cxl_core::class::SMALL_CLASSES_TABLE;
    let blocks = table.blocks_per_slab(class);
    let len = Detect::unpack(mem.load_u64(core, hl.global_len)).payload;
    let mut live = 0u64;
    let mut hash = 0xcbf29ce484222325u64; // FNV-1a
    for slab in 0..len {
        mem.flush(core, hl.swcc_desc_at(slab), hl.swcc_desc_stride);
        mem.fence(core);
        let header = SwccHeader::unpack(mem.load_u64(core, hl.swcc_desc_at(slab)));
        let sized = header.flags & flags::SIZED != 0;
        if sized {
            assert_eq!(header.class, class, "single-class workload");
            let bits = BlockBits::new(mem, hl.bitset_at(slab), blocks);
            live += (blocks - bits.count_set(core)) as u64 * table.block_size(class) as u64;
        }
        for w in 0..(blocks as u64).div_ceil(64) {
            let word = mem.load_u64(core, hl.bitset_at(slab) + w * 8);
            hash = (hash ^ word).wrapping_mul(0x100000001b3);
        }
    }
    (live, hash)
}

#[derive(Debug, Clone)]
enum DiffOp {
    Alloc,
    FreeOldest,
    FreeNewest,
    Quiesce,
}

fn diff_op() -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        4 => Just(DiffOp::Alloc),
        2 => Just(DiffOp::FreeOldest),
        2 => Just(DiffOp::FreeNewest),
        1 => Just(DiffOp::Quiesce),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        ..ProptestConfig::default()
    })]

    /// Fence coalescing is semantically invisible: the same
    /// single-class op sequence on a coalescing and a default heap
    /// yields, at every quiesce point and after a full drain, identical
    /// bitset-visible live bytes (== the model's) and an identical
    /// durable bitset image.
    #[test]
    fn fence_coalescing_differential_identical_quiesce_state(
        ops in proptest::collection::vec(diff_op(), 1..250)
    ) {
        let class = cxl_core::class::SMALL_CLASSES_TABLE.class_of(64).unwrap();
        let pod_off = pod();
        let pod_on = pod();
        let heap_off =
            Cxlalloc::attach(pod_off.spawn_process(), AttachOptions::default()).unwrap();
        let heap_on = Cxlalloc::attach(pod_on.spawn_process(), AttachOptions {
            coalesce_fences: true,
            ..AttachOptions::default()
        })
        .unwrap();
        let mut t_off = heap_off.register_thread().unwrap();
        let mut t_on = heap_on.register_thread().unwrap();

        let mut live_off: Vec<OffsetPtr> = Vec::new();
        let mut live_on: Vec<OffsetPtr> = Vec::new();
        for op in &ops {
            match op {
                DiffOp::Alloc => {
                    live_off.push(t_off.alloc(64).unwrap());
                    live_on.push(t_on.alloc(64).unwrap());
                }
                DiffOp::FreeOldest => {
                    if !live_off.is_empty() {
                        t_off.dealloc(live_off.remove(0)).unwrap();
                        t_on.dealloc(live_on.remove(0)).unwrap();
                    }
                }
                DiffOp::FreeNewest => {
                    if let Some(p) = live_off.pop() {
                        t_off.dealloc(p).unwrap();
                        t_on.dealloc(live_on.pop().unwrap()).unwrap();
                    }
                }
                DiffOp::Quiesce => {
                    t_off.flush_cache();
                    t_on.flush_cache();
                    let (bytes_off, _) = durable_small_image(&pod_off, class);
                    let (bytes_on, _) = durable_small_image(&pod_on, class);
                    prop_assert_eq!(bytes_off, live_off.len() as u64 * 64);
                    prop_assert_eq!(bytes_on, bytes_off, "live bytes diverged mid-run");
                }
            }
        }

        // Full drain, then quiesce: the durable images must be equal
        // word for word (same slabs, all blocks free in both).
        for p in live_off.drain(..) {
            t_off.dealloc(p).unwrap();
        }
        for p in live_on.drain(..) {
            t_on.dealloc(p).unwrap();
        }
        t_off.flush_local_caches();
        t_on.flush_local_caches();
        t_off.flush_cache();
        t_on.flush_cache();
        let (bytes_off, hash_off) = durable_small_image(&pod_off, class);
        let (bytes_on, hash_on) = durable_small_image(&pod_on, class);
        prop_assert_eq!(bytes_off, 0);
        prop_assert_eq!(bytes_on, 0);
        prop_assert_eq!(
            heap_off.stats().small_slabs,
            heap_on.stats().small_slabs,
            "fence coalescing changed slab consumption"
        );
        prop_assert_eq!(hash_off, hash_on, "post-quiesce bitsets diverged");
        heap_off.check_invariants(t_off.core()).unwrap();
        heap_on.check_invariants(t_on.core()).unwrap();
    }
}

/// Batching differential: a producer/consumer run with batch 8 must end
/// (after the consumer's drain point publishes its buffer) with exactly
/// the per-slab HWcc counters of the eager run, for the same seeded
/// dealloc order — with one remote-free publish per free on the eager
/// run and at most one per eight on the batched one.
#[test]
fn batched_remote_free_differential_matches_eager() {
    for seed in [1u64, 7, 42] {
        let run = |batch: u32| -> (Vec<u32>, u64) {
            let pod = pod();
            let heap = Cxlalloc::attach(
                pod.spawn_process(),
                AttachOptions {
                    remote_free_batch: batch,
                    coalesce_fences: batch > 1,
                    ..AttachOptions::default()
                },
            )
            .unwrap();
            let mut producer = heap.register_thread().unwrap();
            let ptrs: Vec<OffsetPtr> = (0..600).map(|_| producer.alloc(64).unwrap()).collect();

            // Shuffle and free 450 of the 600 blocks remotely.
            let mut order: Vec<usize> = (0..ptrs.len()).collect();
            let mut rng = StdRng::seed_from_u64(seed);
            for i in (1..order.len()).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let mut consumer = heap.register_thread().unwrap();
            for &i in order.iter().take(450) {
                consumer.dealloc(ptrs[i]).unwrap();
            }
            // The consumer's quiesce drains its pending-free buffer.
            consumer.flush_local_caches();
            consumer.flush_cache();
            producer.flush_cache();
            heap.check_invariants(consumer.core()).unwrap();

            let slabs = heap.stats().small_slabs;
            let counters = (0..slabs).map(|s| remote_counter(&pod, s)).collect();
            (counters, heap.stats().mem.remote_publishes)
        };

        let (eager, eager_publishes) = run(1);
        let (batched, batched_publishes) = run(8);
        assert_eq!(eager, batched, "seed {seed}: counters diverged");
        assert_eq!(eager_publishes, 450, "seed {seed}: one eager publish per free");
        assert!(
            (450 / 8..450).contains(&batched_publishes),
            "seed {seed}: {batched_publishes} batched publishes for 450 frees"
        );
    }
}

/// Known deviation of `coalesce_fences` (DESIGN.md §9.3): the relaxed
/// clear of a completed op's log record lives only in the owner's cache
/// until the next op's `begin` flush carries it out. A thread that dies
/// *between* ops takes it along, the durable log still names the
/// completed `AllocBlock`, and recovery — which cannot tell a completed
/// record from an interrupted one — reports a block the application
/// holds as `lost_block`. The heap is exact either way (the redo is
/// idempotent); the report is not. The default options clear durably
/// and report nothing.
#[test]
fn relaxed_clear_reports_a_returned_block_as_lost() {
    for coalesce_fences in [false, true] {
        let pod = pod();
        let options = AttachOptions { coalesce_fences, ..AttachOptions::default() };
        let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
        let survivor = heap.register_thread().unwrap();
        let mut victim = heap.register_thread().unwrap();
        let returned = victim.alloc(64).unwrap();
        let tid = victim.tid();
        drop(victim); // dies holding `returned`, no op in flight
        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, survivor.core()).unwrap();
        let expected = coalesce_fences.then_some(returned.offset());
        assert_eq!(report.lost_block, expected, "coalesce_fences: {coalesce_fences}: {report:?}");
        assert_eq!(report.interrupted.is_some(), coalesce_fences);
    }
}
