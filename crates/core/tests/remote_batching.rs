//! Batched remote frees.
//!
//! * The batched publish path's crash points
//!   ([`cxl_core::slab::BATCH_CRASH_POINTS`]; every cell of them is in
//!   `crash_recovery.rs`'s matrix): a decrement-by-k must be
//!   crash-equivalent to k delayed decrements-by-1 — the logged batch
//!   width lets recovery redo exactly the undelivered decrement, and
//!   detect prevents a double decrement when the CAS already landed.
//! * Differential (seeded): a producer/consumer run with batch 8 ends
//!   with exactly the HWcc counters of the eager (batch 1) run once the
//!   consumer's buffer drains at its quiesce point.

use cxl_core::cell::Detect;
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};
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

/// Attach options that publish remote frees in batches of `batch`.
fn batched_options(batch: u32) -> AttachOptions {
    AttachOptions {
        remote_free_batch: batch,
        ..AttachOptions::default()
    }
}

include!("common/crash.rs");

/// Reads a small-heap slab's HWcc remote counter from durable memory.
fn remote_counter(pod: &Pod, slab: u32) -> u32 {
    let mem = pod.memory().as_ref();
    Detect::unpack(mem.load_u64(CoreId(13), mem.layout().small.hwcc_desc_at(slab))).payload
}

/// The batched final publish steals the slab; crashing between the
/// decrement-to-zero and the steal push must still recover the slab.
#[test]
fn batched_steal_crash_point_recovers() {
    let pod = pod();
    let heap = Cxlalloc::attach(pod.spawn_process(), batched_options(8)).unwrap();
    let mut producer = heap.register_thread().unwrap();
    let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

    let mut t = heap.register_thread().unwrap();
    let tid = t.tid();
    let crashed = crash_at("slab::remote_free::before_steal_push", 0, || {
        for p in &ptrs {
            t.dealloc(*p).unwrap();
        }
    });
    assert!(crashed.is_err(), "batched drain never reached the steal");
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

        let mut t = heap.register_thread().unwrap();
        let tid = t.tid();
        let crashed = crash_at(point, 0, || {
            // The BATCH-th free fills the slab's buffer entry and
            // triggers the publish this plan crashes.
            for p in &ptrs[..BATCH as usize] {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed.is_err(), "never reached {point}");
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

        let mut t = heap.register_thread().unwrap();
        let tid = t.tid();
        let crashed = crash_at(point, 0, || {
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
        assert!(crashed.is_err(), "never reached {point}");
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

/// A completed op's log record is durably cleared before the op
/// returns, so a thread that dies *between* ops leaves nothing to
/// recover: the block it returned and still holds is not reported as
/// `lost_block`, and no op is reported interrupted.
#[test]
fn death_between_ops_reports_no_lost_block() {
    let pod = pod();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let survivor = heap.register_thread().unwrap();
    let mut victim = heap.register_thread().unwrap();
    victim.alloc(64).unwrap();
    let tid = victim.tid();
    drop(victim); // dies holding the block, no op in flight
    heap.mark_crashed(tid).unwrap();
    let report = heap.recover(tid, survivor.core()).unwrap();
    assert_eq!(report.lost_block, None, "{report:?}");
    assert_eq!(report.interrupted, None, "{report:?}");
}

/// The ledger round trip a shared-key peer runs: the owner fills each
/// cell with `alloc_detectable` and then publishes it (bit 0), the peer
/// claims the published value with `dealloc_detectable`, eager and
/// batched, on a raw and a `Limited` pod. A claim the owner did not
/// publish loses and is taken back out of the batch.
#[test]
fn detectable_round_trip_through_published_cells() {
    use std::sync::atomic::Ordering::SeqCst;
    for (mode, batch) in [(None, 1), (None, 8), (Some(HwccMode::Limited), 1), (Some(HwccMode::Limited), 8)] {
        let config = PodConfig { small_max_slabs: 256, ..PodConfig::small_for_tests() };
        let pod = match mode {
            None => Pod::new(config).unwrap(),
            Some(mode) => Pod::with_simulation(config, mode).unwrap(),
        };
        let options = AttachOptions { remote_free_batch: batch, ..AttachOptions::default() };
        let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
        let mut owner = heap.register_thread().unwrap();
        let mut peer = heap.register_thread().unwrap();
        let cell = |c: OffsetPtr| pod.memory().segment().atomic_u64(c.offset());
        let cells: Vec<OffsetPtr> = (0..20).map(|_| owner.alloc(8).unwrap()).collect();
        let blocks: Vec<OffsetPtr> = cells.iter().map(|&c| owner.alloc_detectable(64, c).unwrap()).collect();
        for (&c, &b) in cells.iter().zip(&blocks) {
            assert_eq!(cell(c).load(SeqCst), b.offset(), "{mode:?} batch {batch}: delivered");
        }
        // An unpublished cell is not the peer's to claim.
        let unpublished = peer.dealloc_detectable(blocks[0], cells[0], blocks[0].offset() | 1);
        assert!(matches!(unpublished, Err(cxl_core::AllocError::ClaimLost { .. })), "{mode:?} batch {batch}");
        for (&c, &b) in cells.iter().zip(&blocks) {
            cell(c).fetch_or(1, SeqCst);
            peer.dealloc_detectable(b, c, b.offset() | 1).unwrap();
            assert_eq!(cell(c).load(SeqCst), 0, "{mode:?} batch {batch}: claimed");
        }
        peer.flush_cache();
        owner.flush_cache();
        let census = heap.census(CoreId(0)).unwrap();
        let held: Vec<u64> = cells.iter().map(|c| c.offset()).collect();
        let mut live = census.all_offsets();
        live.retain(|o| !blocks.iter().any(|b| b.offset() == *o));
        assert_eq!(live, held, "{mode:?} batch {batch}: only the cells stay allocated");
        assert_eq!(census.total() as u64 - census.remote_pending_total(), held.len() as u64, "{mode:?} batch {batch}");
        heap.check_invariants(CoreId(0)).unwrap();
    }
}
