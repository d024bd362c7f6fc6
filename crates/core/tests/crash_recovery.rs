//! Partial-failure tests (paper §3.4 and §5.1): white-box tests with
//! defined crash points, and black-box tests with random crashes.
//!
//! The harness crashes a victim thread at a named point inside the
//! allocator (the thread unwinds, leaving shared state exactly as a real
//! crash would — and in simulated-coherence pods, losing its dirty cache
//! lines), then recovers the thread and re-validates every heap
//! invariant. Live threads never block on the dead one.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr, ThreadId};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};

const MIB: usize = 1 << 20;

fn pod(mode: Option<HwccMode>) -> Pod {
    let config = PodConfig {
        small_max_slabs: 256,
        ..PodConfig::small_for_tests()
    };
    match mode {
        None => Pod::new(config).unwrap(),
        Some(mode) => Pod::with_simulation(config, mode).unwrap(),
    }
}

/// Runs `victim` on a fresh thread with a crash plan armed; returns the
/// victim's tid after marking it crashed, plus whether the crash fired.
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

include!("common/walks.rs");

/// One cell of `every_slab_crash_point_recovers`: crashes a churning
/// victim at `point`, keeps a live thread working, and recovers the
/// victim through it, walking every list when `full`. `None` when the
/// point needs a second thread's blocks and never fired.
fn slab_crash_cell(point: &'static str, mode: Option<HwccMode>, full: bool) -> Option<Recovered> {
    let pod = pod(mode);
    // A tight unsized limit makes the workload overflow to (and pop
    // from) the global free list quickly.
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions {
        unsized_limit: 1,
        ..AttachOptions::default()
    })
    .unwrap();

    // A workload guaranteed to traverse all slab paths: local churn,
    // slab fills (detach), remote frees (disown + steal), unsized
    // overflow to the global list, pops from it.
    let (tid, crashed) = crash_thread(&heap, CrashPlan { at: point, skip: 0 }, |t| {
        let mut helper_ptrs = Vec::new();
        for round in 0..3 {
            let ptrs: Vec<OffsetPtr> = (0..1200).map(|_| t.alloc(64).unwrap()).collect();
            for (i, p) in ptrs.into_iter().enumerate() {
                if i % 7 == round {
                    helper_ptrs.push(p);
                } else {
                    t.dealloc(p).unwrap();
                }
            }
        }
        for p in helper_ptrs {
            t.dealloc(p).unwrap();
        }
        // Everything is free now: surplus slabs went to the global
        // list. Allocate a big batch to exercise unsized pops and then
        // global-list pops.
        let again: Vec<OffsetPtr> = (0..2400).map(|_| t.alloc(64).unwrap()).collect();
        for p in again {
            t.dealloc(p).unwrap();
        }
        // A detectable alloc reaches the delivery crash point.
        let cell = t.alloc(8).unwrap();
        let p = t.alloc_detectable(64, cell).unwrap();
        t.dealloc(p).unwrap();
        t.dealloc(cell).unwrap();
    });

    // Remote-free points need a second thread; they are retried there.
    if !crashed && point.starts_with("slab::remote_free") {
        return None;
    }
    assert!(crashed, "workload never reached {point}");
    heap.mark_crashed(tid).unwrap();

    // A live thread keeps working while the victim is dead —
    // non-blocking crash (paper §3.4.1).
    let mut live = heap.register_thread().unwrap();
    for _ in 0..200 {
        let p = live.alloc(64).unwrap();
        live.dealloc(p).unwrap();
    }

    if full {
        force_full_walk(&pod, tid.slot());
    }
    let report = heap.recover(tid, live.core()).unwrap();
    Some(Recovered::after(&pod, &heap, live.core(), &report))
}

/// Exercises every slab-heap crash point with a workload that passes it,
/// recovering and validating after each, once with the targeted and
/// once with the full sanitize walk.
#[test]
fn every_slab_crash_point_recovers() {
    let mut rows = Vec::new();
    for point in cxl_core::slab::CRASH_POINTS {
        for mode in [None, Some(HwccMode::Limited), Some(HwccMode::None)] {
            let cell = format!("{point} ({mode:?})");
            let Some(targeted) = slab_crash_cell(point, mode, false) else {
                continue;
            };
            let full = slab_crash_cell(point, mode, true).expect("the same script");
            rows.push(compare_walks(cell.clone(), &targeted, &full));
            assert!(!targeted.outcome.is_empty());
            // One cell is not exact on simulated pods. The victim had
            // just re-initialised slab 3 for its 8-byte detect cell: the
            // HWcc payload (4096, the 8 B class's block count) reached
            // the device, but the SWcc header and free count died in its
            // cache, so the durable header still names the 64 B class
            // with 512 blocks (ROADMAP item 1, the *lost* semantics).
            if *point == "slab::alloc_block::after_deliver" && mode.is_some() {
                let refusal = "small: slab 3 HWcc payload 4096 exceeds 512 blocks";
                assert_eq!(targeted.census, Err(refusal.to_string()), "{cell}");
                continue;
            }
            if let Err(e) = targeted.census {
                panic!("invariants after {cell}: {e}");
            }
        }
    }
    check_walks("every_slab_crash_point_recovers", &rows);
}

/// A thread that dies inside the first allocation from its retained
/// empty slab: recovery undoes the allocation and `normalize_slab` moves
/// the (again fully free) slab to the unsized list — the hysteresis is a
/// live-path policy only — with a census naming exactly the blocks the
/// victim still held.
#[test]
fn retained_empty_slab_is_normalized_by_recovery() {
    use cxl_core::cell::{flags, SwccHeader};
    use cxl_core::class::SMALL_CLASSES_TABLE;
    let class = SMALL_CLASSES_TABLE.class_of(64).unwrap();
    let blocks = SMALL_CLASSES_TABLE.blocks_per_slab(class);
    for mode in [None, Some(HwccMode::Limited)] {
        let pod = pod(mode);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let (tid, slab, mut kept) = std::thread::scope(|s| {
            s.spawn(|| {
                let mut t = heap.register_thread().unwrap();
                // Blocks of other classes stay live across the crash;
                // the first doubles as the detect destination.
                let kept: Vec<OffsetPtr> = [8, 128, 4096].map(|size| t.alloc(size).unwrap()).to_vec();
                let cycle: Vec<OffsetPtr> = (0..blocks).map(|_| t.alloc(64).unwrap()).collect();
                let slab = pod.layout().small.slab_of(cycle[0].offset()).unwrap();
                for p in cycle {
                    t.dealloc(p).unwrap();
                }
                // Quiesce, so the interrupted allocation is the only
                // thing the crash can take with the victim's cache.
                t.flush_cache();
                crash::arm(CrashPlan {
                    at: "slab::alloc_block::after_clear",
                    skip: 0,
                });
                let crashed = crash::catch(std::panic::AssertUnwindSafe(|| {
                    t.alloc_detectable(64, kept[0]).unwrap();
                }))
                .is_err();
                crash::disarm();
                assert!(crashed, "the allocation passes after_clear");
                (t.tid(), slab, kept)
            })
            .join()
            .unwrap()
        });
        heap.mark_crashed(tid).unwrap();
        let survivor = heap.register_thread().unwrap();
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
fn remote_free_crash_points_recover() {
    for point in [
        "slab::remote_free::after_log",
        "slab::remote_free::after_cas",
        "slab::remote_free::before_steal_push",
    ] {
        let pod = pod(Some(HwccMode::Limited));
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let mut producer = heap.register_thread().unwrap();
        let ptrs: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();

        // The steal point fires exactly once per drained slab, the other
        // points fire per free: pick the skip accordingly.
        let skip = if point.ends_with("before_steal_push") { 0 } else { 100 };
        let (tid, crashed) = crash_thread(&heap, CrashPlan {
            at: point,
            skip,
        }, |t| {
            for p in &ptrs {
                t.dealloc(*p).unwrap();
            }
        });
        assert!(crashed, "never reached {point}");
        heap.mark_crashed(tid).unwrap();
        let report = heap.recover(tid, producer.core()).unwrap();
        assert!(report.interrupted.is_some());
        heap.check_invariants(producer.core())
            .unwrap_or_else(|e| panic!("invariants after {point}: {e}"));

        // The adopted thread (and the heap as a whole) remain fully
        // usable. (We do not re-free the remaining pointers: freeing a
        // block twice is an application bug, and which of the victim's
        // frees landed is exactly what the log + counter already
        // reconciled.)
        let (mut adopted, _) = heap.adopt(tid, producer.core()).unwrap();
        let fresh: Vec<OffsetPtr> = (0..256).map(|_| adopted.alloc(64).unwrap()).collect();
        for p in fresh {
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(adopted.core()).unwrap();
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

    let (tid, crashed) = crash_thread(&heap, CrashPlan {
        at: "slab::remote_free::before_steal_push",
        skip: 0,
    }, |t| {
        for p in &ptrs {
            t.dealloc(*p).unwrap();
        }
    });
    assert!(crashed);
    heap.mark_crashed(tid).unwrap();
    let slabs_before = heap.stats().small_slabs;
    let (mut adopted, report) = heap.adopt(tid, CoreId(5)).unwrap();
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

    let dst_copy = dst;
    let (tid, crashed) = crash_thread(&heap, CrashPlan {
        at: "slab::alloc_block::after_clear",
        skip: 0,
    }, move |t| {
        let _ = t.alloc_detectable(64, dst_copy);
        unreachable!("crash point must fire");
    });
    assert!(crashed);
    heap.mark_crashed(tid).unwrap();
    let report = heap.recover(tid, owner.core()).unwrap();
    assert_eq!(report.outcome, "allocation rolled back");
    assert_eq!(report.lost_block, None);
    heap.check_invariants(owner.core()).unwrap();
}

#[test]
fn interrupted_alloc_without_destination_is_reported() {
    let pod = pod(None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let (tid, crashed) = crash_thread(&heap, CrashPlan {
        at: "slab::alloc_block::after_clear",
        skip: 0,
    }, |t| {
        let _ = t.alloc(64);
        unreachable!();
    });
    assert!(crashed);
    heap.mark_crashed(tid).unwrap();
    let report = heap.recover(tid, CoreId(3)).unwrap();
    assert_eq!(report.outcome, "allocation kept; reported as lost");
    let lost = report.lost_block.expect("lost block must be reported");
    // The harness can reclaim it through the adopted thread.
    let (mut adopted, _) = heap.adopt(tid, CoreId(3)).unwrap();
    adopted.dealloc(OffsetPtr::new(lost).unwrap()).unwrap();
    heap.check_invariants(adopted.core()).unwrap();
}

#[test]
fn every_huge_crash_point_recovers() {
    for point in cxl_core::huge::CRASH_POINTS {
        let pod = pod(None);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let (tid, crashed) = crash_thread(&heap, CrashPlan {
            at: point,
            skip: 0,
        }, |t| {
            let a = t.alloc(MIB).unwrap();
            let b = t.alloc(2 * MIB).unwrap();
            t.dealloc(a).unwrap();
            t.cleanup();
            t.dealloc(b).unwrap();
            t.cleanup();
        });
        assert!(crashed, "workload never reached {point}");
        heap.mark_crashed(tid).unwrap();
        let (mut adopted, report) = heap.adopt(tid, CoreId(7)).unwrap();
        assert!(!report.outcome.is_empty());
        // The adopted thread's reconstructed state is fully usable:
        // allocate the entire huge capacity's worth over a few rounds.
        for _ in 0..3 {
            let p = adopted.alloc(4 * MIB).unwrap();
            adopted.dealloc(p).unwrap();
            adopted.cleanup();
        }
        heap.check_invariants(adopted.core())
            .unwrap_or_else(|e| panic!("invariants after {point}: {e}"));
    }
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
        let (tid, crashed) = crash_thread(&heap, CrashPlan {
            at: "slab::alloc_block::after_log",
            skip: 17 * seed + 3,
        }, |t| {
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
        assert!(crashed, "seed {seed} never crashed");
        heap.mark_crashed(tid).unwrap();
        let (mut adopted, _) = heap.adopt(tid, CoreId(9)).unwrap();
        for _ in 0..100 {
            let p = adopted.alloc(64).unwrap();
            adopted.dealloc(p).unwrap();
        }
        heap.check_invariants(adopted.core())
            .unwrap_or_else(|e| panic!("seed {seed} ({mode:?}): {e}"));
    }
}

#[test]
fn crash_point_matrix_via_schedule_driver() {
    // The full crash-point matrix: every label the allocator compiles
    // in (`crash::known_points`), at first and third encounter, driven
    // through the deterministic schedule driver on a `Limited` pod and
    // on an mCAS pod (`HwccMode::None`). Each cell crashes the victim
    // host at the label mid-churn, keeps a second host working,
    // recovers the victim cross-host, and ends with a full
    // invariant-checked drain. On the mCAS pod each cell must also
    // replay: two runs of the same (config, schedule) produce identical
    // fingerprints. Recovery's own labels are never passed by a
    // victim's churn; `crashed_recovery_is_rerun_exactly` fires them.
    //
    // Each cell also runs with the victim's durable dirty-list mask set
    // to `!0` before the run: its handle starts with every list marked,
    // so its recoveries walk all of them. The run must end with the same
    // fingerprint (outcomes and offsets), census audit and metadata.
    use cxl_drive::sched::{self, Schedule, SimConfig, Step};

    let mut rows = Vec::new();
    for mode in [HwccMode::Limited, HwccMode::None] {
        let config = SimConfig { mode, ..SimConfig::default() };
        for (module, points) in crash::known_points() {
            if module == "recovery" {
                continue;
            }
            for &at in points {
                for skip in [0u32, 2] {
                    let schedule = Schedule {
                        seed: 0,
                        hosts: 2,
                        steps: vec![
                            Step::Alloc { host: 0, size: 64 },
                            Step::Crash { host: 1, at, skip },
                            // The survivor keeps allocating while host 1
                            // is dead (non-blocking crash, paper §3.4.1).
                            Step::Alloc { host: 0, size: 256 },
                            Step::Alloc { host: 0, size: 4096 },
                            Step::Recover { host: 1, via: 0 },
                            Step::Alloc { host: 1, size: 64 },
                        ],
                    };
                    let cell = format!("{mode:?} {module}::{at} skip {skip}");
                    let run = |full: bool| {
                        let pod = config.pod();
                        if full {
                            // Host 1 registers second, in slot 1.
                            force_full_walk(&pod, 1);
                        }
                        let report = sched::run_on(&pod, &config, &schedule, &[])
                            .unwrap_or_else(|e| panic!("{cell} (full walk: {full}): {e}"));
                        (report, metadata_image(&pod))
                    };
                    let (report, image) = run(false);
                    // Whether the point fired depends on the label and
                    // skip (some are only reached once per churn; the
                    // companion test below holds every label to fire);
                    // either way the run must validate.
                    assert_eq!(report.steps, 6, "{cell}");
                    if mode == HwccMode::None {
                        let replay = sched::run(&config, &schedule, &[])
                            .unwrap_or_else(|e| panic!("{cell} (replay): {e}"));
                        assert_eq!(report.fingerprint, replay.fingerprint, "{cell}: replay diverged");
                    }
                    let (full, full_image) = run(true);
                    assert_eq!(report.fingerprint, full.fingerprint, "{cell}: the full walk diverged");
                    assert_same_image(&cell, &image, &full_image);
                    if report.recoveries > 0 {
                        rows.push(WalkRow {
                            cell,
                            targeted: (report.lists_walked, report.lists_repaired),
                            full: (full.lists_walked, full.lists_repaired),
                        });
                    }
                }
            }
        }
    }
    check_walks("crash_point_matrix_via_schedule_driver", &rows);
}

#[test]
fn crash_point_matrix_fires_for_every_label_at_skip_zero() {
    // Companion to the matrix above: at skip 0 the churn workload must
    // actually reach every label (otherwise the matrix silently tests
    // nothing). Remote-free labels need a second thread's blocks and
    // are covered by `remote_free_crash_points_recover`; recovery's
    // labels need a recovery and are covered by
    // `crashed_recovery_is_rerun_exactly`.
    use cxl_drive::sched::{self, Schedule, SimConfig, Step};

    let config = SimConfig::default();
    for (module, points) in crash::known_points() {
        if module == "recovery" {
            continue;
        }
        for &at in points {
            if at.starts_with("slab::remote_free") {
                continue;
            }
            let schedule = Schedule {
                seed: 0,
                hosts: 2,
                steps: vec![Step::Crash { host: 0, at, skip: 0 }, Step::Recover {
                    host: 0,
                    via: 1,
                }],
            };
            let report = sched::run(&config, &schedule, &[])
                .unwrap_or_else(|e| panic!("{module}::{at}: {e}"));
            assert_eq!(
                report.crashes_fired, 1,
                "churn never reached {module}::{at}"
            );
            assert_eq!(report.recoveries, 1, "{module}::{at}");
        }
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
    let (tid, crashed) = crash_thread(&heap, CrashPlan {
        at: "slab::free_local::after_set",
        skip: 5,
    }, |t| {
        let ptrs: Vec<_> = (0..100).map(|_| t.alloc(64).unwrap()).collect();
        for p in ptrs {
            t.dealloc(p).unwrap();
        }
    });
    assert!(crashed);
    heap.mark_crashed(tid).unwrap();
    let r1 = heap.recover(tid, CoreId(2)).unwrap();
    // Recovery itself can crash; re-running must be safe.
    let r2 = heap.recover(tid, CoreId(2)).unwrap();
    assert!(r1.interrupted.is_some());
    assert_eq!(r2.interrupted, None, "second pass sees a clean log");
    heap.check_invariants(CoreId(2)).unwrap();
}

#[test]
fn large_heap_crash_points_recover() {
    // The large heap shares the slab machinery; make sure its ops are
    // logged with the Large tag and recover correctly too.
    for point in [
        "slab::alloc_block::after_clear",
        "slab::free_local::after_set",
        "slab::extend::after_cas",
    ] {
        let pod = pod(None);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let skip = if point.contains("extend") { 1 } else { 3 };
        let (tid, crashed) = crash_thread(&heap, CrashPlan {
            at: point,
            skip,
        }, |t| {
            let mut live = Vec::new();
            for i in 0..64 {
                live.push(t.alloc(4096 + (i % 4) * 1024).unwrap());
                if live.len() > 8 {
                    t.dealloc(live.remove(0)).unwrap();
                }
            }
            for p in live {
                t.dealloc(p).unwrap();
            }
        });
        assert!(crashed, "never reached {point} in the large heap");
        heap.mark_crashed(tid).unwrap();
        let (mut adopted, report) = heap.adopt(tid, CoreId(4)).unwrap();
        if let Some((_, kind)) = report.interrupted {
            assert_eq!(kind, cxl_core::HeapKind::Large, "{point}");
        }
        let p = adopted.alloc(8192).unwrap();
        adopted.dealloc(p).unwrap();
        heap.check_invariants(adopted.core())
            .unwrap_or_else(|e| panic!("invariants after {point}: {e}"));
    }
}

/// A recovery that crashes is run again, and is exact. The victim dies
/// at a slab label; the first `Cxlalloc::recover` dies at each of
/// recovery's own labels; the second runs through. The adopter then
/// finds clean invariants, a census of exactly the blocks the victim
/// held, and a heap that still serves every class. (Adoption through
/// `adopt`'s ADOPTING state is not crashed here.) Each cell runs
/// with the targeted and with the full sanitize walk.
#[test]
fn crashed_recovery_is_rerun_exactly() {
    use std::collections::BTreeSet;
    const VICTIM_LABELS: [&str; 4] = [
        "slab::alloc_block::after_clear",
        "slab::free_local::after_set",
        "slab::init::mid",
        "slab::push_global::after_pop",
    ];
    let mut fired = BTreeSet::new();
    let mut rows = Vec::new();
    for mode in [None, Some(HwccMode::Limited), Some(HwccMode::None)] {
        for victim_at in VICTIM_LABELS {
            for &recovery_at in cxl_core::recovery::CRASH_POINTS {
                let cell = format!("{victim_at} then {recovery_at} ({mode:?})");
                let (targeted, crashed) = rerun_cell(&cell, mode, victim_at, recovery_at, false);
                let (full, _) = rerun_cell(&cell, mode, victim_at, recovery_at, true);
                rows.push(compare_walks(cell, &targeted, &full));
                if crashed {
                    fired.insert(recovery_at);
                }
            }
        }
    }
    check_walks("crashed_recovery_is_rerun_exactly", &rows);
    let all: BTreeSet<&str> = cxl_core::recovery::CRASH_POINTS.iter().copied().collect();
    assert_eq!(fired, all);
}

/// One cell of `crashed_recovery_is_rerun_exactly`, walking every list
/// when `full`: what the second recovery left, with the walk of the
/// first recovery that completed, and whether the first one crashed.
fn rerun_cell(
    cell: &str,
    mode: Option<HwccMode>,
    victim_at: &'static str,
    recovery_at: &'static str,
    full: bool,
) -> (Recovered, bool) {
    use cxl_core::class::{LARGE_CLASS_SIZES, SMALL_CLASS_SIZES};
    // 64-byte blocks per 32 KiB small slab.
    const PER_SLAB: usize = 512;
    // Room for one (retained) slab per large class.
    let config = PodConfig { small_max_slabs: 256, large_max_slabs: 32, ..PodConfig::small_for_tests() };
    let pod = match mode {
        None => Pod::new(config).unwrap(),
        Some(mode) => Pod::with_simulation(config, mode).unwrap(),
    };
    // Every slab a thread gives up goes to the global list.
    let options = AttachOptions { unsized_limit: 0, ..AttachOptions::default() };
    let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
    let survivor = heap.register_thread().unwrap();
    let via = survivor.core();

    // Two 64 B slabs: the first emptied (and retained), the second down
    // to one block, `last`. Freeing `last` empties it and overflows the
    // unsized list; allocating takes a block from it; a 256 B
    // allocation initializes a fresh slab.
    let (tid, mut held, last) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = heap.register_thread().unwrap();
            let held: Vec<OffsetPtr> = [8, 128, 4096].map(|size| t.alloc(size).unwrap()).to_vec();
            let mut filled: Vec<OffsetPtr> = (0..2 * PER_SLAB).map(|_| t.alloc(64).unwrap()).collect();
            let last = filled.pop().unwrap();
            for p in filled {
                t.dealloc(p).unwrap();
            }
            // Quiesce: the crashing op is then the only one the victim's
            // cache can take with it.
            t.flush_cache();
            crash::arm(CrashPlan { at: victim_at, skip: 0 });
            let crashed = crash::catch(std::panic::AssertUnwindSafe(|| match victim_at {
                "slab::alloc_block::after_clear" => drop(t.alloc_detectable(64, held[0])),
                "slab::init::mid" => drop(t.alloc(256)),
                _ => t.dealloc(last).unwrap(),
            }))
            .is_err();
            crash::disarm();
            assert!(crashed, "{cell}: the victim never crashed");
            (t.tid(), held, last)
        })
        .join()
        .unwrap()
    });
    // `last` is still held unless the crash was in its free. On a
    // simulated pod the free that crashed at `after_pop` had cleared its
    // log with the freed bit still in the victim's cache, so the block
    // reads allocated (the `crash_labels.rs` cell of the same name).
    let freed = match victim_at {
        "slab::free_local::after_set" => true,
        "slab::push_global::after_pop" => mode.is_none(),
        _ => false,
    };
    if !freed {
        held.push(last);
    }
    heap.mark_crashed(tid).unwrap();
    if full {
        force_full_walk(&pod, tid.slot());
    }

    crash::arm(CrashPlan { at: recovery_at, skip: 0 });
    let first = crash::catch(std::panic::AssertUnwindSafe(|| heap.recover(tid, via)));
    crash::disarm();
    // An idle log (the `after_pop` victim) ends recovery after sanitize,
    // before any redo label.
    let expect_crash = recovery_at == "recovery::after_sanitize" || victim_at != "slab::push_global::after_pop";
    assert_eq!(first.is_err(), expect_crash, "{cell}");
    let report = heap.recover(tid, via).unwrap();
    assert_eq!(report.lost_block, None, "{cell}");
    let mut recovered = Recovered::after(&pod, &heap, via, &report);
    // The walk to tabulate is the first one that ran to completion.
    if let Ok(Ok(first)) = &first {
        recovered.walks = (first.lists_walked.into(), first.lists_repaired.into());
    }

    heap.check_invariants(via)
        .unwrap_or_else(|e| panic!("{cell}: invariants: {e}"));
    let mut expected: Vec<u64> = held.iter().map(|p| p.offset()).collect();
    expected.sort_unstable();
    assert_eq!(recovered.census, Ok(expected.clone()), "{cell}");

    let (mut adopted, _report) = heap.adopt(tid, via).unwrap();
    for &size in SMALL_CLASS_SIZES.iter().chain(&LARGE_CLASS_SIZES) {
        let p = adopted.alloc(size as usize).unwrap();
        adopted.flush_cache();
        assert_eq!(heap.census(via).unwrap().total(), expected.len() + 1, "{cell}");
        adopted.dealloc(p).unwrap();
    }
    for p in held {
        adopted.dealloc(p).unwrap();
    }
    adopted.flush_cache();
    heap.check_invariants(via).unwrap();
    assert_eq!(heap.census(via).unwrap().total(), 0, "{cell}");
    (recovered, first.is_err())
}
