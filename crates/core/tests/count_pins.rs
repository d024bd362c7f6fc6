//! Pinned event counts: every `MemStatsSnapshot` field and the tracer's
//! per-kind attribution for five fixed deterministic scenarios. A change
//! to how the pod *counts* must leave every number here where it is; a
//! change to what the allocator *does* moves them on purpose. The marker
//! kinds (`BreakerTrip`, `BreakerHeal`, `FabricSaturated`) are the only
//! rows pinned after the others.
//!
//! The snapshot counts the whole run. The attribution stops where
//! `sched::run_on` closes the traced window, after the final quiesce and
//! before the end-of-run audit, so a checker change moves no row. A
//! kind's row is therefore its snapshot field less the audit's share:
//! `FabricSaturated` reads 70 of the congested run's 103 saturated
//! crossings, 33 of them the audit's.
//!
//! Run with `CXL_DUMP_COUNTS=1 cargo test -p cxl-core --test count_pins
//! -- --nocapture` to print the observed values in the form pinned below.

use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_drive::sched::{self, Schedule, SimConfig, Step};
use cxl_pod::fault::{FaultKind, FaultRule};
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::trace::TraceKind;
use cxl_pod::{FabricConfig, HwccMode, Pod, PodConfig};

type ByKind = Vec<(TraceKind, u64, u64)>;

fn dumping() -> bool {
    std::env::var("CXL_DUMP_COUNTS").is_ok_and(|v| v == "1")
}

/// Runs `schedule` with `faults` armed on a fresh simulated pod shaped
/// by `config`, with the tracer armed from its first step. The run's own
/// outcome (fault rules may make it fail its checks) is not pinned
/// here; the schedule fingerprints pin behaviour.
fn traced_run(
    config: &SimConfig,
    schedule: &Schedule,
    faults: &[FaultRule],
) -> (MemStatsSnapshot, ByKind) {
    let pod = config.pod();
    let tracer = pod.memory().tracer().expect("sim pods carry a tracer");
    tracer.arm();
    let _ = sched::run_on(&pod, config, schedule, faults);
    tracer.disarm();
    (pod.memory().stats(), tracer.attribution().by_kind())
}

/// Asserts each named field of a snapshot, or prints the snapshot when
/// dumping.
macro_rules! pin {
    ($label:expr, $stats:expr, { $($field:ident: $value:expr),* $(,)? }) => {{
        let stats: &MemStatsSnapshot = &$stats;
        if dumping() {
            println!("{}: {:#?}", $label, stats);
        } else {
            $(assert_eq!(stats.$field, $value, "{}: MemStatsSnapshot.{}", $label, stringify!($field));)*
        }
    }};
}

fn pin_kinds(label: &str, got: &ByKind, want: &[(TraceKind, u64, u64)]) {
    if dumping() {
        println!("{label}: by_kind = {got:?}");
    } else {
        assert_eq!(got.as_slice(), want, "{label}: attribution().by_kind()");
    }
}

fn scripted_schedule() -> Schedule {
    let mut steps = Vec::new();
    for round in 0..6usize {
        for host in 0..2 {
            steps.push(Step::Alloc {
                host,
                size: 64 << (round % 4),
            });
            steps.push(Step::Alloc {
                host,
                size: 4096 + 512 * round,
            });
        }
        steps.push(Step::Dealloc {
            host: round % 2,
            index: round,
        });
        steps.push(Step::FlushCache {
            host: (round + 1) % 2,
        });
    }
    steps.push(Step::Alloc {
        host: 0,
        size: 1 << 20,
    });
    steps.push(Step::Crash {
        host: 1,
        at: "slab::alloc_block::after_log",
        skip: 1,
    });
    steps.push(Step::Recover { host: 1, via: 0 });
    steps.push(Step::Cleanup { host: 0 });
    for index in 0..8 {
        steps.push(Step::Dealloc {
            host: index % 2,
            index,
        });
    }
    Schedule {
        seed: 0,
        hosts: 2,
        steps,
    }
}

#[test]
fn scripted_two_host_run_on_limited() {
    let (stats, kinds) = traced_run(&SimConfig::default(), &scripted_schedule(), &[]);
    pin!("scripted", stats, {
        loads: 4006,
        stores: 430,
        cas_ok: 127,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 418,
        fences: 238,
        line_fills: 440,
        writebacks: 193,
        cached_hits: 3383,
        uncached_ops: 0,
        faults_injected: 0,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 0,
        fabric_queue_ns: 0,
        fabric_service_ns: 0,
        fabric_saturated: 0,
    });
    pin_kinds(
        "scripted",
        &kinds,
        &[
            (TraceKind::LoadHit, 238, 1007),
            (TraceKind::LoadFill, 248, 99077),
            (TraceKind::LoadHwcc, 153, 6865),
            (TraceKind::StoreDirty, 413, 2207),
            (TraceKind::StoreHwcc, 17, 707),
            (TraceKind::CasAttempt, 127, 116711),
            (TraceKind::LineFill, 283, 0),
            (TraceKind::Writeback, 193, 0),
            (TraceKind::Flush, 209, 23714),
            (TraceKind::Fence, 163, 4583),
            (TraceKind::SlabAlloc, 26, 0),
            (TraceKind::SlabFree, 16, 0),
            (TraceKind::LeaseRenew, 95, 0),
            (TraceKind::WritebackKept, 134, 15058),
        ],
    );
}

#[test]
fn liveness_seeds_on_none_with_device_degrade() {
    let config = SimConfig {
        hosts: 3,
        mode: HwccMode::None,
        ..SimConfig::default()
    };
    for seed in [14u64, 40] {
        let schedule = Schedule::generate_liveness(seed, 3, 48);
        let (stats, kinds) = traced_run(&config, &schedule, &[]);
        let label = format!("liveness seed {seed}");
        match seed {
            14 => {
                pin!(label, stats, {
                    loads: 1520,
                    stores: 197,
                    cas_ok: 21,
                    cas_fail: 0,
                    mcas_ok: 108,
                    mcas_fail: 20,
                    flushes: 219,
                    fences: 145,
                    line_fills: 273,
                    writebacks: 73,
                    cached_hits: 989,
                    uncached_ops: 293,
                    faults_injected: 20,
                    cas_retries: 20,
                    breaker_trips: 2,
                    breaker_heals: 1,
                    fallback_cas: 21,
                    fabric_requests: 0,
                    fabric_queue_ns: 0,
                    fabric_service_ns: 0,
                    fabric_saturated: 0,
                });
                pin_kinds(
                    &label,
                    &kinds,
                    &[
                        (TraceKind::LoadHit, 144, 611),
                        (TraceKind::LoadFill, 112, 45282),
                        (TraceKind::LoadUncached, 224, 112001),
                        (TraceKind::StoreDirty, 183, 969),
                        (TraceKind::StoreUncached, 14, 7325),
                        (TraceKind::CasRetry, 20, 0),
                        (TraceKind::CasFallback, 21, 32330),
                        (TraceKind::McasAttempt, 108, 498558),
                        (TraceKind::McasRetry, 20, 77012),
                        (TraceKind::LineFill, 133, 0),
                        (TraceKind::Writeback, 73, 0),
                        (TraceKind::Flush, 103, 11535),
                        (TraceKind::Fence, 86, 2350),
                        (TraceKind::SlabAlloc, 8, 0),
                        (TraceKind::SlabFree, 3, 0),
                        (TraceKind::LeaseRenew, 103, 0),
                        (TraceKind::WritebackKept, 56, 6530),
                        (TraceKind::BreakerTrip, 2, 0),
                        (TraceKind::BreakerHeal, 1, 0),
                    ],
                );
            }
            40 => {
                pin!(label, stats, {
                    loads: 2522,
                    stores: 277,
                    cas_ok: 12,
                    cas_fail: 0,
                    mcas_ok: 93,
                    mcas_fail: 10,
                    flushes: 218,
                    fences: 166,
                    line_fills: 265,
                    writebacks: 107,
                    cached_hits: 2019,
                    uncached_ops: 277,
                    faults_injected: 10,
                    cas_retries: 10,
                    breaker_trips: 1,
                    breaker_heals: 1,
                    fallback_cas: 12,
                    fabric_requests: 0,
                    fabric_queue_ns: 0,
                    fabric_service_ns: 0,
                    fabric_saturated: 0,
                });
                pin_kinds(
                    &label,
                    &kinds,
                    &[
                        (TraceKind::LoadHit, 164, 696),
                        (TraceKind::LoadFill, 94, 37407),
                        (TraceKind::LoadUncached, 201, 100291),
                        (TraceKind::StoreDirty, 260, 1384),
                        (TraceKind::StoreUncached, 17, 8543),
                        (TraceKind::CasRetry, 10, 0),
                        (TraceKind::CasFallback, 12, 18304),
                        (TraceKind::McasAttempt, 93, 670351),
                        (TraceKind::McasRetry, 10, 22871),
                        (TraceKind::LineFill, 116, 0),
                        (TraceKind::Writeback, 107, 0),
                        (TraceKind::Flush, 70, 8003),
                        (TraceKind::Fence, 99, 2714),
                        (TraceKind::SlabAlloc, 13, 0),
                        (TraceKind::SlabFree, 7, 0),
                        (TraceKind::LeaseRenew, 79, 0),
                        (TraceKind::WritebackKept, 80, 9083),
                        (TraceKind::BreakerTrip, 1, 0),
                        (TraceKind::BreakerHeal, 1, 0),
                    ],
                );
            }
            _ => unreachable!(),
        }
    }
}

#[test]
fn drop_flush_and_delay_writeback_plan() {
    let faults = [
        FaultRule::new(FaultKind::DropFlush)
            .on_core(1)
            .after(5)
            .times(2),
        FaultRule::new(FaultKind::DelayWriteback(700))
            .after(3)
            .times(4),
    ];
    let schedule = Schedule::generate(17, 2, 40);
    let (stats, kinds) = traced_run(&SimConfig::default(), &schedule, &faults);
    pin!("faults", stats, {
        loads: 62636,
        stores: 90023,
        cas_ok: 110,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 39519,
        fences: 39331,
        line_fills: 495,
        writebacks: 39258,
        cached_hits: 61951,
        uncached_ops: 0,
        faults_injected: 6,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 0,
        fabric_queue_ns: 0,
        fabric_service_ns: 0,
        fabric_saturated: 0,
    });
    pin_kinds(
        "faults",
        &kinds,
        &[
            (TraceKind::LoadHit, 59199, 251143),
            (TraceKind::LoadFill, 248, 100304),
            (TraceKind::LoadHwcc, 211, 9415),
            (TraceKind::StoreDirty, 89970, 481002),
            (TraceKind::StoreHwcc, 53, 2408),
            (TraceKind::CasAttempt, 110, 3334242),
            (TraceKind::LineFill, 325, 0),
            (TraceKind::Writeback, 39258, 0),
            (TraceKind::Flush, 241, 27469),
            (TraceKind::FlushDropped, 2, 227),
            (TraceKind::Fence, 39245, 1091618),
            (TraceKind::SlabAlloc, 10959, 0),
            (TraceKind::SlabFree, 8550, 0),
            (TraceKind::LeaseRenew, 39, 0),
            (TraceKind::WritebackKept, 39192, 4391434),
        ],
    );
}

#[test]
fn congested_fabric_run() {
    let config = SimConfig {
        hosts: 4,
        fabric: Some(FabricConfig {
            knee_pct: 20,
            ..FabricConfig::congested()
        }),
        ..SimConfig::default()
    };
    let schedule = Schedule::generate(5, 4, 40);
    let (stats, kinds) = traced_run(&config, &schedule, &[]);
    pin!("congested", stats, {
        loads: 4356,
        stores: 419,
        cas_ok: 193,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 438,
        fences: 227,
        line_fills: 431,
        writebacks: 181,
        cached_hits: 3662,
        uncached_ops: 0,
        faults_injected: 0,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 550,
        fabric_queue_ns: 116615,
        fabric_service_ns: 59950,
        fabric_saturated: 103,
    });
    pin_kinds(
        "congested",
        &kinds,
        &[
            (TraceKind::LoadHit, 239, 1007),
            (TraceKind::LoadFill, 241, 95849),
            (TraceKind::LoadHwcc, 223, 9919),
            (TraceKind::StoreDirty, 399, 2123),
            (TraceKind::StoreHwcc, 20, 906),
            (TraceKind::CasAttempt, 193, 262272),
            (TraceKind::LineFill, 269, 0),
            (TraceKind::Writeback, 181, 0),
            (TraceKind::Flush, 224, 25037),
            (TraceKind::Fence, 147, 4075),
            (TraceKind::SlabAlloc, 20, 0),
            (TraceKind::SlabFree, 20, 0),
            (TraceKind::LeaseRenew, 160, 0),
            (TraceKind::WritebackKept, 134, 14857),
            (TraceKind::FabricQueue, 365, 40731),
            (TraceKind::FabricService, 388, 42292),
            (TraceKind::FabricSaturated, 70, 0),
        ],
    );
}

#[test]
fn two_thread_remote_free_on_a_raw_pod() {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(
        pod.spawn_process(),
        AttachOptions {
            remote_free_batch: 8,
            ..AttachOptions::default()
        },
    )
    .unwrap();
    let mut owner = heap.register_thread().unwrap();
    let ptrs: Vec<OffsetPtr> = (0..300)
        .map(|i| owner.alloc(64 + (i % 3) * 64).unwrap())
        .collect();
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut remote = heap.register_thread().unwrap();
            for &ptr in ptrs.iter().skip(20) {
                remote.dealloc(ptr).unwrap();
            }
            remote.flush_local_caches();
        });
    });
    for &ptr in ptrs.iter().take(20) {
        owner.dealloc(ptr).unwrap();
    }
    pin!("raw", pod.memory().stats(), {
        loads: 0,
        stores: 0,
        cas_ok: 41,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 0,
        fences: 0,
        line_fills: 0,
        writebacks: 0,
        cached_hits: 0,
        uncached_ops: 0,
        faults_injected: 0,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 0,
        fabric_queue_ns: 0,
        fabric_service_ns: 0,
        fabric_saturated: 0,
    });
}

/// Eight OS threads on eight registered slots of a raw pod, each
/// remote-freeing half the blocks its neighbour slot allocated: every
/// thread charges its own core, and the CAS and publish totals equal
/// those of the same frees made one thread at a time.
#[test]
fn per_core_counts_are_exact_under_real_threads() {
    const THREADS: usize = 8;
    const BLOCKS: usize = 200;
    let run = |concurrent: bool| {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let mut handles: Vec<_> = (0..THREADS)
            .map(|_| heap.register_thread().unwrap())
            .collect();
        let blocks: Vec<Vec<OffsetPtr>> = handles
            .iter_mut()
            .map(|h| (0..BLOCKS).map(|_| h.alloc(64).unwrap()).collect())
            .collect();
        let before = pod.memory().stats();
        let free = |(i, mut handle): (usize, cxl_core::ThreadHandle)| {
            for &ptr in blocks[(i + 1) % THREADS].iter().step_by(2) {
                handle.dealloc(ptr).unwrap();
            }
        };
        if concurrent {
            std::thread::scope(|s| {
                for job in handles.into_iter().enumerate() {
                    s.spawn(move || free(job));
                }
            });
        } else {
            handles.into_iter().enumerate().for_each(free);
        }
        pod.memory().stats().since(&before)
    };
    let (one_by_one, together) = (run(false), run(true));
    assert_eq!(one_by_one.remote_publishes, (THREADS * BLOCKS / 2) as u64);
    assert!(one_by_one.cas_ok >= one_by_one.remote_publishes);
    assert_eq!(together, one_by_one, "a count was lost or doubled");
}

/// `register_thread`, `Cxlalloc::stats` and `mark_crashed` charge
/// `CoreId(0)` from whichever thread calls them: on a raw pod their
/// registry CASes are still counted exactly.
#[test]
fn shared_core_zero_charges_are_exact_under_real_threads() {
    const THREADS: u64 = 8;
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let before = pod.memory().stats();
    std::thread::scope(|s| {
        for _ in 0..THREADS {
            s.spawn(|| {
                let handle = heap.register_thread().unwrap();
                let _ = heap.stats();
                heap.mark_crashed(handle.tid()).unwrap();
            });
        }
    });
    let delta = pod.memory().stats().since(&before);
    // One successful registry CAS to claim each slot, one to mark it
    // dead; a registration that lost its slot to another thread's is a
    // failed CAS and moves on.
    assert_eq!(delta.cas_ok, 2 * THREADS);
    assert_eq!(delta.cas_retries, 0);
}

/// Loads of one adopt on a `mode` pod with `huge_regions` reservation
/// cells, of a victim whose 1 KiB list holds `slabs` non-full slabs and
/// that quiesces, then dies inside an allocation from the list's head
/// (`slab::alloc_block::after_log`). The victim never claimed a huge
/// region.
fn adopt_loads(mode: HwccMode, slabs: usize, huge_regions: u32) -> u64 {
    let config = PodConfig {
        huge_regions,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::with_simulation(config, mode).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let survivor = heap.register_thread().unwrap();
    let mut t = heap.register_thread().unwrap();
    let class = cxl_core::class::SMALL_CLASSES_TABLE.class_of(1024).unwrap();
    let per_slab = cxl_core::class::SMALL_CLASSES_TABLE.blocks_per_slab(class) as usize;
    // Each slab fills and detaches; freeing its block 0 relinks it.
    let blocks: Vec<OffsetPtr> = (0..slabs * per_slab).map(|_| t.alloc(1024).unwrap()).collect();
    for s in 0..slabs {
        t.dealloc(blocks[s * per_slab]).unwrap();
    }
    t.flush_cache();
    cxl_core::crash::arm(cxl_core::crash::CrashPlan { at: "slab::alloc_block::after_log", skip: 0 });
    let crashed = cxl_core::crash::catch(std::panic::AssertUnwindSafe(|| t.alloc(1024)));
    cxl_core::crash::disarm();
    assert!(crashed.is_err(), "the allocation passes after_log");
    let tid = t.tid();
    drop(t);
    heap.mark_crashed(tid).unwrap();
    let before = pod.memory().stats().loads;
    let (_adopted, report) = heap.adopt(tid, survivor.core()).unwrap();
    let interrupted = Some((cxl_core::Op::AllocBlock, cxl_core::HeapKind::Small));
    assert_eq!(report.interrupted, interrupted);
    pod.memory().stats().loads - before
}

/// One adopt, after the same victim op, at 4 and 32 slabs on the logged
/// list and 32 and 1 024 reservation cells. On a coherent pod it reads
/// the logged list's head and slab and no reservation cell, whatever the
/// list's length or the array's (it read 75, 159, 1 067 and 1 151 loads
/// when it walked the whole list and scanned every cell). On `Limited`
/// the mask names the logged list, which is walked in full, so its
/// loads still grow with the list: each is the full walk's less the
/// reservation scan, plus the claimed-region hint's one load.
#[test]
fn a_coherent_adopt_reads_as_much_at_any_heap_size_and_region_count() {
    let shapes = [(4, 32), (32, 32), (4, 1024), (32, 1024)];
    let full = shapes.map(|(slabs, regions)| adopt_loads(HwccMode::Full, slabs, regions));
    let limited = shapes.map(|(slabs, regions)| adopt_loads(HwccMode::Limited, slabs, regions));
    if dumping() {
        println!("adopt loads: Full {full:?}, Limited {limited:?}");
        return;
    }
    assert_eq!(full, [35; 4], "Full: [4 slabs, 32 slabs] x [32 regions, 1024 regions]");
    assert_eq!(limited, [44, 128, 44, 128], "Limited: [4 slabs, 32 slabs] x [32 regions, 1024 regions]");
}
