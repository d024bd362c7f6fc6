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
//! `FabricSaturated` reads 79 of the congested run's 113 saturated
//! crossings, 34 of them the audit's.
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
        loads: 4099,
        stores: 428,
        cas_ok: 127,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 416,
        fences: 236,
        line_fills: 435,
        writebacks: 191,
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
            (TraceKind::LoadHit, 238, 1009),
            (TraceKind::LoadFill, 245, 98685),
            (TraceKind::LoadHwcc, 249, 11181),
            (TraceKind::StoreDirty, 411, 2179),
            (TraceKind::StoreHwcc, 17, 757),
            (TraceKind::CasAttempt, 127, 116500),
            (TraceKind::LineFill, 278, 0),
            (TraceKind::Writeback, 191, 0),
            (TraceKind::Flush, 207, 23206),
            (TraceKind::Fence, 161, 4486),
            (TraceKind::SlabAlloc, 26, 0),
            (TraceKind::SlabFree, 16, 0),
            (TraceKind::LeaseRenew, 95, 0),
            (TraceKind::WritebackKept, 134, 14978),
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
                    loads: 1702,
                    stores: 193,
                    cas_ok: 21,
                    cas_fail: 0,
                    mcas_ok: 108,
                    mcas_fail: 20,
                    flushes: 215,
                    fences: 141,
                    line_fills: 263,
                    writebacks: 69,
                    cached_hits: 989,
                    uncached_ops: 481,
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
                        (TraceKind::LoadFill, 106, 42029),
                        (TraceKind::LoadUncached, 412, 206893),
                        (TraceKind::StoreDirty, 179, 953),
                        (TraceKind::StoreUncached, 14, 7046),
                        (TraceKind::CasRetry, 20, 0),
                        (TraceKind::CasFallback, 21, 30547),
                        (TraceKind::McasAttempt, 108, 503941),
                        (TraceKind::McasRetry, 20, 80380),
                        (TraceKind::LineFill, 123, 0),
                        (TraceKind::Writeback, 69, 0),
                        (TraceKind::Flush, 99, 11146),
                        (TraceKind::Fence, 82, 2291),
                        (TraceKind::SlabAlloc, 8, 0),
                        (TraceKind::SlabFree, 3, 0),
                        (TraceKind::LeaseRenew, 103, 0),
                        (TraceKind::WritebackKept, 56, 6338),
                        (TraceKind::BreakerTrip, 2, 0),
                        (TraceKind::BreakerHeal, 1, 0),
                    ],
                );
            }
            40 => {
                pin!(label, stats, {
                    loads: 2675,
                    stores: 275,
                    cas_ok: 12,
                    cas_fail: 0,
                    mcas_ok: 93,
                    mcas_fail: 10,
                    flushes: 216,
                    fences: 164,
                    line_fills: 259,
                    writebacks: 105,
                    cached_hits: 2019,
                    uncached_ops: 435,
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
                        (TraceKind::LoadHit, 164, 697),
                        (TraceKind::LoadFill, 89, 35822),
                        (TraceKind::LoadUncached, 359, 179568),
                        (TraceKind::StoreDirty, 258, 1382),
                        (TraceKind::StoreUncached, 17, 8396),
                        (TraceKind::CasRetry, 10, 0),
                        (TraceKind::CasFallback, 12, 17670),
                        (TraceKind::McasAttempt, 93, 678067),
                        (TraceKind::McasRetry, 10, 22086),
                        (TraceKind::LineFill, 110, 0),
                        (TraceKind::Writeback, 105, 0),
                        (TraceKind::Flush, 68, 7695),
                        (TraceKind::Fence, 97, 2728),
                        (TraceKind::SlabAlloc, 13, 0),
                        (TraceKind::SlabFree, 7, 0),
                        (TraceKind::LeaseRenew, 79, 0),
                        (TraceKind::WritebackKept, 80, 8717),
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
        loads: 62758,
        stores: 90021,
        cas_ok: 110,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 39517,
        fences: 39329,
        line_fills: 490,
        writebacks: 39256,
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
            (TraceKind::LoadHit, 59199, 251210),
            (TraceKind::LoadFill, 244, 98059),
            (TraceKind::LoadHwcc, 337, 14879),
            (TraceKind::StoreDirty, 89968, 480902),
            (TraceKind::StoreHwcc, 53, 2339),
            (TraceKind::CasAttempt, 110, 3334721),
            (TraceKind::LineFill, 320, 0),
            (TraceKind::Writeback, 39256, 0),
            (TraceKind::Flush, 239, 27057),
            (TraceKind::FlushDropped, 2, 207),
            (TraceKind::Fence, 39243, 1092239),
            (TraceKind::SlabAlloc, 10959, 0),
            (TraceKind::SlabFree, 8550, 0),
            (TraceKind::LeaseRenew, 39, 0),
            (TraceKind::WritebackKept, 39192, 4390857),
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
        loads: 4480,
        stores: 417,
        cas_ok: 193,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 436,
        fences: 225,
        line_fills: 426,
        writebacks: 179,
        cached_hits: 3662,
        uncached_ops: 0,
        faults_injected: 0,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 544,
        fabric_queue_ns: 115111,
        fabric_service_ns: 59296,
        fabric_saturated: 113,
    });
    pin_kinds(
        "congested",
        &kinds,
        &[
            (TraceKind::LoadHit, 239, 1007),
            (TraceKind::LoadFill, 237, 95442),
            (TraceKind::LoadHwcc, 351, 15598),
            (TraceKind::StoreDirty, 397, 2112),
            (TraceKind::StoreHwcc, 20, 881),
            (TraceKind::CasAttempt, 193, 264555),
            (TraceKind::LineFill, 264, 0),
            (TraceKind::Writeback, 179, 0),
            (TraceKind::Flush, 222, 24903),
            (TraceKind::Fence, 145, 4013),
            (TraceKind::SlabAlloc, 20, 0),
            (TraceKind::SlabFree, 20, 0),
            (TraceKind::LeaseRenew, 160, 0),
            (TraceKind::WritebackKept, 134, 14883),
            (TraceKind::FabricQueue, 358, 39580),
            (TraceKind::FabricService, 382, 41638),
            (TraceKind::FabricSaturated, 79, 0),
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
