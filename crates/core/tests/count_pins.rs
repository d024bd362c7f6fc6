//! Pinned event counts: every `MemStatsSnapshot` field and the tracer's
//! per-kind attribution for five fixed deterministic scenarios. A change
//! to how the pod *counts* must leave every number here where it is; a
//! change to what the allocator *does* moves them on purpose. The marker
//! kinds (`BreakerTrip`, `BreakerHeal`, `FabricSaturated`) are the only
//! rows pinned after the others: each equals the snapshot field of the
//! same event.
//!
//! Run with `CXL_DUMP_COUNTS=1 cargo test -p cxl-core --test count_pins
//! -- --nocapture` to print the observed values in the form pinned below.

use cxl_core::sched::{self, FaultPlan, Schedule, SimConfig, Step};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::fault::{FaultKind, FaultRule};
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::trace::TraceKind;
use cxl_pod::{FabricConfig, HwccMode, Pod, PodConfig};

type ByKind = Vec<(TraceKind, u64, u64)>;

fn dumping() -> bool {
    std::env::var("CXL_DUMP_COUNTS").is_ok_and(|v| v == "1")
}

/// Runs `schedule` under `plan` on a fresh simulated pod shaped by
/// `config`, with the tracer armed for the whole run. The run's own
/// outcome (a fault plan may make it fail its checks) is not pinned
/// here; the schedule fingerprints pin behaviour.
fn traced_run(
    config: &SimConfig,
    schedule: &Schedule,
    plan: &FaultPlan,
) -> (MemStatsSnapshot, ByKind) {
    let pod = match config.fabric {
        Some(fabric) => Pod::with_simulation_fabric(config.pod_config(), config.mode, fabric),
        None => Pod::with_simulation(config.pod_config(), config.mode),
    }
    .unwrap();
    let tracer = pod.memory().tracer().expect("sim pods carry a tracer");
    tracer.arm();
    let _ = sched::run_on(&pod, config, schedule, plan);
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
    let (stats, kinds) = traced_run(
        &SimConfig::default(),
        &scripted_schedule(),
        &FaultPlan::none(),
    );
    pin!("scripted", stats, {
        loads: 4169,
        stores: 428,
        cas_ok: 127,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 416,
        fences: 236,
        line_fills: 437,
        writebacks: 191,
        cached_hits: 3451,
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
            (TraceKind::LoadHit, 3451, 14646),
            (TraceKind::LoadFill, 404, 161416),
            (TraceKind::LoadHwcc, 314, 14011),
            (TraceKind::StoreDirty, 411, 2182),
            (TraceKind::StoreHwcc, 17, 703),
            (TraceKind::CasAttempt, 127, 118877),
            (TraceKind::LineFill, 437, 0),
            (TraceKind::Writeback, 191, 0),
            (TraceKind::Flush, 282, 31523),
            (TraceKind::Fence, 236, 6617),
            (TraceKind::SlabAlloc, 26, 0),
            (TraceKind::SlabFree, 16, 0),
            (TraceKind::LeaseRenew, 95, 0),
            (TraceKind::WritebackKept, 134, 15075),
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
        let (stats, kinds) = traced_run(&config, &schedule, &FaultPlan::none());
        let label = format!("liveness seed {seed}");
        match seed {
            14 => {
                pin!(label, stats, {
                    loads: 1719,
                    stores: 193,
                    cas_ok: 21,
                    cas_fail: 0,
                    mcas_ok: 108,
                    mcas_fail: 20,
                    flushes: 215,
                    fences: 141,
                    line_fills: 263,
                    writebacks: 69,
                    cached_hits: 1006,
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
                        (TraceKind::LoadHit, 1006, 4252),
                        (TraceKind::LoadFill, 246, 98076),
                        (TraceKind::LoadUncached, 467, 233616),
                        (TraceKind::StoreDirty, 179, 961),
                        (TraceKind::StoreUncached, 14, 7393),
                        (TraceKind::CasRetry, 20, 0),
                        (TraceKind::CasFallback, 21, 30818),
                        (TraceKind::McasAttempt, 108, 496977),
                        (TraceKind::McasRetry, 20, 82752),
                        (TraceKind::LineFill, 263, 0),
                        (TraceKind::Writeback, 69, 0),
                        (TraceKind::Flush, 159, 18028),
                        (TraceKind::Fence, 141, 4017),
                        (TraceKind::SlabAlloc, 8, 0),
                        (TraceKind::SlabFree, 3, 0),
                        (TraceKind::LeaseRenew, 103, 0),
                        (TraceKind::WritebackKept, 56, 6137),
                        (TraceKind::BreakerTrip, 2, 0),
                        (TraceKind::BreakerHeal, 1, 0),
                    ],
                );
            }
            40 => {
                pin!(label, stats, {
                    loads: 2708,
                    stores: 275,
                    cas_ok: 12,
                    cas_fail: 0,
                    mcas_ok: 93,
                    mcas_fail: 10,
                    flushes: 216,
                    fences: 164,
                    line_fills: 259,
                    writebacks: 105,
                    cached_hits: 2052,
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
                        (TraceKind::LoadHit, 2052, 8699),
                        (TraceKind::LoadFill, 238, 95580),
                        (TraceKind::LoadUncached, 418, 210072),
                        (TraceKind::StoreDirty, 258, 1378),
                        (TraceKind::StoreUncached, 17, 8998),
                        (TraceKind::CasRetry, 10, 0),
                        (TraceKind::CasFallback, 12, 18278),
                        (TraceKind::McasAttempt, 93, 672830),
                        (TraceKind::McasRetry, 10, 24548),
                        (TraceKind::LineFill, 259, 0),
                        (TraceKind::Writeback, 105, 0),
                        (TraceKind::Flush, 136, 15189),
                        (TraceKind::Fence, 164, 4515),
                        (TraceKind::SlabAlloc, 13, 0),
                        (TraceKind::SlabFree, 7, 0),
                        (TraceKind::LeaseRenew, 79, 0),
                        (TraceKind::WritebackKept, 80, 8923),
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
    let plan = FaultPlan::of(vec![
        FaultRule::new(FaultKind::DropFlush)
            .on_core(1)
            .after(5)
            .times(2),
        FaultRule::new(FaultKind::DelayWriteback(700))
            .after(3)
            .times(4),
    ]);
    let schedule = Schedule::generate(17, 2, 40);
    let (stats, kinds) = traced_run(&SimConfig::default(), &schedule, &plan);
    pin!("faults", stats, {
        loads: 105843,
        stores: 90021,
        cas_ok: 110,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 39517,
        fences: 39329,
        line_fills: 490,
        writebacks: 39256,
        cached_hits: 105036,
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
            (TraceKind::LoadHit, 105036, 446013),
            (TraceKind::LoadFill, 414, 166121),
            (TraceKind::LoadHwcc, 393, 17389),
            (TraceKind::StoreDirty, 89968, 480782),
            (TraceKind::StoreHwcc, 53, 2364),
            (TraceKind::CasAttempt, 110, 3434460),
            (TraceKind::LineFill, 490, 0),
            (TraceKind::Writeback, 39256, 0),
            (TraceKind::Flush, 325, 36659),
            (TraceKind::FlushDropped, 2, 209),
            (TraceKind::Fence, 39329, 1094103),
            (TraceKind::SlabAlloc, 10959, 0),
            (TraceKind::SlabFree, 8550, 0),
            (TraceKind::LeaseRenew, 39, 0),
            (TraceKind::WritebackKept, 39192, 4390460),
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
    let (stats, kinds) = traced_run(&config, &schedule, &FaultPlan::none());
    pin!("congested", stats, {
        loads: 4556,
        stores: 417,
        cas_ok: 193,
        cas_fail: 0,
        mcas_ok: 0,
        mcas_fail: 0,
        flushes: 436,
        fences: 225,
        line_fills: 426,
        writebacks: 179,
        cached_hits: 3738,
        uncached_ops: 0,
        faults_injected: 0,
        cas_retries: 0,
        breaker_trips: 0,
        breaker_heals: 0,
        fallback_cas: 0,
        fabric_requests: 544,
        fabric_queue_ns: 115331,
        fabric_service_ns: 59296,
        fabric_saturated: 112,
    });
    pin_kinds(
        "congested",
        &kinds,
        &[
            (TraceKind::LoadHit, 3738, 15841),
            (TraceKind::LoadFill, 399, 159965),
            (TraceKind::LoadHwcc, 419, 18726),
            (TraceKind::StoreDirty, 397, 2112),
            (TraceKind::StoreHwcc, 20, 880),
            (TraceKind::CasAttempt, 193, 263731),
            (TraceKind::LineFill, 426, 0),
            (TraceKind::Writeback, 179, 0),
            (TraceKind::Flush, 302, 33645),
            (TraceKind::Fence, 225, 6319),
            (TraceKind::SlabAlloc, 20, 0),
            (TraceKind::SlabFree, 20, 0),
            (TraceKind::LeaseRenew, 160, 0),
            (TraceKind::WritebackKept, 134, 14604),
            (TraceKind::FabricQueue, 509, 115331),
            (TraceKind::FabricService, 544, 59296),
            (TraceKind::FabricSaturated, 112, 0),
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
