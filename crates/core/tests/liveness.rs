//! Pod-liveness acceptance tests (ISSUE tentpole + satellites):
//! lease-based failure detection, raced adoption with exactly one
//! winner, and degraded-mode mCAS behind the device-health breaker.

use std::sync::atomic::{AtomicU32, Ordering};

use cxl_core::explore::Explorer;
use cxl_core::liveness::LivenessDetector;
use cxl_core::sched::SimConfig;
use cxl_core::{AllocError, AttachOptions, Cxlalloc};
use cxl_pod::fault::FaultRule;
use cxl_pod::{BreakerConfig, CoreId, DeviceMode, HwccMode, Pod, PodConfig, SimMemory};

fn sim_pod(mode: HwccMode) -> Pod {
    Pod::with_simulation(PodConfig::small_for_tests(), mode).unwrap()
}

fn sim(pod: &Pod) -> &SimMemory {
    pod.memory().as_any().downcast_ref::<SimMemory>().unwrap()
}

/// Satellite: two survivors race to adopt the same dead thread — the
/// DEAD→ADOPTING CAS linearizes the race, exactly one wins, and the
/// loser gets a clean typed error. Run under injected mCAS contention
/// so the registry CASes themselves bounce along the way.
#[test]
fn adoption_race_has_exactly_one_winner() {
    for round in 0..8u64 {
        let pod = sim_pod(HwccMode::None);
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();

        // Victim allocates, then "hangs" (handle dropped, registry LIVE).
        let mut victim = heap.register_thread().unwrap();
        let tid = victim.tid();
        let ptr = victim.alloc(128).unwrap();
        drop(victim);
        assert!(heap.declare_dead(tid).unwrap());

        // A transient burst of device contention hits the racers' CASes
        // (seeded differently per round; short of the breaker trip).
        sim(&pod).faults().push(FaultRule::device_outage(2 + round % 4));

        let wins = AtomicU32::new(0);
        let raced = AtomicU32::new(0);
        std::thread::scope(|s| {
            for core in [2u16, 3u16] {
                let heap = heap.clone();
                let (wins, raced) = (&wins, &raced);
                s.spawn(move || match heap.try_adopt(tid, CoreId(core)) {
                    Ok((handle, _report)) => {
                        // The winner owns the slot and can use it.
                        let mut handle = handle;
                        handle.dealloc(ptr).unwrap();
                        handle.alloc(64).unwrap();
                        wins.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(AllocError::AdoptionRaced { thread }) => {
                        assert_eq!(thread, tid);
                        raced.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(other) => panic!("loser got unclean error: {other}"),
                });
            }
        });
        assert_eq!(wins.load(Ordering::Relaxed), 1, "round {round}");
        assert_eq!(raced.load(Ordering::Relaxed), 1, "round {round}");
        heap.check_invariants(CoreId(0)).unwrap();
    }
}

/// Satellite: adopting a slot that is not DEAD is rejected with a typed
/// error, not a panic or a silent success. A LIVE slot reads as a lost
/// race (an adopter may have already committed); a FREE slot is a state
/// error.
#[test]
fn adopting_non_dead_slots_is_rejected() {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let t = heap.register_thread().unwrap();
    match heap.try_adopt(t.tid(), CoreId(1)) {
        Err(AllocError::AdoptionRaced { thread }) => assert_eq!(thread, t.tid()),
        other => panic!("expected AdoptionRaced, got {other:?}"),
    }
    let free = cxl_core::ThreadId::new(pod.layout().max_threads as u16).unwrap();
    match heap.try_adopt(free, CoreId(1)) {
        Err(AllocError::BadThreadState { .. }) => {}
        other => panic!("expected BadThreadState, got {other:?}"),
    }
}

/// Tentpole: a silent thread is detected by lease expiry, flipped DEAD,
/// and adopted; its memory survives and the heap stays consistent.
#[test]
fn lease_detection_end_to_end() {
    let pod = sim_pod(HwccMode::Limited);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();

    let live = heap.register_thread().unwrap();
    let mut victim = heap.register_thread().unwrap();
    let victim_tid = victim.tid();
    let ptr = victim.alloc(256).unwrap();
    unsafe { victim.resolve(ptr, 256).unwrap().write_bytes(0xAB, 256) };
    drop(victim); // hang: lease frozen, registry still LIVE

    let mut detector = LivenessDetector::new(pod.layout().max_threads, 3);
    let mut expired = Vec::new();
    for _ in 0..4 {
        live.heartbeat().unwrap();
        let report = detector.tick(&heap, live.core()).unwrap();
        expired.extend(report.expired);
    }
    assert_eq!(expired, vec![victim_tid], "the silent thread, and only it");

    let (adopted, _report) = heap.try_adopt(victim_tid, CoreId(3)).unwrap();
    assert_eq!(unsafe { *adopted.resolve(ptr, 256).unwrap() }, 0xAB);
    heap.check_invariants(CoreId(0)).unwrap();
}

/// A hung thread's slot is stolen (declared dead and adopted) while the
/// original handle still exists. The stale incarnation's next heartbeat
/// must fail with the typed [`AllocError::LeaseStolen`] — never
/// silently renew the adopter's lease — while the adopter's own
/// heartbeats keep working.
#[test]
fn heartbeat_after_steal_is_rejected() {
    let pod = sim_pod(HwccMode::Limited);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();

    let victim = heap.register_thread().unwrap();
    let tid = victim.tid();
    victim.heartbeat().unwrap();

    // The victim "hangs" (keeps its handle, stops heartbeating); a
    // detector declares it dead and a survivor adopts the slot.
    assert!(heap.declare_dead(tid).unwrap());
    let (adopted, _) = heap.try_adopt(tid, CoreId(3)).unwrap();

    // The stale incarnation wakes up and heartbeats: typed rejection.
    match victim.heartbeat() {
        Err(AllocError::LeaseStolen {
            thread,
            held_epoch,
            found_epoch,
        }) => {
            assert_eq!(thread, tid);
            assert_ne!(held_epoch, found_epoch);
        }
        other => panic!("stale heartbeat must fail as stolen, got {other:?}"),
    }
    // Repeatedly: the rejection is stable, not a one-shot race artifact.
    assert!(matches!(
        victim.heartbeat(),
        Err(AllocError::LeaseStolen { .. })
    ));

    // The new incarnation owns the lease and renews freely.
    adopted.heartbeat().unwrap();
    adopted.heartbeat().unwrap();
}

/// Satellite: persistent device faults trip the breaker into the
/// software-fallback CAS path; allocation keeps working throughout, and
/// the pod heals back to NMP once the faults clear. MemStats counters
/// witness each phase.
#[test]
fn breaker_degrades_and_heals_under_persistent_faults() {
    let pod = sim_pod(HwccMode::None);
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    let before = pod.memory().stats();
    assert_eq!(sim(&pod).nmp().device_mode(), DeviceMode::Nmp);

    // A long outage: every mCAS pair bounces until the budget drains.
    // Allocations (and their slab-acquisition CASes) keep succeeding;
    // heartbeats are one registry CAS each and keep the lease fresh.
    sim(&pod).faults().push(FaultRule::device_outage(200));
    let ptrs: Vec<_> = (0..32).map(|_| t.alloc(64).unwrap()).collect();
    for _ in 0..4 {
        t.heartbeat().unwrap();
    }

    let mid = pod.memory().stats().since(&before);
    assert!(mid.breaker_trips >= 1, "outage never tripped the breaker");
    assert!(mid.fallback_cas >= 1, "no CAS was served by the fallback path");
    assert_eq!(sim(&pod).nmp().device_mode(), DeviceMode::Fallback);

    // Outage over: continued CAS traffic reaches the probe window and
    // heals the device back to NMP mode.
    sim(&pod).faults().clear();
    for _ in 0..8 {
        t.heartbeat().unwrap();
    }
    for ptr in ptrs {
        t.dealloc(ptr).unwrap();
    }
    let after = pod.memory().stats().since(&before);
    assert!(after.breaker_heals >= 1, "breaker never healed after the outage");
    assert_eq!(sim(&pod).nmp().device_mode(), DeviceMode::Nmp);
    heap.check_invariants(CoreId(0)).unwrap();
}

/// Satellite: when the breaker is configured to never trip within the
/// retry budget, a persistent outage surfaces as the typed
/// `DeviceContention` error instead of the old ambiguous CAS residue.
#[test]
fn exhausted_retries_surface_typed_contention_error() {
    let pod = sim_pod(HwccMode::None);
    sim(&pod).nmp().set_breaker_config(BreakerConfig {
        trip_after: 1_000, // out of reach: no fallback rescue
        probe_after: 4,
    });
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    sim(&pod).faults().push(FaultRule::device_outage(1_000));
    match heap.register_thread() {
        Err(AllocError::DeviceContention { retries }) => {
            assert!(retries > 0);
        }
        other => panic!("expected DeviceContention, got {other:?}"),
    }
    // Every bounce in the drained budget was paced by backoff.
    assert!(pod.memory().stats().cas_retries >= 1);
}

/// Acceptance: a heartbeat-stop campaign over random liveness schedules
/// detects every dead thread within the lease budget, adopts each
/// exactly once, and passes every invariant — and the same seeds replay
/// byte-identically.
#[test]
fn heartbeat_stop_campaign_detects_and_adopts() {
    let explorer = Explorer {
        liveness: true,
        config: SimConfig {
            // Tight budget so leases expire within a schedule: one tick
            // records the frozen lease, the next declares it dead.
            lease_expiry_ticks: 1,
            ..SimConfig::default()
        },
        steps_per_run: 80,
        ..Explorer::default()
    };
    let report = explorer.explore(10_000, 30);
    assert!(report.all_passed(), "failures: {:?}", report.failures);
    assert!(report.total_hangs > 0, "campaign never hung a host");
    assert!(report.total_detections > 0, "no lease ever expired in-schedule");
    // Every hang is recovered exactly once: by in-schedule adoption or
    // end-of-run cleanup, both counted in `recoveries` along with
    // explicit crash recoveries.
    assert!(report.total_recoveries >= report.total_hangs + report.total_crashes);

    for seed in [10_003u64, 10_017, 10_029] {
        let a = explorer.run_seed(seed).unwrap();
        let b = explorer.run_seed(seed).unwrap();
        assert_eq!(a, b, "seed {seed} diverged between runs");
    }
}

/// Acceptance: the same campaign under mCAS-only synchronization with
/// device-outage bursts in the mix completes with zero livelocks (no
/// run fails, none spins forever) and replays byte-identically.
#[test]
fn degraded_mcas_campaign_completes_and_replays() {
    let explorer = Explorer {
        liveness: true,
        config: SimConfig {
            mode: HwccMode::None,
            ..SimConfig::default()
        },
        steps_per_run: 40,
        ..Explorer::default()
    };
    let report = explorer.explore(20_000, 15);
    assert!(report.all_passed(), "failures: {:?}", report.failures);
    assert!(report.total_degrades > 0, "no device outage was injected");

    for seed in [20_001u64, 20_008] {
        let a = explorer.run_seed(seed).unwrap();
        let b = explorer.run_seed(seed).unwrap();
        assert_eq!(a, b, "seed {seed} diverged between runs");
    }
}
