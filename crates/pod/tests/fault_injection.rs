//! Integration tests for the fault injector against the NMP device:
//! concurrent mCAS pairs on one target, with and without injected
//! device faults, and the flush-site fault hooks end to end.

use cxl_pod::fault::{FaultInjector, FaultKind, FaultRule};
use cxl_pod::latency::{Clocks, LatencyModel};
use cxl_pod::nmp::NmpDevice;
use cxl_pod::Segment;
use std::sync::Arc;

fn device(cores: usize) -> (Arc<Segment>, NmpDevice) {
    let segment = Arc::new(Segment::zeroed(4096).unwrap());
    let nmp = NmpDevice::new(segment.clone(), cores);
    (segment, nmp)
}

/// Figure 6(b): two pairs race on one target; the pair whose sprd is
/// served second is doomed by the first pair's completion and fails
/// without touching memory.
#[test]
fn competing_pairs_on_same_target_fail_the_later_pair() {
    let (segment, nmp) = device(2);
    segment.atomic_u64(256).store(1, std::sync::atomic::Ordering::SeqCst);

    nmp.spwr(0, 256, 1, 2);
    nmp.spwr(1, 256, 1, 3);

    let first = nmp.sprd(0);
    let second = nmp.sprd(1);

    assert!(first.success, "first-served pair must win");
    assert!(!second.success, "competing pair must be doomed");
    assert_eq!(
        segment.atomic_u64(256).load(std::sync::atomic::Ordering::SeqCst),
        2,
        "only the winner's swap lands"
    );
    // The loser observed the winner's value and can retry from it.
    assert_eq!(second.previous, 2);
}

/// Pairs on *different* targets never doom each other.
#[test]
fn pairs_on_distinct_targets_are_independent() {
    let (segment, nmp) = device(2);
    nmp.spwr(0, 256, 0, 7);
    nmp.spwr(1, 512, 0, 9);
    assert!(nmp.sprd(0).success);
    assert!(nmp.sprd(1).success);
    assert_eq!(segment.atomic_u64(256).load(std::sync::atomic::Ordering::SeqCst), 7);
    assert_eq!(segment.atomic_u64(512).load(std::sync::atomic::Ordering::SeqCst), 9);
}

/// The doomed-pair rule holds while the device is also injecting
/// delays: an McasDelay rule slows core 0's convenience-mcas call, and
/// a real competing pair racing the same target still loses
/// deterministically.
#[test]
fn contention_under_injected_device_delay() {
    let (segment, nmp) = device(3);
    let clocks = Clocks::new(3);
    let model = LatencyModel::zero();
    segment.atomic_u64(640).store(5, std::sync::atomic::Ordering::SeqCst);

    nmp.faults().push(FaultRule::new(FaultKind::McasDelay(10_000)));

    // Core 2 registers a pair first, then core 0 runs a full mcas under
    // the injected delay. The mcas completes (delay only moves core 0's
    // virtual clock) and dooms core 2's still-pending pair.
    nmp.spwr(2, 640, 5, 8);
    let before = clocks.now(0);
    let winner = nmp.mcas(0, 640, 5, 6, &clocks, &model);
    assert!(winner.success);
    assert!(
        clocks.now(0) >= before + 10_000,
        "injected delay must charge core 0's virtual clock"
    );

    let doomed = nmp.sprd(2);
    assert!(!doomed.success, "pending pair must lose to the delayed mcas");
    assert_eq!(
        segment.atomic_u64(640).load(std::sync::atomic::Ordering::SeqCst),
        6
    );
}

/// Injected contention fails exactly the targeted pair: filters by core
/// and address range select one victim, and the skip/count window makes
/// the fault transient — later attempts succeed.
#[test]
fn injected_contention_is_scoped_and_transient() {
    let (segment, nmp) = device(2);
    let clocks = Clocks::new(2);
    let model = LatencyModel::zero();

    nmp.faults().push(
        FaultRule::new(FaultKind::McasContention)
            .on_core(1)
            .in_range(128, 136)
            .times(2),
    );

    // Core 0 is never affected.
    assert!(nmp.mcas(0, 128, 0, 1, &clocks, &model).success);
    // Core 1 outside the range is never affected.
    assert!(nmp.mcas(1, 512, 0, 1, &clocks, &model).success);
    // Core 1 on the target: bounced twice, then the fault is exhausted.
    assert!(!nmp.mcas(1, 128, 1, 2, &clocks, &model).success);
    assert!(!nmp.mcas(1, 128, 1, 2, &clocks, &model).success);
    assert!(nmp.mcas(1, 128, 1, 2, &clocks, &model).success);
    assert_eq!(segment.atomic_u64(128).load(std::sync::atomic::Ordering::SeqCst), 2);
}

/// Injected contention reports the *current* value as `previous` (the
/// device bounced the pair; memory is untouched), so retry loops that
/// treat `previous == expected` as transient make progress.
#[test]
fn injected_contention_mimics_a_doomed_pair() {
    let (segment, nmp) = device(1);
    let clocks = Clocks::new(1);
    let model = LatencyModel::zero();
    segment.atomic_u64(192).store(41, std::sync::atomic::Ordering::SeqCst);

    nmp.faults().push(FaultRule::new(FaultKind::McasContention).once());

    let bounced = nmp.mcas(0, 192, 41, 42, &clocks, &model);
    assert!(!bounced.success);
    assert_eq!(bounced.previous, 41, "memory must be untouched");

    let retry = nmp.mcas(0, 192, 41, 42, &clocks, &model);
    assert!(retry.success);
    assert_eq!(segment.atomic_u64(192).load(std::sync::atomic::Ordering::SeqCst), 42);
}

/// Fault statistics surface through the injector: every fired rule is
/// counted per kind.
#[test]
fn injector_counts_fired_faults() {
    let (_segment, nmp) = device(1);
    let clocks = Clocks::new(1);
    let model = LatencyModel::zero();

    nmp.faults().push(FaultRule::new(FaultKind::McasContention).times(3));
    for _ in 0..5 {
        let _ = nmp.mcas(0, 128, 0, 0, &clocks, &model);
    }
    let stats = nmp.faults().stats();
    assert_eq!(stats.mcas_contention, 3);
    assert_eq!(stats.total(), 3);
}

/// A disarmed injector costs one relaxed atomic load and changes
/// nothing: identical outcomes with and without an (empty) injector.
#[test]
fn disarmed_injector_is_transparent() {
    let (segment, nmp) = device(1);
    let clocks = Clocks::new(1);
    let model = LatencyModel::zero();
    let injector = FaultInjector::default();
    assert!(!injector.enabled());

    assert!(nmp.mcas(0, 128, 0, 9, &clocks, &model).success);
    assert_eq!(segment.atomic_u64(128).load(std::sync::atomic::Ordering::SeqCst), 9);
    assert_eq!(nmp.faults().stats().total(), 0);
}
