//! Near-memory-processing (NMP) mCAS device.
//!
//! Models the paper's FPGA NMP unit (§4), which sits between the CXL
//! interface and the memory controller and serializes memory-based
//! compare-and-swap operations for pods **without** inter-host hardware
//! cache coherence.
//!
//! The interface mirrors the hardware protocol:
//!
//! * [`NmpDevice::spwr`] — the *special write*: a thread writes 64 bytes
//!   (expected value, swap value, target address) into its own cacheline
//!   of the `spwr` region.
//! * [`NmpDevice::sprd`] — the *special read*: reading the thread's line
//!   in the `sprd` region triggers the operation and returns a
//!   success/failure bit plus the previous value.
//!
//! As in the hardware (Figure 6), only one spwr–sprd pair per target
//! address may be in flight: when the device detects a competing pending
//! operation on the same address it fails the *later* pair. The
//! convenience method [`NmpDevice::mcas`] issues a full pair.
//!
//! Device-biased memory must never be cached by a CPU, so the backend
//! marks mCAS-able regions uncachable — the same restriction the paper
//! imposes via MTRRs.
//!
//! # Device-health breaker
//!
//! A flaky or overloaded device can bounce every pair with a contention
//! result, turning each retry loop above it into a livelock. The device
//! therefore carries a small circuit breaker: a configurable run of
//! consecutive contention results ([`BreakerConfig::trip_after`]) trips
//! it from [`DeviceMode::Nmp`] into [`DeviceMode::Fallback`], where the
//! backend serves CAS through a software path (a single-writer lock word
//! in SWcc space) instead of the device. After
//! [`BreakerConfig::probe_after`] fallback operations the breaker lets
//! one pair through as a half-open probe; a healthy result closes the
//! breaker and returns the pod to NMP mode.

use crate::fabric::Fabric;
use crate::fault::{FaultInjector, FaultKind, FaultSite};
use crate::latency::{Clocks, LatencyModel};
use crate::segment::Segment;
use crate::trace::{TraceKind, Tracer};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Outcome of an mCAS operation, as returned by the `sprd` region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct McasResult {
    /// Whether the swap was performed.
    pub success: bool,
    /// The value observed at the target address by the device.
    pub previous: u64,
}

/// Tuning for the device-health breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive contention results (injected faults or doomed
    /// competing pairs) that trip the breaker into fallback mode.
    pub trip_after: u32,
    /// Fallback operations served while open before the breaker lets a
    /// half-open probe through to test whether the device healed.
    pub probe_after: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 8,
            probe_after: 4,
        }
    }
}

/// How CAS traffic for non-coherent regions is currently routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceMode {
    /// Healthy: pairs go to the NMP device.
    Nmp,
    /// Breaker open: the backend serves CAS via the software-fallback
    /// lock word; the device is rested.
    Fallback,
    /// Breaker half-open: the next pair is a probe; its result decides
    /// whether the breaker closes or re-opens.
    Probing,
}

/// Mutable breaker state, guarded by its own mutex (never held across a
/// device operation — `slots` and `breaker` nest slots → breaker only).
#[derive(Debug, Clone, Copy)]
struct Breaker {
    config: BreakerConfig,
    mode: DeviceMode,
    /// Consecutive contention results observed while in NMP mode.
    contention_run: u32,
    /// Fallback operations served since the breaker last opened.
    fallback_ops: u32,
}

impl Breaker {
    fn new(config: BreakerConfig) -> Self {
        Breaker {
            config,
            mode: DeviceMode::Nmp,
            contention_run: 0,
            fallback_ops: 0,
        }
    }
}

/// One thread's pending spwr registration.
#[derive(Debug, Clone, Copy)]
struct SpwrSlot {
    target: u64,
    expected: u64,
    swap: u64,
    /// Set when a competing pair on the same address completed first
    /// (paper Figure 6(b): T2's operation is blocked and fails).
    doomed: bool,
    valid: bool,
}

impl SpwrSlot {
    const EMPTY: SpwrSlot = SpwrSlot {
        target: 0,
        expected: 0,
        swap: 0,
        doomed: false,
        valid: false,
    };
}

/// The simulated NMP device.
///
/// All state mutation happens under one device mutex — the hardware unit
/// likewise processes one request at a time, which is exactly what gives
/// mCAS its atomicity without coherence. A full round trip
/// ([`NmpDevice::mcas`]) is counted once, as an `McasAttempt` or an
/// `McasRetry` event with its charged latency; a bare `spwr`/`sprd`
/// pair is not counted.
///
/// ```
/// use std::sync::Arc;
/// use cxl_pod::{Segment, nmp::NmpDevice};
///
/// let segment = Arc::new(Segment::zeroed(4096)?);
/// let nmp = NmpDevice::new(segment.clone(), 2);
/// nmp.spwr(0, 64, 0, 42);      // register: swap 0 -> 42 at offset 64
/// let reply = nmp.sprd(0);     // trigger and read the response
/// assert!(reply.success);
/// assert_eq!(segment.peek_u64(64), 42);
/// # Ok::<(), cxl_pod::PodError>(())
/// ```
#[derive(Debug)]
pub struct NmpDevice {
    segment: Arc<Segment>,
    slots: Mutex<Vec<SpwrSlot>>,
    /// Device service clock for latency modeling.
    service_clock: AtomicU64,
    faults: Arc<FaultInjector>,
    /// The count table and ring shared with the owning backend (a
    /// private, disarmed one when the device is constructed stand-alone).
    tracer: Arc<Tracer>,
    /// Fabric contention model shared with the owning backend, so mCAS
    /// round trips queue at the same ports as host line traffic.
    /// Disabled (free) unless the backend was built with a
    /// [`FabricConfig`](crate::fabric::FabricConfig).
    fabric: Arc<Fabric>,
    breaker: Mutex<Breaker>,
}

impl NmpDevice {
    /// Creates a device with one spwr/sprd register pair per core (and a
    /// private, disarmed fault injector).
    pub fn new(segment: Arc<Segment>, cores: usize) -> Self {
        Self::with_faults(segment, cores, Arc::new(FaultInjector::new()))
    }

    /// Creates a device sharing `faults` with its owning backend, so
    /// mCAS rules armed on the backend reach the device.
    pub fn with_faults(segment: Arc<Segment>, cores: usize, faults: Arc<FaultInjector>) -> Self {
        Self::with_observers(segment, cores, faults, Arc::new(Tracer::new(cores)))
    }

    /// Creates a device sharing both the fault injector and the tracer
    /// with its owning backend, so mCAS round trips are counted in the
    /// backend's table with their exact charged latency.
    pub fn with_observers(
        segment: Arc<Segment>,
        cores: usize,
        faults: Arc<FaultInjector>,
        tracer: Arc<Tracer>,
    ) -> Self {
        NmpDevice {
            segment,
            slots: Mutex::new(vec![SpwrSlot::EMPTY; cores]),
            service_clock: AtomicU64::new(0),
            faults,
            tracer,
            fabric: Arc::new(Fabric::disabled()),
            breaker: Mutex::new(Breaker::new(BreakerConfig::default())),
        }
    }

    /// Shares the owning backend's fabric model with this device
    /// (builder-style, called during [`SimMemory`](crate::SimMemory)
    /// construction while the device is still owned by value).
    pub(crate) fn with_fabric(mut self, fabric: Arc<Fabric>) -> Self {
        self.fabric = fabric;
        self
    }

    /// Replaces the breaker tuning and resets its state to healthy.
    pub fn set_breaker_config(&self, config: BreakerConfig) {
        *self.breaker.lock() = Breaker::new(config);
    }

    /// The current routing mode of the device-health breaker.
    pub fn device_mode(&self) -> DeviceMode {
        self.breaker.lock().mode
    }

    /// Asks the breaker whether the next CAS should bypass the device.
    ///
    /// Returns `true` while the breaker is open (the caller must serve
    /// the operation through the software-fallback path). While open,
    /// every call counts toward [`BreakerConfig::probe_after`]; once
    /// reached the breaker half-opens and the call is routed to the
    /// device as a probe.
    pub fn route_to_fallback(&self) -> bool {
        let mut breaker = self.breaker.lock();
        match breaker.mode {
            DeviceMode::Nmp | DeviceMode::Probing => false,
            DeviceMode::Fallback => {
                if breaker.fallback_ops >= breaker.config.probe_after {
                    breaker.mode = DeviceMode::Probing;
                    false
                } else {
                    breaker.fallback_ops += 1;
                    true
                }
            }
        }
    }

    /// Feeds one outcome of `core`'s operation into the breaker.
    /// `contention` is true for results that signal device trouble
    /// (injected contention faults, doomed competing pairs); genuine
    /// value mismatches and successful swaps count as healthy. A trip
    /// or a heal is charged to `core` as a marker.
    fn note_result(&self, core: usize, contention: bool) {
        let mut breaker = self.breaker.lock();
        if contention {
            match breaker.mode {
                DeviceMode::Nmp => {
                    breaker.contention_run += 1;
                    if breaker.contention_run >= breaker.config.trip_after {
                        breaker.mode = DeviceMode::Fallback;
                        breaker.contention_run = 0;
                        breaker.fallback_ops = 0;
                        self.tracer.charge_here(core, TraceKind::BreakerTrip, 0);
                    }
                }
                DeviceMode::Probing => {
                    // Probe failed: stay degraded, start a new probe window.
                    breaker.mode = DeviceMode::Fallback;
                    breaker.fallback_ops = 0;
                }
                DeviceMode::Fallback => {}
            }
        } else {
            match breaker.mode {
                DeviceMode::Nmp => breaker.contention_run = 0,
                DeviceMode::Probing => {
                    breaker.mode = DeviceMode::Nmp;
                    breaker.contention_run = 0;
                    self.tracer.charge_here(core, TraceKind::BreakerHeal, 0);
                }
                DeviceMode::Fallback => {}
            }
        }
    }

    /// The device's fault injector.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Registers an mCAS request in `core`'s spwr line.
    ///
    /// # Panics
    ///
    /// Panics if `core` already has a pending spwr (the hardware has one
    /// register per thread; software must pair spwr/sprd).
    pub fn spwr(&self, core: usize, target: u64, expected: u64, swap: u64) {
        let mut slots = self.slots.lock();
        let slot = &mut slots[core];
        assert!(
            !slot.valid,
            "core {core} issued spwr with an operation already pending"
        );
        *slot = SpwrSlot {
            target,
            expected,
            swap,
            doomed: false,
            valid: true,
        };
    }

    /// Triggers `core`'s pending operation and returns the result.
    ///
    /// # Panics
    ///
    /// Panics if `core` has no pending spwr.
    pub fn sprd(&self, core: usize) -> McasResult {
        let mut slots = self.slots.lock();
        let slot = slots[core];
        assert!(slot.valid, "core {core} issued sprd without a pending spwr");
        slots[core] = SpwrSlot::EMPTY;

        let cell = self.segment.atomic_u64(slot.target);
        let previous = cell.load(Ordering::SeqCst);

        if slot.doomed {
            // A competing pair on this address completed first; the
            // device already decided this operation fails.
            self.note_result(core, true);
            return McasResult {
                success: false,
                previous,
            };
        }

        let success = previous == slot.expected;
        if success {
            cell.store(slot.swap, Ordering::SeqCst);
            // Any other pending spwr on the same target loses the race
            // (the device stalls and then fails it, Figure 6(b)).
            for (i, other) in slots.iter_mut().enumerate() {
                if i != core && other.valid && other.target == slot.target {
                    other.doomed = true;
                }
            }
        }
        // Both a successful swap and a genuine value mismatch mean the
        // device serviced the pair — healthy from the breaker's view.
        self.note_result(core, false);
        McasResult { success, previous }
    }

    /// Issues a complete spwr/sprd pair, charging modeled latency to
    /// `core`'s virtual clock: a fixed PCIe round trip plus queueing at
    /// the device's service clock.
    pub fn mcas(
        &self,
        core: usize,
        target: u64,
        expected: u64,
        swap: u64,
        clocks: &Clocks,
        model: &LatencyModel,
    ) -> McasResult {
        // The spwr+sprd pair crosses the fabric (two line-sized
        // messages) on every round trip, including bounced ones — the
        // wire is paid whether or not the device accepts the pair.
        self.fabric
            .apply(core, 2 * crate::config::CACHELINE, clocks, &self.tracer);
        if self.faults.enabled() {
            match self.faults.check(FaultSite::Mcas, core, target, 8) {
                Some(FaultKind::McasContention) => {
                    // The device bounces the pair as if a competing pair
                    // on the same target won (Figure 6(b)): memory is
                    // untouched, the pair fails, the round trip is still
                    // paid. The caller's retry loop re-reads and retries
                    // exactly as under genuine contention.
                    self.note_result(core, true);
                    let mut cost = clocks.serialize_through(
                        core,
                        &self.service_clock,
                        model.nmp_service_ns,
                        model,
                    );
                    cost += clocks.advance(core, model.mcas_round_trip_ns, model);
                    self.tracer
                        .charge(core, TraceKind::McasRetry, target, cost, clocks.now(core));
                    let previous = self.segment.atomic_u64(target).load(Ordering::SeqCst);
                    return McasResult {
                        success: false,
                        previous,
                    };
                }
                Some(FaultKind::McasDelay(ns)) => {
                    // Extra queueing ahead of the device — virtual time
                    // only, so schedules stay deterministic.
                    let cost = clocks.advance(core, ns, model);
                    self.tracer
                        .charge(core, TraceKind::McasDelay, target, cost, clocks.now(core));
                }
                _ => {}
            }
        }
        self.spwr(core, target, expected, swap);
        let result = self.sprd(core);
        // Latency: the round trip overlaps with queueing at the device.
        let mut cost =
            clocks.serialize_through(core, &self.service_clock, model.nmp_service_ns, model);
        cost += clocks.advance(core, model.mcas_round_trip_ns, model);
        // A device-failed pair (doomed competitor or genuine value
        // mismatch) is the retry the caller will re-issue.
        let kind = if result.success {
            TraceKind::McasAttempt
        } else {
            TraceKind::McasRetry
        };
        self.tracer.charge(core, kind, target, cost, clocks.now(core));
        result
    }

    /// Resets the device service clock (between experiment runs).
    pub fn reset_clock(&self) {
        self.service_clock.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device() -> (Arc<Segment>, NmpDevice) {
        let segment = Arc::new(Segment::zeroed(4096).unwrap());
        let nmp = NmpDevice::new(segment.clone(), 4);
        (segment, nmp)
    }

    #[test]
    fn successful_swap() {
        let (segment, nmp) = device();
        segment.atomic_u64(64).store(5, Ordering::SeqCst);
        nmp.spwr(0, 64, 5, 9);
        let r = nmp.sprd(0);
        assert!(r.success);
        assert_eq!(r.previous, 5);
        assert_eq!(segment.peek_u64(64), 9);
    }

    #[test]
    fn mismatch_fails() {
        let (segment, nmp) = device();
        segment.atomic_u64(64).store(5, Ordering::SeqCst);
        nmp.spwr(0, 64, 4, 9);
        let r = nmp.sprd(0);
        assert!(!r.success);
        assert_eq!(r.previous, 5);
        assert_eq!(segment.peek_u64(64), 5);
    }

    #[test]
    fn competing_pair_is_doomed() {
        // Paper Figure 6(b): T1 and T2 both spwr the same target; T1's
        // sprd completes first and succeeds, so T2's operation fails even
        // though T2's expected value might match the new contents.
        let (segment, nmp) = device();
        segment.atomic_u64(64).store(5, Ordering::SeqCst);
        nmp.spwr(0, 64, 5, 7);
        nmp.spwr(1, 64, 5, 8);
        let r1 = nmp.sprd(0);
        assert!(r1.success);
        let r2 = nmp.sprd(1);
        assert!(!r2.success, "competing pair must fail");
        assert_eq!(segment.peek_u64(64), 7);
    }

    #[test]
    fn different_addresses_do_not_conflict() {
        let (_segment, nmp) = device();
        nmp.spwr(0, 64, 0, 1);
        nmp.spwr(1, 128, 0, 2);
        assert!(nmp.sprd(0).success);
        assert!(nmp.sprd(1).success);
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn double_spwr_panics() {
        let (_segment, nmp) = device();
        nmp.spwr(0, 64, 0, 1);
        nmp.spwr(0, 64, 0, 2);
    }

    #[test]
    #[should_panic(expected = "without a pending spwr")]
    fn sprd_without_spwr_panics() {
        let (_segment, nmp) = device();
        nmp.sprd(0);
    }

    #[test]
    fn mcas_charges_latency() {
        let (_segment, nmp) = device();
        let clocks = Clocks::new(4);
        let model = LatencyModel::paper_calibrated();
        let r = nmp.mcas(0, 64, 0, 1, &clocks, &model);
        assert!(r.success);
        assert!(clocks.now(0) >= model.mcas_round_trip_ns / 2);
    }

    #[test]
    fn injected_contention_fails_pair_without_memory_write() {
        use crate::fault::{FaultKind, FaultRule};
        let (segment, nmp) = device();
        segment.atomic_u64(64).store(5, Ordering::SeqCst);
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasContention).once());
        let clocks = Clocks::new(4);
        let model = LatencyModel::zero();
        let r = nmp.mcas(0, 64, 5, 9, &clocks, &model);
        assert!(!r.success, "injected contention must fail the pair");
        assert_eq!(r.previous, 5);
        assert_eq!(segment.peek_u64(64), 5, "memory must be untouched");
        // The rule is spent: the retry succeeds.
        let r = nmp.mcas(0, 64, 5, 9, &clocks, &model);
        assert!(r.success);
        assert_eq!(segment.peek_u64(64), 9);
    }

    #[test]
    fn injected_delay_charges_virtual_latency() {
        use crate::fault::{FaultKind, FaultRule};
        let (_segment, nmp) = device();
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasDelay(12_345)).once());
        let clocks = Clocks::new(4);
        let model = LatencyModel::zero();
        let r = nmp.mcas(0, 64, 0, 1, &clocks, &model);
        assert!(r.success, "a delayed pair still completes");
        assert!(clocks.now(0) >= 12_345);
        assert_eq!(nmp.faults().stats().mcas_delays, 1);
    }

    #[test]
    fn breaker_trips_after_consecutive_contention() {
        use crate::fault::{FaultKind, FaultRule};
        let (_segment, nmp) = device();
        nmp.set_breaker_config(BreakerConfig {
            trip_after: 3,
            probe_after: 2,
        });
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasContention).times(3));
        let clocks = Clocks::new(4);
        let model = LatencyModel::zero();
        for _ in 0..3 {
            assert!(!nmp.route_to_fallback());
            assert!(!nmp.mcas(0, 64, 0, 1, &clocks, &model).success);
        }
        assert_eq!(nmp.device_mode(), DeviceMode::Fallback);
        // While open, probe_after calls are told to use the fallback.
        assert!(nmp.route_to_fallback());
        assert!(nmp.route_to_fallback());
        // Then the breaker half-opens and lets a probe through.
        assert!(!nmp.route_to_fallback());
        assert_eq!(nmp.device_mode(), DeviceMode::Probing);
        // Faults are spent, so the probe succeeds and the breaker closes.
        assert!(nmp.mcas(0, 64, 0, 1, &clocks, &model).success);
        assert_eq!(nmp.device_mode(), DeviceMode::Nmp);
    }

    #[test]
    fn failed_probe_reopens_breaker() {
        use crate::fault::{FaultKind, FaultRule};
        let (_segment, nmp) = device();
        nmp.set_breaker_config(BreakerConfig {
            trip_after: 2,
            probe_after: 1,
        });
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasContention).times(3));
        let clocks = Clocks::new(4);
        let model = LatencyModel::zero();
        for _ in 0..2 {
            assert!(!nmp.mcas(0, 64, 0, 1, &clocks, &model).success);
        }
        assert_eq!(nmp.device_mode(), DeviceMode::Fallback);
        assert!(nmp.route_to_fallback());
        assert!(!nmp.route_to_fallback()); // probe allowed
        assert!(!nmp.mcas(0, 64, 0, 1, &clocks, &model).success); // probe hits last fault
        assert_eq!(
            nmp.device_mode(),
            DeviceMode::Fallback,
            "a failed probe must reopen the breaker"
        );
    }

    #[test]
    fn healthy_traffic_resets_contention_run() {
        use crate::fault::{FaultKind, FaultRule};
        let (_segment, nmp) = device();
        nmp.set_breaker_config(BreakerConfig {
            trip_after: 2,
            probe_after: 1,
        });
        let clocks = Clocks::new(4);
        let model = LatencyModel::zero();
        // contention, success, contention: run never reaches 2.
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasContention).once());
        assert!(!nmp.mcas(0, 64, 0, 1, &clocks, &model).success);
        assert!(nmp.mcas(0, 64, 0, 1, &clocks, &model).success);
        nmp.faults()
            .push(FaultRule::new(FaultKind::McasContention).once());
        assert!(!nmp.mcas(0, 64, 1, 2, &clocks, &model).success);
        assert_eq!(nmp.device_mode(), DeviceMode::Nmp);
    }

    #[test]
    fn doomed_pair_counts_as_contention() {
        let (segment, nmp) = device();
        nmp.set_breaker_config(BreakerConfig {
            trip_after: 1,
            probe_after: 1,
        });
        segment.atomic_u64(64).store(5, Ordering::SeqCst);
        nmp.spwr(0, 64, 5, 7);
        nmp.spwr(1, 64, 5, 8);
        assert!(nmp.sprd(0).success);
        assert!(!nmp.sprd(1).success);
        assert_eq!(nmp.device_mode(), DeviceMode::Fallback);
    }

    #[test]
    fn concurrent_mcas_is_linearizable() {
        // N threads each increment a counter via mCAS retry loops; the
        // final value must be exactly N * iterations.
        let (segment, nmp) = device();
        let nmp = Arc::new(nmp);
        let clocks = Arc::new(Clocks::new(4));
        let model = LatencyModel::zero();
        let mut handles = Vec::new();
        for core in 0..4 {
            let nmp = nmp.clone();
            let segment = segment.clone();
            let clocks = clocks.clone();
            let model = model.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    loop {
                        let cur = segment.peek_u64(64);
                        let r = nmp.mcas(core, 64, cur, cur + 1, &clocks, &model);
                        if r.success {
                            break;
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(segment.peek_u64(64), 4000);
    }
}
