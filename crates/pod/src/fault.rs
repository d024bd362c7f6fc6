//! Deterministic fault injection for simulated pods.
//!
//! The SWcc protocol and the recovery log are only trustworthy if they
//! survive the pod misbehaving at the worst possible moment: a flush the
//! device silently dropped, a writeback that arrived late, an mCAS the
//! NMP unit bounced with a contention error, a host crash that took a
//! whole cache with it. [`FaultInjector`] scripts those misbehaviours
//! *deterministically* so a failing interleaving can be replayed
//! byte-for-byte from its seed.
//!
//! An injector is owned by [`SimMemory`](crate::SimMemory) (shared with
//! its [`NmpDevice`](crate::nmp::NmpDevice)) and consulted at three
//! sites: flush, writeback, and mCAS. With no rules armed the check is a
//! single relaxed atomic load ([`FaultInjector::enabled`]) — the
//! simulation fast path pays nothing for the capability.
//!
//! Faults are described by [`FaultRule`]s: a [`FaultKind`] plus optional
//! per-core and per-address-range filters, a `skip` count (fire after N
//! matching events) and a `count` (fire at most M times). Rules are
//! evaluated in arming order; the first eligible rule fires. All delays
//! are *virtual* — they advance the simulated clocks, never wall time —
//! so every injected schedule stays deterministic.
//!
//! ```
//! use cxl_pod::fault::{FaultInjector, FaultKind, FaultRule, FaultSite};
//!
//! let inj = FaultInjector::new();
//! assert!(!inj.enabled());
//! // Drop the second flush core 3 issues anywhere in [0x1000, 0x2000).
//! inj.push(
//!     FaultRule::new(FaultKind::DropFlush)
//!         .on_core(3)
//!         .in_range(0x1000, 0x2000)
//!         .after(1)
//!         .times(1),
//! );
//! assert!(inj.enabled());
//! assert_eq!(inj.check(FaultSite::Flush, 3, 0x1000, 8), None); // skipped
//! assert_eq!(
//!     inj.check(FaultSite::Flush, 3, 0x1040, 8),
//!     Some(FaultKind::DropFlush)
//! );
//! assert_eq!(inj.check(FaultSite::Flush, 3, 0x1080, 8), None); // count spent
//! ```

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// What a fired rule does to the access it intercepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The flush is silently dropped: the CPU retires the instruction
    /// but the line stays dirty in the core's cache. Models a lost
    /// clflush / weak persist.
    DropFlush,
    /// The flush completes but only after the given extra virtual
    /// nanoseconds.
    DelayFlush(u64),
    /// A flush that actually writes back dirty lines is charged the
    /// given extra virtual nanoseconds per written line. Models a
    /// congested writeback path.
    DelayWriteback(u64),
    /// The NMP device fails the mCAS pair with a device-contention
    /// error (as if a competing pair on the same target won, paper
    /// Figure 6(b)), without modifying memory.
    McasContention,
    /// The mCAS pair is serviced only after the given extra virtual
    /// nanoseconds of device queueing.
    McasDelay(u64),
    /// The core's entire cache is discarded *without writeback* — the
    /// host crashed at this point and its dirty lines died with it.
    AbandonCache,
}

impl FaultKind {
    /// Whether this kind can fire at `site`.
    fn applies_to(self, site: FaultSite) -> bool {
        match self {
            FaultKind::DropFlush | FaultKind::DelayFlush(_) => site == FaultSite::Flush,
            FaultKind::DelayWriteback(_) => site == FaultSite::Writeback,
            FaultKind::McasContention | FaultKind::McasDelay(_) => site == FaultSite::Mcas,
            // A host can die at any interception point.
            FaultKind::AbandonCache => true,
        }
    }
}

/// The interception point a memory-backend hook is reporting from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSite {
    /// A flush of an address range from one core's cache.
    Flush,
    /// A flush that is about to write back at least one dirty line.
    Writeback,
    /// An spwr/sprd mCAS pair at the NMP device.
    Mcas,
}

/// One scripted fault: kind, filters, and firing window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultRule {
    /// What to inject.
    pub kind: FaultKind,
    /// Only accesses by this core match (`None` = any core).
    pub core: Option<usize>,
    /// Only accesses intersecting `[start, end)` match (`None` = any
    /// address).
    pub range: Option<(u64, u64)>,
    /// Number of matching events to let pass before firing.
    pub skip: u64,
    /// Maximum number of firings (`u64::MAX` = unlimited).
    pub count: u64,
}

impl FaultRule {
    /// A rule that fires on every matching event, any core, any address.
    pub fn new(kind: FaultKind) -> Self {
        FaultRule {
            kind,
            core: None,
            range: None,
            skip: 0,
            count: u64::MAX,
        }
    }

    /// Restricts the rule to accesses by `core`.
    #[must_use]
    pub fn on_core(mut self, core: usize) -> Self {
        self.core = Some(core);
        self
    }

    /// Restricts the rule to accesses intersecting `[start, end)`.
    #[must_use]
    pub fn in_range(mut self, start: u64, end: u64) -> Self {
        self.range = Some((start, end));
        self
    }

    /// Lets `n` matching events pass before the rule fires.
    #[must_use]
    pub fn after(mut self, n: u64) -> Self {
        self.skip = n;
        self
    }

    /// Caps the rule at `n` firings.
    #[must_use]
    pub fn times(mut self, n: u64) -> Self {
        self.count = n;
        self
    }

    /// Shorthand for `.times(1)`.
    #[must_use]
    pub fn once(self) -> Self {
        self.times(1)
    }

    /// A persistent device outage: the next `pairs` mCAS pairs anywhere
    /// on the device bounce with a contention result — the scenario that
    /// trips the NMP health breaker
    /// ([`BreakerConfig`](crate::nmp::BreakerConfig)) into the
    /// software-fallback CAS path.
    pub fn device_outage(pairs: u64) -> Self {
        FaultRule::new(FaultKind::McasContention).times(pairs)
    }

    fn matches(&self, site: FaultSite, core: usize, offset: u64, len: u64) -> bool {
        if !self.kind.applies_to(site) {
            return false;
        }
        if let Some(c) = self.core {
            if c != core {
                return false;
            }
        }
        if let Some((start, end)) = self.range {
            let access_end = offset.saturating_add(len.max(1));
            if offset >= end || access_end <= start {
                return false;
            }
        }
        true
    }
}

/// A rule plus its firing bookkeeping.
#[derive(Debug, Clone, Copy)]
struct RuleState {
    rule: FaultRule,
    /// Matching events seen so far (for `skip`).
    matched: u64,
    /// Times fired so far (for `count`).
    fired: u64,
}

/// Counters of injected faults, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Flushes silently dropped.
    pub dropped_flushes: u64,
    /// Flushes delayed.
    pub delayed_flushes: u64,
    /// Writebacks delayed.
    pub delayed_writebacks: u64,
    /// mCAS pairs failed with contention errors.
    pub mcas_contention: u64,
    /// mCAS pairs delayed at the device.
    pub mcas_delays: u64,
    /// Caches abandoned (simulated host crashes).
    pub cache_abandons: u64,
}

impl FaultStats {
    /// Total faults injected.
    pub fn total(&self) -> u64 {
        self.dropped_flushes
            + self.delayed_flushes
            + self.delayed_writebacks
            + self.mcas_contention
            + self.mcas_delays
            + self.cache_abandons
    }
}

/// The scriptable fault injector shared by a simulated backend and its
/// NMP device.
#[derive(Debug, Default)]
pub struct FaultInjector {
    /// Fast-path gate: raised exactly while at least one rule is armed.
    armed: AtomicBool,
    rules: Mutex<Vec<RuleState>>,
    dropped_flushes: AtomicU64,
    delayed_flushes: AtomicU64,
    delayed_writebacks: AtomicU64,
    mcas_contention: AtomicU64,
    mcas_delays: AtomicU64,
    cache_abandons: AtomicU64,
}

impl FaultInjector {
    /// Creates a disarmed injector with no rules.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether any rule is armed. A single relaxed load: hooks call
    /// this first and skip all fault logic when it returns `false`, so
    /// a fault-free simulation pays (almost) nothing.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Arms `rule`. Rules are evaluated in arming order; the first
    /// eligible rule fires for a given event.
    ///
    /// # Examples
    ///
    /// Reach the injector of a simulated pod and arm a lost-flush rule
    /// against core 0's next flush:
    ///
    /// ```
    /// use cxl_pod::fault::{FaultKind, FaultRule};
    /// use cxl_pod::{HwccMode, Pod, PodConfig, SimMemory};
    ///
    /// let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited)?;
    /// let sim = pod.memory().as_any().downcast_ref::<SimMemory>().unwrap();
    /// sim.faults().push(FaultRule::new(FaultKind::DropFlush).on_core(0).once());
    /// assert!(sim.faults().enabled());
    /// # Ok::<(), cxl_pod::PodError>(())
    /// ```
    pub fn push(&self, rule: FaultRule) {
        let mut rules = self.rules.lock();
        rules.push(RuleState {
            rule,
            matched: 0,
            fired: 0,
        });
        self.armed.store(true, Ordering::Relaxed);
    }

    /// Disarms all rules (counters are kept).
    pub fn clear(&self) {
        let mut rules = self.rules.lock();
        rules.clear();
        self.armed.store(false, Ordering::Relaxed);
    }

    /// Backend hook: reports an event at `site` by `core` touching
    /// `[offset, offset+len)`, and returns the fault to inject, if any.
    ///
    /// Each eligible rule's skip/count window advances exactly once per
    /// event, so schedules replay identically. Injection counters are
    /// updated here.
    pub fn check(&self, site: FaultSite, core: usize, offset: u64, len: u64) -> Option<FaultKind> {
        if !self.enabled() {
            return None;
        }
        let mut rules = self.rules.lock();
        let mut fired: Option<FaultKind> = None;
        for state in rules.iter_mut() {
            if !state.rule.matches(site, core, offset, len) {
                continue;
            }
            state.matched += 1;
            if fired.is_none() && state.matched > state.rule.skip && state.fired < state.rule.count
            {
                state.fired += 1;
                fired = Some(state.rule.kind);
            }
        }
        if let Some(kind) = fired {
            self.note(kind);
        }
        fired
    }

    fn note(&self, kind: FaultKind) {
        let counter = match kind {
            FaultKind::DropFlush => &self.dropped_flushes,
            FaultKind::DelayFlush(_) => &self.delayed_flushes,
            FaultKind::DelayWriteback(_) => &self.delayed_writebacks,
            FaultKind::McasContention => &self.mcas_contention,
            FaultKind::McasDelay(_) => &self.mcas_delays,
            FaultKind::AbandonCache => &self.cache_abandons,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of the injection counters.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            dropped_flushes: self.dropped_flushes.load(Ordering::Relaxed),
            delayed_flushes: self.delayed_flushes.load(Ordering::Relaxed),
            delayed_writebacks: self.delayed_writebacks.load(Ordering::Relaxed),
            mcas_contention: self.mcas_contention.load(Ordering::Relaxed),
            mcas_delays: self.mcas_delays.load(Ordering::Relaxed),
            cache_abandons: self.cache_abandons.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_is_inert() {
        let inj = FaultInjector::new();
        assert!(!inj.enabled());
        assert_eq!(inj.check(FaultSite::Flush, 0, 0, 8), None);
        assert_eq!(inj.stats().total(), 0);
    }

    #[test]
    fn core_and_range_filters() {
        let inj = FaultInjector::new();
        inj.push(FaultRule::new(FaultKind::DropFlush).on_core(2).in_range(100, 200));
        // Wrong core.
        assert_eq!(inj.check(FaultSite::Flush, 1, 150, 8), None);
        // Right core, address below the range.
        assert_eq!(inj.check(FaultSite::Flush, 2, 0, 8), None);
        // Access ending exactly at range start does not intersect.
        assert_eq!(inj.check(FaultSite::Flush, 2, 92, 8), None);
        // Straddling the start does.
        assert_eq!(inj.check(FaultSite::Flush, 2, 96, 8), Some(FaultKind::DropFlush));
        // Offset at end is out.
        assert_eq!(inj.check(FaultSite::Flush, 2, 200, 8), None);
        assert_eq!(inj.stats().dropped_flushes, 1);
    }

    #[test]
    fn skip_and_count_window() {
        let inj = FaultInjector::new();
        inj.push(FaultRule::new(FaultKind::McasContention).after(2).times(2));
        let fired: Vec<bool> = (0..6)
            .map(|_| inj.check(FaultSite::Mcas, 0, 64, 8).is_some())
            .collect();
        assert_eq!(fired, [false, false, true, true, false, false]);
        assert_eq!(inj.stats().mcas_contention, 2);
    }

    #[test]
    fn site_discrimination() {
        let inj = FaultInjector::new();
        inj.push(FaultRule::new(FaultKind::DelayWriteback(100)));
        inj.push(FaultRule::new(FaultKind::McasDelay(50)));
        assert_eq!(inj.check(FaultSite::Flush, 0, 0, 8), None);
        assert_eq!(
            inj.check(FaultSite::Writeback, 0, 0, 8),
            Some(FaultKind::DelayWriteback(100))
        );
        assert_eq!(
            inj.check(FaultSite::Mcas, 0, 0, 8),
            Some(FaultKind::McasDelay(50))
        );
    }

    #[test]
    fn abandon_applies_anywhere() {
        let inj = FaultInjector::new();
        inj.push(FaultRule::new(FaultKind::AbandonCache).once());
        assert_eq!(
            inj.check(FaultSite::Mcas, 0, 0, 8),
            Some(FaultKind::AbandonCache)
        );
        assert_eq!(inj.check(FaultSite::Flush, 0, 0, 8), None, "count spent");
        assert_eq!(inj.stats().cache_abandons, 1);
    }

    #[test]
    fn first_eligible_rule_wins_but_all_windows_advance() {
        let inj = FaultInjector::new();
        // Rule A fires once; rule B (same site) counts the same events.
        inj.push(FaultRule::new(FaultKind::DropFlush).once());
        inj.push(FaultRule::new(FaultKind::DelayFlush(9)).after(1));
        assert_eq!(inj.check(FaultSite::Flush, 0, 0, 8), Some(FaultKind::DropFlush));
        // B saw event 1 while A fired, so B's skip of 1 is already spent.
        assert_eq!(
            inj.check(FaultSite::Flush, 0, 0, 8),
            Some(FaultKind::DelayFlush(9))
        );
    }

    #[test]
    fn clear_disarms() {
        let inj = FaultInjector::new();
        inj.push(FaultRule::new(FaultKind::DropFlush));
        assert!(inj.enabled());
        inj.clear();
        assert!(!inj.enabled());
        assert_eq!(inj.check(FaultSite::Flush, 0, 0, 8), None);
    }
}
