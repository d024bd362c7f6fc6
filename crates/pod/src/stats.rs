//! The pod's one event count.
//!
//! The evaluation needs more than wall-clock time: the §5.2.1 HWcc-memory
//! comparison and the Figure 12 mCAS experiments are phrased in terms of
//! *how many* coherent operations, flushes, and mCASes each design
//! issues. The pod counts every event once, in one table: per core, per
//! [`TraceKind`], the number of events and the simulated nanoseconds
//! they were charged ([`Counts`]). The tracer's attribution is a window
//! of that table, and [`MemStatsSnapshot`] is the same table under the
//! names the figures use.
//!
//! # Two ways to charge a cell
//!
//! * [`Counts::charge`] — a relaxed load and a relaxed store, no locked
//!   instruction. Sound under the simulator's one-writer-per-core rule
//!   ([`crate::latency`]): a core's row is written by the thread driving
//!   that core, as its clock is, and the known exceptions on `CoreId(0)`
//!   that can roll a clock back can lose a count the same way. Every
//!   charge of a [`SimMemory`](crate::SimMemory) and a raw pod's
//!   remote-free publishes (made only by the publishing thread's own
//!   core) use it.
//! * [`Counts::charge_shared`] — a relaxed `fetch_add` on the count,
//!   exact from any number of threads. A raw pod counts its CAS outcomes
//!   and retries this way, because any thread charges `CoreId(0)` for the
//!   registry CASes of `register_thread` and `mark_crashed`.

use crate::trace::{TraceKind, ALL_KINDS, KIND_COUNT};
use std::sync::atomic::{AtomicU64, Ordering};

/// `(count, ns)` per kind id: one core's row, or a sum of rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Totals([(u64, u64); KIND_COUNT]);

impl Default for Totals {
    fn default() -> Self {
        Totals([(0, 0); KIND_COUNT])
    }
}

impl Totals {
    /// Events of `kind`.
    pub fn count(&self, kind: TraceKind) -> u64 {
        self.0[kind as usize].0
    }

    /// Simulated nanoseconds charged to events of `kind`.
    pub fn ns(&self, kind: TraceKind) -> u64 {
        self.0[kind as usize].1
    }

    /// `(kind, count, ns)` for every kind with at least one event, in
    /// kind order.
    pub fn nonzero(&self) -> impl Iterator<Item = (TraceKind, u64, u64)> + '_ {
        ALL_KINDS
            .iter()
            .map(|&kind| (kind, self.count(kind), self.ns(kind)))
            .filter(|&(_, count, _)| count > 0)
    }

    /// Per-kind difference `self - earlier` (wrapping, as the cells do).
    pub fn since(&self, earlier: &Totals) -> Totals {
        let mut out = *self;
        for (cell, &(count, ns)) in out.0.iter_mut().zip(&earlier.0) {
            cell.0 = cell.0.wrapping_sub(count);
            cell.1 = cell.1.wrapping_sub(ns);
        }
        out
    }
}

impl std::ops::AddAssign for Totals {
    fn add_assign(&mut self, other: Self) {
        for (cell, &(count, ns)) in self.0.iter_mut().zip(&other.0) {
            cell.0 = cell.0.wrapping_add(count);
            cell.1 = cell.1.wrapping_add(ns);
        }
    }
}

/// One core's cells, padded to their own cache lines so two cores'
/// charges never false-share.
#[repr(align(128))]
#[derive(Debug)]
struct Row {
    count: [AtomicU64; KIND_COUNT],
    ns: [AtomicU64; KIND_COUNT],
}

impl Row {
    fn new() -> Self {
        Row {
            count: std::array::from_fn(|_| AtomicU64::new(0)),
            ns: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn totals(&self) -> Totals {
        Totals(std::array::from_fn(|i| {
            (
                self.count[i].load(Ordering::Relaxed),
                self.ns[i].load(Ordering::Relaxed),
            )
        }))
    }
}

#[inline]
fn add(cell: &AtomicU64, n: u64) {
    cell.store(
        cell.load(Ordering::Relaxed).wrapping_add(n),
        Ordering::Relaxed,
    );
}

/// The per-core, per-kind event table (module docs). Charges to a core
/// the table has no row for are dropped.
#[derive(Debug)]
pub struct Counts {
    rows: Box<[Row]>,
}

impl Counts {
    /// A zeroed table for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Counts {
            rows: (0..cores).map(|_| Row::new()).collect(),
        }
    }

    /// Counts one `kind` event on `core`, charged `ns` simulated
    /// nanoseconds, with the one-writer discipline (module docs).
    #[inline]
    pub fn charge(&self, core: usize, kind: TraceKind, ns: u64) {
        if let Some(row) = self.rows.get(core) {
            add(&row.count[kind as usize], 1);
            if ns > 0 {
                add(&row.ns[kind as usize], ns);
            }
        }
    }

    /// Counts one zero-cost `kind` event on `core` with a `fetch_add`,
    /// exact under any number of charging threads (module docs).
    #[inline]
    pub fn charge_shared(&self, core: usize, kind: TraceKind) {
        if let Some(row) = self.rows.get(core) {
            row.count[kind as usize].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `core`'s row (zero for a core the table has no row for).
    pub fn row(&self, core: usize) -> Totals {
        self.rows.get(core).map(Row::totals).unwrap_or_default()
    }

    /// Every core's row, summed.
    pub fn totals(&self) -> Totals {
        let mut sum = Totals::default();
        for row in self.rows.iter() {
            sum += row.totals();
        }
        sum
    }
}

/// A backend's event counts under the names the figures use: each field
/// is one kind's count (or ns), or a sum or difference of a few
/// (DESIGN.md, "Cost model at a glance").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStatsSnapshot {
    /// Metadata loads.
    pub loads: u64,
    /// Metadata stores.
    pub stores: u64,
    /// Successful CAS.
    pub cas_ok: u64,
    /// Failed CAS.
    pub cas_fail: u64,
    /// Successful mCAS.
    pub mcas_ok: u64,
    /// Failed mCAS.
    pub mcas_fail: u64,
    /// Flushes.
    pub flushes: u64,
    /// Fences.
    pub fences: u64,
    /// Line fills.
    pub line_fills: u64,
    /// Writebacks.
    pub writebacks: u64,
    /// Cached hits.
    pub cached_hits: u64,
    /// Uncached ops.
    pub uncached_ops: u64,
    /// Injected faults (the fault injector's own count, all kinds).
    pub faults_injected: u64,
    /// Contention-driven CAS retries.
    pub cas_retries: u64,
    /// Breaker trips into fallback mode.
    pub breaker_trips: u64,
    /// Breaker heals back to NMP mode.
    pub breaker_heals: u64,
    /// Software-fallback CAS operations.
    pub fallback_cas: u64,
    /// Remote-free publishes: decrements of a slab's remote-free
    /// counter, one per free (eager) or one per batch (batched).
    pub remote_publishes: u64,
    /// Fabric crossings charged (line fills, writebacks, uncached ops,
    /// NMP round trips on a fabric-enabled pod).
    pub fabric_requests: u64,
    /// Nanoseconds spent queued at fabric stations (host port, switch,
    /// device port) plus the M/D/1 arrival-window term.
    pub fabric_queue_ns: u64,
    /// Nanoseconds of fabric service time (station occupancy plus
    /// shared-link payload serialization).
    pub fabric_service_ns: u64,
    /// Fabric crossings that observed device utilization at or past the
    /// configured saturation knee.
    pub fabric_saturated: u64,
}

impl MemStatsSnapshot {
    /// A simulated pod's snapshot: every field read off `t`, except
    /// `faults_injected`, which the fault injector counts.
    pub fn from_totals(t: &Totals, faults_injected: u64) -> Self {
        use TraceKind as K;
        let sum = |kinds: &[TraceKind]| kinds.iter().map(|&k| t.count(k)).sum::<u64>();
        MemStatsSnapshot {
            loads: sum(&[K::LoadHit, K::LoadFill, K::LoadHwcc, K::LoadUncached]),
            stores: sum(&[K::StoreDirty, K::StoreHwcc, K::StoreUncached]),
            cas_ok: sum(&[K::CasAttempt, K::CasFallback]).saturating_sub(t.count(K::CasFail)),
            cas_fail: t.count(K::CasFail),
            mcas_ok: t.count(K::McasAttempt),
            mcas_fail: t.count(K::McasRetry),
            flushes: sum(&[K::Flush, K::WritebackKept]),
            fences: t.count(K::Fence),
            line_fills: t.count(K::LineFill),
            writebacks: t.count(K::Writeback),
            cached_hits: t.count(K::LoadHit),
            uncached_ops: sum(&[K::LoadUncached, K::StoreUncached]),
            faults_injected,
            cas_retries: t.count(K::CasRetry),
            breaker_trips: t.count(K::BreakerTrip),
            breaker_heals: t.count(K::BreakerHeal),
            fallback_cas: t.count(K::CasFallback),
            remote_publishes: t.count(K::RemoteFreePublish),
            fabric_requests: t.count(K::FabricService),
            fabric_queue_ns: t.ns(K::FabricQueue),
            fabric_service_ns: t.ns(K::FabricService),
            fabric_saturated: t.count(K::FabricSaturated),
        }
    }

    /// Total CAS attempts (coherent + mCAS).
    pub fn cas_total(&self) -> u64 {
        self.cas_ok + self.cas_fail + self.mcas_ok + self.mcas_fail
    }

    /// Per-field difference `self - earlier` (saturating).
    pub fn since(&self, earlier: &MemStatsSnapshot) -> MemStatsSnapshot {
        MemStatsSnapshot {
            loads: self.loads.saturating_sub(earlier.loads),
            stores: self.stores.saturating_sub(earlier.stores),
            cas_ok: self.cas_ok.saturating_sub(earlier.cas_ok),
            cas_fail: self.cas_fail.saturating_sub(earlier.cas_fail),
            mcas_ok: self.mcas_ok.saturating_sub(earlier.mcas_ok),
            mcas_fail: self.mcas_fail.saturating_sub(earlier.mcas_fail),
            flushes: self.flushes.saturating_sub(earlier.flushes),
            fences: self.fences.saturating_sub(earlier.fences),
            line_fills: self.line_fills.saturating_sub(earlier.line_fills),
            writebacks: self.writebacks.saturating_sub(earlier.writebacks),
            cached_hits: self.cached_hits.saturating_sub(earlier.cached_hits),
            uncached_ops: self.uncached_ops.saturating_sub(earlier.uncached_ops),
            faults_injected: self.faults_injected.saturating_sub(earlier.faults_injected),
            cas_retries: self.cas_retries.saturating_sub(earlier.cas_retries),
            breaker_trips: self.breaker_trips.saturating_sub(earlier.breaker_trips),
            breaker_heals: self.breaker_heals.saturating_sub(earlier.breaker_heals),
            fallback_cas: self.fallback_cas.saturating_sub(earlier.fallback_cas),
            remote_publishes: self
                .remote_publishes
                .saturating_sub(earlier.remote_publishes),
            fabric_requests: self.fabric_requests.saturating_sub(earlier.fabric_requests),
            fabric_queue_ns: self.fabric_queue_ns.saturating_sub(earlier.fabric_queue_ns),
            fabric_service_ns: self
                .fabric_service_ns
                .saturating_sub(earlier.fabric_service_ns),
            fabric_saturated: self
                .fabric_saturated
                .saturating_sub(earlier.fabric_saturated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_accumulate_per_core_and_kind() {
        let counts = Counts::new(2);
        counts.charge(0, TraceKind::LoadFill, 357);
        counts.charge(0, TraceKind::LoadFill, 360);
        counts.charge(1, TraceKind::Fence, 25);
        counts.charge_shared(1, TraceKind::CasRetry);
        counts.charge(7, TraceKind::Fence, 25); // no such core: dropped
        let row = counts.row(0);
        assert_eq!(
            (row.count(TraceKind::LoadFill), row.ns(TraceKind::LoadFill)),
            (2, 717)
        );
        let totals = counts.totals();
        assert_eq!(totals.count(TraceKind::Fence), 1);
        assert_eq!(totals.count(TraceKind::CasRetry), 1);
        let kinds: Vec<_> = totals.nonzero().collect();
        assert_eq!(
            kinds,
            [
                (TraceKind::LoadFill, 2, 717),
                (TraceKind::CasRetry, 1, 0),
                (TraceKind::Fence, 1, 25)
            ]
        );
        assert_eq!(totals.since(&totals), Totals::default());
    }

    #[test]
    fn snapshot_derives_every_field_from_kinds() {
        let counts = Counts::new(1);
        for kind in [
            TraceKind::LoadHit,
            TraceKind::LoadFill,
            TraceKind::LoadUncached,
            TraceKind::StoreDirty,
            TraceKind::CasAttempt,
            TraceKind::CasAttempt,
            TraceKind::CasFail,
            TraceKind::CasFallback,
            TraceKind::WritebackKept,
        ] {
            counts.charge(0, kind, 1);
        }
        counts.charge(0, TraceKind::FabricQueue, 40);
        counts.charge(0, TraceKind::FabricService, 100);
        counts.charge(0, TraceKind::FabricSaturated, 0);
        let snap = MemStatsSnapshot::from_totals(&counts.totals(), 3);
        assert_eq!((snap.loads, snap.stores, snap.cached_hits), (3, 1, 1));
        assert_eq!((snap.cas_ok, snap.cas_fail, snap.fallback_cas), (2, 1, 1));
        assert_eq!(
            (snap.uncached_ops, snap.flushes, snap.faults_injected),
            (1, 1, 3)
        );
        assert_eq!(snap.cas_total(), 3);
        assert_eq!(
            (
                snap.fabric_requests,
                snap.fabric_queue_ns,
                snap.fabric_service_ns
            ),
            (1, 40, 100)
        );
        assert_eq!(snap.fabric_saturated, 1);
    }

    #[test]
    fn since_subtracts() {
        let a = MemStatsSnapshot {
            loads: 1,
            ..MemStatsSnapshot::default()
        };
        let b = MemStatsSnapshot {
            loads: 3,
            ..MemStatsSnapshot::default()
        };
        let diff = b.since(&a);
        assert_eq!(diff.loads, 2);
        assert_eq!(diff.stores, 0);
    }
}
