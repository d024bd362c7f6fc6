//! Operation counters for memory backends.
//!
//! The evaluation needs more than wall-clock time: the §5.2.1 HWcc-memory
//! comparison and the Figure 12 mCAS experiments are phrased in terms of
//! *how many* coherent operations, flushes, and mCASes each design
//! issues. Every [`PodMemory`](crate::PodMemory) backend keeps one
//! [`MemStats`] and exposes snapshots.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Counter shards per [`MemStats`]. Threads are spread round-robin over
/// shards, so with up to this many concurrently-counting threads no two
/// ever contend on (or false-share) a counter cache line.
const SHARDS: usize = 16;

/// One shard's counters, padded to its own cache lines so bumps from
/// different threads never false-share.
#[repr(align(128))]
#[derive(Debug, Default)]
struct Shard {
    loads: AtomicU64,
    stores: AtomicU64,
    cas_ok: AtomicU64,
    cas_fail: AtomicU64,
    mcas_ok: AtomicU64,
    mcas_fail: AtomicU64,
    flushes: AtomicU64,
    fences: AtomicU64,
    line_fills: AtomicU64,
    writebacks: AtomicU64,
    cached_hits: AtomicU64,
    uncached_ops: AtomicU64,
    faults_injected: AtomicU64,
    cas_retries: AtomicU64,
    breaker_trips: AtomicU64,
    breaker_heals: AtomicU64,
    fallback_cas: AtomicU64,
    fences_elided: AtomicU64,
    remote_free_batched: AtomicU64,
    cas_retries_pop_global: AtomicU64,
    cas_retries_remote_publish: AtomicU64,
    cas_retries_lease: AtomicU64,
    cas_retries_fallback: AtomicU64,
    fabric_requests: AtomicU64,
    fabric_queue_ns: AtomicU64,
    fabric_service_ns: AtomicU64,
    fabric_saturated: AtomicU64,
}

/// Call site of a contention-driven CAS retry, for per-site attribution
/// of the aggregate [`MemStatsSnapshot::cas_retries`] counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CasRetrySite {
    /// Global free-list head CAS, push or pop.
    PopGlobal,
    /// Remote-free counter publish (eager or batched).
    RemotePublish,
    /// Registry / lease heartbeat CAS.
    Lease,
    /// Software-fallback CAS path (NMP breaker open).
    Fallback,
}

/// Round-robin shard assignment, fixed per thread on first use. A
/// process-wide counter (not per-`MemStats`) keeps the assignment
/// stable across every backend a thread touches.
static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    static MY_SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

#[inline]
fn my_shard() -> usize {
    MY_SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARDS;
        s.set(v);
        v
    })
}

/// Live atomic counters (shared, updated relaxed — they are statistics,
/// not synchronization).
///
/// Counters are sharded per thread (cache-line-aligned shards, threads
/// assigned round-robin) so the stats layer itself never serializes
/// multi-threaded figure runs through false sharing;
/// [`MemStats::snapshot`] sums the shards.
#[derive(Debug)]
pub struct MemStats {
    shards: Box<[Shard]>,
}

impl Default for MemStats {
    fn default() -> Self {
        Self::new()
    }
}

macro_rules! bump {
    ($self:ident . $field:ident) => {
        $self.shard().$field.fetch_add(1, Ordering::Relaxed)
    };
}

macro_rules! sum {
    ($self:ident . $field:ident) => {
        $self
            .shards
            .iter()
            .map(|s| s.$field.load(Ordering::Relaxed))
            .sum::<u64>()
    };
}

impl MemStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        MemStats {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }

    /// This thread's counter shard.
    #[inline]
    fn shard(&self) -> &Shard {
        &self.shards[my_shard()]
    }

    /// Records a load.
    #[inline]
    pub fn load(&self) {
        bump!(self.loads);
    }
    /// Records a store.
    #[inline]
    pub fn store(&self) {
        bump!(self.stores);
    }
    /// Records a CAS outcome.
    #[inline]
    pub fn cas(&self, ok: bool) {
        if ok {
            bump!(self.cas_ok);
        } else {
            bump!(self.cas_fail);
        }
    }
    /// Records an mCAS outcome.
    #[inline]
    pub fn mcas(&self, ok: bool) {
        if ok {
            bump!(self.mcas_ok);
        } else {
            bump!(self.mcas_fail);
        }
    }
    /// Records a flush.
    #[inline]
    pub fn flush(&self) {
        bump!(self.flushes);
    }
    /// Records a fence.
    #[inline]
    pub fn fence(&self) {
        bump!(self.fences);
    }
    /// Records a simulated line fill.
    #[inline]
    pub fn line_fill(&self) {
        bump!(self.line_fills);
    }
    /// Records a simulated writeback.
    #[inline]
    pub fn writeback(&self) {
        bump!(self.writebacks);
    }
    /// Records a cached hit.
    #[inline]
    pub fn cached_hit(&self) {
        bump!(self.cached_hits);
    }
    /// Records an uncached (device-biased) access.
    #[inline]
    pub fn uncached(&self) {
        bump!(self.uncached_ops);
    }
    /// Records an injected fault.
    #[inline]
    pub fn fault(&self) {
        bump!(self.faults_injected);
    }
    /// Records a contention-driven CAS retry.
    #[inline]
    pub fn cas_retry(&self) {
        bump!(self.cas_retries);
    }
    /// Records a contention-driven CAS retry attributed to `site`. The
    /// aggregate `cas_retries` counter is bumped too, so the per-site
    /// counters partition (a subset of) the aggregate.
    #[inline]
    pub fn cas_retry_at(&self, site: CasRetrySite) {
        let shard = self.shard();
        shard.cas_retries.fetch_add(1, Ordering::Relaxed);
        let counter = match site {
            CasRetrySite::PopGlobal => &shard.cas_retries_pop_global,
            CasRetrySite::RemotePublish => &shard.cas_retries_remote_publish,
            CasRetrySite::Lease => &shard.cas_retries_lease,
            CasRetrySite::Fallback => &shard.cas_retries_fallback,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    /// Records a breaker trip into fallback mode.
    #[inline]
    pub fn breaker_trip(&self) {
        bump!(self.breaker_trips);
    }
    /// Records a breaker heal back to NMP mode.
    #[inline]
    pub fn breaker_heal(&self) {
        bump!(self.breaker_heals);
    }
    /// Records a software-fallback CAS.
    #[inline]
    pub fn fallback(&self) {
        bump!(self.fallback_cas);
    }
    /// Records a fence elided by epoch coalescing.
    #[inline]
    pub fn fence_elided(&self) {
        bump!(self.fences_elided);
    }
    /// Records `k` remote frees delivered by one batched decrement.
    #[inline]
    pub fn remote_free_batched(&self, k: u64) {
        self.shard()
            .remote_free_batched
            .fetch_add(k, Ordering::Relaxed);
    }
    /// Records one fabric crossing: its queue-wait and service
    /// nanoseconds, and whether it observed utilization past the knee
    /// (see [`crate::fabric`]). Never called on a disabled fabric, so
    /// all four `fabric_*` counters stay exactly zero on uncongested
    /// configurations.
    #[inline]
    pub fn fabric(&self, queue_ns: u64, service_ns: u64, saturated: bool) {
        let shard = self.shard();
        shard.fabric_requests.fetch_add(1, Ordering::Relaxed);
        shard.fabric_queue_ns.fetch_add(queue_ns, Ordering::Relaxed);
        shard
            .fabric_service_ns
            .fetch_add(service_ns, Ordering::Relaxed);
        shard
            .fabric_saturated
            .fetch_add(saturated as u64, Ordering::Relaxed);
    }

    /// Snapshot of the current counter values (summed over shards).
    pub fn snapshot(&self) -> MemStatsSnapshot {
        MemStatsSnapshot {
            loads: sum!(self.loads),
            stores: sum!(self.stores),
            cas_ok: sum!(self.cas_ok),
            cas_fail: sum!(self.cas_fail),
            mcas_ok: sum!(self.mcas_ok),
            mcas_fail: sum!(self.mcas_fail),
            flushes: sum!(self.flushes),
            fences: sum!(self.fences),
            line_fills: sum!(self.line_fills),
            writebacks: sum!(self.writebacks),
            cached_hits: sum!(self.cached_hits),
            uncached_ops: sum!(self.uncached_ops),
            faults_injected: sum!(self.faults_injected),
            cas_retries: sum!(self.cas_retries),
            breaker_trips: sum!(self.breaker_trips),
            breaker_heals: sum!(self.breaker_heals),
            fallback_cas: sum!(self.fallback_cas),
            fences_elided: sum!(self.fences_elided),
            remote_free_batched: sum!(self.remote_free_batched),
            cas_retries_pop_global: sum!(self.cas_retries_pop_global),
            cas_retries_remote_publish: sum!(self.cas_retries_remote_publish),
            cas_retries_lease: sum!(self.cas_retries_lease),
            cas_retries_fallback: sum!(self.cas_retries_fallback),
            fabric_requests: sum!(self.fabric_requests),
            fabric_queue_ns: sum!(self.fabric_queue_ns),
            fabric_service_ns: sum!(self.fabric_service_ns),
            fabric_saturated: sum!(self.fabric_saturated),
        }
    }
}

/// A point-in-time copy of [`MemStats`].
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
    /// Injected faults.
    pub faults_injected: u64,
    /// Contention-driven CAS retries.
    pub cas_retries: u64,
    /// Breaker trips into fallback mode.
    pub breaker_trips: u64,
    /// Breaker heals back to NMP mode.
    pub breaker_heals: u64,
    /// Software-fallback CAS operations.
    pub fallback_cas: u64,
    /// Fences elided by epoch coalescing: one per coalesced log clear,
    /// whose flush also rides on the next `begin`'s flush of the line.
    pub fences_elided: u64,
    /// Remote frees delivered through batched decrements.
    pub remote_free_batched: u64,
    /// CAS retries attributed to global free-list pops.
    pub cas_retries_pop_global: u64,
    /// CAS retries attributed to remote-free counter publishes.
    pub cas_retries_remote_publish: u64,
    /// CAS retries attributed to registry / lease heartbeats.
    pub cas_retries_lease: u64,
    /// CAS retries attributed to the software-fallback CAS path.
    pub cas_retries_fallback: u64,
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
            fences_elided: self.fences_elided.saturating_sub(earlier.fences_elided),
            remote_free_batched: self
                .remote_free_batched
                .saturating_sub(earlier.remote_free_batched),
            cas_retries_pop_global: self
                .cas_retries_pop_global
                .saturating_sub(earlier.cas_retries_pop_global),
            cas_retries_remote_publish: self
                .cas_retries_remote_publish
                .saturating_sub(earlier.cas_retries_remote_publish),
            cas_retries_lease: self
                .cas_retries_lease
                .saturating_sub(earlier.cas_retries_lease),
            cas_retries_fallback: self
                .cas_retries_fallback
                .saturating_sub(earlier.cas_retries_fallback),
            fabric_requests: self.fabric_requests.saturating_sub(earlier.fabric_requests),
            fabric_queue_ns: self.fabric_queue_ns.saturating_sub(earlier.fabric_queue_ns),
            fabric_service_ns: self
                .fabric_service_ns
                .saturating_sub(earlier.fabric_service_ns),
            fabric_saturated: self.fabric_saturated.saturating_sub(earlier.fabric_saturated),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let stats = MemStats::new();
        stats.load();
        stats.load();
        stats.store();
        stats.cas(true);
        stats.cas(false);
        stats.mcas(true);
        stats.flush();
        stats.fence();
        let snap = stats.snapshot();
        assert_eq!(snap.loads, 2);
        assert_eq!(snap.stores, 1);
        assert_eq!(snap.cas_ok, 1);
        assert_eq!(snap.cas_fail, 1);
        assert_eq!(snap.mcas_ok, 1);
        assert_eq!(snap.cas_total(), 3);
        assert_eq!(snap.flushes, 1);
        assert_eq!(snap.fences, 1);
    }

    #[test]
    fn liveness_counters_accumulate() {
        let stats = MemStats::new();
        stats.cas_retry();
        stats.cas_retry();
        stats.breaker_trip();
        stats.fallback();
        stats.fallback();
        stats.fallback();
        stats.breaker_heal();
        let snap = stats.snapshot();
        assert_eq!(snap.cas_retries, 2);
        assert_eq!(snap.breaker_trips, 1);
        assert_eq!(snap.breaker_heals, 1);
        assert_eq!(snap.fallback_cas, 3);
    }

    #[test]
    fn traffic_reduction_counters_accumulate() {
        let stats = MemStats::new();
        stats.fence_elided();
        stats.fence_elided();
        stats.remote_free_batched(7);
        stats.remote_free_batched(3);
        let snap = stats.snapshot();
        assert_eq!(snap.fences_elided, 2);
        assert_eq!(snap.remote_free_batched, 10);
    }

    #[test]
    fn per_site_retries_partition_the_aggregate() {
        let stats = MemStats::new();
        stats.cas_retry_at(CasRetrySite::PopGlobal);
        stats.cas_retry_at(CasRetrySite::PopGlobal);
        stats.cas_retry_at(CasRetrySite::RemotePublish);
        stats.cas_retry_at(CasRetrySite::Lease);
        stats.cas_retry_at(CasRetrySite::Fallback);
        stats.cas_retry(); // unattributed
        let snap = stats.snapshot();
        assert_eq!(snap.cas_retries, 6);
        assert_eq!(snap.cas_retries_pop_global, 2);
        assert_eq!(snap.cas_retries_remote_publish, 1);
        assert_eq!(snap.cas_retries_lease, 1);
        assert_eq!(snap.cas_retries_fallback, 1);
        assert!(
            snap.cas_retries_pop_global
                + snap.cas_retries_remote_publish
                + snap.cas_retries_lease
                + snap.cas_retries_fallback
                <= snap.cas_retries
        );
    }

    #[test]
    fn fabric_counters_accumulate() {
        let stats = MemStats::new();
        stats.fabric(0, 100, false);
        stats.fabric(40, 100, true);
        stats.fabric(360, 104, true);
        let snap = stats.snapshot();
        assert_eq!(snap.fabric_requests, 3);
        assert_eq!(snap.fabric_queue_ns, 400);
        assert_eq!(snap.fabric_service_ns, 304);
        assert_eq!(snap.fabric_saturated, 2);
    }

    #[test]
    fn shards_sum_across_threads() {
        use std::sync::Arc;
        let stats = Arc::new(MemStats::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let stats = stats.clone();
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        stats.load();
                        stats.cas(true);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = stats.snapshot();
        assert_eq!(snap.loads, 8000);
        assert_eq!(snap.cas_ok, 8000);
    }

    #[test]
    fn since_subtracts() {
        let stats = MemStats::new();
        stats.load();
        let a = stats.snapshot();
        stats.load();
        stats.load();
        let b = stats.snapshot();
        let diff = b.since(&a);
        assert_eq!(diff.loads, 2);
        assert_eq!(diff.stores, 0);
    }
}
