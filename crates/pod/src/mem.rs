//! Memory backends: the access interface between the allocator and the
//! pod.
//!
//! The allocator routes every *metadata* access — load, store, CAS,
//! flush, fence — through [`PodMemory`]. Which backend is plugged in
//! decides what kind of pod the allocator is running on:
//!
//! * [`RawMemory`] — full hardware cache coherence (or a single host):
//!   direct atomics, flush/fence compile to nothing. Used for the
//!   wall-clock experiments (Figures 8–10).
//! * [`SimMemory`] — a simulated pod with a chosen [`HwccMode`]:
//!   SWcc-region accesses go through the per-core [`CacheModel`], and in
//!   [`HwccMode::None`] CAS on the HWcc region becomes an
//!   [`NmpDevice`] mCAS. A virtual-clock latency model accumulates
//!   modeled time (Figures 11–12).

use crate::coherence::{CacheModel, OpScope};
use crate::config::CACHELINE;
use crate::fabric::{Fabric, FabricConfig};
use crate::fault::{FaultInjector, FaultKind, FaultSite};
use crate::latency::{Clocks, LatencyModel};
use crate::layout::Layout;
use crate::nmp::NmpDevice;
use crate::segment::Segment;
use crate::stats::{Counts, MemStatsSnapshot};
use crate::trace::{TraceKind, Tracer};
use crate::CoreId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How much inter-host hardware cache coherence the pod provides
/// (paper §1, Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HwccMode {
    /// Full inter-host HWcc: every access is coherent (CXL 3.x
    /// back-invalidation). Flush/fence become no-ops.
    Full,
    /// HWcc limited to the small HWcc metadata region (Figure 1(A));
    /// everything else relies on software coherence.
    Limited,
    /// No HWcc at all (Figure 1(B)): the HWcc metadata region is
    /// device-biased and uncachable, synchronized via NMP mCAS.
    None,
}

impl std::fmt::Display for HwccMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HwccMode::Full => write!(f, "hwcc-full"),
            HwccMode::Limited => write!(f, "hwcc-limited"),
            HwccMode::None => write!(f, "mcas"),
        }
    }
}

/// The memory access interface.
///
/// All offsets are 8-byte-aligned segment offsets. `CoreId` identifies
/// the accessing core for cache simulation and latency accounting.
pub trait PodMemory: Send + Sync + std::fmt::Debug {
    /// The segment layout.
    fn layout(&self) -> &Layout;
    /// The underlying segment (for data-region raw access).
    fn segment(&self) -> &Arc<Segment>;
    /// The coherence mode this backend models.
    fn hwcc_mode(&self) -> HwccMode;
    /// Loads the u64 at `offset`.
    fn load_u64(&self, core: CoreId, offset: u64) -> u64;
    /// Stores the u64 at `offset`.
    fn store_u64(&self, core: CoreId, offset: u64, value: u64);
    /// Atomically compares-and-swaps the u64 at `offset`. Only cells of
    /// the HWcc region may be CASed ([`SimMemory`] asserts it in every
    /// mode).
    ///
    /// # Errors
    ///
    /// Returns `Err(actual)` with the observed value when the compare
    /// fails.
    fn cas_u64(&self, core: CoreId, offset: u64, current: u64, new: u64) -> Result<u64, u64>;
    /// Counts one allocator-level event — a slab alloc or free, a
    /// remote-free publish, a lease renewal, a CAS about to be re-issued
    /// after a transient contention result — charged zero simulated
    /// time. [`SimMemory`] counts every kind (and records it while its
    /// [`Tracer`] is armed); [`RawMemory`] counts only CAS retries and
    /// remote-free publishes, and the other kinds compile to nothing.
    fn event(&self, core: CoreId, kind: TraceKind, arg: u64);
    /// The backend's event tracer, when it has one. Arm it (and read
    /// traces back) through this accessor; `None` on backends without
    /// tracing ([`RawMemory`] keeps its fast path observer-free).
    fn tracer(&self) -> Option<&Tracer> {
        None
    }
    /// Flushes (writes back and evicts) `[offset, offset+len)` from
    /// `core`'s cache.
    fn flush(&self, core: CoreId, offset: u64, len: u64);
    /// Writes back dirty cached words of `[offset, offset+len)` without
    /// dropping the calling core's copy — clwb semantics, vs `flush`'s
    /// evicting clflush. Equally durable for the writer's own
    /// single-writer lines (oplog, remote-free buffer), but keeps them
    /// hot in cache; a reader invalidating its stale copy of a *shared*
    /// line must still use [`PodMemory::flush`]. Defaults to `flush` on
    /// backends without a cache model.
    fn writeback(&self, core: CoreId, offset: u64, len: u64) {
        self.flush(core, offset, len);
    }
    /// Store fence.
    fn fence(&self, core: CoreId);
    /// Writes back and drops `core`'s entire cache (quiesce before
    /// external validation). No-op on coherent backends.
    fn flush_all(&self, _core: CoreId) {}
    /// Opens an op scope on `core`: until the guard drops, the calling
    /// thread's accesses as `core` skip whatever per-access lock the
    /// backend's cache model takes ([`SimMemory`]: see
    /// [`crate::coherence`], including the one-scope-per-thread rule).
    /// Changes host cost only — values, counters, modeled time and trace
    /// events are those of the same calls made outside a scope. Empty on
    /// backends without a cache model.
    #[inline]
    fn op_scope(&self, _core: CoreId) -> OpScope<'_> {
        OpScope::default()
    }
    /// The backend's event counts under the figures' names.
    fn stats(&self) -> MemStatsSnapshot;
    /// Virtual time accumulated by `core` in nanoseconds (zero for
    /// backends without a latency model).
    fn virtual_ns(&self, core: CoreId) -> u64;
    /// Resets virtual clocks (between experiment runs).
    fn reset_clocks(&self);
    /// Downcast support.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Direct-atomics backend: a pod with full HWcc, or a single host.
///
/// It counts four things in its [`Counts`] table and nothing else, so a
/// load, a store, a flush, a fence, a slab alloc or free and a lease
/// renewal compile to their access alone: a successful CAS
/// ([`TraceKind::CasAttempt`]), a failed one ([`TraceKind::CasFail`]
/// only — a raw pod charges no attempt cost), a CAS retry, each with
/// one relaxed `fetch_add`, and a remote-free publish, with the
/// one-writer load and store (`crate::stats` module docs).
#[derive(Debug)]
pub struct RawMemory {
    segment: Arc<Segment>,
    layout: Layout,
    counts: Counts,
}

impl RawMemory {
    /// Creates a raw backend over `segment`.
    pub fn new(segment: Arc<Segment>, layout: Layout) -> Self {
        RawMemory {
            counts: Counts::new(layout.max_threads as usize),
            segment,
            layout,
        }
    }
}

impl PodMemory for RawMemory {
    fn layout(&self) -> &Layout {
        &self.layout
    }

    fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    fn hwcc_mode(&self) -> HwccMode {
        HwccMode::Full
    }

    #[inline]
    fn load_u64(&self, _core: CoreId, offset: u64) -> u64 {
        self.segment.atomic_u64(offset).load(Ordering::Acquire)
    }

    #[inline]
    fn store_u64(&self, _core: CoreId, offset: u64, value: u64) {
        self.segment.atomic_u64(offset).store(value, Ordering::Release)
    }

    #[inline]
    fn cas_u64(&self, core: CoreId, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        let result = self
            .segment
            .atomic_u64(offset)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
        let kind = if result.is_ok() {
            TraceKind::CasAttempt
        } else {
            TraceKind::CasFail
        };
        self.counts.charge_shared(core.index(), kind);
        result
    }

    #[inline]
    fn event(&self, core: CoreId, kind: TraceKind, _arg: u64) {
        match kind {
            // Any thread retries a registry CAS as `CoreId(0)`.
            TraceKind::CasRetry => self.counts.charge_shared(core.index(), kind),
            // Only the publishing thread's own core publishes.
            TraceKind::RemoteFreePublish => self.counts.charge(core.index(), kind, 0),
            // Counting slab ops or lease renewals would put a shared
            // cacheline on the allocator's fast path; use SimMemory when
            // they matter.
            _ => {}
        }
    }

    #[inline]
    fn flush(&self, _core: CoreId, _offset: u64, _len: u64) {
        // Full HWcc: flushes are unnecessary, and even counting them here
        // would put a shared cacheline (the stats counter) on the
        // allocator's fast path. The paper likewise removes flushing and
        // fencing when benchmarking on coherent memory (§5). Use
        // SimMemory when flush/fence counts matter.
    }

    #[inline]
    fn fence(&self, _core: CoreId) {
        // See `flush`: ordering is already provided by the Release
        // stores and Acquire loads of this backend.
    }

    fn stats(&self) -> MemStatsSnapshot {
        let totals = self.counts.totals();
        MemStatsSnapshot {
            cas_ok: totals.count(TraceKind::CasAttempt),
            cas_fail: totals.count(TraceKind::CasFail),
            cas_retries: totals.count(TraceKind::CasRetry),
            remote_publishes: totals.count(TraceKind::RemoteFreePublish),
            ..MemStatsSnapshot::default()
        }
    }

    fn virtual_ns(&self, _core: CoreId) -> u64 {
        0
    }

    fn reset_clocks(&self) {}

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Simulated-pod backend: per-core caches, optional NMP mCAS, and a
/// calibrated latency model.
#[derive(Debug)]
pub struct SimMemory {
    segment: Arc<Segment>,
    layout: Layout,
    mode: HwccMode,
    cache: CacheModel,
    nmp: NmpDevice,
    clocks: Clocks,
    model: LatencyModel,
    faults: Arc<FaultInjector>,
    /// The pod's event count and optional ring, shared with the NMP
    /// device and the cache model; every event of this backend is
    /// charged through it. Disarmed by default; see [`crate::trace`].
    tracer: Arc<Tracer>,
    /// One resource clock per line of the HWcc region, indexed by line
    /// number from the region's first line: models exclusive-line
    /// transfer under coherent CAS contention. CAS is legal only there.
    line_clocks: Box<[AtomicU64]>,
    /// Fabric contention model, shared with the NMP device so host line
    /// traffic and mCAS round trips queue at the same stations.
    /// [`Fabric::disabled`] (the default on every constructor except
    /// [`SimMemory::with_fabric`]) charges nothing.
    fabric: Arc<Fabric>,
}

impl SimMemory {
    /// Creates a simulated backend with unbounded per-core caches.
    pub fn new(
        segment: Arc<Segment>,
        layout: Layout,
        mode: HwccMode,
        cores: u32,
        model: LatencyModel,
    ) -> Self {
        Self::with_cache_capacity(segment, layout, mode, cores, model, 0)
    }

    /// Creates a simulated backend whose per-core caches hold at most
    /// `cache_lines` lines (0 = unbounded): bounded caches add silent
    /// pseudo-random evictions, the *other* way real incoherent hardware
    /// surprises software.
    pub fn with_cache_capacity(
        segment: Arc<Segment>,
        layout: Layout,
        mode: HwccMode,
        cores: u32,
        model: LatencyModel,
        cache_lines: usize,
    ) -> Self {
        Self::assemble(
            segment,
            layout,
            mode,
            cores,
            model,
            cache_lines,
            Arc::new(Fabric::disabled()),
        )
    }

    /// Creates a simulated backend with a fabric contention model
    /// ([`crate::fabric`]): every line fill, writeback, uncached
    /// access, and NMP round trip is additionally charged queueing
    /// delay and service time at the configured fabric stations. With
    /// [`FabricConfig::congested`] this reproduces the
    /// saturation-knee behavior of a contended pod; the default
    /// constructors keep a disabled fabric and are cost-identical to
    /// builds before the fabric existed.
    pub fn with_fabric(
        segment: Arc<Segment>,
        layout: Layout,
        mode: HwccMode,
        cores: u32,
        model: LatencyModel,
        cache_lines: usize,
        fabric: FabricConfig,
    ) -> Self {
        Self::assemble(
            segment,
            layout,
            mode,
            cores,
            model,
            cache_lines,
            Arc::new(Fabric::new(fabric)),
        )
    }

    fn assemble(
        segment: Arc<Segment>,
        layout: Layout,
        mode: HwccMode,
        cores: u32,
        model: LatencyModel,
        cache_lines: usize,
        fabric: Arc<Fabric>,
    ) -> Self {
        let faults = Arc::new(FaultInjector::new());
        let tracer = Arc::new(Tracer::new(cores as usize));
        let lines = layout.hwcc.end().div_ceil(CACHELINE) - layout.hwcc.start / CACHELINE;
        SimMemory {
            nmp: NmpDevice::with_observers(
                segment.clone(),
                cores as usize,
                faults.clone(),
                tracer.clone(),
            )
            .with_fabric(fabric.clone()),
            cache: CacheModel::with_tracer(cores as usize, cache_lines, tracer.clone()),
            clocks: Clocks::new(cores as usize),
            segment,
            layout,
            mode,
            model,
            faults,
            tracer,
            line_clocks: (0..lines).map(|_| AtomicU64::new(0)).collect(),
            fabric,
        }
    }

    /// The NMP device (for direct spwr/sprd experiments).
    pub fn nmp(&self) -> &NmpDevice {
        &self.nmp
    }

    /// The cache model (for staleness assertions in tests).
    pub fn cache(&self) -> &CacheModel {
        &self.cache
    }

    /// The latency model in effect.
    pub fn model(&self) -> &LatencyModel {
        &self.model
    }

    /// The per-core virtual clocks.
    pub fn clocks(&self) -> &Clocks {
        &self.clocks
    }

    /// The fabric contention model (disabled unless this backend was
    /// built via [`SimMemory::with_fabric`]).
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// The fault injector shared by this backend and its NMP device.
    /// Arm [`FaultRule`](crate::fault::FaultRule)s here to script
    /// dropped/delayed flushes, delayed writebacks, mCAS contention, or
    /// host crashes; with no rules armed every hook reduces to one
    /// relaxed load.
    pub fn faults(&self) -> &Arc<FaultInjector> {
        &self.faults
    }

    /// Charges one event of `core`'s, stamped with its clock.
    #[inline]
    fn charge(&self, core: CoreId, kind: TraceKind, arg: u64, cost: u64) {
        let core = core.index();
        self.tracer.charge(core, kind, arg, cost, self.clocks.now(core));
    }

    /// Whether `offset` goes through the per-core cache in this mode.
    fn is_cached_region(&self, offset: u64) -> bool {
        match self.mode {
            HwccMode::Full => false,
            // SWcc metadata (and anything outside the HWcc region) is
            // cached per core; data regions never route through here.
            HwccMode::Limited | HwccMode::None => !self.layout.is_hwcc(offset),
        }
    }

    /// Software-fallback CAS for a degraded NMP device: serialize
    /// through the single-writer lock word the layout reserves in SWcc
    /// space ([`Layout::fallback_lock`]). Both the lock word and the
    /// target are touched with raw segment atomics — the coordination
    /// line is treated as uncachable (MTRR-style), exactly like
    /// device-biased memory, so no simulated cache can hold a stale
    /// copy. Three uncachable round trips are charged: acquire, RMW,
    /// release.
    ///
    /// The acquire spin is bounded (exponential backoff, a local copy
    /// of `cxl-core::backoff`'s discipline — `pod` cannot depend on
    /// `core`): if the holder never releases — it crashed inside the
    /// critical section — the waiter breaks the lock after the patience
    /// budget instead of livelocking the simulator. Breaking is safe
    /// here because the critical section is a single 8-byte RMW on
    /// uncachable memory: the crashed holder's store either fully
    /// happened or never did.
    fn fallback_cas(&self, core: CoreId, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        // Bounded exponential spin: 1, 2, 4, ... capped at 2^10 spins
        // per round, at most `FALLBACK_PATIENCE` rounds per observed
        // holder before the lock is declared orphaned.
        const MAX_SHIFT: u32 = 10;
        const FALLBACK_PATIENCE: u32 = 64;
        let lock = self.segment.atomic_u64(self.layout.fallback_lock);
        let me = core.0 as u64 + 1;
        let mut shift = 0u32;
        let mut rounds = 0u32;
        let mut observed_holder = 0u64;
        loop {
            match lock.compare_exchange(0, me, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break,
                Err(holder) => {
                    self.charge(core, TraceKind::CasRetry, self.layout.fallback_lock, 0);
                    if holder != observed_holder {
                        // New holder: restart the patience budget.
                        observed_holder = holder;
                        rounds = 0;
                        shift = 0;
                    }
                    rounds += 1;
                    if rounds > FALLBACK_PATIENCE {
                        // The holder has been stuck for the whole
                        // budget: treat it as crashed and seize the
                        // lock so the pod degrades instead of hanging.
                        if lock
                            .compare_exchange(holder, me, Ordering::Acquire, Ordering::Relaxed)
                            .is_ok()
                        {
                            break;
                        }
                        // The word moved (holder released or another
                        // waiter seized it): re-observe from scratch.
                        observed_holder = 0;
                        rounds = 0;
                        shift = 0;
                        continue;
                    }
                    for _ in 0..(1u32 << shift) {
                        std::hint::spin_loop();
                    }
                    if shift < MAX_SHIFT {
                        shift += 1;
                    }
                }
            }
        }
        let cell = self.segment.atomic_u64(offset);
        let previous = cell.load(Ordering::SeqCst);
        let result = if previous == current {
            cell.store(new, Ordering::SeqCst);
            Ok(current)
        } else {
            Err(previous)
        };
        lock.store(0, Ordering::Release);
        let cost = self
            .clocks
            .advance(core.index(), 3 * self.model.uncached_op_ns, &self.model);
        self.charge(core, TraceKind::CasFallback, offset, cost);
        if result.is_err() {
            self.charge(core, TraceKind::CasFail, offset, 0);
        }
        result
    }

    /// Coherent CAS with exclusive-line contention modeling.
    fn coherent_cas(&self, core: CoreId, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        let line =
            &self.line_clocks[(offset / CACHELINE - self.layout.hwcc.start / CACHELINE) as usize];
        let mut cost = self
            .clocks
            .serialize_through(core.index(), line, self.model.line_transfer_ns, &self.model);
        cost += self.clocks.advance(core.index(), self.model.cas_base_ns, &self.model);
        let result = self
            .segment
            .atomic_u64(offset)
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire);
        self.charge(core, TraceKind::CasAttempt, offset, cost);
        if result.is_err() {
            self.charge(core, TraceKind::CasFail, offset, 0);
        }
        result
    }

    /// The one body of [`PodMemory::flush`] (`evict`: clflush, the line
    /// leaves the cache) and [`PodMemory::writeback`] (clwb, it stays
    /// clean). Both share the fault surface, the `flush_ns` charge and
    /// the fabric crossing; they differ in the cache call and the trace
    /// kind.
    fn write_out(&self, core: CoreId, offset: u64, len: u64, evict: bool) {
        let cached = self.is_cached_region(offset);
        // A flush of the cached region is charged under the core's cache
        // lock, which the access takes anyway (or its op scope holds).
        let _scope = cached.then(|| self.cache.scope(core.index()));
        // Extra charges from injected faults fold into the event's cost
        // so the trace reconciles with the virtual clock.
        let mut extra = 0u64;
        if self.faults.enabled() {
            match self.faults.check(FaultSite::Flush, core.index(), offset, len) {
                Some(FaultKind::DropFlush) => {
                    // The CPU retires the clflush / clwb but the device
                    // loses it: the line stays dirty and cached, and the
                    // store never reaches shared memory.
                    let cost = self
                        .clocks
                        .advance(core.index(), self.model.flush_ns, &self.model);
                    self.charge(core, TraceKind::FlushDropped, offset, cost);
                    return;
                }
                Some(FaultKind::DelayFlush(ns)) => {
                    extra += self.clocks.advance(core.index(), ns, &self.model);
                }
                Some(FaultKind::AbandonCache) => {
                    // Host crash at this flush point: the whole cache
                    // dies unwritten.
                    self.cache.discard_all(core.index());
                    self.tracer
                        .charge_here(core.index(), TraceKind::CacheAbandon, offset);
                    return;
                }
                _ => {}
            }
        }
        let mut written = 0;
        if cached {
            written = self
                .cache
                .write_out(core.index(), &self.segment, offset, len, evict);
            if written > 0 && self.faults.enabled() {
                if let Some(FaultKind::DelayWriteback(ns)) =
                    self.faults.check(FaultSite::Writeback, core.index(), offset, len)
                {
                    extra += self
                        .clocks
                        .advance(core.index(), ns * written as u64, &self.model);
                }
            }
        }
        let cost = extra
            + self
                .clocks
                .advance(core.index(), self.model.flush_ns, &self.model);
        let kind = if evict {
            TraceKind::Flush
        } else {
            TraceKind::WritebackKept
        };
        self.charge(core, kind, written as u64, cost);
        if written > 0 {
            // The written-back lines cross the fabric as one payload.
            self.fabric.apply(
                core.index(),
                written as u64 * CACHELINE,
                &self.clocks,
                &self.tracer,
            );
        }
    }
}

impl PodMemory for SimMemory {
    fn layout(&self) -> &Layout {
        &self.layout
    }

    fn segment(&self) -> &Arc<Segment> {
        &self.segment
    }

    fn hwcc_mode(&self) -> HwccMode {
        self.mode
    }

    fn load_u64(&self, core: CoreId, offset: u64) -> u64 {
        if self.is_cached_region(offset) {
            // Charged under the core's cache lock, which the access takes
            // anyway (or its op scope holds).
            let _scope = self.cache.scope(core.index());
            let (value, hit) = self.cache.load(core.index(), &self.segment, offset);
            let ns = if hit {
                self.model.cache_hit_ns
            } else {
                self.model.cxl_load_ns
            };
            let cost = self.clocks.advance(core.index(), ns, &self.model);
            let kind = if hit {
                TraceKind::LoadHit
            } else {
                TraceKind::LoadFill
            };
            self.charge(core, kind, offset, cost);
            if !hit {
                // A miss pulls one line across the fabric; hits stay on
                // the core and never touch it.
                self.fabric
                    .apply(core.index(), CACHELINE, &self.clocks, &self.tracer);
            }
            value
        } else {
            // HWcc region: cacheable-and-coherent (Full/Limited) or
            // device-biased uncachable (None).
            let (kind, ns) = match self.mode {
                HwccMode::None => (TraceKind::LoadUncached, self.model.uncached_op_ns),
                _ => (TraceKind::LoadHwcc, self.model.hwcc_load_ns),
            };
            let cost = self.clocks.advance(core.index(), ns, &self.model);
            self.charge(core, kind, offset, cost);
            if kind == TraceKind::LoadUncached {
                // Device-biased loads cross the fabric on every access;
                // HWcc loads are cacheable and stay off it.
                self.fabric
                    .apply(core.index(), CACHELINE, &self.clocks, &self.tracer);
            }
            self.segment.atomic_u64(offset).load(Ordering::Acquire)
        }
    }

    fn store_u64(&self, core: CoreId, offset: u64, value: u64) {
        if self.is_cached_region(offset) {
            let _scope = self.cache.scope(core.index());
            self.cache.store(core.index(), &self.segment, offset, value);
            let cost = self
                .clocks
                .advance(core.index(), self.model.cache_store_ns, &self.model);
            self.charge(core, TraceKind::StoreDirty, offset, cost);
        } else {
            let (kind, ns) = match self.mode {
                HwccMode::None => (TraceKind::StoreUncached, self.model.uncached_op_ns),
                _ => (TraceKind::StoreHwcc, self.model.hwcc_load_ns),
            };
            let cost = self.clocks.advance(core.index(), ns, &self.model);
            self.charge(core, kind, offset, cost);
            if kind == TraceKind::StoreUncached {
                // Device-biased stores cross the fabric on every access.
                self.fabric
                    .apply(core.index(), CACHELINE, &self.clocks, &self.tracer);
            }
            self.segment.atomic_u64(offset).store(value, Ordering::Release);
        }
    }

    fn cas_u64(&self, core: CoreId, offset: u64, current: u64, new: u64) -> Result<u64, u64> {
        assert!(
            self.layout.is_hwcc(offset),
            "SWcc protocol violation: CAS on software-coherent offset {offset:#x} \
             (CAS requires coherence; only HWcc-region cells may be CASed)"
        );
        match self.mode {
            HwccMode::Full | HwccMode::Limited => self.coherent_cas(core, offset, current, new),
            HwccMode::None => {
                if self.nmp.route_to_fallback() {
                    return self.fallback_cas(core, offset, current, new);
                }
                let result = self.nmp.mcas(
                    core.index(),
                    offset,
                    current,
                    new,
                    &self.clocks,
                    &self.model,
                );
                if result.success {
                    Ok(current)
                } else {
                    Err(result.previous)
                }
            }
        }
    }

    fn flush(&self, core: CoreId, offset: u64, len: u64) {
        self.write_out(core, offset, len, true);
    }

    fn writeback(&self, core: CoreId, offset: u64, len: u64) {
        self.write_out(core, offset, len, false);
    }

    fn fence(&self, core: CoreId) {
        let cost = self.clocks.advance(core.index(), self.model.fence_ns, &self.model);
        self.charge(core, TraceKind::Fence, 0, cost);
        std::sync::atomic::fence(Ordering::SeqCst);
    }

    fn flush_all(&self, core: CoreId) {
        self.cache.flush_all(core.index(), &self.segment);
    }

    fn op_scope(&self, core: CoreId) -> OpScope<'_> {
        self.cache.scope(core.index())
    }

    fn event(&self, core: CoreId, kind: TraceKind, arg: u64) {
        self.charge(core, kind, arg, 0);
    }

    fn tracer(&self) -> Option<&Tracer> {
        Some(&self.tracer)
    }

    fn stats(&self) -> MemStatsSnapshot {
        MemStatsSnapshot::from_totals(
            &self.tracer.counts().totals(),
            self.faults.stats().total(),
        )
    }

    fn virtual_ns(&self, core: CoreId) -> u64 {
        self.clocks.now(core.index())
    }

    fn reset_clocks(&self) {
        self.clocks.reset();
        self.nmp.reset_clock();
        self.fabric.reset();
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PodConfig;

    fn sim(mode: HwccMode) -> SimMemory {
        let layout = Layout::compute(&PodConfig::small_for_tests()).unwrap();
        let segment = Arc::new(Segment::zeroed(layout.total_len).unwrap());
        SimMemory::new(segment, layout, mode, 8, LatencyModel::paper_calibrated())
    }

    #[test]
    fn full_mode_is_coherent() {
        let mem = sim(HwccMode::Full);
        let off = mem.layout().small.swcc_desc_at(0);
        mem.store_u64(CoreId(0), off, 11);
        assert_eq!(mem.load_u64(CoreId(1), off), 11);
    }

    #[test]
    fn limited_mode_swcc_is_stale_until_flush() {
        let mem = sim(HwccMode::Limited);
        let off = mem.layout().small.swcc_desc_at(0);
        // Core 1 fills its cache with the initial value.
        assert_eq!(mem.load_u64(CoreId(1), off), 0);
        // Core 0 writes and flushes.
        mem.store_u64(CoreId(0), off, 5);
        mem.flush(CoreId(0), off, 8);
        mem.fence(CoreId(0));
        // Core 1 still sees its stale cached copy...
        assert_eq!(mem.load_u64(CoreId(1), off), 0);
        // ...until it flushes its own cache.
        mem.flush(CoreId(1), off, 8);
        assert_eq!(mem.load_u64(CoreId(1), off), 5);
    }

    #[test]
    fn limited_mode_hwcc_is_coherent() {
        let mem = sim(HwccMode::Limited);
        let off = mem.layout().small.global_len;
        mem.store_u64(CoreId(0), off, 3);
        assert_eq!(mem.load_u64(CoreId(1), off), 3);
        assert!(mem.cas_u64(CoreId(1), off, 3, 4).is_ok());
        assert_eq!(mem.load_u64(CoreId(0), off), 4);
    }

    #[test]
    fn none_mode_routes_cas_through_nmp() {
        let mem = sim(HwccMode::None);
        let off = mem.layout().small.global_len;
        assert!(mem.cas_u64(CoreId(0), off, 0, 9).is_ok());
        assert_eq!(mem.cas_u64(CoreId(1), off, 0, 5), Err(9));
        let stats = mem.stats();
        assert_eq!(stats.mcas_ok, 1);
        assert_eq!(stats.mcas_fail, 1);
        assert_eq!(stats.cas_ok, 0);
    }

    #[test]
    fn persistent_device_faults_degrade_to_fallback_and_heal() {
        use crate::fault::{FaultKind, FaultRule};
        use crate::nmp::{BreakerConfig, DeviceMode};
        let mem = sim(HwccMode::None);
        mem.nmp().set_breaker_config(BreakerConfig {
            trip_after: 2,
            probe_after: 1,
        });
        let off = mem.layout().small.global_len;
        // Two bounced pairs trip the breaker...
        mem.faults()
            .push(FaultRule::new(FaultKind::McasContention).times(2));
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_err());
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_err());
        assert_eq!(mem.nmp().device_mode(), DeviceMode::Fallback);
        // ...so the next CAS is served by the software path and succeeds
        // even though the device would still be bouncing pairs.
        assert!(mem.cas_u64(CoreId(1), off, 0, 7).is_ok());
        assert_eq!(mem.segment().peek_u64(off), 7);
        // Faults are spent: the half-open probe heals the breaker.
        assert!(mem.cas_u64(CoreId(1), off, 7, 8).is_ok());
        assert_eq!(mem.nmp().device_mode(), DeviceMode::Nmp);
        let stats = mem.stats();
        assert_eq!(stats.breaker_trips, 1);
        assert_eq!(stats.breaker_heals, 1);
        assert_eq!(stats.fallback_cas, 1);
        // The fallback CAS counts as a coherent-CAS success, not an mCAS.
        assert_eq!(stats.cas_ok, 1);
    }

    #[test]
    fn fallback_cas_reports_conflicts() {
        use crate::fault::{FaultKind, FaultRule};
        use crate::nmp::BreakerConfig;
        let mem = sim(HwccMode::None);
        mem.nmp().set_breaker_config(BreakerConfig {
            trip_after: 1,
            probe_after: 8,
        });
        let off = mem.layout().small.global_len;
        mem.faults()
            .push(FaultRule::new(FaultKind::McasContention).once());
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_err()); // trips
        assert!(mem.cas_u64(CoreId(0), off, 0, 5).is_ok()); // fallback
        assert_eq!(mem.cas_u64(CoreId(1), off, 0, 9), Err(5)); // genuine conflict
        assert_eq!(mem.segment().peek_u64(off), 5);
    }

    #[test]
    fn fallback_cas_breaks_orphaned_lock() {
        use crate::fault::FaultRule;
        // A holder that crashed inside the fallback critical section
        // leaves the lock word set forever. The bounded spin must seize
        // the lock after its patience budget instead of livelocking.
        let mem = sim(HwccMode::None);
        mem.nmp().set_breaker_config(crate::nmp::BreakerConfig {
            trip_after: 1,
            probe_after: u32::MAX,
        });
        mem.faults().push(FaultRule::device_outage(u64::MAX));
        let off = mem.layout().small.global_len;
        // Simulate the crashed holder: core 7 acquired and died.
        mem.segment()
            .atomic_u64(mem.layout().fallback_lock)
            .store(8, Ordering::SeqCst);
        // First attempt trips the breaker; the next routes to the
        // fallback lock and must break the orphaned hold.
        let _ = mem.cas_u64(CoreId(0), off, 0, 42);
        assert!(mem.cas_u64(CoreId(0), off, 0, 42).is_ok());
        assert_eq!(mem.segment().peek_u64(off), 42);
        // The lock was released after the seized critical section.
        assert_eq!(mem.segment().peek_u64(mem.layout().fallback_lock), 0);
        // The wait was observable: retries were counted.
        assert!(mem.stats().cas_retries > 0);
    }

    #[test]
    fn cas_on_swcc_region_is_rejected_in_every_mode() {
        for mode in [HwccMode::Full, HwccMode::Limited, HwccMode::None] {
            let mem = sim(mode);
            let off = mem.layout().small.swcc_desc_at(0);
            let cas = std::panic::AssertUnwindSafe(|| mem.cas_u64(CoreId(0), off, 0, 1));
            let panic = std::panic::catch_unwind(cas).expect_err("a CAS on a SWcc cell must panic");
            let message = panic.downcast_ref::<String>().unwrap();
            assert!(message.contains("SWcc protocol violation"), "{mode}: {message}");
        }
    }

    /// A simulated pod whose charges are the model's constants exactly.
    fn sim_unjittered() -> SimMemory {
        let layout = Layout::compute(&PodConfig::small_for_tests()).unwrap();
        let segment = Arc::new(Segment::zeroed(layout.total_len).unwrap());
        let model = LatencyModel::paper_calibrated().with_jitter_pct(0);
        SimMemory::new(segment, layout, HwccMode::Limited, 8, model)
    }

    #[test]
    fn cas_on_one_line_serializes() {
        let mem = sim_unjittered();
        let (transfer, base) = (mem.model().line_transfer_ns, mem.model().cas_base_ns);
        let off = mem.layout().hwcc.start;
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_ok());
        // Another word of the same line: core 1 waits for core 0's hold.
        assert!(mem.cas_u64(CoreId(1), off + 8, 0, 1).is_ok());
        assert_eq!(mem.virtual_ns(CoreId(0)), transfer + base);
        assert_eq!(mem.virtual_ns(CoreId(1)), 2 * transfer + base);
    }

    #[test]
    fn cas_on_different_lines_does_not_serialize() {
        let mem = sim_unjittered();
        let off = mem.layout().hwcc.start;
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_ok());
        assert!(mem.cas_u64(CoreId(1), off + CACHELINE, 0, 1).is_ok());
        assert_eq!(mem.virtual_ns(CoreId(0)), mem.virtual_ns(CoreId(1)));
    }

    #[test]
    fn first_and_last_hwcc_lines_have_their_own_clocks() {
        let mem = sim_unjittered();
        let (transfer, base) = (mem.model().line_transfer_ns, mem.model().cas_base_ns);
        let hwcc = mem.layout().hwcc;
        let (first, last) = (hwcc.start, hwcc.end() - 8);
        assert_ne!(first / CACHELINE, last / CACHELINE);
        assert!(mem.cas_u64(CoreId(0), first, 0, 1).is_ok());
        assert!(mem.cas_u64(CoreId(1), last, 0, 1).is_ok());
        assert!(mem.cas_u64(CoreId(2), last, 1, 2).is_ok());
        assert_eq!(mem.virtual_ns(CoreId(0)), transfer + base);
        assert_eq!(mem.virtual_ns(CoreId(1)), transfer + base);
        assert_eq!(mem.virtual_ns(CoreId(2)), 2 * transfer + base);
    }

    #[test]
    fn mcas_mode_accumulates_round_trip_latency() {
        let mem = sim(HwccMode::None);
        let off = mem.layout().small.global_len;
        let before = mem.virtual_ns(CoreId(0));
        let _ = mem.cas_u64(CoreId(0), off, 0, 1);
        let after = mem.virtual_ns(CoreId(0));
        assert!(after - before >= mem.model().mcas_round_trip_ns / 2);
    }

    #[test]
    fn dropped_flush_keeps_store_private() {
        use crate::fault::{FaultKind, FaultRule};
        let mem = sim(HwccMode::Limited);
        let off = mem.layout().small.swcc_desc_at(0);
        mem.faults()
            .push(FaultRule::new(FaultKind::DropFlush).on_core(0).once());
        mem.store_u64(CoreId(0), off, 77);
        mem.flush(CoreId(0), off, 8); // dropped
        mem.fence(CoreId(0));
        // The store never reached shared memory...
        assert_eq!(mem.segment().peek_u64(off), 0);
        // ...and the line is still dirty in core 0's cache, so the next
        // (honest) flush publishes it.
        mem.flush(CoreId(0), off, 8);
        assert_eq!(mem.segment().peek_u64(off), 77);
        assert_eq!(mem.stats().faults_injected, 1);
    }

    #[test]
    fn abandon_rule_discards_cache_at_flush_point() {
        use crate::fault::{FaultKind, FaultRule};
        let mem = sim(HwccMode::Limited);
        let off = mem.layout().small.swcc_desc_at(0);
        mem.faults()
            .push(FaultRule::new(FaultKind::AbandonCache).on_core(0).once());
        mem.store_u64(CoreId(0), off, 5);
        mem.flush(CoreId(0), off, 8); // host crashes here
        assert_eq!(mem.segment().peek_u64(off), 0, "dirty line must die");
        assert!(!mem.cache().is_cached(0, off));
        assert_eq!(mem.faults().stats().cache_abandons, 1);
        // The crashed core's next load refills from shared memory.
        assert_eq!(mem.load_u64(CoreId(0), off), 0);
    }

    #[test]
    fn delays_advance_virtual_clock_only() {
        use crate::fault::{FaultKind, FaultRule};
        let mem = sim(HwccMode::Limited);
        let off = mem.layout().small.swcc_desc_at(0);
        mem.faults()
            .push(FaultRule::new(FaultKind::DelayFlush(1_000_000)).once());
        let before = mem.virtual_ns(CoreId(0));
        mem.store_u64(CoreId(0), off, 1);
        mem.flush(CoreId(0), off, 8);
        assert!(mem.virtual_ns(CoreId(0)) - before >= 1_000_000);
        // Despite the delay, the flush completed.
        assert_eq!(mem.segment().peek_u64(off), 1);
    }

    #[test]
    fn disarmed_injector_leaves_flush_semantics_unchanged() {
        let mem = sim(HwccMode::Limited);
        assert!(!mem.faults().enabled());
        let off = mem.layout().small.swcc_desc_at(0);
        mem.store_u64(CoreId(0), off, 3);
        mem.flush(CoreId(0), off, 8);
        assert_eq!(mem.segment().peek_u64(off), 3);
        assert_eq!(mem.stats().faults_injected, 0);
    }

    #[test]
    fn raw_memory_counts_cas() {
        let layout = Layout::compute(&PodConfig::small_for_tests()).unwrap();
        let segment = Arc::new(Segment::zeroed(layout.total_len).unwrap());
        let mem = RawMemory::new(segment, layout);
        let off = mem.layout().small.global_len;
        assert!(mem.cas_u64(CoreId(0), off, 0, 1).is_ok());
        assert!(mem.cas_u64(CoreId(0), off, 0, 2).is_err());
        let stats = mem.stats();
        assert_eq!((stats.cas_ok, stats.cas_fail), (1, 1));
    }

    #[test]
    fn hwcc_mode_display() {
        assert_eq!(HwccMode::Full.to_string(), "hwcc-full");
        assert_eq!(HwccMode::None.to_string(), "mcas");
    }
}
