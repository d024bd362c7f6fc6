//! CXL pod substrate for the cxlalloc reproduction.
//!
//! A *CXL pod* is a small group of hosts (8–16) that share a single
//! multi-headed CXL memory device at cacheline granularity. This crate
//! models everything the `cxl-core` allocator needs from such a pod:
//!
//! * [`Segment`] — one shared "physical" memory segment with the paper's
//!   three-way layout: a small hardware-cache-coherent (HWcc) metadata
//!   region, a software-cache-coherent (SWcc) metadata region, and the
//!   data region (paper Figure 2).
//! * [`PodMemory`] — the access interface the allocator routes all of its
//!   *metadata* loads, stores, CAS, flush, and fence operations through.
//!   Two backends are provided:
//!   * [`RawMemory`] — direct atomic access; models a pod with full
//!     inter-host hardware cache coherence (or a single host). Flush and
//!     fence only bump counters. This is the fast backend used by the
//!     wall-clock performance experiments (paper Figures 8–10).
//!   * [`SimMemory`] — routes accesses through a per-core software cache
//!     model ([`coherence`]) and, when configured with
//!     [`HwccMode::None`], through a near-memory-processing mCAS device
//!     ([`nmp`]). A calibrated virtual-clock [`latency`] model accumulates
//!     modeled time. This backend powers the limited-HWcc experiments
//!     (paper Figures 11 and 12) and the SWcc-protocol correctness tests.
//! * [`Process`] — simulated processes with private mapping tables over
//!   the shared segment. Dereferencing an unmapped offset raises a fault
//!   that is routed to an installable fault handler, reproducing the
//!   paper's SIGSEGV-based asynchronous mapping installation (§3.3).
//!
//! # Why a simulation?
//!
//! Real multi-host CXL 3.x hardware (and the paper's FPGA mCAS prototype)
//! is not available here. The substitution preserves the properties the
//! allocator's protocols are sensitive to: per-core cache *staleness* in
//! SWcc memory, serialization of mCAS at the device, and the visibility
//! rules of per-process memory mappings. See `DESIGN.md` §1.
//!
//! # Example
//!
//! ```
//! use cxl_pod::{PodConfig, Pod, CoreId};
//!
//! # fn main() -> Result<(), cxl_pod::PodError> {
//! let config = PodConfig::small_for_tests();
//! let pod = Pod::new(config)?;
//! let mem = pod.memory();
//!
//! // All-zero segment is a valid empty heap: the small-heap length cell
//! // reads zero.
//! let layout = pod.layout();
//! assert_eq!(mem.load_u64(CoreId(0), layout.small.global_len), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod coherence;
mod config;
mod error;
pub mod fabric;
pub mod fault;
pub mod latency;
mod layout;
mod mem;
pub mod nmp;
mod process;
mod segment;
pub mod stats;
pub mod trace;

pub use config::{
    PodConfig, CACHELINE, LARGE_CLASSES, LARGE_MAX_BLOCK, LARGE_SLAB_SIZE, PAGE_SIZE,
    SMALL_CLASSES, SMALL_MAX_BLOCK, SMALL_MIN_BLOCK, SMALL_SLAB_SIZE,
};
pub use error::{Fault, PodError};
pub use fabric::FabricConfig;
pub use layout::{HeapLayout, HugeLayout, Layout, Region, HUGE_DESC_SIZE};
pub use mem::{HwccMode, PodMemory, RawMemory, SimMemory};
pub use nmp::{BreakerConfig, DeviceMode};
pub use process::{FaultHandler, MapSet, Process, ProcessId};
pub use segment::Segment;

use std::sync::Arc;

/// Identity of the CPU core (equivalently: pinned thread) performing a
/// memory access.
///
/// The paper's SWcc protocol assumes threads are pinned to cores, so each
/// core has an independent cache whose contents can go stale relative to
/// the shared CXL memory. [`SimMemory`] keeps one simulated cache per
/// `CoreId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index into per-core tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for CoreId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A fully assembled pod: shared segment plus a chosen memory backend and
/// a set of simulated processes.
///
/// `Pod` is cheap to share (`Arc` internally); clones refer to the same
/// segment.
#[derive(Debug, Clone)]
pub struct Pod {
    inner: Arc<PodInner>,
}

#[derive(Debug)]
struct PodInner {
    config: PodConfig,
    layout: Layout,
    memory: Arc<dyn PodMemory>,
    /// `memory` again, by its concrete type, when it is a [`RawMemory`]
    /// this pod built; handed to every process (see
    /// [`Process::raw_memory`]).
    raw: Option<Arc<RawMemory>>,
    processes: parking_lot::RwLock<Vec<Arc<Process>>>,
}

impl Pod {
    /// Creates a pod backed by [`RawMemory`] (full hardware coherence).
    ///
    /// # Errors
    ///
    /// Returns [`PodError::InvalidConfig`] if the configuration is
    /// internally inconsistent, or [`PodError::SegmentTooLarge`] if the
    /// computed segment exceeds the configured cap.
    pub fn new(config: PodConfig) -> Result<Self, PodError> {
        let layout = Layout::compute(&config)?;
        let segment = Arc::new(Segment::zeroed(layout.total_len)?);
        Ok(Self::assemble_raw(config, layout, segment))
    }

    /// Creates a pod backed by [`SimMemory`] with the given coherence mode.
    ///
    /// # Errors
    ///
    /// Same as [`Pod::new`].
    pub fn with_simulation(config: PodConfig, mode: HwccMode) -> Result<Self, PodError> {
        let layout = Layout::compute(&config)?;
        let segment = Arc::new(Segment::zeroed(layout.total_len)?);
        let memory: Arc<dyn PodMemory> = Arc::new(SimMemory::new(
            segment,
            layout.clone(),
            mode,
            config.max_threads,
            latency::LatencyModel::paper_calibrated(),
        ));
        Ok(Self::assemble(config, layout, memory, None))
    }

    /// Creates a simulated pod with a fabric contention model: every
    /// line fill, writeback, uncached access, and NMP round trip is
    /// charged queueing delay and service time at the configured fabric
    /// stations on top of its protocol cost (see [`crate::fabric`]).
    ///
    /// ```
    /// use cxl_pod::{FabricConfig, HwccMode, Pod, PodConfig};
    ///
    /// let pod = Pod::with_simulation_fabric(
    ///     PodConfig::small_for_tests(),
    ///     HwccMode::Limited,
    ///     FabricConfig::congested(),
    /// )?;
    /// # drop(pod);
    /// # Ok::<(), cxl_pod::PodError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Same as [`Pod::new`].
    pub fn with_simulation_fabric(
        config: PodConfig,
        mode: HwccMode,
        fabric: FabricConfig,
    ) -> Result<Self, PodError> {
        let layout = Layout::compute(&config)?;
        let segment = Arc::new(Segment::zeroed(layout.total_len)?);
        let memory: Arc<dyn PodMemory> = Arc::new(SimMemory::with_fabric(
            segment,
            layout.clone(),
            mode,
            config.max_threads,
            latency::LatencyModel::paper_calibrated(),
            0,
            fabric,
        ));
        Ok(Self::assemble(config, layout, memory, None))
    }

    /// Creates a simulated pod whose per-core caches hold at most
    /// `cache_lines` lines: small caches force frequent silent evictions,
    /// stressing the allocator against unplanned writebacks.
    ///
    /// # Errors
    ///
    /// Same as [`Pod::new`].
    pub fn with_simulation_capacity(
        config: PodConfig,
        mode: HwccMode,
        cache_lines: usize,
    ) -> Result<Self, PodError> {
        let layout = Layout::compute(&config)?;
        let segment = Arc::new(Segment::zeroed(layout.total_len)?);
        let memory: Arc<dyn PodMemory> = Arc::new(SimMemory::with_cache_capacity(
            segment,
            layout.clone(),
            mode,
            config.max_threads,
            latency::LatencyModel::paper_calibrated(),
            cache_lines,
        ));
        Ok(Self::assemble(config, layout, memory, None))
    }

    /// Creates a pod over a *shared segment file*, creating (or
    /// truncating) the file at `path`.
    ///
    /// This is the real-process substrate: every OS process that calls
    /// [`Pod::open_shared`] on the same path with the same config maps
    /// the same bytes, so the allocator's cross-process protocols run
    /// against genuine shared memory instead of the in-process
    /// simulation. The backend is [`RawMemory`] — a single coherent host
    /// (or a fully HW-coherent pod), which matches what the OS page
    /// cache actually provides.
    ///
    /// `tail_bytes` extra bytes are mapped *after* the heap layout
    /// (rounded up to a page). The allocator never touches them; callers
    /// use the tail for their own shared control structures — the serve
    /// harness puts its coordinator↔worker rings there. The tail starts
    /// at `layout().total_len`, which is page-aligned.
    ///
    /// # Errors
    ///
    /// Returns layout errors as [`Pod::new`] does, plus
    /// [`PodError::SharedSegment`] for file/mapping failures.
    #[cfg(unix)]
    pub fn create_shared(
        config: PodConfig,
        path: &std::path::Path,
        tail_bytes: u64,
    ) -> Result<Self, PodError> {
        Self::shared(config, path, tail_bytes, true)
    }

    /// Opens an existing shared segment file created by
    /// [`Pod::create_shared`].
    ///
    /// The caller must pass the *same* `config` and `tail_bytes` the
    /// creator used: the heap layout is a pure function of the config,
    /// so identical configs give every process identical offsets with no
    /// coordination (paper §4) — and a mismatched file size is rejected.
    ///
    /// # Errors
    ///
    /// Same as [`Pod::create_shared`].
    #[cfg(unix)]
    pub fn open_shared(
        config: PodConfig,
        path: &std::path::Path,
        tail_bytes: u64,
    ) -> Result<Self, PodError> {
        Self::shared(config, path, tail_bytes, false)
    }

    #[cfg(unix)]
    fn shared(
        config: PodConfig,
        path: &std::path::Path,
        tail_bytes: u64,
        create: bool,
    ) -> Result<Self, PodError> {
        let layout = Layout::compute(&config)?;
        let tail = tail_bytes
            .checked_add(PAGE_SIZE - 1)
            .map(|t| t / PAGE_SIZE * PAGE_SIZE)
            .and_then(|t| layout.total_len.checked_add(t))
            .ok_or_else(|| PodError::InvalidConfig {
                reason: format!("control tail of {tail_bytes} bytes overflows"),
            })?;
        let segment = Arc::new(Segment::map_shared(path, tail, create)?);
        Ok(Self::assemble_raw(config, layout, segment))
    }

    /// Creates a pod from an explicit memory backend (for tests that need
    /// a custom latency model or a pre-populated segment).
    pub fn from_memory(config: PodConfig, memory: Arc<dyn PodMemory>) -> Self {
        let layout = memory.layout().clone();
        Self::assemble(config, layout, memory, None)
    }

    fn assemble_raw(config: PodConfig, layout: Layout, segment: Arc<Segment>) -> Self {
        let raw = Arc::new(RawMemory::new(segment, layout.clone()));
        Self::assemble(config, layout, raw.clone(), Some(raw))
    }

    fn assemble(
        config: PodConfig,
        layout: Layout,
        memory: Arc<dyn PodMemory>,
        raw: Option<Arc<RawMemory>>,
    ) -> Self {
        Pod {
            inner: Arc::new(PodInner {
                config,
                layout,
                memory,
                raw,
                processes: parking_lot::RwLock::new(Vec::new()),
            }),
        }
    }

    /// The pod's configuration.
    pub fn config(&self) -> &PodConfig {
        &self.inner.config
    }

    /// The computed segment layout.
    pub fn layout(&self) -> &Layout {
        &self.inner.layout
    }

    /// The memory backend shared by every process in the pod.
    pub fn memory(&self) -> &Arc<dyn PodMemory> {
        &self.inner.memory
    }

    /// Spawns a new simulated process attached to this pod.
    ///
    /// Each process starts with *no* data mappings installed (only
    /// reservations), so pointer dereferences fault until the fault
    /// handler installs the relevant mapping — exactly the PC-T situation
    /// the paper's signal-handler protocol addresses.
    pub fn spawn_process(&self) -> Arc<Process> {
        let mut guard = self.inner.processes.write();
        let id = ProcessId(guard.len() as u32);
        let process = Arc::new(Process::new(
            id,
            self.inner.memory.clone(),
            self.inner.raw.clone(),
        ));
        guard.push(process.clone());
        process
    }

    /// All processes spawned so far.
    pub fn processes(&self) -> Vec<Arc<Process>> {
        self.inner.processes.read().clone()
    }

    /// Number of processes spawned so far.
    pub fn process_count(&self) -> usize {
        self.inner.processes.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_roundtrip() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let mem = pod.memory();
        let off = pod.layout().small.global_len;
        assert_eq!(mem.load_u64(CoreId(0), off), 0);
        mem.store_u64(CoreId(0), off, 42);
        assert_eq!(mem.load_u64(CoreId(1), off), 42);
    }

    #[test]
    fn processes_get_distinct_ids() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let a = pod.spawn_process();
        let b = pod.spawn_process();
        assert_ne!(a.id(), b.id());
        assert_eq!(pod.process_count(), 2);
    }

    #[cfg(unix)]
    #[test]
    fn shared_pods_share_the_heap_and_tail() {
        let path =
            std::env::temp_dir().join(format!("cxl-pod-shared-{}", std::process::id()));
        let config = PodConfig::small_for_tests();
        let a = Pod::create_shared(config.clone(), &path, 100).unwrap();
        let b = Pod::open_shared(config, &path, 100).unwrap();

        // Heap cells alias across the two pods.
        let off = a.layout().small.global_len;
        a.memory().store_u64(CoreId(0), off, 99);
        assert_eq!(b.memory().load_u64(CoreId(1), off), 99);

        // The control tail sits past the heap, page-rounded, and aliases
        // too (accessed directly through the segment, not PodMemory).
        let tail = a.layout().total_len;
        assert_eq!(tail % 4096, 0);
        assert_eq!(a.memory().segment().len(), tail + 4096);
        a.memory().segment().atomic_u64(tail).store(
            7,
            std::sync::atomic::Ordering::SeqCst,
        );
        assert_eq!(b.memory().segment().peek_u64(tail), 7);
        drop((a, b));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn core_id_display() {
        assert_eq!(CoreId(3).to_string(), "core3");
        assert_eq!(CoreId(3).index(), 3);
    }
}
