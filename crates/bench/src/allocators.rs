//! Allocator factory: builds every evaluated allocator with comparable
//! capacity.

use baselines::{
    BoostLike, CxlShmLike, CxlallocAdapter, LightningLike, MiLike, PodAlloc, RallocLike,
};
use cxl_core::AttachOptions;
use cxl_pod::{HwccMode, Pod, PodConfig};
use std::sync::Arc;

/// The allocators of the evaluation (Figure 8's legend).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocatorKind {
    /// This paper's allocator.
    Cxlalloc,
    /// Ablation with recovery state disabled (§5.2.1).
    CxlallocNonrecoverable,
    /// mimalloc-like upper bound.
    Mimalloc,
    /// ralloc-like lock-free PM allocator.
    Ralloc,
    /// cxl-shm-like reference-counted manager.
    CxlShm,
    /// Boost.Interprocess-like global mutex.
    Boost,
    /// Lightning-like lock + tracking table.
    Lightning,
}

impl AllocatorKind {
    /// Every allocator, in the paper's legend order.
    pub fn all() -> [AllocatorKind; 7] {
        [
            AllocatorKind::Cxlalloc,
            AllocatorKind::CxlallocNonrecoverable,
            AllocatorKind::Mimalloc,
            AllocatorKind::Ralloc,
            AllocatorKind::CxlShm,
            AllocatorKind::Boost,
            AllocatorKind::Lightning,
        ]
    }

    /// Display name matching the figures.
    pub fn name(&self) -> &'static str {
        match self {
            AllocatorKind::Cxlalloc => "cxlalloc",
            AllocatorKind::CxlallocNonrecoverable => "cxlalloc-nonrecoverable",
            AllocatorKind::Mimalloc => "mimalloc",
            AllocatorKind::Ralloc => "ralloc",
            AllocatorKind::CxlShm => "cxl-shm",
            AllocatorKind::Boost => "boost",
            AllocatorKind::Lightning => "lightning",
        }
    }

    /// Builds an instance with roughly `capacity` bytes of heap backing
    /// and, for cross-process allocators, `processes` simulated
    /// processes. `max_threads` bounds worker registration.
    pub fn build(
        &self,
        capacity: u64,
        processes: usize,
        max_threads: u32,
    ) -> Arc<dyn PodAlloc> {
        match self {
            AllocatorKind::Cxlalloc => Arc::new(CxlallocAdapter::new(
                cxlalloc_pod(capacity, max_threads, None),
                processes,
                AttachOptions::default(),
            )),
            AllocatorKind::CxlallocNonrecoverable => Arc::new(CxlallocAdapter::new(
                cxlalloc_pod(capacity, max_threads, None),
                processes,
                AttachOptions {
                    recoverable: false,
                    ..AttachOptions::default()
                },
            )),
            AllocatorKind::Mimalloc => Arc::new(MiLike::new(capacity)),
            AllocatorKind::Ralloc => Arc::new(RallocLike::new(capacity)),
            AllocatorKind::CxlShm => Arc::new(CxlShmLike::new(capacity)),
            AllocatorKind::Boost => Arc::new(BoostLike::new(capacity)),
            AllocatorKind::Lightning => Arc::new(LightningLike::new(
                capacity,
                // One tracking entry per plausible live allocation — the
                // preallocation that inflates its memory.
                (capacity / 512).min(16 << 20) as usize,
            )),
        }
    }
}

/// The config every `cxlalloc_pod*` constructor sizes its pod with.
fn pod_config(capacity: u64, max_threads: u32) -> PodConfig {
    PodConfig {
        max_threads: max_threads.max(8),
        small_max_slabs: ((capacity / 2) / (32 << 10)).clamp(64, 1 << 20) as u32,
        large_max_slabs: ((capacity * 3 / 8) / (512 << 10)).clamp(8, 1 << 16) as u32,
        huge_capacity: (capacity / 4).max(64 << 20),
        huge_regions: 256,
        huge_descs_per_thread: 512,
        hazards_per_thread: 64,
        max_segment_bytes: 256 << 30,
    }
}

/// Builds a pod for cxlalloc sized to `capacity` total data bytes (half
/// small, 3/8 large, plus huge address space), optionally over a
/// simulated-coherence backend.
pub fn cxlalloc_pod(capacity: u64, max_threads: u32, mode: Option<HwccMode>) -> Pod {
    let config = pod_config(capacity, max_threads);
    match mode {
        None => Pod::new(config).expect("pod"),
        Some(mode) => Pod::with_simulation(config, mode).expect("pod"),
    }
}

/// Like [`cxlalloc_pod`], on a simulated pod whose memory traffic
/// crosses a contended fabric: every line fill, writeback, and NMP op
/// is additionally charged queueing + service delay by the
/// `cxl_pod::fabric` model (the congested host-scaling sweep).
pub fn cxlalloc_pod_fabric(
    capacity: u64,
    max_threads: u32,
    mode: HwccMode,
    fabric: cxl_pod::FabricConfig,
) -> Pod {
    Pod::with_simulation_fabric(pod_config(capacity, max_threads), mode, fabric).expect("pod")
}

/// Builds a simulated-coherence pod for the Figure 12 experiments.
/// `local_dram` swaps the CXL latencies for local-DRAM ones (the plain
/// `cxlalloc` / `ralloc` series).
pub fn cxlalloc_pod_with_mode(
    capacity: u64,
    max_threads: u32,
    mode: HwccMode,
    local_dram: bool,
) -> Pod {
    use cxl_pod::latency::LatencyModel;
    use cxl_pod::{Layout, Segment, SimMemory};
    use std::sync::Arc as StdArc;

    let config = pod_config(capacity, max_threads);
    let mut model = LatencyModel::paper_calibrated();
    if local_dram {
        // Local DRAM: misses and device ops at DRAM latency, cheap
        // flushes.
        model.cxl_load_ns = model.local_load_ns;
        model.uncached_op_ns = model.local_load_ns;
        model.flush_ns = 60;
        model.cas_base_ns = 90;
        model.line_transfer_ns = 70;
    }
    let layout = Layout::compute(&config).expect("layout");
    let segment = StdArc::new(Segment::zeroed(layout.total_len).expect("segment"));
    let memory: StdArc<dyn cxl_pod::PodMemory> = StdArc::new(SimMemory::new(
        segment,
        layout,
        mode,
        config.max_threads,
        model,
    ));
    Pod::from_memory(config, memory)
}

/// Builds a pod for the huge-allocation experiments: a large huge-heap
/// address space (1 GiB objects), tiny slab heaps.
pub fn huge_pod(huge_capacity: u64, max_threads: u32) -> Pod {
    let config = PodConfig {
        max_threads: max_threads.max(8),
        small_max_slabs: 64,
        large_max_slabs: 8,
        huge_capacity,
        huge_regions: 1024,
        huge_descs_per_thread: 256,
        hazards_per_thread: 128,
        max_segment_bytes: 1 << 40,
    };
    Pod::new(config).expect("huge pod")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_builds_and_allocates() {
        for kind in AllocatorKind::all() {
            let alloc = kind.build(256 << 20, 2, 8);
            let mut t = alloc.thread().unwrap();
            let p = t.alloc(64).unwrap();
            t.dealloc(p).unwrap();
            assert_eq!(alloc.props().name, kind.name());
        }
    }

    #[test]
    fn pod_scales_with_capacity() {
        let small = cxlalloc_pod(64 << 20, 8, None);
        let big = cxlalloc_pod(1 << 30, 8, None);
        assert!(big.config().small_max_slabs > small.config().small_max_slabs);
    }
}
