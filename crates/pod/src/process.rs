//! Simulated processes and memory mappings.
//!
//! Cross-process sharing is the second of the paper's three challenges:
//! a memory mapping created in one process is invisible to the others, so
//! a pointer handed across processes may fault when dereferenced (PC-T,
//! paper §1 and §3.3). The paper solves this with a SIGSEGV handler that
//! consults heap metadata and installs the missing mapping asynchronously.
//!
//! Here a [`Process`] keeps a private view of which parts of the shared
//! segment it has "mapped". [`Process::resolve`] is the dereference
//! point. With an MMU a dereference of a mapped address costs nothing
//! and only the miss reaches the signal handler; the substitute keeps
//! that shape:
//!
//! * **Hit** — the range lies below a slab heap's mapped end: two
//!   compares and an add ([`Process::resolve_hit`]). No virtual call,
//!   no division, no lock.
//! * **Miss** — everything else: huge ranges and metadata are looked up
//!   in their tables, and an unmapped range raises a [`Fault`] that is
//!   routed to the installed [`FaultHandler`] — the allocator's signal
//!   handler equivalent — which may install the mapping; the access is
//!   then retried once.
//!
//! Mapping tables mirror the allocator's two mapping disciplines:
//!
//! * The small and large heaps only ever *extend* (monotonic heap
//!   length, §3.3.1), so each process tracks one mapped **watermark**
//!   per heap: the byte offset up to which every slab mapping has been
//!   installed.
//! * Huge allocations are backed by individual mappings that come and go,
//!   tracked in a [`MapSet`] of ranges.

use crate::error::Fault;
use crate::layout::{HeapLayout, Region};
use crate::mem::{PodMemory, RawMemory};
use crate::segment::{Segment, Span};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifier of a simulated process within its pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(pub u32);

impl std::fmt::Display for ProcessId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "process{}", self.0)
    }
}

/// The signal-handler equivalent: inspects a fault and returns `true` if
/// it installed a mapping (so the access should be retried), `false` to
/// deliver the fault to the "application" (an `Err` from `resolve`).
/// The faulting range `[offset, offset + max(len, 1))` never wraps the
/// address space: such a range is delivered without consulting the
/// handler.
pub type FaultHandler = dyn Fn(&Process, Fault) -> bool + Send + Sync;

/// An ordered set of disjoint, half-open byte ranges.
///
/// Used for a process's huge-heap mappings. Adjacent and overlapping
/// inserts coalesce; removals may split ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MapSet {
    /// start -> end
    ranges: BTreeMap<u64, u64>,
}

impl MapSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of disjoint ranges.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Total bytes covered.
    pub fn covered_bytes(&self) -> u64 {
        self.ranges.iter().map(|(s, e)| e - s).sum()
    }

    /// Inserts `[start, end)`, coalescing with neighbours.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn insert(&mut self, start: u64, end: u64) {
        assert!(start < end, "empty or inverted range [{start}, {end})");
        let mut new_start = start;
        let mut new_end = end;
        // Absorb any range that overlaps or abuts [start, end).
        let overlapping: Vec<u64> = self
            .ranges
            .range(..=end)
            .filter(|&(&s, &e)| e >= start && s <= end)
            .map(|(&s, _)| s)
            .collect();
        for s in overlapping {
            let e = self.ranges.remove(&s).expect("key just observed");
            new_start = new_start.min(s);
            new_end = new_end.max(e);
        }
        self.ranges.insert(new_start, new_end);
    }

    /// Removes `[start, end)`, splitting ranges as needed.
    pub fn remove(&mut self, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let affected: Vec<(u64, u64)> = self
            .ranges
            .range(..end)
            .filter(|&(&s, &e)| e > start && s < end)
            .map(|(&s, &e)| (s, e))
            .collect();
        for (s, e) in affected {
            self.ranges.remove(&s);
            if s < start {
                self.ranges.insert(s, start);
            }
            if e > end {
                self.ranges.insert(end, e);
            }
        }
    }

    /// Whether `[start, start+len)` is fully covered.
    pub fn contains(&self, start: u64, len: u64) -> bool {
        let end = start + len.max(1);
        match self.ranges.range(..=start).next_back() {
            Some((_, &e)) => e >= end,
            None => false,
        }
    }

    /// Iterates over the disjoint ranges as `(start, end)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ranges.iter().map(|(&s, &e)| (s, e))
    }
}

/// One slab heap's mapped prefix: the bytes `[start, mapped_end)` of
/// its data region. Slab mappings are only ever added, in order, so one
/// monotonic byte offset says everything a per-slab table would.
struct HeapWindow {
    /// First byte of the heap's data region.
    start: u64,
    /// One past the last byte of the data region; `mapped_end` never
    /// exceeds it.
    limit: u64,
    slab_size: u64,
    /// `start + mapped slabs * slab_size`, clamped to `limit`.
    mapped_end: AtomicU64,
}

impl HeapWindow {
    fn new(heap: &HeapLayout) -> Self {
        HeapWindow {
            start: heap.data.start,
            limit: heap.data.end(),
            slab_size: heap.slab_size,
            mapped_end: AtomicU64::new(heap.data.start),
        }
    }

    /// Whether `[offset, end)` lies inside the mapped prefix.
    #[inline]
    fn covers(&self, offset: u64, end: u64) -> bool {
        offset >= self.start && end <= self.mapped_end.load(Ordering::Acquire)
    }

    fn mapped_slabs(&self) -> u64 {
        (self.mapped_end.load(Ordering::Acquire) - self.start) / self.slab_size
    }

    /// Raises the mapped end to cover `slabs` slabs; returns whether it
    /// moved.
    fn map_upto(&self, slabs: u64) -> bool {
        let end = slabs
            .checked_mul(self.slab_size)
            .and_then(|bytes| self.start.checked_add(bytes))
            .map_or(self.limit, |end| end.min(self.limit));
        self.mapped_end.fetch_max(end, Ordering::AcqRel) < end
    }
}

/// A simulated process: a private mapping view over the pod's shared
/// segment.
pub struct Process {
    id: ProcessId,
    memory: Arc<dyn PodMemory>,
    /// `memory` by its concrete type when the pod is a raw one.
    raw: Option<Arc<RawMemory>>,
    /// Keeps `span` valid for as long as the process exists.
    segment: Arc<Segment>,
    /// The segment's base, cached so a hit does not go through
    /// `dyn PodMemory`.
    span: Span,
    small: HeapWindow,
    large: HeapWindow,
    /// Huge-heap mapped ranges (data offsets).
    huge_maps: RwLock<MapSet>,
    handler: RwLock<Option<Arc<FaultHandler>>>,
    faults: AtomicU64,
    maps_installed: AtomicU64,
    maps_removed: AtomicU64,
}

impl std::fmt::Debug for Process {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Process")
            .field("id", &self.id)
            .field("small_mapped", &self.small_mapped())
            .field("large_mapped", &self.large_mapped())
            .field("huge_ranges", &self.huge_maps.read().len())
            .finish()
    }
}

impl Process {
    pub(crate) fn new(
        id: ProcessId,
        memory: Arc<dyn PodMemory>,
        raw: Option<Arc<RawMemory>>,
    ) -> Self {
        let segment = memory.segment().clone();
        let layout = memory.layout();
        // `resolve_hit` hands out `base + offset` for any range below a
        // heap's `limit` without asking the segment again.
        assert!(
            layout.small.data.end() <= segment.len() && layout.large.data.end() <= segment.len(),
            "slab heaps extend past the {}-byte segment",
            segment.len()
        );
        let span = segment.span();
        let small = HeapWindow::new(&layout.small);
        let large = HeapWindow::new(&layout.large);
        Process {
            id,
            memory,
            raw,
            segment,
            span,
            small,
            large,
            huge_maps: RwLock::new(MapSet::new()),
            handler: RwLock::new(None),
            faults: AtomicU64::new(0),
            maps_installed: AtomicU64::new(0),
            maps_removed: AtomicU64::new(0),
        }
    }

    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// The pod memory this process is attached to.
    pub fn memory(&self) -> &Arc<dyn PodMemory> {
        &self.memory
    }

    /// The same memory as [`Process::memory`], statically typed, when the
    /// pod runs on [`RawMemory`]; `None` on simulated pods and custom
    /// backends ([`Pod::from_memory`](crate::Pod::from_memory)). Code
    /// generic over the backend picks its instantiation from this once
    /// per call, so that on a raw pod every metadata access below the
    /// call is an inlined load or store rather than a virtual call.
    #[inline]
    pub fn raw_memory(&self) -> Option<&RawMemory> {
        self.raw.as_deref()
    }

    /// Installs the fault handler (the allocator's "signal handler").
    /// Replaces any previous handler.
    pub fn set_fault_handler(&self, handler: Arc<FaultHandler>) {
        *self.handler.write() = Some(handler);
    }

    /// Number of faults taken so far.
    pub fn fault_count(&self) -> u64 {
        self.faults.load(Ordering::Relaxed)
    }

    /// Number of mappings installed so far.
    pub fn maps_installed(&self) -> u64 {
        self.maps_installed.load(Ordering::Relaxed)
    }

    /// Number of mappings removed so far.
    pub fn maps_removed(&self) -> u64 {
        self.maps_removed.load(Ordering::Relaxed)
    }

    // ---- mapping installation (called by the fault handler / allocator) ----

    /// Raises this process's small-heap mapped watermark to at least
    /// `slabs` slabs (idempotent; watermarks only grow, matching the
    /// monotonic heap extension of §3.3.1). Counts past the heap's
    /// capacity map the whole data region.
    pub fn map_small_upto(&self, slabs: u64) {
        self.bump(&self.small, slabs);
    }

    /// Raises the large-heap watermark to at least `slabs` slabs.
    pub fn map_large_upto(&self, slabs: u64) {
        self.bump(&self.large, slabs);
    }

    fn bump(&self, heap: &HeapWindow, slabs: u64) {
        if heap.map_upto(slabs) {
            self.maps_installed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Currently mapped small-heap slabs.
    pub fn small_mapped(&self) -> u64 {
        self.small.mapped_slabs()
    }

    /// Currently mapped large-heap slabs.
    pub fn large_mapped(&self) -> u64 {
        self.large.mapped_slabs()
    }

    /// Installs a huge-heap mapping covering `[offset, offset+len)` (data
    /// offsets).
    pub fn map_huge(&self, offset: u64, len: u64) {
        self.huge_maps.write().insert(offset, offset + len);
        self.maps_installed.fetch_add(1, Ordering::Relaxed);
    }

    /// Removes a huge-heap mapping (the local equivalent of `munmap`).
    pub fn unmap_huge(&self, offset: u64, len: u64) {
        self.huge_maps.write().remove(offset, offset + len);
        self.maps_removed.fetch_add(1, Ordering::Relaxed);
    }

    /// Whether `[offset, offset+len)` is mapped in this process's
    /// huge-heap view.
    pub fn huge_is_mapped(&self, offset: u64, len: u64) -> bool {
        self.huge_maps.read().contains(offset, len)
    }

    // ---- dereference -----------------------------------------------------

    /// Checks whether `[offset, offset+len)` is mapped, without taking a
    /// fault. An empty range is judged as its first byte; a range that
    /// wraps the address space is never mapped.
    pub fn is_mapped(&self, offset: u64, len: u64) -> bool {
        let Some(end) = offset.checked_add(len.max(1)) else {
            return false;
        };
        if self.below_watermark(offset, end) {
            return true;
        }
        let layout = self.memory.layout();
        if layout.huge.data.contains(offset) {
            return self.huge_is_mapped(offset, len);
        }
        // The HWcc region and the recovery logs are always mapped
        // (established at attach time, before any data access; see
        // DESIGN.md fidelity notes).
        let inside = |region: Region| offset >= region.start && end <= region.end();
        inside(layout.hwcc) || inside(layout.log)
    }

    /// Whether `[offset, end)` lies in the mapped prefix of a slab heap.
    #[inline]
    fn below_watermark(&self, offset: u64, end: u64) -> bool {
        self.small.covers(offset, end) || self.large.covers(offset, end)
    }

    /// The hit path of a dereference: translates `[offset, offset+len)`
    /// if it lies below the small or large heap's mapped watermark.
    /// `None` means "take the miss path" ([`Process::resolve`]), not
    /// "unmapped": huge ranges and metadata are never answered here.
    #[inline]
    pub fn resolve_hit(&self, offset: u64, len: u64) -> Option<*mut u8> {
        let end = offset.checked_add(len.max(1))?;
        if self.below_watermark(offset, end) {
            // SAFETY: `end <= mapped_end <= limit <= segment.len()` (the
            // last step asserted in `new`), so `base + offset` stays
            // inside the arena `self.segment` keeps alive.
            return Some(unsafe { self.span.base().add(offset as usize) });
        }
        None
    }

    /// Resolves a data offset to a raw pointer, taking the fault path if
    /// the offset is unmapped in this process.
    ///
    /// This is the moral equivalent of dereferencing a pointer: on an
    /// unmapped access the fault handler (if any) gets a chance to
    /// install the mapping and the access retries, exactly like the
    /// paper's SIGSEGV handler re-issuing the faulting instruction.
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] if no handler is installed, the handler
    /// declines (a genuine wild pointer), or the range is still not
    /// fully mapped after the handler ran.
    #[inline]
    pub fn resolve(self: &Arc<Self>, offset: u64, len: u64) -> Result<*mut u8, Fault> {
        match self.resolve_hit(offset, len) {
            Some(raw) => Ok(raw),
            None => self.resolve_miss(offset, len),
        }
    }

    #[cold]
    fn resolve_miss(&self, offset: u64, len: u64) -> Result<*mut u8, Fault> {
        if self.is_mapped(offset, len) {
            return Ok(self.segment.data_ptr(offset, len));
        }
        self.faults.fetch_add(1, Ordering::Relaxed);
        let fault = Fault {
            offset,
            len,
            process: self.id,
        };
        if offset.checked_add(len.max(1)).is_none() {
            // No mapping can cover a range that wraps the address space.
            return Err(fault);
        }
        // One fault, one handler run, one retry: a handler that claims
        // success without covering the whole range (say it judged only
        // the first byte of a range that passes the heap's end) must
        // not make the access spin.
        let handler = self.handler.read().clone();
        match handler {
            Some(h) if h(self, fault) && self.is_mapped(offset, len) => {
                Ok(self.segment.data_ptr(offset, len))
            }
            _ => Err(fault),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Pod, PodConfig};

    #[test]
    fn mapset_insert_coalesces() {
        let mut set = MapSet::new();
        set.insert(0, 10);
        set.insert(10, 20);
        assert_eq!(set.len(), 1);
        assert!(set.contains(0, 20));
        set.insert(30, 40);
        assert_eq!(set.len(), 2);
        set.insert(15, 35);
        assert_eq!(set.len(), 1);
        assert!(set.contains(0, 40));
        assert_eq!(set.covered_bytes(), 40);
    }

    #[test]
    fn mapset_remove_splits() {
        let mut set = MapSet::new();
        set.insert(0, 100);
        set.remove(40, 60);
        assert_eq!(set.len(), 2);
        assert!(set.contains(0, 40));
        assert!(set.contains(60, 40));
        assert!(!set.contains(30, 20));
        assert_eq!(set.covered_bytes(), 80);
    }

    #[test]
    fn mapset_remove_edges() {
        let mut set = MapSet::new();
        set.insert(10, 20);
        set.remove(0, 15);
        assert!(set.contains(15, 5));
        assert!(!set.contains(10, 1));
        set.remove(15, 20);
        assert!(set.is_empty());
    }

    #[test]
    fn watermark_mapping() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let data = pod.layout().small.data.start;
        assert!(!process.is_mapped(data, 8));
        process.map_small_upto(1);
        assert!(process.is_mapped(data, 8));
        assert!(!process.is_mapped(data + pod.layout().small.slab_size, 8));
        // Watermarks are monotonic.
        process.map_small_upto(0);
        assert_eq!(process.small_mapped(), 1);
    }

    #[test]
    fn fault_handler_installs_and_retries() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let data = pod.layout().small.data.start;
        // Without a handler: fault surfaces.
        assert!(process.resolve(data, 8).is_err());
        assert_eq!(process.fault_count(), 1);
        // With a handler that extends the watermark: access succeeds.
        process.set_fault_handler(Arc::new(|p: &Process, fault: Fault| {
            let layout = p.memory().layout();
            if layout.small.slab_of(fault.offset).is_some() {
                p.map_small_upto(1);
                true
            } else {
                false
            }
        }));
        assert!(process.resolve(data, 8).is_ok());
        assert_eq!(process.fault_count(), 2);
        // Subsequent accesses do not fault.
        assert!(process.resolve(data, 8).is_ok());
        assert_eq!(process.fault_count(), 2);
    }

    #[test]
    fn is_mapped_edge_cases() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let layout = pod.layout();
        let small = &layout.small;
        process.map_small_upto(1);
        let mapped_end = small.data.start + small.slab_size;
        // An empty range is judged as its first byte: the byte at the
        // watermark is unmapped, the one before it is not.
        assert!(process.is_mapped(small.data.start, 0));
        assert!(process.is_mapped(mapped_end - 1, 0));
        assert!(!process.is_mapped(mapped_end, 0));
        assert!(process.is_mapped(0, 0));
        // A range must end below the watermark, not merely start there.
        assert!(process.is_mapped(mapped_end - 8, 8));
        assert!(!process.is_mapped(mapped_end - 8, 9));
        // Ranges that wrap the address space are unmapped, not a panic.
        assert!(!process.is_mapped(small.data.start, u64::MAX));
        assert!(!process.is_mapped(u64::MAX, 0));
        assert!(!process.is_mapped(u64::MAX - 3, 8));
        // Of the metadata only the HWcc region and the logs are mapped:
        // not what lies between them, nor a range leaving either.
        assert!(process.is_mapped(layout.hwcc.start, layout.hwcc.len));
        assert!(!process.is_mapped(layout.hwcc.end() - 4, 8));
        assert!(!process.is_mapped(small.local.start, 8));
        assert!(process.is_mapped(layout.log.start, layout.log.len));
        assert!(!process.is_mapped(layout.log.start - 8, 16));
        assert!(!process.is_mapped(layout.log.end() - 4, 8));
        assert!(!process.is_mapped(layout.remote_buf.start, 8));
        // Counts past the heap's capacity map all of it and no more.
        process.map_small_upto(u64::MAX);
        assert_eq!(process.small_mapped(), small.max_slabs as u64);
        assert!(process.is_mapped(small.data.start, small.data.len));
        assert!(!process.is_mapped(small.data.end() - 1, 2));
    }

    #[test]
    fn uncovered_fault_is_delivered_not_retried_forever() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let small = pod.layout().small.clone();
        // A handler that judges the first byte only and claims success.
        let calls = Arc::new(AtomicU64::new(0));
        let seen = calls.clone();
        process.set_fault_handler(Arc::new(move |p: &Process, _| {
            seen.fetch_add(1, Ordering::Relaxed);
            p.map_small_upto(1);
            true
        }));
        // First byte in slab 0, last byte in slab 1.
        let straddling = small.data.start + small.slab_size - 8;
        let err = process.resolve(straddling, 16).unwrap_err();
        assert_eq!((err.offset, err.len), (straddling, 16));
        assert_eq!(process.fault_count(), 1);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
        // The part the handler did map resolves without a fault.
        assert!(process.resolve(straddling, 8).is_ok());
        assert_eq!(process.fault_count(), 1);
        // A range that wraps the address space is a fault the handler
        // never sees.
        assert!(process.resolve(straddling, u64::MAX).is_err());
        assert!(process.resolve(u64::MAX, 0).is_err());
        assert_eq!(process.fault_count(), 3);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn hit_path_answers_only_for_mapped_slab_ranges() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let layout = pod.layout();
        let base = pod.memory().segment().data_ptr(0, 0);
        process.map_large_upto(2);
        let large = &layout.large;
        let offset = large.data.start + large.slab_size + 40;
        assert_eq!(process.resolve_hit(offset, 64), Some(base.wrapping_add(offset as usize)));
        assert_eq!(process.resolve_hit(large.data.start + 2 * large.slab_size, 1), None);
        assert_eq!(process.resolve_hit(layout.small.data.start, 8), None);
        // Mapped huge ranges and metadata take the miss path, which
        // finds them without a fault.
        process.map_huge(layout.huge.data.start, 4096);
        assert_eq!(process.resolve_hit(layout.huge.data.start, 8), None);
        assert_eq!(process.resolve_hit(layout.log.start, 8), None);
        assert!(process.resolve(layout.huge.data.start, 8).is_ok());
        assert!(process.resolve(layout.log.start, 8).is_ok());
        assert_eq!(process.fault_count(), 0);
    }

    #[test]
    fn huge_mapping_lifecycle() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        let base = pod.layout().huge.data.start;
        process.map_huge(base, 4096);
        assert!(process.resolve(base, 4096).is_ok());
        process.unmap_huge(base, 4096);
        assert!(process.resolve(base, 8).is_err());
        assert_eq!(process.maps_installed(), 1);
        assert_eq!(process.maps_removed(), 1);
    }

    #[test]
    fn wild_pointer_faults() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let process = pod.spawn_process();
        process.set_fault_handler(Arc::new(|_: &Process, _| false));
        let wild = pod.layout().huge.data.start + 12345;
        let err = process.resolve(wild, 8).unwrap_err();
        assert_eq!(err.offset, wild);
        assert_eq!(err.process, process.id());
    }
}
