//! A detectably recoverable lock-free hash map.
//!
//! Fixed bucket array in pod memory; each bucket is a lock-free push
//! stack of nodes with tagged heads. Removal is *logical* (a CAS on the
//! node's state word claims it); claimed nodes are retired by the
//! claiming worker, then unlinked and physically freed at phase
//! boundaries ([`MapWorker::flush_removed`]) — the phased insert/remove shape of
//! the Figure 7 experiment. Insertion uses the same memento protocol as
//! the queue: the node pointer's destination cell is registered with
//! the allocator ([`alloc_detectable`]), so a crash between allocation
//! and linking can be rolled back without leaking.
//!
//! Control block layout:
//!
//! ```text
//! word 0:                 bucket count
//! words 1..1+MAX_SLOTS:   memento cells
//! then:                   bucket heads (tagged: offset<<16 | tag)
//! ```
//!
//! Node layout: `[next tagged | key | state | payload…]`, state 0 = live,
//! 1 = removed.
//!
//! [`alloc_detectable`]: baselines::PodAllocThread::alloc_detectable

use crate::{alloc_control, cell, MAX_SLOTS};
use baselines::{BenchError, PodAllocThread};
use cxl_core::OffsetPtr;
use std::collections::HashSet;
use std::sync::atomic::Ordering;

const NODE_HEADER: u64 = 24;

#[inline]
fn pack(offset: u64, tag: u64) -> u64 {
    offset << 16 | (tag & 0xFFFF)
}

#[inline]
fn unpack(raw: u64) -> (u64, u64) {
    (raw >> 16, raw & 0xFFFF)
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A shared recoverable hash map handle (plain data).
#[derive(Debug, Clone, Copy)]
pub struct RecoverableMap {
    control: OffsetPtr,
    buckets: u64,
}

/// Per-worker state: the retire list of logically removed nodes.
#[derive(Debug, Default)]
pub struct MapWorker {
    /// `(bucket cell, node)` per removed node.
    removed: Vec<(OffsetPtr, OffsetPtr)>,
}

impl MapWorker {
    /// Creates an empty worker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unlinks every node this worker removed from its bucket, then
    /// physically frees it. Call at a phase boundary: no thread may walk
    /// the map meanwhile (`contains`, `remove`, `len`,
    /// `collect_allocations`), and no other worker may flush
    /// concurrently. Racing inserts are safe: they only CAS bucket heads,
    /// and so does unlinking a head.
    pub fn flush_removed(&mut self, alloc: &mut dyn PodAllocThread) -> usize {
        let mut removed = std::mem::take(&mut self.removed);
        removed.sort_unstable_by_key(|&(bucket, _)| bucket.offset());
        for group in removed.chunk_by(|a, b| a.0 == b.0) {
            let doomed: HashSet<u64> = group.iter().map(|&(_, node)| node.offset()).collect();
            unlink_all(alloc, group[0].0, &doomed);
        }
        for &(_, node) in &removed {
            let _ = alloc.dealloc(node);
        }
        alloc.maintain();
        removed.len()
    }

    /// Nodes pending physical free.
    pub fn pending(&self) -> usize {
        self.removed.len()
    }
}

/// Splices every node in `doomed` out of the chain at `bucket`, in one
/// walk. Doomed heads are popped with a CAS, retried when a racing
/// insert wins; an insert only pushes a fresh node, so once the head is
/// kept it stays in the chain, and the interior — whose `next` words
/// only the flusher writes — is spliced with plain stores.
fn unlink_all(alloc: &mut dyn PodAllocThread, bucket: OffsetPtr, doomed: &HashSet<u64>) {
    let mut prev = loop {
        let head_raw = cell(alloc, bucket).load(Ordering::Acquire);
        let (head, tag) = unpack(head_raw);
        let Some(node) = OffsetPtr::new(head) else {
            return;
        };
        if !doomed.contains(&head) {
            break node;
        }
        let next = unpack(cell(alloc, node).load(Ordering::Acquire)).0;
        let _ = cell(alloc, bucket).compare_exchange(
            head_raw,
            pack(next, tag + 1),
            Ordering::AcqRel,
            Ordering::Acquire,
        );
    };
    loop {
        let (next, _) = unpack(cell(alloc, prev).load(Ordering::Acquire));
        let Some(node) = OffsetPtr::new(next) else {
            return;
        };
        if doomed.contains(&next) {
            let after = unpack(cell(alloc, node).load(Ordering::Acquire)).0;
            cell(alloc, prev).store(pack(after, 0), Ordering::Release);
        } else {
            prev = node;
        }
    }
}

impl RecoverableMap {
    /// Creates a map with `buckets` buckets.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    pub fn create(alloc: &mut dyn PodAllocThread, buckets: u64) -> Result<Self, BenchError> {
        assert!(buckets > 0);
        let control = alloc_control(alloc, 1 + MAX_SLOTS as u64 + buckets)?;
        let map = RecoverableMap {
            control,
            buckets,
        };
        cell(alloc, control).store(buckets, Ordering::SeqCst);
        Ok(map)
    }

    /// Re-derives a handle from a control pointer (another process).
    pub fn open(alloc: &mut dyn PodAllocThread, control: OffsetPtr) -> Self {
        let buckets = cell(alloc, control).load(Ordering::SeqCst);
        RecoverableMap {
            control,
            buckets,
        }
    }

    /// The control-block pointer (shareable across processes).
    pub fn control(&self) -> OffsetPtr {
        self.control
    }

    /// Worker `slot`'s memento cell.
    pub fn memento_cell(&self, slot: u32) -> OffsetPtr {
        assert!(slot < MAX_SLOTS);
        self.control.wrapping_add(8 + slot as u64 * 8)
    }

    /// Bucket `b`'s head cell.
    fn bucket_at(&self, b: u64) -> OffsetPtr {
        self.control.wrapping_add(8 + MAX_SLOTS as u64 * 8 + b * 8)
    }

    fn bucket_cell(&self, key: u64) -> OffsetPtr {
        self.bucket_at(splitmix(key) % self.buckets)
    }

    /// Inserts `key` with `payload` extra bytes via worker `slot`'s
    /// memento. Duplicate keys shadow older ones.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    pub fn insert(
        &self,
        alloc: &mut dyn PodAllocThread,
        slot: u32,
        key: u64,
        payload: usize,
    ) -> Result<(), BenchError> {
        let memento = self.memento_cell(slot);
        let node = alloc.alloc_detectable((NODE_HEADER as usize) + payload, memento)?;
        cell(alloc, node).store(pack(0, 0), Ordering::Relaxed);
        cell(alloc, node.wrapping_add(8)).store(key, Ordering::Relaxed);
        cell(alloc, node.wrapping_add(16)).store(0, Ordering::Relaxed);
        cell(alloc, memento).store(node.offset(), Ordering::SeqCst);
        self.link(alloc, node, key);
        cell(alloc, memento).store(0, Ordering::SeqCst);
        Ok(())
    }

    fn link(&self, alloc: &mut dyn PodAllocThread, node: OffsetPtr, key: u64) {
        let bucket = self.bucket_cell(key);
        loop {
            let head_raw = cell(alloc, bucket).load(Ordering::Acquire);
            let (head_off, tag) = unpack(head_raw);
            cell(alloc, node).store(pack(head_off, 0), Ordering::Relaxed);
            if cell(alloc, bucket)
                .compare_exchange(
                    head_raw,
                    pack(node.offset(), tag + 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                return;
            }
        }
    }

    /// Looks up `key`; returns whether a live entry exists.
    pub fn contains(&self, alloc: &mut dyn PodAllocThread, key: u64) -> bool {
        let bucket = self.bucket_cell(key);
        let (mut cursor, _) = unpack(cell(alloc, bucket).load(Ordering::Acquire));
        while let Some(ptr) = OffsetPtr::new(cursor) {
            let node_key = cell(alloc, ptr.wrapping_add(8)).load(Ordering::Relaxed);
            let state = cell(alloc, ptr.wrapping_add(16)).load(Ordering::Acquire);
            if node_key == key && state == 0 {
                return true;
            }
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        false
    }

    /// Logically removes one live entry for `key`; the node is retired
    /// into `worker` for physical freeing at the next phase boundary.
    pub fn remove(
        &self,
        alloc: &mut dyn PodAllocThread,
        worker: &mut MapWorker,
        key: u64,
    ) -> bool {
        let bucket = self.bucket_cell(key);
        let (mut cursor, _) = unpack(cell(alloc, bucket).load(Ordering::Acquire));
        while let Some(ptr) = OffsetPtr::new(cursor) {
            let node_key = cell(alloc, ptr.wrapping_add(8)).load(Ordering::Relaxed);
            if node_key == key
                && cell(alloc, ptr.wrapping_add(16))
                    .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
            {
                worker.removed.push((bucket, ptr));
                return true;
            }
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        false
    }

    /// Whether `node` is linked in the bucket its key maps to.
    fn node_is_linked(&self, alloc: &mut dyn PodAllocThread, node: OffsetPtr) -> bool {
        let key = cell(alloc, node.wrapping_add(8)).load(Ordering::Relaxed);
        let bucket = self.bucket_cell(key);
        let (mut cursor, _) = unpack(cell(alloc, bucket).load(Ordering::Acquire));
        while let Some(ptr) = OffsetPtr::new(cursor) {
            if ptr == node {
                return true;
            }
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        false
    }

    /// Structure-level recovery for worker `slot` (see the crate docs).
    pub fn recover_slot(&self, alloc: &mut dyn PodAllocThread, slot: u32) -> &'static str {
        let memento = self.memento_cell(slot);
        let pending = cell(alloc, memento).load(Ordering::SeqCst);
        let Some(node) = OffsetPtr::new(pending) else {
            return "idle";
        };
        let outcome = if self.node_is_linked(alloc, node) {
            "completed"
        } else {
            let _ = alloc.dealloc(node);
            "rolled back"
        };
        cell(alloc, memento).store(0, Ordering::SeqCst);
        outcome
    }

    /// Collects every heap allocation reachable from this map — the
    /// control block and all linked nodes, live or logically removed
    /// (the live set a stop-the-world GC must preserve).
    pub fn collect_allocations(&self, alloc: &mut dyn PodAllocThread) -> Vec<OffsetPtr> {
        let mut out = vec![self.control];
        for b in 0..self.buckets {
            let (mut cursor, _) = unpack(cell(alloc, self.bucket_at(b)).load(Ordering::Acquire));
            while let Some(ptr) = OffsetPtr::new(cursor) {
                out.push(ptr);
                cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
            }
        }
        out
    }

    /// Live entries (O(n); diagnostics).
    pub fn len(&self, alloc: &mut dyn PodAllocThread) -> u64 {
        let mut count = 0;
        for b in 0..self.buckets {
            let (mut cursor, _) = unpack(cell(alloc, self.bucket_at(b)).load(Ordering::Acquire));
            while let Some(ptr) = OffsetPtr::new(cursor) {
                if cell(alloc, ptr.wrapping_add(16)).load(Ordering::Relaxed) == 0 {
                    count += 1;
                }
                cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
            }
        }
        count
    }

    /// Whether no live entries exist.
    pub fn is_empty(&self, alloc: &mut dyn PodAllocThread) -> bool {
        self.len(alloc) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{CxlallocAdapter, PodAlloc};
    use cxl_pod::{Pod, PodConfig};

    fn adapter() -> CxlallocAdapter {
        let pod = Pod::new(PodConfig {
            small_max_slabs: 2048,
            ..PodConfig::small_for_tests()
        })
        .unwrap();
        CxlallocAdapter::new(pod, 1, cxl_core::AttachOptions::default())
    }

    #[test]
    fn insert_contains_remove() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let mut w = MapWorker::new();
        let map = RecoverableMap::create(t.as_mut(), 64).unwrap();
        assert!(!map.contains(t.as_mut(), 5));
        map.insert(t.as_mut(), 0, 5, 32).unwrap();
        assert!(map.contains(t.as_mut(), 5));
        assert!(map.remove(t.as_mut(), &mut w, 5));
        assert!(!map.contains(t.as_mut(), 5));
        assert!(!map.remove(t.as_mut(), &mut w, 5));
        assert_eq!(w.flush_removed(t.as_mut()), 1);
    }

    #[test]
    fn thousand_keys() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let mut w = MapWorker::new();
        let map = RecoverableMap::create(t.as_mut(), 128).unwrap();
        for key in 0..1000 {
            map.insert(t.as_mut(), 0, key, (key % 100) as usize).unwrap();
        }
        assert_eq!(map.len(t.as_mut()), 1000);
        for key in 0..1000 {
            assert!(map.contains(t.as_mut(), key), "key {key}");
        }
        for key in 0..1000 {
            assert!(map.remove(t.as_mut(), &mut w, key));
        }
        assert!(map.is_empty(t.as_mut()));
        assert_eq!(w.flush_removed(t.as_mut()), 1000);
    }

    #[test]
    fn memory_is_reclaimed_after_flush() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let mut w = MapWorker::new();
        let map = RecoverableMap::create(t.as_mut(), 64).unwrap();
        let mut after_first_round = 0;
        for round in 0..5 {
            for key in 0..500 {
                map.insert(t.as_mut(), 0, key, 64).unwrap();
            }
            for key in 0..500 {
                assert!(map.remove(t.as_mut(), &mut w, key));
            }
            w.flush_removed(t.as_mut());
            if round == 0 {
                after_first_round = alloc.memory_usage().data_bytes;
            }
        }
        // The heap high-water mark is set by round one (control block +
        // a couple of slabs); later rounds must reuse freed slabs rather
        // than extending the heap.
        let usage = alloc.memory_usage();
        assert_eq!(
            usage.data_bytes, after_first_round,
            "memory ballooned across rounds: {usage:?}"
        );
    }

    #[test]
    fn flushed_nodes_leave_their_chains() {
        // A flush used to free nodes still linked in their chains; the
        // second round's inserts reused those blocks, rewrote their `next`
        // and closed cycles, so `len` never returned.
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let mut w = MapWorker::new();
        let map = RecoverableMap::create(t.as_mut(), 64).unwrap();
        for key in 0..500 {
            map.insert(t.as_mut(), 0, key, 16).unwrap();
        }
        for key in 0..500 {
            assert!(map.remove(t.as_mut(), &mut w, key));
        }
        assert_eq!(w.flush_removed(t.as_mut()), 500);
        for key in 1000..1500 {
            map.insert(t.as_mut(), 0, key, 16).unwrap();
        }
        for b in 0..map.buckets {
            let (mut cursor, _) = unpack(cell(t.as_mut(), map.bucket_at(b)).load(Ordering::Acquire));
            let mut hops = 0;
            while let Some(ptr) = OffsetPtr::new(cursor) {
                hops += 1;
                assert!(hops <= 500, "bucket {b}'s chain has a cycle");
                cursor = unpack(cell(t.as_mut(), ptr).load(Ordering::Acquire)).0;
            }
        }
        assert_eq!(map.len(t.as_mut()), 500);
    }

    #[test]
    fn concurrent_inserts_then_removes() {
        let alloc = adapter();
        let mut t0 = alloc.thread().unwrap();
        let map = RecoverableMap::create(t0.as_mut(), 256).unwrap();
        std::thread::scope(|s| {
            for slot in 0..4u32 {
                let mut t = alloc.thread().unwrap();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        map.insert(t.as_mut(), slot, slot as u64 * 10_000 + i, 16)
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(map.len(t0.as_mut()), 4000);
        // Each worker flushes only after the join: a flush must not race
        // the other workers' walks.
        let workers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u32)
                .map(|slot| {
                    let mut t = alloc.thread().unwrap();
                    s.spawn(move || {
                        let mut w = MapWorker::new();
                        for i in 0..1000u64 {
                            assert!(map.remove(t.as_mut(), &mut w, slot as u64 * 10_000 + i));
                        }
                        (t, w)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(map.is_empty(t0.as_mut()));
        for (mut t, mut w) in workers {
            assert_eq!(w.flush_removed(t.as_mut()), 1000);
        }
        assert!(map.is_empty(t0.as_mut()));
        assert_eq!(map.collect_allocations(t0.as_mut()), vec![map.control()]);
    }

    #[test]
    fn recovery_decides_by_linkage() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let map = RecoverableMap::create(t.as_mut(), 64).unwrap();
        // Unlinked pending node → rolled back.
        let memento = map.memento_cell(3);
        let node = t.alloc_detectable(32, memento).unwrap();
        cell(t.as_mut(), node).store(0, Ordering::SeqCst);
        cell(t.as_mut(), node.wrapping_add(8)).store(77, Ordering::SeqCst);
        cell(t.as_mut(), memento).store(node.offset(), Ordering::SeqCst);
        assert_eq!(map.recover_slot(t.as_mut(), 3), "rolled back");
        assert!(!map.contains(t.as_mut(), 77));
        // Idle slot → noop.
        assert_eq!(map.recover_slot(t.as_mut(), 3), "idle");
    }
}
