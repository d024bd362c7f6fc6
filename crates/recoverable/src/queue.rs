//! A detectably recoverable lock-free queue (Michael–Scott over offset
//! pointers with tagged CAS).
//!
//! Layout of the control block (one allocation in pod memory):
//!
//! ```text
//! word 0: head (tagged: offset<<16 | tag)
//! word 1: tail (tagged)
//! words 2..2+MAX_SLOTS: per-slot memento cells (pending node pointers)
//! ```
//!
//! Node layout: `[next tagged | value | payload…]`. The queue starts
//! with a permanent dummy node, as in Michael–Scott.
//!
//! Tags (16 bits, incremented per swing) make pointer reuse safe even
//! though removed nodes are freed immediately — the same
//! version-embedding idea cxlalloc's detectable CAS uses.

use crate::{alloc_control, cell, MAX_SLOTS};
use baselines::{BenchError, PodAllocThread};
use cxl_core::OffsetPtr;
use std::sync::atomic::Ordering;

const NODE_HEADER: u64 = 16;

#[inline]
fn pack(offset: u64, tag: u64) -> u64 {
    debug_assert!(offset < 1 << 48);
    offset << 16 | (tag & 0xFFFF)
}

#[inline]
fn unpack(raw: u64) -> (u64, u64) {
    (raw >> 16, raw & 0xFFFF)
}

/// A shared recoverable queue handle (plain data; clone freely).
#[derive(Debug, Clone, Copy)]
pub struct RecoverableQueue {
    control: OffsetPtr,
}

impl RecoverableQueue {
    /// Creates a queue, allocating its control block and dummy node.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    pub fn create(alloc: &mut dyn PodAllocThread) -> Result<Self, BenchError> {
        let control = alloc_control(alloc, 2 + MAX_SLOTS as u64)?;
        let dummy = alloc.alloc(NODE_HEADER as usize)?;
        cell(alloc, dummy).store(pack(0, 0), Ordering::SeqCst);
        let queue = RecoverableQueue {
            control,
        };
        cell(alloc, queue.head_cell()).store(pack(dummy.offset(), 0), Ordering::SeqCst);
        cell(alloc, queue.tail_cell()).store(pack(dummy.offset(), 0), Ordering::SeqCst);
        Ok(queue)
    }

    fn head_cell(&self) -> OffsetPtr {
        self.control
    }

    fn tail_cell(&self) -> OffsetPtr {
        self.control.wrapping_add(8)
    }

    /// The memento cell for worker `slot` — registered with
    /// `alloc_detectable` so allocator recovery can tell whether the
    /// pointer escaped.
    pub fn memento_cell(&self, slot: u32) -> OffsetPtr {
        assert!(slot < MAX_SLOTS);
        self.control.wrapping_add(16 + slot as u64 * 8)
    }

    /// Enqueues a node carrying `value` plus `payload` extra bytes,
    /// using worker `slot`'s memento.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors.
    pub fn enqueue(
        &self,
        alloc: &mut dyn PodAllocThread,
        slot: u32,
        value: u64,
        payload: usize,
    ) -> Result<(), BenchError> {
        let memento = self.memento_cell(slot);
        let node = alloc.alloc_detectable((NODE_HEADER as usize) + payload, memento)?;
        // Initialize the node, then publish it in the memento (this is
        // the "I have this pointer" record recovery consults).
        cell(alloc, node).store(pack(0, 0), Ordering::Relaxed);
        cell(alloc, node.wrapping_add(8)).store(value, Ordering::Relaxed);
        cell(alloc, memento).store(node.offset(), Ordering::SeqCst);

        self.link(alloc, node);
        // Insert complete: clear the memento.
        cell(alloc, memento).store(0, Ordering::SeqCst);
        Ok(())
    }

    /// Links an initialized node at the tail (Michael–Scott).
    fn link(&self, alloc: &mut dyn PodAllocThread, node: OffsetPtr) {
        loop {
            let tail_raw = cell(alloc, self.tail_cell()).load(Ordering::Acquire);
            let (tail_off, tail_tag) = unpack(tail_raw);
            let tail_ptr = OffsetPtr::new(tail_off).expect("tail is never null");
            let next_raw = cell(alloc, tail_ptr).load(Ordering::Acquire);
            let (next_off, next_tag) = unpack(next_raw);
            if next_off == 0 {
                // Tail is the last node: try to link.
                if cell(alloc, tail_ptr)
                    .compare_exchange(
                        next_raw,
                        pack(node.offset(), next_tag + 1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    )
                    .is_ok()
                {
                    // Swing the tail (best effort).
                    let _ = cell(alloc, self.tail_cell()).compare_exchange(
                        tail_raw,
                        pack(node.offset(), tail_tag + 1),
                        Ordering::AcqRel,
                        Ordering::Acquire,
                    );
                    return;
                }
            } else {
                // Help swing the lagging tail.
                let _ = cell(alloc, self.tail_cell()).compare_exchange(
                    tail_raw,
                    pack(next_off, tail_tag + 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                );
            }
        }
    }

    /// Dequeues a value; the freed node returns to the allocator.
    pub fn dequeue(&self, alloc: &mut dyn PodAllocThread) -> Option<u64> {
        loop {
            let head_raw = cell(alloc, self.head_cell()).load(Ordering::Acquire);
            let (head_off, head_tag) = unpack(head_raw);
            let head_ptr = OffsetPtr::new(head_off).expect("head is never null");
            let next_raw = cell(alloc, head_ptr).load(Ordering::Acquire);
            let (next_off, _) = unpack(next_raw);
            let Some(next_ptr) = OffsetPtr::new(next_off) else {
                // A null `next` means empty only if `head_ptr` was still
                // the dummy when `next` was read. Dummies are freed the
                // moment they are dequeued, so a reader still holding an
                // old head may be looking at a node already reused as
                // the new tail, whose fresh `next` is null although the
                // queue is not empty. Re-validate the head (the
                // Michael–Scott consistency check) before saying so.
                if cell(alloc, self.head_cell()).load(Ordering::Acquire) != head_raw {
                    continue;
                }
                return None; // empty (only the dummy)
            };
            let value = cell(alloc, next_ptr.wrapping_add(8)).load(Ordering::Acquire);
            if cell(alloc, self.head_cell())
                .compare_exchange(
                    head_raw,
                    pack(next_off, head_tag + 1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                )
                .is_ok()
            {
                // The old dummy is ours to free; `next` becomes the new
                // dummy. The tag on head prevents ABA from this reuse.
                let _ = alloc.dealloc(head_ptr);
                return Some(value);
            }
        }
    }

    /// Whether `node` is reachable from the queue's head (bounded walk).
    pub fn contains_node(&self, alloc: &mut dyn PodAllocThread, node: OffsetPtr) -> bool {
        let (mut cursor, _) = unpack(cell(alloc, self.head_cell()).load(Ordering::Acquire));
        let mut hops = 0u64;
        while let Some(ptr) = OffsetPtr::new(cursor) {
            if ptr == node {
                return true;
            }
            hops += 1;
            if hops > 100_000_000 {
                panic!("queue walk did not terminate");
            }
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        false
    }

    /// Structure-level recovery for worker `slot` after a crash:
    /// completes or undoes an interrupted enqueue (the allocator has
    /// already decided the block's fate from the same memento cell).
    ///
    /// Returns a description of what was done.
    pub fn recover_slot(
        &self,
        alloc: &mut dyn PodAllocThread,
        slot: u32,
    ) -> &'static str {
        let memento = self.memento_cell(slot);
        let pending = cell(alloc, memento).load(Ordering::SeqCst);
        let Some(node) = OffsetPtr::new(pending) else {
            return "idle";
        };
        let outcome = if self.contains_node(alloc, node) {
            // The link CAS happened: the insert is complete.
            "completed"
        } else {
            // Never linked: roll back (free the node; it was kept by the
            // allocator because the memento holds it).
            let _ = alloc.dealloc(node);
            "rolled back"
        };
        cell(alloc, memento).store(0, Ordering::SeqCst);
        outcome
    }

    /// The control-block pointer.
    pub fn control(&self) -> OffsetPtr {
        self.control
    }

    /// Collects every heap allocation reachable from this queue — the
    /// control block, the dummy, and all nodes (the live set a
    /// stop-the-world GC must preserve).
    pub fn collect_allocations(&self, alloc: &mut dyn PodAllocThread) -> Vec<OffsetPtr> {
        let mut out = vec![self.control];
        let (mut cursor, _) = unpack(cell(alloc, self.head_cell()).load(Ordering::Acquire));
        while let Some(ptr) = OffsetPtr::new(cursor) {
            out.push(ptr);
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        out
    }

    /// Number of elements (O(n) walk; test/diagnostic use).
    pub fn len(&self, alloc: &mut dyn PodAllocThread) -> u64 {
        let (head_off, _) = unpack(cell(alloc, self.head_cell()).load(Ordering::Acquire));
        let head = OffsetPtr::new(head_off).expect("head never null");
        let mut count = 0;
        let mut cursor = unpack(cell(alloc, head).load(Ordering::Acquire)).0;
        while let Some(ptr) = OffsetPtr::new(cursor) {
            count += 1;
            cursor = unpack(cell(alloc, ptr).load(Ordering::Acquire)).0;
        }
        count
    }

    /// Whether the queue is empty.
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
            small_max_slabs: 1024,
            ..PodConfig::small_for_tests()
        })
        .unwrap();
        CxlallocAdapter::new(pod, 1, cxl_core::AttachOptions::default())
    }

    #[test]
    fn fifo_order() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let q = RecoverableQueue::create(t.as_mut()).unwrap();
        for i in 0..100 {
            q.enqueue(t.as_mut(), 0, i, 32).unwrap();
        }
        assert_eq!(q.len(t.as_mut()), 100);
        for i in 0..100 {
            assert_eq!(q.dequeue(t.as_mut()), Some(i));
        }
        assert_eq!(q.dequeue(t.as_mut()), None);
        assert!(q.is_empty(t.as_mut()));
    }

    #[test]
    fn concurrent_enqueue_dequeue() {
        // Many short rounds rather than one long one: a dequeue that
        // reports a non-empty queue empty (see `dequeue`) needs a rare
        // interleaving, and each round is a fresh draw at it.
        const ROUNDS: usize = 64;
        const PER_THREAD: u64 = 400;
        for round in 0..ROUNDS {
            let alloc = adapter();
            let mut t0 = alloc.thread().unwrap();
            let q = RecoverableQueue::create(t0.as_mut()).unwrap();
            std::thread::scope(|s| {
                for slot in 1..=3u32 {
                    let mut t = alloc.thread().unwrap();
                    s.spawn(move || {
                        for i in 0..PER_THREAD {
                            q.enqueue(t.as_mut(), slot, slot as u64 * 10_000 + i, 8).unwrap();
                            if i % 2 == 0 {
                                // Each thread has enqueued more than it
                                // has dequeued, so the queue is never
                                // empty here.
                                assert!(
                                    q.dequeue(t.as_mut()).is_some(),
                                    "round {round}: non-empty queue reported empty"
                                );
                            }
                        }
                    });
                }
            });
            // Drain the rest; every remaining value is one of the enqueued.
            let mut drained = 0;
            while let Some(v) = q.dequeue(t0.as_mut()) {
                assert!((10_000..40_000).contains(&v));
                drained += 1;
            }
            assert_eq!(drained, 3 * PER_THREAD - 3 * PER_THREAD / 2, "round {round}");
        }
    }

    #[test]
    fn recovery_rolls_back_unlinked_node() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let q = RecoverableQueue::create(t.as_mut()).unwrap();
        q.enqueue(t.as_mut(), 0, 1, 8).unwrap();
        // Simulate a crash between allocation+memento publish and link:
        // allocate a node, publish it in the memento, stop.
        let memento = q.memento_cell(5);
        let node = t.alloc_detectable(24, memento).unwrap();
        cell(t.as_mut(), node).store(0, Ordering::SeqCst);
        cell(t.as_mut(), memento).store(node.offset(), Ordering::SeqCst);
        // Recovery frees it and clears the memento.
        assert_eq!(q.recover_slot(t.as_mut(), 5), "rolled back");
        assert_eq!(cell(t.as_mut(), memento).load(Ordering::SeqCst), 0);
        assert_eq!(q.len(t.as_mut()), 1, "queue contents untouched");
    }

    #[test]
    fn recovery_completes_linked_node() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let q = RecoverableQueue::create(t.as_mut()).unwrap();
        // Crash after the link but before clearing the memento: enqueue
        // normally, then re-set the memento as if not cleared.
        q.enqueue(t.as_mut(), 2, 42, 8).unwrap();
        // Find the node we just linked (the only one).
        let head_raw = cell(t.as_mut(), q.head_cell()).load(Ordering::SeqCst);
        let dummy = OffsetPtr::new(head_raw >> 16).unwrap();
        let node_off = cell(t.as_mut(), dummy).load(Ordering::SeqCst) >> 16;
        cell(t.as_mut(), q.memento_cell(2)).store(node_off, Ordering::SeqCst);
        assert_eq!(q.recover_slot(t.as_mut(), 2), "completed");
        assert_eq!(q.dequeue(t.as_mut()), Some(42));
    }

    #[test]
    fn idle_recovery_is_noop() {
        let alloc = adapter();
        let mut t = alloc.thread().unwrap();
        let q = RecoverableQueue::create(t.as_mut()).unwrap();
        assert_eq!(q.recover_slot(t.as_mut(), 0), "idle");
    }
}
