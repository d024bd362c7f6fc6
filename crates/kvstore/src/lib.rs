//! The in-memory key-value store index used by the macrobenchmarks
//! (paper §5.2.1).
//!
//! "For our index data structure, we adapt cxl-shm's non-resizable
//! lock-free hash table to support all allocators, configuring it with
//! 32M buckets. In order to support deletion, we also adapt it to use
//! token-passing epoch-based reclamation."
//!
//! The table is a fixed bucket array of lock-free (Harris-style) linked
//! lists whose entries live in pod memory, allocated through any
//! [`PodAllocThread`]. Because we compare *allocators*, the index's own
//! bucket array is identical host memory for every allocator.
//!
//! Entry layout in pod memory (all offsets 8-aligned):
//!
//! ```text
//! word 0: next entry offset | mark bit (bit 0)
//! word 1: key id (exact, used as the comparison key)
//! word 2: key_len (low 32) | value_len (high 32)
//! then:   key bytes, value bytes
//! ```
//!
//! Deletion is Harris–Michael: *mark* the victim's link word, then
//! *unlink* it by CAS on its predecessor's link; whoever wins that CAS
//! retires the entry, and each op frees a bounded number of retired
//! entries. The whole rule is in [`ebr`]'s module documentation.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ebr;

pub use ebr::Ebr;

use baselines::{BenchError, PodAllocThread};
use cxl_core::OffsetPtr;
use ebr::Padded;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

const HEADER: u64 = 24;
const MARK: u64 = 1;
/// A worker offers the epoch token every this many ops.
const TICK_OPS: u64 = 64;
/// The most retired entries one op frees. An op retires at most one
/// entry of its own, so any budget of two or more drains the backlog;
/// eight is where the frees stop moving the median op ([`ebr`]).
const RECLAIM_BUDGET: usize = 8;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The shared hash-table index.
///
/// ```
/// use baselines::{MiLike, PodAlloc};
/// use kvstore::KvStore;
///
/// let alloc = MiLike::new(64 << 20);
/// let store = KvStore::new(1024, 4);
/// let mut worker = store.worker(alloc.thread()?);
/// worker.insert(7, 8, 100)?;
/// assert_eq!(worker.get(7), Some(100));
/// assert!(worker.delete(7));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct KvStore {
    buckets: Vec<AtomicU64>,
    ebr: Ebr,
    next_slot: AtomicUsize,
    /// Per worker slot: entries it inserted minus entries it deleted,
    /// wrapping (a worker may delete what another inserted). Written by
    /// the slot's worker alone, so a plain load and store.
    live_entries: Box<[Padded<AtomicU64>]>,
}

impl std::fmt::Debug for KvStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvStore")
            .field("buckets", &self.buckets.len())
            .field("live_entries", &self.len())
            .finish()
    }
}

impl KvStore {
    /// Creates a table with `buckets` buckets supporting up to
    /// `max_threads` worker threads.
    pub fn new(buckets: usize, max_threads: usize) -> Arc<Self> {
        Arc::new(KvStore {
            buckets: (0..buckets).map(|_| AtomicU64::new(0)).collect(),
            ebr: Ebr::new(max_threads),
            next_slot: AtomicUsize::new(0),
            live_entries: (0..max_threads).map(|_| Padded::default()).collect(),
        })
    }

    /// Registers a worker backed by an allocator thread handle.
    ///
    /// # Panics
    ///
    /// Panics when more than `max_threads` workers register.
    pub fn worker(self: &Arc<Self>, alloc: Box<dyn PodAllocThread>) -> KvThread {
        let slot = self.next_slot.fetch_add(1, Ordering::Relaxed);
        assert!(slot < self.ebr.capacity(), "too many kv workers");
        KvThread {
            store: self.clone(),
            alloc,
            slot,
            retired: VecDeque::new(),
            ops: 0,
        }
    }

    /// Number of live entries: exact while no op is in flight,
    /// approximate under concurrency.
    pub fn len(&self) -> u64 {
        self.live_entries
            .iter()
            .fold(0, |sum, slot| sum.wrapping_add(slot.0.load(Ordering::Relaxed)))
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Multiply-shift: the hash's position in `0..2^64` scaled to
    /// `0..buckets`. As uniform as a remainder for any bucket count, and
    /// no division.
    #[inline]
    fn bucket_index(&self, key: u64) -> usize {
        ((splitmix(key) as u128 * self.buckets.len() as u128) >> 64) as usize
    }

    #[inline]
    fn bucket_of(&self, key: u64) -> &AtomicU64 {
        &self.buckets[self.bucket_index(key)]
    }
}

/// A per-thread handle to the store.
pub struct KvThread {
    store: Arc<KvStore>,
    alloc: Box<dyn PodAllocThread>,
    slot: usize,
    /// Entries this worker unlinked, oldest first: (epoch at unlink, ptr).
    retired: VecDeque<(u64, OffsetPtr)>,
    ops: u64,
}

impl Drop for KvThread {
    /// The slot goes vacant: it holds no reference and will not drive
    /// the token again. Entries still awaiting reclamation are not
    /// freed; call [`KvThread::drain_retired`] first.
    fn drop(&mut self) {
        self.store.ebr.leave(self.slot);
    }
}

impl std::fmt::Debug for KvThread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("KvThread")
            .field("slot", &self.slot)
            .field("retired", &self.retired.len())
            .finish()
    }
}

/// The translated header of one entry: a pointer to its three header
/// words in this process. Translating costs a call into the allocator
/// (for cxlalloc, the PC-T mapping check), so every walk translates an
/// entry once and keeps this for as long as it holds the entry.
#[derive(Debug, Clone, Copy)]
struct Header(*const AtomicU64);

impl Header {
    #[inline]
    fn word(&self, index: usize) -> &AtomicU64 {
        debug_assert!(index < (HEADER / 8) as usize);
        // SAFETY: entries are 8-aligned, at least HEADER bytes, and live
        // in the shared segment for the life of the store; a `Header` is
        // held only while the epoch that keeps its entry from being
        // freed is pinned (an entry is retired once unreachable and
        // freed two epochs later).
        unsafe { &*self.0.add(index) }
    }

    /// The link word: next entry offset | mark bit.
    #[inline]
    fn next(&self) -> &AtomicU64 {
        self.word(0)
    }
}

/// A decoded entry header.
#[derive(Debug, Clone, Copy)]
struct Entry {
    header: Header,
    next: u64,
    marked: bool,
    key: u64,
    key_len: u32,
    value_len: u32,
}

/// An entry this worker marked and has yet to see out of its chain.
#[derive(Debug)]
struct Victim {
    /// The entry the walk came through, `None` for the bucket head.
    prev: Option<Header>,
    ptr: OffsetPtr,
    next: u64,
}

/// The link word that follows `prev`: its own, or the bucket head.
#[inline]
fn link_after<'a>(bucket: &'a AtomicU64, prev: &'a Option<Header>) -> &'a AtomicU64 {
    prev.as_ref().map_or(bucket, Header::next)
}

impl KvThread {
    /// The underlying allocator handle.
    pub fn allocator(&mut self) -> &mut dyn PodAllocThread {
        self.alloc.as_mut()
    }

    /// `key`'s bucket head, borrowed apart from `self` so that a walk
    /// can hold it across `&mut self` calls.
    #[inline]
    fn bucket<'a>(&self, key: u64) -> &'a AtomicU64 {
        // SAFETY: the bucket array is never resized and outlives every
        // worker (each holds the `Arc`); the reference does not outlive
        // the op that asked for it.
        unsafe { &*(self.store.bucket_of(key) as *const AtomicU64) }
    }

    /// Adds `delta` (wrapping) to this slot's live-entry count.
    #[inline]
    fn count(&self, delta: i64) {
        let live = &self.store.live_entries[self.slot].0;
        live.store(
            live.load(Ordering::Relaxed).wrapping_add_signed(delta),
            Ordering::Relaxed,
        );
    }

    #[inline]
    fn read_entry(&mut self, ptr: OffsetPtr) -> Entry {
        let header = Header(self.alloc.resolve(ptr, HEADER) as *const AtomicU64);
        let next_raw = header.next().load(Ordering::Acquire);
        let lens = header.word(2).load(Ordering::Relaxed);
        Entry {
            header,
            next: next_raw & !MARK,
            marked: next_raw & MARK != 0,
            key: header.word(1).load(Ordering::Relaxed),
            key_len: lens as u32,
            value_len: (lens >> 32) as u32,
        }
    }

    /// Inserts (or replaces) `key` with a fresh entry of the given key
    /// and value lengths; the entry's bytes are filled with a
    /// deterministic pattern.
    ///
    /// # Errors
    ///
    /// Propagates allocator errors (OOM, unsupported size).
    pub fn insert(&mut self, key: u64, key_len: u32, value_len: u32) -> Result<(), BenchError> {
        let total = HEADER + key_len as u64 + value_len as u64;
        let ptr = self.alloc.alloc(total as usize)?;
        debug_assert_eq!(ptr.offset() % 8, 0);
        // Fill the entry before publication: one translation covers the
        // header and the body.
        let epoch = self.store.ebr.pin(self.slot);
        let raw = self.alloc.resolve(ptr, total);
        let header = Header(raw as *const AtomicU64);
        header.word(1).store(key, Ordering::Relaxed);
        header
            .word(2)
            .store(key_len as u64 | (value_len as u64) << 32, Ordering::Relaxed);
        if total > HEADER {
            // SAFETY: `raw` is valid for `total` bytes (just allocated).
            unsafe {
                raw.add(HEADER as usize)
                    .write_bytes(key as u8 ^ 0x5A, (total - HEADER) as usize)
            };
        }
        // Publish at the bucket head.
        let bucket = self.bucket(key);
        let mut head = bucket.load(Ordering::Acquire);
        loop {
            header.next().store(head, Ordering::Relaxed);
            match bucket.compare_exchange_weak(
                head,
                ptr.offset(),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(actual) => head = actual,
            }
        }
        // Replace semantics: delete the next older entry with the same
        // key, if any; the count moves only when there was none.
        if !self.delete_first(bucket, Some(header), key) {
            self.count(1);
        }
        self.store.ebr.unpin(self.slot);
        self.quiesce(epoch);
        Ok(())
    }

    /// Reads `key`; returns the value length and touches the value
    /// bytes. Returns `None` if absent.
    pub fn get(&mut self, key: u64) -> Option<u32> {
        let epoch = self.store.ebr.pin(self.slot);
        let mut cursor = self.store.bucket_of(key).load(Ordering::Acquire);
        let mut result = None;
        // A read skips marked entries and leaves unlinking them to the
        // walks that write.
        while let Some(ptr) = OffsetPtr::decode(cursor) {
            let entry = self.read_entry(ptr);
            if !entry.marked && entry.key == key {
                // Model per-object synchronization (cxl-shm refcounts).
                self.alloc.read_barrier(ptr);
                // Touch the value.
                let total = HEADER + entry.key_len as u64 + entry.value_len as u64;
                let body = self.alloc.resolve(ptr, total);
                if entry.value_len > 0 {
                    // SAFETY: entry is valid for `total` bytes.
                    let first = unsafe {
                        *body.add(HEADER as usize + entry.key_len as usize)
                    };
                    std::hint::black_box(first);
                }
                result = Some(entry.value_len);
                break;
            }
            cursor = entry.next;
        }
        self.store.ebr.unpin(self.slot);
        self.quiesce(epoch);
        result
    }

    /// Deletes `key`; returns whether an entry was removed.
    pub fn delete(&mut self, key: u64) -> bool {
        let epoch = self.store.ebr.pin(self.slot);
        let deleted = self.delete_first(self.bucket(key), None, key);
        if deleted {
            self.count(-1);
        }
        self.store.ebr.unpin(self.slot);
        self.quiesce(epoch);
        deleted
    }

    /// Deletes the first live `key` entry after `from` (the whole bucket
    /// for `None`; strictly after the caller's new entry on `insert`'s
    /// replace path). Returns whether there was one.
    fn delete_first(&mut self, bucket: &AtomicU64, from: Option<Header>, key: u64) -> bool {
        match self.mark_first(bucket, from, key) {
            Some(victim) => {
                self.unlink_victim(bucket, victim);
                true
            }
            None => false,
        }
    }

    /// First half of a delete: marks the first live `key` entry after
    /// `from`, unlinking the marked entries met on the way.
    fn mark_first(
        &mut self,
        bucket: &AtomicU64,
        from: Option<Header>,
        key: u64,
    ) -> Option<Victim> {
        'restart: loop {
            let mut prev = from;
            let mut cursor = link_after(bucket, &prev).load(Ordering::Acquire) & !MARK;
            while let Some(ptr) = OffsetPtr::decode(cursor) {
                let entry = self.read_entry(ptr);
                if entry.marked {
                    // Help. A lost CAS means the chain moved under this
                    // walk or `prev` is itself deleted (`from` can be,
                    // so restarting there could spin): the search goes
                    // on over the entry's frozen link, past which every
                    // CAS fails until a live entry is `prev` again, and
                    // whoever marked the entry sees it out.
                    if !self.unlink(link_after(bucket, &prev), ptr, entry.next) {
                        prev = Some(entry.header);
                    }
                } else if entry.key == key {
                    if !try_mark(&entry) {
                        // Lost the race for it, or its successor went.
                        continue 'restart;
                    }
                    return Some(Victim {
                        prev,
                        ptr,
                        next: entry.next,
                    });
                } else {
                    prev = Some(entry.header);
                }
                cursor = entry.next;
            }
            return None;
        }
    }

    /// Second half of a delete: unlinks `victim` where the walk found
    /// it or, when that link has changed since, sweeps the bucket until
    /// the victim is unreachable. No op returns leaving an entry it
    /// marked linked.
    fn unlink_victim(&mut self, bucket: &AtomicU64, victim: Victim) {
        if !self.unlink(link_after(bucket, &victim.prev), victim.ptr, victim.next) {
            self.sweep(bucket);
        }
    }

    /// Unlinks the marked entry `ptr` from `link`, which stays valid
    /// under the pinned epoch. The CAS expects `ptr` unmarked, so it
    /// fails on a deleted predecessor's (frozen) link: a success always
    /// takes `ptr` out of the live chain, exactly once, and its winner —
    /// nobody else — retires the entry.
    fn unlink(&mut self, link: &AtomicU64, ptr: OffsetPtr, next: u64) -> bool {
        let won = link
            .compare_exchange(ptr.offset(), next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            self.retired.push_back((self.store.ebr.epoch(), ptr));
        }
        won
    }

    /// Walks `bucket` from its head unlinking every marked entry, and
    /// starts over when a CAS is lost. Links only ever skip unreachable
    /// entries, so a pass that reaches the end of the chain has met
    /// every entry that stayed reachable throughout: whatever was marked
    /// before the call is unreachable after it.
    fn sweep(&mut self, bucket: &AtomicU64) {
        'pass: loop {
            let mut prev = None;
            let mut cursor = bucket.load(Ordering::Acquire);
            while let Some(ptr) = OffsetPtr::decode(cursor) {
                let entry = self.read_entry(ptr);
                if !entry.marked {
                    prev = Some(entry.header);
                } else if !self.unlink(link_after(bucket, &prev), ptr, entry.next) {
                    continue 'pass;
                }
                cursor = entry.next;
            }
            return;
        }
    }

    /// Per-op housekeeping: offer the epoch token every [`TICK_OPS`]
    /// ops, and free at most [`RECLAIM_BUDGET`] retired entries that
    /// were safe at `epoch`, the epoch this op pinned.
    fn quiesce(&mut self, epoch: u64) {
        self.ops += 1;
        if self.ops.is_multiple_of(TICK_OPS) {
            self.store.ebr.tick(self.slot);
        }
        self.reclaim(epoch, RECLAIM_BUDGET);
    }

    /// Frees at most `limit` retired entries, oldest first, stopping at
    /// the first that is not safe at `epoch`.
    #[inline]
    fn reclaim(&mut self, epoch: u64, limit: usize) {
        for _ in 0..limit {
            match self.retired.front() {
                Some(&(stamp, ptr)) if Ebr::safe_to_free(stamp, epoch) => {
                    self.retired.pop_front();
                    let _ = self.alloc.dealloc(ptr);
                }
                _ => break,
            }
        }
    }

    /// End of run: advances the epoch as far as the other workers allow
    /// and frees every retired entry that is then safe. Returns how many
    /// remain: 0 when every other worker is between ops (joined, idle or
    /// dropped) and stays there; entries a pinned peer may still hold
    /// are kept.
    pub fn drain_retired(&mut self) -> usize {
        // The youngest entry is safe two epochs after its stamp.
        for _ in 0..2 {
            self.store.ebr.try_advance();
        }
        self.reclaim(self.store.ebr.epoch(), self.retired.len());
        self.alloc.maintain();
        self.retired.len()
    }
}

/// CAS-sets the mark bit on `entry`'s link word.
fn try_mark(entry: &Entry) -> bool {
    entry
        .header
        .next()
        .compare_exchange(
            entry.next,
            entry.next | MARK,
            Ordering::AcqRel,
            Ordering::Acquire,
        )
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use baselines::{CxlallocAdapter, MiLike, PodAlloc};
    use cxl_core::audit::{block_state, BlockState};
    use cxl_pod::{CoreId, Pod, PodConfig};

    fn store_with(alloc: &dyn PodAlloc) -> (Arc<KvStore>, KvThread) {
        let store = KvStore::new(1024, 8);
        let worker = store.worker(alloc.thread().unwrap());
        (store, worker)
    }

    /// Cxlalloc on a raw pod, where `block_state` reads what the heap
    /// holds of a block the moment its owner frees it.
    fn raw_pod() -> (Pod, CxlallocAdapter) {
        let pod = Pod::new(PodConfig {
            small_max_slabs: 1024,
            ..PodConfig::small_for_tests()
        })
        .unwrap();
        let alloc = CxlallocAdapter::new(pod.clone(), 1, cxl_core::AttachOptions::default());
        (pod, alloc)
    }

    fn allocated(pod: &Pod, ptr: OffsetPtr) -> bool {
        block_state(pod.memory().as_ref(), CoreId(0), ptr.offset()) == Ok(BlockState::Allocated)
    }

    /// The entries reachable from `key`'s bucket, marked or not, in
    /// chain order. Panics on a chain longer than `bound` (a cycle).
    fn chain(w: &mut KvThread, key: u64, bound: usize) -> Vec<OffsetPtr> {
        let mut reached = Vec::new();
        let mut cursor = w.bucket(key).load(Ordering::Acquire);
        while let Some(ptr) = OffsetPtr::decode(cursor) {
            assert!(reached.len() < bound, "chain exceeds {bound} entries: a cycle");
            assert!(!reached.contains(&ptr), "chain revisits {ptr:?}");
            reached.push(ptr);
            cursor = w.read_entry(ptr).next;
        }
        reached
    }

    #[test]
    fn insert_get_delete_roundtrip() {
        let alloc = MiLike::new(64 << 20);
        let (_store, mut w) = store_with(&alloc);
        assert_eq!(w.get(42), None);
        w.insert(42, 8, 100).unwrap();
        assert_eq!(w.get(42), Some(100));
        assert!(w.delete(42));
        assert_eq!(w.get(42), None);
        assert!(!w.delete(42));
    }

    #[test]
    fn replace_keeps_latest() {
        let alloc = MiLike::new(64 << 20);
        let (store, mut w) = store_with(&alloc);
        w.insert(7, 8, 10).unwrap();
        w.insert(7, 8, 20).unwrap();
        w.insert(7, 8, 30).unwrap();
        assert_eq!(w.get(7), Some(30));
        // Replacement retired the old versions: live count stays 1.
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn many_keys_coexist() {
        let alloc = MiLike::new(64 << 20);
        let (store, mut w) = store_with(&alloc);
        for key in 0..2000u64 {
            w.insert(key, 8, (key % 200) as u32).unwrap();
        }
        assert_eq!(store.len(), 2000);
        for key in 0..2000u64 {
            assert_eq!(w.get(key), Some((key % 200) as u32), "key {key}");
        }
        for key in (0..2000u64).step_by(2) {
            assert!(w.delete(key));
        }
        assert_eq!(store.len(), 1000);
        for key in 0..2000u64 {
            let expect = (key % 2 == 1).then_some((key % 200) as u32);
            assert_eq!(w.get(key), expect);
        }
    }

    #[test]
    fn retired_entries_are_freed() {
        let alloc = MiLike::new(64 << 20);
        let (_store, mut w) = store_with(&alloc);
        for _ in 0..50u64 {
            w.insert(1, 8, 960).unwrap();
        }
        w.delete(1);
        assert_eq!(w.drain_retired(), 0);
        let used = alloc.memory_usage().data_bytes;
        // Re-running the same churn must not grow the heap: freed
        // entries are recycled.
        for _ in 0..50u64 {
            w.insert(1, 8, 960).unwrap();
        }
        w.delete(1);
        assert_eq!(w.drain_retired(), 0);
        assert_eq!(alloc.memory_usage().data_bytes, used);
    }

    #[test]
    fn len_is_exact_across_workers_and_drops() {
        let alloc = MiLike::new(64 << 20);
        let store = KvStore::new(64, 3);
        let mut a = store.worker(alloc.thread().unwrap());
        let mut b = store.worker(alloc.thread().unwrap());
        for key in 0..10 {
            a.insert(key, 8, 16).unwrap();
        }
        // B's count wraps below zero; the sum does not.
        for key in 0..4 {
            assert!(b.delete(key));
        }
        assert!(!b.delete(0));
        assert_eq!(store.len(), 6);
        // A replace by either worker leaves it where it was.
        b.insert(5, 8, 32).unwrap();
        a.insert(5, 8, 48).unwrap();
        assert_eq!(store.len(), 6);
        drop(a);
        assert_eq!(store.len(), 6);
        assert!(b.delete(9));
        drop(b);
        assert_eq!(store.len(), 5);
        let mut c = store.worker(alloc.thread().unwrap());
        assert!(c.delete(8));
        assert_eq!(store.len(), 4);
    }

    #[test]
    fn bucket_index_is_in_range_and_spreads() {
        for buckets in [1usize, 3, 1000, 1 << 17] {
            let store = KvStore::new(buckets, 1);
            for key in (0..4096u64).chain([u64::MAX, u64::MAX - 1, 1 << 63]) {
                assert!(store.bucket_index(key) < buckets, "{buckets} buckets, key {key}");
            }
        }
        let store = KvStore::new(1 << 17, 1);
        let mut chains = vec![0u8; 1 << 17];
        for key in 0..65_536u64 {
            chains[store.bucket_index(key)] += 1;
        }
        let longest = chains.iter().max().unwrap();
        assert!(*longest <= 8, "65536 sequential keys chain {longest} deep");
    }

    /// Counts the calls on their way to the wrapped allocator.
    #[derive(Default)]
    struct Calls {
        allocs: AtomicU64,
        deallocs: AtomicU64,
        resolves: AtomicU64,
    }

    struct Counting {
        inner: Box<dyn PodAllocThread>,
        calls: Arc<Calls>,
    }

    impl PodAllocThread for Counting {
        fn alloc(&mut self, size: usize) -> Result<OffsetPtr, BenchError> {
            self.calls.allocs.fetch_add(1, Ordering::Relaxed);
            self.inner.alloc(size)
        }
        fn dealloc(&mut self, ptr: OffsetPtr) -> Result<(), BenchError> {
            self.calls.deallocs.fetch_add(1, Ordering::Relaxed);
            self.inner.dealloc(ptr)
        }
        fn resolve(&mut self, ptr: OffsetPtr, len: u64) -> *mut u8 {
            self.calls.resolves.fetch_add(1, Ordering::Relaxed);
            self.inner.resolve(ptr, len)
        }
    }

    fn counting_worker(store: &Arc<KvStore>, alloc: &dyn PodAlloc) -> (KvThread, Arc<Calls>) {
        let calls = Arc::new(Calls::default());
        let worker = store.worker(Box::new(Counting {
            inner: alloc.thread().unwrap(),
            calls: calls.clone(),
        }));
        (worker, calls)
    }

    #[test]
    fn reclamation_is_bounded_per_op() {
        let alloc = MiLike::new(256 << 20);
        let store = KvStore::new(1024, 1);
        let (mut w, calls) = counting_worker(&store, &alloc);
        let mut x = 7u64;
        let mut most = 0;
        for _ in 0..50_000 {
            x = splitmix(x);
            let key = (x >> 8) % 2048;
            let before = calls.deallocs.load(Ordering::Relaxed);
            match x % 4 {
                0 | 1 => w.insert(key, 8, 64).unwrap(),
                2 => {
                    w.delete(key);
                }
                _ => {
                    w.get(key);
                }
            }
            let freed = calls.deallocs.load(Ordering::Relaxed) - before;
            most = most.max(freed);
            assert!(freed <= RECLAIM_BUDGET as u64, "one op made {freed} dealloc calls");
            // Two epochs of retirements are unsafe at any time; a third
            // is the slack the budget needs to catch up.
            assert!(
                w.retired.len() <= 3 * TICK_OPS as usize + RECLAIM_BUDGET,
                "backlog of {}",
                w.retired.len()
            );
        }
        assert_eq!(most, RECLAIM_BUDGET as u64, "the backlog never filled a budget");
        assert_eq!(w.drain_retired(), 0);
        // Work conserved: every entry allocated is live or was freed.
        let allocs = calls.allocs.load(Ordering::Relaxed);
        assert_eq!(calls.deallocs.load(Ordering::Relaxed), allocs - store.len());
    }

    #[test]
    fn only_the_unlinker_retires() {
        let (pod, alloc) = raw_pod();
        // One bucket: every key chains behind the others.
        let store = KvStore::new(1, 2);
        let mut a = store.worker(alloc.thread().unwrap());
        let mut b = store.worker(alloc.thread().unwrap());
        a.insert(1, 8, 64).unwrap();
        let x = chain(&mut a, 1, 8)[0];

        // A marks X at the bucket head; B inserts ahead of it — its
        // replace walk meets X marked and unlinks it — so the link A
        // found X on no longer holds X.
        let epoch = store.ebr.pin(a.slot);
        let bucket = a.bucket(1);
        let victim = a.mark_first(bucket, None, 1).expect("key 1 is live");
        assert_eq!(victim.ptr, x);
        b.insert(2, 8, 64).unwrap();
        a.unlink_victim(bucket, victim);
        a.count(-1);
        store.ebr.unpin(a.slot);
        a.quiesce(epoch);
        assert!(a.retired.is_empty(), "A lost the unlink and must not retire X");
        assert_eq!(b.retired.iter().filter(|(_, ptr)| *ptr == x).count(), 1);
        assert!(!chain(&mut a, 1, 8).contains(&x), "no marked entry stays linked");

        // Churn past three epochs, reusing whatever was freed at the
        // head of the same bucket.
        let start = store.ebr.epoch();
        for i in 0..6 * TICK_OPS {
            a.insert(3 + i % 4, 8, 64).unwrap();
            b.insert(7 + i % 4, 8, 64).unwrap();
        }
        assert!(store.ebr.epoch() >= start + 3);
        let reached = chain(&mut a, 1, 64);
        assert_eq!(reached.len() as u64, store.len());
        for ptr in reached {
            assert!(allocated(&pod, ptr), "{ptr:?} is linked and free");
        }
    }

    #[test]
    fn a_failed_unlink_is_swept() {
        let (pod, alloc) = raw_pod();
        let store = KvStore::new(1, 2);
        let mut a = store.worker(alloc.thread().unwrap());
        let mut b = store.worker(alloc.thread().unwrap());
        // Chain: 3 -> 2 -> 1. A marks 1 behind 2; B deletes 2, the
        // predecessor, so A's CAS on 2's (now marked) link fails.
        for key in 1..=3 {
            a.insert(key, 8, 64).unwrap();
        }
        let x = chain(&mut a, 1, 8)[2];
        let epoch = store.ebr.pin(a.slot);
        let bucket = a.bucket(1);
        let victim = a.mark_first(bucket, None, 1).expect("key 1 is live");
        assert_eq!(victim.ptr, x);
        // B's walk stops at 2, ahead of the marked entry.
        assert!(b.delete(2));
        a.unlink_victim(bucket, victim);
        a.count(-1);
        store.ebr.unpin(a.slot);
        a.quiesce(epoch);
        assert_eq!(a.retired.iter().filter(|(_, ptr)| *ptr == x).count(), 1);
        assert_eq!(chain(&mut a, 1, 8).len(), 1, "only key 3 stays linked");
        assert_eq!(store.len(), 1);
        assert_eq!(a.drain_retired() + b.drain_retired(), 0);
        assert!(!allocated(&pod, x));
    }

    #[test]
    fn an_entry_waits_for_readers_pinned_after_its_deleter() {
        let (pod, alloc) = raw_pod();
        let store = KvStore::new(1, 2);
        let mut a = store.worker(alloc.thread().unwrap());
        let b = store.worker(alloc.thread().unwrap());
        a.insert(1, 8, 64).unwrap();
        let x = chain(&mut a, 1, 8)[0];
        // A pins, the epoch moves on, B pins the newer epoch and (as a
        // reader would) comes to hold X; only then does A unlink it.
        let epoch = store.ebr.pin(a.slot);
        assert!(store.ebr.try_advance());
        store.ebr.pin(b.slot);
        assert!(a.delete_first(a.bucket(1), None, 1));
        store.ebr.unpin(a.slot);
        a.quiesce(epoch);
        // Two epochs past A's pin is one past B's: B still allows it.
        assert!(store.ebr.try_advance());
        for key in 10..10 + 2 * TICK_OPS {
            a.get(key);
        }
        assert!(allocated(&pod, x), "X freed under a reader pinned before its unlink");
        assert_eq!(a.drain_retired(), 1);
        assert!(allocated(&pod, x), "drain_retired freed what B may hold");
        store.ebr.unpin(b.slot);
        assert_eq!(a.drain_retired(), 0);
        assert!(!allocated(&pod, x));
    }

    #[test]
    fn token_returns_from_undriven_slots() {
        let alloc = MiLike::new(256 << 20);
        // `run_macro`'s shape: a preload worker on slot 0 that finishes,
        // then the measured workers.
        let store = KvStore::new(1024, 3);
        let mut preload = store.worker(alloc.thread().unwrap());
        for key in 0..1000 {
            preload.insert(key, 8, 64).unwrap();
        }
        assert_eq!(preload.drain_retired(), 0);
        drop(preload);
        let mut b = store.worker(alloc.thread().unwrap());
        let mut c = store.worker(alloc.thread().unwrap());
        let start = store.ebr.epoch();
        for i in 0..100_000u64 {
            b.insert(i % 1000, 8, 64).unwrap();
            c.insert((i + 500) % 1000, 8, 64).unwrap();
        }
        assert!(store.ebr.epoch() > start + 1000, "the epoch stalled");
        assert!(b.retired.len() < 512, "backlog of {}", b.retired.len());
        assert!(c.retired.len() < 512, "backlog of {}", c.retired.len());
        assert_eq!(store.len(), 1000);
    }

    #[test]
    fn single_slot_ring_advances_every_tick() {
        let alloc = MiLike::new(64 << 20);
        let store = KvStore::new(1024, 1);
        let mut w = store.worker(alloc.thread().unwrap());
        let start = store.ebr.epoch();
        for key in 0..10 * TICK_OPS {
            w.get(key);
        }
        assert_eq!(store.ebr.epoch(), start + 10);
    }

    #[test]
    fn concurrent_disjoint_writers() {
        let alloc = MiLike::new(256 << 20);
        let store = KvStore::new(4096, 8);
        let workers: Vec<KvThread> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let mut w = store.worker(alloc.thread().unwrap());
                    s.spawn(move || {
                        for i in 0..2000u64 {
                            let key = t * 1_000_000 + i;
                            w.insert(key, 8, 64).unwrap();
                            assert_eq!(w.get(key), Some(64));
                            if i % 3 == 0 {
                                assert!(w.delete(key));
                            }
                        }
                        w
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for mut w in workers {
            assert_eq!(w.drain_retired(), 0);
        }
        assert_eq!(store.len(), 4 * (2000 - 667));
        let mut w = store.worker(alloc.thread().unwrap());
        for t in 0..4u64 {
            assert_eq!(w.get(t * 1_000_000 + 1), Some(64));
            assert_eq!(w.get(t * 1_000_000), None); // deleted (i % 3 == 0)
        }
    }

    #[test]
    fn concurrent_same_key_contention() {
        let alloc = MiLike::new(256 << 20);
        let store = KvStore::new(64, 8);
        let workers: Vec<KvThread> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut w = store.worker(alloc.thread().unwrap());
                    s.spawn(move || {
                        for i in 0..1500u64 {
                            match i % 3 {
                                0 => {
                                    let _ = w.insert(9, 8, 32);
                                }
                                1 => {
                                    let _ = w.get(9);
                                }
                                _ => {
                                    let _ = w.delete(9);
                                }
                            }
                        }
                        w
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for mut w in workers {
            assert_eq!(w.drain_retired(), 0);
        }
        // The table survives (no crash/UB) and is clean at quiescence:
        // whatever is still linked is live, and counted.
        let mut w = store.worker(alloc.thread().unwrap());
        let reached = chain(&mut w, 9, 6000);
        assert_eq!(reached.len() as u64, store.len());
        for ptr in reached {
            assert!(!w.read_entry(ptr).marked, "{ptr:?} is marked and linked");
        }
        let _ = w.get(9);
    }

    #[test]
    fn each_entry_hop_translates_once() {
        let alloc = MiLike::new(64 << 20);
        // One bucket: every key chains behind the others.
        let store = KvStore::new(1, 1);
        let (mut w, counted) = counting_worker(&store, &alloc);
        let mut calls = |op: &dyn Fn(&mut KvThread)| {
            let before = counted.resolves.load(Ordering::Relaxed);
            op(&mut w);
            counted.resolves.load(Ordering::Relaxed) - before
        };

        // An insert into an empty bucket translates the new entry only.
        let n = calls(&|w| w.insert(0, 8, 64).unwrap());
        assert!(n <= 2, "insert into an empty bucket made {n} resolve calls");

        // Inserts go to the head, so key 0 ends up last of a chain of k.
        const K: u64 = 6;
        for key in 1..K {
            calls(&|w| w.insert(key, 8, 64).unwrap());
        }
        let n = calls(&|w| assert_eq!(w.get(0), Some(64)));
        assert!(n <= K + 1, "get at depth {K} made {n} resolve calls");
        let n = calls(&|w| assert_eq!(w.get(K - 1), Some(64)));
        assert!(n <= 2, "get at depth 1 made {n} resolve calls");
        // A miss walks the chain and translates no body.
        let n = calls(&|w| assert_eq!(w.get(99), None));
        assert!(n <= K, "a miss over {K} entries made {n} resolve calls");
        // Delete and replace hold on to the headers they walked over:
        // marking and unlinking the last entry translates nothing more.
        let n = calls(&|w| assert!(w.delete(0)));
        assert!(n <= K, "delete at depth {K} made {n} resolve calls");
        let n = calls(&|w| w.insert(1, 8, 64).unwrap());
        assert!(n <= K, "replace at depth {} made {n} resolve calls", K - 1);
        assert_eq!(store.len(), K - 1);
    }

    #[test]
    fn works_with_cxlalloc() {
        let (_pod, alloc) = raw_pod();
        let (_store, mut w) = store_with(&alloc);
        for key in 0..500u64 {
            w.insert(key, 8, 960).unwrap();
        }
        for key in 0..500u64 {
            assert_eq!(w.get(key), Some(960));
        }
        for key in 0..500u64 {
            assert!(w.delete(key));
        }
        assert_eq!(w.drain_retired(), 0);
    }
}
