//! Per-core software cache model.
//!
//! CXL pods without inter-host hardware cache coherence still let each
//! host cache shared memory — they simply never *invalidate* each other.
//! The allocator's SWcc protocol (paper §3.2.2) therefore controls cache
//! state manually with flushes and fences (see `SimMemory` in `mem`).
//! This module provides the
//! adversarial environment in which that protocol must be correct: every
//! core has an unbounded private cache, loads hit the (possibly stale)
//! cache forever until the owner flushes, and stores stay invisible to
//! other cores until flushed.
//!
//! An unbounded cache is *more* adversarial than real hardware (which
//! evicts and thereby accidentally publishes or refreshes lines): any
//! missing flush/fence in the allocator shows up as a deterministic stale
//! read here rather than a once-a-week heisenbug on real hardware.
//!
//! Writebacks happen at 8-byte-word granularity, tracked by a per-line
//! dirty mask. This mirrors the paper's layout discipline: structures
//! with different writers never share an 8-byte word, so a writeback can
//! never clobber another core's concurrent write.
//!
//! Since this model sits under *every* simulated memory operation, its
//! own cost is the simulator's floor. Each core's cache is an
//! open-addressed, power-of-two line table probed linearly, with a
//! generation counter so [`CacheModel::discard_all`] is O(1): steady
//! state load/store/flush allocates nothing and touches no `HashMap`.
//! (The previous map-based implementation survives in
//! `tests/cache_differential.rs` as the reference model of the
//! differential property test.) For the same reason its line fills and
//! writebacks are charged to the pod's one count table with the
//! one-writer load and store (`crate::stats`), under the lock the access
//! already holds: no counting adds a locked instruction. The accesses
//! themselves (hits, fills, stores, flushes) are charged by the backend
//! that makes them.
//!
//! # The per-core lock and the op scope
//!
//! Each core's cache sits behind one private re-entrant lock,
//! `CoreLock`. An access takes it, touches the cache and releases it —
//! unless the calling thread already holds it through an [`OpScope`]
//! ([`CacheModel::scope`]): then the access is one compare of the lock's
//! owner token against the thread's own and no locked instruction. An
//! allocator op opens one scope on its core, so its ~9 cached accesses
//! pay for the lock once. Everything else — a foreign `discard_all`, an
//! unscoped access from any thread — goes through the
//! same lock and simply waits for the op in flight, so no thread ever
//! sees another's half-applied cache update.
//!
//! **One scope per thread.** A thread inside a scope must not open a
//! second core's scope, nor touch another core's cache at all: two
//! threads doing that to each other's cores would deadlock. Debug builds
//! assert the rule at both places a thread can block (`scope` and the
//! unscoped path of `enter`); a nested scope on the *same* core is a
//! no-op and the outer one keeps holding. The cross-core calls the
//! allocator makes (`discard_all` of a dead thread's core) therefore run
//! outside any scope.

use crate::config::CACHELINE;
use crate::segment::Segment;
use crate::trace::{TraceKind, Tracer};
use parking_lot::{Mutex, MutexGuard};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const WORDS: usize = (CACHELINE / 8) as usize;

/// One slot of the open-addressed line table. `tag` is the line address
/// with bit 0 set (line addresses are 64-aligned, so 0 is free to mean
/// "never used"); a slot is live only when its `gen` matches the cache's
/// current generation, which is how a generation bump discards
/// everything at once.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u64,
    gen: u64,
    dirty: u8,
    words: [u64; WORDS],
}

const EMPTY: Slot = Slot {
    tag: 0,
    gen: 0,
    dirty: 0,
    words: [0; WORDS],
};

/// A single core's private cache: an open-addressed table of lines.
#[derive(Debug)]
struct CoreCache {
    slots: Vec<Slot>,
    /// `slots.len() - 1` (the table is a power of two).
    mask: usize,
    /// Live-slot generation; bumping it empties the table in O(1).
    generation: u64,
    /// Live entries in the current generation.
    len: usize,
    /// Xorshift state for pseudo-random eviction.
    seed: u64,
}

impl CoreCache {
    fn new(initial_slots: usize, core: usize) -> Self {
        debug_assert!(initial_slots.is_power_of_two());
        CoreCache {
            slots: vec![EMPTY; initial_slots],
            mask: initial_slots - 1,
            generation: 1,
            len: 0,
            seed: 0x2545_F491_4F6C_DD1D ^ (core as u64 + 1),
        }
    }

    #[inline]
    fn home(&self, tag: u64) -> usize {
        // Fibonacci hashing on the line number.
        (((tag >> 6).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize) & self.mask
    }

    #[inline]
    fn live(&self, i: usize) -> bool {
        let s = &self.slots[i];
        s.tag != 0 && s.gen == self.generation
    }

    /// Index of `tag`'s slot, if cached.
    #[inline]
    fn find(&self, tag: u64) -> Option<usize> {
        let mut i = self.home(tag);
        loop {
            if !self.live(i) {
                return None;
            }
            if self.slots[i].tag == tag {
                return Some(i);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// First free slot for `tag` (the caller has checked it is absent
    /// and that the table has room).
    #[inline]
    fn insert_slot(&mut self, tag: u64) -> usize {
        let mut i = self.home(tag);
        while self.live(i) {
            i = (i + 1) & self.mask;
        }
        self.len += 1;
        i
    }

    /// Removes the entry at `i`, compacting the probe cluster behind it
    /// (backward-shift deletion) so `find`'s early-exit on an empty slot
    /// stays sound.
    fn remove_at(&mut self, mut i: usize) {
        self.len -= 1;
        let mut j = i;
        loop {
            self.slots[i].tag = 0;
            loop {
                j = (j + 1) & self.mask;
                if !self.live(j) {
                    return;
                }
                let home = self.home(self.slots[j].tag);
                // `j`'s entry may move into the hole at `i` only if its
                // home position is not strictly inside (i, j].
                if (j.wrapping_sub(home) & self.mask) >= (j.wrapping_sub(i) & self.mask) {
                    self.slots[i] = self.slots[j];
                    i = j;
                    break;
                }
            }
        }
    }

    /// Doubles the table, re-homing live entries. Only the unbounded
    /// configuration grows; a bounded cache evicts instead, so after
    /// warmup the steady state allocates nothing either way.
    fn grow(&mut self) {
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; (self.mask + 1) * 2]);
        self.mask = self.slots.len() - 1;
        let generation = self.generation;
        self.len = 0;
        for slot in old {
            if slot.tag != 0 && slot.gen == generation {
                let i = self.insert_slot(slot.tag);
                self.slots[i] = slot;
            }
        }
    }

    /// Picks a pseudo-random live slot: xorshift a start index, then
    /// walk to the next live slot. Deterministic per seed, unlike the
    /// old model's dependence on `HashMap` iteration order.
    fn random_live_slot(&mut self) -> usize {
        debug_assert!(self.len > 0);
        let mut x = self.seed;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.seed = x;
        let mut i = (x as usize) & self.mask;
        while !self.live(i) {
            i = (i + 1) & self.mask;
        }
        i
    }
}

thread_local! {
    /// The address of this thread-local is the thread's owner token:
    /// unique among live threads and never 0. Its value is the address
    /// of the `CoreLock` the thread's open scope holds (0 outside a
    /// scope), read only by the debug assertions of the one-scope rule.
    static SCOPE: Cell<usize> = const { Cell::new(0) };
}

#[inline]
fn thread_token() -> usize {
    SCOPE.with(|scope| scope as *const Cell<usize> as usize)
}

/// One core's cache behind a lock its holder can re-enter: the mutex,
/// the token of the thread whose [`OpScope`] holds it, and the cache.
struct CoreLock {
    mutex: Mutex<()>,
    /// The scope holder's [`thread_token`], else 0. Written only while
    /// `mutex` is held and cleared before it is released.
    owner: AtomicUsize,
    cache: UnsafeCell<CoreCache>,
}

// SAFETY: `cache` is reached only through `enter`, which hands out the
// one `&mut CoreCache` either under `mutex` or to the thread whose scope
// holds `mutex` (see `enter`); `CoreCache` is plain owned data (`Send`),
// and `mutex` and `owner` are `Sync` themselves.
unsafe impl Sync for CoreLock {}

impl std::fmt::Debug for CoreLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreLock")
            .field("owner", &self.owner.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Exclusive access to one core's cache for the length of one
/// [`CacheModel`] method; holds the mutex unless the thread's scope does.
struct Entered<'a> {
    cache: &'a mut CoreCache,
    _guard: Option<MutexGuard<'a, ()>>,
}

impl std::ops::Deref for Entered<'_> {
    type Target = CoreCache;
    #[inline]
    fn deref(&self) -> &CoreCache {
        self.cache
    }
}

impl std::ops::DerefMut for Entered<'_> {
    #[inline]
    fn deref_mut(&mut self) -> &mut CoreCache {
        self.cache
    }
}

impl CoreLock {
    fn new(cache: CoreCache) -> Self {
        CoreLock {
            mutex: Mutex::new(()),
            owner: AtomicUsize::new(0),
            cache: UnsafeCell::new(cache),
        }
    }

    /// Whether the calling thread's scope holds this lock. `Relaxed` is
    /// enough: a thread can read its own token here only if it stored it
    /// itself — no other live thread has that token — and it clears the
    /// word before its scope releases the mutex, so every later value it
    /// can observe is 0 or another thread's token.
    #[inline]
    fn held_by_caller(&self) -> bool {
        self.owner.load(Ordering::Relaxed) == thread_token()
    }

    /// The cache, exclusively, until the returned value drops.
    #[inline]
    fn enter(&self) -> Entered<'_> {
        let guard = if self.held_by_caller() {
            None
        } else {
            debug_assert_eq!(
                SCOPE.with(Cell::get),
                0,
                "a thread inside one core's op scope touched another core's cache"
            );
            Some(self.mutex.lock())
        };
        // SAFETY: the reference is exclusive. Either `guard` holds
        // `mutex`, or this thread's `OpScope` does: `owner` carries its
        // token (`held_by_caller`), and `OpScope` is `!Send` (it owns a
        // `MutexGuard`), so the scope is open on this very thread and no
        // other thread can be past `mutex`. Within the thread, no method
        // of `CacheModel` calls another while it holds an `Entered`
        // (`make_room` takes the `&mut CoreCache` it is given), so two
        // never coexist. A leaked scope keeps `mutex` locked for good, so
        // a later thread that reuses the token's address is still the
        // only one inside.
        let cache = unsafe { &mut *self.cache.get() };
        Entered {
            cache,
            _guard: guard,
        }
    }
}

/// RAII guard of [`CacheModel::scope`] (and
/// [`PodMemory::op_scope`](crate::PodMemory::op_scope)): while it lives,
/// the opening thread's accesses to that core's cache skip the per-access
/// lock. Empty — nothing held, nothing to release — on backends without a
/// cache model and when nested inside a scope on the same core. Released
/// on drop, unwinding included.
#[derive(Default)]
#[must_use = "the scope ends when this guard drops"]
pub struct OpScope<'a> {
    held: Option<(&'a CoreLock, MutexGuard<'a, ()>)>,
}

impl std::fmt::Debug for OpScope<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpScope")
            .field("holds_lock", &self.held.is_some())
            .finish()
    }
}

impl Drop for OpScope<'_> {
    #[inline]
    fn drop(&mut self) {
        if let Some((lock, _guard)) = &self.held {
            SCOPE.with(|scope| scope.set(0));
            lock.owner.store(0, Ordering::Relaxed);
            // `_guard` drops with the field, after the token is cleared.
        }
    }
}

/// The pod-wide cache model: one private cache per core.
///
/// By default caches are **unbounded** — maximally stale, the most
/// adversarial setting for missing flushes. A bounded capacity
/// ([`CacheModel::with_capacity`]) adds the *other* hardware behaviour:
/// silent eviction, where a dirty line is written back at an arbitrary
/// moment the software didn't choose. The allocator's single-writer
/// layout discipline must make such writebacks harmless.
#[derive(Debug)]
pub struct CacheModel {
    caches: Vec<CoreLock>,
    /// Maximum lines per core (0 = unbounded).
    capacity: usize,
    /// The count table and ring shared with the owning backend: line
    /// fills and writebacks are charged through it.
    tracer: Arc<Tracer>,
}

impl CacheModel {
    /// Creates unbounded caches for `cores` cores.
    pub fn new(cores: usize) -> Self {
        Self::with_capacity(cores, 0)
    }

    /// Creates caches holding at most `capacity` lines per core
    /// (0 = unbounded); overflowing inserts evict a pseudo-random line,
    /// writing back its dirty words.
    pub fn with_capacity(cores: usize, capacity: usize) -> Self {
        Self::with_tracer(cores, capacity, Arc::new(Tracer::new(cores)))
    }

    /// Creates caches sharing `tracer` with the owning backend, so line
    /// fills and writebacks — including *silent evictions* the software
    /// never asked for — appear in the event stream.
    pub fn with_tracer(cores: usize, capacity: usize, tracer: Arc<Tracer>) -> Self {
        // Bounded tables are sized once at ≤50% load so they never grow;
        // unbounded tables start small and double as the working set
        // warms up.
        let initial_slots = if capacity == 0 {
            256
        } else {
            (capacity * 2).next_power_of_two().max(8)
        };
        CacheModel {
            caches: (0..cores)
                .map(|i| CoreLock::new(CoreCache::new(initial_slots, i)))
                .collect(),
            capacity,
            tracer,
        }
    }

    /// Makes room for one more line: evict (bounded) or grow (unbounded)
    /// when required.
    fn make_room(&self, core: usize, cache: &mut CoreCache, segment: &Segment) {
        if self.capacity == 0 {
            // Grow at 7/8 load to keep probe clusters short.
            if (cache.len + 1) * 8 > (cache.mask + 1) * 7 {
                cache.grow();
            }
            return;
        }
        if cache.len < self.capacity {
            return;
        }
        let victim = cache.random_live_slot();
        let line = cache.slots[victim];
        if line.dirty != 0 {
            let line_addr = line.tag & !1;
            Self::write_back(segment, line_addr, &line);
            // A *silent* eviction: the software never requested this
            // writeback — exactly the event worth seeing in a trace.
            self.tracer.charge_here(core, TraceKind::Writeback, line_addr);
        }
        cache.remove_at(victim);
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.caches.len()
    }

    /// Opens an op scope on `core`: takes the core's lock once and makes
    /// every access to `core`'s cache by this thread, until the guard
    /// drops, a token compare. A scope nested inside one on the same core
    /// is empty; the outer one keeps holding.
    ///
    /// # Panics
    ///
    /// In debug builds, if the thread is inside another core's scope
    /// (the one-scope rule, module docs).
    #[inline]
    pub fn scope(&self, core: usize) -> OpScope<'_> {
        let lock = &self.caches[core];
        if lock.held_by_caller() {
            return OpScope::default();
        }
        debug_assert_eq!(
            SCOPE.with(Cell::get),
            0,
            "a thread inside one core's op scope opened another core's"
        );
        let guard = lock.mutex.lock();
        lock.owner.store(thread_token(), Ordering::Relaxed);
        SCOPE.with(|scope| scope.set(lock as *const CoreLock as usize));
        OpScope {
            held: Some((lock, guard)),
        }
    }

    #[inline]
    fn split(offset: u64) -> (u64, usize) {
        (offset & !(CACHELINE - 1), ((offset % CACHELINE) / 8) as usize)
    }

    /// A load or store miss: makes room, fills `line_addr` from the
    /// segment as a clean line and returns its slot.
    #[inline]
    fn fill(&self, core: usize, cache: &mut CoreCache, segment: &Segment, line_addr: u64) -> usize {
        self.make_room(core, cache, segment);
        let mut words = [0u64; WORDS];
        for (i, w) in words.iter_mut().enumerate() {
            *w = segment
                .atomic_u64(line_addr + i as u64 * 8)
                .load(Ordering::Acquire);
        }
        self.tracer.charge_here(core, TraceKind::LineFill, line_addr);
        let tag = line_addr | 1;
        let i = cache.insert_slot(tag);
        cache.slots[i] = Slot {
            tag,
            gen: cache.generation,
            dirty: 0,
            words,
        };
        i
    }

    #[inline]
    fn write_back(segment: &Segment, line_addr: u64, slot: &Slot) {
        for (i, &w) in slot.words.iter().enumerate() {
            if slot.dirty & (1 << i) != 0 {
                segment
                    .atomic_u64(line_addr + i as u64 * 8)
                    .store(w, Ordering::Release);
            }
        }
    }

    /// Cached load of the u64 at `offset`. Fills the line from the
    /// segment on a miss; on a hit returns the cached copy even if memory
    /// has since changed (that staleness is the point).
    ///
    /// Returns `(value, hit)`.
    #[inline]
    pub fn load(&self, core: usize, segment: &Segment, offset: u64) -> (u64, bool) {
        debug_assert_eq!(offset % 8, 0);
        let (line_addr, word) = Self::split(offset);
        let mut cache = self.caches[core].enter();
        if let Some(i) = cache.find(line_addr | 1) {
            return (cache.slots[i].words[word], true);
        }
        let i = self.fill(core, &mut cache, segment, line_addr);
        (cache.slots[i].words[word], false)
    }

    /// Cached store of the u64 at `offset` (write-allocate). The store
    /// stays private to `core` until the line is flushed.
    ///
    /// Returns `true` if the line was already present.
    #[inline]
    pub fn store(&self, core: usize, segment: &Segment, offset: u64, value: u64) -> bool {
        debug_assert_eq!(offset % 8, 0);
        let (line_addr, word) = Self::split(offset);
        let mut cache = self.caches[core].enter();
        let (i, hit) = match cache.find(line_addr | 1) {
            Some(i) => (i, true),
            None => (self.fill(core, &mut cache, segment, line_addr), false),
        };
        cache.slots[i].words[word] = value;
        cache.slots[i].dirty |= 1 << word;
        hit
    }

    /// Flushes (writes back dirty words and evicts) every line
    /// intersecting `[offset, offset + len)` from `core`'s cache.
    ///
    /// Returns the number of lines written back.
    pub fn flush(&self, core: usize, segment: &Segment, offset: u64, len: u64) -> usize {
        self.write_out(core, segment, offset, len, true)
    }

    /// Writes back every dirty line intersecting `[offset, offset + len)`
    /// from `core`'s cache *without* evicting it — clwb semantics: the
    /// line stays resident and clean, so the owner's next touch hits
    /// instead of refilling from CXL. For single-writer lines (a
    /// thread's own oplog or remote-free buffer) this is exactly as
    /// durable as [`CacheModel::flush`]; readers that need to drop a
    /// stale copy of a *shared* line must still use `flush`.
    ///
    /// Returns the number of lines written back.
    pub fn writeback(&self, core: usize, segment: &Segment, offset: u64, len: u64) -> usize {
        self.write_out(core, segment, offset, len, false)
    }

    /// The one line loop of [`CacheModel::flush`] (`evict`) and
    /// [`CacheModel::writeback`]: writes back each dirty line of the
    /// range, then drops it or keeps it clean. Returns the lines written.
    #[inline]
    pub(crate) fn write_out(
        &self,
        core: usize,
        segment: &Segment,
        offset: u64,
        len: u64,
        evict: bool,
    ) -> usize {
        let first = offset & !(CACHELINE - 1);
        let last = (offset + len.max(1) - 1) & !(CACHELINE - 1);
        let mut cache = self.caches[core].enter();
        let mut written = 0;
        for line_addr in (first..=last).step_by(CACHELINE as usize) {
            let Some(i) = cache.find(line_addr | 1) else {
                continue;
            };
            if cache.slots[i].dirty != 0 {
                let slot = cache.slots[i];
                Self::write_back(segment, line_addr, &slot);
                self.tracer.charge_here(core, TraceKind::Writeback, line_addr);
                cache.slots[i].dirty = 0;
                written += 1;
            }
            if evict {
                cache.remove_at(i);
            }
        }
        written
    }

    /// Writes back and drops every line in `core`'s cache (a full
    /// quiesce — used before validating the heap from another core).
    pub fn flush_all(&self, core: usize, segment: &Segment) {
        let mut cache = self.caches[core].enter();
        if cache.len > 0 {
            for i in 0..cache.slots.len() {
                if !cache.live(i) {
                    continue;
                }
                let slot = cache.slots[i];
                if slot.dirty != 0 {
                    Self::write_back(segment, slot.tag & !1, &slot);
                    self.tracer.charge_here(core, TraceKind::Writeback, slot.tag & !1);
                }
            }
        }
        cache.generation += 1;
        cache.len = 0;
    }

    /// Drops every line from `core`'s cache *without* writing back —
    /// models a core losing its cache contents (e.g. the crash of the
    /// thread pinned there). O(1): the generation bump invalidates every
    /// slot at once.
    pub fn discard_all(&self, core: usize) {
        let mut cache = self.caches[core].enter();
        cache.generation += 1;
        cache.len = 0;
    }

    /// The tracer whose count table this model charges its line fills
    /// and writebacks to (discarding a cache loses its lines, not its
    /// counts).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Test hook: whether `core` currently caches the line containing
    /// `offset`.
    pub fn is_cached(&self, core: usize, offset: u64) -> bool {
        let (line_addr, _) = Self::split(offset);
        self.caches[core].enter().find(line_addr | 1).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn setup() -> (Arc<Segment>, CacheModel) {
        (Arc::new(Segment::zeroed(4096).unwrap()), CacheModel::new(4))
    }

    #[test]
    fn miss_then_hit() {
        let (seg, cache) = setup();
        seg.atomic_u64(64).store(7, Ordering::SeqCst);
        let (v, hit) = cache.load(0, &seg, 64);
        assert_eq!((v, hit), (7, false));
        let (v, hit) = cache.load(0, &seg, 64);
        assert_eq!((v, hit), (7, true));
    }

    #[test]
    fn stale_read_until_refill() {
        // Core 0 caches a value; core 1 updates memory directly; core 0
        // keeps seeing the stale value until it flushes (evicts) and
        // reloads. This is the exact hazard the SWcc protocol manages.
        let (seg, cache) = setup();
        seg.atomic_u64(64).store(1, Ordering::SeqCst);
        assert_eq!(cache.load(0, &seg, 64).0, 1);
        seg.atomic_u64(64).store(2, Ordering::SeqCst);
        assert_eq!(cache.load(0, &seg, 64).0, 1, "must be stale");
        cache.flush(0, &seg, 64, 8);
        assert_eq!(cache.load(0, &seg, 64).0, 2);
    }

    #[test]
    fn store_invisible_until_flush() {
        let (seg, cache) = setup();
        cache.store(0, &seg, 64, 42);
        assert_eq!(seg.peek_u64(64), 0, "store must stay private");
        // Another core reads memory (through its own cache): sees 0.
        assert_eq!(cache.load(1, &seg, 64).0, 0);
        cache.flush(0, &seg, 64, 8);
        assert_eq!(seg.peek_u64(64), 42);
        // Core 1 still caches the stale 0 until it, too, flushes.
        assert_eq!(cache.load(1, &seg, 64).0, 0);
        cache.flush(1, &seg, 64, 8);
        assert_eq!(cache.load(1, &seg, 64).0, 42);
    }

    #[test]
    fn writeback_is_word_granular() {
        // Two cores dirty different words of the same line; both
        // writebacks must survive (no whole-line clobbering).
        let (seg, cache) = setup();
        cache.store(0, &seg, 0, 10);
        cache.store(1, &seg, 8, 20);
        cache.flush(0, &seg, 0, 8);
        cache.flush(1, &seg, 8, 8);
        assert_eq!(seg.peek_u64(0), 10);
        assert_eq!(seg.peek_u64(8), 20);
    }

    #[test]
    fn flush_range_covers_multiple_lines() {
        let (seg, cache) = setup();
        cache.store(0, &seg, 0, 1);
        cache.store(0, &seg, 64, 2);
        cache.store(0, &seg, 128, 3);
        let written = cache.flush(0, &seg, 0, 192);
        assert_eq!(written, 3);
        assert_eq!(seg.peek_u64(0), 1);
        assert_eq!(seg.peek_u64(64), 2);
        assert_eq!(seg.peek_u64(128), 3);
    }

    #[test]
    fn discard_loses_dirty_data() {
        let (seg, cache) = setup();
        cache.store(0, &seg, 64, 99);
        cache.discard_all(0);
        assert_eq!(seg.peek_u64(64), 0);
        assert!(!cache.is_cached(0, 64));
    }

    #[test]
    fn clean_flush_writes_nothing() {
        let (seg, cache) = setup();
        cache.load(0, &seg, 64);
        let written = cache.flush(0, &seg, 64, 8);
        assert_eq!(written, 0);
    }

    #[test]
    fn generation_reuse_after_discard() {
        // A line cached before discard_all must read as absent after,
        // and re-filling it must observe current memory, even though the
        // stale slot bytes are still physically in the table.
        let (seg, cache) = setup();
        cache.store(0, &seg, 64, 5);
        cache.discard_all(0);
        seg.atomic_u64(64).store(9, Ordering::SeqCst);
        let (v, hit) = cache.load(0, &seg, 64);
        assert_eq!((v, hit), (9, false));
    }

    #[test]
    fn unbounded_cache_grows_past_initial_table() {
        // Far more lines than the initial table: growth must preserve
        // every dirty word.
        let seg = Arc::new(Segment::zeroed(1 << 20).unwrap());
        let cache = CacheModel::new(1);
        let n = 4096u64;
        for i in 0..n {
            cache.store(0, &seg, i * 64, i + 1);
        }
        for i in 0..n {
            assert_eq!(cache.load(0, &seg, i * 64).0, i + 1);
        }
        assert_eq!(cache.tracer().counts().totals().count(TraceKind::Writeback), 0, "unbounded never evicts");
        cache.flush_all(0, &seg);
        for i in 0..n {
            assert_eq!(seg.peek_u64(i * 64), i + 1);
        }
    }

    #[test]
    fn flush_compacts_probe_clusters() {
        // Lines that collide into one probe cluster must all stay
        // reachable after an interior line is flushed out (backward-shift
        // deletion invariant).
        let seg = Arc::new(Segment::zeroed(1 << 20).unwrap());
        let cache = CacheModel::new(1);
        let lines: Vec<u64> = (0..64).map(|i| i * 64).collect();
        for &l in &lines {
            cache.store(0, &seg, l, l + 7);
        }
        // Remove every third line, then verify the rest still hit.
        for &l in lines.iter().step_by(3) {
            cache.flush(0, &seg, l, 8);
        }
        for (i, &l) in lines.iter().enumerate() {
            if i % 3 == 0 {
                assert!(!cache.is_cached(0, l));
            } else {
                let (v, hit) = cache.load(0, &seg, l);
                assert!(hit, "line {l:#x} lost by deletion compaction");
                assert_eq!(v, l + 7);
            }
        }
    }
}

#[cfg(test)]
mod eviction_tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn bounded_cache_evicts_and_writes_back() {
        let seg = Arc::new(Segment::zeroed(1 << 16).unwrap());
        let cache = CacheModel::with_capacity(1, 4);
        // Dirty 10 distinct lines; with 4 slots, at least 6 evictions
        // must have written back.
        for i in 0..10u64 {
            cache.store(0, &seg, i * 64, i + 1);
        }
        let writebacks = cache.tracer().counts().totals().count(TraceKind::Writeback);
        assert!(writebacks >= 6, "writebacks={writebacks}");
        // Everything evicted is durable; everything cached is not yet.
        let mut durable = 0;
        for i in 0..10u64 {
            if seg.peek_u64(i * 64) == i + 1 {
                durable += 1;
            }
        }
        assert!(durable >= 6);
        // A full flush drains the rest.
        cache.flush(0, &seg, 0, 10 * 64);
        for i in 0..10u64 {
            assert_eq!(seg.peek_u64(i * 64), i + 1);
        }
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let seg = Arc::new(Segment::zeroed(1 << 16).unwrap());
        let cache = CacheModel::new(1);
        for i in 0..100u64 {
            cache.store(0, &seg, i * 64, 1);
        }
        assert_eq!(cache.tracer().counts().totals().count(TraceKind::Writeback), 0);
    }

    #[test]
    fn bounded_cache_stays_within_capacity() {
        let seg = Arc::new(Segment::zeroed(1 << 16).unwrap());
        let cache = CacheModel::with_capacity(1, 4);
        for i in 0..64u64 {
            cache.store(0, &seg, i * 64, i + 1);
        }
        let resident = (0..64u64).filter(|&i| cache.is_cached(0, i * 64)).count();
        assert!(resident <= 4, "resident={resident}");
    }
}
