//! Per-thread recovery logs.
//!
//! Cxlalloc recovers without scanning the heap: before each structural
//! operation, the thread atomically updates 8 bytes of state in place,
//! "like a single-element redo log" (paper §1, §3.4.2). On recovery, the
//! log word identifies the interrupted operation and carries enough
//! information to redo it idempotently.
//!
//! Each thread owns one cacheline in the segment's log region:
//!
//! ```text
//! word 0: the LogWord (op, operands, dcas version low bits)
//! word 1: the thread's full 64-bit dcas version counter
//! words 2–6: auxiliary operands (huge-heap offsets are 64-bit)
//! word 7: the dirty-list mask (DIRTY_WORD)
//! ```
//!
//! The log is single-writer. Writes are flushed and fenced before the
//! operation proceeds so the log in CXL memory is always at least as new
//! as any visible effect of the operation; a crashed thread's unflushed
//! cache contents are lost, but then so are the operation's effects.
//!
//! The dirty-list mask has one bit per private free list of the thread
//! ([`SlabHeap::list_bit`](crate::slab::SlabHeap::list_bit)). The owner
//! sets a sized list's bit before the first op that edits the list since
//! its last flush point, and the bit rides to CXL memory on that op's
//! `begin` writeback. Recovery sanitizes only the lists the mask names
//! (plus the ones it always walks); the mask is cleared where the
//! thread's whole cache was just made durable (DESIGN.md §6). The mask
//! stays 0 on a coherent pod (`HwccMode::Full`), where every store is
//! durable as it is made.

use crate::cell::LogWord;
use cxl_pod::{CoreId, PodMemory};

/// Number of auxiliary operand words available per entry.
pub const AUX_WORDS: usize = 5;

/// The log-line word that holds the thread's dirty-list mask (always 0
/// on a coherent pod).
pub const DIRTY_WORD: u32 = 7;

/// Handle to one thread's recovery log line.
pub struct OpLog<'m, M: PodMemory + ?Sized> {
    mem: &'m M,
    slot: u32,
    /// When false (the `cxlalloc-nonrecoverable` ablation), `begin` and
    /// `clear` are no-ops; `bump_version` still counts so detectable-CAS
    /// cells stay ABA-safe.
    enabled: bool,
}

// Not derived: a derive would demand `M: Copy`, and the handle only
// holds a reference.
impl<M: PodMemory + ?Sized> Clone for OpLog<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: PodMemory + ?Sized> Copy for OpLog<'_, M> {}

impl<M: PodMemory + ?Sized> std::fmt::Debug for OpLog<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpLog").field("slot", &self.slot).finish()
    }
}

/// A decoded log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry {
    /// The operation word.
    pub word: LogWord,
    /// The thread's full version counter at entry time.
    pub version_counter: u64,
    /// Auxiliary operands.
    pub aux: [u64; AUX_WORDS],
    /// The dirty-list mask.
    pub dirty: u64,
}

impl<'m, M: PodMemory + ?Sized> OpLog<'m, M> {
    /// Creates a handle for thread slot `slot`.
    pub fn new(mem: &'m M, slot: u32) -> Self {
        Self::with_options(mem, slot, true)
    }

    /// Creates a handle, optionally inert (the `cxlalloc-nonrecoverable`
    /// ablation).
    pub fn with_options(mem: &'m M, slot: u32, enabled: bool) -> Self {
        OpLog { mem, slot, enabled }
    }

    #[inline(always)]
    fn word_off(&self) -> u64 {
        self.mem.layout().log_at(self.slot)
    }

    /// Publishes a log entry: auxiliary words first, the operation word
    /// last, then flush + fence so the entry is durable in CXL memory
    /// before the operation's first shared-state effect.
    #[inline(always)]
    pub fn begin(&self, core: CoreId, word: LogWord, aux: &[u64]) {
        debug_assert!(aux.len() <= AUX_WORDS);
        if !self.enabled {
            return;
        }
        let layout = self.mem.layout();
        for (i, &value) in aux.iter().enumerate() {
            self.mem
                .store_u64(core, layout.log_aux_at(self.slot, i as u32 + 2), value);
        }
        self.mem.store_u64(core, self.word_off(), word.pack());
        // clwb, not clflush: the log line is single-writer and the very
        // next operation rewrites it, so durability must not cost the
        // owner a refill (the version counter on the same line is read
        // again by the next `bump_version`).
        self.mem.writeback(core, self.word_off(), 64);
        self.mem.fence(core);
    }

    /// Clears the log to idle (operation completed), durably.
    #[inline]
    pub fn clear(&self, core: CoreId) {
        if !self.enabled {
            return;
        }
        self.mem.store_u64(core, self.word_off(), LogWord::IDLE.pack());
        self.mem.writeback(core, self.word_off(), 8);
        self.mem.fence(core);
    }

    /// Bumps and durably stores the thread's dcas version counter,
    /// returning the new version's low 16 bits.
    ///
    /// Called *before* [`OpLog::begin`] for operations that perform a
    /// detectable CAS, so recovery knows which version the pending CAS
    /// used.
    pub fn bump_version(&self, core: CoreId) -> u16 {
        let layout = self.mem.layout();
        let off = layout.log_aux_at(self.slot, 1);
        let next = self.mem.load_u64(core, off).wrapping_add(1);
        self.mem.store_u64(core, off, next);
        // Durability of the counter rides on the `begin` flush that
        // always follows; the counter word shares the log cacheline.
        next as u16
    }

    /// Stores the dirty-list mask. A plain store: it becomes durable with
    /// the next [`OpLog::begin`]'s writeback of the line, which precedes
    /// the op's first list edit.
    pub fn set_dirty(&self, core: CoreId, mask: u64) {
        if self.enabled {
            let off = self.mem.layout().log_aux_at(self.slot, DIRTY_WORD);
            self.mem.store_u64(core, off, mask);
        }
    }

    /// Clears the dirty-list mask durably. Call only once every list edit
    /// the mask covered is durable (after a whole-cache flush + fence):
    /// the clear must not reach CXL memory before them.
    pub fn clear_dirty(&self, core: CoreId) {
        if self.enabled {
            let off = self.mem.layout().log_aux_at(self.slot, DIRTY_WORD);
            self.mem.store_u64(core, off, 0);
            self.mem.flush(core, off, 8);
            self.mem.fence(core);
        }
    }

    /// Reads the current entry. The reader flushes its own cache first so
    /// a *recovering* core (different from the crashed one) sees the
    /// durable state, not a stale cached line.
    pub fn read(&self, core: CoreId) -> LogEntry {
        let layout = self.mem.layout();
        self.mem.flush(core, self.word_off(), 64);
        let word = LogWord::unpack(self.mem.load_u64(core, self.word_off()));
        let version_counter = self.mem.load_u64(core, layout.log_aux_at(self.slot, 1));
        let mut aux = [0u64; AUX_WORDS];
        for (i, slot) in aux.iter_mut().enumerate() {
            *slot = self
                .mem
                .load_u64(core, layout.log_aux_at(self.slot, i as u32 + 2));
        }
        LogEntry {
            word,
            version_counter,
            aux,
            dirty: self.mem.load_u64(core, layout.log_aux_at(self.slot, DIRTY_WORD)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{HwccMode, Pod, PodConfig};

    #[test]
    fn begin_read_clear_roundtrip() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let log = OpLog::new(pod.memory().as_ref(), 3);
        let core = CoreId(0);
        let word = LogWord {
            op: 2,
            a: 77,
            b: 4,
            c: 9,
        };
        log.begin(core, word, &[111, 222]);
        let entry = log.read(core);
        assert_eq!(entry.word, word);
        assert_eq!(entry.aux[0], 111);
        assert_eq!(entry.aux[1], 222);
        log.clear(core);
        assert_eq!(log.read(core).word, LogWord::IDLE);
        // Aux words survive the clear (only the op word resets).
        assert_eq!(log.read(core).aux[0], 111);
    }

    #[test]
    fn version_counter_increments() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let log = OpLog::new(pod.memory().as_ref(), 0);
        let core = CoreId(0);
        assert_eq!(log.bump_version(core), 1);
        assert_eq!(log.bump_version(core), 2);
        log.begin(core, LogWord::IDLE, &[]);
        assert_eq!(log.read(core).version_counter, 2);
    }

    #[test]
    fn logs_are_per_thread() {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let mem = pod.memory().as_ref();
        let core = CoreId(0);
        let a = OpLog::new(mem, 0);
        let b = OpLog::new(mem, 1);
        a.begin(core, LogWord {
            op: 1,
            a: 0,
            b: 0,
            c: 0,
        }, &[]);
        assert_eq!(b.read(core).word, LogWord::IDLE);
    }

    #[test]
    fn clear_survives_a_discarded_cache() {
        let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
        let mem = pod.memory().as_ref();
        let sim = mem.as_any().downcast_ref::<cxl_pod::SimMemory>().unwrap();
        let log = OpLog::new(mem, 0);
        log.begin(CoreId(0), LogWord { op: 5, a: 1, b: 2, c: 3 }, &[]);
        log.clear(CoreId(0));
        sim.cache().discard_all(0);
        assert_eq!(log.read(CoreId(1)).word, LogWord::IDLE);
    }

    #[test]
    fn dirty_mask_rides_on_the_next_begin_and_clears_durably() {
        let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
        let mem = pod.memory().as_ref();
        let sim = mem.as_any().downcast_ref::<cxl_pod::SimMemory>().unwrap();
        let log = OpLog::new(mem, 0);
        let word = LogWord { op: 5, a: 1, b: 2, c: 3 };
        log.set_dirty(CoreId(0), 0b101);
        sim.cache().discard_all(0);
        assert_eq!(log.read(CoreId(1)).dirty, 0, "a plain store until the next begin");
        log.set_dirty(CoreId(0), 0b101);
        log.begin(CoreId(0), word, &[9; AUX_WORDS]);
        sim.cache().discard_all(0);
        let entry = log.read(CoreId(1));
        assert_eq!((entry.word, entry.dirty), (word, 0b101), "the widest aux leaves the mask alone");
        log.clear_dirty(CoreId(0));
        sim.cache().discard_all(0);
        assert_eq!(log.read(CoreId(1)).dirty, 0);
    }

    #[test]
    fn durable_across_simulated_crash() {
        // In Limited mode, a log entry written + flushed by core 0 must
        // be visible to a recovering core 1 even after core 0's cache is
        // discarded (crash).
        let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
        let mem = pod.memory().as_ref();
        let log = OpLog::new(mem, 0);
        let word = LogWord {
            op: 5,
            a: 42,
            b: 1,
            c: 2,
        };
        log.begin(CoreId(0), word, &[7]);
        // Crash: core 0 loses its cache.
        let sim = mem
            .as_any()
            .downcast_ref::<cxl_pod::SimMemory>()
            .unwrap();
        sim.cache().discard_all(0);
        // Recovery from core 1.
        let entry = log.read(CoreId(1));
        assert_eq!(entry.word, word);
        assert_eq!(entry.aux[0], 7);
    }
}
