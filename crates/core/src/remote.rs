//! Batched remote frees (hot-path amortization).
//!
//! [`RemoteFreeBuffer`] is *per-thread DRAM state* riding on the
//! [`ThreadHandle`](crate::ThreadHandle), like the first-fit rovers
//! (`rover.rs`): a small table of *pending* remote frees keyed by
//! `(heap, slab)`. The paper's §3.2.1 protocol pays one
//! detectable mCAS on the slab's HWcc counter per freed block; the
//! buffer accumulates up to `remote_free_batch` frees against one slab
//! and publishes them with a *single* detectable CAS that decrements the
//! counter by *k* (the batch width travels in the oplog record's `b`
//! byte so recovery can redo exactly the undelivered decrement).
//! Crash-equivalence: a batched decrement-by-k is indistinguishable from
//! k eager decrements that were all delayed to the publish instant; the
//! counter can never reach zero while frees sit in the buffer (each
//! buffered free holds one of the counter's remaining credits), so no
//! steal or slab reinitialization can race the buffered state. In
//! recoverable mode the buffer is mirrored word-for-word into a
//! per-thread *durable header line* at the segment tail (the [`durable`]
//! module): every buffered free durably records the slab's new pending
//! count, and a publish durably clears the slab's word *before* issuing
//! its CAS. Recovery scans a dead thread's line and republishes every
//! surviving batch, so buffered-but-unpublished frees are no longer lost
//! (the pre-PR-5 `SLOTS × (batch-1)` bounded leak is gone).

use crate::error::HeapKind;
use std::cell::Cell;

/// Slots in the pending-free table. Remote-free traffic concentrates on
/// few producer slabs at a time; eviction publishes early, so this only
/// bounds worst-case buffering, not correctness.
const SLOTS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// `(kind_tag << 32) | (slab + 1)`; 0 marks an empty slot.
    key: u64,
    /// Frees buffered against the slab, ≥ 1 for occupied slots.
    pending: u32,
}

const EMPTY: Entry = Entry { key: 0, pending: 0 };

fn kind_tag(kind: HeapKind) -> u64 {
    match kind {
        HeapKind::Small => 1,
        HeapKind::Large => 2,
        HeapKind::Huge => unreachable!("huge allocations have no slab counters"),
    }
}

fn key_of(kind: HeapKind, slab: u32) -> u64 {
    (kind_tag(kind) << 32) | (slab as u64 + 1)
}

fn decode(key: u64) -> (HeapKind, u32) {
    let kind = match key >> 32 {
        1 => HeapKind::Small,
        2 => HeapKind::Large,
        tag => unreachable!("corrupt buffer key tag {tag}"),
    };
    (kind, (key as u32) - 1)
}

/// Per-thread bounded buffer of pending (unpublished) remote frees.
///
/// Interior-mutable and `!Sync` by construction (like `Rovers`): it
/// belongs to exactly one thread.
#[derive(Debug)]
pub(crate) struct RemoteFreeBuffer {
    entries: [Cell<Entry>; SLOTS],
}

impl RemoteFreeBuffer {
    pub fn new() -> Self {
        RemoteFreeBuffer {
            entries: [const { Cell::new(EMPTY) }; SLOTS],
        }
    }

    /// Frees currently buffered against `(kind, slab)`.
    pub fn pending(&self, kind: HeapKind, slab: u32) -> u32 {
        let key = key_of(kind, slab);
        self.entries
            .iter()
            .find(|e| e.get().key == key)
            .map_or(0, |e| e.get().pending)
    }

    /// Records one more pending free against `(kind, slab)`. Returns the
    /// slab's new pending count, plus — when the table was full and a
    /// victim had to make room — the evicted `(kind, slab, pending)`
    /// entry, which the caller must publish.
    pub fn note(&self, kind: HeapKind, slab: u32) -> (u32, Option<(HeapKind, u32, u32)>) {
        let key = key_of(kind, slab);
        let mut free: Option<usize> = None;
        for (i, slot) in self.entries.iter().enumerate() {
            let e = slot.get();
            if e.key == key {
                let pending = e.pending + 1;
                slot.set(Entry { key, pending });
                return (pending, None);
            }
            if e.key == 0 && free.is_none() {
                free = Some(i);
            }
        }
        if let Some(i) = free {
            self.entries[i].set(Entry { key, pending: 1 });
            return (1, None);
        }
        // Full: evict the fullest entry (deterministically — ties go to
        // the lowest index) so the publish it forces amortizes best.
        let victim = self
            .entries
            .iter()
            .enumerate()
            .max_by_key(|(i, e)| (e.get().pending, usize::MAX - i))
            .expect("SLOTS > 0")
            .0;
        let evicted = self.entries[victim].get();
        self.entries[victim].set(Entry { key, pending: 1 });
        let (ekind, eslab) = decode(evicted.key);
        (1, Some((ekind, eslab, evicted.pending)))
    }

    /// Takes back the last [`RemoteFreeBuffer::note`] of `(kind, slab)`
    /// (a lost claim): the re-notes fill the slot the take emptied.
    pub fn unnote(&self, kind: HeapKind, slab: u32) {
        for _ in 1..self.take(kind, slab) {
            self.note(kind, slab);
        }
    }

    /// Removes the entry for `(kind, slab)`, returning its pending count
    /// (0 if absent). Called immediately before publishing so a crash
    /// mid-publish cannot double-publish the batch.
    pub fn take(&self, kind: HeapKind, slab: u32) -> u32 {
        let key = key_of(kind, slab);
        for slot in &self.entries {
            let e = slot.get();
            if e.key == key {
                slot.set(EMPTY);
                return e.pending;
            }
        }
        0
    }

    /// Removes and returns any occupied entry (drain iteration).
    pub fn take_any(&self) -> Option<(HeapKind, u32, u32)> {
        for slot in &self.entries {
            let e = slot.get();
            if e.key != 0 {
                slot.set(EMPTY);
                let (kind, slab) = decode(e.key);
                return Some((kind, slab, e.pending));
            }
        }
        None
    }

    /// Whether nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.iter().all(|e| e.get().key == 0)
    }
}

/// Durable mirror of the [`RemoteFreeBuffer`]: one cacheline (8 words,
/// matching `SLOTS`) per thread at
/// [`Layout::remote_buf`](cxl_pod::Layout::remote_buf).
///
/// Each occupied word packs `key | pending << 34` with the same
/// `(kind_tag << 32) | (slab + 1)` key encoding as the DRAM buffer; a
/// zero word is an empty slot. The maintenance protocol keeps one
/// invariant recovery can rely on: **a publish CAS can only land after
/// the slab's durable word was durably cleared** (the clear's
/// store+flush+fence precedes the CAS, both ordered after the oplog
/// record). A dead thread's line therefore holds exactly the batches
/// whose decrements never reached the HWcc counter — except possibly
/// the one batch named by the thread's logged `RemoteFree*` record,
/// which the logged redo already applies and recovery's scan must skip.
pub(crate) mod durable {
    use super::{key_of, HeapKind, SLOTS};
    use crate::ctx::Ctx;
    use cxl_pod::{PodMemory, CACHELINE};

    const KEY_BITS: u32 = 34;
    const KEY_MASK: u64 = (1 << KEY_BITS) - 1;

    /// Words per durable header line; mirrors the DRAM buffer 1:1.
    pub(crate) const WORDS: u32 = (CACHELINE / 8) as u32;
    const _: () = assert!(WORDS as usize == SLOTS);

    /// Packs an occupied durable word.
    pub(crate) fn pack(kind: HeapKind, slab: u32, pending: u32) -> u64 {
        key_of(kind, slab) | ((pending as u64) << KEY_BITS)
    }

    /// Unpacks a durable word; `None` for empty (or unrecognizable)
    /// words.
    pub(crate) fn unpack(word: u64) -> Option<(HeapKind, u32, u32)> {
        let key = word & KEY_MASK;
        let kind = match key >> 32 {
            1 => HeapKind::Small,
            2 => HeapKind::Large,
            _ => return None,
        };
        Some((kind, (key as u32).wrapping_sub(1), (word >> KEY_BITS) as u32))
    }

    /// Offset of word `i` in `ctx.tid`'s durable header line.
    pub(crate) fn word_at<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, i: u32) -> u64 {
        ctx.mem.layout().remote_buf_word_at(ctx.tid.slot(), i)
    }

    /// Durably records `pending` buffered frees against `(kind, slab)`
    /// in `ctx.tid`'s line: store + flush + fence. The line always has
    /// room because it mirrors the bounded DRAM buffer slot-for-slot.
    pub(crate) fn record<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, kind: HeapKind, slab: u32, pending: u32) {
        let off = slot_for(ctx, key_of(kind, slab));
        ctx.mem.store_u64(ctx.core, off, pack(kind, slab, pending));
        // clwb: this is the thread's own durable line, rewritten on
        // every buffered free — retaining it keeps `slot_for`'s scan of
        // the line's words hitting in cache. Recovery (the only other
        // reader) flushes its own copy before reading.
        ctx.mem.writeback(ctx.core, off, 8);
        ctx.mem.fence(ctx.core);
    }

    /// Durably raises `(kind, slab)`'s pending count in `ctx.tid`'s line
    /// to at least `pending` (recovery of a claimed buffered free, whose
    /// record store may have died; later unlogged frees only raised it).
    pub(crate) fn raise<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, kind: HeapKind, slab: u32, pending: u32) {
        ctx.mem.flush(ctx.core, ctx.mem.layout().remote_buf_at(ctx.tid.slot()), CACHELINE);
        ctx.mem.fence(ctx.core);
        let off = slot_for(ctx, key_of(kind, slab));
        if unpack(ctx.mem.load_u64(ctx.core, off)).is_none_or(|(.., have)| have < pending) {
            record(ctx, kind, slab, pending);
        }
    }

    /// Durably clears the word for `(kind, slab)` in `ctx.tid`'s line;
    /// a no-op when absent (retried publish iterations, eager paths).
    pub(crate) fn clear<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, kind: HeapKind, slab: u32) {
        let key = key_of(kind, slab);
        for i in 0..WORDS {
            let off = word_at(ctx, i);
            if ctx.mem.load_u64(ctx.core, off) & KEY_MASK == key {
                clear_word(ctx, off);
                return;
            }
        }
    }

    /// Durably zeroes the word at `off`.
    pub(crate) fn clear_word<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, off: u64) {
        ctx.mem.store_u64(ctx.core, off, 0);
        ctx.mem.writeback(ctx.core, off, 8);
        ctx.mem.fence(ctx.core);
    }

    /// The word currently keyed `key`, or the first empty slot.
    fn slot_for<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, key: u64) -> u64 {
        let mut free = None;
        for i in 0..WORDS {
            let off = word_at(ctx, i);
            let k = ctx.mem.load_u64(ctx.core, off) & KEY_MASK;
            if k == key {
                return off;
            }
            if k == 0 && free.is_none() {
                free = Some(off);
            }
        }
        free.expect("durable line mirrors the bounded buffer; a slot is always free")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_accumulates_per_slab() {
        let buf = RemoteFreeBuffer::new();
        assert!(buf.is_empty());
        assert_eq!(buf.note(HeapKind::Small, 3), (1, None));
        assert_eq!(buf.note(HeapKind::Small, 3), (2, None));
        assert_eq!(buf.note(HeapKind::Large, 3), (1, None), "kinds are distinct keys");
        assert_eq!(buf.pending(HeapKind::Small, 3), 2);
        assert_eq!(buf.take(HeapKind::Small, 3), 2);
        assert_eq!(buf.pending(HeapKind::Small, 3), 0);
        assert_eq!(buf.take(HeapKind::Small, 3), 0, "take is idempotent");
        assert!(!buf.is_empty(), "large entry remains");
    }

    #[test]
    fn full_buffer_evicts_fullest_entry() {
        let buf = RemoteFreeBuffer::new();
        for slab in 0..SLOTS as u32 {
            buf.note(HeapKind::Small, slab);
        }
        buf.note(HeapKind::Small, 5);
        buf.note(HeapKind::Small, 5); // slab 5 now has pending 3
        let (count, evicted) = buf.note(HeapKind::Small, 100);
        assert_eq!(count, 1);
        assert_eq!(evicted, Some((HeapKind::Small, 5, 3)));
        assert_eq!(buf.pending(HeapKind::Small, 100), 1);
        assert_eq!(buf.pending(HeapKind::Small, 5), 0);
    }

    #[test]
    fn drain_visits_every_entry() {
        let buf = RemoteFreeBuffer::new();
        buf.note(HeapKind::Small, 1);
        buf.note(HeapKind::Small, 1);
        buf.note(HeapKind::Large, 2);
        let mut drained = Vec::new();
        while let Some(e) = buf.take_any() {
            drained.push(e);
        }
        drained.sort_by_key(|&(kind, slab, _)| (kind_tag(kind), slab));
        assert_eq!(
            drained,
            vec![(HeapKind::Small, 1, 2), (HeapKind::Large, 2, 1)]
        );
        assert!(buf.is_empty());
    }
}
