//! Flat-combining publication of contended remote-free batches.
//!
//! Remote frees against a hot slab all CAS the same HWcc counter line;
//! under heavy sharing (many hosts freeing into one producer's slabs)
//! the retry traffic dominates the publish path. This module adds a
//! *flat-combining* layer on top of the batched publish protocol of
//! `crate::remote`: a thread that wants to publish a batch first
//! *posts* it to its own per-thread **combiner-request word** (one
//! 8-byte cell per thread slot in the [`Layout::comb`](cxl_pod::Layout)
//! tail region), then races to claim its own request. The claim winner
//! scans the other slots' words, claims every posted request against
//! the *same* slab, and publishes the combined decrement with a single
//! detectable CAS — one counter RMW where there would have been up to
//! [`MAX_CLAIM`].
//!
//! The request words are accessed through direct segment atomics (like
//! the detectable-allocation destination cell), so every transition is
//! durable by construction and the protocol is crash-recoverable:
//!
//! * A word in **POSTED** or **CLAIMED** state durably names a batch
//!   whose decrement has *not* landed; recovery republishes it.
//! * The combined publish is logged (`Op::RemoteFreeComb`) with the
//!   claimed slots packed into the record's aux word, so an interrupted
//!   combined CAS is redone exactly once and every contributor's word
//!   is released (DONE-marked) by recovery.
//! * A waiter whose winner crashes is never wedged: the wait loop is
//!   deadline-bound and surfaces
//!   [`AllocError::CombinerStalled`](crate::AllocError);
//!   the stalled batch stays in the winner's custody (its recovery
//!   publishes it) and the waiter's later publications take the direct
//!   path until the word is released.
//!
//! Combining is *contention-adaptive*: a per-thread `Combiner`
//! governor samples the CAS-retry rate of the publish path and only
//! routes batches through the combining protocol when retries are
//! actually happening, so uncontended (1–2 host) latency is the plain
//! direct path. The governor also widens the effective batch width
//! under contention (up to the 255-wide oplog field), narrowing again
//! when the retry rate subsides.

use crate::ctx::Ctx;
use crate::error::{AllocError, HeapKind};
use crate::slab::SlabHeap;
use cxl_pod::PodMemory;
use std::cell::Cell;
use std::sync::atomic::Ordering;

/// Crash-point labels on the combined publish path, kept separate from
/// [`crate::slab::CRASH_POINTS`] (like
/// [`crate::slab::BATCH_CRASH_POINTS`]) so schedule generation is
/// unperturbed for configurations that never combine.
pub const COMB_CRASH_POINTS: &[&str] = &[
    "comb::publish::after_post",
    "comb::publish::after_claim",
    "comb::publish::after_log",
    "comb::publish::after_cas",
    "comb::publish::after_done",
];

/// Most requests one combined publish may merge, including the
/// winner's own (the claimed slots must pack into one 64-bit oplog aux
/// word as four 16-bit `slot + 1` fields).
pub const MAX_CLAIM: usize = 4;

/// Spins a waiter burns on its claimed word before declaring the
/// winner stalled. Bounded so a crashed winner can never wedge a
/// waiter; generous enough that a live winner's scan + log + CAS +
/// DONE-mark sequence always fits.
const WAIT_SPINS: u32 = 1 << 22;

/// Publishes per governor window; retry rates are evaluated (and the
/// combining toggle / batch boost adjusted) once per window.
const GOVERNOR_WINDOW: u64 = 32;

/// Request-word states (bits 0–1).
const EMPTY: u64 = 0;
const POSTED: u64 = 1;
const CLAIMED: u64 = 2;
const DONE: u64 = 3;

const STATE_MASK: u64 = 0b11;
const KIND_SHIFT: u32 = 2;
const SLAB_SHIFT: u32 = 4;
const SLAB_MASK: u64 = (1 << 28) - 1;
const K_SHIFT: u32 = 32;
const K_MASK: u64 = 0xFF;
const WINNER_SHIFT: u32 = 40;

fn kind_tag(kind: HeapKind) -> u64 {
    match kind {
        HeapKind::Small => 1,
        HeapKind::Large => 2,
        HeapKind::Huge => unreachable!("huge allocations have no slab counters"),
    }
}

/// Packs a request word: `state | kind | slab | k | winner`.
fn pack(state: u64, kind: HeapKind, slab: u32, k: u32, winner: u16) -> u64 {
    debug_assert!(k <= 255);
    state
        | (kind_tag(kind) << KIND_SHIFT)
        | ((slab as u64 & SLAB_MASK) << SLAB_SHIFT)
        | ((k as u64 & K_MASK) << K_SHIFT)
        | ((winner as u64) << WINNER_SHIFT)
}

pub(crate) fn state(word: u64) -> u64 {
    word & STATE_MASK
}

/// The DONE state value, for recovery's state dispatch.
pub(crate) const DONE_STATE: u64 = DONE;

/// Whether the word names a batch in any lifecycle state (POSTED,
/// CLAIMED, or DONE — everything but EMPTY).
pub(crate) fn state_nonempty(word: u64) -> bool {
    state(word) != EMPTY
}

pub(crate) fn kind_of(word: u64) -> Option<HeapKind> {
    match (word >> KIND_SHIFT) & STATE_MASK {
        1 => Some(HeapKind::Small),
        2 => Some(HeapKind::Large),
        _ => None,
    }
}

pub(crate) fn slab_of(word: u64) -> u32 {
    ((word >> SLAB_SHIFT) & SLAB_MASK) as u32
}

pub(crate) fn k_of(word: u64) -> u32 {
    ((word >> K_SHIFT) & K_MASK) as u32
}

pub(crate) fn winner_of(word: u64) -> u16 {
    (word >> WINNER_SHIFT) as u16
}

pub(crate) fn is_pending(word: u64) -> bool {
    matches!(state(word), POSTED | CLAIMED)
}

pub(crate) fn is_claimed_by(word: u64, tid_raw: u16) -> bool {
    state(word) == CLAIMED && winner_of(word) == tid_raw
}

pub(crate) fn is_posted(word: u64) -> bool {
    state(word) == POSTED
}

/// DONE word preserving the contributor's batch identity (released by
/// the contributor's next publish attempt, or audited as published).
pub(crate) fn done_word(word: u64, winner: u16) -> u64 {
    pack(
        DONE,
        kind_of(word).expect("DONE-marking a word without a kind tag"),
        slab_of(word),
        k_of(word),
        winner,
    )
}

/// Per-thread combining state (DRAM, single-writer, like the
/// descriptor shadow): the contention governor plus a mirror of the
/// thread's own request word.
#[derive(Debug)]
pub(crate) struct Combiner {
    /// Whether the attach options permit combining at all.
    permitted: bool,
    /// Governor decision: route publishes through the combiner.
    engaged: Cell<bool>,
    /// Governor-widened effective batch width (0 = no widening).
    boost: Cell<u32>,
    /// Publishes in the current governor window.
    publishes: Cell<u64>,
    /// Publish-path CAS retries in the current window.
    retries: Cell<u64>,
    /// DRAM mirror of the thread's own request word's (kind, slab)
    /// while it is non-EMPTY. While set, further frees against that
    /// slab must take the eager direct path (no durable `remote_buf`
    /// record), so the slab never has two durable batch representations
    /// and recovery's dedup rule stays a pure skip.
    in_flight: Cell<Option<(HeapKind, u32)>>,
}

impl Combiner {
    pub fn new(permitted: bool) -> Self {
        Combiner {
            permitted,
            engaged: Cell::new(false),
            boost: Cell::new(0),
            publishes: Cell::new(0),
            retries: Cell::new(0),
            in_flight: Cell::new(None),
        }
    }

    /// Whether the next publish should go through the combiner.
    pub fn should_combine(&self) -> bool {
        self.permitted && self.engaged.get()
    }

    /// The governor's effective batch width given the configured one.
    pub fn effective_batch(&self, configured: u32) -> u32 {
        configured.max(self.boost.get()).clamp(1, 255)
    }

    /// Whether frees to `(kind, slab)` must bypass buffering because
    /// the thread's own request word currently names that slab.
    pub fn blocks_buffering(&self, kind: HeapKind, slab: u32) -> bool {
        self.in_flight.get() == Some((kind, slab))
    }

    pub fn set_in_flight(&self, kind: HeapKind, slab: u32) {
        self.in_flight.set(Some((kind, slab)));
    }

    pub fn clear_in_flight(&self) {
        self.in_flight.set(None);
    }

    /// Counts one publish-path CAS retry toward the current window.
    pub fn note_retry(&self) {
        self.retries.set(self.retries.get() + 1);
    }

    /// Pins the governor: `boost > 0` engages combining at that batch
    /// boost, `0` disengages. Bypasses the windowed retry sampling — a
    /// deterministic knob for tests and benchmarks (the governor keeps
    /// adjusting from subsequent windows as usual).
    pub fn force(&self, boost: u32) {
        if boost > 0 && self.permitted {
            self.engaged.set(true);
            self.boost.set(boost.min(255));
        } else {
            self.engaged.set(false);
            self.boost.set(0);
        }
    }

    /// Counts one publish and, at window boundaries, re-evaluates the
    /// combining toggle and batch boost from the observed retry rate.
    pub fn note_publish(&self) {
        let n = self.publishes.get() + 1;
        if n < GOVERNOR_WINDOW {
            self.publishes.set(n);
            return;
        }
        let retries = self.retries.get();
        self.publishes.set(0);
        self.retries.set(0);
        if !self.permitted {
            return;
        }
        if retries * 4 >= GOVERNOR_WINDOW {
            // ≥ 25% of publishes retried: engage combining and widen
            // the batch (doubling, capped at the oplog field width).
            self.engaged.set(true);
            self.boost.set((self.boost.get().max(1) * 2).min(255));
        } else if retries * 16 <= GOVERNOR_WINDOW {
            // ≤ ~6%: narrow; fully quiet windows disengage so the
            // uncontended path pays nothing.
            let boost = self.boost.get() / 2;
            self.boost.set(boost);
            if boost < 2 {
                self.engaged.set(false);
            }
        }
    }
}

fn word_at<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, slot: u32) -> u64 {
    ctx.mem.layout().comb_at(slot)
}

fn load<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, off: u64) -> u64 {
    ctx.mem.segment().atomic_u64(off).load(Ordering::SeqCst)
}

fn store<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, off: u64, word: u64) {
    ctx.mem.segment().atomic_u64(off).store(word, Ordering::SeqCst);
}

fn cas<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, off: u64, current: u64, new: u64) -> bool {
    ctx.mem
        .segment()
        .atomic_u64(off)
        .compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// Publishes `k` buffered remote frees against `slab` through the
/// combining protocol. Falls back to the direct publish when the
/// thread's request word is busy (a previous batch still in a stalled
/// winner's custody).
///
/// # Errors
///
/// [`AllocError::CombinerStalled`] when another thread claimed this
/// batch and went silent past the wait deadline. The frees are in the
/// winner's custody (durably, in this thread's request word) and will
/// be published by the winner or its recovery — they are not lost, and
/// the caller must not republish them.
pub(crate) fn publish_combined<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    comb: &Combiner,
    slab: u32,
    k: u32,
) -> Result<(), AllocError> {
    let me = ctx.tid.slot();
    let my_off = word_at(ctx, me);
    let current = load(ctx, my_off);
    match state(current) {
        DONE => {
            // A previous batch the waiter never saw complete (stall
            // timeout, then the winner or its recovery finished):
            // release the word and fall through to post.
            store(ctx, my_off, EMPTY);
            comb.clear_in_flight();
        }
        CLAIMED | POSTED => {
            // Still in a (stalled) winner's custody: publish this new
            // batch directly; the word stays theirs to release.
            heap.publish_remote_frees(ctx, slab, k);
            return Ok(());
        }
        _ => {}
    }
    // Post the batch durably, then retire its remote_buf word: between
    // the two stores both durably name the same batch, and recovery
    // skips the remote_buf word whenever the request word is non-EMPTY.
    let posted = pack(POSTED, heap.kind, slab, k, 0);
    store(ctx, my_off, posted);
    comb.set_in_flight(heap.kind, slab);
    ctx.crash_point("comb::publish::after_post");
    if ctx.recoverable {
        crate::remote::durable::clear(ctx, heap.kind, slab);
    }
    // Race to claim our own request. Losing means another winner is
    // servicing us; winning makes us the combiner.
    let claimed = pack(CLAIMED, heap.kind, slab, k, ctx.tid.raw());
    if cas(ctx, my_off, posted, claimed) {
        ctx.crash_point("comb::publish::after_claim");
        publish_as_winner(ctx, heap, comb, slab, k, my_off);
        Ok(())
    } else {
        wait_for_winner(ctx, heap.kind, comb, slab, k, my_off)
    }
}

/// The winner path: scan the other slots for posted requests against
/// the same slab, claim up to [`MAX_CLAIM`] (including our own), and
/// publish the combined decrement with one logged detectable CAS.
fn publish_as_winner<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    heap: &SlabHeap,
    comb: &Combiner,
    slab: u32,
    own_k: u32,
    my_off: u64,
) {
    use crate::cell::LogWord;
    use crate::recovery::Op;
    use cxl_pod::trace::TraceKind;

    let layout = ctx.mem.layout();
    let me = ctx.tid.slot();
    // (slot, word offset, claimed word) per contributor, self first.
    let mut claims: Vec<(u32, u64, u64)> = Vec::with_capacity(MAX_CLAIM);
    claims.push((me, my_off, pack(CLAIMED, heap.kind, slab, own_k, ctx.tid.raw())));
    let mut k_total = own_k;
    for slot in 0..layout.max_threads {
        if claims.len() >= MAX_CLAIM {
            break;
        }
        if slot == me {
            continue;
        }
        let off = word_at(ctx, slot);
        let w = load(ctx, off);
        if !is_posted(w) || kind_of(w) != Some(heap.kind) || slab_of(w) != slab {
            continue;
        }
        let their_k = k_of(w);
        if k_total + their_k > 255 {
            continue;
        }
        let claimed = pack(CLAIMED, heap.kind, slab, their_k, ctx.tid.raw());
        if cas(ctx, off, w, claimed) {
            claims.push((slot, off, claimed));
            k_total += their_k;
        }
    }
    // The claimed slots travel in the oplog aux word as four 16-bit
    // `slot + 1` fields, so recovery can release exactly these words.
    let mut packed_slots = 0u64;
    for (i, (slot, _, _)) in claims.iter().enumerate() {
        packed_slots |= ((*slot as u64 + 1) & 0xFFFF) << (i * 16);
    }
    let hl = heap.hl(ctx.mem);
    let dcas = ctx.dcas();
    loop {
        let remote = dcas.read(ctx.core, hl.hwcc_desc_at(slab));
        if remote.payload == 0 {
            // Defensive parity with the direct publish: a zero payload
            // means the batch double-frees; drop it and release every
            // contributor.
            release_claims(ctx, &claims, my_off, comb);
            return;
        }
        let k_eff = k_total.min(remote.payload);
        let last = remote.payload == k_eff;
        let version = ctx.log().bump_version(ctx.core);
        ctx.log().begin(
            ctx.core,
            LogWord {
                op: Op::encode(
                    if last {
                        Op::RemoteFreeCombLast
                    } else {
                        Op::RemoteFreeComb
                    },
                    heap.kind,
                ),
                a: slab,
                b: k_eff as u8,
                c: version,
            },
            &[packed_slots],
        );
        ctx.crash_point("comb::publish::after_log");
        if dcas
            .attempt(
                ctx.core,
                hl.hwcc_desc_at(slab),
                remote,
                remote.payload - k_eff,
                ctx.tid,
                version,
            )
            .is_ok()
        {
            ctx.crash_point("comb::publish::after_cas");
            ctx.mem.note_remote_free_batched(k_eff as u64);
            ctx.mem
                .trace_op(ctx.core, TraceKind::RemoteFreePublish, k_eff as u64);
            ctx.mem.note_comb_win();
            ctx.mem
                .trace_op(ctx.core, TraceKind::CombinerWin, k_total as u64);
            if last {
                heap.steal(ctx, slab);
            }
            release_claims(ctx, &claims, my_off, comb);
            ctx.crash_point("comb::publish::after_done");
            ctx.log().clear_relaxed(ctx.core);
            if last {
                heap.release_overflow(ctx);
            }
            return;
        }
        ctx.log().clear_relaxed(ctx.core);
        ctx.mem
            .note_cas_retry_at(cxl_pod::stats::CasRetrySite::RemotePublish);
        ctx.mem.trace_op(ctx.core, TraceKind::CasRetry, hl.hwcc_desc_at(slab));
        comb.note_retry();
    }
}

/// Releases every claimed word after the combined decrement: DONE-mark
/// contributors (they release their own word), clear our own.
fn release_claims<M: PodMemory + ?Sized>(ctx: &Ctx<'_, M>, claims: &[(u32, u64, u64)], my_off: u64, comb: &Combiner) {
    for &(_, off, word) in claims {
        if off == my_off {
            store(ctx, off, EMPTY);
        } else {
            store(ctx, off, done_word(word, ctx.tid.raw()));
        }
    }
    comb.clear_in_flight();
}

/// The waiter path: our batch was claimed by another winner; spin on
/// the request word (deadline-bound) until it is DONE-marked.
fn wait_for_winner<M: PodMemory + ?Sized>(
    ctx: &Ctx<'_, M>,
    kind: HeapKind,
    comb: &Combiner,
    slab: u32,
    k: u32,
    my_off: u64,
) -> Result<(), AllocError> {
    use cxl_pod::trace::TraceKind;
    let mut spins = 0u32;
    loop {
        let w = load(ctx, my_off);
        match state(w) {
            DONE | EMPTY => {
                // Published (or released by the winner's recovery).
                store(ctx, my_off, EMPTY);
                comb.clear_in_flight();
                ctx.mem.note_comb_wait();
                ctx.mem.trace_op(ctx.core, TraceKind::CombinerWait, k as u64);
                let _ = kind;
                return Ok(());
            }
            _ => {
                spins += 1;
                if spins >= WAIT_SPINS {
                    // The winner went silent. The batch stays durably in
                    // our word under the winner's custody; its recovery
                    // publishes it. Meanwhile our publishes take the
                    // direct path (the word reads CLAIMED).
                    return Err(AllocError::CombinerStalled {
                        thread: ctx.tid,
                        slab,
                        winner: winner_of(w),
                    });
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// The combiner-request word of `slot`, read durably (for recovery,
/// audits, and white-box tests).
pub fn read_word<M: PodMemory + ?Sized>(mem: &M, slot: u32) -> u64 {
    mem.segment()
        .atomic_u64(mem.layout().comb_at(slot))
        .load(Ordering::SeqCst)
}

/// Decodes a request word into `(kind, slab, k)` when it names a
/// *pending* batch (POSTED or CLAIMED); `None` for EMPTY and DONE
/// words. The audit/test-facing view of the word codec.
pub fn pending_batch(word: u64) -> Option<(HeapKind, u32, u32)> {
    if !is_pending(word) {
        return None;
    }
    Some((kind_of(word)?, slab_of(word), k_of(word)))
}

/// Builds a POSTED request word (white-box tests simulating a
/// contributor that posted a batch and awaits a winner).
pub fn posted_word(kind: HeapKind, slab: u32, k: u32) -> u64 {
    pack(POSTED, kind, slab, k, 0)
}

/// Builds a CLAIMED request word held by `winner` (white-box tests
/// simulating a batch in a stalled winner's custody).
pub fn claimed_word(kind: HeapKind, slab: u32, k: u32, winner: u16) -> u64 {
    pack(CLAIMED, kind, slab, k, winner)
}

/// Whether the word is DONE: the batch's decrement landed and the
/// contributor may release the word.
pub fn is_done(word: u64) -> bool {
    state(word) == DONE
}

/// Builds a DONE request word published by `winner` (white-box tests
/// simulating a stale completion the contributor never observed).
pub fn done_marked(kind: HeapKind, slab: u32, k: u32, winner: u16) -> u64 {
    pack(DONE, kind, slab, k, winner)
}

/// Stores `slot`'s combiner-request word durably (recovery and
/// white-box tests only — live threads go through the posting
/// protocol).
pub fn write_word<M: PodMemory + ?Sized>(mem: &M, slot: u32, word: u64) {
    mem.segment()
        .atomic_u64(mem.layout().comb_at(slot))
        .store(word, Ordering::SeqCst);
}

/// Atomically takes back a still-POSTED word (recovery reclaiming the
/// dead thread's own unclaimed batch). The CAS arbitrates against a
/// live winner claiming concurrently: `false` means a winner got there
/// first and now owns the publish.
pub(crate) fn take_posted<M: PodMemory + ?Sized>(mem: &M, slot: u32, observed: u64) -> bool {
    mem.segment()
        .atomic_u64(mem.layout().comb_at(slot))
        .compare_exchange(observed, EMPTY, Ordering::SeqCst, Ordering::SeqCst)
        .is_ok()
}

/// The EMPTY request word (recovery releases words with this).
pub(crate) const EMPTY_WORD: u64 = EMPTY;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_roundtrips_fields() {
        for kind in [HeapKind::Small, HeapKind::Large] {
            let w = pack(CLAIMED, kind, 12345, 200, 7);
            assert_eq!(state(w), CLAIMED);
            assert_eq!(kind_of(w), Some(kind));
            assert_eq!(slab_of(w), 12345);
            assert_eq!(k_of(w), 200);
            assert_eq!(winner_of(w), 7);
            assert!(is_pending(w));
            assert!(is_claimed_by(w, 7));
            assert!(!is_claimed_by(w, 8));
            let d = done_word(w, 9);
            assert_eq!(state(d), DONE);
            assert_eq!(k_of(d), 200);
            assert_eq!(winner_of(d), 9);
            assert!(!is_pending(d));
        }
        assert!(!is_pending(EMPTY));
        assert_eq!(kind_of(EMPTY), None);
    }

    #[test]
    fn governor_engages_under_retries_and_disengages_when_quiet() {
        let c = Combiner::new(true);
        assert!(!c.should_combine());
        // A noisy window: every publish retried.
        for _ in 0..GOVERNOR_WINDOW {
            c.note_retry();
            c.note_publish();
        }
        assert!(c.should_combine());
        assert!(c.effective_batch(1) >= 2);
        // Keep it noisy: the boost widens monotonically toward 255.
        for _ in 0..(GOVERNOR_WINDOW * 16) {
            c.note_retry();
            c.note_publish();
        }
        assert_eq!(c.effective_batch(1), 255);
        // Quiet windows narrow and eventually disengage.
        for _ in 0..(GOVERNOR_WINDOW * 16) {
            c.note_publish();
        }
        assert!(!c.should_combine());
        assert_eq!(c.effective_batch(3), 3, "configured width is the floor");
    }

    #[test]
    fn unpermitted_governor_never_engages() {
        let c = Combiner::new(false);
        for _ in 0..(GOVERNOR_WINDOW * 4) {
            c.note_retry();
            c.note_publish();
        }
        assert!(!c.should_combine());
    }

    #[test]
    fn in_flight_mirror_blocks_buffering() {
        let c = Combiner::new(true);
        assert!(!c.blocks_buffering(HeapKind::Small, 4));
        c.set_in_flight(HeapKind::Small, 4);
        assert!(c.blocks_buffering(HeapKind::Small, 4));
        assert!(!c.blocks_buffering(HeapKind::Large, 4));
        assert!(!c.blocks_buffering(HeapKind::Small, 5));
        c.clear_in_flight();
        assert!(!c.blocks_buffering(HeapKind::Small, 4));
    }
}
