//! Token-passing epoch-based reclamation.
//!
//! The paper adapts cxl-shm's non-resizable lock-free hash table "to use
//! token-passing epoch-based reclamation" (Kim, Brown, Singh, PPoPP '24)
//! so deletions can safely free entries while readers traverse. This is
//! a classic three-epoch EBR with the token-passing twist: instead of
//! every operation scanning all reservation slots to advance the epoch,
//! a *token* travels the thread ring; only the token holder attempts the
//! (amortized) advance.
//!
//! # The reclamation rule
//!
//! This module and [`KvThread`](crate::KvThread) share one rule; each
//! half is stated where it is enforced.
//!
//! * **Who retires.** Deleting an entry is two steps: *mark* its link
//!   word (the logical delete) and *unlink* it from its predecessor by
//!   CAS. Exactly one thread wins the unlink CAS of a marked entry, and
//!   that thread — not the marker — retires it. An entry is therefore
//!   never retired while still reachable from its bucket.
//! * **The stamp.** A retired entry is stamped with the global epoch
//!   read *after* its unlink ([`Ebr::epoch`]), not with the epoch the
//!   retiring op pinned: the op may have pinned one epoch earlier, and a
//!   reader that pinned the newer epoch could still hold the entry.
//! * **When it is safe.** Two epochs after its stamp
//!   ([`Ebr::safe_to_free`]). A reader holding the entry pinned no later
//!   than the unlink, at an epoch `e ≤ stamp`, and while it stays pinned
//!   the epoch cannot pass `e + 1`. Ops judge safety against the epoch
//!   they loaded at [`Ebr::pin`]: it can only be older than the global
//!   word, which errs on the side of waiting and saves every op a second
//!   load of the one word all workers share.
//! * **The per-op budget.** An op frees at most
//!   `RECLAIM_BUDGET` (8) safe entries, oldest first. Kim, Brown and
//!   Singh's result is that freeing an epoch's garbage in one batch is
//!   what hurts and amortized freeing is the fix; with the token passing
//!   every 64 ops the batch was ~33 frees on one op in 64, which *was*
//!   `kv_update`'s p99. The budget is a constant, not an option: it has
//!   to be at least twice what one op can retire (one entry) so the
//!   backlog drains, and beyond that the only thing it trades is how
//!   many ops carry a free — measured on `pod-bench`, 20 s runs
//!   alternated with the unbounded loop, three pairs each:
//!
//!   | variant | `kv_update` p99 | `kv_update` p50 | `kv_read` p99 |
//!   |---|---|---|---|
//!   | unbounded (before) | 2.94 / 2.98 / 3.10 µs | base | 476 / 488 / 499 ns |
//!   | budget 2 | not recorded | +16…+25 % | not recorded |
//!   | budget 4 | not recorded | +5…+19 % | not recorded |
//!   | budget 8 | 1.06 / 1.21 / 1.05 µs | +4…+10 % | not recorded |
//!   | inserts only, ≤ 2 | not recorded | not recorded | 623–634 ns (+27…+30 %) |
//!
//!   The same 0.513 frees per op ride on 6–26 % of ops instead of
//!   1.6 %, so a smaller budget moves the median; charging inserts only
//!   ("free before you allocate") puts the frees on `kv_read`'s slowest
//!   5 %, which *are* its inserts. Hence 8, and hence every op kind —
//!   reads too — takes part. (What budget 8 still cost the median was
//!   paid for by taking a division and two shared-word RMWs out of
//!   every op; DESIGN.md §2.4.)
//! * **Vacant slots.** A slot is *vacant* until its worker's first
//!   [`pin`](Ebr::pin) and again after [`leave`](Ebr::leave) (a dropped
//!   `KvThread`). A vacant slot holds no reference, so it never blocks
//!   an advance; it cannot drive the token either, so a ticking worker
//!   that finds the holder vacant takes the token by CAS, and the token
//!   is always passed to the next *present* slot. A present worker that
//!   simply stops running ops is indistinguishable from a slow one and
//!   keeps the token once it reaches it — [`try_advance`](Ebr::try_advance)
//!   needs no token.
//! * **`drain_retired`.** Calls [`try_advance`](Ebr::try_advance)
//!   twice and frees what is then safe. With every other worker between
//!   ops (joined, idle or dropped) both advances succeed and nothing
//!   remains; with a peer pinned in an older epoch the advance fails,
//!   the unsafe tail stays queued, and the call says how many.

use std::sync::atomic::{AtomicU64, Ordering};

/// One value on cache lines of its own (two: the adjacent-line
/// prefetcher pairs them), written by a single worker.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct Padded<T>(pub(crate) T);

/// Reservation of a slot no worker is driving.
const VACANT: u64 = u64::MAX;

/// Shared reclamation state.
#[derive(Debug)]
pub struct Ebr {
    global: AtomicU64,
    /// Per-slot reservation: [`VACANT`], 0 = quiescent, else pinned
    /// epoch + 1.
    slots: Box<[Padded<AtomicU64>]>,
    /// Which slot currently holds the advance token.
    token: AtomicU64,
}

impl Ebr {
    /// Creates shared state for up to `threads` participants; every slot
    /// starts vacant.
    pub fn new(threads: usize) -> Self {
        Ebr {
            global: AtomicU64::new(2),
            slots: (0..threads).map(|_| Padded(AtomicU64::new(VACANT))).collect(),
            token: AtomicU64::new(0),
        }
    }

    /// Number of participant slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current global epoch: the stamp of an entry unlinked just now.
    pub fn epoch(&self) -> u64 {
        // SeqCst: ordered after the unlink CAS that precedes it.
        self.global.load(Ordering::SeqCst)
    }

    /// Pins `slot` to the current epoch; returns it. Must be called at
    /// the start of every data-structure operation. The first pin makes
    /// a vacant slot present.
    #[inline]
    pub fn pin(&self, slot: usize) -> u64 {
        let e = self.global.load(Ordering::Acquire);
        // SeqCst: the reservation is visible to an advancing thread
        // before this op reads any link.
        self.slots[slot].0.store(e + 1, Ordering::SeqCst);
        e
    }

    /// Unpins `slot` (operation finished).
    #[inline]
    pub fn unpin(&self, slot: usize) {
        self.slots[slot].0.store(0, Ordering::Release);
    }

    /// Marks `slot` vacant: its worker is gone and holds no reference.
    pub fn leave(&self, slot: usize) {
        self.slots[slot].0.store(VACANT, Ordering::Release);
    }

    /// Token-passing epoch advance: if `slot` holds the token — or takes
    /// it from a vacant holder — try to advance the epoch and pass the
    /// token to the next present slot. Two loads when another present
    /// slot holds the token.
    pub fn tick(&self, slot: usize) {
        // Relaxed throughout: the token orders nothing; `try_advance`
        // does its own synchronization.
        let holder = self.token.load(Ordering::Relaxed);
        if holder != slot as u64 {
            let vacant = self.slots[holder as usize].0.load(Ordering::Relaxed) == VACANT;
            let took = vacant
                && self
                    .token
                    .compare_exchange(holder, slot as u64, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok();
            if !took {
                return;
            }
        }
        self.try_advance();
        let n = self.slots.len();
        let next = (1..=n)
            .map(|step| (slot + step) % n)
            .find(|&s| self.slots[s].0.load(Ordering::Relaxed) != VACANT)
            .unwrap_or(slot);
        self.token.store(next as u64, Ordering::Relaxed);
    }

    /// Advances the epoch if every pinned slot has reached it; any
    /// thread may call this, token or not. Returns whether this call
    /// advanced it.
    pub fn try_advance(&self) -> bool {
        let e = self.global.load(Ordering::Acquire);
        let all_caught_up = self
            .slots
            .iter()
            .all(|s| match s.0.load(Ordering::SeqCst) {
                0 | VACANT => true,
                pinned => pinned > e,
            });
        all_caught_up
            && self
                .global
                .compare_exchange(e, e + 1, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
    }

    /// Whether garbage stamped `retire_epoch` may be freed by a thread
    /// that has observed the global epoch at `observed`: two epochs must
    /// have passed, so no reader pinned at `retire_epoch` (or earlier)
    /// can still hold a reference.
    #[inline]
    pub fn safe_to_free(retire_epoch: u64, observed: u64) -> bool {
        observed >= retire_epoch + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Makes every slot present and quiescent.
    fn all_present(ebr: &Ebr) {
        for slot in 0..ebr.capacity() {
            ebr.pin(slot);
            ebr.unpin(slot);
        }
    }

    #[test]
    fn epoch_advances_when_quiescent() {
        let ebr = Ebr::new(2);
        all_present(&ebr);
        let e0 = ebr.epoch();
        // Token starts at slot 0.
        ebr.tick(0);
        assert_eq!(ebr.epoch(), e0 + 1);
        // Token passed to slot 1; slot 0's tick is now a no-op.
        ebr.tick(0);
        assert_eq!(ebr.epoch(), e0 + 1);
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e0 + 2);
    }

    #[test]
    fn pinned_old_epoch_blocks_advance() {
        let ebr = Ebr::new(2);
        all_present(&ebr);
        let e = ebr.pin(1);
        // Advance once is still allowed (slot 1 pinned AT e, which counts
        // as caught up)...
        ebr.tick(0);
        assert_eq!(ebr.epoch(), e + 1);
        // ...but a second advance is blocked: slot 1 is now behind.
        // (The blocked tick still passes the token on, back to slot 0.)
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e + 1);
        assert!(!ebr.try_advance());
        ebr.unpin(1);
        ebr.tick(0);
        assert_eq!(ebr.epoch(), e + 2);
    }

    #[test]
    fn safe_to_free_needs_two_epochs() {
        let ebr = Ebr::new(1);
        let e = ebr.epoch();
        assert!(!Ebr::safe_to_free(e, ebr.epoch()));
        ebr.tick(0);
        assert!(!Ebr::safe_to_free(e, ebr.epoch()));
        ebr.tick(0);
        assert!(Ebr::safe_to_free(e, ebr.epoch()));
    }

    #[test]
    fn a_late_pinner_outlives_the_retirers_pin_epoch() {
        // T pins at e, the epoch moves on, R pins at e + 1 and finds an
        // entry T then unlinks. Stamped with T's pin epoch the entry
        // would be free at e + 2, which R — pinned at e + 1 — allows.
        let ebr = Ebr::new(2);
        let pinned = ebr.pin(0);
        assert!(ebr.try_advance());
        ebr.pin(1);
        let stamp = ebr.epoch();
        assert_eq!(stamp, pinned + 1);
        ebr.unpin(0);
        assert!(ebr.try_advance());
        assert!(!ebr.try_advance(), "slot 1 is behind now");
        assert!(Ebr::safe_to_free(pinned, ebr.epoch()));
        assert!(!Ebr::safe_to_free(stamp, ebr.epoch()));
    }

    #[test]
    fn vacant_holder_gives_up_the_token() {
        // Slot 0 holds the token and was never driven; slot 2 leaves
        // while holding it.
        let ebr = Ebr::new(3);
        let e0 = ebr.epoch();
        ebr.pin(1);
        ebr.unpin(1);
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e0 + 1, "slot 1 took the token from vacant slot 0");
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e0 + 2, "and kept it: no other slot is present");
        ebr.pin(2);
        ebr.unpin(2);
        ebr.tick(1);
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e0 + 3, "token passed to slot 2, now present");
        ebr.leave(2);
        ebr.tick(1);
        assert_eq!(ebr.epoch(), e0 + 4, "slot 2 left with the token; slot 1 took it back");
    }

    #[test]
    fn concurrent_pin_unpin_converges() {
        use std::sync::Arc;
        let ebr = Arc::new(Ebr::new(4));
        let start = ebr.epoch();
        std::thread::scope(|s| {
            for slot in 0..4 {
                let ebr = ebr.clone();
                s.spawn(move || {
                    for _ in 0..10_000 {
                        ebr.pin(slot);
                        ebr.tick(slot);
                        ebr.unpin(slot);
                    }
                });
            }
        });
        assert!(ebr.epoch() > start, "epoch must make progress");
    }
}
