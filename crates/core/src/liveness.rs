//! Lease-based failure detection (paper §3.4 pod model).
//!
//! The allocator's recovery machinery ([`recovery`](crate::recovery))
//! repairs a crashed thread's structures — but something has to *notice*
//! the crash first, and on a pod there is no shared OS to ask. This
//! module supplies the missing layer:
//!
//! * **Lease words** — one epoch-stamped 8-byte cell per thread slot in
//!   the HWcc region ([`Layout::lease_at`](cxl_pod::Layout::lease_at)).
//!   A live thread renews its lease by bumping the 48-bit counter
//!   ([`ThreadHandle::heartbeat`](crate::ThreadHandle::heartbeat));
//!   registration and adoption bump the 16-bit epoch so stale renewals
//!   from a previous incarnation can never be mistaken for fresh ones.
//! * **Detector** — every host runs a [`LivenessDetector`]; each
//!   [`tick`](LivenessDetector::tick) scans the registry and remembers
//!   the last lease word seen per LIVE slot. A slot whose lease does not
//!   change for [`expiry_ticks`](LivenessDetector::new) consecutive
//!   ticks is declared dead: the detector flips its registry cell
//!   LIVE→DEAD through
//!   [`Cxlalloc::mark_crashed`](crate::Cxlalloc::mark_crashed) (an mCAS
//!   on non-HWcc pods), after which any survivor may adopt it.
//! * **Raced adoption** — survivors race through
//!   [`Cxlalloc::adopt`](crate::Cxlalloc::adopt); the
//!   DEAD→[`ADOPTING`](registry::ADOPTING) registry CAS is the
//!   linearization point, so exactly one wins and runs recovery while
//!   losers get a typed
//!   [`AllocError::AdoptionRaced`].
//!
//! Ticks are logical, driven by `cxl-drive`'s `DetectorTick` steps —
//! no wall clock is involved, so exploration campaigns replay
//! byte-identically.

use crate::alloc::Cxlalloc;
use crate::error::AllocError;
use crate::ThreadId;
use cxl_pod::CoreId;

/// Thread registry states (one HWcc cell per slot).
pub mod registry {
    /// Slot is unclaimed.
    pub const FREE: u64 = 0;
    /// Slot belongs to a live thread.
    pub const LIVE: u64 = 1;
    /// Slot's thread crashed (or its lease expired); recovery pending.
    pub const DEAD: u64 = 2;
    /// A survivor won the adoption race and is running recovery; the
    /// slot returns to [`LIVE`] when the adopter commits.
    pub const ADOPTING: u64 = 3;
    /// Largest legal registry value (used by the invariant checker).
    pub const MAX: u64 = ADOPTING;
}

/// Lease-word encoding: `[epoch:16 | counter:48]`.
pub mod lease {
    /// Bits of the renewal counter.
    pub const COUNTER_BITS: u32 = 48;
    /// Mask of the renewal counter.
    pub const COUNTER_MASK: u64 = (1 << COUNTER_BITS) - 1;

    /// Packs an epoch and a counter into a lease word.
    #[inline]
    pub fn pack(epoch: u16, counter: u64) -> u64 {
        ((epoch as u64) << COUNTER_BITS) | (counter & COUNTER_MASK)
    }

    /// The incarnation epoch of a lease word.
    #[inline]
    pub fn epoch(word: u64) -> u16 {
        (word >> COUNTER_BITS) as u16
    }

    /// The renewal counter of a lease word.
    #[inline]
    pub fn counter(word: u64) -> u64 {
        word & COUNTER_MASK
    }

    /// The word a heartbeat writes: same epoch, counter + 1.
    #[inline]
    pub fn renew(word: u64) -> u64 {
        pack(epoch(word), counter(word).wrapping_add(1) & COUNTER_MASK)
    }

    /// The word a new incarnation writes: epoch + 1, counter reset.
    /// Any renewal still in flight from the previous incarnation carries
    /// the old epoch and therefore reads as a *change*, never as a
    /// fresher heartbeat of the new owner.
    #[inline]
    pub fn next_epoch(word: u64) -> u64 {
        pack(epoch(word).wrapping_add(1), 0)
    }

    /// Counter sentinel marking a *frozen* lease: the thread drained
    /// cleanly (flushed its buffers, published every free) and will
    /// never renew again, but its registry slot stays LIVE so its heap
    /// structures remain owned rather than adoptable. A heartbeat
    /// counter can never legitimately reach this value — it would take
    /// 2^48 renewals — so the sentinel is unambiguous.
    pub const FROZEN: u64 = COUNTER_MASK;

    /// Whether a lease word carries the frozen-counter sentinel.
    #[inline]
    pub fn is_frozen(word: u64) -> bool {
        counter(word) == FROZEN
    }
}

/// What one detector tick found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DetectorReport {
    /// Registry slots examined.
    pub scanned: u32,
    /// Threads this tick declared dead (registry flipped LIVE→DEAD by
    /// *this* detector; a slot another host flipped first is not listed).
    pub expired: Vec<ThreadId>,
}

/// Per-host lease-expiry detector.
///
/// Purely local state — the shared segment holds only the lease words
/// themselves, so any number of hosts may run detectors concurrently;
/// the registry CAS inside [`Cxlalloc::mark_crashed`] arbitrates
/// double-detection.
#[derive(Debug)]
pub struct LivenessDetector {
    expiry_ticks: u32,
    /// Last lease word observed per slot.
    last: Vec<u64>,
    /// Consecutive ticks the slot's lease has been unchanged.
    stale: Vec<u32>,
}

impl LivenessDetector {
    /// Creates a detector for `max_threads` slots that declares a LIVE
    /// slot dead after `expiry_ticks` consecutive ticks without a lease
    /// renewal. `expiry_ticks` is clamped to at least 1.
    pub fn new(max_threads: u32, expiry_ticks: u32) -> Self {
        LivenessDetector {
            expiry_ticks: expiry_ticks.max(1),
            last: vec![0; max_threads as usize],
            stale: vec![0; max_threads as usize],
        }
    }

    /// The configured expiry budget in ticks.
    pub fn expiry_ticks(&self) -> u32 {
        self.expiry_ticks
    }

    /// Scans every registry slot once, declaring dead any LIVE slot
    /// whose lease has not moved for the expiry budget.
    ///
    /// # Errors
    ///
    /// Propagates [`AllocError::DeviceContention`] if a LIVE→DEAD flip
    /// exhausted its retry budget (the slot stays LIVE and will be
    /// retried next tick). Races with other detectors or with slot
    /// reuse are absorbed, not reported.
    pub fn tick(&mut self, heap: &Cxlalloc, via: CoreId) -> Result<DetectorReport, AllocError> {
        let mem = heap.process().memory().clone();
        let layout = mem.layout();
        let mut report = DetectorReport::default();
        for slot in 0..self.last.len() as u32 {
            report.scanned += 1;
            let state = mem.load_u64(via, layout.registry_at(slot));
            let word = mem.load_u64(via, layout.lease_at(slot));
            if state != registry::LIVE {
                self.last[slot as usize] = 0;
                self.stale[slot as usize] = 0;
                continue;
            }
            if lease::is_frozen(word) {
                // Cleanly-drained slot: it will never heartbeat again by
                // design, and its heap state was flushed before the
                // freeze. Declaring it dead would hand a fully-settled
                // heap to an adopter for no reason.
                self.last[slot as usize] = word;
                self.stale[slot as usize] = 0;
                continue;
            }
            if word != self.last[slot as usize] {
                self.last[slot as usize] = word;
                self.stale[slot as usize] = 0;
                continue;
            }
            self.stale[slot as usize] += 1;
            if self.stale[slot as usize] < self.expiry_ticks {
                continue;
            }
            self.stale[slot as usize] = 0;
            let tid = ThreadId::from_slot(slot);
            match heap.mark_crashed(tid) {
                Ok(true) => report.expired.push(tid),
                // Another host flipped it first, or the slot was freed
                // or re-registered under us — either way, not ours.
                Ok(false) | Err(AllocError::BadThreadState { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::AttachOptions;
    use cxl_pod::{Pod, PodConfig};

    #[test]
    fn lease_word_roundtrip() {
        let w = lease::pack(7, 123_456);
        assert_eq!(lease::epoch(w), 7);
        assert_eq!(lease::counter(w), 123_456);
        let r = lease::renew(w);
        assert_eq!(lease::epoch(r), 7);
        assert_eq!(lease::counter(r), 123_457);
        let n = lease::next_epoch(w);
        assert_eq!(lease::epoch(n), 8);
        assert_eq!(lease::counter(n), 0);
    }

    #[test]
    fn counter_wrap_stays_in_field() {
        let w = lease::pack(u16::MAX, lease::COUNTER_MASK);
        let r = lease::renew(w);
        assert_eq!(lease::counter(r), 0);
        assert_eq!(lease::epoch(r), u16::MAX, "renew must not carry into the epoch");
        assert_eq!(lease::epoch(lease::next_epoch(w)), 0);
    }

    fn setup() -> (Pod, Cxlalloc) {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        (pod, heap)
    }

    #[test]
    fn silent_thread_expires_after_budget() {
        let (pod, heap) = setup();
        let t = heap.register_thread().unwrap();
        let tid = t.tid();
        let mut det = LivenessDetector::new(pod.layout().max_threads, 3);
        let via = CoreId(5);
        // Tick 1 records the registration-time lease; ticks 2–3 see it
        // unchanged; expiry fires on the budget'th unchanged tick.
        for _ in 0..3 {
            assert!(det.tick(&heap, via).unwrap().expired.is_empty());
        }
        let report = det.tick(&heap, via).unwrap();
        assert_eq!(report.expired, vec![tid]);
        // The flip is visible in the registry.
        let off = pod.layout().registry_at(tid.slot());
        assert_eq!(pod.memory().load_u64(via, off), registry::DEAD);
        // Subsequent ticks see a non-LIVE slot and stay quiet.
        assert!(det.tick(&heap, via).unwrap().expired.is_empty());
    }

    #[test]
    fn heartbeats_keep_the_lease_alive() {
        let (pod, heap) = setup();
        let t = heap.register_thread().unwrap();
        let mut det = LivenessDetector::new(pod.layout().max_threads, 2);
        let via = CoreId(5);
        for _ in 0..10 {
            t.heartbeat().unwrap();
            let report = det.tick(&heap, via).unwrap();
            assert!(report.expired.is_empty(), "renewed lease must not expire");
        }
        let off = pod.layout().registry_at(t.tid().slot());
        assert_eq!(pod.memory().load_u64(via, off), registry::LIVE);
    }

    #[test]
    fn two_detectors_flip_exactly_once() {
        let (pod, heap) = setup();
        let t = heap.register_thread().unwrap();
        let tid = t.tid();
        let mut a = LivenessDetector::new(pod.layout().max_threads, 1);
        let mut b = LivenessDetector::new(pod.layout().max_threads, 1);
        let via = CoreId(5);
        // Both record the lease...
        a.tick(&heap, via).unwrap();
        b.tick(&heap, via).unwrap();
        // ...then race to declare it dead: only the first flip counts.
        let ra = a.tick(&heap, via).unwrap();
        let rb = b.tick(&heap, via).unwrap();
        assert_eq!(ra.expired, vec![tid]);
        assert!(rb.expired.is_empty(), "second detector must observe DEAD, not flip");
    }

    #[test]
    fn frozen_lease_never_expires() {
        let (pod, heap) = setup();
        let t = heap.register_thread().unwrap();
        let tid = t.tid();
        t.freeze_lease();
        let word = pod.memory().load_u64(CoreId(0), pod.layout().lease_at(tid.slot()));
        assert!(lease::is_frozen(word), "freeze must write the sentinel counter");
        assert_eq!(lease::epoch(word), 1, "freeze keeps the incarnation epoch");
        let mut det = LivenessDetector::new(pod.layout().max_threads, 1);
        let via = CoreId(5);
        for _ in 0..10 {
            let report = det.tick(&heap, via).unwrap();
            assert!(report.expired.is_empty(), "frozen lease must never expire");
        }
        let off = pod.layout().registry_at(tid.slot());
        assert_eq!(pod.memory().load_u64(via, off), registry::LIVE);
    }

    #[test]
    fn frozen_sentinel_is_distinct_from_live_counters() {
        // A renewing lease can never read as frozen short of 2^48 beats.
        let w = lease::pack(3, lease::FROZEN - 1);
        assert!(!lease::is_frozen(w));
        assert!(lease::is_frozen(lease::renew(w)), "renew of MAX-1 hits the sentinel");
        assert!(lease::is_frozen(lease::pack(9, lease::FROZEN)));
        // A frozen word still yields a clean next incarnation.
        let n = lease::next_epoch(lease::pack(9, lease::FROZEN));
        assert_eq!(lease::epoch(n), 10);
        assert_eq!(lease::counter(n), 0);
    }

    #[test]
    fn registration_bumps_epoch() {
        let (pod, heap) = setup();
        let t = heap.register_thread().unwrap();
        let word = pod
            .memory()
            .load_u64(CoreId(0), pod.layout().lease_at(t.tid().slot()));
        assert_eq!(lease::epoch(word), 1, "fresh registration is epoch 1");
        assert_eq!(lease::counter(word), 0);
    }
}
