//! Detectable compare-and-swap.
//!
//! A thread that crashes immediately after a CAS cannot tell, on
//! recovery, whether its CAS took effect. *Detectable* CAS (paper §3.4.2,
//! citing Attiya et al.) fixes this by embedding the CASer's thread id
//! and a per-thread version in every CAS target, plus a global *help
//! array*: before overwriting a cell, a CASer first records the previous
//! writer's version in that writer's help slot. On recovery, an operation
//! with version `v` by thread `t` succeeded iff the cell still carries
//! `(t, v)` or `help[t] == v`.
//!
//! Versions are 16-bit ("to support systems with only 8-byte CAS"), so
//! comparisons use wrap-aware serial-number arithmetic; like the paper's
//! scheme, detection assumes a helper does not stall across 2¹⁵
//! operations of the same thread.
//!
//! The help array lives in the HWcc region: on a pod without HWcc it is
//! updated through mCAS, which is part of why remote frees get expensive
//! in `-mcas` configurations (paper Figure 12).

use crate::backoff::{Backoff, BackoffPolicy};
use crate::cell::{seq16_newer, Detect};
use crate::ThreadId;
use cxl_pod::{CoreId, PodMemory};

/// Detectable-CAS operations over a pod memory backend.
pub struct Dcas<'m, M: PodMemory + ?Sized> {
    mem: &'m M,
    /// When false, help recording is skipped (plain CAS semantics — the
    /// `cxlalloc-nonrecoverable` ablation). Cells still embed versions,
    /// which keeps them ABA-safe.
    detectable: bool,
}

// Not derived: a derive would demand `M: Copy`, and the handle only
// holds a reference.
impl<M: PodMemory + ?Sized> Clone for Dcas<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: PodMemory + ?Sized> Copy for Dcas<'_, M> {}

impl<M: PodMemory + ?Sized> std::fmt::Debug for Dcas<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dcas").finish_non_exhaustive()
    }
}

impl<'m, M: PodMemory + ?Sized> Dcas<'m, M> {
    /// Creates a detectable handle over `mem`.
    pub fn new(mem: &'m M) -> Self {
        Self::with_detectable(mem, true)
    }

    /// Creates a handle, optionally with help recording disabled.
    pub fn with_detectable(mem: &'m M, detectable: bool) -> Self {
        Dcas {
            mem,
            detectable,
        }
    }

    /// Reads and decodes the detectable cell at `offset`.
    #[inline]
    pub fn read(&self, core: CoreId, offset: u64) -> Detect {
        Detect::unpack(self.mem.load_u64(core, offset))
    }

    /// Attempts one detectable CAS: replace the exact observed cell value
    /// with `(version, me, new_payload)`.
    ///
    /// Before the CAS, the previous writer (if any) is recorded in the
    /// help array so that *its* recovery can detect its success even
    /// after we overwrite it.
    ///
    /// # Errors
    ///
    /// Returns the freshly observed cell on CAS failure; the caller
    /// re-logs with a new version and retries.
    pub fn attempt(
        &self,
        core: CoreId,
        offset: u64,
        observed: Detect,
        new_payload: u32,
        me: ThreadId,
        version: u16,
    ) -> Result<(), Detect> {
        if self.detectable && observed.tid != 0 && observed.tid != me.raw() {
            // Record the to-be-overwritten success. Doing this *before*
            // our CAS is truthful (the value is in the cell, so that CAS
            // succeeded) and guarantees no successful CAS is overwritten
            // unrecorded.
            //
            // Overwriting our *own* earlier success needs no help
            // record: before any attempt the thread's durable log
            // already holds the new version, so recovery only ever asks
            // `detect` about the version in the log — never about an
            // older self-owned version this CAS would bury. Skipping
            // the help-array RMW here is what keeps a thread that
            // repeatedly CASes the same cell (remote frees against one
            // slab) at one CAS per operation.
            self.record_help(core, observed.tid, observed.version);
        }
        let new = Detect {
            version,
            tid: me.raw(),
            payload: new_payload,
        };
        match self
            .mem
            .cas_u64(core, offset, observed.pack(), new.pack())
        {
            Ok(_) => Ok(()),
            Err(actual) => Err(Detect::unpack(actual)),
        }
    }

    /// Recovery query: did `(me, version)`'s CAS against the cell at
    /// `offset` take effect?
    pub fn detect(&self, core: CoreId, offset: u64, me: ThreadId, version: u16) -> bool {
        let cell = self.read(core, offset);
        if cell.tid == me.raw() && cell.version == version {
            return true;
        }
        let help = self.mem.load_u64(core, self.mem.layout().help_at(me.slot()));
        help as u16 == version && (help >> 16) & 1 == 1
    }

    /// Monotonically (in serial-number order) records that `(tid,
    /// version)` succeeded, in `tid`'s help slot.
    ///
    /// Help cells are `[valid:1 bit at 16 | version:16]`; the valid bit
    /// distinguishes "version 0 recorded" from "nothing recorded yet"
    /// (all-zero heap).
    fn record_help(&self, core: CoreId, tid: u16, version: u16) {
        let slot = (tid - 1) as u32;
        let offset = self.mem.layout().help_at(slot);
        let new = (1u64 << 16) | version as u64;
        // Help recording may not give up — an unrecorded overwrite would
        // make the previous writer's success undetectable — so device
        // contention is paced with saturating backoff, never surfaced.
        // Under a persistent outage the NMP breaker reroutes the CAS
        // through the software-fallback path, which cannot bounce.
        let mut backoff: Option<Backoff> = None;
        loop {
            let cur = self.mem.load_u64(core, offset);
            let cur_valid = (cur >> 16) & 1 == 1;
            if cur_valid && !seq16_newer(version, cur as u16) {
                return; // current record is the same or newer
            }
            match self.mem.cas_u64(core, offset, cur, new) {
                Ok(_) => return,
                Err(actual) if actual == cur => {
                    // The cell is unchanged: a device bounce, not a
                    // competing writer. Back off before re-issuing.
                    self.mem
                        .event(core, cxl_pod::trace::TraceKind::CasRetry, offset);
                    let b = backoff.get_or_insert_with(|| {
                        Backoff::new(
                            BackoffPolicy::default(),
                            offset ^ ((core.0 as u64) << 48),
                        )
                    });
                    Backoff::pause(b.step_saturating());
                }
                // A competing helper moved the cell; the next iteration
                // re-reads and re-checks monotonicity.
                Err(_) => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{Pod, PodConfig};

    fn pod() -> Pod {
        Pod::new(PodConfig::small_for_tests()).unwrap()
    }

    fn tid(n: u16) -> ThreadId {
        ThreadId::new(n).unwrap()
    }

    #[test]
    fn cas_success_detected_in_cell() {
        let pod = pod();
        let mem = pod.memory().as_ref();
        let dcas = Dcas::new(mem);
        let core = CoreId(0);
        let off = pod.layout().small.global_len;

        let observed = dcas.read(core, off);
        assert_eq!(observed.payload, 0);
        dcas.attempt(core, off, observed, 7, tid(1), 1).unwrap();
        assert!(dcas.detect(core, off, tid(1), 1));
        assert!(!dcas.detect(core, off, tid(1), 2));
        assert!(!dcas.detect(core, off, tid(2), 1));
    }

    #[test]
    fn cas_failure_not_detected() {
        let pod = pod();
        let dcas = Dcas::new(pod.memory().as_ref());
        let core = CoreId(0);
        let off = pod.layout().small.global_len;

        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 7, tid(1), 1).unwrap();
        // Thread 2 attempts with a stale observation: fails.
        let err = dcas
            .attempt(core, off, observed, 9, tid(2), 1)
            .unwrap_err();
        assert_eq!(err.payload, 7);
        assert!(!dcas.detect(core, off, tid(2), 1));
    }

    #[test]
    fn overwritten_success_detected_via_help() {
        let pod = pod();
        let dcas = Dcas::new(pod.memory().as_ref());
        let core = CoreId(0);
        let off = pod.layout().small.global_len;

        // Thread 1 CASes, then thread 2 overwrites it.
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 7, tid(1), 5).unwrap();
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 9, tid(2), 3).unwrap();
        // Thread 1's success must still be detectable.
        assert!(dcas.detect(core, off, tid(1), 5));
        assert!(dcas.detect(core, off, tid(2), 3));
        // Version 0 is a legitimate version once recorded.
        assert!(!dcas.detect(core, off, tid(1), 0));
    }

    #[test]
    fn self_overwrite_skips_help_record() {
        let pod = pod();
        let mem = pod.memory().as_ref();
        let dcas = Dcas::new(mem);
        let core = CoreId(0);
        let off = pod.layout().small.global_len;
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 7, tid(1), 1).unwrap();
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 8, tid(1), 2).unwrap();
        // Overwriting our own success writes no help record — the
        // durable log always holds the version recovery will query.
        assert_eq!(mem.load_u64(core, pod.layout().help_at(0)), 0);
        assert!(dcas.detect(core, off, tid(1), 2));
        // A different thread's overwrite still records our success.
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 9, tid(2), 1).unwrap();
        assert!(dcas.detect(core, off, tid(1), 2));
    }

    #[test]
    fn help_is_monotonic() {
        let pod = pod();
        let dcas = Dcas::new(pod.memory().as_ref());
        let core = CoreId(0);
        dcas.record_help(core, 1, 5);
        dcas.record_help(core, 1, 3); // older: ignored
        let off = pod.layout().help_at(0);
        assert_eq!(pod.memory().load_u64(core, off) as u16, 5);
        dcas.record_help(core, 1, 6);
        assert_eq!(pod.memory().load_u64(core, off) as u16, 6);
    }

    #[test]
    fn concurrent_pops_are_exclusive() {
        // N threads race to pop a counter down with detectable CAS; every
        // payload value must be claimed exactly once.
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let pod = pod();
        let off = pod.layout().small.global_free;
        let claimed: Arc<Vec<AtomicU64>> =
            Arc::new((0..64).map(|_| AtomicU64::new(0)).collect());
        // Seed the cell at 64.
        pod.memory().store_u64(CoreId(0), off, Detect {
            version: 0,
            tid: 0,
            payload: 64,
        }
        .pack());
        let mut handles = Vec::new();
        for t in 1..=4u16 {
            let pod = pod.clone();
            let claimed = claimed.clone();
            handles.push(std::thread::spawn(move || {
                let dcas = Dcas::new(pod.memory().as_ref());
                let core = CoreId(t - 1);
                let me = tid(t);
                let mut version = 0u16;
                loop {
                    let observed = dcas.read(core, off);
                    if observed.payload == 0 {
                        return;
                    }
                    version = version.wrapping_add(1);
                    if dcas
                        .attempt(core, off, observed, observed.payload - 1, me, version)
                        .is_ok()
                    {
                        // We claimed value `observed.payload`.
                        let prev = claimed[(observed.payload - 1) as usize]
                            .fetch_add(1, Ordering::Relaxed);
                        assert_eq!(prev, 0, "value claimed twice");
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        for c in claimed.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn works_over_mcas_backend() {
        use cxl_pod::HwccMode;
        let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::None).unwrap();
        let dcas = Dcas::new(pod.memory().as_ref());
        let core = CoreId(0);
        let off = pod.layout().small.global_len;
        let observed = dcas.read(core, off);
        dcas.attempt(core, off, observed, 3, tid(1), 1).unwrap();
        assert!(dcas.detect(core, off, tid(1), 1));
        let stats = pod.memory().stats();
        assert!(stats.mcas_ok >= 1, "expected CAS to be routed through NMP");
        assert_eq!(stats.cas_ok, 0);
    }
}
