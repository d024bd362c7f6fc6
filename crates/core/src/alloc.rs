//! The public cxlalloc API.
//!
//! One [`Cxlalloc`] is attached per process; each participating thread
//! registers for a [`ThreadHandle`], which carries the thread's identity
//! (a 16-bit slot), its simulated core (cache), and its volatile
//! huge-heap state. All pointers are [`OffsetPtr`]s — plain segment
//! offsets, valid in every process (PC-S); dereferencing goes through
//! [`ThreadHandle::resolve`], which installs missing mappings via the
//! fault-handler path (PC-T).
//!
//! ```
//! use cxl_pod::{Pod, PodConfig};
//! use cxl_core::{AttachOptions, Cxlalloc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pod = Pod::new(PodConfig::small_for_tests())?;
//! let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
//! let mut thread = heap.register_thread()?;
//! let ptr = thread.alloc(64)?;
//! let raw = thread.resolve(ptr, 64)?;
//! unsafe { raw.write_bytes(0xAB, 64) };
//! thread.dealloc(ptr)?;
//! # Ok(())
//! # }
//! ```

use crate::backoff::{Backoff, BackoffPolicy};
use crate::ctx::Ctx;
use crate::error::{AllocError, HeapKind};
use crate::huge::{HugeHeap, HugeThread};
use crate::liveness::{lease, registry};
use crate::recovery::{self, RecoveryReport};
use crate::remote::RemoteFreeBuffer;
use crate::rover::Rovers;
use crate::slab::{Claim, SlabHeap};
use crate::{OffsetPtr, ThreadId};
use cxl_pod::trace::TraceKind;
use cxl_pod::{CoreId, Fault, PodMemory, Process};
use std::cell::Cell;
use std::sync::Arc;

thread_local! {
    /// The allocator identity of the current OS thread, consulted by the
    /// fault handler (the paper's signal handler runs in the faulting
    /// thread's context and can use its thread-local state). Set where a
    /// handle is made and by [`ThreadHandle::resolve`]'s miss, the one
    /// handle call that can fault; an alloc or free never faults, so it
    /// leaves the word alone.
    static CURRENT: Cell<Option<(u16, u16)>> = const { Cell::new(None) };
}

/// How a [`registry_cas`] loop failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegistryError {
    /// The cell held a different value — a genuine state conflict.
    Conflict(u64),
    /// The retry budget ran out while the cell still held the expected
    /// value: persistent device contention, never a state change.
    Contention { retries: u32 },
}

/// CAS on a registry cell, retrying transient mCAS contention: on pods
/// without HWcc the NMP device may bounce a pair with a contention
/// error while the cell is in fact unchanged (a competing pair on the
/// same line, or an injected device fault). Such failures are
/// distinguishable — the observed value still equals the expected one —
/// and are retried under the bounded [`BackoffPolicy`] rather than
/// reported as a state error. Exhaustion surfaces as
/// [`RegistryError::Contention`], which callers map to the typed
/// [`AllocError::DeviceContention`].
fn registry_cas(
    mem: &dyn PodMemory,
    core: CoreId,
    offset: u64,
    current: u64,
    new: u64,
) -> Result<(), RegistryError> {
    let mut backoff = Backoff::new(BackoffPolicy::default(), offset ^ ((core.0 as u64) << 48));
    loop {
        match mem.cas_u64(core, offset, current, new) {
            Ok(_) => return Ok(()),
            Err(actual) if actual == current => {
                mem.event(core, TraceKind::CasRetry, offset);
                match backoff.step() {
                    Some(spins) => Backoff::pause(spins),
                    None => {
                        return Err(RegistryError::Contention {
                            retries: backoff.attempts(),
                        })
                    }
                }
            }
            Err(actual) => return Err(RegistryError::Conflict(actual)),
        }
    }
}

impl RegistryError {
    /// Maps contention to the typed error and conflicts through `f`.
    fn map_conflict(self, f: impl FnOnce(u64) -> AllocError) -> AllocError {
        match self {
            RegistryError::Conflict(actual) => f(actual),
            RegistryError::Contention { retries } => AllocError::DeviceContention { retries },
        }
    }
}

/// Evaluates `$body` with `$mem` bound to `$heap`'s backend: the concrete
/// `&RawMemory` on a raw pod, `&dyn PodMemory` on every other. This is
/// the one place a call picks its instantiation of the backend-generic
/// internals ([`Ctx`] and everything that takes one); below it, a raw
/// pod's `load_u64`/`store_u64`/`layout()` inline to loads and stores
/// and its empty `flush`/`fence`/`writeback` and uncounted `event`s vanish. A macro
/// rather than a closure so `$body` can borrow the caller's fields
/// disjointly and is compiled once per backend from one source.
///
/// `$body` runs inside one [`PodMemory::op_scope`] on `$core`, the only
/// core it may access memory as: a simulated pod takes that core's cache
/// lock once for the call instead of once per access (the fault handler
/// re-entering under it included), a raw pod's scope is empty and
/// compiles away. A `crash::point` unwinding out of `$body` drops it.
macro_rules! on_backend {
    ($heap:expr, $core:expr, |$mem:ident| $body:expr) => {
        match $heap.inner.process.raw_memory() {
            Some($mem) => {
                let _scope = $mem.op_scope($core);
                $body
            }
            None => {
                let $mem = $heap.mem();
                let _scope = $mem.op_scope($core);
                $body
            }
        }
    };
}

/// Attach-time options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachOptions {
    /// Maximum thread-local unsized list length before slabs overflow to
    /// the global free list.
    pub unsized_limit: u32,
    /// Whether to maintain recovery state (the per-thread redo log and
    /// detectable-CAS help records). Disabling reproduces the paper's
    /// `cxlalloc-nonrecoverable` ablation (§5.2.1).
    pub recoverable: bool,
    /// Remote frees buffered per slab before one batched detectable CAS
    /// publishes them all (a decrement by *k* instead of *k* decrements
    /// by 1). 1 — the default — is the paper's eager §3.2.1 protocol;
    /// values are clamped to 255, the width of the oplog record's batch
    /// field. Buffered frees drain at the threshold, on buffer-slot
    /// eviction, and at the [`ThreadHandle::flush_cache`] /
    /// [`ThreadHandle::flush_local_caches`] quiesce points; frees still
    /// buffered when a thread dies are republished by recovery from the
    /// thread's durable header line (see DESIGN.md §9.1).
    pub remote_free_batch: u32,
}

impl Default for AttachOptions {
    fn default() -> Self {
        AttachOptions {
            unsized_limit: 4,
            recoverable: true,
            remote_free_batch: 1,
        }
    }
}

/// A per-process handle to the shared heap. Cheap to clone.
#[derive(Debug, Clone)]
pub struct Cxlalloc {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    process: Arc<Process>,
    small: SlabHeap,
    large: SlabHeap,
    huge: HugeHeap,
    options: AttachOptions,
}

impl Cxlalloc {
    /// Attaches to the heap through `process`, installing the
    /// fault handler that provides PC-T.
    ///
    /// No initialization of shared state happens here: an all-zero
    /// segment *is* a valid empty heap (paper §4), so processes attach
    /// in any order without coordination.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::ConfigMismatch`] if the pod layout does not
    /// match this crate's class tables.
    ///
    /// # Examples
    ///
    /// Attach to a simulated pod, register a thread, and allocate:
    ///
    /// ```
    /// use cxl_core::{AttachOptions, Cxlalloc};
    /// use cxl_pod::{HwccMode, Pod, PodConfig};
    ///
    /// let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited)?;
    /// let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
    /// let mut thread = heap.register_thread()?;
    /// let ptr = thread.alloc(64)?;
    /// thread.dealloc(ptr)?;
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn attach(process: Arc<Process>, options: AttachOptions) -> Result<Self, AllocError> {
        let layout = process.memory().layout();
        if layout.small.num_classes != crate::class::SMALL_CLASSES_TABLE.len()
            || layout.large.num_classes != crate::class::LARGE_CLASSES_TABLE.len()
        {
            return Err(AllocError::ConfigMismatch {
                reason: format!(
                    "layout has {}/{} classes, allocator has {}/{}",
                    layout.small.num_classes,
                    layout.large.num_classes,
                    crate::class::SMALL_CLASSES_TABLE.len(),
                    crate::class::LARGE_CLASSES_TABLE.len()
                ),
            });
        }
        let this = Cxlalloc {
            inner: Arc::new(Inner {
                process: process.clone(),
                small: SlabHeap::small(),
                large: SlabHeap::large(),
                huge: HugeHeap,
                options,
            }),
        };
        let handler = this.clone();
        process.set_fault_handler(Arc::new(move |proc, fault| handler.handle_fault(proc, fault)));
        Ok(this)
    }

    /// The process this handle is attached through.
    pub fn process(&self) -> &Arc<Process> {
        &self.inner.process
    }

    fn mem(&self) -> &dyn PodMemory {
        self.inner.process.memory().as_ref()
    }

    /// The signal-handler equivalent (paper §3.3): decide whether the
    /// faulting offset should be backed by a mapping, install it if so.
    fn handle_fault(&self, process: &Process, fault: Fault) -> bool {
        let mem = process.memory().as_ref();
        let layout = mem.layout();
        // A thread with no handle charges `CoreId(0)`: see `register_thread`.
        let (tid_raw, core_raw) = CURRENT.with(|c| c.get()).unwrap_or((0, 0));
        let core = CoreId(core_raw);
        // Small/large heap: a range below the heap length should be
        // mapped (§3.3.1 — "the signal handler checks the heap length").
        // The whole range is judged, not its first byte: a range that
        // starts in a slab the heap has but runs past the heap's end (or
        // out of the data region) is a wild access, and claiming to have
        // mapped it would only fault again.
        let last = fault.offset + fault.len.max(1) - 1;
        if layout.small.data.contains(fault.offset) {
            let Some(slab) = layout.small.slab_of(last) else {
                return false;
            };
            let len = self.inner.small.len(mem, core) as u64;
            if (slab as u64) < len {
                process.map_small_upto(len);
                return true;
            }
            return false;
        }
        if layout.large.data.contains(fault.offset) {
            let Some(slab) = layout.large.slab_of(last) else {
                return false;
            };
            let len = self.inner.large.len(mem, core) as u64;
            if (slab as u64) < len {
                process.map_large_upto(len);
                return true;
            }
            return false;
        }
        // Huge heap: walk descriptor lists (§3.3.2); requires a thread
        // identity to publish the hazard offset.
        if layout.huge.data.contains(fault.offset) {
            let Some(tid) = ThreadId::new(tid_raw) else {
                return false;
            };
            let ctx = self.ctx(mem, tid, core);
            return self.inner.huge.handle_fault(&ctx, fault.offset, last);
        }
        false
    }

    /// A foreign-thread context (no rovers or buffer) over backend `mem`.
    fn ctx<'a, M: PodMemory + ?Sized>(&'a self, mem: &'a M, tid: ThreadId, core: CoreId) -> Ctx<'a, M> {
        self.ctx_with(mem, tid, core, None, None)
    }

    fn ctx_with<'a, M: PodMemory + ?Sized>(
        &'a self,
        mem: &'a M,
        tid: ThreadId,
        core: CoreId,
        rovers: Option<&'a Rovers>,
        remote: Option<&'a RemoteFreeBuffer>,
    ) -> Ctx<'a, M> {
        Ctx {
            mem,
            core,
            tid,
            process: &self.inner.process,
            unsized_limit: self.inner.options.unsized_limit,
            recoverable: self.inner.options.recoverable,
            rovers,
            remote,
            remote_free_batch: self.inner.options.remote_free_batch.clamp(1, 255),
        }
    }

    /// Registers the calling thread, claiming a free slot.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::TooManyThreads`] when every slot is taken,
    /// or [`AllocError::DeviceContention`] if the registry CAS could not
    /// complete against a persistently contended mCAS device.
    pub fn register_thread(&self) -> Result<ThreadHandle, AllocError> {
        // Charged to `CoreId(0)` whichever thread calls: a known
        // exception to the simulator's one-writer-per-core clock rule
        // (`cxl_pod::latency`). Racing core 0's own thread, this thread's
        // stale store can roll core 0's clock back by everything its
        // owner charged since this thread's load — as it always could
        // against a CAS's `serialize_through`; the charge stays here
        // because moving it re-pins every replay fingerprint.
        let mem = self.mem();
        let layout = mem.layout();
        for slot in 0..layout.max_threads {
            let off = layout.registry_at(slot);
            if mem.load_u64(CoreId(0), off) != registry::FREE {
                continue;
            }
            match registry_cas(mem, CoreId(0), off, registry::FREE, registry::LIVE) {
                Ok(()) => return Ok(self.make_handle(ThreadId::from_slot(slot))),
                // Someone else claimed the slot; try the next one.
                Err(RegistryError::Conflict(_)) => continue,
                Err(RegistryError::Contention { retries }) => {
                    return Err(AllocError::DeviceContention { retries })
                }
            }
        }
        Err(AllocError::TooManyThreads {
            max: layout.max_threads,
        })
    }

    fn make_handle(&self, tid: ThreadId) -> ThreadHandle {
        let core = CoreId(tid.slot() as u16);
        CURRENT.with(|c| c.set(Some((tid.raw(), core.0))));
        let (fresh, huge, dirty) = on_backend!(self, core, |mem| {
            // New incarnation: bump the lease epoch so renewals from the
            // previous owner of this slot can never read as fresh
            // heartbeats. A plain store suffices — slot ownership was
            // just linearized by the registry CAS.
            let lease_off = mem.layout().lease_at(tid.slot());
            let fresh = lease::next_epoch(mem.load_u64(core, lease_off));
            mem.store_u64(core, lease_off, fresh);
            // Huge-heap state is always derived from the segment: for a
            // fresh slot this yields the full descriptor pool and no
            // owned regions; for an adopted slot it is the §3.4.2
            // reconstruction.
            let ctx = self.ctx(mem, tid, core);
            let huge = self.inner.huge.reconstruct(&ctx);
            // The dirty-list mirror starts as the durable mask (0 after
            // a recovery), so the owner's first mark never drops a bit.
            let dirty = if ctx.recoverable {
                mem.load_u64(core, mem.layout().log_aux_at(tid.slot(), crate::oplog::DIRTY_WORD))
            } else {
                0
            };
            (fresh, huge, dirty)
        });
        ThreadHandle {
            heap: self.clone(),
            tid,
            core,
            lease_epoch: lease::epoch(fresh),
            huge,
            rovers: Rovers::new(dirty),
            remote: RemoteFreeBuffer::new(),
        }
    }

    /// Marks `tid` dead: flips its registry cell LIVE→DEAD and, on a
    /// simulated-coherence pod, discards the dead core's cache — dirty
    /// lines die with the thread, exactly as on real hardware. A harness
    /// calls it for a thread it crashed, a liveness detector for one
    /// whose lease expired.
    ///
    /// Returns `Ok(true)` if this call performed the flip, `Ok(false)`
    /// if the slot was already DEAD or mid-adoption (another detector
    /// got there first — benign).
    ///
    /// # Errors
    ///
    /// [`AllocError::BadThreadState`] if the slot is FREE (nothing to
    /// mark), [`AllocError::DeviceContention`] on retry-budget
    /// exhaustion.
    pub fn mark_crashed(&self, tid: ThreadId) -> Result<bool, AllocError> {
        let mem = self.mem();
        let off = mem.layout().registry_at(tid.slot());
        // `CoreId(0)` from any thread: see `register_thread`.
        match registry_cas(mem, CoreId(0), off, registry::LIVE, registry::DEAD) {
            Ok(()) => {
                self.discard_dead_cache(tid);
                Ok(true)
            }
            Err(RegistryError::Conflict(registry::DEAD | registry::ADOPTING)) => Ok(false),
            Err(e) => Err(e.map_conflict(|_| AllocError::BadThreadState {
                thread: tid,
                state: "not live",
            })),
        }
    }

    /// On a simulated pod, drops dead thread `tid`'s cache unwritten: the
    /// one place a dead core's cache is dropped. [`Cxlalloc::mark_crashed`]
    /// calls it after its registry flip; a harness calls it alone for a
    /// thread that dies with its slot LIVE.
    /// Call outside any op scope: the dead core is not the caller's, and
    /// a thread inside a scope must not touch another core's cache
    /// (`cxl_pod::coherence`). If the "dead" thread is in fact mid-op
    /// on another OS thread, this waits for that op to return.
    pub fn discard_dead_cache(&self, tid: ThreadId) {
        if let Some(sim) = self.mem().as_any().downcast_ref::<cxl_pod::SimMemory>() {
            sim.cache().discard_all(tid.slot() as usize);
        }
    }

    /// Recovers crashed thread `tid`'s interrupted operation, using
    /// `via`'s core for memory access. Non-blocking: touches only the
    /// dead thread's single-writer structures and lock-free cells.
    ///
    /// # Errors
    ///
    /// Returns [`AllocError::BadThreadState`] unless `tid` is marked
    /// crashed.
    ///
    /// # Examples
    ///
    /// A survivor repairs a thread that died without cleaning up (the
    /// handle is dropped while its slot is still LIVE, exactly what a
    /// real crash leaves behind):
    ///
    /// ```
    /// use cxl_core::{AttachOptions, Cxlalloc};
    /// use cxl_pod::{HwccMode, Pod, PodConfig};
    ///
    /// let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited)?;
    /// let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
    /// let survivor = heap.register_thread()?;
    ///
    /// let mut victim = heap.register_thread()?;
    /// let tid = victim.tid();
    /// let _leaked = victim.alloc(64)?;
    /// drop(victim); // dies mid-flight: slot stays LIVE, block stays allocated
    ///
    /// heap.mark_crashed(tid)?; // LIVE → DEAD (and drops the dead core's cache)
    /// let report = heap.recover(tid, survivor.core())?;
    /// assert!(report.interrupted.is_none(), "no op was in flight: {}", report.outcome);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn recover(&self, tid: ThreadId, via: CoreId) -> Result<RecoveryReport, AllocError> {
        let mem = self.mem();
        let off = mem.layout().registry_at(tid.slot());
        if mem.load_u64(via, off) != registry::DEAD {
            return Err(AllocError::BadThreadState {
                thread: tid,
                state: "not crashed",
            });
        }
        Ok(self.recover_inner(tid, via))
    }

    /// The recovery body, run once the caller has established exclusive
    /// rights (slot observed DEAD, or held in ADOPTING by the caller).
    fn recover_inner(&self, tid: ThreadId, via: CoreId) -> RecoveryReport {
        on_backend!(self, via, |mem| {
            let ctx = self.ctx(mem, tid, via);
            let report = recovery::recover(&ctx);
            // Recovery repairs the dead thread's structures through
            // `via`'s cache, but the thread may resume on a different
            // core (adopt hands the heap back to the original slot).
            // Every repair must be durable before anyone else reads it.
            mem.flush_all(via);
            mem.fence(via);
            // Every list is now durable and consistent: a flush point.
            ctx.log().clear_dirty(via);
            report
        })
    }

    /// Races to adopt crashed thread `tid`: recovers it and re-registers
    /// it as a live thread owned by the caller, reconstructing its
    /// volatile huge-heap state from the segment (paper §3.4.2). The
    /// DEAD→ADOPTING registry CAS is the linearization point, so when
    /// several survivors call this concurrently exactly one wins, runs
    /// recovery while holding the slot in ADOPTING, and commits it back
    /// to LIVE. Losers return immediately with
    /// [`AllocError::AdoptionRaced`] and must not touch the dead
    /// thread's structures.
    ///
    /// # Errors
    ///
    /// [`AllocError::AdoptionRaced`] when another survivor's CAS
    /// linearized first (slot seen ADOPTING or already LIVE);
    /// [`AllocError::BadThreadState`] when the slot is not crashed at
    /// all (FREE); [`AllocError::DeviceContention`] when the claim CAS
    /// exhausted its retry budget.
    ///
    /// # Examples
    ///
    /// Adopt a crashed thread's slot and keep allocating through it; a
    /// second adoption attempt loses the (already decided) race:
    ///
    /// ```
    /// use cxl_core::{AllocError, AttachOptions, Cxlalloc};
    /// use cxl_pod::{HwccMode, Pod, PodConfig};
    ///
    /// let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited)?;
    /// let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
    /// let survivor = heap.register_thread()?;
    ///
    /// let victim = heap.register_thread()?;
    /// let tid = victim.tid();
    /// drop(victim);
    /// heap.mark_crashed(tid)?;
    ///
    /// let (mut adopted, _report) = heap.adopt(tid, survivor.core())?;
    /// assert_eq!(adopted.tid(), tid); // the winner now owns the slot
    /// let ptr = adopted.alloc(64)?;
    /// adopted.dealloc(ptr)?;
    ///
    /// // The slot is LIVE again, so a late adopter gets the race error.
    /// assert!(matches!(
    ///     heap.adopt(tid, survivor.core()),
    ///     Err(AllocError::AdoptionRaced { .. })
    /// ));
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn adopt(&self, tid: ThreadId, via: CoreId) -> Result<(ThreadHandle, RecoveryReport), AllocError> {
        let mem = self.mem();
        let off = mem.layout().registry_at(tid.slot());
        match registry_cas(mem, via, off, registry::DEAD, registry::ADOPTING) {
            Ok(()) => {}
            Err(RegistryError::Conflict(registry::ADOPTING | registry::LIVE)) => {
                return Err(AllocError::AdoptionRaced { thread: tid });
            }
            Err(RegistryError::Conflict(_)) => {
                return Err(AllocError::BadThreadState {
                    thread: tid,
                    state: "not crashed",
                });
            }
            Err(RegistryError::Contention { retries }) => {
                return Err(AllocError::DeviceContention { retries });
            }
        }
        let report = self.recover_inner(tid, via);
        // Commit ADOPTING→LIVE. We own the slot, so only transient
        // device contention can fail this CAS; the loop must not give up
        // (abandoning would leak the slot in ADOPTING forever) — under a
        // persistent outage the NMP breaker eventually reroutes the CAS
        // through the software-fallback path, which cannot bounce.
        let mut backoff = Backoff::new(BackoffPolicy::default(), off ^ ((via.0 as u64) << 48) ^ 1);
        loop {
            match mem.cas_u64(via, off, registry::ADOPTING, registry::LIVE) {
                Ok(_) => break,
                Err(actual) => {
                    debug_assert_eq!(
                        actual,
                        registry::ADOPTING,
                        "slot {tid} changed under its adopter"
                    );
                    mem.event(via, TraceKind::CasRetry, off);
                    Backoff::pause(backoff.step_saturating());
                }
            }
        }
        let handle = self.make_handle(tid);
        Ok((handle, report))
    }

    /// Heap-wide statistics.
    pub fn stats(&self) -> HeapStats {
        let mem = self.mem();
        // `CoreId(0)` from any thread: see `register_thread`.
        let core = CoreId(0);
        let small_len = self.inner.small.len(mem, core);
        let large_len = self.inner.large.len(mem, core);
        HeapStats {
            small_slabs: small_len,
            large_slabs: large_len,
            small_bytes: self.inner.small.mapped_bytes(mem, core),
            large_bytes: self.inner.large.mapped_bytes(mem, core),
            hwcc_bytes: mem.layout().hwcc_bytes_in_use(small_len, large_len),
            mem: mem.stats(),
        }
    }

    /// Runs the heap-wide invariant checks of §5.1: [`Cxlalloc::census`]
    /// with its block list dropped. Call only while the heap is
    /// quiescent.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self, via: CoreId) -> Result<(), String> {
        self.census(via).map(drop)
    }

    /// Walks the whole heap, checking every invariant, and enumerates
    /// every allocated block (the end-of-run zero-lost-blocks audit —
    /// see [`crate::audit`]). Call only while the heap is quiescent (no
    /// concurrent operations); concurrent transitions can look
    /// momentarily inconsistent to the walk.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn census(&self, via: CoreId) -> Result<crate::audit::BlockCensus, String> {
        crate::audit::census(self.mem(), via)
    }
}

/// Snapshot of heap-level statistics.
#[derive(Debug, Clone)]
pub struct HeapStats {
    /// Small-heap length in slabs.
    pub small_slabs: u32,
    /// Large-heap length in slabs.
    pub large_slabs: u32,
    /// Small-heap mapped data bytes.
    pub small_bytes: u64,
    /// Large-heap mapped data bytes.
    pub large_bytes: u64,
    /// HWcc metadata bytes in use (§5.2.1 metric).
    pub hwcc_bytes: u64,
    /// Backend operation counters.
    pub mem: cxl_pod::stats::MemStatsSnapshot,
}

/// A registered thread's handle: the only way to allocate and free.
///
/// Not `Sync`: each handle belongs to one thread, as the paper assumes
/// (threads pinned to cores). It may be *moved* to another OS thread,
/// which models rescheduling a pinned thread — do this only at quiescent
/// points.
#[derive(Debug)]
pub struct ThreadHandle {
    heap: Cxlalloc,
    tid: ThreadId,
    core: CoreId,
    /// The lease epoch this incarnation owns, pinned at registration /
    /// adoption time. Heartbeats renew only while the shared lease word
    /// still carries this epoch; an adopter bumps the epoch, so a stale
    /// owner's next heartbeat fails with
    /// [`AllocError::LeaseStolen`](crate::AllocError::LeaseStolen)
    /// instead of silently renewing a slot it no longer owns.
    lease_epoch: u16,
    huge: HugeThread,
    /// Where each recently used slab's next block scan starts.
    rovers: Rovers,
    /// Pending (buffered, unpublished) remote frees, keyed by slab.
    /// Inert unless `AttachOptions::remote_free_batch > 1`.
    remote: RemoteFreeBuffer,
}

impl ThreadHandle {
    /// This thread's allocator identity.
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// The simulated core this thread is pinned to.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The lease epoch this incarnation installed at registration or
    /// adoption; heartbeats renew the lease only while it still carries it.
    pub fn lease_epoch(&self) -> u16 {
        self.lease_epoch
    }

    /// The owning heap.
    pub fn heap(&self) -> &Cxlalloc {
        &self.heap
    }

    /// This thread's context over backend `mem`.
    fn ctx<'a, M: PodMemory + ?Sized>(&'a self, mem: &'a M) -> Ctx<'a, M> {
        self.heap.ctx_with(
            mem,
            self.tid,
            self.core,
            Some(&self.rovers),
            Some(&self.remote),
        )
    }

    /// Allocates `size` bytes, routed to the small (≤ 1 KiB), large
    /// (≤ 512 KiB), or huge heap.
    ///
    /// # Errors
    ///
    /// [`AllocError::InvalidSize`] for zero sizes;
    /// [`AllocError::OutOfMemory`] when the responsible heap is
    /// exhausted.
    pub fn alloc(&mut self, size: usize) -> Result<OffsetPtr, AllocError> {
        self.alloc_inner(size, 0)
    }

    /// Detectable allocation: like [`ThreadHandle::alloc`], but records
    /// `dst` (the 8-byte shared cell the caller will store the resulting
    /// pointer into) in the recovery log. If the thread crashes
    /// mid-allocation, recovery keeps the block only if `dst` holds its
    /// offset — the mechanism recoverable data structures use to avoid
    /// leaks (paper Figure 7).
    ///
    /// # Errors
    ///
    /// As [`ThreadHandle::alloc`].
    pub fn alloc_detectable(&mut self, size: usize, dst: OffsetPtr) -> Result<OffsetPtr, AllocError> {
        self.alloc_inner(size, dst.offset())
    }

    fn alloc_inner(&mut self, size: usize, dst: u64) -> Result<OffsetPtr, AllocError> {
        let inner = &self.heap.inner;
        on_backend!(self.heap, self.core, |mem| {
            // Built from fields, not `self.ctx`: the huge path below
            // borrows `self.huge` mutably.
            let ctx = self.heap.ctx_with(
                mem,
                self.tid,
                self.core,
                Some(&self.rovers),
                Some(&self.remote),
            );
            let offset = if size <= inner.small.classes.max_size() as usize {
                inner.small.alloc(&ctx, size, dst)
            } else if size <= inner.large.classes.max_size() as usize {
                inner.large.alloc(&ctx, size, dst)
            } else {
                inner.huge.alloc(&ctx, &mut self.huge, size)
            }?;
            mem.event(self.core, TraceKind::SlabAlloc, offset);
            Ok(OffsetPtr::new(offset).expect("data offsets are nonzero"))
        })
    }

    /// Frees the allocation at `ptr`. Size is not required: the owning
    /// slab or huge descriptor is found from the offset.
    ///
    /// # Errors
    ///
    /// [`AllocError::WildPointer`] / [`AllocError::NotAllocated`] for
    /// pointers that do not reference a live allocation.
    pub fn dealloc(&mut self, ptr: OffsetPtr) -> Result<(), AllocError> {
        self.dealloc_inner(ptr, None)
    }

    /// Detectable free, the mirror of [`ThreadHandle::alloc_detectable`]:
    /// frees `ptr`, claiming the 8-byte shared cell `dst` that names it.
    /// The free's log record names `dst` and the value `seen` it must
    /// hold, and the op's first store after logging is the claim, a CAS
    /// of `dst` from `seen` to 0. After a crash, recovery finishes the
    /// free iff `dst` no longer holds `seen`. So one thread at most may
    /// claim a given cell: a claimer whose CAS lost and who died before
    /// recording it would look to recovery like the winner.
    ///
    /// # Errors
    ///
    /// As [`ThreadHandle::dealloc`]; [`AllocError::ClaimLost`] when `dst`
    /// does not hold `seen` (nothing is freed);
    /// [`AllocError::NotDetectable`] for a huge-heap pointer.
    pub fn dealloc_detectable(&mut self, ptr: OffsetPtr, dst: OffsetPtr, seen: u64) -> Result<(), AllocError> {
        self.dealloc_inner(ptr, Some(Claim { dst: dst.offset(), seen }))
    }

    fn dealloc_inner(&mut self, ptr: OffsetPtr, claim: Option<Claim>) -> Result<(), AllocError> {
        let inner = &self.heap.inner;
        let offset = ptr.offset();
        on_backend!(self.heap, self.core, |mem| {
            let layout = mem.layout();
            let ctx = self.ctx(mem);
            let result = if layout.small.data.contains(offset) {
                inner.small.dealloc(&ctx, offset, claim)
            } else if layout.large.data.contains(offset) {
                inner.large.dealloc(&ctx, offset, claim)
            } else if layout.huge.data.contains(offset) {
                match claim {
                    None => inner.huge.dealloc(&ctx, offset),
                    Some(_) => Err(AllocError::NotDetectable { offset }),
                }
            } else {
                Err(AllocError::WildPointer { offset })
            };
            if result.is_ok() {
                mem.event(self.core, TraceKind::SlabFree, offset);
            }
            result
        })
    }

    /// Resolves `ptr` to a raw pointer valid for `len` bytes in this
    /// process, faulting in the mapping if necessary (PC-T).
    ///
    /// # Errors
    ///
    /// Returns the [`Fault`] for wild pointers.
    #[inline]
    pub fn resolve(&self, ptr: OffsetPtr, len: u64) -> Result<*mut u8, Fault> {
        match self.heap.inner.process.resolve_hit(ptr.offset(), len) {
            Some(raw) => Ok(raw),
            None => self.resolve_miss(ptr, len),
        }
    }

    #[cold]
    fn resolve_miss(&self, ptr: OffsetPtr, len: u64) -> Result<*mut u8, Fault> {
        // The fault handler is the only reader of `CURRENT`, and only a
        // miss can reach it.
        CURRENT.with(|c| c.set(Some((self.tid.raw(), self.core.0))));
        self.heap.inner.process.resolve(ptr.offset(), len)
    }

    /// Renews this thread's lease: bumps the 48-bit counter of its
    /// lease word (epoch unchanged), proving to every
    /// [`LivenessDetector`](crate::liveness::LivenessDetector) in the
    /// pod that the thread is still making progress. Call periodically;
    /// a thread that stops heartbeating is declared dead after the
    /// detector's expiry budget and becomes adoptable.
    ///
    /// The renewal is a CAS (an mCAS spwr/sprd pair on pods without
    /// HWcc): the thread is the lease word's only writer while LIVE, so
    /// the CAS can only fail transiently on device contention, which is
    /// retried under the bounded backoff policy.
    ///
    /// # Errors
    ///
    /// [`AllocError::LeaseStolen`] if the lease word's epoch is no
    /// longer this incarnation's: a detector declared the thread dead
    /// and an adopter bumped the epoch. The handle must stop touching
    /// the heap — its slot now belongs to the adopter. The epoch is
    /// checked *before* the CAS (a renewal CAS that raced a concurrent
    /// steal would otherwise succeed against the stolen word and read
    /// as a fresh heartbeat from the new owner's slot).
    /// [`AllocError::DeviceContention`] if the device kept bouncing the
    /// renewal past the retry budget (the lease simply stays un-renewed;
    /// the next heartbeat tries again).
    pub fn heartbeat(&self) -> Result<(), AllocError> {
        let mem = self.heap.mem();
        let off = mem.layout().lease_at(self.tid.slot());
        let word = mem.load_u64(self.core, off);
        let stolen = |found: u64| AllocError::LeaseStolen {
            thread: self.tid,
            held_epoch: self.lease_epoch,
            found_epoch: lease::epoch(found),
        };
        if lease::epoch(word) != self.lease_epoch {
            return Err(stolen(word));
        }
        registry_cas(mem, self.core, off, word, lease::renew(word))
            .map_err(|e| e.map_conflict(stolen))?;
        mem.event(self.core, TraceKind::LeaseRenew, off);
        Ok(())
    }

    /// Freezes this thread's lease for a graceful drain: writes the
    /// [`lease::FROZEN`](crate::liveness::lease::FROZEN) counter
    /// sentinel under the current epoch, telling every
    /// [`LivenessDetector`](crate::liveness::LivenessDetector) that the
    /// thread exited *on purpose* with its heap state fully settled.
    /// Frozen slots are skipped by the detector forever: they stay LIVE
    /// and never become adoptable, which is exactly right because a
    /// drained thread has nothing left to recover — call
    /// [`flush_cache`](Self::flush_cache) first so every buffered
    /// remote free and cached descriptor store is durable before the
    /// freeze lands.
    ///
    /// If the lease was already stolen (epoch moved on), the freeze is
    /// silently skipped: the slot belongs to the adopter now and its
    /// lease discipline is the adopter's to run.
    pub fn freeze_lease(&self) {
        let mem = self.heap.mem();
        let off = mem.layout().lease_at(self.tid.slot());
        let word = mem.load_u64(self.core, off);
        if lease::epoch(word) != self.lease_epoch {
            return;
        }
        // Plain store + flush, like registration's epoch bump: while the
        // epoch is ours we are the word's only writer, and a racing
        // steal bumps the epoch so our frozen image reads as stale.
        mem.store_u64(self.core, off, lease::pack(self.lease_epoch, lease::FROZEN));
        mem.flush(self.core, off, 8);
        mem.fence(self.core);
    }

    /// Runs one huge-heap cleanup pass (hazard scan + descriptor
    /// reclamation); returns the number of allocations reclaimed.
    pub fn cleanup(&mut self) -> u32 {
        on_backend!(self.heap, self.core, |mem| {
            let ctx = self.heap.ctx_with(
                mem,
                self.tid,
                self.core,
                Some(&self.rovers),
                Some(&self.remote),
            );
            self.heap.inner.huge.cleanup(&ctx, &mut self.huge)
        })
    }

    /// Publishes every buffered remote free now (one batched detectable
    /// CAS per slab with pending frees), at the quiesce points
    /// [`flush_cache`](Self::flush_cache) and
    /// [`flush_local_caches`](Self::flush_local_caches).
    fn drain_remote_frees<M: PodMemory + ?Sized>(&self, ctx: &Ctx<'_, M>) {
        if self.remote.is_empty() {
            return;
        }
        while let Some((kind, slab, pending)) = self.remote.take_any() {
            SlabHeap::of(kind).publish_remote_frees(ctx, slab, pending);
        }
    }

    /// Writes back and drops this thread's entire simulated cache — a
    /// quiesce point, required before another core validates the heap
    /// with [`Cxlalloc::check_invariants`] on software-coherent pods
    /// (the checker reads durable memory, which otherwise lags owners'
    /// caches). It is also a flush point for the thread's dirty-list
    /// mask, which it clears, so a recovery after it walks only the
    /// lists edited since.
    pub fn flush_cache(&self) {
        // Buffered remote frees publish first (they are invisible to
        // every other thread until their counter decrements land), so
        // the cache-wide writeback covers their stores too.
        on_backend!(self.heap, self.core, |mem| {
            let ctx = self.ctx(mem);
            self.drain_remote_frees(&ctx);
            mem.flush_all(self.core);
            // A flush point: every list edit the dirty-list mask covered
            // is durable now.
            if self.rovers.dirty() != 0 {
                ctx.log().clear_dirty(self.core);
                self.rovers.set_dirty(0);
            }
        })
    }

    /// Releases surplus thread-local slabs to the global free list
    /// immediately (normally done incrementally during frees).
    pub fn flush_local_caches(&mut self) {
        on_backend!(self.heap, self.core, |mem| {
            let ctx = self.ctx(mem);
            self.drain_remote_frees(&ctx);
            self.heap.inner.small.release_overflow(&ctx);
            self.heap.inner.large.release_overflow(&ctx);
        })
    }

    /// Huge-heap volatile state (inspection for tests).
    pub fn huge_state(&self) -> &HugeThread {
        &self.huge
    }

    /// Test hook: clobbers the volatile first-fit rover of the slab
    /// containing `ptr` with an arbitrary value. The rover is advisory
    /// — `find_set_from` revalidates every word against the durable
    /// bitset and wraps to zero — so no value can make an allocation
    /// incorrect; tests use this hook to prove exactly that.
    #[doc(hidden)]
    pub fn debug_set_rover(&self, ptr: OffsetPtr, rover: u32) {
        let layout = self.heap.mem().layout();
        let offset = ptr.offset();
        let (kind, hl) = if layout.small.data.contains(offset) {
            (HeapKind::Small, &layout.small)
        } else if layout.large.data.contains(offset) {
            (HeapKind::Large, &layout.large)
        } else {
            panic!("debug_set_rover: {offset:#x} is not a slab-heap pointer");
        };
        let slab = hl.slab_of(offset).expect("offset is in the data region");
        self.rovers.set(kind, slab, rover);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::{Pod, PodConfig};

    fn setup() -> (Pod, Cxlalloc) {
        let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        (pod, heap)
    }

    #[test]
    fn alloc_free_roundtrip_small() {
        let (_pod, heap) = setup();
        let mut t = heap.register_thread().unwrap();
        let ptr = t.alloc(64).unwrap();
        let raw = t.resolve(ptr, 64).unwrap();
        unsafe { raw.write_bytes(0x5A, 64) };
        t.dealloc(ptr).unwrap();
        heap.check_invariants(t.core()).unwrap();
    }

    #[test]
    fn distinct_threads_get_distinct_ids() {
        let (_pod, heap) = setup();
        let a = heap.register_thread().unwrap();
        let b = heap.register_thread().unwrap();
        assert_ne!(a.tid(), b.tid());
    }

    #[test]
    fn thread_slots_exhaust() {
        let (_pod, heap) = setup();
        let mut handles = Vec::new();
        loop {
            match heap.register_thread() {
                Ok(h) => handles.push(h),
                Err(AllocError::TooManyThreads { max }) => {
                    assert_eq!(max, 16);
                    break;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(handles.len(), 16);
    }

    #[test]
    fn routes_by_size() {
        let (pod, heap) = setup();
        let mut t = heap.register_thread().unwrap();
        let layout = pod.layout();
        let small = t.alloc(8).unwrap();
        assert!(layout.small.data.contains(small.offset()));
        let large = t.alloc(4096).unwrap();
        assert!(layout.large.data.contains(large.offset()));
        let huge = t.alloc(1 << 20).unwrap();
        assert!(layout.huge.data.contains(huge.offset()));
        for p in [small, large, huge] {
            t.dealloc(p).unwrap();
        }
    }

    #[test]
    fn zero_size_rejected() {
        let (_pod, heap) = setup();
        let mut t = heap.register_thread().unwrap();
        assert!(matches!(t.alloc(0), Err(AllocError::InvalidSize { .. })));
    }

    #[test]
    fn wild_free_rejected() {
        let (_pod, heap) = setup();
        let mut t = heap.register_thread().unwrap();
        let err = t.dealloc(OffsetPtr::new(8).unwrap()).unwrap_err();
        assert!(matches!(err, AllocError::WildPointer { .. }));
    }

    #[test]
    fn double_free_rejected() {
        let (_pod, heap) = setup();
        let mut t = heap.register_thread().unwrap();
        let ptr = t.alloc(64).unwrap();
        t.dealloc(ptr).unwrap();
        assert!(matches!(
            t.dealloc(ptr),
            Err(AllocError::NotAllocated { .. })
        ));
    }
}
