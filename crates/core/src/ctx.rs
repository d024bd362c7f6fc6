//! Per-thread operation context.

use crate::dcas::Dcas;
use crate::oplog::OpLog;
use crate::remote::RemoteFreeBuffer;
use crate::rover::Rovers;
use crate::ThreadId;
use cxl_pod::{CoreId, PodMemory, Process};
use std::sync::Arc;

/// Everything a heap operation needs about the calling thread: its
/// identity, its core (cache), its process (mapping view), and handles to
/// its recovery log and the detectable-CAS help array.
///
/// Generic over the backend so one source path serves both
/// instantiations: [`ThreadHandle`](crate::ThreadHandle) and
/// [`Cxlalloc`](crate::Cxlalloc) pick `M = RawMemory` once per call on a
/// raw pod (every access inlines to a load or store), and the default
/// `dyn PodMemory` everywhere else.
pub(crate) struct Ctx<'m, M: PodMemory + ?Sized = dyn PodMemory + 'm> {
    pub mem: &'m M,
    pub core: CoreId,
    pub tid: ThreadId,
    pub process: &'m Arc<Process>,
    /// Maximum length of the thread-local unsized list before slabs
    /// overflow to the global free list.
    pub unsized_limit: u32,
    /// Whether recovery state (redo log, help records) is maintained.
    /// `false` reproduces the `cxlalloc-nonrecoverable` ablation.
    pub recoverable: bool,
    /// The calling thread's first-fit rovers (`None` for contexts that
    /// act on *another* thread's structures — recovery, fault handling —
    /// whose scans start from the bottom).
    pub rovers: Option<&'m Rovers>,
    /// The calling thread's pending-remote-free buffer (`None` for
    /// foreign-thread contexts, which never buffer).
    pub remote: Option<&'m RemoteFreeBuffer>,
    /// Remote frees buffered per slab before a batched publish; 1 means
    /// eager (publish every free individually, the paper's base
    /// protocol).
    pub remote_free_batch: u32,
}

impl<'m, M: PodMemory + ?Sized> Ctx<'m, M> {
    /// The thread's recovery log (inert when recovery is disabled).
    pub fn log(&self) -> OpLog<'m, M> {
        OpLog::with_options(self.mem, self.tid.slot(), self.recoverable)
    }

    /// Detectable-CAS handle (plain CAS when recovery is disabled).
    pub fn dcas(&self) -> Dcas<'m, M> {
        Dcas::with_detectable(self.mem, self.recoverable)
    }
}

impl<M: PodMemory + ?Sized> std::fmt::Debug for Ctx<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("tid", &self.tid)
            .field("core", &self.core)
            .finish_non_exhaustive()
    }
}
