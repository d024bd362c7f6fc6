//! The modeled threadtest/xmalloc workload ([`micro`]) over
//! `cxl-drive`'s clock-ordered driver ([`cxl_drive::clock`]): the hosts
//! are comparison allocators' threads, so it lives beside `baselines`.

use baselines::PodAllocThread;
use cxl_core::{OffsetPtr, ThreadId};
use cxl_drive::clock::{run, Span, Turn};
use cxl_pod::{CoreId, PodMemory};
use std::collections::VecDeque;
use workloads::MicroSpec;

/// The simulated core a cxlalloc thread charges.
pub(crate) fn core_of(thread: &dyn PodAllocThread) -> CoreId {
    let tid = thread.thread_id().and_then(ThreadId::new).expect("a cxlalloc thread");
    CoreId(tid.slot() as u16)
}

/// One host of a modeled threadtest/xmalloc run.
pub trait MicroHost {
    /// What an allocation returns and a free takes.
    type Block;
    /// The simulated core the host charges.
    fn core(&self) -> CoreId;
    /// Allocates one block of `size` bytes.
    fn alloc(&mut self, size: usize) -> Self::Block;
    /// Frees one block.
    fn free(&mut self, block: Self::Block);
}

impl MicroHost for Box<dyn PodAllocThread> {
    type Block = OffsetPtr;

    fn core(&self) -> CoreId {
        core_of(self.as_ref())
    }

    fn alloc(&mut self, size: usize) -> OffsetPtr {
        self.as_mut().alloc(size).expect("modeled micro alloc")
    }

    fn free(&mut self, block: OffsetPtr) {
        self.dealloc(block).expect("modeled micro free");
    }
}

/// threadtest or xmalloc (`spec.remote_free`) under the driver: each
/// host allocates `ops` blocks in batches of `spec.batch`, and a full
/// batch goes to the host itself (threadtest) or to the next host of the
/// ring (xmalloc). A host frees what it has been handed, oldest first,
/// before it allocates again, and once its own allocations are done it
/// waits for its sender's last batch. A waiting host's clock stands
/// still, so it frees that batch from where its clock stood.
pub fn micro<H: MicroHost>(
    mem: &dyn PodMemory,
    hosts: &mut [H],
    spec: &MicroSpec,
    ops: u64,
) -> Span {
    let n = hosts.len();
    let cores: Vec<CoreId> = hosts.iter().map(H::core).collect();
    let next = |h: usize| if spec.remote_free { (h + 1) % n } else { h };
    let sender = |h: usize| if spec.remote_free { (h + n - 1) % n } else { h };
    let mut left = vec![ops; n];
    let mut batches: Vec<Vec<H::Block>> = (0..n).map(|_| Vec::new()).collect();
    let mut handed: Vec<VecDeque<H::Block>> = (0..n).map(|_| VecDeque::new()).collect();
    run(mem, &cores, |h| {
        if let Some(block) = handed[h].pop_front() {
            hosts[h].free(block);
        } else if left[h] > 0 {
            batches[h].push(hosts[h].alloc(spec.object_size));
            left[h] -= 1;
            if batches[h].len() == spec.batch || left[h] == 0 {
                let batch = std::mem::take(&mut batches[h]);
                handed[next(h)].extend(batch);
            }
        } else if left[sender(h)] > 0 {
            return Turn::Wait;
        } else {
            return Turn::Done;
        }
        Turn::Ran
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocators::cxlalloc_pod;
    use baselines::{CxlallocAdapter, PodAlloc};
    use cxl_core::AttachOptions;
    use cxl_pod::HwccMode;

    #[test]
    fn one_host_is_the_plain_loop() {
        let spec = MicroSpec::threadtest_small();
        let ops = 1_000;
        let build = || {
            let alloc = CxlallocAdapter::new(
                cxlalloc_pod(64 << 20, 8, Some(HwccMode::Limited)),
                1,
                AttachOptions::default(),
            );
            let host = alloc.thread().unwrap();
            (alloc.pod().memory().clone(), host)
        };
        let (mem, host) = build();
        let span = micro(mem.as_ref(), &mut [host], &spec, ops);
        let (plain_mem, mut plain) = build();
        let core = plain.core();
        let before = plain_mem.virtual_ns(core);
        for _ in 0..ops / spec.batch as u64 {
            let blocks: Vec<_> = (0..spec.batch).map(|_| plain.alloc(spec.object_size)).collect();
            blocks.into_iter().for_each(|b| plain.free(b));
        }
        let plain_ns = plain_mem.virtual_ns(core) - before;
        assert_eq!(span, Span { makespan_ns: plain_ns, sum_ns: plain_ns });
        assert_eq!(mem.stats(), plain_mem.stats());
    }
}
