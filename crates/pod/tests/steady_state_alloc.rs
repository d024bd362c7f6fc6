//! Allocation guard for the substrate hot path.
//!
//! The perf claim behind the open-addressed cache and the lock-free line
//! clocks is that a *steady-state* simulated memory operation — cached
//! load, cached store, flush, fence, coherent CAS — touches no global
//! `Mutex` and allocates nothing: once the line tables have grown to the
//! working set, every op is table probes and atomics. Heap allocation is
//! the observable proxy this test pins: any regression that reintroduces
//! a `HashMap` insert, a `Vec` push, or lazy lock-queue setup on the hot
//! path shows up as a nonzero count.

use cxl_pod::{CoreId, HwccMode, Pod, PodConfig, PodMemory};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the allocations (alloc, alloc_zeroed, realloc) a thread makes
/// while it is armed. Only the measuring thread arms itself, so
/// libtest's own threads, which allocate when the box is loaded, never
/// reach the count. Frees are not counted: releasing memory on the hot path is as
/// disallowed as acquiring it, but every release implies an earlier
/// acquire, so counting acquisitions alone is sufficient.
struct CountingAlloc;

thread_local! {
    /// `Some(count)` while this thread is measured. A const-initialized
    /// `Cell` of a `Copy` value: reading it allocates nothing and needs
    /// no destructor, so the allocator may touch it.
    static ARMED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ARMED.try_with(|armed| armed.set(armed.get().map(|n| n + 1)));
}

/// Runs `f` with the calling thread armed; returns how many allocations
/// it made.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ARMED.with(|armed| armed.set(Some(0)));
    f();
    ARMED.with(|armed| armed.replace(None)).unwrap()
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One round of the steady-state op mix: cached loads and stores over a
/// small working set of SWcc descriptor words, a flush (evict + next-op
/// refill), a fence, and a coherent CAS on an HWcc word.
fn churn(mem: &dyn PodMemory, core: CoreId, swcc: u64, hwcc: u64, rounds: u64) {
    for i in 0..rounds {
        let off = swcc + (i % 4) * 8;
        mem.store_u64(core, off, i);
        assert_eq!(mem.load_u64(core, off), i);
        if i % 8 == 0 {
            mem.flush(core, off, 8);
            mem.fence(core);
        }
        let prev = mem.load_u64(core, hwcc);
        let _ = mem.cas_u64(core, hwcc, prev, prev + 1);
    }
}

#[test]
fn steady_state_substrate_ops_allocate_nothing() {
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let mem = pod.memory();
    let layout = pod.layout();
    let core = CoreId(0);

    // A SWcc descriptor word (routed through the simulated cache) and an
    // HWcc word (routed directly to the segment, where CAS is legal).
    let swcc = layout.small.swcc_desc_at(0);
    let hwcc = layout.small.global_len;
    assert!(!layout.is_hwcc(swcc), "descriptor must be SWcc");
    assert!(layout.is_hwcc(hwcc), "global length cell must be HWcc");

    // Warm up: grow the line table, fault in the stats shard, let
    // parking_lot set up whatever it sets up lazily.
    churn(mem.as_ref(), core, swcc, hwcc, 64);

    let delta = allocations_in(|| churn(mem.as_ref(), core, swcc, hwcc, 4096));
    assert_eq!(
        delta, 0,
        "steady-state load/store/cas/flush path allocated {delta} time(s)"
    );
}

/// The guard itself: an allocation made by the measured thread counts.
#[test]
fn an_allocation_on_the_measured_thread_is_counted() {
    let delta = allocations_in(|| drop(std::hint::black_box(vec![0u8; 64])));
    assert_eq!(delta, 1);
}
