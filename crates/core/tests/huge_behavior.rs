//! Huge-heap behavior: reservation claiming, descriptor lifecycle,
//! hazard offsets, cross-process faulting, cleanup, and reconstruction
//! (paper §3.1.2 and §3.3.2).

use cxl_core::{AllocError, AttachOptions, Cxlalloc};
use cxl_pod::{Pod, PodConfig};

const MIB: usize = 1 << 20;

fn setup() -> (Pod, Cxlalloc) {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    (pod, heap)
}

#[test]
fn huge_alloc_maps_and_is_writable() {
    let (pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let p = t.alloc(MIB).unwrap();
    assert!(pod.layout().huge.data.contains(p.offset()));
    assert_eq!(p.offset() % 4096, 0, "huge allocations are page aligned");
    let raw = t.resolve(p, MIB as u64).unwrap();
    unsafe {
        raw.write_bytes(0xCD, MIB);
        assert_eq!(*raw.add(MIB - 1), 0xCD);
    }
    t.dealloc(p).unwrap();
}

#[test]
fn huge_allocations_do_not_overlap() {
    // One hazard slot is held per live mapping, so holding 10 live
    // allocations needs ≥10 slots.
    let config = PodConfig {
        hazards_per_thread: 16,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::new(config).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let _ = pod;
    let mut t = heap.register_thread().unwrap();
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for i in 1..=10u64 {
        let size = i as usize * 600 * 1024;
        let p = t.alloc(size).unwrap();
        for &(s, e) in &ranges {
            assert!(
                p.offset() + size as u64 <= s || p.offset() >= e,
                "overlap: [{:#x}+{size}) vs [{s:#x},{e:#x})",
                p.offset()
            );
        }
        ranges.push((p.offset(), p.offset() + size as u64));
    }
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn address_space_is_reused_after_cleanup() {
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let first = t.alloc(4 * MIB).unwrap();
    t.dealloc(first).unwrap();
    // Space returns only after a cleanup pass observes no hazards.
    let reclaimed = t.cleanup();
    assert_eq!(reclaimed, 1);
    let second = t.alloc(4 * MIB).unwrap();
    assert_eq!(first, second, "address space must be recycled");
    t.dealloc(second).unwrap();
    t.cleanup();
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn descriptor_slots_are_recycled() {
    let config = PodConfig {
        huge_descs_per_thread: 4,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::new(config).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    // Many more allocations than descriptor slots, with cleanup between.
    for _ in 0..20 {
        let p = t.alloc(MIB).unwrap();
        t.dealloc(p).unwrap();
        t.cleanup();
    }
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn descriptor_pool_exhaustion_reported() {
    let config = PodConfig {
        huge_descs_per_thread: 2,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::new(config).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    let _a = t.alloc(MIB).unwrap();
    let _b = t.alloc(MIB).unwrap();
    assert!(matches!(
        t.alloc(MIB),
        Err(AllocError::DescriptorPoolExhausted { .. })
    ));
}

#[test]
fn multi_region_allocation_spans_reservations() {
    // Test config: 64 MiB huge capacity in 32 regions of 2 MiB. An
    // 8 MiB allocation must claim 4 adjacent regions.
    let (pod, heap) = setup();
    let region = pod.layout().huge.region_size;
    let mut t = heap.register_thread().unwrap();
    let p = t.alloc(4 * region as usize).unwrap();
    let raw = t.resolve(p, 4 * region).unwrap();
    unsafe {
        // Touch every region of the span.
        for i in 0..4 {
            *raw.add((i * region) as usize) = i as u8 + 1;
        }
    }
    t.dealloc(p).unwrap();
    t.cleanup();
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn huge_oom_when_regions_exhausted() {
    let (pod, heap) = setup();
    let capacity = pod.layout().huge.data.len;
    let mut t = heap.register_thread().unwrap();
    assert!(matches!(
        t.alloc(capacity as usize + MIB),
        Err(AllocError::OutOfMemory { .. })
    ));
}

#[test]
fn cross_process_fault_installs_huge_mapping() {
    // PC-T for huge allocations: process B dereferences a pointer to a
    // mapping created in process A; the fault handler walks descriptor
    // lists, publishes a hazard, and installs the mapping.
    let (pod, _) = setup();
    let proc_a = pod.processes()[0].clone();
    let heap_a = Cxlalloc::attach(proc_a, AttachOptions::default()).unwrap();
    let proc_b = pod.spawn_process();
    let heap_b = Cxlalloc::attach(proc_b.clone(), AttachOptions::default()).unwrap();

    let mut a = heap_a.register_thread().unwrap();
    let mut b = heap_b.register_thread().unwrap();

    let p = a.alloc(2 * MIB).unwrap();
    unsafe { *a.resolve(p, 8).unwrap() = 42 };

    let faults_before = proc_b.fault_count();
    let raw = b.resolve(p, 8).unwrap();
    assert_eq!(unsafe { *raw }, 42);
    assert!(proc_b.fault_count() > faults_before, "B must have faulted");
    // B's fault published a hazard; A freeing does not reclaim until B's
    // hazard clears.
    b.dealloc(p).unwrap(); // B can even be the freer (remote free path)
    let mut a_reclaims = a.cleanup();
    // B still hazards the offset? No: B freed it, removing B's hazard.
    // A's hazard was removed at... A never faulted (own mapping), A's
    // hazard came from alloc. dealloc by B does not clear A's hazard, so
    // A's cleanup pass first drops its own stale mapping+hazard, then
    // reclaims.
    a_reclaims += a.cleanup();
    assert!(a_reclaims >= 1, "allocation must eventually be reclaimed");
    heap_a.check_invariants(a.core()).unwrap();
}

/// The hazard offsets `thread` has published, read from the segment.
fn hazards(pod: &Pod, thread: &cxl_core::ThreadHandle) -> Vec<u64> {
    let hl = &pod.layout().huge;
    (0..hl.hazards_per_thread)
        .map(|i| {
            pod.memory()
                .load_u64(thread.core(), hl.hazard_at(thread.tid().slot(), i))
        })
        .filter(|&raw| raw != 0)
        .map(|raw| raw - 1)
        .collect()
}

#[test]
fn a_resolve_fault_is_handled_as_the_resolving_handle() {
    // The fault handler learns its thread from a thread-local that only
    // handle creation and `resolve`'s miss set: here another handle made
    // both the last registration and the last alloc and free on this OS
    // thread, and the hazard must still be the resolver's.
    let (pod, _) = setup();
    let heap_a = Cxlalloc::attach(pod.processes()[0].clone(), AttachOptions::default()).unwrap();
    let heap_b = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut a = heap_a.register_thread().unwrap();
    let p = a.alloc(2 * MIB).unwrap();

    let resolver = heap_b.register_thread().unwrap();
    let mut other = heap_b.register_thread().unwrap();
    let small = other.alloc(64).unwrap();
    other.dealloc(small).unwrap();

    resolver.resolve(p, 8).unwrap();
    assert_eq!(hazards(&pod, &resolver), vec![p.offset()]);
    assert!(hazards(&pod, &other).is_empty());
}

#[test]
fn hazard_prevents_premature_reclamation() {
    let (pod, _) = setup();
    let proc_a = pod.processes().first().cloned().unwrap_or_else(|| pod.spawn_process());
    let heap_a = Cxlalloc::attach(proc_a, AttachOptions::default()).unwrap();
    let proc_b = pod.spawn_process();
    let heap_b = Cxlalloc::attach(proc_b, AttachOptions::default()).unwrap();

    let mut a = heap_a.register_thread().unwrap();
    let b = heap_b.register_thread().unwrap();

    let p = a.alloc(MIB).unwrap();
    // B maps it via fault (publishing B's hazard).
    let _ = b.resolve(p, 8).unwrap();
    // A frees and cleans up: B's hazard must block reclamation.
    a.dealloc(p).unwrap();
    assert_eq!(a.cleanup(), 0, "B's hazard must block reclamation");
    // B exits its use: B's own cleanup drops its mapping and hazard.
    let mut b = b;
    b.cleanup();
    assert_eq!(a.cleanup(), 1, "now reclaimable");
}

#[test]
fn reconstruction_matches_live_state() {
    // Adoption rebuilds HugeLocal.free and the descriptor pool purely
    // from segment state; verify via drop-and-adopt of a live thread.
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let keep = t.alloc(MIB).unwrap();
    let freed = t.alloc(2 * MIB).unwrap();
    t.dealloc(freed).unwrap();
    let tid = t.tid();
    let core = t.core();
    let free_before = t.huge_state().free.free_bytes();
    let slots_before = t.huge_state().desc_slots.len();
    drop(t);

    // Simulate crash + adoption (the thread was idle, so recovery is a
    // no-op and reconstruction must reproduce the volatile state).
    heap.mark_crashed(tid).unwrap();
    let (mut t2, report) = heap.adopt(tid, core).unwrap();
    assert_eq!(report.interrupted, None);
    assert_eq!(t2.huge_state().free.free_bytes(), free_before);
    // The freed-but-unreclaimed descriptor is still linked, so the pool
    // has the same number of free slots.
    assert_eq!(t2.huge_state().desc_slots.len(), slots_before);
    // The kept allocation is still usable; the freed one reclaims.
    unsafe { *t2.resolve(keep, 8).unwrap() = 9 };
    assert_eq!(t2.cleanup(), 1);
    t2.dealloc(keep).unwrap();
    heap.check_invariants(t2.core()).unwrap();
}
