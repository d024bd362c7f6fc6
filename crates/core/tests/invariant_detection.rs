//! The §5.1 invariant checker must actually *detect* corruption — these
//! tests sabotage heap metadata directly and assert the checker reports
//! each class of violation.

use cxl_core::cell::{flags, Detect, SwccHeader};
use cxl_core::{AttachOptions, Cxlalloc};
use cxl_pod::{CoreId, Pod, PodConfig};

fn setup() -> (Pod, Cxlalloc, cxl_core::ThreadHandle) {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    // Materialize a slab and keep it on the sized list (one live block
    // keeps it non-empty, one freed block keeps it non-full).
    let keep = t.alloc(64).unwrap();
    let free = t.alloc(64).unwrap();
    t.dealloc(free).unwrap();
    let _ = keep;
    (pod, heap, t)
}

#[test]
fn clean_heap_passes() {
    let (_pod, heap, t) = setup();
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn detects_owned_slab_on_global_list() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    // Fake a global list entry pointing at slab 0 while slab 0 still has
    // an owner.
    pod.memory().store_u64(
        CoreId(0),
        layout.small.global_free,
        Detect {
            version: 1,
            tid: 1,
            payload: 1, // slab 0 + 1
        }
        .pack(),
    );
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("global list"), "{err}");
}

#[test]
fn detects_full_slab_on_sized_list() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    // Slab 0 is on thread 1's sized list; zero its free count.
    pod.memory()
        .store_u64(CoreId(0), layout.small.free_count_at(0), 0);
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(
        err.contains("full slab") || err.contains("population"),
        "{err}"
    );
}

#[test]
fn detects_free_count_bitset_mismatch() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    // Corrupt the free count (bitset unchanged).
    let real = pod
        .memory()
        .load_u64(CoreId(0), layout.small.free_count_at(0));
    pod.memory()
        .store_u64(CoreId(0), layout.small.free_count_at(0), real - 1);
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("population"), "{err}");
}

#[test]
fn detects_sized_list_cycle() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    // Slab 0 heads thread 1's sized list; make it point at itself.
    let header_off = layout.small.swcc_desc_at(0);
    let mut header = SwccHeader::unpack(pod.memory().load_u64(CoreId(0), header_off));
    header.next = 1; // slab 0 again (self loop)
    pod.memory().store_u64(CoreId(0), header_off, header.pack());
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("cycle") || err.contains("cycles"), "{err}");
}

#[test]
fn detects_wrong_class_on_sized_list() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    let header_off = layout.small.swcc_desc_at(0);
    let mut header = SwccHeader::unpack(pod.memory().load_u64(CoreId(0), header_off));
    assert_eq!(header.flags & flags::SIZED, flags::SIZED);
    header.class = header.class.wrapping_add(1);
    pod.memory().store_u64(CoreId(0), header_off, header.pack());
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("class"), "{err}");
}

#[test]
fn detects_bogus_huge_descriptor() {
    let (pod, heap, mut t) = setup();
    let layout = pod.layout();
    let big = t.alloc(2 << 20).unwrap();
    // Find the descriptor through the list head and corrupt its size.
    let head = pod
        .memory()
        .load_u64(CoreId(0), layout.huge.local_descs_at(t.tid().slot()));
    assert_ne!(head, 0);
    pod.memory()
        .store_u64(CoreId(0), head + 16, layout.huge.data.len * 2);
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("huge"), "{err}");
    let _ = big;
}

#[test]
fn detects_bogus_reservation_owner() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    pod.memory().store_u64(
        CoreId(0),
        layout.huge.reservation_at(3),
        Detect {
            version: 0,
            tid: 0,
            payload: 60_000, // far beyond max_threads
        }
        .pack(),
    );
    let err = heap.check_invariants(t.core()).unwrap_err();
    assert!(err.contains("region"), "{err}");
}
