//! The §5.1 invariant checker must actually *detect* corruption — these
//! tests sabotage heap metadata directly and assert the audit reports
//! each class of violation, through both of its entry points.

use cxl_core::cell::{flags, Detect, SwccHeader};
use cxl_core::class::SMALL_CLASSES_TABLE;
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

/// Allocates the rest of slab 0's 64 B blocks: a full slab is detached
/// from its sized list, so it sits on no list at all. Returns its block
/// count.
fn fill_slab0(pod: &Pod, heap: &Cxlalloc, t: &mut cxl_core::ThreadHandle) -> u32 {
    let class = SMALL_CLASSES_TABLE.class_of(64).unwrap();
    let blocks = SMALL_CLASSES_TABLE.blocks_per_slab(class);
    for _ in 1..blocks {
        t.alloc(64).unwrap();
    }
    let layout = pod.layout();
    let head = layout.small.local_sized_at(t.tid().slot(), class as u32);
    assert_eq!(
        pod.memory().load_u64(CoreId(0), head),
        0,
        "slab 0 is detached"
    );
    heap.check_invariants(t.core()).unwrap();
    blocks
}

/// The refusal of a corrupted heap: `check_invariants` and `census` are
/// one walk, so both must fail, with the same message.
fn refusal(heap: &Cxlalloc, via: CoreId) -> String {
    let err = heap.check_invariants(via).unwrap_err();
    assert_eq!(heap.census(via).unwrap_err(), err);
    err
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
    let err = refusal(&heap, t.core());
    assert!(err.contains("global list"), "{err}");
}

#[test]
fn detects_full_slab_on_sized_list() {
    let (pod, heap, t) = setup();
    let layout = pod.layout();
    // Slab 0 is on thread 1's sized list; zero its free count.
    pod.memory()
        .store_u64(CoreId(0), layout.small.free_count_at(0), 0);
    let err = refusal(&heap, t.core());
    assert!(err.contains("is full"), "{err}");
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
    let err = refusal(&heap, t.core());
    assert!(err.contains("population"), "{err}");
}

#[test]
fn detects_free_count_mismatch_on_detached_slab() {
    let (pod, heap, mut t) = setup();
    fill_slab0(&pod, &heap, &mut t);
    // The full slab's bitset has no bit set; claim one free block.
    pod.memory()
        .store_u64(CoreId(0), pod.layout().small.free_count_at(0), 1);
    let err = refusal(&heap, t.core());
    assert_eq!(err, "small: slab 0 free count 1 != bitset population 0");
}

#[test]
fn detects_hwcc_payload_beyond_block_count() {
    let (pod, heap, mut t) = setup();
    let blocks = fill_slab0(&pod, &heap, &mut t);
    let over = blocks + 1;
    let payload = Detect {
        version: 0,
        tid: 0,
        payload: over,
    };
    pod.memory().store_u64(
        CoreId(0),
        pod.layout().small.hwcc_desc_at(0),
        payload.pack(),
    );
    let err = refusal(&heap, t.core());
    let want = format!("small: slab 0 HWcc payload {over} exceeds {blocks} blocks");
    assert_eq!(err, want);
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
    let err = refusal(&heap, t.core());
    assert!(err.contains("cycles"), "{err}");
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
    let err = refusal(&heap, t.core());
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
    let err = refusal(&heap, t.core());
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
    let err = refusal(&heap, t.core());
    assert!(err.contains("region"), "{err}");
}
