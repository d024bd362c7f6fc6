//! Behavioral tests of the slab heaps: the Figure 4 state machine, the
//! remote-free protocol, the global free list, and multi-threaded
//! stress with invariant checks (paper §5.1).

use cxl_core::{AllocError, AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::{CoreId, Pod, PodConfig};
use std::collections::HashSet;

fn setup() -> (Pod, Cxlalloc) {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    (pod, heap)
}

#[test]
fn blocks_within_a_slab_are_disjoint() {
    let (pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let mut seen = HashSet::new();
    let mut ptrs = Vec::new();
    for _ in 0..1000 {
        let p = t.alloc(48).unwrap();
        assert!(seen.insert(p.offset()), "duplicate allocation at {p}");
        assert!(pod.layout().small.data.contains(p.offset()));
        // 48-byte class: blocks are 48-byte aligned within the slab.
        let within = (p.offset() - pod.layout().small.data.start) % 32768;
        assert_eq!(within % 48, 0);
        ptrs.push(p);
    }
    for p in ptrs {
        t.dealloc(p).unwrap();
    }
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn freed_blocks_are_reused() {
    // The first-fit rover (default) pulls back to the freed bit on a
    // local free, so the classic lowest-bit reuse behavior survives:
    // the freed block comes right back.
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let a = t.alloc(64).unwrap();
    t.dealloc(a).unwrap();
    let b = t.alloc(64).unwrap();
    assert_eq!(a, b, "freed block must be handed right back");
}

#[test]
fn freed_blocks_are_reused_exactly_without_rover() {
    // The scan-from-zero reference (the slab's rover zeroed before the
    // allocation, which makes `find_set_from` perform `find_set`'s
    // loads) preserves the classic lowest-bit-first policy: the freed
    // block comes right back.
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let a = t.alloc(64).unwrap();
    t.dealloc(a).unwrap();
    t.debug_set_rover(a, 0);
    let b = t.alloc(64).unwrap();
    assert_eq!(a, b, "scan-from-zero should hand the block right back");
}

#[test]
fn stale_or_ahead_rover_hints_are_revalidated() {
    // The rover is an advisory start position, never trusted: the scan
    // revalidates every word against the durable bitset and wraps to
    // zero. Clobber it with every flavor of wrong value — pointing at
    // allocated blocks, at the end of the bitmap, past the end, and at
    // absurd magnitudes — and allocation must still hand out a block
    // that is genuinely free.
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    // Fill the low 64 bits of the first slab's 512-block bitmap, so
    // "allocated territory" (bits 0..64) and "free territory" both exist.
    let mut live: Vec<OffsetPtr> = (0..64).map(|_| t.alloc(64).unwrap()).collect();
    let seen: HashSet<u64> = live.iter().map(|p| p.offset()).collect();
    for bogus in [3u32, 63, 500, 511, 512, 513, 4096, u32::MAX] {
        t.debug_set_rover(live[0], bogus);
        let p = t.alloc(64).unwrap();
        assert!(
            !seen.contains(&p.offset()),
            "rover hint {bogus} handed out a live block at {p}"
        );
        t.dealloc(p).unwrap();
    }
    // A hint above a free-but-behind block must still find it: fill the
    // slab completely, open one low hole, point the rover at the top,
    // and expect the wrap pass to land on the hole.
    let refill: Vec<OffsetPtr> = (0..448).map(|_| t.alloc(64).unwrap()).collect();
    let low = live.remove(0);
    t.dealloc(low).unwrap();
    t.debug_set_rover(live[0], 511);
    let back = t.alloc(64).unwrap();
    assert_eq!(back, low, "wrap pass must reach the freed-behind block");
    for p in live.into_iter().chain(refill).chain([back]) {
        t.dealloc(p).unwrap();
    }
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn heap_extends_monotonically() {
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let before = heap.stats().small_slabs;
    // A 32 KiB slab holds 32768/64 = 512 blocks of the 64-byte class;
    // allocate three slabs' worth.
    let ptrs: Vec<_> = (0..1536).map(|_| t.alloc(64).unwrap()).collect();
    let after = heap.stats().small_slabs;
    assert!(after >= before + 3, "expected ≥3 slab extensions, got {before}→{after}");
    for p in ptrs {
        t.dealloc(p).unwrap();
    }
    // Extension is monotonic: frees never shrink the heap.
    assert_eq!(heap.stats().small_slabs, after);
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn empty_slabs_overflow_to_global_list_and_are_reused() {
    let (_pod, heap) = setup();
    let mut a = heap.register_thread().unwrap();
    // Fill and free many slabs so `a`'s unsized list overflows to the
    // global free list. Nine slabs' worth: empty-slab hysteresis keeps
    // one emptied slab sized on `a`, the unsized list caps at
    // `unsized_limit` (4), and the remaining four overflow globally.
    let ptrs: Vec<_> = (0..4608).map(|_| a.alloc(64).unwrap()).collect();
    let peak = heap.stats().small_slabs;
    for p in ptrs {
        a.dealloc(p).unwrap();
    }
    heap.check_invariants(a.core()).unwrap();
    // ...then a different thread allocates: it must reuse global slabs,
    // not extend the heap.
    let mut b = heap.register_thread().unwrap();
    let ptrs: Vec<_> = (0..2048).map(|_| b.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, peak, "no new slabs should be needed");
    for p in ptrs {
        b.dealloc(p).unwrap();
    }
    heap.check_invariants(b.core()).unwrap();
}

/// The small-heap slabs on the list whose head holds `raw` (`slab + 1`,
/// 0: empty), read from the descriptors of a raw pod.
fn small_list(pod: &Pod, mut raw: u32) -> Vec<u32> {
    use cxl_core::cell::SwccHeader;
    let hl = &pod.layout().small;
    let mut slabs = Vec::new();
    while let Some(slab) = raw.checked_sub(1) {
        assert!(slabs.len() <= hl.max_slabs as usize, "cycle in a slab list");
        slabs.push(slab);
        raw = SwccHeader::unpack(pod.memory().load_u64(CoreId(0), hl.swcc_desc_at(slab))).next;
    }
    slabs
}

/// Lengths of `tid`'s small unsized list and of the small global list.
fn unsized_and_global(pod: &Pod, tid: cxl_core::ThreadId) -> (usize, usize) {
    use cxl_core::cell::Detect;
    let hl = &pod.layout().small;
    let mem = pod.memory();
    let unsized_head = mem.load_u64(CoreId(0), hl.local_unsized_at(tid.slot())) as u32;
    let global_head = Detect::unpack(mem.load_u64(CoreId(0), hl.global_free)).payload;
    (small_list(pod, unsized_head).len(), small_list(pod, global_head).len())
}

#[test]
fn unsized_list_stays_within_its_limit_after_every_op() {
    // `release_overflow` runs only after an op pushed onto the unsized
    // list (a local free's empty-slab move, a steal); the list must
    // still never exceed `unsized_limit` after a live op, and the
    // surplus must reach the global list.
    let (pod, heap) = setup();
    let limit = AttachOptions::default().unsized_limit as usize;
    let mut a = heap.register_thread().unwrap();
    let mut b = heap.register_thread().unwrap();
    // Nine 512-block slabs of the 64-byte class.
    let ptrs: Vec<_> = (0..4608).map(|_| a.alloc(64).unwrap()).collect();
    let slabs = heap.stats().small_slabs;
    let mut peak = 0;
    for p in ptrs {
        a.dealloc(p).unwrap();
        let (unsized_len, _) = unsized_and_global(&pod, a.tid());
        assert!(unsized_len <= limit, "a's unsized list holds {unsized_len}");
        peak = peak.max(unsized_len);
    }
    // Hysteresis keeps one emptied slab sized; `limit` stay unsized.
    assert_eq!(peak, limit);
    assert_eq!(unsized_and_global(&pod, a.tid()), (limit, 9 - 1 - limit));
    // Refill all nine (they detach full), then let `b` free every block
    // remotely: each slab's last free steals it onto `b`'s unsized list.
    let ptrs: Vec<_> = (0..4608).map(|_| a.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs, "the nine slabs are reused");
    assert_eq!(unsized_and_global(&pod, a.tid()), (0, 0));
    for p in ptrs {
        b.dealloc(p).unwrap();
        let (unsized_len, _) = unsized_and_global(&pod, b.tid());
        assert!(unsized_len <= limit, "b's unsized list holds {unsized_len}");
    }
    assert_eq!(unsized_and_global(&pod, b.tid()), (limit, 9 - limit));
    heap.check_invariants(b.core()).unwrap();
}

/// The sized small-heap slabs `tid` owns, as `(class, free blocks)`,/// The sized small-heap slabs `tid` owns, as `(class, free blocks)`,
/// read from the descriptors of a raw pod (which are always current).
fn owned_sized_slabs(pod: &Pod, heap: &Cxlalloc, tid: cxl_core::ThreadId) -> Vec<(u8, u32)> {
    use cxl_core::cell::{flags, SwccHeader};
    let hl = &pod.layout().small;
    let mem = pod.memory();
    (0..heap.stats().small_slabs)
        .filter_map(|slab| {
            let header = SwccHeader::unpack(mem.load_u64(CoreId(0), hl.swcc_desc_at(slab)));
            (header.owner == tid.raw() && header.flags & flags::SIZED != 0).then(|| {
                (header.class, mem.load_u64(CoreId(0), hl.free_count_at(slab)) as u32)
            })
        })
        .collect()
}

#[test]
fn empty_slab_hysteresis_retains_one_slab_per_class() {
    // The bound `SlabHeap::free_local` documents: a thread retains at
    // most one fully-free sized slab per class, however much it cycles.
    use cxl_core::class::SMALL_CLASSES_TABLE;
    let (pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let sizes = [64usize, 128, 256];
    let mut expected: Vec<(u8, u32)> = sizes
        .iter()
        .map(|&size| {
            let class = SMALL_CLASSES_TABLE.class_of(size).unwrap();
            (class, SMALL_CLASSES_TABLE.blocks_per_slab(class))
        })
        .collect();
    expected.sort_unstable();
    // First cycle: exactly one slab's worth per class; second cycle: two
    // and a half, so slabs fill, detach, relink and empty out of order.
    for slabs_x2 in [2usize, 5] {
        for &size in &sizes {
            let class = SMALL_CLASSES_TABLE.class_of(size).unwrap();
            let count = SMALL_CLASSES_TABLE.blocks_per_slab(class) as usize * slabs_x2 / 2;
            let ptrs: Vec<OffsetPtr> = (0..count).map(|_| t.alloc(size).unwrap()).collect();
            for p in ptrs {
                t.dealloc(p).unwrap();
            }
        }
        let mut held = owned_sized_slabs(&pod, &heap, t.tid());
        held.sort_unstable();
        assert_eq!(held, expected, "one fully-free sized slab per class, no other");
        heap.check_invariants(t.core()).unwrap();
    }
}

#[test]
fn producer_consumer_slabs_are_stolen() {
    // Paper §3.2.1: a slab entirely remotely freed (producer/consumer)
    // is stolen by the freeing thread without coordinating with the
    // producer.
    let (_pod, heap) = setup();
    let mut producer = heap.register_thread().unwrap();
    let mut consumer = heap.register_thread().unwrap();
    // Exactly one 512-block slab of the 64-byte class.
    let ptrs: Vec<_> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();
    let slabs_before = heap.stats().small_slabs;
    for p in ptrs {
        consumer.dealloc(p).unwrap(); // remote frees
    }
    heap.check_invariants(consumer.core()).unwrap();
    // The consumer now owns the stolen slab: its next allocations of any
    // class must come from it without extending the heap.
    let ptrs: Vec<_> = (0..512).map(|_| consumer.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs_before, "stolen slab must be reused");
    for p in ptrs {
        consumer.dealloc(p).unwrap();
    }
}

#[test]
fn mixed_local_remote_frees_reclaim_via_disown() {
    // Paper §3.2.1: a slab with at least one remote free is *disowned*
    // when it fills, forcing all later frees through the remote path so
    // the whole slab eventually drains.
    let (_pod, heap) = setup();
    let mut owner = heap.register_thread().unwrap();
    let mut other = heap.register_thread().unwrap();

    // Fill one 64-byte slab.
    let mut ptrs: Vec<_> = (0..512).map(|_| owner.alloc(64).unwrap()).collect();
    // Remote-free one block, then locally free another: slab now has a
    // mix and is non-full (so it is on the owner's sized list).
    other.dealloc(ptrs.pop().unwrap()).unwrap();
    owner.dealloc(ptrs.pop().unwrap()).unwrap();
    // Refill: the slab becomes full again and must be DISOWNED (remote
    // counter < total). The owner's local free of a disowned slab takes
    // the remote path.
    ptrs.push(owner.alloc(64).unwrap());
    ptrs.push(owner.alloc(64).unwrap());
    // Drain everything through both threads; the final free steals.
    for (i, p) in ptrs.into_iter().enumerate() {
        if i % 2 == 0 {
            owner.dealloc(p).unwrap();
        } else {
            other.dealloc(p).unwrap();
        }
    }
    heap.check_invariants(owner.core()).unwrap();
}

#[test]
fn remote_free_to_drained_slab_is_rejected() {
    let (_pod, heap) = setup();
    let mut producer = heap.register_thread().unwrap();
    let mut consumer = heap.register_thread().unwrap();
    let ptrs: Vec<_> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();
    let last = ptrs[0];
    for p in &ptrs {
        consumer.dealloc(*p).unwrap();
    }
    // Freeing again into the fully-drained slab is an application bug.
    // The consumer stole the slab, so the *producer*'s double free takes
    // the remote path and the zeroed counter rejects it. (The stealer
    // itself owns the slab now, so its double frees are as undetectable
    // as any local double free into a recycled slab.)
    assert!(matches!(
        producer.dealloc(last),
        Err(AllocError::NotAllocated { .. })
    ));
}

#[test]
fn interior_pointer_rejected() {
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let p = t.alloc(64).unwrap();
    let interior = OffsetPtr::new(p.offset() + 8).unwrap();
    assert!(matches!(
        t.dealloc(interior),
        Err(AllocError::NotAllocated { .. })
    ));
    t.dealloc(p).unwrap();
}

#[test]
fn bad_owner_frees_are_rejected_in_every_class() {
    // The owner's free finds the block index and rejects a misaligned
    // pointer with one multiply (`ClassTable::index_of`); check it
    // rejects an interior pointer, a pointer into the slab's trailing
    // waste (classes whose size does not divide the slab) and a double
    // free in every class of both heaps.
    use cxl_core::class::{LARGE_CLASSES_TABLE, SMALL_CLASSES_TABLE};
    let pod = Pod::new(PodConfig {
        large_max_slabs: 32,
        ..PodConfig::small_for_tests()
    })
    .unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    let rejected = |t: &mut cxl_core::ThreadHandle, offset: u64| {
        matches!(
            t.dealloc(OffsetPtr::new(offset).unwrap()),
            Err(AllocError::NotAllocated { .. })
        )
    };
    // The large heap's first class (1 KiB) is never used: the small
    // heap serves 1 KiB.
    for (table, hl, first) in [
        (SMALL_CLASSES_TABLE, &pod.layout().small, 0),
        (LARGE_CLASSES_TABLE, &pod.layout().large, 1),
    ] {
        for class in first..table.len() as u8 {
            let size = table.block_size(class) as u64;
            let p = t.alloc(size as usize).unwrap();
            assert!(hl.data.contains(p.offset()), "size {size}");
            assert!(rejected(&mut t, p.offset() + size / 2), "interior, size {size}");
            let data = hl.slab_data_at(hl.slab_of(p.offset()).unwrap());
            let end = data + table.blocks_per_slab(class) as u64 * size;
            if end < data + hl.slab_size {
                assert!(rejected(&mut t, end), "trailing waste, size {size}");
            }
            t.dealloc(p).unwrap();
            assert!(rejected(&mut t, p.offset()), "double free, size {size}");
        }
    }
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn large_heap_works_like_small() {
    let (pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let mut ptrs = Vec::new();
    for size in [1025usize, 4096, 100_000, 512 << 10] {
        let p = t.alloc(size).unwrap();
        assert!(pod.layout().large.data.contains(p.offset()), "size {size}");
        ptrs.push(p);
    }
    for p in ptrs {
        t.dealloc(p).unwrap();
    }
    heap.check_invariants(t.core()).unwrap();
    assert!(heap.stats().large_slabs >= 1);
}

#[test]
fn small_heap_oom_is_reported() {
    let config = PodConfig {
        small_max_slabs: 2,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::new(config).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let mut t = heap.register_thread().unwrap();
    let mut ptrs = Vec::new();
    let err = loop {
        match t.alloc(1024) {
            Ok(p) => ptrs.push(p),
            Err(e) => break e,
        }
        assert!(ptrs.len() <= 64, "2 slabs of 1 KiB blocks hold exactly 64");
    };
    assert!(matches!(err, AllocError::OutOfMemory { .. }));
    assert_eq!(ptrs.len(), 64);
    // Freeing restores allocatability.
    for p in ptrs {
        t.dealloc(p).unwrap();
    }
    assert!(t.alloc(1024).is_ok());
}

#[test]
fn hwcc_usage_matches_paper_accounting() {
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let ptrs: Vec<_> = (0..1000).map(|_| t.alloc(128).unwrap()).collect();
    let stats = heap.stats();
    // HWcc: 16 B per heap global + 8 B per slab + 8 KiB-equivalent huge
    // reservations. Tiny compared to mapped data.
    assert!(stats.hwcc_bytes < 16 * 1024);
    assert!(stats.small_bytes >= 1000 * 128 / 2);
    assert!(
        stats.hwcc_bytes * 10 < stats.small_bytes,
        "HWcc ({}) must be a small fraction of data ({})",
        stats.hwcc_bytes,
        stats.small_bytes
    );
    for p in ptrs {
        t.dealloc(p).unwrap();
    }
}

#[test]
fn multithreaded_stress_with_remote_frees() {
    use std::sync::mpsc;
    let config = PodConfig {
        small_max_slabs: 512,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::new(config).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();

    const THREADS: usize = 4;
    const OPS: usize = 3000;
    // Ring of channels: each thread frees blocks allocated by its
    // neighbour (all remote frees) plus churns locally.
    let (senders, receivers): (Vec<_>, Vec<_>) =
        (0..THREADS).map(|_| mpsc::channel::<OffsetPtr>()).unzip();
    let mut senders = senders.into_iter().map(Some).collect::<Vec<_>>();

    std::thread::scope(|s| {
        let mut receivers = receivers.into_iter();
        for i in 0..THREADS {
            let heap = heap.clone();
            let to_next = senders[(i + 1) % THREADS].take().unwrap();
            let from_prev = receivers.next().unwrap();
            s.spawn(move || {
                let mut t = heap.register_thread().unwrap();
                let mut local = Vec::new();
                for op in 0..OPS {
                    let size = 8 + (op * 13) % 1017;
                    let p = t.alloc(size).unwrap();
                    if op % 3 == 0 {
                        // Hand to the neighbour for a remote free.
                        if to_next.send(p).is_err() {
                            t.dealloc(p).unwrap();
                        }
                    } else {
                        local.push(p);
                    }
                    if op % 5 == 0 {
                        while let Ok(remote) = from_prev.try_recv() {
                            t.dealloc(remote).unwrap();
                        }
                    }
                    if local.len() > 64 {
                        t.dealloc(local.swap_remove(op % 64)).unwrap();
                    }
                }
                drop(to_next);
                for p in local {
                    t.dealloc(p).unwrap();
                }
                while let Ok(remote) = from_prev.recv() {
                    t.dealloc(remote).unwrap();
                }
            });
        }
    });
    heap.check_invariants(CoreId(0)).unwrap();
}

#[test]
fn detectable_allocation_stores_destination() {
    // alloc_detectable is the hook recoverable data structures use; in
    // normal (non-crash) operation it behaves exactly like alloc.
    let (_pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let cell = t.alloc(8).unwrap(); // an app-side 8-byte cell
    let p = t.alloc_detectable(100, cell).unwrap();
    // Simulate the app's publish: store the pointer into the cell.
    unsafe {
        (t.resolve(cell, 8).unwrap() as *mut u64).write(p.offset());
    }
    t.dealloc(p).unwrap();
    t.dealloc(cell).unwrap();
    heap.check_invariants(t.core()).unwrap();
}

include!("common/crash.rs");

/// The durable metadata image with thread `slot`'s log line zeroed: what
/// a failed op must leave exactly as it found it.
fn image_but_log(pod: &Pod, slot: u32) -> Vec<u8> {
    let mut image = metadata_image(pod);
    let line = pod.layout().log_at(slot) as usize;
    image[line..line + 64].fill(0);
    image
}

#[test]
fn lost_claim_is_a_typed_error_and_frees_nothing() {
    // The owner's free is the local path, a peer's the eager remote one.
    let (pod, heap) = setup();
    let mut owner = heap.register_thread().unwrap();
    let mut peer = heap.register_thread().unwrap();
    let cell = owner.alloc(8).unwrap();
    let p = owner.alloc_detectable(100, cell).unwrap();
    owner.flush_cache();
    for local in [true, false] {
        let t = if local { &mut owner } else { &mut peer };
        let slot = t.tid().slot();
        let before = (heap.census(CoreId(0)).unwrap().all_offsets(), image_but_log(&pod, slot));
        let stale = p.offset() | 1;
        let err = t.dealloc_detectable(p, cell, stale).unwrap_err();
        assert_eq!(err, AllocError::ClaimLost { dst: cell.offset(), seen: stale, found: p.offset() });
        t.flush_cache();
        let after = (heap.census(CoreId(0)).unwrap().all_offsets(), image_but_log(&pod, slot));
        assert!(before == after, "local {local}: a lost claim changed the census or the metadata");
        let log = pod.memory().segment().atomic_u64(pod.layout().log_at(slot));
        assert_eq!(log.load(std::sync::atomic::Ordering::SeqCst), 0, "local {local}: the log is idle");
        assert_eq!(pod.memory().segment().atomic_u64(cell.offset()).load(std::sync::atomic::Ordering::SeqCst), p.offset());
    }
    owner.dealloc_detectable(p, cell, p.offset()).unwrap();
    assert_eq!(pod.memory().segment().atomic_u64(cell.offset()).load(std::sync::atomic::Ordering::SeqCst), 0);
    owner.dealloc(cell).unwrap();
    heap.check_invariants(CoreId(0)).unwrap();
}

#[test]
fn huge_pointer_is_not_freed_detectably() {
    let (pod, heap) = setup();
    let mut t = heap.register_thread().unwrap();
    let cell = t.alloc(8).unwrap();
    let huge = t.alloc(2 << 20).unwrap();
    assert!(pod.layout().huge.data.contains(huge.offset()));
    pod.memory().segment().atomic_u64(cell.offset()).store(huge.offset(), std::sync::atomic::Ordering::SeqCst);
    assert_eq!(
        t.dealloc_detectable(huge, cell, huge.offset()),
        Err(AllocError::NotDetectable { offset: huge.offset() })
    );
    assert_eq!(pod.memory().segment().atomic_u64(cell.offset()).load(std::sync::atomic::Ordering::SeqCst), huge.offset());
    t.dealloc(huge).unwrap();
    t.dealloc(cell).unwrap();
    heap.check_invariants(t.core()).unwrap();
}

#[test]
fn nonrecoverable_detectable_free_still_claims_and_frees() {
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let options = AttachOptions { recoverable: false, ..AttachOptions::default() };
    let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
    let mut owner = heap.register_thread().unwrap();
    let mut peer = heap.register_thread().unwrap();
    let cells: Vec<OffsetPtr> = (0..2).map(|_| owner.alloc(8).unwrap()).collect();
    let blocks: Vec<OffsetPtr> = cells.iter().map(|&c| owner.alloc_detectable(64, c).unwrap()).collect();
    owner.dealloc_detectable(blocks[0], cells[0], blocks[0].offset()).unwrap();
    peer.dealloc_detectable(blocks[1], cells[1], blocks[1].offset()).unwrap();
    for c in &cells {
        assert_eq!(pod.memory().segment().atomic_u64(c.offset()).load(std::sync::atomic::Ordering::SeqCst), 0);
    }
    let census = heap.census(CoreId(0)).unwrap();
    assert!(!census.all_offsets().contains(&blocks[0].offset()), "the local free happened");
    assert_eq!(census.remote_pending_total(), 1, "the remote free happened");
    heap.check_invariants(CoreId(0)).unwrap();
}
