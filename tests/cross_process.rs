//! Integration tests of the paper's pointer-consistency guarantees
//! (PC-S and PC-T, §1 and §3.3), exercised across simulated processes
//! through the full public API.

use cxlalloc::core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxlalloc::pod::{Pod, PodConfig};

fn pod() -> Pod {
    Pod::new(PodConfig {
        small_max_slabs: 1024,
        ..PodConfig::small_for_tests()
    })
    .unwrap()
}

#[test]
fn pointers_are_consistent_across_processes() {
    // PC-S: the same offset names the same bytes in every process.
    let pod = pod();
    let heaps: Vec<Cxlalloc> = (0..4)
        .map(|_| Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap())
        .collect();
    let mut writer = heaps[0].register_thread().unwrap();
    let ptr = writer.alloc(256).unwrap();
    unsafe { writer.resolve(ptr, 256).unwrap().write_bytes(0x3C, 256) };

    for heap in &heaps[1..] {
        let reader = heap.register_thread().unwrap();
        let raw = reader.resolve(ptr, 256).unwrap();
        for i in 0..256 {
            assert_eq!(unsafe { *raw.add(i) }, 0x3C);
        }
    }
    writer.dealloc(ptr).unwrap();
}

#[test]
fn new_mappings_become_visible_lazily() {
    // PC-T: process B starts with nothing mapped; every first touch
    // faults exactly once and succeeds.
    let pod = pod();
    let proc_a = pod.spawn_process();
    let proc_b = pod.spawn_process();
    let heap_a = Cxlalloc::attach(proc_a, AttachOptions::default()).unwrap();
    let heap_b = Cxlalloc::attach(proc_b.clone(), AttachOptions::default()).unwrap();
    let mut a = heap_a.register_thread().unwrap();
    let b = heap_b.register_thread().unwrap();

    // Heap extension in A is invisible to B until touched.
    let small = a.alloc(64).unwrap();
    assert!(!proc_b.is_mapped(small.offset(), 64));
    assert!(b.resolve(small, 64).is_ok());
    assert!(proc_b.is_mapped(small.offset(), 64));

    // Same for large- and huge-heap pointers.
    let large = a.alloc(8192).unwrap();
    let huge = a.alloc(2 << 20).unwrap();
    assert!(b.resolve(large, 8192).is_ok());
    assert!(b.resolve(huge, 2 << 20).is_ok());
    assert!(proc_b.fault_count() >= 3);

    // Wild pointers still fault through to the caller.
    let wild = OffsetPtr::new(pod.layout().huge.data.end() - 8).unwrap();
    assert!(b.resolve(wild, 8).is_err());

    for p in [small, large, huge] {
        a.dealloc(p).unwrap();
    }
}

#[test]
fn heap_extension_costs_the_other_process_one_fault() {
    // PC-T against the byte watermark: whatever A allocated before B's
    // fault is below the watermark the fault installs, so B faults once
    // per heap *extension* and every later dereference is a plain hit.
    let pod = pod();
    let proc_b = pod.spawn_process();
    let heap_a = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let heap_b = Cxlalloc::attach(proc_b.clone(), AttachOptions::default()).unwrap();
    let mut a = heap_a.register_thread().unwrap();
    let b = heap_b.register_thread().unwrap();
    let slab_size = pod.layout().small.slab_size;

    let first = a.alloc(1024).unwrap();
    assert!(b.resolve(first, 1024).is_ok());
    assert_eq!(proc_b.fault_count(), 1);
    let mapped = proc_b.small_mapped();

    // A fills slabs until the heap has grown past what B mapped.
    let mut ptrs = vec![first];
    while ptrs.last().unwrap().offset() < first.offset() + 4 * slab_size {
        ptrs.push(a.alloc(1024).unwrap());
    }
    let newest = *ptrs.last().unwrap();
    assert!(!proc_b.is_mapped(newest.offset(), 1024));
    // Old pointers still hit; the new one faults exactly once, and the
    // fault maps everything A has allocated so far.
    assert!(b.resolve(first, 1024).is_ok());
    assert_eq!(proc_b.fault_count(), 1);
    assert!(b.resolve(newest, 1024).is_ok());
    assert_eq!(proc_b.fault_count(), 2);
    assert!(proc_b.small_mapped() > mapped);
    for &p in &ptrs {
        assert!(b.resolve(p, 1024).is_ok());
    }
    assert_eq!(proc_b.fault_count(), 2);
    assert_eq!(proc_b.maps_installed(), 2);

    // A range running past the end of the heap is wild: the handler
    // declines it and the fault is delivered.
    let heap_end = pod.layout().small.data.start + proc_b.small_mapped() * slab_size;
    let past_end = OffsetPtr::new(heap_end - 8).unwrap();
    assert!(b.resolve(past_end, 8).is_ok());
    assert!(b.resolve(past_end, 16).is_err());
    assert_eq!(proc_b.fault_count(), 3);

    for p in ptrs {
        a.dealloc(p).unwrap();
    }
}

#[test]
fn huge_mappings_are_looked_up_on_every_dereference() {
    // Huge mappings come and go, so nothing about them is cached on
    // the hit path: once unmapped, the same pointer faults again.
    let pod = pod();
    let proc_b = pod.spawn_process();
    let heap_a = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let heap_b = Cxlalloc::attach(proc_b.clone(), AttachOptions::default()).unwrap();
    let mut a = heap_a.register_thread().unwrap();
    let b = heap_b.register_thread().unwrap();

    let huge = a.alloc(2 << 20).unwrap();
    assert!(b.resolve(huge, 2 << 20).is_ok());
    assert!(b.resolve(huge, 8).is_ok());
    assert_eq!(proc_b.fault_count(), 1);

    proc_b.unmap_huge(huge.offset(), 2 << 20);
    assert!(!proc_b.is_mapped(huge.offset(), 8));
    assert!(b.resolve(huge, 8).is_ok());
    assert_eq!(proc_b.fault_count(), 2);
    assert_eq!(proc_b.maps_removed(), 1);
    // A range leaving the allocation is not covered by mapping it.
    assert!(b.resolve(huge, (2 << 20) + 1).is_err());

    a.dealloc(huge).unwrap();
}

#[test]
fn processes_attach_without_coordination() {
    // Paper §4: zeroed memory is a valid heap — processes may attach and
    // allocate concurrently with no init handshake.
    let pod = pod();
    std::thread::scope(|s| {
        for seed in 0..6u64 {
            let pod = pod.clone();
            s.spawn(move || {
                let heap =
                    Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
                let mut t = heap.register_thread().unwrap();
                let mut ptrs = Vec::new();
                for i in 0..400 {
                    ptrs.push(t.alloc(8 + ((seed + i) % 200) as usize).unwrap());
                }
                for p in ptrs {
                    t.dealloc(p).unwrap();
                }
            });
        }
    });
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    heap.check_invariants(cxlalloc::pod::CoreId(0)).unwrap();
}

#[test]
fn cross_process_producer_consumer_pipeline() {
    // Allocations flow A → B → C (allocated in one process, read in a
    // second, freed from a third).
    let pod = pod();
    let heaps: Vec<Cxlalloc> = (0..3)
        .map(|_| Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap())
        .collect();
    let (tx_ab, rx_ab) = std::sync::mpsc::channel::<OffsetPtr>();
    let (tx_bc, rx_bc) = std::sync::mpsc::channel::<OffsetPtr>();

    std::thread::scope(|s| {
        let heap_a = heaps[0].clone();
        let heap_b = heaps[1].clone();
        let heap_c = heaps[2].clone();
        s.spawn(move || {
            let mut a = heap_a.register_thread().unwrap();
            for i in 0..2000u64 {
                let p = a.alloc(128).unwrap();
                unsafe { (a.resolve(p, 8).unwrap() as *mut u64).write(i) };
                tx_ab.send(p).unwrap();
            }
        });
        s.spawn(move || {
            let b = heap_b.register_thread().unwrap();
            let mut expected = 0u64;
            while let Ok(p) = rx_ab.recv() {
                let v = unsafe { (b.resolve(p, 8).unwrap() as *const u64).read() };
                assert_eq!(v, expected);
                expected += 1;
                tx_bc.send(p).unwrap();
            }
        });
        s.spawn(move || {
            let mut c = heap_c.register_thread().unwrap();
            while let Ok(p) = rx_bc.recv() {
                c.dealloc(p).unwrap(); // remote free from a third process
            }
        });
    });
    heaps[0]
        .check_invariants(cxlalloc::pod::CoreId(0))
        .unwrap();
}

#[test]
fn facade_reexports_are_usable() {
    // The facade crate exposes every subsystem.
    let _ = cxlalloc::workloads::WorkloadSpec::all();
    let _ = cxlalloc::pod::PodConfig::default();
    let table = cxlalloc::core::class::SMALL_CLASSES_TABLE;
    assert_eq!(table.class_of(8), Some(0));
    let z = cxlalloc::workloads::Zipfian::ycsb(100);
    assert!(z.rank(0.5) < 100);
}
