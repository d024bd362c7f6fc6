//! SWcc protocol tests: the allocator must be correct when run over a
//! pod whose SWcc region has *no* hardware coherence — every metadata
//! line a core caches stays stale until that core flushes (paper §3.2.2).
//!
//! These tests run the full allocator over `SimMemory` in `Limited` and
//! `None` modes, where any missing flush/fence in the protocol shows up
//! as a deterministic wrong answer.

use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::{CoreId, HwccMode, Pod, PodConfig};

fn setup(mode: HwccMode) -> (Pod, Cxlalloc) {
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), mode).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    (pod, heap)
}

fn alloc_free_workout(heap: &Cxlalloc) {
    let mut a = heap.register_thread().unwrap();
    let mut b = heap.register_thread().unwrap();
    // Local churn on a...
    let mut live = Vec::new();
    for i in 0..600 {
        live.push(a.alloc(8 + (i * 7) % 1000).unwrap());
        if live.len() > 100 {
            a.dealloc(live.swap_remove(i % 100)).unwrap();
        }
    }
    // ...remote frees from b (including a full producer/consumer slab
    // steal)...
    for p in live.drain(..) {
        b.dealloc(p).unwrap();
    }
    // ...and churn on b afterwards, reusing stolen slabs.
    for i in 0..600 {
        let p = b.alloc(16 + (i * 5) % 500).unwrap();
        b.dealloc(p).unwrap();
    }
    // Quiesce: the checker reads durable memory, which lags the owners'
    // caches until they write back.
    a.flush_cache();
    b.flush_cache();
    heap.check_invariants(a.core()).unwrap();
}

#[test]
fn allocator_correct_under_limited_hwcc() {
    let (_pod, heap) = setup(HwccMode::Limited);
    alloc_free_workout(&heap);
}

#[test]
fn allocator_correct_under_no_hwcc_mcas() {
    let (pod, heap) = setup(HwccMode::None);
    alloc_free_workout(&heap);
    // Synchronization must have gone through the NMP, not coherent CAS.
    let stats = pod.memory().stats();
    assert!(stats.mcas_ok > 0, "expected mCAS traffic, got {stats:?}");
    assert_eq!(stats.cas_ok + stats.cas_fail, 0, "no coherent CAS allowed");
}

#[test]
fn full_mode_needs_no_writebacks() {
    let (pod, heap) = setup(HwccMode::Full);
    alloc_free_workout(&heap);
    let stats = pod.memory().stats();
    assert_eq!(stats.writebacks, 0);
    assert_eq!(stats.line_fills, 0);
}

#[test]
fn owner_metadata_stays_cached_for_local_ops() {
    // The §3.2.2 performance claim: a thread operating on its own slabs
    // keeps SWccDesc cached — local alloc/free cause no writebacks after
    // warmup (flushes happen only at ownership transitions).
    let (pod, heap) = setup(HwccMode::Limited);
    let mut t = heap.register_thread().unwrap();
    // Warm up: acquire a slab.
    let warm = t.alloc(64).unwrap();
    let before = pod.memory().stats();
    // Steady-state local churn inside the same slab.
    for _ in 0..200 {
        let p = t.alloc(64).unwrap();
        t.dealloc(p).unwrap();
    }
    let delta = pod.memory().stats().since(&before);
    // Every alloc/free logs (flush of the log line ⇒ writebacks), and
    // those log-line refills are the *only* line fills in steady state:
    // the slab descriptor stays resident in the owner's simulated cache,
    // so its reads are hits, not CXL traffic.
    assert!(
        delta.line_fills <= delta.flushes,
        "steady-state fills must be log-line refills only: {delta:?}"
    );
    // Measured: exactly 5 loads per op (2000 over these 400 ops), all
    // hits. Two are the owner's descriptor reads (the free count on
    // alloc; the header and the free count twice on free, per pair); the
    // other three are bitset words and list heads. One load per op of
    // margin: a path that re-reads descriptor words per access fails.
    let ops = 400u64;
    assert!(
        delta.loads <= ops * 6,
        "steady-state owner ops should stay a handful of cached loads: {delta:?}"
    );
    t.dealloc(warm).unwrap();
}

#[test]
fn nonrecoverable_mode_skips_log_writebacks() {
    let (pod, heap_rec) = setup(HwccMode::Limited);
    let mut t = heap_rec.register_thread().unwrap();
    let p = t.alloc(64).unwrap();
    t.dealloc(p).unwrap();
    let base = pod.memory().stats();
    for _ in 0..100 {
        let p = t.alloc(64).unwrap();
        t.dealloc(p).unwrap();
    }
    let rec = pod.memory().stats().since(&base);

    let pod2 = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let heap_non = Cxlalloc::attach(
        pod2.spawn_process(),
        AttachOptions {
            recoverable: false,
            ..AttachOptions::default()
        },
    )
    .unwrap();
    let mut t2 = heap_non.register_thread().unwrap();
    let p = t2.alloc(64).unwrap();
    t2.dealloc(p).unwrap();
    let base = pod2.memory().stats();
    for _ in 0..100 {
        let p = t2.alloc(64).unwrap();
        t2.dealloc(p).unwrap();
    }
    let non = pod2.memory().stats().since(&base);
    assert!(
        non.writebacks * 4 < rec.writebacks.max(1),
        "nonrecoverable should write back far less: rec={rec:?} non={non:?}"
    );
}

#[test]
fn remote_frees_are_visible_across_stale_caches() {
    // The crux of the counter design: a remote freer may hold an
    // arbitrarily stale copy of the slab descriptor, yet the decrement
    // (HWcc) is still correct.
    let (_pod, heap) = setup(HwccMode::Limited);
    let mut producer = heap.register_thread().unwrap();
    let mut consumer = heap.register_thread().unwrap();

    // The consumer caches the descriptor's owner by doing one remote
    // free early...
    let early: Vec<OffsetPtr> = (0..512).map(|_| producer.alloc(64).unwrap()).collect();
    consumer.dealloc(early[0]).unwrap();
    // ...then the producer churns the slab through several transitions
    // (fills it, refills), with the consumer's cache going stale.
    for p in &early[1..256] {
        producer.dealloc(*p).unwrap();
    }
    let refill: Vec<OffsetPtr> = (0..255).map(|_| producer.alloc(64).unwrap()).collect();
    // The consumer now drains everything remotely despite its stale view.
    for p in early[256..].iter().chain(refill.iter()) {
        consumer.dealloc(*p).unwrap();
    }
    heap.check_invariants(consumer.core()).unwrap();
}

#[test]
fn cross_core_slab_transfer_sees_fresh_metadata() {
    // Push-to-global flushes; pop-from-global flushes before reading
    // next. If either were missing, the popped slab's metadata would be
    // garbage and init/invariants would fail.
    let (_pod, heap) = setup(HwccMode::Limited);
    let mut a = heap.register_thread().unwrap();
    // Overflow a's unsized list so slabs land on the global list: nine
    // slabs' worth leaves four there after hysteresis retains one
    // emptied slab and the unsized list keeps `unsized_limit` (4).
    let ptrs: Vec<_> = (0..4608).map(|_| a.alloc(64).unwrap()).collect();
    for p in ptrs {
        a.dealloc(p).unwrap();
    }
    let slabs = heap.stats().small_slabs;
    // b pops them from the global list.
    let mut b = heap.register_thread().unwrap();
    let ptrs: Vec<_> = (0..2048).map(|_| b.alloc(64).unwrap()).collect();
    assert_eq!(heap.stats().small_slabs, slabs);
    for p in ptrs {
        b.dealloc(p).unwrap();
    }
    heap.check_invariants(CoreId(0)).unwrap();
}

#[test]
fn concurrent_threads_under_limited_hwcc() {
    // Four threads touching ~20 size classes each need more slab
    // capacity than the default test config.
    let config = PodConfig {
        small_max_slabs: 256,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::with_simulation(config, HwccMode::Limited).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    std::thread::scope(|s| {
        for i in 0..4 {
            let heap = heap.clone();
            s.spawn(move || {
                let mut t = heap.register_thread().unwrap();
                let mut live = Vec::new();
                for op in 0..400 {
                    live.push(t.alloc(8 + (op * 11 + i * 3) % 512).unwrap());
                    if live.len() > 32 {
                        t.dealloc(live.swap_remove(op % 32)).unwrap();
                    }
                }
                for p in live {
                    t.dealloc(p).unwrap();
                }
            });
        }
    });
    heap.check_invariants(CoreId(0)).unwrap();
}

#[test]
fn allocator_correct_under_tiny_evicting_caches() {
    // Bounded per-core caches (8 lines) force silent pseudo-random
    // evictions: dirty metadata is written back at moments the SWcc
    // protocol didn't choose. The single-writer layout must make every
    // such writeback harmless.
    // Unbounded-cache baseline: the same deterministic workout with no
    // silent evictions. (Explicit flushes evict but writer-side clwb
    // writebacks retain lines, so absolute fill counts alone say
    // nothing about eviction pressure.)
    let baseline = {
        let config = PodConfig {
            small_max_slabs: 256,
            ..PodConfig::small_for_tests()
        };
        let pod = Pod::with_simulation(config, HwccMode::Limited).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        alloc_free_workout(&heap);
        pod.memory().stats().line_fills
    };
    for lines in [4usize, 8, 32] {
        let config = PodConfig {
            small_max_slabs: 256,
            ..PodConfig::small_for_tests()
        };
        let pod = Pod::with_simulation_capacity(config, HwccMode::Limited, lines).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        alloc_free_workout(&heap);
        let stats = pod.memory().stats();
        // Evictions force extra refills relative to the unbounded cache.
        assert!(
            stats.line_fills > baseline,
            "tiny caches ({lines} lines) should force refills beyond the \
             unbounded baseline ({baseline}): {stats:?}"
        );
    }
}

#[test]
fn crash_recovery_with_evicting_caches() {
    use cxl_core::crash::{self, CrashPlan};
    let config = PodConfig {
        small_max_slabs: 256,
        ..PodConfig::small_for_tests()
    };
    let pod = Pod::with_simulation_capacity(config, HwccMode::Limited, 8).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let tid = std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = heap.register_thread().unwrap();
            let tid = t.tid();
            crash::arm(CrashPlan {
                at: "slab::free_local::after_set",
                skip: 40,
            });
            let died = crash::catch(std::panic::AssertUnwindSafe(|| {
                let ptrs: Vec<_> = (0..200).map(|_| t.alloc(64).unwrap()).collect();
                for p in ptrs {
                    t.dealloc(p).unwrap();
                }
            }))
            .is_err();
            crash::disarm();
            assert!(died);
            tid
        })
        .join()
        .unwrap()
    });
    heap.mark_crashed(tid).unwrap();
    let (mut adopted, _) = heap.adopt(tid, CoreId(3)).unwrap();
    for _ in 0..100 {
        let p = adopted.alloc(64).unwrap();
        adopted.dealloc(p).unwrap();
    }
    heap.check_invariants(adopted.core()).unwrap();
}
