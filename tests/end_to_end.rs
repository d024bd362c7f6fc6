//! Workspace-level integration tests: drive the full stack (workload
//! generators → key-value store → allocators → pod) the way the
//! benchmark harness does.

use cxlalloc::baselines::{CxlallocAdapter, PodAlloc};
use cxlalloc::core::AttachOptions;
use cxlalloc::kvstore::KvStore;
use cxlalloc::pod::{CoreId, HwccMode, Pod, PodConfig};
use cxlalloc::workloads::{KvOp, OpStream, WorkloadSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

fn pod() -> Pod {
    Pod::new(PodConfig {
        small_max_slabs: 4096,
        large_max_slabs: 64,
        ..PodConfig::small_for_tests()
    })
    .unwrap()
}

fn run_mix(alloc: &dyn PodAlloc, spec: WorkloadSpec, threads: u32, ops_per_thread: u64) {
    let store = KvStore::new(1 << 12, threads as usize);
    let workers: Vec<_> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let mut w = store.worker(alloc.thread().unwrap());
            let spec = spec.clone();
            handles.push(s.spawn(move || {
                let mut stream = OpStream::new(spec, StdRng::seed_from_u64(t as u64));
                for _ in 0..ops_per_thread {
                    match stream.next_op() {
                        KvOp::Insert {
                            key,
                            key_len,
                            value_len,
                        } => w.insert(key, key_len, value_len.min(60_000)).unwrap(),
                        KvOp::Read {
                            key,
                        } => {
                            let _ = w.get(key);
                        }
                        KvOp::Delete {
                            key,
                        } => {
                            let _ = w.delete(key);
                        }
                    }
                }
                w
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Drained once nobody is left to hold an entry: nothing remains.
    for mut w in workers {
        assert_eq!(w.drain_retired(), 0);
    }
}

#[test]
fn ycsb_a_over_cxlalloc_multi_process() {
    let alloc = CxlallocAdapter::new(pod(), 3, AttachOptions::default());
    run_mix(&alloc, WorkloadSpec::ycsb_a(), 3, 4000);
    alloc.heaps()[0].check_invariants(CoreId(0)).unwrap();
}

#[test]
fn mc15_over_every_allocator() {
    // MC-15: 99.9% tiny inserts — every allocator must survive it.
    let allocators: Vec<Arc<dyn PodAlloc>> = vec![
        Arc::new(CxlallocAdapter::new(pod(), 2, AttachOptions::default())),
        Arc::new(cxlalloc::baselines::MiLike::new(256 << 20)),
        Arc::new(cxlalloc::baselines::RallocLike::new(256 << 20)),
        Arc::new(cxlalloc::baselines::CxlShmLike::new(256 << 20)),
        Arc::new(cxlalloc::baselines::BoostLike::new(256 << 20)),
        Arc::new(cxlalloc::baselines::LightningLike::new(256 << 20, 1 << 18)),
    ];
    for alloc in allocators {
        run_mix(alloc.as_ref(), WorkloadSpec::mc15(), 2, 3000);
    }
}

#[test]
fn ycsb_over_simulated_coherence() {
    // The full KV stack on a pod with software-managed coherence: any
    // missing flush in the allocator shows up as corruption here.
    let pod = Pod::with_simulation(
        PodConfig {
            small_max_slabs: 4096,
            large_max_slabs: 64,
            ..PodConfig::small_for_tests()
        },
        HwccMode::Limited,
    )
    .unwrap();
    let alloc = CxlallocAdapter::new(pod.clone(), 2, AttachOptions::default());
    run_mix(&alloc, WorkloadSpec::ycsb_a(), 2, 1500);
    alloc.heaps()[0].check_invariants(CoreId(0)).unwrap();
    assert!(pod.memory().stats().writebacks > 0, "SWcc flushes must occur");
}

#[test]
fn kv_crash_and_recovery_mid_run() {
    use cxlalloc::core::crash::{self, CrashPlan};
    let alloc = CxlallocAdapter::new(pod(), 1, AttachOptions::default());
    let heap = alloc.heaps()[0].clone();
    let store = KvStore::new(1 << 10, 4);

    // Victim inserts until it dies inside the allocator.
    let victim_tid = std::thread::scope(|s| {
        s.spawn(|| {
            let handle = alloc.thread().unwrap();
            let tid = handle.thread_id().unwrap();
            let mut w = store.worker(handle);
            crash::arm(CrashPlan {
                at: "slab::alloc_block::after_log",
                skip: 300,
            });
            let died = crash::catch(std::panic::AssertUnwindSafe(|| {
                for key in 0..10_000u64 {
                    w.insert(key, 8, 64).unwrap();
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

    // A live worker keeps reading and writing the same table.
    let mut live = store.worker(alloc.thread().unwrap());
    for key in 100_000..101_000u64 {
        live.insert(key, 8, 64).unwrap();
        assert_eq!(live.get(key), Some(64));
    }

    // Recover the victim; the table and heap stay consistent.
    let tid = cxlalloc::core::ThreadId::new(victim_tid).unwrap();
    heap.mark_crashed(tid).unwrap();
    let report = heap.recover(tid, CoreId(0)).unwrap();
    assert!(report.interrupted.is_some());
    heap.check_invariants(CoreId(0)).unwrap();
    // Entries inserted before the crash are intact.
    assert_eq!(live.get(0), Some(64));
    assert_eq!(live.drain_retired(), 0);
}

#[test]
fn recoverable_structures_full_cycle_over_cxlalloc() {
    use cxlalloc::recoverable::{MapWorker, RecoverableMap, RecoverableQueue};
    let alloc = CxlallocAdapter::new(pod(), 2, AttachOptions::default());
    let mut t = alloc.thread().unwrap();

    let q = RecoverableQueue::create(t.as_mut()).unwrap();
    for i in 0..5000 {
        q.enqueue(t.as_mut(), 0, i, (i % 900) as usize).unwrap();
    }
    for i in 0..5000 {
        assert_eq!(q.dequeue(t.as_mut()), Some(i));
    }

    let m = RecoverableMap::create(t.as_mut(), 512).unwrap();
    let mut w = MapWorker::new();
    for i in 0..5000 {
        m.insert(t.as_mut(), 1, i, (i % 500) as usize).unwrap();
    }
    for i in 0..5000 {
        assert!(m.remove(t.as_mut(), &mut w, i));
    }
    assert_eq!(w.flush_removed(t.as_mut()), 5000);
    alloc.heaps()[0].check_invariants(CoreId(0)).unwrap();
}

#[test]
fn workload_specs_drive_expected_allocation_sizes() {
    // Sanity across crates: the Table 2 value-size ceilings route to the
    // right heaps through the adapter.
    let alloc = CxlallocAdapter::new(pod(), 1, AttachOptions::default());
    let mut t = alloc.thread().unwrap();
    for spec in WorkloadSpec::all() {
        let max_entry = 24 + spec.key_size.max() as usize + spec.value_size.max() as usize;
        if max_entry < 60_000 {
            let p = t.alloc(max_entry).unwrap();
            t.dealloc(p).unwrap();
        }
    }
}
