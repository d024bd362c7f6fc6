//! Criterion benchmark groups shared by the bench harnesses.
//!
//! The bodies live here (not in `benches/`) so the criterion harnesses
//! (`benches/alloc_paths.rs`, `benches/substrate.rs`) and the
//! `bench-gates` binary run the same code. A path is here for one of
//! two reasons: it feeds an intra-run gate (`deref/*`, `bitset/*`,
//! `host_scaling*`), or it measures a mechanism no `pod-bench` workload
//! or `fig*` binary exercises. Nothing records these medians; a claim
//! across commits is a `pod-bench` A/B (`benchmark/`).

use crate::allocators::{cxlalloc_pod, cxlalloc_pod_fabric};
use crate::driver::{self, Span, Turn};
use baselines::{CxlallocAdapter, PodAlloc, PodAllocThread};
use criterion::{Criterion, Throughput};
use cxl_core::dcas::Dcas;
use cxl_core::{AttachOptions, OffsetPtr, ThreadId};
use cxl_pod::latency::{Clocks, LatencyModel};
use cxl_pod::nmp::NmpDevice;
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::{CoreId, FabricConfig, HwccMode, Pod, PodConfig, Segment};
use std::collections::VecDeque;
use std::sync::Arc;

fn thread() -> Box<dyn PodAllocThread> {
    let alloc = CxlallocAdapter::new(cxlalloc_pod(1 << 30, 8, None), 1, AttachOptions::default());
    alloc.thread().unwrap()
}

/// Local alloc/free under fragmentation, and over the mCAS-only
/// substrate. (The unfragmented pair per heap, the non-recoverable
/// ablation and the `Limited`-HWcc pair are `pod-bench` rows:
/// `core.alloc_ns` + `core.dealloc_ns`, `sensitivity`,
/// `core.sim_local_pair_ns`.)
pub fn bench_local_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_alloc_free");
    group.throughput(Throughput::Elements(1));
    // Fragmentation-adversarial shape: hold the low 480 of the slab's
    // 512 blocks so every free bit lives in the top bitset words, then
    // churn. A scan-from-zero `find_set` walks ~7 dead words per alloc
    // here; the first-fit rover sits right on the free bit. (The held
    // blocks also pin the slab sized, so the churn never pays the
    // slab-reinit path. An 8-word bitmap is short, so most of the win
    // lives in the 8B variant below.)
    let mut t = thread();
    let held: Vec<_> = (0..480).map(|_| t.alloc(64).unwrap()).collect();
    group.bench_function("fragmented_small_64B", |b| {
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    for p in held {
        t.dealloc(p).unwrap();
    }
    // The same shape on the 8-byte class, whose slab bitmap is 64 words
    // (4096 blocks) instead of 8: hold all but the top six blocks, so a
    // scan-from-zero alloc walks ~63 dead words while the rover (pulled
    // back to the freed bit on every dealloc) lands exactly on the free
    // bit. This is where first-fit-with-hint pays for itself — the 64B
    // bitmap is too short for the scan to dominate.
    let mut t = thread();
    let held: Vec<_> = (0..4090).map(|_| t.alloc(8).unwrap()).collect();
    group.bench_function("fragmented_small_8B", |b| {
        b.iter(|| {
            let p = t.alloc(8).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    for p in held {
        t.dealloc(p).unwrap();
    }
    // The unfragmented pair over the simulated substrate with no HWcc
    // at all, where every descriptor access goes through the SWcc cache
    // model and every CAS is an mCAS.
    let alloc = CxlallocAdapter::new(
        cxlalloc_pod(64 << 20, 8, Some(HwccMode::None)),
        1,
        AttachOptions::default(),
    );
    let mut t = alloc.thread().unwrap();
    group.bench_function("sim_none_small_64B", |b| {
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            t.dealloc(p).unwrap();
        })
    });
    group.finish();
}

/// Remote-free (m)CAS path: producer/consumer across threads. The
/// handoff gates the producer on the consumer's dealloc speed, so the
/// measured throughput is the remote-free path; the PR-4 amortizations
/// (batched publishes, coalesced fences) are enabled here — the eager
/// ablation lives in `remote_free_batched/eager_64B`.
///
/// The handoff is a slot-sentinel SPSC ring rather than
/// `std::sync::mpsc::sync_channel`: the channel's ~95 ns/op cost put a
/// ~210 ns floor under this group (PR-4 note in ROADMAP.md) that hid
/// the batching win end to end. A slot is empty while it holds 0 (no
/// valid block lives at offset 0), so each side needs one uncontended
/// atomic load plus one store per transfer. Waits spin briefly and
/// then yield: on a single-CPU box a pure spin wait burns the whole
/// timeslice while the peer is runnable but not running, and the ring
/// degenerates to one transfer per scheduler quantum.
pub fn bench_remote_free(c: &mut Criterion) {
    use std::sync::atomic::{AtomicU64, Ordering};

    fn wait_until(slot: &AtomicU64, empty: bool) -> u64 {
        let mut spins = 0u32;
        loop {
            let raw = slot.load(Ordering::Acquire);
            if (raw == 0) == empty {
                return raw;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }

    let mut group = c.benchmark_group("remote_free");
    group.throughput(Throughput::Elements(1));
    group.bench_function("producer_consumer_64B", |b| {
        let options = AttachOptions {
            remote_free_batch: 16,
            coalesce_fences: true,
            ..AttachOptions::default()
        };
        let alloc = CxlallocAdapter::new(cxlalloc_pod(1 << 30, 8, None), 1, options);
        const RING: usize = 1024;
        const CLOSE: u64 = u64::MAX;
        let ring: Arc<Vec<AtomicU64>> =
            Arc::new((0..RING).map(|_| AtomicU64::new(0)).collect());
        let consumer = std::thread::spawn({
            let alloc = alloc.clone();
            let ring = ring.clone();
            move || {
                let mut t = alloc.thread().unwrap();
                let mut i = 0usize;
                loop {
                    let slot = &ring[i & (RING - 1)];
                    let raw = wait_until(slot, false);
                    slot.store(0, Ordering::Release);
                    if raw == CLOSE {
                        break;
                    }
                    t.dealloc(OffsetPtr::decode(raw).unwrap()).unwrap();
                    i += 1;
                }
            }
        });
        let mut t = alloc.thread().unwrap();
        let mut i = 0usize;
        b.iter(|| {
            let p = t.alloc(64).unwrap();
            let slot = &ring[i & (RING - 1)];
            wait_until(slot, true);
            slot.store(p.offset(), Ordering::Release);
            i += 1;
        });
        let slot = &ring[i & (RING - 1)];
        wait_until(slot, true);
        slot.store(CLOSE, Ordering::Release);
        consumer.join().unwrap();
    });
    group.finish();
}

/// The remote-free publish protocol in isolation: two registered
/// threads on one OS thread (no channel, no scheduler), one allocating
/// and the other freeing remotely, so the eager-vs-batched difference
/// is purely CAS-per-free vs CAS-per-batch.
pub fn bench_remote_free_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("remote_free_batched");
    group.throughput(Throughput::Elements(1));
    for (name, batch, mode) in [
        ("eager_64B", 1u32, None),
        ("batch8_64B", 8, None),
        ("batch32_64B", 32, None),
        // The same pair over the simulated SWcc substrate, where the
        // publish CAS serializes through the coherent-CAS line clocks
        // and the log flush+fence are real simulated traffic — the
        // costs the paper's remote-free protocol actually pays.
        ("sim_eager_64B", 1, Some(HwccMode::Limited)),
        ("sim_batch16_64B", 16, Some(HwccMode::Limited)),
    ] {
        let alloc = CxlallocAdapter::new(
            cxlalloc_pod(if mode.is_some() { 64 << 20 } else { 1 << 30 }, 8, mode),
            1,
            AttachOptions {
                remote_free_batch: batch,
                coalesce_fences: batch > 1,
                ..AttachOptions::default()
            },
        );
        let mut owner = alloc.thread().unwrap();
        let mut freer = alloc.thread().unwrap();
        group.bench_function(name, |b| {
            b.iter(|| {
                let p = owner.alloc(64).unwrap();
                freer.dealloc(p).unwrap();
            })
        });
    }
    group.finish();
}

/// Huge-heap alloc/free/cleanup cycle.
pub fn bench_huge(c: &mut Criterion) {
    let mut group = c.benchmark_group("huge_heap");
    group.throughput(Throughput::Elements(1));
    let mut t = thread();
    group.bench_function("alloc_free_cleanup_4MiB", |b| {
        b.iter(|| {
            let p = t.alloc(4 << 20).unwrap();
            t.dealloc(p).unwrap();
            t.maintain();
        })
    });
    group.finish();
}

/// The slab free-bit scan in isolation, on the shape a long-lived
/// fragmented slab presents: one free bit high in an 8B-class bitmap
/// (4096 bits), 63 all-zero words before it. `find_set_sparse` runs
/// the allocator's strategy for that shape — `find_set_from` with a
/// carried rover hint, so only the first probe pays the full walk;
/// `find_set_sparse_scan0` is the scan-from-zero cost of the same
/// probes. `bench-gates` holds the second to at least 4x the first in
/// the same run, so a change that silently reintroduces the full rescan
/// fails loudly.
pub fn bench_bitset(c: &mut Criterion) {
    use cxl_core::bitset::BlockBits;
    let mut group = c.benchmark_group("bitset");
    const PROBES: u64 = 64;
    const NBITS: u32 = 4096;
    const FREE_BIT: u32 = 4090;
    group.throughput(Throughput::Elements(PROBES));
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let mem = pod.memory().clone();
    let core = CoreId(0);
    let bits = BlockBits::new(mem.as_ref(), pod.layout().small.bitset_at(0), NBITS);
    bits.set(core, FREE_BIT);
    group.bench_function("find_set_sparse", |b| {
        let mut hint = 0u32;
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..PROBES {
                let bit = bits.find_set_from(core, hint).unwrap();
                hint = bit;
                acc = acc.wrapping_add(bit);
            }
            acc
        })
    });
    group.bench_function("find_set_sparse_scan0", |b| {
        b.iter(|| {
            let mut acc = 0u32;
            for _ in 0..PROBES {
                acc = acc.wrapping_add(bits.find_set(core).unwrap());
            }
            acc
        })
    });
    group.finish();
}

/// Detectable CAS vs plain CAS primitives.
pub fn bench_cas(c: &mut Criterion) {
    let mut group = c.benchmark_group("cas_primitives");
    group.throughput(Throughput::Elements(1));
    let pod = Pod::new(PodConfig::small_for_tests()).unwrap();
    let mem = pod.memory().clone();
    let off = pod.layout().small.global_len;
    let core = CoreId(0);

    group.bench_function("plain_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(core, off);
            mem.cas_u64(core, off, cur, cur.wrapping_add(1)).unwrap();
        })
    });

    let dcas = Dcas::new(mem.as_ref());
    let me = ThreadId::new(1).unwrap();
    let mut version = 0u16;
    group.bench_function("detectable_cas", |b| {
        b.iter(|| {
            let observed = dcas.read(core, off);
            version = version.wrapping_add(1);
            dcas.attempt(core, off, observed, observed.payload.wrapping_add(1), me, version)
                .unwrap();
        })
    });

    group.bench_function("detect_query", |b| {
        b.iter(|| dcas.detect(core, off, me, version))
    });
    group.finish();
}

/// The NMP mCAS device in isolation.
pub fn bench_nmp(c: &mut Criterion) {
    let mut group = c.benchmark_group("nmp_mcas");
    group.throughput(Throughput::Elements(1));
    let segment = Arc::new(Segment::zeroed(64 << 10).unwrap());
    let nmp = NmpDevice::new(segment.clone(), 4);
    let clocks = Clocks::new(4);
    let model = LatencyModel::paper_calibrated();
    group.bench_function("spwr_sprd_pair", |b| {
        b.iter(|| {
            let cur = segment.peek_u64(4096);
            nmp.mcas(0, 4096, cur, cur.wrapping_add(1), &clocks, &model)
        })
    });
    group.finish();
}

/// The simulated SWcc substrate's steady-state path: cached loads and
/// stores through the per-core cache model, flush writeback, and the
/// coherent-CAS path that serializes through its line's resource clock.
pub fn bench_swcc_substrate(c: &mut Criterion) {
    let mut group = c.benchmark_group("swcc_substrate");
    group.throughput(Throughput::Elements(1));
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let mem = pod.memory().clone();
    // A descriptor offset: outside the HWcc window, so Limited mode
    // routes it through the software cache model.
    let off = pod.layout().small.swcc_desc_at(0);
    let core = CoreId(0);

    group.bench_function("cached_load", |b| b.iter(|| mem.load_u64(core, off)));
    group.bench_function("cached_load_store", |b| {
        b.iter(|| {
            let v = mem.load_u64(core, off);
            mem.store_u64(core, off, v.wrapping_add(1));
        })
    });
    group.bench_function("store_flush_fence", |b| {
        b.iter(|| {
            let v = mem.load_u64(core, off);
            mem.store_u64(core, off, v.wrapping_add(1));
            mem.flush(core, off, 8);
            mem.fence(core);
        })
    });
    // CAS is only legal on HWcc-region cells, in every mode; in Limited
    // mode that is the coherent-CAS path, which serializes through the
    // line's slot of `SimMemory`'s dense per-HWcc-line clock array.
    let hwcc_off = pod.layout().small.hwcc_desc_at(0);
    group.bench_function("coherent_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(core, hwcc_off);
            let _ = mem.cas_u64(core, hwcc_off, cur, cur.wrapping_add(1));
        })
    });
    group.finish();
}

/// Heartbeats, detector ticks, and the software-fallback CAS path.
pub fn bench_liveness(c: &mut Criterion) {
    use cxl_core::liveness::LivenessDetector;
    use cxl_core::Cxlalloc;
    use cxl_pod::fault::FaultRule;
    use cxl_pod::SimMemory;

    let mut group = c.benchmark_group("liveness");
    group.throughput(Throughput::Elements(1));

    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::Limited).unwrap();
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
    let t = heap.register_thread().unwrap();
    group.bench_function("heartbeat", |b| b.iter(|| t.heartbeat().unwrap()));

    let mut detector = LivenessDetector::new(pod.layout().max_threads, u32::MAX);
    let core = t.core();
    group.bench_function("detector_tick", |b| {
        b.iter(|| detector.tick(&heap, core).unwrap().scanned)
    });

    // CAS served by the software-fallback path: a persistent outage
    // keeps the breaker open (probes keep bouncing), so steady-state
    // traffic measures the degraded path.
    let pod = Pod::with_simulation(PodConfig::small_for_tests(), HwccMode::None).unwrap();
    let sim = pod.memory().as_any().downcast_ref::<SimMemory>().unwrap();
    sim.faults().push(FaultRule::device_outage(u64::MAX));
    let mem = pod.memory().clone();
    let off = pod.layout().small.global_len;
    group.bench_function("fallback_cas", |b| {
        b.iter(|| {
            let cur = mem.load_u64(CoreId(0), off);
            let _ = mem.cas_u64(CoreId(0), off, cur, cur.wrapping_add(1));
        })
    });
    group.finish();
}

/// Pointers one `deref` iteration translates.
const DEREF_PTRS: usize = 64;

/// The mapped-hit path of a dereference: `resolve` of pointers into
/// already-mapped slabs, through the same `dyn PodAllocThread` call the
/// KV index makes. With an MMU this costs nothing; here it is two
/// compares and an add, and `resolve_hit_mi_baseline` — a bounds-checked
/// `base + offset` — is the yardstick `bench-gates` holds it to, within
/// the same run.
pub fn bench_deref(c: &mut Criterion) {
    use baselines::{MiLike, PodAlloc};
    let mut group = c.benchmark_group("deref");
    group.throughput(Throughput::Elements(DEREF_PTRS as u64));
    let mi = MiLike::new(64 << 20);
    for (name, size, mut t) in [
        ("resolve_hit_small", 64usize, thread()),
        ("resolve_hit_large", 8192, thread()),
        ("resolve_hit_mi_baseline", 64, mi.thread().unwrap()),
    ] {
        let ptrs: Vec<_> = (0..DEREF_PTRS).map(|_| t.alloc(size).unwrap()).collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                for &p in &ptrs {
                    std::hint::black_box(t.resolve(p, 24));
                }
            })
        });
    }
    group.finish();
}

/// Blocks per host per round of the remote-free host-scaling kernel:
/// one full small slab, so every round cycles each host's slab through
/// remote-free counters and slab stealing (a stolen slab parks on the
/// stealer's unsized list and overflows to the global free list past
/// `unsized_limit`).
pub const HOST_SCALING_BLOCKS: usize = 512;

/// Insert/replace ops per host per round of the kvstore host-scaling
/// kernel.
const HOST_SCALING_KV_OPS: usize = 256;

/// Rounds each host-scaling point's modeled counters are read over,
/// after one untimed warm-up round. Fixed, so the counters are a pure
/// function of the code; the timed rounds that follow only feed the
/// record's host ns.
const HOST_SCALING_ROUNDS: u64 = 4;

/// The two swept configurations, on the same pod: the paper's eager
/// §3.2.1 publish protocol (every default) vs remote frees published
/// in batches of up to 64 with the log-clear fence coalesced into the
/// next op's.
fn host_scaling_variants() -> [(&'static str, AttachOptions); 2] {
    [
        ("eager", AttachOptions::default()),
        (
            "batched",
            AttachOptions {
                remote_free_batch: 64,
                coalesce_fences: true,
                ..AttachOptions::default()
            },
        ),
    ]
}

/// One round of a host-scaling kernel, returning its modeled time.
pub type Round = Box<dyn FnMut() -> Span>;

/// Builds a host-scaling kernel on `hosts` threads of an adapter.
type Kernel = fn(&CxlallocAdapter, usize) -> Round;

/// The remote-free host-scaling kernel on `hosts` threads of `alloc`.
/// Each round, every host allocates a slab's worth of 64B blocks and
/// scatters them round-robin over its peers, then (a second driver run,
/// so a barrier) every host frees what it received, oldest first. With
/// more than one host every free is a remote free (a publish CAS into
/// the owner slab's counter line, touched by every peer core in turn),
/// and every emptied slab is stolen by the peer whose free emptied it.
pub fn remote_free_kernel(alloc: &CxlallocAdapter, hosts: usize) -> Round {
    let mem = alloc.pod().memory().clone();
    let mut team: Vec<_> = (0..hosts).map(|_| alloc.thread().unwrap()).collect();
    let cores: Vec<CoreId> = team.iter().map(|t| driver::core_of(t.as_ref())).collect();
    let mut routed: Vec<VecDeque<OffsetPtr>> = vec![VecDeque::new(); hosts];
    let mut allocated = vec![0; hosts];
    Box::new(move || {
        allocated.fill(0);
        let mut span = driver::run(mem.as_ref(), &cores, |i| {
            let j = allocated[i];
            if j == HOST_SCALING_BLOCKS {
                return Turn::Done;
            }
            let dst = if hosts == 1 { 0 } else { (i + 1 + j % (hosts - 1)) % hosts };
            routed[dst].push_back(team[i].alloc(64).unwrap());
            allocated[i] += 1;
            Turn::Ran
        });
        span += driver::run(mem.as_ref(), &cores, |i| match routed[i].pop_front() {
            Some(p) => {
                team[i].dealloc(p).unwrap();
                Turn::Ran
            }
            None => Turn::Done,
        });
        span
    })
}

/// The kvstore host-scaling kernel on `hosts` workers of `alloc`: the
/// hosts share one key space, so each replace retires a value some
/// *other* host allocated and the EBR-deferred free follows the
/// remote-free path; allocator-side contention is diluted by the
/// (DRAM-side) table walk, which is the point of measuring it
/// separately. A host drains its retired list after its round's last
/// insert.
fn kvstore_kernel(alloc: &CxlallocAdapter, hosts: usize) -> Round {
    use kvstore::KvStore;
    const KV_KEYS: u64 = 4096;
    let mem = alloc.pod().memory().clone();
    let store = KvStore::new(1 << 12, hosts + 1);
    let mut workers: Vec<_> = (0..hosts).map(|_| store.worker(alloc.thread().unwrap())).collect();
    for key in 0..KV_KEYS {
        workers[0].insert(key, 8, 64).unwrap();
    }
    let cores: Vec<CoreId> = workers.iter_mut().map(|w| driver::core_of(w.allocator())).collect();
    let mut cursor = 0u64;
    let mut done = vec![0; hosts];
    Box::new(move || {
        done.fill(0);
        driver::run(mem.as_ref(), &cores, |i| {
            if done[i] == HOST_SCALING_KV_OPS {
                return Turn::Done;
            }
            cursor = cursor.wrapping_add(1);
            let key = cursor.wrapping_mul(2654435761).wrapping_add(i as u64 * 97) % KV_KEYS;
            workers[i].insert(key, 8, 64).unwrap();
            done[i] += 1;
            if done[i] == HOST_SCALING_KV_OPS {
                workers[i].drain_retired();
            }
            Turn::Ran
        })
    })
}

/// Attaches the sweep's per-point counters to the record just produced,
/// normalized per block op / per 1k block ops: the makespan
/// (`sim_ns_per_op`) and the mean modeled latency of one op
/// (`sim_latency_ns_per_op`, Σ of the hosts' clock advances over ops),
/// CAS retries, line-contention traffic, and
/// the fabric's queueing / service split (zero on an uncongested pod).
fn annotate_host_scaling(
    group: &mut criterion::BenchmarkGroup<'_>,
    delta: &MemStatsSnapshot,
    span: Span,
    ops: u64,
) {
    let per_op = |n: u64| n as f64 / ops as f64;
    let per_kop = |n: u64| per_op(n) * 1000.0;
    for (key, value) in [
        ("sim_ns_per_op", per_op(span.makespan_ns)),
        ("sim_latency_ns_per_op", per_op(span.sum_ns)),
        ("cas_retries_per_kop", per_kop(delta.cas_retries)),
        ("line_transfers_per_kop", per_kop(delta.line_fills + delta.writebacks)),
        ("fabric_queue_ns_per_op", per_op(delta.fabric_queue_ns)),
        ("fabric_service_ns_per_op", per_op(delta.fabric_service_ns)),
        ("fabric_saturated_per_kop", per_kop(delta.fabric_saturated)),
    ] {
        group.annotate_last(key, value);
    }
}

/// Host-scaling sweep: 1–64 simulated hosts over the remote-free
/// and kvstore paths, eager vs batched. Hosts are registered threads on
/// distinct simulated cores of one `HwccMode::Limited` pod, issued by
/// the clock-ordered [`driver`] on one OS thread: on the wall-clock
/// backend a CI box's scheduler would drown the coherence signal, while
/// here every cross-host line transfer and publish CAS is modeled work
/// and also shows up in the event counts attached to each record.
pub fn bench_host_scaling(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 2, 4, 8, 16, 32, 64], true, None);
}

/// CI smoke variant of [`bench_host_scaling`]: the 1- and 4-host points
/// of the remote-free sweep — the widths the `bench-gates` scaling
/// gates read.
pub fn bench_host_scaling_smoke(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 4], false, None);
}

/// The host-scaling sweep on a congested fabric: identical
/// kernels and configurations, but every line fill, writeback, and NMP
/// op additionally crosses the [`FabricConfig::congested`] queueing
/// model, so per-op latency (`sim_latency_ns_per_op`) picks up an
/// inflection — the saturation knee — as hosts outrun the device port.
pub fn bench_host_scaling_congested(c: &mut Criterion) {
    host_scaling_sweep(
        c,
        &[1, 2, 4, 8, 16, 32, 64],
        false,
        Some(FabricConfig::congested()),
    );
}

/// CI smoke variant of [`bench_host_scaling_congested`]: the 1- and
/// 32-host endpoints the congested `bench-gates` knee gate reads.
pub fn bench_host_scaling_congested_smoke(c: &mut Criterion) {
    host_scaling_sweep(c, &[1, 32], false, Some(FabricConfig::congested()));
}

fn host_scaling_sweep(
    c: &mut Criterion,
    host_counts: &[usize],
    with_kvstore: bool,
    fabric: Option<FabricConfig>,
) {
    let kernels: &[(&str, usize, Kernel)] = &[
        ("remote_free", HOST_SCALING_BLOCKS, remote_free_kernel),
        ("kvstore", HOST_SCALING_KV_OPS, kvstore_kernel),
    ];
    let kernels = if with_kvstore { kernels } else { &kernels[..1] };
    let name = if fabric.is_some() { "host_scaling_congested" } else { "host_scaling" };
    let mut group = c.benchmark_group(name);
    for &(kernel, per_host, build) in kernels {
        for &hosts in host_counts {
            for (variant, options) in host_scaling_variants() {
                let pod = match fabric {
                    Some(config) => cxlalloc_pod_fabric(64 << 20, 80, HwccMode::Limited, config),
                    None => cxlalloc_pod(64 << 20, 80, Some(HwccMode::Limited)),
                };
                let mem = pod.memory().clone();
                let mut round = build(&CxlallocAdapter::new(pod, 1, options), hosts);
                // From all-zero clocks every host's first ops land at
                // t = 0; one untimed round lets lines, slabs and fabric
                // stations reach steady state.
                round();
                let before = mem.stats();
                let mut span = Span::default();
                for _ in 0..HOST_SCALING_ROUNDS {
                    span += round();
                }
                let delta = mem.stats().since(&before);
                let per_round = (hosts * per_host) as u64;
                group.throughput(Throughput::Elements(per_round));
                let id = format!("{kernel}_h{hosts}_{variant}");
                group.bench_function(id, |b| b.iter(&mut round));
                annotate_host_scaling(&mut group, &delta, span, HOST_SCALING_ROUNDS * per_round);
            }
        }
    }
    group.finish();
}

/// Every group of the `alloc_paths` harness.
pub fn alloc_paths(c: &mut Criterion) {
    bench_local_paths(c);
    bench_remote_free(c);
    bench_remote_free_batched(c);
    bench_huge(c);
}

/// Every group of the `substrate` harness.
pub fn substrate(c: &mut Criterion) {
    bench_bitset(c);
    bench_cas(c);
    bench_nmp(c);
    bench_swcc_substrate(c);
    bench_liveness(c);
    bench_deref(c);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-core clock and counter after a warm-up and two rounds of
    /// `build`'s kernel at 4 hosts on a fresh pod.
    fn kernel_state(build: Kernel) -> (Vec<u64>, MemStatsSnapshot) {
        let pod = cxlalloc_pod(64 << 20, 8, Some(HwccMode::Limited));
        let mem = pod.memory().clone();
        let mut round = build(&CxlallocAdapter::new(pod, 1, AttachOptions::default()), 4);
        for _ in 0..3 {
            round();
        }
        let clocks = (0..8).map(|c| mem.virtual_ns(CoreId(c))).collect();
        (clocks, mem.stats())
    }

    #[test]
    fn two_runs_of_a_kernel_model_the_same_pod() {
        for build in [remote_free_kernel as Kernel, kvstore_kernel] {
            let first = kernel_state(build);
            assert!(first.0[..4].iter().all(|&ns| ns > 0), "every host ran");
            assert_eq!(first, kernel_state(build));
        }
    }
}
