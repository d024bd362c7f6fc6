//! Latency-attribution report: runs the fig9 microbenchmark phases and
//! one kvstore macro workload under the [`cxl_pod::trace`] tracer and
//! prints where every simulated nanosecond went.
//!
//! Two deterministic single-threaded sections, each on a fresh
//! simulated pod ([`HwccMode::Limited`]):
//!
//! 1. **fig9 micro** — an `attach` phase (adapter construction + thread
//!    registration), a `threadtest` phase (thread-local alloc/free
//!    batches), and an `xmalloc` phase (producer/consumer remote
//!    frees).
//! 2. **kvstore** — YCSB-A over the bench KV store, split into
//!    `preload` and `run` phases.
//!
//! After each section the report reconciles the trace against the
//! clocks: the attribution table's total charged latency must equal the
//! sum of the per-core virtual clocks *exactly* (every
//! `Clocks::advance`/`serialize_through` site in `cxl-pod` charges the
//! duration it advanced by). A violation is a bug in the charge wiring
//! and aborts the report. The counts need no second check: the pod
//! counts each event once, and the table and the stats line below it
//! are two readings of that one count.
//!
//! Options: `--ops N` scales both sections; `--chrome PREFIX` writes
//! `PREFIX_micro.json` / `PREFIX_kvstore.json` in Chrome `chrome://tracing`
//! format. Fingerprints are printed so runs can be compared for
//! byte-identical replay (see `OBSERVABILITY.md`).

use baselines::{CxlallocAdapter, PodAlloc, PodAllocThread};
use cxl_bench::allocators::{cxlalloc_pod, cxlalloc_pod_fabric};
use cxl_bench::groups::{remote_free_kernel, HOST_SCALING_BLOCKS};
use cxl_core::AttachOptions;
use cxl_pod::trace::{chrome_trace_json, TraceKind, Tracer};
use cxl_pod::{CoreId, FabricConfig, HwccMode, PodMemory};
use kvstore::KvStore;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use workloads::{KeyGen, KvOp, MicroSpec, OpStream, WorkloadSpec};

const CAPACITY: u64 = 256 << 20;
const MAX_THREADS: u32 = 8;

struct Args {
    /// Alloc/free pairs per micro phase and measured kvstore ops.
    ops: u64,
    /// Chrome-trace output prefix (`PREFIX_micro.json`, …).
    chrome: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut out = Args {
            ops: 4_000,
            chrome: None,
        };
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--ops" => {
                    i += 1;
                    out.ops = args[i].parse().expect("--ops N");
                }
                "--chrome" => {
                    i += 1;
                    out.chrome = Some(args[i].clone());
                }
                other => panic!("unknown argument {other} (try --ops N, --chrome PREFIX)"),
            }
            i += 1;
        }
        out
    }
}

fn main() {
    let args = Args::parse();

    println!("=== trace_report: fig9 micro (threadtest + xmalloc) ===");
    let micro = run_micro_section(args.ops);
    if let Some(prefix) = &args.chrome {
        write_chrome(&format!("{prefix}_micro.json"), &micro);
    }

    println!();
    println!("=== trace_report: small_64B floor attribution ===");
    let floor = run_floor_section(args.ops);
    if let Some(prefix) = &args.chrome {
        write_chrome(&format!("{prefix}_floor.json"), &floor);
    }

    println!();
    println!("=== trace_report: kvstore ({}) ===", WorkloadSpec::ycsb_a().name);
    let kv = run_kvstore_section(args.ops);
    if let Some(prefix) = &args.chrome {
        write_chrome(&format!("{prefix}_kvstore.json"), &kv);
    }

    // Fabric attribution (PR 10): the remote-free kernel on a congested
    // fabric, at the host-scaling sweep's endpoints. The 1-host run
    // shows the fabric's service floor (queueing ~nil); the 32-host run
    // shows the saturation knee — queueing delay as a first-class share
    // of every modeled nanosecond, reconciled exactly like everything
    // else.
    for hosts in [1u32, 32] {
        println!();
        println!("=== trace_report: congested fabric (remote-free, {hosts} hosts) ===");
        let section = run_fabric_section(args.ops, hosts);
        if let Some(prefix) = &args.chrome {
            write_chrome(&format!("{prefix}_fabric{hosts}.json"), &section);
        }
    }
}

/// The host-scaling remote-free kernel on a pod whose traffic crosses
/// [`FabricConfig::congested`], followed by the standard reconciliation
/// and a fabric-attribution split: of each modeled nanosecond, how much
/// was protocol (latency model), fabric service (pipe occupancy), and
/// fabric queueing (waiting for contended stations).
fn run_fabric_section(ops: u64, hosts: u32) -> Section {
    let pod = cxlalloc_pod_fabric(
        CAPACITY,
        hosts.max(8),
        HwccMode::Limited,
        FabricConfig::congested(),
    );
    let cores = pod.config().max_threads;
    let mem = pod.memory().clone();
    let tracer = mem.tracer().expect("simulated backends carry a tracer");
    tracer.arm();

    enter_phase(tracer, cores, "attach");
    let adapter = CxlallocAdapter::new(pod, 1, AttachOptions::default());
    let mut round = remote_free_kernel(&adapter, hosts as usize);
    let per_round = hosts as u64 * HOST_SCALING_BLOCKS as u64;
    let rounds = (ops / per_round).max(2);

    // One untimed round, as in the bench sweep. The attribution split
    // below reads only the steady phase; the reconciliation oracles
    // still cover the whole run.
    enter_phase(tracer, cores, "warmup");
    round();
    let warm = mem.stats();

    enter_phase(tracer, cores, "remote_free");
    for _ in 0..rounds {
        round();
    }

    let section = reconcile(&mem, cores);

    let stats = mem.stats().since(&warm);
    let pair_ops = rounds * per_round;
    let attribution = tracer.attribution();
    // Steady state only: the `remote_free` phase's rows (the stats
    // delta above shares the same boundary).
    let mut total = 0u64;
    let mut queue_ns = 0u64;
    let mut service_ns = 0u64;
    for row in attribution.rows() {
        if row.phase != "remote_free" {
            continue;
        }
        total += row.total_ns;
        match row.kind {
            TraceKind::FabricQueue => queue_ns += row.total_ns,
            TraceKind::FabricService => service_ns += row.total_ns,
            _ => {}
        }
    }
    let per_op = |ns: u64| ns as f64 / pair_ops as f64;
    println!();
    let plural = if hosts == 1 { "" } else { "s" };
    println!("fabric attribution ({hosts} host{plural}, {pair_ops} steady-state alloc+free pairs):");
    println!("  {:<28} {:>12} {:>8}", "component", "ns/op", "share");
    for (name, ns) in [
        ("protocol (latency model)", total - queue_ns - service_ns),
        ("fabric service", service_ns),
        ("fabric queueing", queue_ns),
    ] {
        println!(
            "  {:<28} {:>12.1} {:>7.1}%",
            name,
            per_op(ns),
            ns as f64 * 100.0 / total.max(1) as f64
        );
    }
    println!(
        "  fabric crossings: {} ({:.2}/op), saturated {} ({:.1}%)",
        stats.fabric_requests,
        stats.fabric_requests as f64 / pair_ops as f64,
        stats.fabric_saturated,
        stats.fabric_saturated as f64 * 100.0 / stats.fabric_requests.max(1) as f64
    );
    section
}

/// Where the remaining `local_alloc_free/small_64B` nanoseconds go
/// (PR-9): one thread, steady-state 64-byte alloc/free pairs on a warm
/// slab. With the first-fit rover the bitset scan is one word, the
/// hysteresis-retained slab is never re-initialized, and what is left
/// is the recoverability floor — the oplog begin/commit writeback +
/// fence per op — plus the handful of bitset/counter accesses. The
/// per-op table this section prints *is* that floor, by event kind.
fn run_floor_section(ops: u64) -> Section {
    let pod = cxlalloc_pod(CAPACITY, MAX_THREADS, Some(HwccMode::Limited));
    let cores = pod.config().max_threads;
    let mem = pod.memory().clone();
    let tracer = mem.tracer().expect("simulated backends carry a tracer");
    tracer.arm();

    enter_phase(tracer, cores, "attach");
    let adapter = CxlallocAdapter::new(pod, 1, AttachOptions::default());
    let mut t = adapter.thread().expect("register floor thread");

    // Warm up off-phase: acquire the slab, seed the rover, let the
    // hysteresis retention settle so the steady phase measures the
    // fast path only.
    enter_phase(tracer, cores, "warmup");
    for _ in 0..64 {
        let p = t.alloc(64).expect("warmup alloc");
        t.dealloc(p).expect("warmup free");
    }

    enter_phase(tracer, cores, "steady_pair_64B");
    for _ in 0..ops {
        let p = t.alloc(64).expect("steady alloc");
        t.dealloc(p).expect("steady free");
    }

    let section = reconcile(&mem, cores);

    // Per-op floor table: the steady phase's rows divided by the pair
    // count. `total ns/op` here is simulated latency-model time, not
    // wall clock — the *shape* (which kinds remain, at what counts) is
    // the attribution; the wall-clock floor is `pod-bench --trace 1`'s
    // `core.alloc_ns` + `core.dealloc_ns` on `kv_update`.
    let attribution = mem
        .tracer()
        .expect("simulated backends carry a tracer")
        .attribution();
    println!();
    println!("steady-state per-op floor (64B alloc+free pair, {ops} pairs):");
    println!(
        "  {:<20} {:<9} {:>10} {:>12}",
        "event", "category", "count/op", "ns/op"
    );
    let mut floor_ns = 0.0;
    for row in attribution.rows() {
        if row.phase != "steady_pair_64B" {
            continue;
        }
        let per_op_count = row.count as f64 / ops as f64;
        let per_op_ns = row.total_ns as f64 / ops as f64;
        floor_ns += per_op_ns;
        println!(
            "  {:<20} {:<9} {:>10.2} {:>12.2}",
            row.kind.name(),
            row.kind.category(),
            per_op_count,
            per_op_ns
        );
    }
    println!("  {:<20} {:<9} {:>10} {:>12.2}", "TOTAL", "", "", floor_ns);
    section
}

/// A section's reconciled snapshot, kept for Chrome export.
struct Section {
    trace: cxl_pod::trace::Trace,
}

fn write_chrome(path: &str, section: &Section) {
    let json = chrome_trace_json(&section.trace);
    std::fs::write(path, json).expect("write chrome trace");
    println!("chrome trace written to {path}");
}

/// Arms `tracer` and parks every core in the interned phase `name`.
fn enter_phase(tracer: &Tracer, cores: u32, name: &str) {
    let id = tracer.phase_id(name);
    for core in 0..cores {
        tracer.set_phase(core as usize, id);
    }
}

/// Prints the attribution table and checks it against the cores'
/// clocks.
fn reconcile(mem: &Arc<dyn PodMemory>, cores: u32) -> Section {
    let tracer = mem.tracer().expect("simulated backends carry a tracer");
    tracer.disarm();

    let attribution = tracer.attribution();
    println!("{}", attribution.render());

    // Every nanosecond the latency model charged must appear as exactly
    // one event's cost — per-core clocks vs. trace total.
    let clock_total: u64 = (0..cores).map(|c| mem.virtual_ns(CoreId(c as u16))).sum();
    let trace_total = attribution.total_ns();
    assert_eq!(
        trace_total, clock_total,
        "trace attribution must account for every charged nanosecond"
    );
    println!(
        "reconciled: trace total {trace_total} ns == sum of per-core virtual clocks ({cores} cores)"
    );

    let stats = mem.stats();
    println!(
        "stats: loads {} stores {} flushes {} cached_hits {} uncached_ops {} mcas {}+{} cas_retries {}",
        stats.loads,
        stats.stores,
        stats.flushes,
        stats.cached_hits,
        stats.uncached_ops,
        stats.mcas_ok,
        stats.mcas_fail,
        stats.cas_retries
    );

    let trace = tracer.snapshot();
    let dropped: u64 = trace.cores.iter().map(|c| c.dropped).sum();
    if dropped > 0 {
        println!(
            "note: ring overflow dropped {dropped} events from the export \
             (attribution and fingerprint still cover the full stream)"
        );
    }
    println!("trace fingerprint: {:#018x}", tracer.fingerprint());
    Section {
        trace,
    }
}

fn run_micro_section(ops: u64) -> Section {
    let pod = cxlalloc_pod(CAPACITY, MAX_THREADS, Some(HwccMode::Limited));
    let cores = pod.config().max_threads;
    let mem = pod.memory().clone();
    let tracer = mem.tracer().expect("simulated backends carry a tracer");
    tracer.arm();

    // Attach + thread registration are traced as their own phase so
    // their (one-time) latency does not pollute the steady-state rows.
    enter_phase(tracer, cores, "attach");
    let adapter = CxlallocAdapter::new(pod, 1, AttachOptions::default());
    let mut local = adapter.thread().expect("register local thread");
    let mut producer = adapter.thread().expect("register producer");
    let mut consumer = adapter.thread().expect("register consumer");

    let spec = MicroSpec::threadtest_small();
    enter_phase(tracer, cores, "threadtest");
    run_micro_pairs(local.as_mut(), None, spec.object_size, spec.batch, ops);

    let spec = MicroSpec::xmalloc_small();
    enter_phase(tracer, cores, "xmalloc");
    run_micro_pairs(
        producer.as_mut(),
        Some(consumer.as_mut()),
        spec.object_size,
        spec.batch,
        ops,
    );

    reconcile(&mem, cores)
}

/// `ops` alloc/free pairs in batches: allocate `batch` objects on
/// `alloc`, free them on `free_on` (remote) or `alloc` itself (local).
fn run_micro_pairs(
    alloc: &mut dyn PodAllocThread,
    mut free_on: Option<&mut dyn PodAllocThread>,
    size: usize,
    batch: usize,
    ops: u64,
) {
    let mut ptrs = Vec::with_capacity(batch);
    let mut done = 0;
    while done < ops {
        for _ in 0..batch {
            ptrs.push(alloc.alloc(size).expect("micro alloc"));
        }
        for ptr in ptrs.drain(..) {
            match free_on.as_deref_mut() {
                Some(remote) => remote.dealloc(ptr).expect("remote free"),
                None => alloc.dealloc(ptr).expect("local free"),
            }
        }
        done += batch as u64;
    }
    alloc.maintain();
    if let Some(remote) = free_on {
        remote.maintain();
    }
}

fn run_kvstore_section(ops: u64) -> Section {
    let pod = cxlalloc_pod(CAPACITY, MAX_THREADS, Some(HwccMode::Limited));
    let cores = pod.config().max_threads;
    let mem = pod.memory().clone();
    let tracer = mem.tracer().expect("simulated backends carry a tracer");
    tracer.arm();

    enter_phase(tracer, cores, "attach");
    let adapter = CxlallocAdapter::new(pod, 1, AttachOptions::default());
    let spec = WorkloadSpec::ycsb_a();
    let store = KvStore::new(1024, 2);
    let mut worker = store.worker(adapter.thread().expect("register kv worker"));

    // Preload, mirroring `run_macro` (same seed and key schedule) but
    // capped so the report finishes in seconds.
    enter_phase(tracer, cores, "preload");
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    let keygen = spec.key_generator();
    let preload = spec.preload.min(ops);
    for i in 0..preload {
        let key = match &keygen {
            KeyGen::Uniform {
                n,
            } => i % n,
            KeyGen::Zipfian(z) => z.sample_scrambled(&mut rng),
        };
        let key_len = spec.key_size.sample(&mut rng);
        let value_len = spec.value_size.sample(&mut rng);
        let _ = rng.gen::<u8>();
        worker.insert(key, key_len, value_len).expect("preload insert");
    }
    worker.drain_retired();

    enter_phase(tracer, cores, "run");
    let mut stream = OpStream::new(spec, StdRng::seed_from_u64(7));
    for _ in 0..ops {
        match stream.next_op() {
            KvOp::Insert {
                key,
                key_len,
                value_len,
            } => worker.insert(key, key_len, value_len).expect("kv insert"),
            KvOp::Read {
                key,
            } => {
                let _ = worker.get(key);
            }
            KvOp::Delete {
                key,
            } => {
                let _ = worker.delete(key);
            }
        }
    }
    worker.drain_retired();

    reconcile(&mem, cores)
}
