//! Figure 12: small-heap microbenchmark throughput under different CXL
//! HWcc architectural assumptions (paper §5.4.2).
//!
//! Variants (each for cxlalloc and a ralloc model):
//! * plain — local DRAM latencies, caches effective;
//! * `-hwcc` — CXL memory with a hardware-coherent metadata region;
//! * `-mcas` — CXL memory with **no** HWcc: the metadata region is
//!   device-biased/uncachable and every CAS is an NMP mCAS.
//!
//! cxlalloc runs for real over the simulated-coherence backend; its
//! SWcc protocol keeps local metadata cached, so `threadtest` retains
//! ~80 % of `-hwcc` throughput under mCAS, while `xmalloc` (every free
//! remote ⇒ every free an mCAS) collapses to a few percent. The ralloc
//! model reproduces that allocator's §5.4.2 behaviour: separated (but
//! not HWcc/SWcc-split) metadata, so every free reads its size class
//! from uncachable memory, and shared partial slabs whose batch refills
//! contend on mCAS as threads grow.
//!
//! Every variant runs on the clock-ordered driver ([`cxl_drive::clock`]):
//! one OS thread issues each host's operations, the next one always to
//! the host whose simulated core clock is earliest, so the figure is a
//! pure function of the code. Throughput is *modeled*: total operations over the run's
//! makespan in virtual time.

use baselines::{CxlallocAdapter, PodAlloc};
use cxl_bench::allocators::cxlalloc_pod_with_mode;
use cxl_bench::driver::{self, MicroHost};
use cxl_bench::report::{human_rate, NdjsonSink, Table};
use cxl_bench::Options;
use cxl_core::AttachOptions;
use cxl_drive::clock::Span;
use cxl_pod::{CoreId, HwccMode, Layout, Pod, PodMemory};
use std::sync::Arc;
use workloads::MicroSpec;

/// Ops per thread for the modeled runs (kept modest: every op crosses
/// the simulation).
const OPS: u64 = 8_000;

/// A variant's runner: `(mode, local_dram, spec, threads)` → makespan.
type Runner = fn(HwccMode, bool, &MicroSpec, u32) -> Span;

/// Runs cxlalloc's threadtest/xmalloc over a simulated pod.
fn run_cxlalloc(mode: HwccMode, local_dram: bool, spec: &MicroSpec, threads: u32) -> Span {
    let pod = cxlalloc_pod_with_mode(512 << 20, threads + 2, mode, local_dram);
    let alloc = CxlallocAdapter::new(pod.clone(), 2, AttachOptions::default());
    let mut hosts: Vec<_> = (0..threads).map(|_| alloc.thread().unwrap()).collect();
    driver::micro(pod.memory().as_ref(), &mut hosts, spec, OPS)
}

/// Runs the ralloc model's threadtest/xmalloc over a simulated pod.
fn run_ralloc(mode: HwccMode, local_dram: bool, spec: &MicroSpec, threads: u32) -> Span {
    let pod = cxlalloc_pod_with_mode(512 << 20, threads + 2, mode, local_dram);
    seed_ralloc(&pod);
    let mut hosts: Vec<_> = (0..threads)
        .map(|t| Ralloc { mem: pod.memory().clone(), core: CoreId(t as u16), cache: Vec::new() })
        .collect();
    driver::micro(pod.memory().as_ref(), &mut hosts, spec, OPS)
}

/// One thread of a minimal ralloc model over the simulated pod memory:
/// shared partial slabs (one hot bitmap word per slab, in the HWcc
/// region like ralloc's undivided metadata), a thread-local cache of
/// block handles (`slab * 64 + bit`), and metadata reads on every free.
struct Ralloc {
    mem: Arc<dyn PodMemory>,
    core: CoreId,
    cache: Vec<u32>,
}

/// Slabs the model rotates over. A small set concentrates traffic and,
/// without HWcc, turns bitmap races into expensive mCAS retries —
/// ralloc-mcas's poor scaling (paper §5.4.2). It must exceed the blocks
/// held in thread caches and in-flight xmalloc batches, or refills
/// starve: 128 words × 64 blocks = 8192 for ≤ 26 threads × ~300 held.
fn slab_limit(layout: &Layout) -> u32 {
    layout.small.max_slabs.min(layout.large.max_slabs).min(128)
}

impl MicroHost for Ralloc {
    type Block = u32;

    fn core(&self) -> CoreId {
        self.core
    }

    /// From the thread cache; when it is empty, a refill claims up to 8
    /// blocks of a shared bitmap word with one CAS/mCAS, found through
    /// the globally shared next-slab cursor — the contended structure.
    fn alloc(&mut self, _size: usize) -> u32 {
        if let Some(handle) = self.cache.pop() {
            return handle;
        }
        let (mem, core) = (self.mem.as_ref(), self.core);
        let layout = mem.layout();
        let cursor_cell = layout.huge.reservation_at(0);
        loop {
            let cur = mem.load_u64(core, cursor_cell);
            let slab = (cur % slab_limit(layout) as u64) as u32;
            let word = layout.small.hwcc_desc_at(slab);
            let bits = mem.load_u64(core, word);
            if bits == 0 {
                // Exhausted: advance the cursor.
                let _ = mem.cas_u64(core, cursor_cell, cur, cur + 1);
                continue;
            }
            // Claim at most 8 blocks per CAS so refills recur (and
            // contend) often.
            let mut take = bits;
            for _ in 0..8 {
                take &= take.wrapping_sub(1);
            }
            let claimed = bits ^ take;
            if mem.cas_u64(core, word, bits, bits & !claimed).is_ok() {
                let blocks = (0..64u32).filter(|b| claimed & 1 << b != 0);
                self.cache.extend(blocks.map(|b| slab * 64 + b));
                return self.cache.pop().expect("refill nonempty");
            }
        }
    }

    /// Reads the block's size class from metadata (uncachable without
    /// HWcc), then parks the block in this thread's own cache — ralloc's
    /// shared slabs allow this, which is why it beats cxlalloc's counter
    /// protocol at low thread counts (§5.4.2). Past 96 cached blocks the
    /// cache spills back to 48 through the shared bitmaps (a CAS/mCAS
    /// per block, contending as threads grow).
    fn free(&mut self, handle: u32) {
        let (mem, core) = (self.mem.as_ref(), self.core);
        let layout = mem.layout();
        mem.load_u64(core, layout.large.hwcc_desc_at(handle / 64));
        self.cache.push(handle);
        if self.cache.len() <= 96 {
            return;
        }
        while self.cache.len() > 48 {
            let handle = self.cache.pop().expect("nonempty");
            let word = layout.small.hwcc_desc_at(handle / 64);
            loop {
                let cur = mem.load_u64(core, word);
                if mem.cas_u64(core, word, cur, cur | 1 << (handle % 64)).is_ok() {
                    break;
                }
            }
        }
    }
}

/// Pre-fills the ralloc model's bitmap words so refills find blocks.
fn seed_ralloc(pod: &Pod) {
    let mem = pod.memory();
    let layout = mem.layout();
    for slab in 0..slab_limit(layout) {
        mem.store_u64(CoreId(0), layout.small.hwcc_desc_at(slab), u64::MAX);
    }
    mem.reset_clocks();
}

fn main() {
    let _options = Options::from_args();
    let mut sink = NdjsonSink::open();
    let mut table = Table::new(&["Workload", "Variant", "Threads", "Modeled throughput"]);
    let mut reference: std::collections::HashMap<(String, &str, u32), f64> = Default::default();

    let thread_counts = [1u32, 4, 8, 16, 24];
    for spec in [MicroSpec::threadtest_small(), MicroSpec::xmalloc_small()] {
        for (variant, mode, dram, run) in [
            ("cxlalloc", HwccMode::Limited, true, run_cxlalloc as Runner),
            ("cxlalloc-hwcc", HwccMode::Limited, false, run_cxlalloc),
            ("cxlalloc-mcas", HwccMode::None, false, run_cxlalloc),
            ("ralloc", HwccMode::Limited, true, run_ralloc),
            ("ralloc-hwcc", HwccMode::Limited, false, run_ralloc),
            ("ralloc-mcas", HwccMode::None, false, run_ralloc),
        ] {
            for &threads in &thread_counts {
                let span = run(mode, dram, &spec, threads);
                let tput = (OPS * threads as u64) as f64 * 1e9 / span.makespan_ns.max(1) as f64;
                table.row(vec![
                    spec.name.to_string(),
                    variant.to_string(),
                    threads.to_string(),
                    human_rate(tput),
                ]);
                sink.record(&[
                    ("experiment", "fig12".into()),
                    ("workload", spec.name.into()),
                    ("variant", variant.into()),
                    ("threads", threads.into()),
                    ("modeled_throughput", tput.into()),
                ]);
                reference.insert((spec.name.to_string(), variant, threads), tput);
                eprintln!("fig12 {} {variant} t={threads} -> {}", spec.name, human_rate(tput));
            }
        }
    }

    println!("Figure 12: small-heap throughput under CXL HWcc assumptions (modeled).\n");
    println!("{}", table.render());

    // Headline ratios the paper reports.
    let ratio = |w: &str, a: &str, b: &str, t: u32| -> Option<f64> {
        let x = reference.get(&(w.to_string(), a, t))?;
        let y = reference.get(&(w.to_string(), b, t))?;
        (*y > 0.0).then(|| x / y)
    };
    if let Some(r) = ratio("threadtest-small", "cxlalloc-mcas", "cxlalloc-hwcc", 16) {
        println!(
            "threadtest: cxlalloc-mcas at {:.0} % of cxlalloc-hwcc (paper: 80 %)",
            r * 100.0
        );
    }
    if let Some(r) = ratio("threadtest-small", "cxlalloc-mcas", "ralloc-mcas", 16) {
        println!(
            "threadtest: cxlalloc-mcas {:.0}x ralloc-mcas (paper: 10–99x)",
            r
        );
    }
    if let Some(r) = ratio("xmalloc-small", "cxlalloc-mcas", "cxlalloc-hwcc", 16) {
        println!(
            "xmalloc: cxlalloc-mcas at {:.1} % of cxlalloc-hwcc (paper: ~1 %)",
            r * 100.0
        );
    }
    if let Some(r) = ratio("xmalloc-small", "cxlalloc-mcas", "ralloc-mcas", 24) {
        println!(
            "xmalloc at 24 threads: cxlalloc-mcas {:.1}x ralloc-mcas (paper: 9.9x)",
            r
        );
    }
}
