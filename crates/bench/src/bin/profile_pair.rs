//! Decomposes the Raw-DRAM alloc+free pair cost into its primitive
//! memory operations, for the `trace_report`-style attribution of the
//! wall-clock floor (DESIGN.md §14). Not a gated benchmark — a
//! diagnostic that prints where the nanoseconds go on this machine.

use cxl_bench::allocators::cxlalloc_pod;
use cxl_core::{AttachOptions, Cxlalloc};
use cxl_pod::{CoreId, PodMemory};
use std::time::Instant;

fn time(label: &str, iters: u64, mut f: impl FnMut()) -> f64 {
    // One warmup pass, then best-of-three timed passes.
    for _ in 0..iters / 4 {
        f();
    }
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let ns = start.elapsed().as_nanos() as f64 / iters as f64;
        best = best.min(ns);
    }
    println!("{label:<44} {best:>8.1} ns");
    best
}

fn pair(label: &str, options: AttachOptions, held: usize) {
    let pod = cxlalloc_pod(64 << 20, 8, None);
    let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
    let mut t = heap.register_thread().unwrap();
    let held: Vec<_> = (0..held).map(|_| t.alloc(64).unwrap()).collect();
    time(label, 2_000_000, || {
        let p = t.alloc(64).unwrap();
        t.dealloc(p).unwrap();
    });
    for p in held {
        t.dealloc(p).unwrap();
    }
}

fn main() {
    println!("-- alloc+free pairs (64B, Raw DRAM) --");
    pair("pair/empty-cycle (0 held, defaults)", AttachOptions::default(), 0);
    pair("pair/held-480 (defaults)", AttachOptions::default(), 480);
    pair(
        "pair/held-480 nonrecoverable",
        AttachOptions {
            recoverable: false,
            ..AttachOptions::default()
        },
        480,
    );
    pair(
        "pair/held-480 coalesce_fences",
        AttachOptions {
            coalesce_fences: true,
            ..AttachOptions::default()
        },
        480,
    );

    println!("-- primitives --");
    let pod = cxlalloc_pod(64 << 20, 8, None);
    let mem = pod.memory();
    let mem: &dyn PodMemory = mem.as_ref();
    let core = CoreId(0);
    let off = pod.layout().small.bitset_at(0);
    time("mem.load_u64", 4_000_000, || {
        std::hint::black_box(mem.load_u64(core, std::hint::black_box(off)));
    });
    time("mem.store_u64", 4_000_000, || {
        mem.store_u64(core, std::hint::black_box(off), 0xAB);
    });
    time("mem.writeback(64)+fence", 4_000_000, || {
        mem.writeback(core, std::hint::black_box(off), 64);
        mem.fence(core);
    });
    let bits = {
        use cxl_core::bitset::BlockBits;
        BlockBits::new(mem, off, 512)
    };
    bits.set_all(core);
    time("bits.find_set (bit 0 free)", 4_000_000, || {
        std::hint::black_box(bits.find_set(core));
    });
    for b in 0..505 {
        bits.clear(core, b);
    }
    time("bits.find_set (first free = 505)", 4_000_000, || {
        std::hint::black_box(bits.find_set(core));
    });
    time("Instant::now x2 (clock floor)", 4_000_000, || {
        std::hint::black_box(Instant::now());
        std::hint::black_box(Instant::now());
    });
}
