//! Figure 11: latency percentiles (p50/p90/p99/p99.9) of a CAS on a CXL
//! memory location, for three implementations and 1–16 threads:
//!
//! * `sw_cas` — a coherent CAS issued by the CPU (benefits from the
//!   cache; atomicity from the coherence protocol);
//! * `sw_flush_cas` — flush the line first, then CAS: the software
//!   emulation of mCAS used by prior work;
//! * `hw_cas` — our NMP mCAS (spwr/sprd pair), which works *without*
//!   inter-host coherence.
//!
//! A discrete-event simulation with the calibrated latency model
//! (`DESIGN.md` §1). The coherent variants serialize on the exclusive
//! cacheline (service = line transfer), so their latency grows linearly
//! with contention; `hw_cas` pays a fixed ~2.3 µs spwr/sprd round trip
//! but the NMP's short service time pipelines independent requests —
//! reproducing the paper's crossover: slower at 1 thread, 17–20 % lower
//! p50/p99 than `sw_flush_cas` at 16 threads.

use cxl_bench::report::{percentile, NdjsonSink, Table};
use cxl_pod::latency::LatencyModel;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const OPS_PER_THREAD: usize = 30_000;

// Variant names mirror the figure's legend labels verbatim.
#[allow(clippy::enum_variant_names)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Variant {
    SwCas,
    SwFlushCas,
    HwCas,
}

impl Variant {
    fn name(&self) -> &'static str {
        match self {
            Variant::SwCas => "sw_cas",
            Variant::SwFlushCas => "sw_flush_cas",
            Variant::HwCas => "hw_cas",
        }
    }

    /// (pre, service, post): per-op cost before touching the shared
    /// resource, the resource's serialized service time, and the cost
    /// after.
    fn costs(&self, m: &LatencyModel) -> (u64, u64, u64) {
        match self {
            // Cached CAS: no preamble; the exclusive line is the shared
            // resource; completion latency after winning the line.
            Variant::SwCas => (0, m.line_transfer_ns, m.cas_base_ns),
            // Flush + reload over CXL first, then the same line dance.
            Variant::SwFlushCas => (
                m.flush_ns + m.cxl_load_ns,
                m.line_transfer_ns,
                m.cas_base_ns,
            ),
            // mCAS: the PCIe spwr and sprd halves of the ~2.3 µs round
            // trip sandwich a short serialized NMP service.
            Variant::HwCas => {
                let half = m.mcas_round_trip_ns / 2;
                (half, m.nmp_service_ns, m.mcas_round_trip_ns - half)
            }
        }
    }
}

/// Deterministic xorshift jitter, positively skewed like real tails.
struct Jitter(u64);

impl Jitter {
    fn apply(&mut self, ns: u64, pct: u64) -> u64 {
        if pct == 0 || ns == 0 {
            return ns;
        }
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        let span = pct * 4;
        let offset_pct = (x % (span + 1)) as i64 - pct as i64;
        (ns as i64 + ns as i64 * offset_pct / 100).max(1) as u64
    }
}

/// Discrete-event simulation of `threads` cores issuing back-to-back
/// operations against one shared resource; returns per-op latencies.
fn simulate(variant: Variant, threads: usize, model: &LatencyModel) -> Vec<u64> {
    let (pre, service, post) = variant.costs(model);
    let mut jitter = Jitter(0x9E3779B97F4A7C15 ^ threads as u64);
    let mut resource_free = 0u64;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..threads)
        .map(|core| Reverse((core as u64, core)))
        .collect();
    let mut latencies = Vec::with_capacity(threads * OPS_PER_THREAD);
    let total = threads * OPS_PER_THREAD;
    for _ in 0..total {
        let Reverse((issue, core)) = heap.pop().expect("cores never exhaust");
        let arrival = issue + jitter.apply(pre, model.jitter_pct());
        let start = resource_free.max(arrival);
        let completion = start + jitter.apply(service, model.jitter_pct());
        resource_free = completion;
        let done = completion + jitter.apply(post, model.jitter_pct());
        latencies.push(done - issue);
        heap.push(Reverse((done, core)));
    }
    latencies
}

fn main() {
    let model = LatencyModel::paper_calibrated();
    let mut sink = NdjsonSink::open();
    let mut table = Table::new(&[
        "Variant",
        "Threads",
        "p50 (ns)",
        "p90 (ns)",
        "p99 (ns)",
        "p99.9 (ns)",
    ]);
    let mut at16: std::collections::HashMap<&str, (u64, u64)> = Default::default();
    let mut at1: std::collections::HashMap<&str, u64> = Default::default();
    for variant in [Variant::SwCas, Variant::SwFlushCas, Variant::HwCas] {
        for threads in [1usize, 4, 7, 10, 13, 16] {
            let mut samples = simulate(variant, threads, &model);
            let p50 = percentile(&mut samples, 50.0);
            let p90 = percentile(&mut samples, 90.0);
            let p99 = percentile(&mut samples, 99.0);
            let p999 = percentile(&mut samples, 99.9);
            table.row(vec![
                variant.name().to_string(),
                threads.to_string(),
                p50.to_string(),
                p90.to_string(),
                p99.to_string(),
                p999.to_string(),
            ]);
            sink.record(&[
                ("experiment", "fig11".into()),
                ("variant", variant.name().into()),
                ("threads", threads.into()),
                ("p50_ns", p50.into()),
                ("p90_ns", p90.into()),
                ("p99_ns", p99.into()),
                ("p999_ns", p999.into()),
            ]);
            if threads == 16 {
                at16.insert(variant.name(), (p50, p99));
            }
            if threads == 1 {
                at1.insert(variant.name(), p50);
            }
        }
    }
    println!("Figure 11: CAS latency on CXL memory (modeled, ns).\n");
    println!("{}", table.render());
    if let Some(&hw1) = at1.get("hw_cas") {
        println!("At 1 thread: hw_cas p50 = {:.1} µs (paper: 2.3 µs).", hw1 as f64 / 1000.0);
    }
    if let (Some(&(hw50, hw99)), Some(&(sw50, sw99))) =
        (at16.get("hw_cas"), at16.get("sw_flush_cas"))
    {
        println!(
            "At 16 threads: hw_cas p50 is {:.1} % lower than sw_flush_cas \
             (paper: 17.4 %), p99 {:.1} % lower (paper: 20 %).",
            (1.0 - hw50 as f64 / sw50 as f64) * 100.0,
            (1.0 - hw99 as f64 / sw99 as f64) * 100.0
        );
    }
}
