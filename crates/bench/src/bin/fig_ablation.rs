//! Ablation studies for the design choices DESIGN.md calls out (not a
//! paper figure; supplements §3's design discussion):
//!
//! 1. **Unsized-list threshold** — how aggressively empty slabs overflow
//!    to the global free list trades local reuse against sharing.
//! 2. **Recovery state** — the 8-byte-log + detectable-CAS cost on the
//!    fast path (the §5.2 cxlalloc-nonrecoverable comparison, isolated).
//! 3. **Detectable vs plain CAS under contention** — the help-array
//!    recording cost on the remote-free path.
//! 4. **Coherence mode** — the same workload across Full / Limited /
//!    None pods (modeled time on the clock-ordered driver), isolating
//!    what each coherence assumption costs.

use baselines::{CxlallocAdapter, PodAlloc};
use cxl_bench::allocators::{cxlalloc_pod, cxlalloc_pod_with_mode};
use cxl_bench::driver;
use cxl_bench::report::{human_rate, NdjsonSink, Table};
use cxl_bench::run_micro;
use cxl_core::AttachOptions;
use cxl_pod::HwccMode;
use std::sync::Arc;
use workloads::MicroSpec;

fn main() {
    let mut sink = NdjsonSink::open();

    // ---- 1. Unsized-list threshold ------------------------------------
    let mut table = Table::new(&["unsized_limit", "threadtest tput", "xmalloc tput"]);
    for limit in [0u32, 1, 4, 16, 64] {
        let mut row = vec![limit.to_string()];
        for spec in [
            MicroSpec::threadtest_small().scaled_down(20),
            MicroSpec::xmalloc_small().scaled_down(20),
        ] {
            let alloc: Arc<dyn PodAlloc> = Arc::new(CxlallocAdapter::new(
                cxlalloc_pod(1 << 30, 6, None),
                2,
                AttachOptions {
                    unsized_limit: limit,
                    ..AttachOptions::default()
                },
            ));
            let result = run_micro(&alloc, &spec, 4);
            row.push(human_rate(result.throughput()));
            sink.record(&[
                ("experiment", "ablation-unsized-limit".into()),
                ("limit", limit.into()),
                ("workload", spec.name.into()),
                ("throughput", result.throughput().into()),
            ]);
        }
        table.row(row);
    }
    println!("Ablation 1: thread-local unsized list threshold (4 threads).\n");
    println!("{}", table.render());

    // ---- 2 & 3. Recovery state on and off --------------------------------
    let mut table = Table::new(&["variant", "threadtest tput", "xmalloc tput"]);
    for (name, recoverable) in [("recoverable", true), ("nonrecoverable", false)] {
        let mut row = vec![name.to_string()];
        for spec in [
            MicroSpec::threadtest_small().scaled_down(20),
            MicroSpec::xmalloc_small().scaled_down(20),
        ] {
            let alloc: Arc<dyn PodAlloc> = Arc::new(CxlallocAdapter::new(
                cxlalloc_pod(1 << 30, 6, None),
                2,
                AttachOptions {
                    recoverable,
                    ..AttachOptions::default()
                },
            ));
            let result = run_micro(&alloc, &spec, 4);
            row.push(human_rate(result.throughput()));
            sink.record(&[
                ("experiment", "ablation-recovery".into()),
                ("variant", name.into()),
                ("workload", spec.name.into()),
                ("throughput", result.throughput().into()),
            ]);
        }
        table.row(row);
    }
    println!("Ablation 2: recovery state (8-byte log + detectable CAS) on the fast path.\n");
    println!("{}", table.render());

    // ---- 4. Coherence mode (modeled time) -------------------------------
    let mut table = Table::new(&[
        "mode",
        "modeled threadtest tput",
        "flushes",
        "mCAS",
        "cached hits",
    ]);
    for (name, mode) in [
        ("full-hwcc", HwccMode::Full),
        ("limited-hwcc", HwccMode::Limited),
        ("no-hwcc (mcas)", HwccMode::None),
    ] {
        let pod = cxlalloc_pod_with_mode(512 << 20, 6, mode, false);
        let alloc = CxlallocAdapter::new(pod.clone(), 2, AttachOptions::default());
        let mut hosts = [alloc.thread().unwrap(), alloc.thread().unwrap()];
        let spec = MicroSpec::threadtest_small();
        let span = driver::micro(pod.memory().as_ref(), &mut hosts, &spec, 8_000);
        let tput = 16_000.0 * 1e9 / span.makespan_ns.max(1) as f64;
        let stats = pod.memory().stats();
        table.row(vec![
            name.to_string(),
            human_rate(tput),
            (stats.flushes + stats.writebacks).to_string(),
            (stats.mcas_ok + stats.mcas_fail).to_string(),
            stats.cached_hits.to_string(),
        ]);
        sink.record(&[
            ("experiment", "ablation-coherence".into()),
            ("mode", name.into()),
            ("modeled_throughput", tput.into()),
            ("flushes", (stats.flushes + stats.writebacks).into()),
            ("mcas", (stats.mcas_ok + stats.mcas_fail).into()),
        ]);
    }
    println!("Ablation 3: coherence assumptions (threadtest, 2 threads, modeled).\n");
    println!("{}", table.render());
}
