//! Recomputes every pinned golden fingerprint and, with `--bless` (or
//! `CXL_BLESS_FINGERPRINTS=1`), rewrites
//! `tests/common/golden_fingerprints.rs` in one pass.
//!
//! ```text
//! cargo run -p cxl-core --release --example print_fingerprints
//! cargo run -p cxl-core --release --example print_fingerprints -- --bless
//! ```
//!
//! Always prints an old-vs-new diff summary, so a re-pin is a reviewed,
//! deliberate act: every changed line names the profile and seed whose
//! observable behaviour moved. Without `--bless` a changed pin is a
//! failure (exit status 1), so CI shows the whole table once instead of
//! scattered test failures. See EXPERIMENTS.md for the protocol.

use cxl_core::explore::Explorer;
use cxl_core::sched::{self, FaultPlan, Schedule, SimConfig, Step};
use cxl_pod::{FabricConfig, Pod};
use std::fmt::Write as _;

// The currently-pinned values, compiled in from the same file the
// tests include — the diff below is exact, not parsed.
mod golden {
    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/common/golden_fingerprints.rs"
    ));
}

/// The scripted schedule `trace_determinism.rs` pins (kept in sync
/// with that file by hand; the pinned value moving unexpectedly is the
/// signal that they diverged).
fn trace_schedule() -> Schedule {
    Schedule {
        seed: 42,
        hosts: 3,
        steps: vec![
            Step::Alloc { host: 0, size: 128 },
            Step::Alloc { host: 1, size: 128 },
            Step::Alloc { host: 2, size: 128 },
            Step::Crash {
                host: 2,
                at: "slab::push_global::after_cas",
                skip: 3,
            },
            Step::Alloc { host: 0, size: 64 },
            Step::Recover { host: 2, via: 0 },
            Step::Alloc { host: 2, size: 64 },
        ],
    }
}

fn trace_fingerprint() -> u64 {
    let config = SimConfig {
        hosts: 3,
        ..SimConfig::default()
    };
    let pod = Pod::with_simulation(config.pod_config(), config.mode).unwrap();
    let tracer = pod.memory().tracer().expect("sim pods carry a tracer");
    tracer.arm();
    sched::run_on(&pod, &config, &trace_schedule(), &FaultPlan::none()).unwrap();
    tracer.fingerprint()
}

/// Same scripted schedule on a congested-fabric pod: schedule
/// fingerprints cannot see latency, so the *trace stream* (which
/// carries every charged nanosecond, fabric waits included) is what
/// pins congested-cost determinism.
fn trace_fingerprint_congested() -> u64 {
    let config = SimConfig {
        hosts: 3,
        fabric: Some(FabricConfig::congested()),
        ..SimConfig::default()
    };
    let pod = Pod::with_simulation_fabric(
        config.pod_config(),
        config.mode,
        config.fabric.unwrap(),
    )
    .unwrap();
    let tracer = pod.memory().tracer().expect("sim pods carry a tracer");
    tracer.arm();
    sched::run_on(&pod, &config, &trace_schedule(), &FaultPlan::none()).unwrap();
    tracer.fingerprint()
}

fn recompute(explorer: &Explorer, pinned: &[(u64, u64)]) -> Vec<(u64, u64)> {
    pinned
        .iter()
        .map(|&(seed, _)| {
            let fp = explorer
                .run_seed(seed)
                .unwrap_or_else(|e| panic!("pinned seed {seed} fails outright: {e:?}"))
                .fingerprint;
            (seed, fp)
        })
        .collect()
}

fn diff(label: &str, old: &[(u64, u64)], new: &[(u64, u64)], changed: &mut usize) {
    for (&(seed, was), &(_, now)) in old.iter().zip(new) {
        if was == now {
            println!("  {label:<8} seed {seed:>3}  {now:#018x}  (unchanged)");
        } else {
            println!("  {label:<8} seed {seed:>3}  {was:#018x} -> {now:#018x}");
            *changed += 1;
        }
    }
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless")
        || std::env::var("CXL_BLESS_FINGERPRINTS").is_ok_and(|v| v == "1");

    let classic = recompute(&Explorer::default(), golden::CLASSIC);
    let liveness_explorer = Explorer {
        liveness: true,
        ..Explorer::default()
    };
    let liveness = recompute(&liveness_explorer, golden::LIVENESS);
    let batched_explorer = Explorer {
        liveness: true,
        config: SimConfig {
            remote_free_batch: 8,
            coalesce_fences: true,
            ..SimConfig::default()
        },
        ..Explorer::default()
    };
    let batched = recompute(&batched_explorer, golden::BATCHED);
    let trace = trace_fingerprint();
    let trace_congested = trace_fingerprint_congested();

    let mut schedule_changed = 0;
    println!("golden fingerprints (old -> new):");
    diff("classic", golden::CLASSIC, &classic, &mut schedule_changed);
    diff("liveness", golden::LIVENESS, &liveness, &mut schedule_changed);
    diff("batched", golden::BATCHED, &batched, &mut schedule_changed);
    let mut trace_changed = 0;
    for (label, was, now) in [
        ("scripted ", golden::TRACE_SCRIPTED, trace),
        ("congested", golden::TRACE_CONGESTED, trace_congested),
    ] {
        if was == now {
            println!("  trace    {label} {now:#018x}  (unchanged)");
        } else {
            println!("  trace    {label} {was:#018x} -> {now:#018x}");
            trace_changed += 1;
        }
    }
    let schedules = classic.len() + liveness.len() + batched.len();
    println!("schedule pins (allocator behaviour): {schedule_changed} of {schedules} changed");
    println!("trace pins (modeled cost): {trace_changed} of 2 changed");

    if !bless {
        if schedule_changed + trace_changed > 0 {
            println!("run again with --bless to rewrite tests/common/golden_fingerprints.rs");
            std::process::exit(1);
        }
        return;
    }

    let mut out = String::new();
    let _ = write!(
        out,
        "// Golden replay fingerprints, pinned.\n//\n\
         // GENERATED — regenerate with `cargo run -p cxl-core --release\n\
         // --example print_fingerprints -- --bless` (or set\n\
         // CXL_BLESS_FINGERPRINTS=1), which re-runs every pinned schedule,\n\
         // prints an old-vs-new diff summary, and rewrites this file. See\n\
         // EXPERIMENTS.md (\"Golden-fingerprint re-pin protocol\") for when a\n\
         // re-pin is legitimate.\n//\n\
         // Two kinds of pin. A schedule pin (CLASSIC, LIVENESS, BATCHED) mixes\n\
         // every step outcome, allocated offset, live-set length, and recovery\n\
         // outcome of a run — so it changes only when the allocator's\n\
         // *observable* behaviour changes, never from substrate optimizations\n\
         // (caches, counters). A trace pin (TRACE_SCRIPTED, TRACE_CONGESTED)\n\
         // also mixes every charged nanosecond, so it carries modeled cost: it\n\
         // moves whenever an access starts or stops being charged.\n//\n\
         // Each test target include!s this file and uses only some pins, so\n\
         // every constant carries allow(dead_code).\n\n\
         /// Classic explorer profile (`Explorer::default()`): (seed, fingerprint).\n\
         #[allow(dead_code)]\n\
         pub const CLASSIC: &[(u64, u64)] = &[\n"
    );
    for (seed, fp) in &classic {
        let _ = writeln!(out, "    ({seed}, {fp:#018x}),");
    }
    let _ = write!(
        out,
        "];\n\n/// Liveness profile (`liveness: true`): (seed, fingerprint).\n\
         #[allow(dead_code)]\n\
         pub const LIVENESS: &[(u64, u64)] = &[\n"
    );
    for (seed, fp) in &liveness {
        let _ = writeln!(out, "    ({seed}, {fp:#018x}),");
    }
    let _ = write!(
        out,
        "];\n\n/// Liveness profile with batched remote frees and fence coalescing\n\
         /// (PR 4): (seed, fingerprint).\n\
         #[allow(dead_code)]\n\
         pub const BATCHED: &[(u64, u64)] = &[\n"
    );
    for (seed, fp) in &batched {
        let _ = writeln!(out, "    ({seed}, {fp:#018x}),");
    }
    let _ = write!(
        out,
        "];\n\n/// Trace-stream fingerprint of the scripted crash/recovery schedule in\n\
         /// `trace_determinism.rs` (tracer armed, 3 hosts, seed 42). Both trace\n\
         /// pins last moved when the owner began marking its dirty-list mask\n\
         /// (a store to its log line on a list's first edit after a flush\n\
         /// point) and recovery stopped walking the lists the mask leaves out:\n\
         /// both change charged accesses, not outcomes.\n\
         #[allow(dead_code)]\n\
         pub const TRACE_SCRIPTED: u64 = {trace:#018x};\n\n\
         /// Trace-stream fingerprint of the same scripted schedule on a pod with\n\
         /// the congested fabric preset (`FabricConfig::congested()`): pins the\n\
         /// cost determinism of the fabric layer, which schedule fingerprints\n\
         /// (outcomes and offsets only) cannot see.\n\
         #[allow(dead_code)]\n\
         pub const TRACE_CONGESTED: u64 = {trace_congested:#018x};\n"
    );

    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/common/golden_fingerprints.rs"
    );
    std::fs::write(path, out).expect("write golden_fingerprints.rs");
    println!("blessed {path}");
}
