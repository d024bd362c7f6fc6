//! Recomputes every pinned golden fingerprint and, with `--bless` (or
//! `CXL_BLESS_FINGERPRINTS=1`), rewrites
//! `tests/common/golden_fingerprints.rs` in one pass.
//!
//! ```text
//! cargo run -p cxl-drive --release --example print_fingerprints
//! cargo run -p cxl-drive --release --example print_fingerprints -- --bless
//! ```
//!
//! Always prints an old-vs-new diff summary, so a re-pin is a reviewed,
//! deliberate act: every changed line names the profile and seed whose
//! observable behaviour moved. Without `--bless` a changed pin is a
//! failure (exit status 1), so CI shows the whole table once instead of
//! scattered test failures. See EXPERIMENTS.md for the protocol. The
//! scenarios themselves are the tests' own (`tests/common/scenarios.rs`).

use cxl_pod::FabricConfig;
use std::fmt::Write as _;

// The currently-pinned values, compiled in from the same file the
// tests include — the diff below is exact, not parsed.
mod golden {
    include!(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/common/golden_fingerprints.rs"
    ));
}

mod scenarios {
    include!(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/common/scenarios.rs"));
}

/// One profile's pinned (seed, fingerprint) pairs.
type Pins = &'static [(u64, u64)];

/// Each schedule pin's constant and doc line, in `scenarios::profiles()`
/// order.
const SCHEDULE_PINS: [(&str, &str, Pins); 2] = [
    (
        "CLASSIC",
        "/// Classic explorer profile (`Explorer::default()`): (seed, fingerprint).\n",
        golden::CLASSIC,
    ),
    (
        "LIVENESS",
        "/// Liveness profile (`liveness: true`): (seed, fingerprint).\n",
        golden::LIVENESS,
    ),
];

/// The trace-stream fingerprint of the trace scenario on `fabric`.
fn trace_fingerprint(fabric: Option<FabricConfig>) -> u64 {
    let (pod, _) = scenarios::trace_run(fabric, true);
    pod.memory().tracer().expect("sim pods carry a tracer").fingerprint()
}

fn main() {
    let bless = std::env::args().any(|a| a == "--bless")
        || std::env::var("CXL_BLESS_FINGERPRINTS").is_ok_and(|v| v == "1");

    let mut schedule_changed = 0;
    let mut schedules = 0;
    let mut recomputed = Vec::new();
    println!("golden fingerprints (old -> new):");
    let profiles = scenarios::profiles();
    for ((label, explorer), (_, _, pinned)) in profiles.into_iter().zip(SCHEDULE_PINS) {
        let mut now = Vec::new();
        for &(seed, was) in pinned {
            let fp = explorer
                .run_seed(seed)
                .unwrap_or_else(|e| panic!("pinned seed {seed} fails outright: {e:?}"))
                .fingerprint;
            if was == fp {
                println!("  {label:<8} seed {seed:>3}  {fp:#018x}  (unchanged)");
            } else {
                println!("  {label:<8} seed {seed:>3}  {was:#018x} -> {fp:#018x}");
                schedule_changed += 1;
            }
            now.push((seed, fp));
        }
        schedules += now.len();
        recomputed.push(now);
    }
    let trace = trace_fingerprint(None);
    let trace_congested = trace_fingerprint(Some(FabricConfig::congested()));
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
    println!("schedule pins (allocator behaviour): {schedule_changed} of {schedules} changed");
    println!("trace pins (modeled cost): {trace_changed} of 2 changed");

    if !bless {
        if schedule_changed + trace_changed > 0 {
            println!("run again with --bless to rewrite tests/common/golden_fingerprints.rs");
            std::process::exit(1);
        }
        return;
    }

    let mut out = String::from(
        "// Golden replay fingerprints, pinned.\n//\n\
         // GENERATED — regenerate with `cargo run -p cxl-drive --release\n\
         // --example print_fingerprints -- --bless` (or set\n\
         // CXL_BLESS_FINGERPRINTS=1), which re-runs every pinned schedule,\n\
         // prints an old-vs-new diff summary, and rewrites this file. See\n\
         // EXPERIMENTS.md (\"Golden-fingerprint re-pin protocol\") for when a\n\
         // re-pin is legitimate. The pinned scenarios are defined once, in\n\
         // tests/common/scenarios.rs.\n//\n\
         // Two kinds of pin. A schedule pin (CLASSIC, LIVENESS) mixes every\n\
         // step outcome, allocated offset, live-set length, and recovery\n\
         // outcome of a run — so it changes only when the allocator's\n\
         // *observable* behaviour changes, never from substrate optimizations\n\
         // (caches, counters). The batched profile has no pin: it must replay\n\
         // LIVENESS at every seed. A trace pin (TRACE_SCRIPTED, TRACE_CONGESTED)\n\
         // also mixes every charged nanosecond, so it carries modeled cost: it\n\
         // moves whenever an access starts or stops being charged. The traced\n\
         // window closes before the end-of-run audit, so a checker change\n\
         // never moves a trace pin.\n//\n\
         // Each test target include!s this file and uses only some pins, so\n\
         // every constant carries allow(dead_code).\n",
    );
    for ((name, doc, _), pins) in SCHEDULE_PINS.iter().zip(&recomputed) {
        let _ = write!(out, "\n{doc}#[allow(dead_code)]\npub const {name}: &[(u64, u64)] = &[\n");
        for (seed, fp) in pins {
            let _ = writeln!(out, "    ({seed}, {fp:#018x}),");
        }
        out.push_str("];\n");
    }
    let _ = write!(
        out,
        "\n/// Trace-stream fingerprint of the scripted crash/recovery schedule\n\
         /// (`scenarios::trace_schedule`: tracer armed, 3 hosts, seed 42). Both\n\
         /// trace pins last moved when a registration or adoption stopped\n\
         /// scanning the whole reservation array (it reads the thread's\n\
         /// claimed-region hint instead) and each huge claim began to widen\n\
         /// that hint durably: loads left the stream, one store, flush and\n\
         /// fence came per widening, and every charge after them shifted.\n\
         #[allow(dead_code)]\n\
         pub const TRACE_SCRIPTED: u64 = {trace:#018x};\n\n\
         /// Trace-stream fingerprint of the same scripted schedule on a pod with\n\
         /// the congested fabric preset (`FabricConfig::congested()`): pins the\n\
         /// cost determinism of the fabric layer, which schedule fingerprints\n\
         /// (outcomes and offsets only) cannot see. It last moved with\n\
         /// `TRACE_SCRIPTED`, for the same loads.\n\
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
