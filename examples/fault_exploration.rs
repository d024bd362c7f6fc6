//! Schedule exploration and fault injection, end to end:
//!
//! 1. a clean campaign — random multi-host schedules with crashes and
//!    recoveries, every run checked against the full invariant suite;
//! 2. an adversarial campaign — core 0's flushes are silently dropped,
//!    the explorer finds the seeds that corrupt the heap, shrinks one
//!    to a minimal reproducer, and replays it byte-identically.
//!
//! Run with: `cargo run --release --example fault_exploration`

use cxlalloc::drive::explore::Explorer;
use cxlalloc::pod::fault::{FaultKind, FaultRule};

fn main() {
    // -- 1. No faults: everything must pass. ----------------------------
    let clean = Explorer::default();
    let report = clean.explore(0, 40);
    println!(
        "clean campaign: {} runs, {} allocs, {} crashes, {} recoveries, {} failures",
        report.runs,
        report.total_allocs,
        report.total_crashes,
        report.total_recoveries,
        report.failures.len()
    );
    assert!(report.all_passed(), "clean runs must never fail");

    // -- 2. Drop every flush core 0 issues: a stale-metadata bug on
    //       demand. The explorer hunts for seeds whose schedules expose
    //       it, then shrinks the first one. -----------------------------
    let lossy = Explorer {
        plan: vec![FaultRule::new(FaultKind::DropFlush).on_core(0)],
        ..Explorer::default()
    };
    let report = lossy.explore(0, 100);
    println!(
        "lossy campaign: {} runs, {} failures",
        report.runs,
        report.failures.len()
    );
    let Some((seed, failure)) = report.failures.first() else {
        println!("no failing seed in this window — try more runs");
        return;
    };
    println!("first failing seed {seed}: {failure}");

    // Deterministic replay: the same seed reproduces the same failure,
    // down to the failing step and message.
    let a = lossy.run_seed(*seed).unwrap_err();
    let b = lossy.run_seed(*seed).unwrap_err();
    assert_eq!((a.step, &a.message), (b.step, &b.message));
    println!("replayed seed {seed} twice: identical failure");

    // Shrink to a 1-minimal reproducer: removing any single step makes
    // the failure vanish.
    let full = lossy.schedule_for(*seed);
    let minimal = lossy.shrink(&full);
    println!(
        "shrunk schedule: {} steps -> {} steps",
        full.steps.len(),
        minimal.steps.len()
    );
    for step in &minimal.steps {
        println!("  {step:?}");
    }
    assert!(lossy.fails(&minimal));
}
