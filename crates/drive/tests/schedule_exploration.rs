//! Acceptance tests for the schedule-exploration harness: random
//! schedules over multiple simulated hosts, with and without injected
//! faults, deterministic replay from seeds, and shrinking of failing
//! schedules to minimal reproducers.

use cxl_drive::explore::Explorer;
use cxl_drive::sched::{Schedule, SimConfig};
use cxl_pod::fault::{FaultKind, FaultRule};
use cxl_pod::HwccMode;

mod scenarios {
    include!("common/scenarios.rs");
}

/// The pinned golden fingerprints live in
/// `tests/common/golden_fingerprints.rs`, shared with the
/// `print_fingerprints` example that regenerates them (see
/// EXPERIMENTS.md for the re-pin protocol). A failure here means a
/// perf change leaked into semantics; if the behaviour change is
/// deliberate, run `cargo run -p cxl-drive --release --example
/// print_fingerprints -- --bless` and review the printed diff.
mod golden {
    include!("common/golden_fingerprints.rs");
}

/// Acceptance: with no injected faults, at least 100 random schedules
/// over at least 2 simulated hosts all pass the whole-heap audit and
/// recover every crashed host.
#[test]
fn hundred_random_schedules_pass_without_faults() {
    let explorer = Explorer::default();
    assert!(explorer.config.hosts >= 2);
    let report = explorer.explore(0, 100);
    assert_eq!(report.runs, 100);
    assert!(
        report.all_passed(),
        "failing seeds: {:?}",
        report.failures
    );
    // The campaign must exercise real work, not trivially pass.
    assert!(report.total_allocs > 500, "allocs: {}", report.total_allocs);
    assert!(report.total_crashes > 0, "no schedule ever crashed a host");
    assert_eq!(report.total_crashes, report.total_recoveries);
}

/// The same campaign under mCAS-only synchronization (no HWcc at all):
/// schedules still pass, exercising the NMP path end to end.
#[test]
fn random_schedules_pass_under_mcas_mode() {
    let explorer = Explorer {
        config: SimConfig {
            mode: HwccMode::None,
            ..SimConfig::default()
        },
        steps_per_run: 25,
        ..Explorer::default()
    };
    let report = explorer.explore(7_000, 20);
    assert!(report.all_passed(), "failures: {:?}", report.failures);
}

/// Acceptance: an injected stale-read bug — core 0's flushes silently
/// dropped, so its stores never reach durable memory — is caught
/// deterministically by some schedule, and the failing seed replays
/// byte-identically: same failing step, same message, twice in a row.
#[test]
fn injected_dropped_flush_bug_is_caught_and_replays_identically() {
    let explorer = Explorer {
        plan: vec![FaultRule::new(FaultKind::DropFlush).on_core(0)],
        steps_per_run: 30,
        ..Explorer::default()
    };
    let seed = (0..300u64)
        .find(|&s| explorer.run_seed(s).is_err())
        .expect("dropping every core-0 flush must corrupt some schedule");

    let first = explorer.run_seed(seed).unwrap_err();
    let second = explorer.run_seed(seed).unwrap_err();
    assert_eq!(first.step, second.step, "failing step must replay");
    assert_eq!(
        first.message, second.message,
        "failure message must replay byte-identically"
    );
}

/// Passing runs also replay byte-identically: the full fingerprint over
/// every step outcome and allocated offset is equal across runs.
#[test]
fn passing_runs_replay_byte_identically() {
    let explorer = Explorer::default();
    for seed in [3, 17, 91] {
        let a = explorer.run_seed(seed).unwrap();
        let b = explorer.run_seed(seed).unwrap();
        assert_eq!(a, b, "seed {seed} diverged between runs");
        assert_ne!(a.fingerprint, 0);
    }
}

/// Different seeds produce different schedules and (overwhelmingly)
/// different fingerprints — the fingerprint actually captures the run.
#[test]
fn distinct_seeds_produce_distinct_fingerprints() {
    let explorer = Explorer::default();
    let a = explorer.run_seed(11).unwrap();
    let b = explorer.run_seed(12).unwrap();
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// Acceptance: shrinking a failing schedule yields a minimal reproducer
/// that still fails under the same seed and fault plan.
#[test]
fn failing_schedule_shrinks_to_minimal_reproducer() {
    let explorer = Explorer {
        plan: vec![FaultRule::new(FaultKind::DropFlush).on_core(0)],
        steps_per_run: 30,
        ..Explorer::default()
    };
    let seed = (0..300u64)
        .find(|&s| explorer.run_seed(s).is_err())
        .expect("no failing seed found");
    let schedule = explorer.schedule_for(seed);
    let shrunk = explorer.shrink(&schedule);
    assert!(explorer.fails(&shrunk));
    assert!(shrunk.steps.len() < schedule.steps.len(), "shrink removed nothing");
    // 1-minimal: every remaining step is load-bearing.
    for i in 0..shrunk.steps.len() {
        let mut steps = shrunk.steps.clone();
        steps.remove(i);
        assert!(
            !explorer.fails(&Schedule {
                seed,
                hosts: shrunk.hosts,
                steps
            }),
            "step {i} of the shrunk schedule is removable"
        );
    }
}

/// Benign faults — virtual-clock delays and bounded transient mCAS
/// contention — never violate correctness: schedules pass, only slower.
#[test]
fn benign_fault_plans_do_not_violate_invariants() {
    let explorer = Explorer {
        plan: vec![
            FaultRule::new(FaultKind::DelayFlush(900)).times(64),
            FaultRule::new(FaultKind::DelayWriteback(250)),
            FaultRule::new(FaultKind::McasDelay(1_500)).times(32),
            FaultRule::new(FaultKind::McasContention).after(2).times(8),
        ],
        steps_per_run: 25,
        ..Explorer::default()
    };
    let report = explorer.explore(400, 12);
    assert!(report.all_passed(), "failures: {:?}", report.failures);
}

/// An explicit crash scenario: "crash host 2 at slab_push step 3, then
/// recover on host 0" — expressed directly as a schedule over three
/// hosts (the trace pins' scenario).
#[test]
fn scripted_crash_host_two_recover_on_host_zero() {
    let (_, report) = scenarios::trace_run(None, false);
    assert_eq!(report.crashes_fired, 1);
    assert_eq!(report.recoveries, 1);
}

/// A host crash abandoning its entire cache (AbandonCache fired at a
/// flush site) is survivable: recovery rebuilds from durable state.
#[test]
fn abandon_cache_fault_with_crash_recovers() {
    let explorer = Explorer {
        plan: vec![FaultRule::new(FaultKind::AbandonCache).on_core(1).once()],
        steps_per_run: 20,
        ..Explorer::default()
    };
    // AbandonCache mimics an untimely host reset: dirty lines vanish.
    // Runs may fail (that is the point of the injector) but must fail
    // deterministically, and plenty of seeds survive.
    let mut survived = 0;
    for seed in 900..920u64 {
        match (explorer.run_seed(seed), explorer.run_seed(seed)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "seed {seed} diverged");
                survived += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.step, b.step, "seed {seed} diverged");
                assert_eq!(a.message, b.message, "seed {seed} diverged");
            }
            (a, b) => panic!("seed {seed} nondeterministic: {a:?} vs {b:?}"),
        }
    }
    assert!(survived > 0, "every seed failed under a single AbandonCache");
}

#[test]
fn golden_replay_fingerprints_are_pinned() {
    let pins = [golden::CLASSIC, golden::LIVENESS];
    for ((label, explorer), pinned) in scenarios::profiles().into_iter().zip(pins) {
        for &(seed, want) in pinned {
            let got = explorer.run_seed(seed).unwrap().fingerprint;
            assert_eq!(got, want, "{label} seed {seed}: {got:#018x} != {want:#018x}");
        }
    }
    // Batching is unobservable in outcomes: batch 8 replays the eager
    // liveness pins.
    let batched = scenarios::batched();
    for &(seed, want) in golden::LIVENESS {
        let got = batched.run_seed(seed).unwrap().fingerprint;
        assert_eq!(got, want, "batched seed {seed}: {got:#018x} != liveness {want:#018x}");
    }
}
