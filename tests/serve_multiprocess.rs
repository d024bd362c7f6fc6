//! True multi-process serving tests: a coordinator (this test process)
//! drives real OS worker processes over a shared-memory pod segment,
//! `kill -9`s some of them mid-run, and audits the recovered heap.
//!
//! These are the acceptance tests for the serving harness (DESIGN.md
//! §11): every crash is adopted by exactly one winner, and the
//! end-of-run census agrees exactly with the workers' allocation
//! ledgers — zero lost blocks, zero phantoms.

#![cfg(target_os = "linux")]

use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use cxlalloc::core::{AttachOptions, Cxlalloc, ThreadId};
use cxlalloc::pod::{CoreId, Pod};
use cxlalloc::serve::coordinator::{self, RunArgs};
use cxlalloc::serve::rpc::{self, status, ControlPlane, Msg};
use cxlalloc::serve::worker::{self, WorkerArgs};
use cxlalloc::serve::Chaos;

/// The serve binary built alongside this test; workers are spawned
/// from it so every worker is a genuinely separate OS process.
fn serve_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_serve"))
}

fn seg_file(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cxl-serve-test-{}-{tag}.seg", std::process::id()))
}

fn base_args(tag: &str) -> RunArgs {
    RunArgs {
        file: seg_file(tag),
        worker_exe: serve_exe(),
        ledger_cap: 256,
        ..RunArgs::default()
    }
}

/// The ISSUE acceptance test: four workers serve timed traffic, the
/// coordinator `kill -9`s two of them on a seeded schedule, and the
/// replacements adopt the dead slots. The audit must come back exact.
#[test]
fn four_workers_two_kills_zero_lost_blocks() {
    let args = RunArgs {
        workers: 4,
        secs: 4.0,
        kills: 2,
        seed: 42,
        ..base_args("kills")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 2, "both scheduled kills must fire");
    assert!(
        report.adoptions.len() >= 2,
        "each kill needs an adoption, got {:?}",
        report.adoptions
    );
    for adoption in &report.adoptions {
        assert_eq!(
            adoption.winners, 1,
            "exactly one winner per dead slot: {adoption:?}"
        );
    }
    let audit = &report.audit;
    assert!(audit.lost.is_empty(), "lost blocks: {:?}", audit.lost);
    assert!(audit.phantom.is_empty(), "phantom cells: {:?}", audit.phantom);
    assert!(audit.duplicates.is_empty(), "duplicate cells: {:?}", audit.duplicates);
    assert_eq!(audit.census_live, audit.ledger_live, "census must match ledgers");
    // Timed kills land at arbitrary instruction boundaries, so each one
    // may separate a heap operation from its status-counter bump (the
    // *block* accounting stays exact — the ledger cell is published by
    // the allocator's redo retirement, not the worker). Only op-exact
    // --self-kill runs guarantee a zero delta; see
    // chaos_mix_is_clean_and_replayable for that assertion.
    assert!(
        audit.counter_delta.unsigned_abs() <= report.kills as u64,
        "counter delta {} exceeds the {} mid-op kills",
        audit.counter_delta,
        report.kills
    );
    assert_eq!(audit.invariants, "ok");
    assert!(report.is_clean());
    assert!(report.total_ops > 0, "workers must actually serve traffic");
    assert!(report.quantile_ns(0.5) > 0, "latency histograms must populate");
}

/// The worker's per-op clock: in a chaos-free run every op lands in the
/// histogram exactly once, and the median lands in a bucket a served op
/// can take — a mis-calibrated clock (a wrong tick rate, or a floor
/// that swallows the op) reads it orders of magnitude off.
#[test]
fn one_worker_times_each_op_once() {
    let args = RunArgs {
        workers: 1,
        secs: 0.0,
        target_ops: 100_000,
        seed: 3,
        ..base_args("clock")
    };
    let report = coordinator::run(&args).expect("run");
    assert!(report.is_clean());
    assert_eq!(report.total_ops, args.target_ops);
    let hist = report.workers[0].hist;
    assert_eq!(hist.iter().sum::<u64>(), report.total_ops, "each op is timed once");
    let p50 = report.quantile_ns(0.5);
    assert!((16..=64_000).contains(&p50), "p50 bucket {p50} ns: histogram {hist:?}");
}

/// Raced adoption: two replacements per crash, and the registry CAS
/// must arbitrate to exactly one winner and one loser — with the heap
/// still exact afterwards.
#[test]
fn raced_adoption_has_exactly_one_winner() {
    let args = RunArgs {
        workers: 2,
        secs: 3.0,
        kills: 1,
        race_adopt: true,
        seed: 11,
        ..base_args("race")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 1);
    assert_eq!(report.adoptions.len(), 1, "adoptions: {:?}", report.adoptions);
    let adoption = &report.adoptions[0];
    assert_eq!(
        adoption.winners, 1,
        "winners as (pid, lease epoch): {:?} — two pids: both won DEAD→ADOPTING; \
         one pid twice, or another episode's epoch: one winner counted twice — {adoption:?}",
        adoption.winner_ids
    );
    assert_eq!(adoption.losers, 1, "the raced replacement must lose: {adoption:?}");
    assert!(report.audit.is_clean(), "audit: {:?}", report.audit);
    assert!(report.is_clean());
}

/// Deterministic crash audit: worker 0 SIGKILLs itself at an exact op
/// boundary, so the post-recovery heap census must equal a pure replay
/// of the op streams — an *exact block count*, not just "no loss".
#[test]
fn self_kill_census_matches_pure_replay() {
    const SEED: u64 = 77;
    const TARGET_OPS: u64 = 4000;
    const KILL_AT: u64 = 1500;
    const CAP: u64 = 256;

    let args = RunArgs {
        workers: 2,
        secs: 0.0,
        target_ops: TARGET_OPS,
        self_events: vec![(Chaos::Kill, 0, KILL_AT)],
        seed: SEED,
        spec: 0,
        ..base_args("replay")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 1, "the self-kill must register as a crash");
    assert_eq!(report.adoptions.len(), 1);
    assert_eq!(report.adoptions[0].winners, 1);
    // Both incarnations of slot 0 plus slot 1 finish their full runs.
    assert_eq!(report.total_ops, 2 * TARGET_OPS);

    // Replay the exact op sequences: slot 0 runs incarnation 0 for
    // KILL_AT ops, then its replacement (incarnation 1, fresh seed)
    // continues over the same inherited ledger for TARGET_OPS more.
    let mut cells0 = Vec::new();
    worker::simulate_ledger(0, coordinator::incarnation_seed(SEED, 0, 0), CAP, KILL_AT, None, &mut cells0);
    worker::simulate_ledger(0, coordinator::incarnation_seed(SEED, 0, 1), CAP, TARGET_OPS, None, &mut cells0);
    let mut cells1 = Vec::new();
    worker::simulate_ledger(0, coordinator::incarnation_seed(SEED, 1, 0), CAP, TARGET_OPS, None, &mut cells1);
    let expected: u64 = [&cells0, &cells1]
        .iter()
        .map(|c| c.iter().filter(|live| **live).count() as u64)
        .sum();

    assert_eq!(
        report.audit.census_live, expected,
        "heap census must equal the replayed block count (audit: {:?})",
        report.audit
    );
    assert_eq!(report.audit.ledger_live, expected);
    assert_eq!(report.audit.counter_delta, 0);
    assert!(report.is_clean());
}

/// Cross-process lease steal: another process declares a live worker
/// dead and adopts its slot; the worker's very next heartbeat must see
/// the stolen lease epoch and die with the dedicated exit code —
/// proving steals are fatal *across address spaces*, not just in the
/// single-process simulation.
#[test]
fn stolen_heartbeat_kills_worker_across_processes() {
    let file = seg_file("steal");
    let _ = std::fs::remove_file(&file);
    let config = coordinator::serve_config();
    let (workers, cap) = (1u32, 64u64);
    let tail = rpc::tail_bytes(workers, cap);
    let pod = Pod::create_shared(config.clone(), &file, tail).expect("create segment");
    let plane = ControlPlane::new(
        pod.memory().segment().clone(),
        pod.layout().total_len,
        workers,
        cap,
    );
    plane.init();

    let worker_args = WorkerArgs {
        file: file.clone(),
        config: config.clone(),
        workers,
        ledger_cap: cap,
        index: 0,
        seed: 1,
        spec: 0,
        hb_every: 128,
        target_ops: 0,
        adopt: None,
        chaos: Vec::new(),
        shared_pct: 0,
        remote_batch: 1,
        shared_skew: None,
    };
    let mut child = Command::new(serve_exe())
        .arg("worker")
        .args(worker_args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn worker");

    // Wait for the worker's Hello; the run state stays SETUP, so it then
    // sits in its pre-RUNNING loop, heartbeating every millisecond.
    let me = plane.worker(0);
    let evt = me.evt_ring();
    let deadline = Instant::now() + Duration::from_secs(60);
    let victim_tid = loop {
        match evt.pop().expect("evt ring") {
            Some(Msg::Hello { tid, .. }) => break tid,
            Some(other) => panic!("unexpected event before hello: {other:?}"),
            None => {}
        }
        assert!(Instant::now() < deadline, "worker never said hello");
        std::thread::sleep(Duration::from_millis(2));
    };

    // Steal the slot from this (separate) process: declare the live
    // worker dead and win the adoption, which bumps the lease epoch.
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).expect("attach");
    let victim = ThreadId::new(victim_tid).expect("worker tid");
    assert!(heap.mark_crashed(victim).expect("mark_crashed"));
    let (_stolen_handle, _report) =
        heap.adopt(victim, CoreId(0)).expect("adopt the live worker's slot");

    // The worker's next beat must observe the foreign epoch and exit
    // with the dedicated STOLEN code.
    let exit = child.wait().expect("wait worker");
    assert_eq!(exit.code(), Some(worker::exit::STOLEN), "exit: {exit:?}");
    assert_eq!(me.status(status::STOLEN), 1, "stolen flag must be raised");
    let stole_evt = std::iter::from_fn(|| evt.pop().expect("evt ring"))
        .find(|m| matches!(m, Msg::Stolen { .. }));
    assert_eq!(stole_evt, Some(Msg::Stolen { tid: victim_tid }));

    let _ = std::fs::remove_file(&file);
}

/// Graceful drain: a rolling restart SIGTERMs a worker mid-run. The
/// worker must exit `DRAINED` (no adoption, no recovery), hand its
/// traffic share to a fresh replacement, and leave its lease *frozen*
/// in the segment — permanently unadoptable — with the audit exact.
#[test]
fn sigterm_drain_freezes_lease_and_stays_clean() {
    let args = RunArgs {
        workers: 2,
        secs: 3.0,
        rolling: Some((1, 1.0)),
        seed: 5,
        keep_file: true,
        ..base_args("drain")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 0, "a drain is not a crash");
    assert!(report.adoptions.is_empty(), "drains must not trigger adoption");
    assert_eq!(report.drains.len(), 1, "drains: {:?}", report.drains);
    let drain = &report.drains[0];
    assert_eq!(drain.index, 0, "rolling starts at slot 0");
    assert!(drain.ops > 0, "the drained incarnation must have served");
    assert!(report.audit.is_clean(), "audit: {:?}", report.audit);
    assert!(report.is_clean());

    // Reopen the kept segment: the drained tid's lease must carry the
    // frozen sentinel, which survives the process and the run.
    let tail = rpc::tail_bytes(args.workers, args.ledger_cap);
    let pod = Pod::open_shared(args.config.clone(), &args.file, tail).expect("reopen");
    let slot = ThreadId::new(drain.tid).expect("drained tid").slot();
    let word = pod.memory().load_u64(CoreId(0), pod.layout().lease_at(slot));
    assert!(
        cxlalloc::core::liveness::lease::is_frozen(word),
        "drained lease must stay frozen, got {word:#x}"
    );
    drop(pod);
    let _ = std::fs::remove_file(&args.file);
}

/// Stuck-worker steal: a worker SIGSTOPs itself at an exact op count;
/// with a zero-probe watchdog ladder the coordinator escalates straight
/// to SIGKILL, and exactly one replacement adopts the wedged slot.
#[test]
fn stalled_worker_is_stolen_after_escalation() {
    let args = RunArgs {
        workers: 2,
        secs: 0.0,
        target_ops: 2000,
        self_events: vec![(Chaos::Stall, 0, 800)],
        stall_ms: 400,
        probe_grace_ms: 200,
        max_probes: 0,
        seed: 13,
        ..base_args("stall")
    };
    let report = coordinator::run(&args).expect("run");

    assert!(
        report.stalls.iter().any(|s| s.index == 0 && s.escalated),
        "the watchdog must escalate the wedged slot: {:?}",
        report.stalls
    );
    assert_eq!(report.kills, 1, "escalation is a SIGKILL death");
    assert_eq!(report.adoptions.len(), 1, "adoptions: {:?}", report.adoptions);
    assert_eq!(report.adoptions[0].winners, 1);
    assert!(report.audit.is_clean(), "audit: {:?}", report.audit);
    assert!(report.is_clean());
}

/// Shared-key crash audit: half of every worker's keys free remotely
/// (claimed in place by peers, batched 8-wide through the durable
/// remote buffers), and a worker SIGKILLs itself mid-stream — very
/// likely mid-batch. The audit's remote-free credits must still balance
/// the books to exactly zero lost and zero phantom blocks.
#[test]
fn shared_key_crash_mid_batch_stays_exact() {
    let args = RunArgs {
        workers: 4,
        secs: 0.0,
        target_ops: 2500,
        shared_pct: 50,
        remote_batch: 8,
        self_events: vec![(Chaos::Kill, 1, 900)],
        seed: 23,
        ..base_args("shared")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 1);
    assert_eq!(report.adoptions.len(), 1);
    assert_eq!(report.adoptions[0].winners, 1);
    assert!(report.forwarded > 0, "peers must actually free shared keys");
    let audit = &report.audit;
    assert!(audit.lost.is_empty(), "lost blocks: {:?}", audit.lost);
    assert!(audit.phantom.is_empty(), "phantom cells: {:?}", audit.phantom);
    assert!(audit.duplicates.is_empty(), "duplicates: {:?}", audit.duplicates);
    assert_eq!(audit.credit_excess, 0, "audit: {audit:?}");
    assert_eq!(audit.counter_delta, 0, "audit: {audit:?}");
    assert!(report.is_clean());
}

/// Kill-mid-batch chaos under skew: workers buffer their remote frees
/// 8 wide, a Zipf θ=0.9 skew overlay concentrates traffic — and peer
/// frees — on the shared hot head, and two workers SIGKILL
/// themselves mid-stream, very likely with batches still buffered. The
/// audit's credits (per-slab remote-pending and durable remote
/// buffers) must still balance the books to exactly zero lost and zero
/// phantom blocks with a zero counter delta.
#[test]
fn kill_mid_batch_with_skew_stays_exact() {
    let args = RunArgs {
        workers: 4,
        secs: 0.0,
        target_ops: 2500,
        shared_pct: 50,
        remote_batch: 8,
        shared_skew: Some(0.9),
        self_events: vec![(Chaos::Kill, 1, 900), (Chaos::Kill, 2, 1300)],
        seed: 31,
        ..base_args("skew-batch")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 2, "both self-kills must fire");
    assert_eq!(report.adoptions.len(), 2, "adoptions: {:?}", report.adoptions);
    for adoption in &report.adoptions {
        assert_eq!(adoption.winners, 1, "{adoption:?}");
    }
    assert!(report.forwarded > 0, "peers must free skewed shared keys");
    let audit = &report.audit;
    assert!(audit.lost.is_empty(), "lost blocks: {:?}", audit.lost);
    assert!(audit.phantom.is_empty(), "phantom cells: {:?}", audit.phantom);
    assert!(audit.duplicates.is_empty(), "duplicates: {:?}", audit.duplicates);
    assert_eq!(audit.credit_excess, 0, "audit: {audit:?}");
    assert_eq!(audit.counter_delta, 0, "audit: {audit:?}");
    assert!(report.is_clean());
}

/// The `--shared-skew` overlay must be mirrored *exactly* by the pure
/// replay: partitioned keys (no peer frees), θ=0.9, an op-exact
/// self-kill — the post-recovery census must equal `simulate_ledger`
/// run with the same θ, block for block.
#[test]
fn skewed_census_matches_pure_replay() {
    const SEED: u64 = 53;
    const TARGET_OPS: u64 = 3000;
    const KILL_AT: u64 = 1100;
    const CAP: u64 = 256;
    const THETA: f64 = 0.9;

    let args = RunArgs {
        workers: 2,
        secs: 0.0,
        target_ops: TARGET_OPS,
        shared_skew: Some(THETA),
        self_events: vec![(Chaos::Kill, 0, KILL_AT)],
        seed: SEED,
        spec: 0,
        ..base_args("skew-replay")
    };
    let report = coordinator::run(&args).expect("run");

    assert_eq!(report.kills, 1);
    assert_eq!(report.adoptions.len(), 1);
    assert_eq!(report.adoptions[0].winners, 1);

    let mut cells0 = Vec::new();
    worker::simulate_ledger(
        0, coordinator::incarnation_seed(SEED, 0, 0), CAP, KILL_AT, Some(THETA), &mut cells0,
    );
    worker::simulate_ledger(
        0, coordinator::incarnation_seed(SEED, 0, 1), CAP, TARGET_OPS, Some(THETA), &mut cells0,
    );
    let mut cells1 = Vec::new();
    worker::simulate_ledger(
        0, coordinator::incarnation_seed(SEED, 1, 0), CAP, TARGET_OPS, Some(THETA), &mut cells1,
    );
    let expected: u64 = [&cells0, &cells1]
        .iter()
        .map(|c| c.iter().filter(|live| **live).count() as u64)
        .sum();

    assert_eq!(
        report.audit.census_live, expected,
        "skewed census must equal the skewed replay (audit: {:?})",
        report.audit
    );
    assert_eq!(report.audit.ledger_live, expected);
    assert_eq!(report.audit.counter_delta, 0);
    assert!(report.is_clean());
}

/// The ISSUE acceptance scenario: a seeded chaos mix of 2 kill -9s,
/// 2 SIGSTOP stalls (revived by watchdog SIGCONT probes), and 2 SIGTERM
/// drains over 4 workers in shared-keys mode. The run must end with a
/// clean audit and a zero counter delta — and be replayable: the same
/// seed must reproduce the same report digest, which covers the
/// partitioned keys (a shared cell's content races its home's insert
/// against its peer's free).
#[test]
fn chaos_mix_is_clean_and_replayable() {
    let run_once = |tag: &str| {
        let args = RunArgs {
            workers: 4,
            secs: 0.0,
            target_ops: 2500,
            shared_pct: 50,
            remote_batch: 8,
            // Stalls land *before* the slots' kill/drain ops so every
            // event fires; the watchdog's SIGCONT probes revive them.
            self_events: vec![
                (Chaos::Kill, 0, 500),
                (Chaos::Kill, 1, 900),
                (Chaos::Drain, 2, 700),
                (Chaos::Drain, 3, 1100),
                (Chaos::Stall, 0, 300),
                (Chaos::Stall, 2, 400),
            ],
            stall_ms: 400,
            probe_grace_ms: 300,
            max_probes: 3,
            seed: 4242,
            ..base_args(tag)
        };
        coordinator::run(&args).expect("run")
    };
    let a = run_once("chaos-a");

    assert_eq!(a.kills, 2, "both self-kills must fire");
    assert_eq!(a.drains.len(), 2, "both self-drains must fire: {:?}", a.drains);
    assert_eq!(
        a.stalls.iter().filter(|s| !s.escalated).count(),
        2,
        "both stalls must be revived by probes: {:?}",
        a.stalls
    );
    assert_eq!(a.adoptions.len(), 2);
    for adoption in &a.adoptions {
        assert_eq!(adoption.winners, 1, "{adoption:?}");
    }
    assert!(a.forwarded > 0, "peers must free shared keys");
    assert!(a.audit.lost.is_empty(), "lost blocks: {:?}", a.audit.lost);
    assert!(a.audit.phantom.is_empty(), "phantom cells: {:?}", a.audit.phantom);
    assert!(a.audit.duplicates.is_empty(), "duplicates: {:?}", a.audit.duplicates);
    assert_eq!(a.audit.counter_delta, 0, "audit: {:?}", a.audit);
    assert!(a.audit.is_clean(), "audit: {:?}", a.audit);
    assert!(a.is_clean());

    // Replay: the deterministic projection must match bit-for-bit.
    let b = run_once("chaos-b");
    assert!(b.is_clean());
    assert_eq!(a.digest(), b.digest(), "replay diverged:\n{a:#?}\nvs\n{b:#?}");
}
