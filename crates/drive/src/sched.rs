//! Deterministic multi-host schedule driver.
//!
//! The paper validates cxlalloc with white-box crash points and
//! black-box random crashes (§5.1). This module generalizes both into
//! *schedules*: explicit sequences of allocator operations across N
//! simulated hosts, each host a registered thread pinned to its own
//! core of one simulated pod. A [`Schedule`] is either written by hand
//! or generated from a 64-bit seed ([`Schedule::generate`]), and the
//! driver ([`run`]) executes it step by step on a single OS thread —
//! so every run of the same `(config, schedule, faults)` triple
//! performs the identical sequence of memory operations and returns
//! the identical [`RunReport::fingerprint`].
//!
//! Sub-operation granularity comes from [`crash::point`] labels:
//! [`Step::Crash`] arms a [`CrashPlan`] (e.g. "crash host 2 at
//! `slab::push_global::after_cas`, third encounter") and drives a
//! churn workload into it; the host's thread dies mid-operation,
//! losing its simulated cache, and a later [`Step::Recover`] adopts it
//! from another host. Pod-level misbehaviour (dropped flushes, mCAS
//! contention, …) is scripted separately as a list of
//! [`FaultRule`]s armed before the run.
//!
//! The driver is the substrate for the schedule-exploration harness in
//! [`crate::explore`], which randomizes seeds, checks full recovery and
//! the whole-heap audit ([`cxl_core::audit::census`]) after every run,
//! and shrinks failing schedules to minimal reproducers.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::liveness::{registry, LivenessDetector};
use cxl_core::{
    AllocError, AttachOptions, Cxlalloc, OffsetPtr, RecoveryReport, ThreadHandle, ThreadId,
};
use cxl_pod::fault::FaultRule;
use cxl_pod::{CoreId, FabricConfig, HwccMode, Pod, PodConfig, SimMemory};
use rand::{Rng, SeedableRng};

/// One step of a schedule, executed atomically (at operation
/// granularity) by the driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Host allocates `size` bytes and keeps the pointer. Skipped when
    /// the host is crashed or its live set is at capacity; an
    /// out-of-memory result is recorded, not fatal.
    Alloc {
        /// Acting host.
        host: usize,
        /// Request size in bytes.
        size: usize,
    },
    /// Host frees the `index % live.len()`-th pointer of its live set.
    /// Skipped when the host is crashed or holds nothing.
    Dealloc {
        /// Acting host.
        host: usize,
        /// Index into the host's live set (reduced modulo its length).
        index: usize,
    },
    /// Host runs one huge-heap cleanup pass.
    Cleanup {
        /// Acting host.
        host: usize,
    },
    /// Host writes back and drops its entire simulated cache (a
    /// quiesce point).
    FlushCache {
        /// Acting host.
        host: usize,
    },
    /// Host crashes at the named [`crash::point`] label: a churn
    /// workload runs with a [`CrashPlan`] armed, and if the point is
    /// reached the host's thread dies there (its simulated cache is
    /// discarded). If the workload never passes the point the step
    /// degrades to plain churn.
    Crash {
        /// Acting host.
        host: usize,
        /// Crash-point label: one of [`crash::known_points`], or the
        /// run fails at this step.
        at: &'static str,
        /// Encounters of the label to let pass before dying.
        skip: u32,
    },
    /// `via` adopts crashed host `host`: recovery of the interrupted
    /// operation, registry takeover, and reconstruction of the
    /// volatile huge-heap state. Skipped when `host` is not crashed;
    /// if `via` is itself crashed, the lowest live host stands in.
    Recover {
        /// Crashed host to adopt.
        host: usize,
        /// Host performing the adoption.
        via: usize,
    },
    /// Host dies *silently*: its thread is gone (handle dropped, cache
    /// lost) but — unlike [`Step::Crash`] — nothing flips its registry
    /// slot, which stays LIVE until some survivor's
    /// [`Step::DetectorTick`] notices the stale lease. This is the
    /// failure mode the liveness layer exists for.
    StopHeartbeat {
        /// Acting host.
        host: usize,
    },
    /// Host runs one tick of its [`LivenessDetector`], flipping
    /// any lease-expired slot LIVE→DEAD, then races to adopt every
    /// handle-less host whose slot is DEAD (self-healing).
    DetectorTick {
        /// Acting host.
        host: usize,
    },
    /// Arms a persistent device outage: the next `pairs` mCAS pairs
    /// anywhere on the NMP device bounce with contention results,
    /// exercising bounded backoff and (past the breaker threshold) the
    /// software-fallback CAS path. Only meaningful in
    /// [`HwccMode::None`]; a no-op otherwise.
    DeviceDegrade {
        /// Acting host (provenance only; the outage is device-wide).
        host: usize,
        /// Pairs to bounce.
        pairs: u32,
    },
}

impl Step {
    /// The host this step acts on.
    pub fn host(&self) -> usize {
        match *self {
            Step::Alloc { host, .. }
            | Step::Dealloc { host, .. }
            | Step::Cleanup { host }
            | Step::FlushCache { host }
            | Step::Crash { host, .. }
            | Step::Recover { host, .. }
            | Step::StopHeartbeat { host }
            | Step::DetectorTick { host }
            | Step::DeviceDegrade { host, .. } => host,
        }
    }
}

/// A deterministic schedule: a seed (provenance + replay handle) and
/// the explicit step list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// The seed this schedule was generated from (0 for hand-written
    /// schedules).
    pub seed: u64,
    /// Number of hosts the schedule addresses.
    pub hosts: usize,
    /// The steps, executed in order.
    pub steps: Vec<Step>,
}

/// A [`Step`] variant without its fields. A generator mix lists kinds
/// with the end of each one's range of rolls in `0..100`; a kind's range
/// starts where the previous one's ends.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Alloc,
    Dealloc,
    Cleanup,
    FlushCache,
    Crash,
    Recover,
    StopHeartbeat,
    DetectorTick,
    DeviceDegrade,
}

/// [`Schedule::generate`]'s mix: churn, crashes and recoveries.
const CLASSIC_MIX: [(Kind, u32); 6] = [
    (Kind::Alloc, 45),
    (Kind::Dealloc, 72),
    (Kind::Cleanup, 78),
    (Kind::FlushCache, 84),
    (Kind::Crash, 94),
    (Kind::Recover, 100),
];

/// [`Schedule::generate_liveness`]'s mix: the classic kinds, thinner,
/// plus hangs, detector ticks and device outages.
const LIVENESS_MIX: [(Kind, u32); 9] = [
    (Kind::Alloc, 39),
    (Kind::Dealloc, 60),
    (Kind::Cleanup, 64),
    (Kind::FlushCache, 68),
    (Kind::Crash, 74),
    (Kind::Recover, 80),
    (Kind::StopHeartbeat, 86),
    (Kind::DetectorTick, 96),
    (Kind::DeviceDegrade, 100),
];

impl Schedule {
    /// Generates the canonical random schedule for `seed`: `len` steps
    /// over `hosts` hosts, mixing allocation churn, crashes at random
    /// [`crash::point`] labels, and recoveries. The same seed always
    /// yields the byte-identical schedule.
    pub fn generate(seed: u64, hosts: usize, len: usize) -> Schedule {
        Self::generate_from(&CLASSIC_MIX, seed, hosts, len)
    }

    /// Generates the canonical *liveness* schedule for `seed`: the
    /// classic churn/crash mix of [`Schedule::generate`] plus silent
    /// host hangs ([`Step::StopHeartbeat`]), detector ticks
    /// ([`Step::DetectorTick`]), and device outages
    /// ([`Step::DeviceDegrade`]). A separate mix, so existing seeds of
    /// `generate` replay byte-identically.
    pub fn generate_liveness(seed: u64, hosts: usize, len: usize) -> Schedule {
        Self::generate_from(&LIVENESS_MIX, seed, hosts, len)
    }

    /// The one generator body: per step, draw the host, then a roll in
    /// `0..100` that picks a kind from `mix`, then the kind's own fields.
    fn generate_from(mix: &[(Kind, u32)], seed: u64, hosts: usize, len: usize) -> Schedule {
        assert!(hosts > 0, "a schedule needs at least one host");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let slab_points = cxl_core::slab::CRASH_POINTS;
        let huge_points = cxl_core::huge::CRASH_POINTS;
        let steps = (0..len)
            .map(|_| {
                let host = rng.gen_range(0..hosts);
                let roll = rng.gen_range(0..100u32);
                let &(kind, _) = mix
                    .iter()
                    .find(|&&(_, end)| roll < end)
                    .expect("a mix's last kind ends at 100");
                match kind {
                    Kind::Alloc => Step::Alloc {
                        host,
                        size: Self::pick_size(&mut rng),
                    },
                    Kind::Dealloc => Step::Dealloc {
                        host,
                        index: rng.gen_range(0..1024usize),
                    },
                    Kind::Cleanup => Step::Cleanup { host },
                    Kind::FlushCache => Step::FlushCache { host },
                    Kind::Crash => {
                        let at = if rng.gen_range(0..4u32) == 0 {
                            huge_points[rng.gen_range(0..huge_points.len())]
                        } else {
                            slab_points[rng.gen_range(0..slab_points.len())]
                        };
                        Step::Crash {
                            host,
                            at,
                            skip: rng.gen_range(0..6u32),
                        }
                    }
                    Kind::Recover => Step::Recover {
                        host,
                        via: rng.gen_range(0..hosts),
                    },
                    Kind::StopHeartbeat => Step::StopHeartbeat { host },
                    Kind::DetectorTick => Step::DetectorTick { host },
                    Kind::DeviceDegrade => Step::DeviceDegrade {
                        host,
                        pairs: rng.gen_range(8..=24u32),
                    },
                }
            })
            .collect();
        Schedule { seed, hosts, steps }
    }

    /// Request-size distribution: mostly small blocks, some large, the
    /// occasional huge mapping.
    fn pick_size(rng: &mut rand::rngs::StdRng) -> usize {
        match rng.gen_range(0..100u32) {
            0..=69 => rng.gen_range(8..=1024usize),
            70..=94 => rng.gen_range(2048..=8192usize),
            _ => rng.gen_range(1..=2usize) << 20,
        }
    }
}

/// Driver configuration: pod shape and per-host limits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimConfig {
    /// Number of simulated hosts (each one registered thread on its
    /// own core of one shared pod).
    pub hosts: usize,
    /// Coherence mode of the simulated pod.
    pub mode: HwccMode,
    /// Per-host cap on simultaneously live allocations (keeps random
    /// schedules inside the test pod's capacity).
    pub live_cap: usize,
    /// Consecutive [`Step::DetectorTick`]s (of one host's detector)
    /// without a lease renewal before a LIVE slot is declared dead.
    pub lease_expiry_ticks: u32,
    /// Remote-free batch width passed to [`AttachOptions`]; 1 (the
    /// default) keeps the paper's eager per-free publish.
    pub remote_free_batch: u32,
    /// Fabric contention model for the pod ([`cxl_pod::fabric`]):
    /// `None` (the default) builds the pod with a disabled fabric,
    /// keeping every classic schedule cost-identical to pre-fabric
    /// builds. Fabric delays never reach the schedule fingerprint
    /// (which hashes outcomes and offsets, not latencies), so a
    /// congested run's *structural* determinism is checked against the
    /// same pins — its *cost* determinism is pinned separately via the
    /// congested trace-stream fingerprint.
    pub fabric: Option<FabricConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            hosts: 2,
            mode: HwccMode::Limited,
            live_cap: 48,
            lease_expiry_ticks: 3,
            remote_free_batch: 1,
            fabric: None,
        }
    }
}

impl SimConfig {
    /// A fresh simulated pod of this configuration's mode and fabric:
    /// the pod [`run`] builds, for callers of [`run_on`] that arm
    /// observers on it first.
    pub fn pod(&self) -> Pod {
        let config = PodConfig {
            small_max_slabs: 256,
            huge_capacity: 16 << 20,
            ..PodConfig::small_for_tests()
        };
        match self.fabric {
            Some(fabric) => Pod::with_simulation_fabric(config, self.mode, fabric),
            None => Pod::with_simulation(config, self.mode),
        }
        .expect("test pod config must be valid")
    }
}

/// What a completed run did, plus its determinism fingerprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunReport {
    /// FNV-1a hash over every step outcome and allocated offset. Two
    /// runs of the same `(config, schedule, faults)` triple produce the
    /// same fingerprint; use it to assert byte-identical replay.
    pub fingerprint: u64,
    /// Steps executed (always the schedule length).
    pub steps: usize,
    /// Successful allocations (schedule steps only, not crash churn).
    pub allocs: u64,
    /// Successful deallocations (schedule steps only).
    pub deallocs: u64,
    /// Crash steps whose crash point actually fired.
    pub crashes_fired: u64,
    /// Crash steps whose workload never reached the point.
    pub crashes_missed: u64,
    /// Adoptions performed (in-schedule and end-of-run).
    pub recoveries: u64,
    /// Private lists those adoptions' recoveries sanitized
    /// ([`RecoveryReport::lists_walked`]),
    /// summed. Not folded into the fingerprint.
    pub lists_walked: u64,
    /// Of those, lists that needed a repair
    /// ([`RecoveryReport::lists_repaired`]),
    /// summed. Not folded into the fingerprint.
    pub lists_repaired: u64,
    /// Hosts that silently stopped heartbeating ([`Step::StopHeartbeat`]
    /// on a live host).
    pub hangs: u64,
    /// Threads declared dead by detector ticks (lease expiry).
    pub detections: u64,
    /// Device outages armed ([`Step::DeviceDegrade`]).
    pub degrades: u64,
    /// Faults the pod injector reported injecting during the run.
    pub faults_injected: u64,
}

impl RunReport {
    /// Counts one adoption and its recovery's list walk.
    fn note_recovery(&mut self, rep: &RecoveryReport) {
        self.recoveries += 1;
        self.lists_walked += u64::from(rep.lists_walked);
        self.lists_repaired += u64::from(rep.lists_repaired);
    }
}

/// Why a run failed: the failing step (if attributable) and the
/// violated property.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleFailure {
    /// Index of the failing step, or `None` for end-of-run validation
    /// failures.
    pub step: Option<usize>,
    /// Description of the failure.
    pub message: String,
}

impl std::fmt::Display for ScheduleFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.step {
            Some(i) => write!(f, "step {i}: {}", self.message),
            None => write!(f, "end-of-run: {}", self.message),
        }
    }
}

/// FNV-1a accumulator for the replay fingerprint.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn mix(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn tag(&mut self, tag: &str) {
        self.bytes(tag.as_bytes());
    }
}

/// One simulated host: its process's heap handle, its registered
/// thread (absent while crashed or hung), the allocations it holds,
/// and its private liveness-detector state.
struct Host {
    heap: Cxlalloc,
    handle: Option<ThreadHandle>,
    tid: ThreadId,
    live: Vec<OffsetPtr>,
    /// Set by [`Step::StopHeartbeat`]: the thread is gone but its
    /// registry slot is still LIVE until a detector (or end-of-run
    /// cleanup) declares it dead.
    hung: bool,
    detector: LivenessDetector,
}

/// Runs `schedule` with `faults` armed on a fresh pod, then performs
/// full end-of-run validation: every crashed host is recovered and
/// adopted, all remaining allocations are freed, caches are quiesced,
/// and the whole-heap audit ([`Cxlalloc::check_invariants`]) must pass.
///
/// # Errors
///
/// Returns a [`ScheduleFailure`] naming the first violated property:
/// a [`Step::Crash`] label that is not a compiled crash point, an
/// allocator error that cannot occur in a correct heap (wild or double
/// free), an allocator panic, a failed recovery, or an invariant
/// violation at the end.
///
/// # Panics
///
/// Panics if `schedule.hosts` exceeds the pod's thread capacity.
///
/// # Examples
///
/// Replay a hand-written two-host schedule with a scripted crash; the
/// report's fingerprint pins the run for byte-identical replay:
///
/// ```
/// use cxl_drive::sched::{self, Schedule, SimConfig, Step};
///
/// let schedule = Schedule {
///     seed: 0, // hand-written, not generated
///     hosts: 2,
///     steps: vec![
///         Step::Alloc { host: 0, size: 64 },
///         Step::Alloc { host: 1, size: 128 },
///         Step::Crash { host: 1, at: "slab::push_global::after_cas", skip: 0 },
///         Step::Recover { host: 1, via: 0 },
///     ],
/// };
/// let config = SimConfig::default();
/// let report = sched::run(&config, &schedule, &[])?;
/// assert_eq!(report.recoveries, 1);
/// let replay = sched::run(&config, &schedule, &[])?;
/// assert_eq!(report.fingerprint, replay.fingerprint);
/// # Ok::<(), cxl_drive::sched::ScheduleFailure>(())
/// ```
pub fn run(
    config: &SimConfig,
    schedule: &Schedule,
    faults: &[FaultRule],
) -> Result<RunReport, ScheduleFailure> {
    run_on(&config.pod(), config, schedule, faults)
}

/// [`run`] over a caller-built simulated pod: lets the caller arm
/// backend observers before the run — notably the [`cxl_pod::trace`]
/// tracer, whose replay determinism is tested this way — or inspect
/// backend state afterwards. The traced window ends before the
/// end-of-run audit: after the last quiesce, the pod's tracer is
/// disarmed, so the audit's own accesses are counted in the pod's
/// stats but never recorded or attributed.
///
/// # Errors
///
/// Same as [`run`].
///
/// # Panics
///
/// Panics if `pod` is not simulation-backed or too small for
/// `schedule.hosts`.
pub fn run_on(
    pod: &Pod,
    config: &SimConfig,
    schedule: &Schedule,
    faults: &[FaultRule],
) -> Result<RunReport, ScheduleFailure> {
    let known = crash::known_points();
    for (i, step) in schedule.steps.iter().enumerate() {
        if let Step::Crash { at, .. } = *step {
            if !known.values().any(|points| points.contains(&at)) {
                return Err(ScheduleFailure {
                    step: Some(i),
                    message: format!("no crash point is labelled {at:?}"),
                });
            }
        }
    }
    if !faults.is_empty() {
        let sim = pod
            .memory()
            .as_any()
            .downcast_ref::<SimMemory>()
            .expect("simulated pods back schedules");
        for rule in faults {
            sim.faults().push(*rule);
        }
    }

    let mut hosts: Vec<Host> = (0..schedule.hosts)
        .map(|_| {
            let heap = Cxlalloc::attach(
                pod.spawn_process(),
                AttachOptions {
                    unsized_limit: 1,
                    remote_free_batch: config.remote_free_batch,
                    ..AttachOptions::default()
                },
            )
            .expect("attach cannot fail on a fresh pod");
            let handle = heap.register_thread().expect("schedule hosts fit the pod");
            let tid = handle.tid();
            Host {
                heap,
                handle: Some(handle),
                tid,
                live: Vec::new(),
                hung: false,
                detector: LivenessDetector::new(
                    pod.layout().max_threads,
                    config.lease_expiry_ticks,
                ),
            }
        })
        .collect();

    let mut fp = Fingerprint::new();
    let mut report = RunReport::default();

    for (i, step) in schedule.steps.iter().enumerate() {
        fp.mix(i as u64);
        // Every live host renews its lease before each step — the
        // deterministic analogue of a periodic heartbeat timer. Hosts
        // without a handle (crashed or hung) silently miss renewals and
        // age toward lease expiry.
        guard(|| {
            for (h, host) in hosts.iter().enumerate() {
                if let Some(handle) = host.handle.as_ref() {
                    handle
                        .heartbeat()
                        .map_err(|e| format!("heartbeat of host {h}: {e}"))?;
                }
            }
            exec_step(config, &mut hosts, *step, &mut fp, &mut report)
        })
        .and_then(|outcome| outcome)
        .map_err(|message| ScheduleFailure {
            step: Some(i),
            message,
        })?;
        report.steps += 1;
    }

    // End of run: recover every crashed host, drain all live
    // allocations, quiesce, and validate.
    finish(&mut hosts, &mut fp, &mut report).map_err(|message| ScheduleFailure {
        step: None,
        message,
    })?;

    report.faults_injected = pod.memory().stats().faults_injected;
    fp.mix(report.faults_injected);
    report.fingerprint = fp.0;
    Ok(report)
}

/// Converts a non-crash panic inside `f` into an error message (crash
/// signals never escape `exec_step`, so anything caught here is an
/// allocator bug).
fn guard<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        let text = payload.downcast_ref::<&str>().copied();
        match text.or_else(|| payload.downcast_ref::<String>().map(String::as_str)) {
            Some(s) => format!("allocator panicked: {s}"),
            None => "allocator panicked".to_string(),
        }
    })
}

fn exec_step(
    config: &SimConfig,
    hosts: &mut [Host],
    step: Step,
    fp: &mut Fingerprint,
    report: &mut RunReport,
) -> Result<(), String> {
    let host_index = step.host() % hosts.len();
    match step {
        Step::Alloc { size, .. } => {
            let host = &mut hosts[host_index];
            let Some(handle) = host.handle.as_mut() else {
                fp.tag("dead");
                return Ok(());
            };
            if host.live.len() >= config.live_cap {
                fp.tag("full");
                return Ok(());
            }
            match handle.alloc(size) {
                Ok(ptr) => {
                    fp.tag("alloc");
                    fp.mix(ptr.offset());
                    host.live.push(ptr);
                    report.allocs += 1;
                }
                Err(AllocError::OutOfMemory { .. }) => fp.tag("oom"),
                Err(e) => return Err(format!("alloc({size}) on host {host_index}: {e}")),
            }
        }
        Step::Dealloc { index, .. } => {
            let host = &mut hosts[host_index];
            let Some(handle) = host.handle.as_mut() else {
                fp.tag("dead");
                return Ok(());
            };
            if host.live.is_empty() {
                fp.tag("empty");
                return Ok(());
            }
            let ptr = host.live.swap_remove(index % host.live.len());
            handle
                .dealloc(ptr)
                .map_err(|e| format!("dealloc({:#x}) on host {host_index}: {e}", ptr.offset()))?;
            fp.tag("free");
            fp.mix(ptr.offset());
            report.deallocs += 1;
        }
        Step::Cleanup { .. } => {
            let host = &mut hosts[host_index];
            if let Some(handle) = host.handle.as_mut() {
                let reclaimed = handle.cleanup();
                fp.tag("cleanup");
                fp.mix(reclaimed as u64);
            } else {
                fp.tag("dead");
            }
        }
        Step::FlushCache { .. } => {
            let host = &hosts[host_index];
            if let Some(handle) = host.handle.as_ref() {
                handle.flush_cache();
                fp.tag("flush");
            } else {
                fp.tag("dead");
            }
        }
        Step::Crash { at, skip, .. } => {
            let host = &mut hosts[host_index];
            let Some(mut handle) = host.handle.take() else {
                fp.tag("dead");
                return Ok(());
            };
            crash::arm(CrashPlan { at, skip });
            // One op scope for the whole churn (thousands of calls on
            // one core), opened inside `catch` so that the unwinding crash
            // releases it: `mark_crashed` below must run outside any.
            let mem = host.heap.process().memory();
            let churned = crash::catch(std::panic::AssertUnwindSafe(|| {
                let _scope = mem.op_scope(handle.core());
                churn(&mut handle)
            }));
            crash::disarm();
            match churned {
                Err(signal) => {
                    // The thread died inside the allocator: discard its
                    // handle, lose its cache, mark it dead.
                    fp.tag("crash");
                    fp.tag(signal.at);
                    drop(handle);
                    host.heap
                        .mark_crashed(host.tid)
                        .map_err(|e| format!("mark_crashed host {host_index}: {e}"))?;
                    // The crash lost the host's cache, so allocations
                    // whose metadata was never flushed are durably
                    // rolled back by recovery. Tracked pointers can no
                    // longer be assumed allocated (a rolled-back block
                    // may be handed out again); forget them.
                    fp.mix(host.live.len() as u64);
                    host.live.clear();
                    report.crashes_fired += 1;
                }
                Ok(churn_result) => {
                    // The workload never reached the point: the host
                    // survives (plain churn).
                    host.handle = Some(handle);
                    churn_result?;
                    fp.tag("nocrash");
                    report.crashes_missed += 1;
                }
            }
        }
        Step::Recover { via, .. } => {
            let host_tid = {
                let host = &hosts[host_index];
                if host.handle.is_some() {
                    fp.tag("alive");
                    return Ok(());
                }
                if host.hung {
                    // The host died silently and no detector has flipped
                    // its slot yet: it is not adoptable (registry still
                    // LIVE). A DetectorTick has to find it first.
                    let mem = host.heap.process().memory();
                    let state = mem.load_u64(
                        CoreId(host.tid.slot() as u16),
                        mem.layout().registry_at(host.tid.slot()),
                    );
                    if state == registry::LIVE {
                        fp.tag("undetected");
                        return Ok(());
                    }
                }
                host.tid
            };
            // Adopt through `via` if it is live, else the lowest live
            // host; with no live host left, end-of-run recovery will
            // handle it.
            let via_index = std::iter::once(via % hosts.len())
                .chain(0..hosts.len())
                .find(|&i| i != host_index && hosts[i].handle.is_some());
            let Some(via_index) = via_index else {
                fp.tag("norescuer");
                return Ok(());
            };
            let via_core = hosts[via_index].handle.as_ref().expect("live").core();
            let (handle, rep) = hosts[via_index]
                .heap
                .adopt(host_tid, via_core)
                .map_err(|e| format!("adopt host {host_index} via {via_index}: {e}"))?;
            fp.tag("recover");
            fp.tag(rep.outcome);
            hosts[host_index].handle = Some(handle);
            hosts[host_index].hung = false;
            report.note_recovery(&rep);
        }
        Step::StopHeartbeat { .. } => {
            let host = &mut hosts[host_index];
            let Some(handle) = host.handle.take() else {
                fp.tag("dead");
                return Ok(());
            };
            // The host dies silently: thread and cache are gone, but
            // nothing flips its registry slot — only a detector's lease
            // scan can discover this.
            drop(handle);
            host.heap.discard_dead_cache(host.tid);
            host.hung = true;
            fp.tag("hang");
            // Same reasoning as a crash: unflushed metadata will be
            // rolled back by eventual recovery, so tracked pointers can
            // no longer be assumed allocated.
            fp.mix(host.live.len() as u64);
            host.live.clear();
            report.hangs += 1;
        }
        Step::DetectorTick { .. } => {
            let Some(via_core) = hosts[host_index].handle.as_ref().map(|h| h.core()) else {
                fp.tag("dead");
                return Ok(());
            };
            let tick = {
                let host = &mut hosts[host_index];
                let heap = host.heap.clone();
                host.detector
                    .tick(&heap, via_core)
                    .map_err(|e| format!("detector tick on host {host_index}: {e}"))?
            };
            fp.tag("tick");
            fp.mix(tick.expired.len() as u64);
            for tid in &tick.expired {
                fp.mix(tid.raw() as u64);
            }
            report.detections += tick.expired.len() as u64;
            // Self-healing: the ticking host races to adopt every
            // handle-less host whose slot is now DEAD (whether this
            // tick flipped it or an earlier one did).
            let heap = hosts[host_index].heap.clone();
            for (j, other) in hosts.iter_mut().enumerate() {
                if j == host_index || other.handle.is_some() {
                    continue;
                }
                let tid = other.tid;
                let mem = heap.process().memory();
                if mem.load_u64(via_core, mem.layout().registry_at(tid.slot()))
                    != registry::DEAD
                {
                    continue;
                }
                match heap.adopt(tid, via_core) {
                    Ok((handle, rep)) => {
                        fp.tag("adopt");
                        fp.tag(rep.outcome);
                        other.handle = Some(handle);
                        other.hung = false;
                        report.note_recovery(&rep);
                    }
                    // Impossible single-threaded, but the typed loser
                    // path must not fail the run.
                    Err(AllocError::AdoptionRaced { .. }) => fp.tag("raced"),
                    Err(e) => return Err(format!("adopt of host {j} after tick: {e}")),
                }
            }
        }
        Step::DeviceDegrade { pairs, .. } => {
            let host = &hosts[host_index];
            let sim = host
                .heap
                .process()
                .memory()
                .as_any()
                .downcast_ref::<SimMemory>()
                .expect("simulated pods back schedules");
            sim.faults()
                .push(cxl_pod::fault::FaultRule::device_outage(pairs as u64));
            fp.tag("degrade");
            fp.mix(pairs as u64);
            report.degrades += 1;
        }
    }
    Ok(())
}

/// The workload a [`Step::Crash`] drives into its crash point: local
/// churn with remote-ish pressure (tight unsized limit pushes slabs to
/// the global list) plus one huge alloc/free/cleanup round, so every
/// `CRASH_POINTS` label is reachable.
fn churn(handle: &mut ThreadHandle) -> Result<(), String> {
    let mut scratch = Vec::with_capacity(2560);
    // A same-size batch large enough to fill (and detach/unlink) several
    // whole slabs, so the slab-full paths are reachable and — with
    // empty-slab hysteresis retaining the last emptied slab per class —
    // multiple emptied slabs still reach the unsized list and overflow
    // it (tight limit), keeping the `push_global` labels live at the
    // deeper skip counts schedules ask for.
    for _ in 0..2400usize {
        match handle.alloc(64) {
            Ok(p) => scratch.push(p),
            Err(AllocError::OutOfMemory { .. }) => break,
            Err(e) => return Err(format!("churn alloc: {e}")),
        }
    }
    for i in 0..160usize {
        match handle.alloc(8 + (i * 13) % 1000) {
            Ok(p) => scratch.push(p),
            Err(AllocError::OutOfMemory { .. }) => break,
            Err(e) => return Err(format!("churn alloc: {e}")),
        }
    }
    for p in scratch {
        handle.dealloc(p).map_err(|e| format!("churn dealloc: {e}"))?;
    }
    // Everything is free: surplus slabs overflowed to the global list
    // (tight unsized limit). A second wave — deep enough to outgrow the
    // retained slab plus the unsized list — pops them back off it.
    let mut again = Vec::with_capacity(2560);
    for _ in 0..2400usize {
        match handle.alloc(64) {
            Ok(p) => again.push(p),
            Err(AllocError::OutOfMemory { .. }) => break,
            Err(e) => return Err(format!("churn alloc: {e}")),
        }
    }
    for p in again {
        handle.dealloc(p).map_err(|e| format!("churn dealloc: {e}"))?;
    }
    // A detectable round: the allocator delivers the pointer into a heap
    // cell the application names, exercising the delivery crash window
    // (`slab::alloc_block::after_deliver`).
    match handle.alloc(8) {
        Ok(cell) => {
            let p = handle
                .alloc_detectable(64, cell)
                .map_err(|e| format!("churn detectable alloc: {e}"))?;
            handle
                .dealloc(p)
                .map_err(|e| format!("churn dealloc: {e}"))?;
            handle
                .dealloc(cell)
                .map_err(|e| format!("churn dealloc: {e}"))?;
        }
        Err(AllocError::OutOfMemory { .. }) => {}
        Err(e) => return Err(format!("churn alloc: {e}")),
    }
    match handle.alloc(1 << 20) {
        Ok(p) => {
            handle
                .dealloc(p)
                .map_err(|e| format!("churn huge dealloc: {e}"))?;
            handle.cleanup();
        }
        Err(AllocError::OutOfMemory { .. }) => {}
        Err(e) => return Err(format!("churn huge alloc: {e}")),
    }
    Ok(())
}

/// End-of-run validation: adopt every crashed host, free everything,
/// quiesce all caches, and check every heap invariant.
fn finish(hosts: &mut [Host], fp: &mut Fingerprint, report: &mut RunReport) -> Result<(), String> {
    // Hung hosts whose lease never expired in-schedule are still LIVE in
    // the registry: declare them dead so adoption below can proceed —
    // the cleanup a detector would eventually have performed.
    for (i, host) in hosts.iter_mut().enumerate() {
        if !host.hung || host.handle.is_some() {
            continue;
        }
        let flipped = guard(|| host.heap.mark_crashed(host.tid))
            .map_err(|m| format!("declaring hung host {i} dead panicked: {m}"))?
            .map_err(|e| format!("declaring hung host {i} dead: {e}"))?;
        fp.tag("final-declare");
        fp.mix(flipped as u64);
        host.hung = false;
    }
    for (i, host) in hosts.iter_mut().enumerate() {
        if host.handle.is_some() {
            continue;
        }
        let tid = host.tid;
        // Adopt via the host's own (discarded, therefore clean) core:
        // works even when every host crashed.
        let via = CoreId(tid.slot() as u16);
        let (handle, rep) = guard(|| host.heap.adopt(tid, via))
            .map_err(|m| format!("recovery of host {i} panicked: {m}"))?
            .map_err(|e| format!("end-of-run recovery of host {i}: {e}"))?;
        fp.tag("final-recover");
        fp.tag(rep.outcome);
        host.handle = Some(handle);
        report.note_recovery(&rep);
    }
    for (i, host) in hosts.iter_mut().enumerate() {
        let handle = host.handle.as_mut().expect("all hosts recovered");
        for ptr in host.live.drain(..) {
            guard(|| handle.dealloc(ptr))
                .map_err(|m| format!("draining host {i} panicked: {m}"))?
                .map_err(|e| format!("draining host {i}, ptr {:#x}: {e}", ptr.offset()))?;
        }
        handle.cleanup();
        handle.flush_local_caches();
    }
    // Quiesce every simulated cache and close the traced window, then
    // validate from host 0's core.
    for host in hosts.iter() {
        host.handle.as_ref().expect("recovered").flush_cache();
    }
    let checker = hosts[0].handle.as_ref().expect("recovered");
    if let Some(tracer) = checker.heap().process().memory().tracer() {
        tracer.disarm();
    }
    let core = checker.core();
    guard(|| checker.heap().check_invariants(core))
        .map_err(|m| format!("invariant checker panicked: {m}"))?
        .map_err(|e| format!("invariant violation: {e}"))?;
    fp.tag("ok");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = Schedule::generate(42, 3, 200);
        let b = Schedule::generate(42, 3, 200);
        assert_eq!(a, b);
        let c = Schedule::generate(43, 3, 200);
        assert_ne!(a.steps, c.steps);
    }

    #[test]
    fn generation_uses_all_step_kinds() {
        let s = Schedule::generate(7, 2, 500);
        let has = |f: fn(&Step) -> bool| s.steps.iter().any(f);
        assert!(has(|s| matches!(s, Step::Alloc { .. })));
        assert!(has(|s| matches!(s, Step::Dealloc { .. })));
        assert!(has(|s| matches!(s, Step::Cleanup { .. })));
        assert!(has(|s| matches!(s, Step::FlushCache { .. })));
        assert!(has(|s| matches!(s, Step::Crash { .. })));
        assert!(has(|s| matches!(s, Step::Recover { .. })));
    }

    #[test]
    fn run_is_replay_identical() {
        let config = SimConfig::default();
        let schedule = Schedule::generate(0xDECAF, 2, 60);
        let a = run(&config, &schedule, &[]).unwrap();
        let b = run(&config, &schedule, &[]).unwrap();
        assert_eq!(a, b, "same schedule must replay byte-identically");
        assert!(a.allocs > 0);
    }

    #[test]
    fn explicit_crash_and_cross_host_recovery() {
        // The canonical example: crash host 1 at a slab push,
        // then recover it on host 0.
        let config = SimConfig::default();
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Alloc { host: 0, size: 64 },
                Step::Crash {
                    host: 1,
                    at: "slab::push_global::after_cas",
                    skip: 0,
                },
                Step::Alloc { host: 0, size: 128 },
                Step::Recover { host: 1, via: 0 },
                Step::Alloc { host: 1, size: 64 },
                Step::Dealloc { host: 1, index: 0 },
            ],
        };
        let report = run(&config, &schedule, &[]).unwrap();
        assert_eq!(report.crashes_fired, 1);
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn crash_of_crashed_host_is_skipped() {
        let config = SimConfig::default();
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Crash {
                    host: 0,
                    at: "slab::alloc_block::after_log",
                    skip: 0,
                },
                Step::Crash {
                    host: 0,
                    at: "slab::alloc_block::after_log",
                    skip: 0,
                },
                Step::Alloc { host: 0, size: 64 },
            ],
        };
        let report = run(&config, &schedule, &[]).unwrap();
        assert_eq!(report.crashes_fired, 1);
        // End-of-run recovery adopted host 0.
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn misspelled_crash_label_fails_at_its_step() {
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Alloc { host: 0, size: 64 },
                Step::Crash {
                    host: 1,
                    at: "slab::push_global::aftr_cas",
                    skip: 0,
                },
            ],
        };
        let failure = run(&SimConfig::default(), &schedule, &[]).unwrap_err();
        assert_eq!(failure.step, Some(1));
        assert!(failure.message.contains("slab::push_global::aftr_cas"), "{failure}");
    }

    #[test]
    fn mcas_mode_runs_schedules() {
        let config = SimConfig {
            mode: HwccMode::None,
            ..SimConfig::default()
        };
        let schedule = Schedule::generate(99, 2, 40);
        run(&config, &schedule, &[]).unwrap();
    }

    #[test]
    fn liveness_generation_is_deterministic_and_complete() {
        let a = Schedule::generate_liveness(42, 3, 500);
        let b = Schedule::generate_liveness(42, 3, 500);
        assert_eq!(a, b);
        let has = |f: fn(&Step) -> bool| a.steps.iter().any(f);
        assert!(has(|s| matches!(s, Step::StopHeartbeat { .. })));
        assert!(has(|s| matches!(s, Step::DetectorTick { .. })));
        assert!(has(|s| matches!(s, Step::DeviceDegrade { .. })));
        assert!(has(|s| matches!(s, Step::Alloc { .. })));
        assert!(has(|s| matches!(s, Step::Crash { .. })));
    }

    #[test]
    fn classic_generation_unchanged_by_liveness_steps() {
        // PR-1 seeds must keep replaying byte-identically: the classic
        // profile may never emit liveness steps.
        let s = Schedule::generate(7, 2, 500);
        assert!(s.steps.iter().all(|s| !matches!(
            s,
            Step::StopHeartbeat { .. } | Step::DetectorTick { .. } | Step::DeviceDegrade { .. }
        )));
    }

    #[test]
    fn hung_host_is_detected_and_adopted() {
        let config = SimConfig {
            lease_expiry_ticks: 2,
            ..SimConfig::default()
        };
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Alloc { host: 1, size: 64 },
                Step::StopHeartbeat { host: 1 },
                // Tick 1 records host 1's (now frozen) lease; ticks 2–3
                // age it to the expiry budget; the flip and adoption
                // happen inside the third tick.
                Step::DetectorTick { host: 0 },
                Step::DetectorTick { host: 0 },
                Step::DetectorTick { host: 0 },
                // The adopted slot is live again and can allocate.
                Step::Alloc { host: 1, size: 128 },
                Step::Dealloc { host: 1, index: 0 },
            ],
        };
        let report = run(&config, &schedule, &[]).unwrap();
        assert_eq!(report.hangs, 1);
        assert_eq!(report.detections, 1, "the detector must flip the hung host");
        assert_eq!(report.recoveries, 1, "the ticking host must adopt it");
    }

    #[test]
    fn undetected_hang_is_cleaned_up_at_end_of_run() {
        let config = SimConfig::default();
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Alloc { host: 1, size: 64 },
                Step::StopHeartbeat { host: 1 },
                // An explicit Recover cannot adopt an undetected hang.
                Step::Recover { host: 1, via: 0 },
            ],
        };
        let report = run(&config, &schedule, &[]).unwrap();
        assert_eq!(report.hangs, 1);
        assert_eq!(report.detections, 0);
        // Only the end-of-run declare+adopt recovered it.
        assert_eq!(report.recoveries, 1);
    }

    #[test]
    fn device_degrade_completes_via_fallback() {
        let config = SimConfig {
            mode: HwccMode::None,
            lease_expiry_ticks: 2,
            ..SimConfig::default()
        };
        let schedule = Schedule {
            seed: 0,
            hosts: 2,
            steps: vec![
                Step::Alloc { host: 0, size: 64 },
                // 24 bounced pairs: far past the breaker threshold (8),
                // so the heartbeat CAS loop trips into fallback instead
                // of exhausting its 24-retry budget.
                Step::DeviceDegrade { host: 0, pairs: 24 },
                Step::Alloc { host: 1, size: 64 },
                Step::Alloc { host: 0, size: 256 },
                Step::Dealloc { host: 0, index: 0 },
                Step::DetectorTick { host: 0 },
            ],
        };
        let report = run(&config, &schedule, &[]).unwrap();
        assert_eq!(report.degrades, 1);
        assert!(report.faults_injected >= 8, "bounced pairs are injected faults");
    }

    #[test]
    fn liveness_run_is_replay_identical() {
        let config = SimConfig {
            mode: HwccMode::None,
            ..SimConfig::default()
        };
        let schedule = Schedule::generate_liveness(0xFEED, 2, 80);
        let a = run(&config, &schedule, &[]).unwrap();
        let b = run(&config, &schedule, &[]).unwrap();
        assert_eq!(a, b, "liveness schedules must replay byte-identically");
    }
}
