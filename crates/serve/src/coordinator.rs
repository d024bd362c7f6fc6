//! The serve coordinator: owns the shared segment, the worker fleet,
//! the chaos schedule, and the end-of-run crash audit.
//!
//! The coordinator creates the shared pod file, spawns N real OS
//! worker processes, each with its whole run on its command line,
//! starts and stops them through the control header's run-state word,
//! and — mid-run — throws the full scheduler repertoire at them. Each
//! [`Chaos`] kind is one signal, injected either from one seeded timed
//! schedule or op-exact by the victim itself
//! (`--self-kill/--self-drain/--self-stall INDEX:OPS`):
//!
//! - **`kill -9`** (`--kills`): the victim vanishes mid-traffic; a
//!   replacement, bound to the lease epoch the victim died with,
//!   detects the death by lease expiry and adopts the crashed thread
//!   slot.
//! - **SIGTERM drains** (`--drains`, rolling `--rolling N:PERIOD`): the
//!   victim finishes its in-flight op, flushes every buffer, freezes
//!   its lease, and exits
//!   [`DRAINED`](crate::worker::exit::DRAINED); the coordinator spawns a *fresh* replacement —
//!   no adoption, no recovery.
//! - **SIGSTOP stalls** (`--stalls`): the victim simply stops
//!   scheduling. The coordinator's watchdog notices the frozen lease
//!   counter, probes with SIGCONT (revival), and — if the worker stays
//!   wedged past the probe ladder — escalates to SIGKILL and lets the
//!   adoption machinery take over.
//!
//! Every one of those decisions is made by the sans-IO state machine
//! in `machine` (`Coordinator::step(now_ns, event) -> actions`); [`run`]
//! is the shell around it, the one poll loop that turns rings, exits,
//! lease words and the clock into events and actions into syscalls.
//!
//! When traffic stops and every child is reaped, the heap is quiescent
//! by construction, and the coordinator runs the zero-lost-blocks
//! audit: a full-heap [`census`](cxl_core::audit::census) must name
//! *exactly* the blocks the workers' ledgers name — and where
//! `--shared-pct` cross-process frees are in flight, the audit credits
//! each slab's remote-pending counter and the durable remote-free
//! buffer lines, so the books balance even when a kill lands mid-batch.
//! Every ledger op is one detectable allocator op, so nothing is left
//! in flight between processes for the audit or an adopter to repair.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use cxl_core::{AttachOptions, Cxlalloc, ThreadId};
use cxl_pod::{CoreId, Pod, PodConfig};

use crate::rpc::{self, status, ControlPlane, HIST_BUCKETS};
use crate::worker::{KeySplit, WorkerArgs};
use crate::{send_signal, Chaos};

mod machine;

use machine::{Action, Coordinator, Event};

/// A pod config sized for serving runs: plenty of small/large slabs,
/// a token huge heap (the serve workload never allocates huge).
pub fn serve_config() -> PodConfig {
    PodConfig {
        max_threads: 64,
        small_max_slabs: 2048,  // 64 MiB of small data
        large_max_slabs: 256,   // 128 MiB of large data
        huge_capacity: 16 << 20,
        huge_regions: 32,
        huge_descs_per_thread: 64,
        hazards_per_thread: 8,
        max_segment_bytes: 4 << 30,
    }
}

/// Parsed `serve run` arguments.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Shared segment file (created, and removed afterwards unless
    /// `keep_file`).
    pub file: PathBuf,
    /// Executable to spawn workers from (the serve binary itself).
    pub worker_exe: PathBuf,
    /// Pod configuration shared by every process.
    pub config: PodConfig,
    /// Worker count.
    pub workers: u32,
    /// Ledger cells (= key space) per worker.
    pub ledger_cap: u64,
    /// Traffic duration in seconds (ignored when `target_ops` > 0,
    /// where it bounds the total wait instead).
    pub secs: f64,
    /// Per-worker op target; 0 means "run for `secs`".
    pub target_ops: u64,
    /// Seed for op streams and every chaos schedule.
    pub seed: u64,
    /// Workload spec id (see [`crate::worker::spec_by_id`]).
    pub spec: u8,
    /// Worker heartbeat cadence in ops.
    pub hb_every: u64,
    /// Coordinator-scheduled `kill -9`s (time mode only).
    pub kills: u32,
    /// Coordinator-scheduled SIGTERM drains (time mode only).
    pub drains: u32,
    /// Coordinator-scheduled SIGSTOP stalls (time mode only); the
    /// watchdog's SIGCONT probe is the only thing that revives them.
    pub stalls: u32,
    /// Rolling restart: `N` SIGTERM drains, one every `PERIOD` seconds,
    /// round-robin over the slots (time mode only).
    pub rolling: Option<(u32, f64)>,
    /// Op-exact chaos, in flag order: `(kind, worker index, after ops)`.
    /// The worker raises the kind's signal on itself at the exact op
    /// count, so the event is replayable. Each fresh spawn of a slot
    /// arms the slot's next event of each kind.
    pub self_events: Vec<(Chaos, u32, u64)>,
    /// Watchdog: milliseconds of lease-counter silence before a RUNNING
    /// worker counts as stalled.
    pub stall_ms: u64,
    /// Watchdog: grace after a SIGCONT probe before the next rung of
    /// the ladder (doubles per probe).
    pub probe_grace_ms: u64,
    /// Watchdog: SIGCONT probes before escalating to SIGKILL. 0 means
    /// "escalate immediately" (steal-test mode).
    pub max_probes: u32,
    /// Percentage (0–100) of each worker's key range whose blocks peer
    /// workers free in place (the Zipf-hot head); 0 = partitioned.
    pub shared_pct: u8,
    /// Remote-free batch width workers attach with (> 1 exercises the
    /// durable `remote_buf` batching under crashes).
    pub remote_batch: u32,
    /// Zipf skew θ ∈ (0,1) workers overlay on their key streams: every
    /// op's key is re-drawn rank-Zipfian over the ledger (rank 0
    /// hottest), concentrating traffic — and peer frees — on the
    /// shared hot head. `None` keeps each spec's own distribution.
    pub shared_skew: Option<f64>,
    /// Soak mode: progress lines on stderr every few seconds.
    pub soak: bool,
    /// Spawn *two* replacements per crash and require exactly one
    /// adoption winner.
    pub race_adopt: bool,
    /// Write the JSON report here as well as returning it.
    pub json_out: Option<PathBuf>,
    /// Keep the segment file for post-mortems.
    pub keep_file: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            file: std::env::temp_dir().join(format!("cxl-serve-{}.seg", std::process::id())),
            worker_exe: std::env::current_exe().unwrap_or_else(|_| "serve".into()),
            config: serve_config(),
            workers: 4,
            ledger_cap: 2048,
            secs: 5.0,
            target_ops: 0,
            seed: 1,
            spec: 0,
            hb_every: 128,
            kills: 0,
            drains: 0,
            stalls: 0,
            rolling: None,
            self_events: Vec::new(),
            stall_ms: 2000,
            probe_grace_ms: 500,
            max_probes: 3,
            shared_pct: 0,
            remote_batch: 1,
            shared_skew: None,
            soak: false,
            race_adopt: false,
            json_out: None,
            keep_file: false,
        }
    }
}

impl RunArgs {
    /// Parses `--flag value` pairs over the defaults.
    ///
    /// # Errors
    ///
    /// A usage string naming the offending flag.
    pub fn parse(args: &[String]) -> Result<RunArgs, String> {
        let mut out = RunArgs::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val =
                || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--file" => out.file = PathBuf::from(val()?),
                "--workers" => out.workers = num(flag, &val()?)?,
                "--ledger-cap" => out.ledger_cap = num(flag, &val()?)?,
                "--secs" => out.secs = num(flag, &val()?)?,
                "--ops" => out.target_ops = num(flag, &val()?)?,
                "--seed" => out.seed = num(flag, &val()?)?,
                "--spec" => out.spec = num(flag, &val()?)?,
                "--hb-every" => out.hb_every = num(flag, &val()?)?,
                "--kills" => out.kills = num(flag, &val()?)?,
                "--drains" => out.drains = num(flag, &val()?)?,
                "--stalls" => out.stalls = num(flag, &val()?)?,
                "--rolling" => {
                    let v = val()?;
                    let (n, period) = v
                        .split_once(':')
                        .ok_or_else(|| format!("--rolling wants N:PERIOD, got {v:?}"))?;
                    out.rolling = Some((num(flag, n)?, num(flag, period)?));
                }
                "--self-kill" | "--self-drain" | "--self-stall" => {
                    let v = val()?;
                    let (idx, ops) = v
                        .split_once(':')
                        .ok_or_else(|| format!("{flag} wants INDEX:OPS, got {v:?}"))?;
                    let kind = flag["--self-".len()..].parse()?;
                    out.self_events.push((kind, num(flag, idx)?, num(flag, ops)?));
                }
                "--stall-ms" => out.stall_ms = num(flag, &val()?)?,
                "--probe-grace-ms" => out.probe_grace_ms = num(flag, &val()?)?,
                "--max-probes" => out.max_probes = num(flag, &val()?)?,
                "--shared-pct" => out.shared_pct = num(flag, &val()?)?,
                "--remote-batch" => out.remote_batch = num(flag, &val()?)?,
                "--shared-skew" => out.shared_skew = Some(num(flag, &val()?)?),
                "--soak" => {
                    out.secs = num(flag, &val()?)?;
                    out.soak = true;
                }
                "--race-adopt" => out.race_adopt = true,
                "--json" => out.json_out = Some(PathBuf::from(val()?)),
                "--keep-file" => out.keep_file = true,
                "--config" => out.config = crate::codec::parse_config(&val()?)?,
                other => return Err(format!("unknown run flag {other}")),
            }
        }
        out.validate()?;
        Ok(out)
    }

    /// Cross-flag validation shared by CLI and programmatic callers.
    ///
    /// # Errors
    ///
    /// A message naming the inconsistent flags.
    pub fn validate(&self) -> Result<(), String> {
        if self.workers == 0 || self.ledger_cap == 0 {
            return Err("--workers and --ledger-cap must be positive".into());
        }
        if self.target_ops > 0
            && (self.kills > 0 || self.drains > 0 || self.stalls > 0 || self.rolling.is_some())
        {
            return Err(
                "timed --kills/--drains/--stalls/--rolling need time mode; \
                 use --self-kill/--self-drain/--self-stall with --ops"
                    .into(),
            );
        }
        if let Some((n, period)) = self.rolling {
            if n == 0 || period <= 0.0 {
                return Err("--rolling wants N >= 1 and PERIOD > 0".into());
            }
        }
        if self.shared_pct > 100 {
            return Err("--shared-pct must be 0-100".into());
        }
        if let Some(theta) = self.shared_skew {
            if !(theta > 0.0 && theta < 1.0) {
                return Err("--shared-skew must be in (0, 1)".into());
            }
        }
        if let Some((kind, i, _)) = self.self_events.iter().find(|(_, i, _)| *i >= self.workers) {
            return Err(format!(
                "--self-{} index {i} >= --workers {}",
                kind.name(),
                self.workers
            ));
        }
        // Every drain permanently freezes a thread slot and its fresh
        // replacement registers a new one; budget against max_threads
        // (plus two spare slots).
        let planned_drains = self.drains as u64
            + self.rolling.map_or(0, |(n, _)| n as u64)
            + self.self_events.iter().filter(|(k, ..)| *k == Chaos::Drain).count() as u64;
        if self.workers as u64 + planned_drains + 2 > self.config.max_threads as u64 {
            return Err(format!(
                "{} workers + {planned_drains} drains (+2 spare slots) exceed \
                 max_threads {}",
                self.workers, self.config.max_threads
            ));
        }
        Ok(())
    }
}

fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad value {s:?}"))
}

/// The seed a given incarnation of a worker slot streams ops from.
/// Exposed so crash-audit tests can replay the exact op sequence.
pub fn incarnation_seed(base: u64, index: u32, incarnation: u32) -> u64 {
    base ^ (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ ((incarnation as u64) << 48)
}

/// Per-worker results in the final report.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker slot index.
    pub index: u32,
    /// Thread id serving the slot at the end (raw).
    pub tid: u16,
    /// Ops completed by the final incarnation.
    pub ops: u64,
    /// Blocks allocated across all incarnations.
    pub allocs: u64,
    /// Blocks freed across all incarnations.
    pub frees: u64,
    /// Live ledger entries at the end.
    pub live: u64,
    /// FNV-1a over the sorted live *partitioned* ledger keys (offsets
    /// are placement-dependent; keys are replay-deterministic, but a
    /// shared cell's content is a race between its home and its peer).
    pub ledger_hash: u64,
    /// Peer frees: shared-key frees this slot executed on its partners'
    /// cells (each also counted in `frees`).
    pub forwarded: u64,
    /// Control-plane deadline expiries this slot observed.
    pub timeouts: u64,
    /// Latency histogram (log2-ns buckets, all incarnations).
    pub hist: [u64; HIST_BUCKETS],
}

/// One crash + adoption episode.
#[derive(Debug, Clone, Default)]
pub struct AdoptionRecord {
    /// Worker slot.
    pub index: u32,
    /// The killed incarnation's thread id (raw).
    pub victim_tid: u16,
    /// Replacements reporting a won adoption race (must end at 1).
    pub winners: u32,
    /// `(pid, installed lease epoch)` of the reported winner. A second
    /// report for a closed episode fails the run, naming its own pid
    /// and epoch: two pids mean two processes won DEAD→ADOPTING.
    pub winner_ids: Vec<(u64, u16)>,
    /// Replacements that exited `RACED`: lost the race.
    pub losers: u32,
    /// Live blocks the winner inherited.
    pub inherited: u64,
}

/// One graceful-drain episode (SIGTERM, rolling restart, or
/// `--self-drain`).
#[derive(Debug, Clone)]
pub struct DrainRecord {
    /// Worker slot.
    pub index: u32,
    /// The drained incarnation's thread id (raw); its lease stays
    /// frozen for the rest of the pod's life.
    pub tid: u16,
    /// Ops the incarnation completed before draining.
    pub ops: u64,
    /// Live ledger entries it handed to its fresh replacement.
    pub live: u64,
}

/// One watchdog stall episode: a RUNNING worker whose lease counter
/// went silent past the deadline.
#[derive(Debug, Clone)]
pub struct StallRecord {
    /// Worker slot.
    pub index: u32,
    /// SIGCONT probes sent before the episode resolved.
    pub probes: u32,
    /// `true` when the ladder ran out and the worker was SIGKILLed
    /// (adoption follows); `false` when a probe revived it.
    pub escalated: bool,
}

/// The zero-lost-blocks audit outcome.
#[derive(Debug, Clone)]
pub struct AuditOutcome {
    /// Blocks the census found allocated (bit-clear), *including*
    /// remotely-freed blocks awaiting their slab steal.
    pub census_live: u64,
    /// Ledger entries across all workers.
    pub ledger_live: u64,
    /// `census_live` minus every remote-free credit: the blocks that
    /// are genuinely live. This — not `census_live` — is the
    /// replay-deterministic figure.
    pub effective_live: u64,
    /// Executed remote frees awaiting their slab steal (per-slab
    /// `blocks - payload`, summed).
    pub remote_pending: u64,
    /// Remote frees parked in durable `remote_buf` lines, not yet
    /// published (a kill mid-batch leaves these; recovery republishes
    /// them when the slot is adopted).
    pub remote_buffered: u64,
    /// Remote-free credits that matched no unattributed block — must be
    /// zero, or the remote accounting itself is broken.
    pub credit_excess: u64,
    /// Allocated blocks no ledger names after remote credits (leaked by
    /// a crash).
    pub lost: Vec<u64>,
    /// Ledger entries naming free blocks.
    pub phantom: Vec<u64>,
    /// Offsets named by more than one ledger cell.
    pub duplicates: Vec<u64>,
    /// `sum(allocs) - sum(frees) - effective_live` (0 when every kill
    /// hit an op boundary).
    pub counter_delta: i64,
    /// The heap walk's invariant verdict: `"ok"`, or the first violation
    /// (the census is then empty).
    pub invariants: String,
}

impl AuditOutcome {
    /// Whether the heap and ledgers agree exactly.
    pub fn is_clean(&self) -> bool {
        self.lost.is_empty()
            && self.phantom.is_empty()
            && self.duplicates.is_empty()
            && self.credit_excess == 0
            && self.invariants == "ok"
    }
}

/// Everything a serving run produced.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Per-worker stats.
    pub workers: Vec<WorkerStats>,
    /// Crash/adoption episodes, in kill order.
    pub adoptions: Vec<AdoptionRecord>,
    /// Graceful-drain episodes, in drain order.
    pub drains: Vec<DrainRecord>,
    /// Watchdog stall episodes (revivals and escalations).
    pub stalls: Vec<StallRecord>,
    /// Timed chaos events that never fired, `(kind, victim slot)`:
    /// traffic ended while each was due later or held back. Every other
    /// planned event was signalled.
    pub unfired: Vec<(Chaos, u32)>,
    /// The final audit.
    pub audit: AuditOutcome,
    /// Threads that observed a stolen lease (raw tids).
    pub stolen: Vec<u16>,
    /// SIGKILL deaths handled (scheduled, self-kills, and watchdog
    /// escalations observed as crashes).
    pub kills: u32,
    /// Peer frees executed across all workers.
    pub forwarded: u64,
    /// Control-plane deadline expiries across all workers.
    pub timeouts: u64,
    /// Traffic-phase wall clock.
    pub elapsed_secs: f64,
    /// Ops across all workers and incarnations.
    pub total_ops: u64,
}

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, v: u64) -> u64 {
    for b in v.to_le_bytes() {
        h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl RunReport {
    /// Aggregate throughput.
    pub fn ops_per_sec(&self) -> f64 {
        if self.elapsed_secs > 0.0 {
            self.total_ops as f64 / self.elapsed_secs
        } else {
            0.0
        }
    }

    /// Merged latency quantile (upper bucket bound, ns).
    pub fn quantile_ns(&self, q: f64) -> u64 {
        let hists: Vec<_> = self.workers.iter().map(|w| w.hist).collect();
        rpc::quantile_ns(&rpc::merge_hists(&hists), q)
    }

    /// Whether the run proved what it set out to prove: clean audit
    /// and exactly one adoption winner per kill.
    pub fn is_clean(&self) -> bool {
        self.audit.is_clean() && self.adoptions.iter().all(|a| a.winners == 1)
    }

    /// FNV-1a digest of the run's *deterministic projection*: the data
    /// an identical-seed replay must reproduce bit-for-bit. Partitioned
    /// ledger keys, audit emptiness, and op-exact event counts are in.
    /// Out are everything a shared cell moves (its content is a race
    /// between its home's insert and its peer's free, so live counts,
    /// census and counters move with it), placement-dependent offsets,
    /// stall episodes (wall-clock), and latency.
    pub fn digest(&self) -> u64 {
        let mut h = FNV_BASIS;
        for w in &self.workers {
            h = fnv1a(h, w.index as u64);
            h = fnv1a(h, w.ledger_hash);
        }
        h = fnv1a(h, self.audit.lost.len() as u64);
        h = fnv1a(h, self.audit.phantom.len() as u64);
        h = fnv1a(h, self.audit.duplicates.len() as u64);
        h = fnv1a(h, self.audit.credit_excess);
        h = fnv1a(h, self.audit.counter_delta as u64);
        h = fnv1a(h, self.kills as u64);
        h = fnv1a(h, self.drains.len() as u64);
        h
    }

    /// Renders the report as JSON (schema `serve-run-v3`).
    pub fn to_json(&self) -> String {
        let workers = list(&self.workers, |w| {
            format!(
                "{{\"index\":{},\"tid\":{},\"ops\":{},\"allocs\":{},\"frees\":{},\
                 \"live\":{},\"forwarded\":{},\"timeouts\":{},\"hist\":{:?}}}",
                w.index, w.tid, w.ops, w.allocs, w.frees, w.live, w.forwarded, w.timeouts, w.hist
            )
        });
        let adoptions = list(&self.adoptions, |a| {
            let ids = list(&a.winner_ids, |(pid, epoch)| format!("[{pid},{epoch}]"));
            format!(
                "{{\"index\":{},\"victim_tid\":{},\"winners\":{},\"winner_ids\":[{ids}],\
                 \"losers\":{},\"inherited\":{}}}",
                a.index, a.victim_tid, a.winners, a.losers, a.inherited
            )
        });
        let drains = list(&self.drains, |d| {
            format!("{{\"index\":{},\"tid\":{},\"ops\":{},\"live\":{}}}", d.index, d.tid, d.ops, d.live)
        });
        let stalls = list(&self.stalls, |s| {
            format!("{{\"index\":{},\"probes\":{},\"escalated\":{}}}", s.index, s.probes, s.escalated)
        });
        let unfired = list(&self.unfired, |(kind, slot)| format!("{{\"kind\":\"{}\",\"slot\":{slot}}}", kind.name()));
        format!(
            "{{\n  \"schema\": \"serve-run-v3\",\n  \"elapsed_secs\": {:.3},\n  \
             \"total_ops\": {},\n  \"ops_per_sec\": {:.0},\n  \"p50_ns\": {},\n  \
             \"p99_ns\": {},\n  \"kills\": {},\n  \"forwarded\": {},\n  \
             \"timeouts\": {},\n  \"stolen\": {:?},\n  \"digest\": \"{:016x}\",\n  \
             \"workers\": [{}],\n  \"adoptions\": [{}],\n  \"drains\": [{}],\n  \
             \"stalls\": [{}],\n  \"unfired\": [{}],\n  \"audit\": {{\"census_live\": {}, \
             \"ledger_live\": {}, \"effective_live\": {}, \"remote_pending\": {}, \
             \"remote_buffered\": {}, \"credit_excess\": {}, \
             \"lost\": {}, \"phantom\": {}, \"duplicates\": {}, \
             \"counter_delta\": {}, \"invariants\": {:?}, \"clean\": {}}}\n}}\n",
            self.elapsed_secs,
            self.total_ops,
            self.ops_per_sec(),
            self.quantile_ns(0.50),
            self.quantile_ns(0.99),
            self.kills,
            self.forwarded,
            self.timeouts,
            self.stolen,
            self.digest(),
            workers,
            adoptions,
            drains,
            stalls,
            unfired,
            self.audit.census_live,
            self.audit.ledger_live,
            self.audit.effective_live,
            self.audit.remote_pending,
            self.audit.remote_buffered,
            self.audit.credit_excess,
            self.audit.lost.len(),
            self.audit.phantom.len(),
            self.audit.duplicates.len(),
            self.audit.counter_delta,
            self.audit.invariants,
            self.is_clean(),
        )
    }
}

/// One JSON object per item, comma-joined.
fn list<T>(items: &[T], object: impl Fn(&T) -> String) -> String {
    items.iter().map(object).collect::<Vec<_>>().join(",")
}

/// One spawned worker process. `reaped` once its exit was reported.
struct Worker {
    index: u32,
    child: Child,
    reaped: bool,
}

/// RAII guard over every worker the run spawned: when dropped — on
/// success, error, or panic alike — it SIGKILLs and reaps every child,
/// so no exit path can leak orphan worker processes. (Already-reaped
/// children are no-ops: `kill` fails harmlessly and `wait` returns the
/// cached status.)
struct Fleet(Vec<Worker>);

impl Drop for Fleet {
    fn drop(&mut self) {
        for w in self.0.iter_mut() {
            let _ = w.child.kill();
            let _ = w.child.wait();
        }
    }
}

/// The IO half of the coordinator: turns rings, exits, lease words and
/// the clock into [`Event`]s and the machine's [`Action`]s into
/// syscalls and run-state stores.
struct Shell<'a> {
    args: &'a RunArgs,
    pod: &'a Pod,
    plane: &'a ControlPlane,
    machine: Coordinator<'a>,
    fleet: Fleet,
    clock: Instant,
}

impl Shell<'_> {
    fn step(&mut self, event: Event) -> Result<(), String> {
        let now = self.clock.elapsed().as_nanos() as u64;
        for action in self.machine.step(now, event)? {
            match action {
                Action::Spawn { index, adopt, chaos, seed } => {
                    let child = spawn_worker(self.args, index, adopt, chaos, seed)?;
                    let pid = child.id();
                    self.fleet.0.push(Worker { index, child, reaped: false });
                    self.step(Event::Spawned { index, pid })?;
                }
                Action::Signal { pid, sig } => {
                    let live = self.fleet.0.iter_mut().find(|w| !w.reaped && w.child.id() == pid);
                    if let Some(w) = live {
                        send_signal(pid, sig);
                        if sig == Chaos::Kill.signal() {
                            let _ = w.child.wait(); // the next pass reaps the corpse
                        }
                    }
                }
                Action::RunState(run_state) => self.plane.set_run_state(run_state),
            }
        }
        Ok(())
    }

    /// The lease word of the thread slot `index` last said hello with.
    fn lease(&self, index: u32) -> u64 {
        self.machine.tid(index).and_then(ThreadId::new).map_or(0, |t| {
            self.pod.memory().load_u64(CoreId(0), self.pod.layout().lease_at(t.slot()))
        })
    }
}

/// Drives a full serving run and returns the report.
///
/// # Errors
///
/// Harness failures (spawn/IO/protocol); *audit* failures are returned
/// in the report, not as errors, so callers can inspect them.
pub fn run(args: &RunArgs) -> Result<RunReport, String> {
    args.validate()?;
    let _ = std::fs::remove_file(&args.file);
    let tail = rpc::tail_bytes(args.workers, args.ledger_cap);
    let pod = Pod::create_shared(args.config.clone(), &args.file, tail)
        .map_err(|e| format!("create_shared: {e}"))?;
    let plane = ControlPlane::new(
        pod.memory().segment().clone(),
        pod.layout().total_len,
        args.workers,
        args.ledger_cap,
    );
    plane.init();

    let result = drive(args, &pod, &plane);
    if !args.keep_file {
        let _ = std::fs::remove_file(&args.file);
    }
    result
}

/// The one poll loop: each pass drains every event ring, then reaps
/// exits, then ticks the machine with every slot's lease word and
/// worker `STATE`, until the machine is done; then the audit.
fn drive(args: &RunArgs, pod: &Pod, plane: &ControlPlane) -> Result<RunReport, String> {
    let mut shell = Shell {
        args,
        pod,
        plane,
        machine: Coordinator::new(args),
        fleet: Fleet(Vec::new()),
        clock: Instant::now(),
    };
    let mut soak_log = Instant::now();
    loop {
        // Rings before exits: a draining worker's `Exited` is matched
        // while its slot still names it.
        for index in 0..args.workers {
            let evt = plane.worker(index).evt_ring();
            while let Some(msg) = evt.pop().map_err(|e| format!("evt ring {index}: {e}"))? {
                shell.step(Event::Msg { index, msg })?;
            }
        }
        if shell.machine.done() {
            break;
        }
        let mut exits = Vec::new();
        for w in shell.fleet.0.iter_mut().filter(|w| !w.reaped) {
            if let Ok(Some(status)) = w.child.try_wait() {
                w.reaped = true;
                exits.push((w.index, w.child.id(), status.code()));
            }
        }
        for (index, pid, code) in exits {
            let lease = shell.lease(index);
            shell.step(Event::Reaped { index, pid, code, lease })?;
        }
        let probes = (0..args.workers)
            .map(|i| (shell.lease(i), plane.worker(i).status(status::STATE)))
            .collect();
        shell.step(Event::Tick(probes))?;
        if args.soak && soak_log.elapsed() >= Duration::from_secs(5) {
            let m = &shell.machine;
            let ops: u64 = (0..args.workers).map(|i| plane.worker(i).status(status::OPS)).sum();
            eprintln!(
                "soak {:>6.0}s: ops {ops}, kills {}, drains {}, stalls {}, adoptions {}",
                shell.clock.elapsed().as_secs_f64(),
                m.kills,
                m.drains.len(),
                m.stalls.len(),
                m.adoptions.len(),
            );
            soak_log = Instant::now();
        }
        std::thread::sleep(Duration::from_millis(shell.machine.poll_ms()));
    }

    // The heap is quiescent — audit it.
    let audit = audit(pod, plane)?;
    let split = KeySplit::new(args.workers, args.ledger_cap, args.shared_pct);
    let workers: Vec<WorkerStats> = (0..args.workers)
        .map(|index| {
            let w = plane.worker(index);
            let keys: Vec<u64> = w.ledger_live().into_iter().map(|(k, _)| k).collect();
            let ledger_hash =
                keys.iter().filter(|&&k| !split.is_shared(k)).fold(FNV_BASIS, |h, &k| fnv1a(h, k));
            WorkerStats {
                index,
                tid: w.status(status::TID) as u16,
                ops: w.status(status::OPS),
                allocs: w.status(status::ALLOCS),
                frees: w.status(status::FREES),
                live: keys.len() as u64,
                ledger_hash,
                forwarded: w.status(status::FORWARDED),
                timeouts: w.status(status::TIMEOUTS),
                hist: w.histogram(),
            }
        })
        .collect();
    let total_ops = workers.iter().map(|w| w.ops).sum();
    let forwarded = workers.iter().map(|w| w.forwarded).sum();
    let timeouts = workers.iter().map(|w| w.timeouts).sum();
    let m = shell.machine;
    let report = RunReport {
        workers,
        adoptions: m.adoptions,
        drains: m.drains,
        stalls: m.stalls,
        unfired: m.schedule.into_iter().map(|(_, kind, victim)| (kind, victim)).collect(),
        audit,
        stolen: m.stolen,
        kills: m.kills,
        forwarded,
        timeouts,
        elapsed_secs: m.elapsed_ns as f64 / 1e9,
        total_ops,
    };
    if let Some(path) = &args.json_out {
        std::fs::write(path, report.to_json()).map_err(|e| format!("write {path:?}: {e}"))?;
    }
    Ok(report)
}

fn spawn_worker(
    args: &RunArgs,
    index: u32,
    adopt: Option<(u16, u16)>,
    chaos: Vec<(u64, Chaos)>,
    seed: u64,
) -> Result<Child, String> {
    let worker_args = WorkerArgs {
        file: args.file.clone(),
        config: args.config.clone(),
        workers: args.workers,
        ledger_cap: args.ledger_cap,
        index,
        seed,
        spec: args.spec,
        hb_every: args.hb_every,
        target_ops: args.target_ops,
        adopt,
        chaos,
        shared_pct: args.shared_pct,
        remote_batch: args.remote_batch,
        shared_skew: args.shared_skew,
    };
    Command::new(&args.worker_exe)
        .arg("worker")
        .args(worker_args.to_args())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawn worker {index}: {e}"))
}

/// The zero-lost-blocks audit over a quiescent heap, extended for
/// shared-key traffic: every unattributed census block must be covered
/// by a remote-free credit — a slab's executed-but-unstolen
/// `remote_pending` or a durable-buffered batch a kill left mid-flight.
fn audit(pod: &Pod, plane: &ControlPlane) -> Result<AuditOutcome, String> {
    let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())
        .map_err(|e| format!("audit attach: {e}"))?;

    // One walk checks every heap invariant and lists the blocks. A heap
    // it refuses has no block list to trust, so every ledger entry then
    // reads as unconfirmed (phantom) beside the refusal.
    let (census, invariants) = match heap.census(CoreId(0)) {
        Ok(census) => (census, "ok".to_string()),
        Err(e) => (cxl_core::BlockCensus::default(), e),
    };
    let buffered = cxl_core::audit::remote_buffered(pod.memory().as_ref(), CoreId(0));
    let buffered_total: u64 = buffered.iter().map(|b| b.pending as u64).sum();

    let mut ledger: Vec<u64> = Vec::new();
    let mut allocs = 0u64;
    let mut frees = 0u64;
    for index in 0..plane.workers() {
        let w = plane.worker(index);
        ledger.extend(w.ledger_live().into_iter().map(|(_, off)| off));
        allocs += w.status(status::ALLOCS);
        frees += w.status(status::FREES);
    }
    ledger.sort_unstable();
    let mut duplicates: Vec<u64> =
        ledger.windows(2).filter(|w| w[0] == w[1]).map(|w| w[0]).collect();
    duplicates.dedup();

    let heap_side = census.all_offsets();
    let raw_lost = diff_sorted(&heap_side, &ledger);
    let phantom = diff_sorted(&ledger, &heap_side);

    // Credit unattributed blocks against per-slab remote-free debt:
    // executed-but-unstolen frees (`remote_pending`) plus durable-
    // buffered unpublished decrements. Whatever no credit covers is
    // genuinely lost; credits that cover nothing mean the remote
    // accounting itself is broken and fail the audit the other way.
    let mut credits: Vec<(&cxl_core::audit::SlabAudit, u64)> = census
        .slabs
        .iter()
        .map(|sa| {
            let buf: u64 = buffered
                .iter()
                .filter(|b| b.kind == sa.kind && b.slab == sa.slab)
                .map(|b| b.pending as u64)
                .sum();
            (sa, sa.remote_pending as u64 + buf)
        })
        .collect();
    let mut lost = Vec::new();
    for off in raw_lost {
        match credits.iter_mut().find(|(sa, c)| *c > 0 && sa.contains(off)) {
            Some((_, c)) => *c -= 1,
            None => lost.push(off),
        }
    }
    let credit_excess: u64 = credits.iter().map(|(_, c)| *c).sum();
    let remote_pending = census.remote_pending_total();
    let effective_live = (heap_side.len() as u64).saturating_sub(remote_pending + buffered_total);
    Ok(AuditOutcome {
        census_live: heap_side.len() as u64,
        ledger_live: ledger.len() as u64,
        effective_live,
        remote_pending,
        remote_buffered: buffered_total,
        credit_excess,
        lost,
        phantom,
        duplicates,
        counter_delta: allocs as i64 - frees as i64 - effective_live as i64,
        invariants,
    })
}

/// Elements of sorted `a` missing from sorted `b` (set difference).
fn diff_sorted(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().copied().filter(|x| b.binary_search(x).is_err()).collect()
}

#[cfg(test)]
mod tests {
    use super::machine::{secs_ns, timed_chaos, SelfEvents};
    use super::*;

    #[test]
    fn run_args_parse_and_validate() {
        let args = RunArgs::parse(&[
            "--workers".into(),
            "2".into(),
            "--ops".into(),
            "500".into(),
            "--self-kill".into(),
            "0:250".into(),
            "--seed".into(),
            "9".into(),
        ])
        .unwrap();
        assert_eq!(args.workers, 2);
        assert_eq!(args.target_ops, 500);
        assert_eq!(args.self_events, vec![(Chaos::Kill, 0, 250)]);
        assert!(RunArgs::parse(&["--workers".into(), "0".into()]).is_err());
        assert!(
            RunArgs::parse(&["--kills".into(), "1".into(), "--ops".into(), "5".into()])
                .is_err()
        );
        assert!(RunArgs::parse(&["--self-kill".into(), "junk".into()]).is_err());
    }

    #[test]
    fn chaos_flags_parse_and_validate() {
        let args = RunArgs::parse(&[
            "--workers".into(),
            "4".into(),
            "--rolling".into(),
            "3:1.5".into(),
            "--drains".into(),
            "1".into(),
            "--stalls".into(),
            "2".into(),
            "--shared-pct".into(),
            "50".into(),
            "--remote-batch".into(),
            "8".into(),
            "--shared-skew".into(),
            "0.9".into(),
            "--stall-ms".into(),
            "400".into(),
            "--max-probes".into(),
            "0".into(),
        ])
        .unwrap();
        assert_eq!(args.rolling, Some((3, 1.5)));
        assert_eq!(args.drains, 1);
        assert_eq!(args.stalls, 2);
        assert_eq!(args.shared_pct, 50);
        assert_eq!(args.remote_batch, 8);
        assert_eq!(args.shared_skew, Some(0.9));
        assert_eq!(args.stall_ms, 400);
        assert_eq!(args.max_probes, 0);

        let soak = RunArgs::parse(&["--soak".into(), "30".into()]).unwrap();
        assert!(soak.soak);
        assert_eq!(soak.secs, 30.0);

        // Timed chaos needs time mode.
        for flag in [
            vec!["--rolling".to_string(), "1:1".into()],
            vec!["--drains".to_string(), "1".into()],
            vec!["--stalls".to_string(), "1".into()],
        ] {
            let mut v = vec!["--ops".to_string(), "100".into()];
            v.extend(flag);
            assert!(RunArgs::parse(&v).is_err(), "{v:?} must be rejected");
        }
        // Self-event indices must address real slots.
        assert!(RunArgs::parse(&[
            "--workers".into(),
            "2".into(),
            "--self-drain".into(),
            "2:100".into()
        ])
        .is_err());
        // The drain budget is bounded by max_threads.
        assert!(RunArgs::parse(&["--rolling".into(), "100:0.5".into()]).is_err());
        assert!(RunArgs::parse(&["--rolling".into(), "0:1".into()]).is_err());
        assert!(RunArgs::parse(&["--shared-pct".into(), "101".into()]).is_err());
        assert!(RunArgs::parse(&["--shared-skew".into(), "1.0".into()]).is_err());
        assert!(RunArgs::parse(&["--shared-skew".into(), "0".into()]).is_err());
    }

    #[test]
    fn incarnation_seeds_are_distinct() {
        let mut seen = std::collections::BTreeSet::new();
        for index in 0..8 {
            for inc in 0..4 {
                assert!(seen.insert(incarnation_seed(7, index, inc)));
            }
        }
    }

    #[test]
    fn sorted_diff_is_a_set_difference() {
        assert_eq!(diff_sorted(&[1, 2, 3, 5], &[2, 3, 4]), vec![1, 5]);
        assert_eq!(diff_sorted(&[], &[1]), Vec::<u64>::new());
        assert_eq!(diff_sorted(&[7], &[]), vec![7]);
    }

    #[test]
    fn self_events_arm_per_fresh_spawn_in_flag_order() {
        let flags = "--workers 3 --self-kill 0:100 --self-drain 1:50 --self-drain 1:75 \
                     --self-stall 2:900 --self-kill 2:600 --self-drain 2:300";
        let argv: Vec<String> = flags.split_whitespace().map(String::from).collect();
        let args = RunArgs::parse(&argv).unwrap();
        let mut events = SelfEvents::new(&args);
        assert_eq!(events.arm(0), vec![(100, Chaos::Kill)]);
        assert_eq!(events.arm(0), vec![]);
        assert_eq!(events.arm(1), vec![(50, Chaos::Drain)]);
        // The drained slot's *next* fresh spawn arms the next drain.
        assert_eq!(events.arm(1), vec![(75, Chaos::Drain)]);
        assert_eq!(events.arm(1), vec![]);
        // One fresh spawn arms one event of each kind, sorted by op.
        assert_eq!(
            events.arm(2),
            vec![(300, Chaos::Drain), (600, Chaos::Kill), (900, Chaos::Stall)]
        );
        assert_eq!(events.arm(2), vec![]);
    }

    #[test]
    fn timed_chaos_is_seeded_per_kind() {
        let args = RunArgs {
            workers: 4,
            secs: 20.0,
            kills: 5,
            drains: 3,
            stalls: 4,
            seed: 99,
            ..RunArgs::default()
        };
        let schedule = timed_chaos(&args);
        assert_eq!(schedule, timed_chaos(&args), "same args, same schedule");
        assert_eq!(schedule.len(), 12);
        assert!(schedule.windows(2).all(|w| w[0].0 <= w[1].0), "firing order");
        for &(at, kind, victim) in &schedule {
            let (start, width) = match kind {
                Chaos::Kill => (0.25, 0.4),
                Chaos::Drain => (0.20, 0.45),
                Chaos::Stall => (0.15, 0.5),
            };
            let s = at as f64 / 1e9;
            assert!(
                s >= args.secs * start && s < args.secs * (start + width),
                "{kind:?} at {s}s outside its window"
            );
            assert!(victim < args.workers);
        }

        // More drains, or a rolling restart, never move a kill.
        let kills = |a: &RunArgs| -> Vec<(u64, u32)> {
            timed_chaos(a)
                .into_iter()
                .filter(|(_, k, _)| *k == Chaos::Kill)
                .map(|(at, _, v)| (at, v))
                .collect()
        };
        let more = RunArgs { drains: 9, rolling: Some((3, 1.5)), ..args.clone() };
        assert_eq!(kills(&args), kills(&more));
        assert_eq!(kills(&args).len(), 5);

        // Rolling drains land at period × (i + 1), round-robin.
        let rolling = RunArgs { rolling: Some((6, 1.5)), ..RunArgs::default() };
        let expect: Vec<_> = (0..6u32)
            .map(|i| (secs_ns(1.5 * (i + 1) as f64), Chaos::Drain, i % rolling.workers))
            .collect();
        assert_eq!(timed_chaos(&rolling), expect);
    }

    fn report_fixture() -> RunReport {
        RunReport {
            workers: vec![WorkerStats {
                index: 0,
                tid: 1,
                ops: 100,
                allocs: 40,
                frees: 30,
                live: 10,
                ledger_hash: 0xabcd,
                forwarded: 5,
                timeouts: 0,
                hist: [0; HIST_BUCKETS],
            }],
            adoptions: Vec::new(),
            drains: vec![DrainRecord { index: 0, tid: 1, ops: 60, live: 7 }],
            stalls: vec![StallRecord { index: 0, probes: 1, escalated: false }],
            unfired: vec![(Chaos::Drain, 0)],
            audit: AuditOutcome {
                census_live: 12,
                ledger_live: 10,
                effective_live: 10,
                remote_pending: 2,
                remote_buffered: 0,
                credit_excess: 0,
                lost: Vec::new(),
                phantom: Vec::new(),
                duplicates: Vec::new(),
                counter_delta: 0,
                invariants: "ok".into(),
            },
            stolen: Vec::new(),
            kills: 1,
            forwarded: 5,
            timeouts: 0,
            elapsed_secs: 1.0,
            total_ops: 100,
        }
    }

    #[test]
    fn digest_covers_the_deterministic_projection_only() {
        let a = report_fixture();
        let mut b = report_fixture();
        assert_eq!(a.digest(), b.digest());
        // Timing-dependent fields must not move the digest...
        b.stalls.push(StallRecord { index: 0, probes: 2, escalated: false });
        b.audit.census_live = 14;
        b.audit.remote_pending = 4;
        b.elapsed_secs = 2.0;
        assert_eq!(a.digest(), b.digest());
        // ...nor must one more live shared cell: its block, its insert
        // and the peer free it raced (the ledger hash covers partitioned
        // keys only).
        let mut shared = report_fixture();
        shared.workers[0].live += 1;
        shared.workers[0].allocs += 1;
        shared.workers[0].forwarded += 1;
        shared.workers[0].frees += 1;
        shared.audit.census_live += 1;
        shared.audit.ledger_live += 1;
        shared.audit.effective_live += 1;
        shared.forwarded += 1;
        assert_eq!(a.digest(), shared.digest(), "shared cells are a race outcome");
        // ...while replay-visible ones must.
        b.workers[0].ledger_hash ^= 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = report_fixture();
        c.drains.clear();
        assert_ne!(a.digest(), c.digest());
        let mut d = report_fixture();
        d.audit.counter_delta = 1;
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn report_json_is_v3_with_chaos_fields() {
        let mut report = report_fixture();
        report.adoptions.push(AdoptionRecord {
            index: 0,
            victim_tid: 1,
            winners: 1,
            winner_ids: vec![(4242, 3)],
            losers: 1,
            inherited: 9,
        });
        let json = report.to_json();
        for needle in [
            "\"winner_ids\":[[4242,3]]",
            "\"schema\": \"serve-run-v3\"",
            "\"drains\": [",
            "\"stalls\": [",
            "\"unfired\": [{\"kind\":\"drain\",\"slot\":0}]",
            "\"remote_pending\": 2",
            "\"effective_live\": 10",
            "\"digest\": \"",
            "\"forwarded\": 5",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
    }

    #[test]
    fn dirty_audit_flags_credit_excess() {
        let mut audit = report_fixture().audit;
        assert!(audit.is_clean());
        audit.credit_excess = 1;
        assert!(!audit.is_clean());
    }
}
