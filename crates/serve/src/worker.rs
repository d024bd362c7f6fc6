//! The serve worker: one OS process, one allocator thread slot.
//!
//! A worker attaches to the coordinator's shared segment, registers a
//! thread (or adopts a crashed one when spawned as a replacement), and
//! serves a YCSB-style key-value workload against its slice of the
//! allocation ledger. Its run — seed, spec, heartbeat cadence, op
//! target — is fixed on its command line; it serves once the control
//! header's run state reads RUNNING and exits once it reads STOPPING.
//! Every key maps to one ledger cell, which an
//! insert fills with [`alloc_detectable`](cxl_core::ThreadHandle::alloc_detectable)
//! and a delete claims with [`dealloc_detectable`](cxl_core::ThreadHandle::dealloc_detectable),
//! so the cell and the heap agree no matter where a `kill -9` lands.
//!
//! Keys are partitioned per worker by default (each worker owns its
//! ledger and never frees another worker's blocks), which keeps every
//! slab's bitset single-writer and makes the end-of-run census exact.
//! With `--shared-pct P` the Zipf-hot head of every worker's key
//! range is *shared* ([`KeySplit`]): a worker's delete of a shared key
//! frees its partner's block in place, on the allocator's remote-free
//! path (batched through the durable `remote_buf` lines) — so crashes
//! land in the middle of cross-process free traffic, which is exactly
//! what the chaos audit must survive.
//!
//! A worker can also *drain*: on SIGTERM it finishes the current op,
//! flushes remote-free buffers, freezes its lease
//! ([`ThreadHandle::freeze_lease`]), and exits with
//! [`exit::DRAINED`] — leaving a heap so settled that its replacement
//! registers fresh instead of running recovery. A clean stop takes the
//! same exit path and differs only in the exit code.
//!
//! Op-exact chaos (`--at OPS:KIND`) makes the worker raise the kind's
//! signal on itself at a completed-op boundary, so a kill, drain or
//! stall flows through the same signal delivery as a coordinator-sent
//! one and replays exactly.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use cxl_core::audit::block_state;
use cxl_core::liveness::{lease, LivenessDetector};
use cxl_core::{AllocError, AttachOptions, Cxlalloc, OffsetPtr, ThreadHandle, ThreadId};
use cxl_pod::{CoreId, Pod, PodConfig};
use rand::{rngs::StdRng, Rng, SeedableRng};
use workloads::{KvOp, OpStream, WorkloadSpec, Zipfian};

use crate::clock::{Calibration, OpClock};
use crate::rpc::{self, state, status, ControlPlane, Msg, WorkerPlane, PUBLISHED};
use crate::Chaos;

/// Process exit codes a worker can produce (the coordinator keys off
/// these to tell clean exits, race losses, and steals apart).
pub mod exit {
    /// Served and stopped cleanly.
    pub const OK: i32 = 0;
    /// Bad arguments or a fatal harness error.
    pub const FATAL: i32 = 2;
    /// Spawned as a replacement but lost the adoption race.
    pub const RACED: i32 = 3;
    /// A heartbeat found the lease stolen by another adopter.
    pub const STOLEN: i32 = 4;
    /// Drained gracefully: buffers flushed, lease frozen. The slot's
    /// traffic share needs a *fresh registration*, not an adoption.
    pub const DRAINED: i32 = 5;
}

/// Workload spec ids carried in [`WorkerArgs::spec`].
///
/// The specs are serve-sized variants of the paper's Table 2 rows: the
/// key space is clamped to the ledger capacity and value sizes stay in
/// the small/large heaps (huge blocks would dwarf the ledger-sized
/// runs the harness drives).
pub fn spec_by_id(id: u8, key_space: u64) -> WorkloadSpec {
    let mut spec = match id {
        1 => WorkloadSpec {
            name: "serve-mixed",
            // Size-mixed churn: inserts span the small heap and spill
            // into the large heap.
            insert_pct: 40.0,
            delete_pct: 20.0,
            key_dist: workloads::KeyDist::Zipfian,
            key_size: workloads::SizeDist::Fixed(8),
            value_size: workloads::SizeDist::Uniform { min: 8, max: 4096 },
            key_space,
            preload: 0,
        },
        _ => {
            // Default: the paper's modified YCSB-A (25 % insert, 25 %
            // delete, 50 % read, Zipfian keys, 960 B values).
            let mut a = WorkloadSpec::ycsb_a();
            a.preload = 0;
            a
        }
    };
    spec.key_space = key_space;
    spec
}

/// Parsed `serve worker` arguments.
#[derive(Debug, Clone)]
pub struct WorkerArgs {
    /// Path of the shared segment file.
    pub file: std::path::PathBuf,
    /// Encoded pod config (see [`crate::codec`]).
    pub config: PodConfig,
    /// Worker-slot count the control plane was sized for.
    pub workers: u32,
    /// Ledger cells per worker.
    pub ledger_cap: u64,
    /// This worker's slot index.
    pub index: u32,
    /// RNG seed for this incarnation's op stream.
    pub seed: u64,
    /// Workload spec id (see [`spec_by_id`]).
    pub spec: u8,
    /// Heartbeat cadence in ops.
    pub hb_every: u64,
    /// Stop after this many ops (0 = run until the run state reads
    /// STOPPING).
    pub target_ops: u64,
    /// A crashed incarnation to adopt: its raw thread id and the lease
    /// epoch it died with. A changed epoch means another adopter won.
    pub adopt: Option<(u16, u16)>,
    /// Op-exact chaos, sorted: at each `(ops, kind)` the worker raises
    /// the kind's signal on itself once `ops` ops have completed.
    pub chaos: Vec<(u64, Chaos)>,
    /// Percentage (0–100) of each worker's key range that is *shared*:
    /// a peer worker frees the blocks of keys below the cut in place, so
    /// they land as remote frees ([`KeySplit`]). 0 = fully partitioned.
    pub shared_pct: u8,
    /// Remote-free batch width passed to [`AttachOptions`]; widths > 1
    /// buffer peer frees through the durable `remote_buf` lines.
    pub remote_batch: u32,
    /// Zipf skew θ ∈ (0,1) re-applied on top of the spec's key choice:
    /// every op's key is re-drawn as a rank-Zipfian over the ledger
    /// (rank 0 hottest), so the *shared hot head* soaks up most of the
    /// traffic and peer frees pile onto a few contended slabs.
    /// `None` keeps the spec's own distribution.
    pub shared_skew: Option<f64>,
}

impl WorkerArgs {
    /// Parses `--flag value` pairs.
    ///
    /// # Errors
    ///
    /// A usage string naming the offending flag.
    pub fn parse(args: &[String]) -> Result<WorkerArgs, String> {
        let mut file = None;
        let mut config = None;
        let mut workers = 0u32;
        let mut ledger_cap = 0u64;
        let mut index = None;
        let (mut seed, mut spec, mut hb_every, mut target_ops) = (0, 0, 0, 0);
        let mut adopt = None;
        let mut chaos = Vec::new();
        let mut shared_pct = 0u8;
        let mut remote_batch = 1u32;
        let mut shared_skew = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut val = || {
                it.next().cloned().ok_or_else(|| format!("{flag} needs a value"))
            };
            match flag.as_str() {
                "--file" => file = Some(std::path::PathBuf::from(val()?)),
                "--config" => config = Some(crate::codec::parse_config(&val()?)?),
                "--workers" => workers = parse_num(flag, &val()?)?,
                "--ledger-cap" => ledger_cap = parse_num(flag, &val()?)?,
                "--index" => index = Some(parse_num(flag, &val()?)?),
                "--seed" => seed = parse_num(flag, &val()?)?,
                "--spec" => spec = parse_num(flag, &val()?)?,
                "--hb-every" => hb_every = parse_num(flag, &val()?)?,
                "--ops" => target_ops = parse_num(flag, &val()?)?,
                "--adopt" => {
                    let v = val()?;
                    let (tid, epoch) = v
                        .split_once(':')
                        .ok_or_else(|| format!("--adopt wants TID:EPOCH, got {v:?}"))?;
                    adopt = Some((parse_num(flag, tid)?, parse_num(flag, epoch)?));
                }
                "--at" => {
                    let v = val()?;
                    let (ops, kind) = v
                        .split_once(':')
                        .ok_or_else(|| format!("--at wants OPS:KIND, got {v:?}"))?;
                    chaos.push((parse_num(flag, ops)?, kind.parse()?));
                }
                "--shared-pct" => shared_pct = parse_num(flag, &val()?)?,
                "--remote-batch" => remote_batch = parse_num(flag, &val()?)?,
                "--shared-skew" => shared_skew = Some(parse_num(flag, &val()?)?),
                other => return Err(format!("unknown worker flag {other}")),
            }
        }
        chaos.sort_unstable();
        Ok(WorkerArgs {
            file: file.ok_or("--file is required")?,
            config: config.ok_or("--config is required")?,
            workers: if workers == 0 { return Err("--workers is required".into()) } else { workers },
            ledger_cap: if ledger_cap == 0 {
                return Err("--ledger-cap is required".into());
            } else {
                ledger_cap
            },
            index: index.ok_or("--index is required")?,
            seed,
            spec,
            hb_every,
            target_ops,
            adopt,
            chaos,
            shared_pct: if shared_pct > 100 {
                return Err("--shared-pct must be 0-100".into());
            } else {
                shared_pct
            },
            remote_batch: remote_batch.max(1),
            shared_skew: match shared_skew {
                Some(theta) if !(theta > 0.0 && theta < 1.0) => {
                    return Err("--shared-skew must be in (0, 1)".into());
                }
                other => other,
            },
        })
    }

    /// Renders back to the argument vector [`WorkerArgs::parse`] accepts.
    pub fn to_args(&self) -> Vec<String> {
        let mut v = vec![
            "--file".into(),
            self.file.display().to_string(),
            "--config".into(),
            crate::codec::format_config(&self.config),
            "--workers".into(),
            self.workers.to_string(),
            "--ledger-cap".into(),
            self.ledger_cap.to_string(),
            "--index".into(),
            self.index.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--spec".into(),
            self.spec.to_string(),
            "--hb-every".into(),
            self.hb_every.to_string(),
            "--ops".into(),
            self.target_ops.to_string(),
        ];
        if let Some((tid, epoch)) = self.adopt {
            v.push("--adopt".into());
            v.push(format!("{tid}:{epoch}"));
        }
        for (ops, kind) in &self.chaos {
            v.push("--at".into());
            v.push(format!("{ops}:{}", kind.name()));
        }
        if self.shared_pct > 0 {
            v.push("--shared-pct".into());
            v.push(self.shared_pct.to_string());
        }
        if self.remote_batch > 1 {
            v.push("--remote-batch".into());
            v.push(self.remote_batch.to_string());
        }
        if let Some(theta) = self.shared_skew {
            v.push("--shared-skew".into());
            v.push(theta.to_string());
        }
        v
    }
}

fn parse_num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("{flag}: bad value {s:?}"))
}

/// Runs a worker process to completion; returns its exit code.
///
/// Only available on Unix (the shared segment is a file mapping).
#[cfg(unix)]
pub fn run(args: &WorkerArgs) -> i32 {
    match run_inner(args) {
        Ok(code) => code,
        Err(err) => {
            eprintln!("serve worker {}: {err}", args.index);
            exit::FATAL
        }
    }
}

#[cfg(unix)]
fn run_inner(args: &WorkerArgs) -> Result<i32, String> {
    // The per-op clock calibrates over start-up, from here to RUNNING.
    let mut calibration = Calibration::start();
    install_sigterm_handler();
    let tail = rpc::tail_bytes(args.workers, args.ledger_cap);
    let pod = Pod::open_shared(args.config.clone(), &args.file, tail)
        .map_err(|e| format!("open_shared: {e}"))?;
    let heap = Cxlalloc::attach(
        pod.spawn_process(),
        AttachOptions {
            remote_free_batch: args.remote_batch.max(1),
            ..AttachOptions::default()
        },
    )
    .map_err(|e| format!("attach: {e}"))?;
    let plane = ControlPlane::new(
        pod.memory().segment().clone(),
        pod.layout().total_len,
        args.workers,
        args.ledger_cap,
    );
    plane.validate()?;
    let me = plane.worker(args.index);
    let evt = me.evt_ring();
    let split = KeySplit::new(args.workers, args.ledger_cap, args.shared_pct);

    // Claim the slot: register fresh, or adopt the dead incarnation.
    let handle = match args.adopt {
        None => heap.register_thread().map_err(|e| format!("register: {e}"))?,
        Some((raw, epoch)) => {
            let victim = ThreadId::new(raw).ok_or("--adopt 0 is not a thread id")?;
            // Lost the race: bow out without a word. The event ring is
            // single-producer and belongs to the winner; the coordinator
            // counts the loser from the `RACED` exit.
            match adopt(&heap, &me, split, victim, epoch)? {
                Some(handle) => handle,
                None => return Ok(exit::RACED),
            }
        }
    };

    me.set_status(status::PID, std::process::id() as u64);
    me.set_status(status::TID, handle.tid().raw() as u64);
    me.set_status(status::STATE, state::INIT);
    if let Err(t) = evt.push_wait(
        Msg::Hello { pid: std::process::id() as u64, tid: handle.tid().raw() },
        "hello",
        Duration::from_secs(5),
    ) {
        me.bump_status(status::TIMEOUTS, 1);
        return Err(t.to_string());
    }

    // Wait for RUNNING (heartbeating so detectors trust us, probing the
    // clock's floor), then serve. The poll interleaves beats, under the
    // same typed deadline as every other control-plane wait.
    let started = Instant::now();
    loop {
        calibration.probe_floor();
        match plane.run_state() {
            rpc::run_state::RUNNING => break,
            rpc::run_state::STOPPING => return leave(&handle, &me, &evt, 0, false),
            _ => {}
        }
        if DRAIN_SIGNAL.load(Ordering::Relaxed) {
            return leave(&handle, &me, &evt, 0, true);
        }
        if let Err(code) = beat(&handle, &me, &evt) {
            return Ok(code);
        }
        if started.elapsed() > Duration::from_secs(120) {
            me.bump_status(status::TIMEOUTS, 1);
            let t = rpc::ControlPlaneTimeout { op: "start-wait", waited: started.elapsed() };
            return Err(t.to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }

    let clock = calibration.finish();
    me.set_status(status::STATE, state::RUNNING);
    serve(ServeLoop {
        handle,
        clock,
        me: &me,
        evt: &evt,
        plane: &plane,
        keys: Keys {
            split,
            index: args.index,
            ledgers: (0..args.workers).map(|w| plane.worker(w)).collect(),
        },
        args,
    })
}

/// Set by the SIGTERM handler; polled at op boundaries so the drain
/// always lands between ops, never mid-allocation.
static DRAIN_SIGNAL: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_sig: i32) {
    // A relaxed store is async-signal-safe; everything else waits for
    // the serve loop to notice.
    DRAIN_SIGNAL.store(true, Ordering::Relaxed);
}

#[cfg(unix)]
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        signal(Chaos::Drain.signal(), on_sigterm as *const () as usize);
    }
}

/// Detect the victim's death (ticking the lease detector) and race the
/// DEAD→ADOPTING CAS for the incarnation that died with lease epoch
/// `epoch`. Returns `None` on a lost race.
#[cfg(unix)]
fn adopt(
    heap: &Cxlalloc,
    me: &WorkerPlane,
    split: KeySplit,
    victim: ThreadId,
    epoch: u16,
) -> Result<Option<ThreadHandle>, String> {
    // Generous expiry: live workers heartbeat every few hundred
    // microseconds, so ~50 ticks x 2 ms of silence is unambiguous.
    let memory = heap.process().memory();
    let mut detector = LivenessDetector::new(memory.layout().max_threads, 50);
    let via = CoreId(victim.slot() as u16);
    let lease_at = memory.layout().lease_at(victim.slot());
    let started = Instant::now();
    let mut probe = false;
    loop {
        // An adoption installs a new epoch, so another adopter has won:
        // its lease is no death of ours to detect, however long it
        // stays silent.
        if lease::epoch(memory.load_u64(via, lease_at)) != epoch {
            return Ok(None);
        }
        let report = detector.tick(heap, via).map_err(|e| format!("detector: {e}"))?;
        // Once we (or anyone) could have flipped the slot DEAD, start
        // probing; the registry CAS arbitrates the race.
        probe = probe
            || report.expired.contains(&victim)
            || started.elapsed() > Duration::from_secs(5);
        if probe {
            match heap.adopt(victim, via) {
                Ok((handle, _report)) => {
                    let inherited = inherit_ledger(me, split);
                    let _ = me.evt_ring().push(Msg::AdoptReport {
                        victim: victim.raw(),
                        inherited,
                        pid: std::process::id() as u64,
                        epoch: handle.lease_epoch(),
                    });
                    return Ok(Some(handle));
                }
                Err(AllocError::AdoptionRaced { .. }) => return Ok(None),
                Err(AllocError::BadThreadState { .. }) => {} // not DEAD yet
                Err(e) => return Err(format!("adopt: {e}")),
            }
        }
        if started.elapsed() > Duration::from_secs(30) {
            return Err(format!("victim {victim} never became adoptable"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Counts the inherited ledger's live cells and publishes any shared
/// cell the victim filled but died before publishing. Nothing else
/// needs repair: recovery finished or undid the in-flight ledger op.
#[cfg(unix)]
fn inherit_ledger(me: &WorkerPlane, split: KeySplit) -> u64 {
    for k in (0..me.ledger_cap()).filter(|&k| split.is_shared(k)) {
        // A published cell is its peer's to claim: never write it.
        let cell = me.ledger_get(k);
        if cell != 0 && cell & PUBLISHED == 0 {
            me.ledger_set(k, cell | PUBLISHED);
        }
    }
    me.ledger_live().len() as u64
}

/// Which keys are shared, and whose shared cell a worker frees: pure
/// arithmetic, so every incarnation and the coordinator agree.
///
/// Key `k` of every worker is shared iff `k < shared_keys`, the Zipf-hot
/// head of every key range. Home `h` fills its shared cell `k` and never
/// frees it; its one freer is peer `(h + 1 + k mod (W-1)) mod W`, whose
/// shared-key delete claims the cell of its [`KeySplit::partner`]. One
/// claimer per cell keeps the detectable free safe: a claimer whose CAS
/// lost and who died before recording it would look like the winner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeySplit {
    workers: u32,
    shared_keys: u64,
}

impl KeySplit {
    /// The split of `workers` ledgers of `ledger_cap` cells with
    /// `shared_pct` percent shared; a lone worker shares nothing.
    pub fn new(workers: u32, ledger_cap: u64, shared_pct: u8) -> KeySplit {
        let shared_keys = if workers > 1 { ledger_cap * shared_pct as u64 / 100 } else { 0 };
        KeySplit { workers, shared_keys }
    }

    /// Whether key `k` is shared.
    pub fn is_shared(&self, k: u64) -> bool {
        k < self.shared_keys
    }

    /// The home whose shared cell `k` worker `peer` frees: the one whose
    /// route lands on `peer`, never `peer` itself.
    pub fn partner(&self, peer: u32, k: u64) -> u32 {
        let w = self.workers as u64;
        ((peer as u64 + w - 1 - k % (w - 1)) % w) as u32
    }
}

/// The one exit path, for a clean stop and a SIGTERM drain alike:
/// publish the final state first so the watchdog stops expecting
/// heartbeats, flush remote-free buffers + the core's cache
/// ([`ThreadHandle::flush_cache`]), freeze the lease so no detector
/// mistakes the silence for a crash, report, and return the exit code.
#[cfg(unix)]
fn leave(
    handle: &ThreadHandle,
    me: &WorkerPlane,
    evt: &crate::rpc::Ring,
    ops: u64,
    drained: bool,
) -> Result<i32, String> {
    me.set_status(status::STATE, if drained { state::DRAINED } else { state::DONE });
    handle.flush_cache();
    handle.freeze_lease();
    let live = me.ledger_live().len() as u64;
    if evt
        .push_wait(Msg::Exited { drained, ops, live }, "exited", Duration::from_secs(2))
        .is_err()
    {
        // Best-effort: the coordinator also keys off the exit code.
        me.bump_status(status::TIMEOUTS, 1);
    }
    Ok(if drained { exit::DRAINED } else { exit::OK })
}

#[cfg(unix)]
struct ServeLoop<'a> {
    handle: ThreadHandle,
    clock: OpClock,
    me: &'a WorkerPlane,
    evt: &'a crate::rpc::Ring,
    plane: &'a ControlPlane,
    keys: Keys,
    args: &'a WorkerArgs,
}

/// A worker's view of the ledgers its ops touch: its own, and for a
/// shared-key delete its partner's.
#[cfg(unix)]
struct Keys {
    split: KeySplit,
    index: u32,
    /// Every worker's ledger, by index.
    ledgers: Vec<WorkerPlane>,
}

/// Salt mixing the worker seed into the skew RNG so the Zipf overlay
/// draws independently of the op stream (which consumes the raw seed).
const SKEW_SEED_SALT: u64 = 0x5a1f_5eed_0c0d_e5a1;

#[cfg(unix)]
fn serve(mut s: ServeLoop<'_>) -> Result<i32, String> {
    let (cap, args) = (s.me.ledger_cap(), s.args);
    let spec = spec_by_id(args.spec, cap);
    let mut stream = OpStream::new(spec, StdRng::seed_from_u64(args.seed));
    let mut skew = args
        .shared_skew
        .map(|theta| (Zipfian::new(cap, theta), StdRng::seed_from_u64(args.seed ^ SKEW_SEED_SALT)));
    let hb_every = args.hb_every.max(1);
    let (mut ops, mut next_beat) = (0u64, 0u64);
    let mut chaos = args.chaos.iter().peekable();
    loop {
        // Op-exact chaos: each due event fires once, through the real
        // signal path. A kill vanishes here with no destructors, flushes
        // or goodbyes; a stall resumes here on SIGCONT, already
        // consumed, so it cannot re-fire; a drain waits until the
        // handler's flag is visible, and no later event fires after it.
        while let Some(&(_, kind)) = chaos.next_if(|(at, _)| {
            *at == ops && !DRAIN_SIGNAL.load(Ordering::Relaxed)
        }) {
            crate::send_signal(std::process::id(), kind.signal());
            while kind == Chaos::Drain && !DRAIN_SIGNAL.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        }
        if DRAIN_SIGNAL.load(Ordering::Relaxed) {
            return leave(&s.handle, s.me, s.evt, ops, true);
        }
        if args.target_ops != 0 && ops >= args.target_ops {
            break;
        }
        if ops.is_multiple_of(256) && s.plane.run_state() == rpc::run_state::STOPPING {
            break;
        }
        if ops == next_beat {
            next_beat += hb_every;
            if let Err(code) = beat(&s.handle, s.me, s.evt) {
                return Ok(code);
            }
        }
        let mut op = stream.next_op();
        if let Some((zipf, rng)) = skew.as_mut() {
            skew_op(&mut op, zipf.rank(rng.gen::<f64>()));
        }
        let t0 = s.clock.now();
        apply_op(&mut s.handle, s.me, &s.keys, &op)?;
        s.me.record_latency(s.clock.since(t0));
        ops += 1;
        s.me.set_ops(ops);
    }
    leave(&s.handle, s.me, s.evt, ops, false)
}

/// Applies one KV op to the worker's ledger slice.
///
/// Key `k` is ledger cell `k`: the op stream draws keys in `0..cap` (the
/// spec's key space is the ledger's capacity, and a skew rank is below
/// it too), so no key is reduced modulo the capacity. A key out of range
/// panics in [`WorkerPlane::ledger_cell`] instead of aliasing a cell.
///
/// Each cell write is inside one detectable allocator op (an insert
/// delivers into the cell, a delete claims it), so any crash leaves the
/// cell and the heap agreeing. A shared key's insert fills and then
/// publishes this worker's cell, skipping an occupied one; its delete
/// claims the partner's published cell ([`KeySplit`]).
#[cfg(unix)]
fn apply_op(
    handle: &mut ThreadHandle,
    me: &WorkerPlane,
    keys: &Keys,
    op: &KvOp,
) -> Result<(), String> {
    match *op {
        KvOp::Read { key } => {
            let cell = me.ledger_get(key) & !PUBLISHED;
            if let Some(ptr) = OffsetPtr::new(cell) {
                let raw = handle.resolve(ptr, 8).map_err(|e| format!("resolve: {e}"))?;
                // Touch the block so reads exercise PC-T mappings.
                unsafe { std::ptr::read_volatile(raw) };
            }
        }
        KvOp::Insert { key: k, key_len, value_len } => {
            let shared = keys.split.is_shared(k);
            let cell = me.ledger_get(k);
            if cell != 0 {
                if shared {
                    // The key's peer frees it; the home never does.
                    return Ok(());
                }
                free_cell(handle, me, me, k, cell)?;
            }
            let size = (key_len as usize + value_len as usize).clamp(8, 64 << 10);
            let dst = OffsetPtr::new(me.ledger_cell(k)).expect("ledger cells are never offset 0");
            match handle.alloc_detectable(size, dst) {
                Ok(ptr) => {
                    me.bump_status(status::ALLOCS, 1);
                    let raw =
                        handle.resolve(ptr, 8).map_err(|e| format!("resolve: {e}"))?;
                    unsafe { (raw as *mut u64).write_volatile(k) };
                    // Only now may the peer claim the cell: a claim inside
                    // the allocation would race its recovery's check.
                    if shared {
                        me.ledger_set(k, ptr.offset() | PUBLISHED);
                    }
                }
                // Serving must degrade, not die, when a heap fills:
                // treat the insert as rejected.
                Err(AllocError::OutOfMemory { .. }) => {}
                Err(e) => return Err(format!("alloc: {e}")),
            }
        }
        KvOp::Delete { key: k } => {
            let shared = keys.split.is_shared(k);
            let ledger = if shared { &keys.ledgers[keys.split.partner(keys.index, k) as usize] } else { me };
            let cell = ledger.ledger_get(k);
            // A peer claims only a published cell.
            if cell != 0 && (!shared || cell & PUBLISHED != 0) {
                free_cell(handle, me, ledger, k, cell)?;
                if shared {
                    me.bump_status(status::FORWARDED, 1);
                }
            }
        }
    }
    Ok(())
}

/// Frees the block cell `k` of `ledger` names, claiming the cell, which
/// holds `cell` (the block's offset, tagged if published); `me` counts
/// the free. A failure names what the heap image says of the block now
/// (`audit::block_state`), telling a block already free from a torn
/// descriptor.
#[cfg(unix)]
fn free_cell(
    handle: &mut ThreadHandle,
    me: &WorkerPlane,
    ledger: &WorkerPlane,
    k: u64,
    cell: u64,
) -> Result<(), String> {
    let ptr = OffsetPtr::new(cell & !PUBLISHED).expect("a live cell names a block");
    let dst = OffsetPtr::new(ledger.ledger_cell(k)).expect("ledger cells are never offset 0");
    if let Err(e) = handle.dealloc_detectable(ptr, dst, cell) {
        let state = block_state(handle.heap().process().memory().as_ref(), handle.core(), ptr.offset())
            .map_or_else(|probe| format!("unprobeable: {probe}"), |state| format!("{state:?}"));
        return Err(format!("dealloc (cell {:#x} key {k}): {e}; block_state {state}", dst.offset()));
    }
    me.bump_status(status::FREES, 1);
    Ok(())
}

/// One heartbeat; on a stolen lease, publishes the steal and returns
/// the exit code to die with.
#[cfg(unix)]
fn beat(handle: &ThreadHandle, me: &WorkerPlane, evt: &crate::rpc::Ring) -> Result<(), i32> {
    match handle.heartbeat() {
        Ok(()) => Ok(()),
        Err(AllocError::LeaseStolen { thread, .. }) => {
            me.set_status(status::STOLEN, 1);
            let _ = evt.push(Msg::Stolen { tid: thread.raw() });
            Err(exit::STOLEN)
        }
        // Transient device contention: skip this beat, renew next time.
        Err(AllocError::DeviceContention { .. }) => Ok(()),
        Err(_) => Err(exit::FATAL),
    }
}

/// Replaces an op's key with the skew-sampled Zipf rank: rank 0 is the
/// hottest key and maps to key 0 — the head of the shared cut — so
/// `--shared-skew` concentrates traffic exactly where peers free.
fn skew_op(op: &mut KvOp, rank: u64) {
    match op {
        KvOp::Read { key } | KvOp::Delete { key } | KvOp::Insert { key, .. } => *key = rank,
    }
}

/// Pure replay of the ledger effect of `ops` operations: the same
/// stream, key mapping (including the `--shared-skew` overlay), and
/// cell protocol as [`run`] for partitioned keys, minus the heap.
/// Crash-audit tests use it to predict the exact live-block population
/// a (deterministically killed) worker leaves behind.
pub fn simulate_ledger(
    spec_id: u8,
    seed: u64,
    cap: u64,
    ops: u64,
    shared_skew: Option<f64>,
    cells: &mut Vec<bool>,
) {
    cells.resize(cap as usize, false);
    let spec = spec_by_id(spec_id, cap);
    let mut stream = OpStream::new(spec, StdRng::seed_from_u64(seed));
    let mut skew = shared_skew
        .map(|theta| (Zipfian::new(cap, theta), StdRng::seed_from_u64(seed ^ SKEW_SEED_SALT)));
    for _ in 0..ops {
        let mut op = stream.next_op();
        if let Some((zipf, rng)) = skew.as_mut() {
            skew_op(&mut op, zipf.rank(rng.gen::<f64>()));
        }
        match op {
            KvOp::Read { .. } => {}
            KvOp::Insert { key, .. } => cells[key as usize] = true,
            KvOp::Delete { key } => cells[key as usize] = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_roundtrip() {
        let args = WorkerArgs {
            file: "/tmp/x.seg".into(),
            config: PodConfig::small_for_tests(),
            workers: 4,
            ledger_cap: 512,
            index: 2,
            seed: 0xfeed_beef,
            spec: 1,
            hb_every: 64,
            target_ops: 2500,
            adopt: Some((7, 3)),
            chaos: vec![(1000, Chaos::Kill), (1500, Chaos::Stall), (2000, Chaos::Drain)],
            shared_pct: 50,
            remote_batch: 8,
            shared_skew: Some(0.9),
        };
        let rendered = args.to_args();
        let parsed = WorkerArgs::parse(&rendered).unwrap();
        assert_eq!(parsed.to_args(), rendered);
        let run = (parsed.seed, parsed.spec, parsed.hb_every, parsed.target_ops);
        assert_eq!(run, (0xfeed_beef, 1, 64, 2500));
        assert_eq!(parsed.adopt, Some((7, 3)));
        assert_eq!(parsed.chaos, args.chaos);
        assert_eq!(parsed.shared_pct, 50);
        assert_eq!(parsed.remote_batch, 8);
        assert_eq!(parsed.shared_skew, Some(0.9));
        assert!(WorkerArgs::parse(&["--bogus".into()]).is_err());
        assert!(WorkerArgs::parse(&[]).is_err());
        let mut over = rendered.clone();
        let pct = over.iter().position(|a| a == "--shared-pct").unwrap();
        over[pct + 1] = "101".into();
        assert!(WorkerArgs::parse(&over).is_err(), "--shared-pct caps at 100");
        let mut theta = rendered.clone();
        let sk = theta.iter().position(|a| a == "--shared-skew").unwrap();
        theta[sk + 1] = "1.0".into();
        assert!(WorkerArgs::parse(&theta).is_err(), "--shared-skew is open (0,1)");
        theta[sk + 1] = "0".into();
        assert!(WorkerArgs::parse(&theta).is_err(), "--shared-skew is open (0,1)");

        // `--at` parses in any order and comes back sorted by op count
        // (kill before drain before stall at the same op).
        let mut at = rendered.clone();
        for event in ["900:stall", "40:drain", "900:kill"] {
            at.extend(["--at".to_string(), event.into()]);
        }
        assert_eq!(
            WorkerArgs::parse(&at).unwrap().chaos,
            vec![
                (40, Chaos::Drain),
                (900, Chaos::Kill),
                (900, Chaos::Stall),
                (1000, Chaos::Kill),
                (1500, Chaos::Stall),
                (2000, Chaos::Drain),
            ]
        );
        for bad in ["900:nap", "900", "kill:900"] {
            let mut v = rendered.clone();
            v.extend(["--at".to_string(), bad.into()]);
            assert!(WorkerArgs::parse(&v).is_err(), "--at {bad} must be rejected");
        }
        for bad in ["7", "7:", "7:70000"] {
            let mut v = rendered.clone();
            v.extend(["--adopt".to_string(), bad.into()]);
            assert!(WorkerArgs::parse(&v).is_err(), "--adopt {bad} must be rejected");
        }
    }

    #[test]
    fn partner_inverts_the_route_and_is_never_self() {
        // One claimer per shared cell: home `h`'s cell `k` is freed only
        // by the route's peer, and that peer's partner for `k` is `h`.
        for workers in 2..=8u32 {
            let split = KeySplit::new(workers, 64, 50);
            for k in (0..64).filter(|&k| split.is_shared(k)) {
                for home in 0..workers {
                    let peer = (home as u64 + 1 + k % (workers as u64 - 1)) % workers as u64;
                    assert_ne!(peer, home as u64, "W={workers}: key {k} of {home} routed to itself");
                    assert_eq!(split.partner(peer as u32, k), home, "W={workers} key {k}");
                }
                let partners: std::collections::BTreeSet<u32> =
                    (0..workers).map(|peer| split.partner(peer, k)).collect();
                assert_eq!(partners.len(), workers as usize, "W={workers} key {k}: one freer per home");
            }
        }
        assert!(!KeySplit::new(1, 64, 100).is_shared(0), "a lone worker shares nothing");
    }

    /// A heap on a real shared segment with a two-worker control plane
    /// of `cap` cells each, the file already unlinked.
    #[cfg(unix)]
    fn shared_heap(tag: &str, cap: u64) -> (Pod, ControlPlane, Cxlalloc) {
        let file = std::env::temp_dir().join(format!("cxl-serve-unit-{}-{tag}.seg", std::process::id()));
        let pod = Pod::create_shared(PodConfig::small_for_tests(), &file, rpc::tail_bytes(2, cap)).unwrap();
        let _ = std::fs::remove_file(&file);
        let plane = ControlPlane::new(pod.memory().segment().clone(), pod.layout().total_len, 2, cap);
        plane.init();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        (pod, plane, heap)
    }

    /// The registry state and lease epoch of `tid`'s slot.
    #[cfg(unix)]
    fn slot_word(pod: &Pod, tid: ThreadId) -> (u64, u16) {
        let (mem, layout) = (pod.memory(), pod.layout());
        let registry = mem.load_u64(CoreId(0), layout.registry_at(tid.slot()));
        (registry, lease::epoch(mem.load_u64(CoreId(0), layout.lease_at(tid.slot()))))
    }

    #[cfg(unix)]
    #[test]
    fn a_loser_never_adopts_the_winners_silent_lease() {
        let (pod, plane, heap) = shared_heap("loser", 8);
        let victim = heap.register_thread().unwrap();
        let (tid, death) = (victim.tid(), victim.lease_epoch());
        drop(victim);
        assert!(heap.mark_crashed(tid).unwrap());
        // The winner adopts, then stays silent: its lease never moves.
        let (winner, _) = heap.adopt(tid, CoreId(1)).unwrap();
        assert_eq!(winner.lease_epoch(), death.wrapping_add(1));
        let before = slot_word(&pod, tid);
        let split = KeySplit::new(2, 8, 0);
        assert!(adopt(&heap, &plane.worker(0), split, tid, death).unwrap().is_none(), "the loser adopted again");
        assert_eq!(slot_word(&pod, tid), before, "the loser touched the winner's slot");
        assert_eq!(plane.worker(0).evt_ring().pop().unwrap(), None, "a loser reports nothing");
    }

    #[cfg(unix)]
    #[test]
    fn a_late_winner_adopts_while_stopping() {
        let (pod, plane, heap) = shared_heap("late", 8);
        plane.set_run_state(rpc::run_state::STOPPING);
        // A victim that died without a word: its lease stands still.
        let victim = heap.register_thread().unwrap();
        let (tid, death) = (victim.tid(), victim.lease_epoch());
        drop(victim);
        let me = plane.worker(0);
        let handle = adopt(&heap, &me, KeySplit::new(2, 8, 0), tid, death).unwrap();
        let handle = handle.expect("the run's stopping is no reason to leave a victim unadopted");
        assert_eq!((handle.tid(), handle.lease_epoch()), (tid, death.wrapping_add(1)));
        assert_eq!(slot_word(&pod, tid).0, cxl_core::liveness::registry::LIVE);
        let report = me.evt_ring().pop().unwrap();
        assert!(matches!(report, Some(Msg::AdoptReport { victim, .. }) if victim == tid.raw()), "{report:?}");
    }

    #[cfg(unix)]
    #[test]
    fn a_freer_never_claims_an_unpublished_cell() {
        let (workers, cap) = (2u32, 8u64);
        let (_pod, plane, heap) = shared_heap("freer", cap);
        let (mut home, mut peer) = (heap.register_thread().unwrap(), heap.register_thread().unwrap());
        let keys = |index| Keys {
            split: KeySplit::new(workers, cap, 50),
            index,
            ledgers: (0..workers).map(|w| plane.worker(w)).collect(),
        };
        let (ledger, peer_plane) = (plane.worker(0), plane.worker(1));
        let insert = KvOp::Insert { key: 1, key_len: 8, value_len: 56 };
        apply_op(&mut home, &ledger, &keys(0), &insert).unwrap();
        let published = ledger.ledger_get(1);
        assert_eq!(published & PUBLISHED, PUBLISHED, "a shared insert publishes its cell");
        // The window between the allocation's return and the publish.
        ledger.ledger_set(1, published & !PUBLISHED);
        apply_op(&mut peer, &peer_plane, &keys(1), &KvOp::Delete { key: 1 }).unwrap();
        assert_eq!(ledger.ledger_get(1), published & !PUBLISHED, "an unpublished cell is not claimed");
        assert_eq!(peer_plane.status(status::FORWARDED), 0);
        // The home skips an insert into its occupied cell.
        apply_op(&mut home, &ledger, &keys(0), &insert).unwrap();
        assert_eq!(ledger.status(status::ALLOCS), 1);
        ledger.ledger_set(1, published);
        apply_op(&mut peer, &peer_plane, &keys(1), &KvOp::Delete { key: 1 }).unwrap();
        assert_eq!(ledger.ledger_get(1), 0, "a published cell is claimed");
        assert_eq!((peer_plane.status(status::FORWARDED), peer_plane.status(status::FREES)), (1, 1));
        peer.flush_cache();
        let census = heap.census(CoreId(0)).unwrap();
        assert_eq!(census.total() as u64, census.remote_pending_total(), "the peer freed the home's block");
    }

    #[test]
    fn specs_stay_inside_slab_heaps() {
        for id in [0u8, 1] {
            let spec = spec_by_id(id, 512);
            assert_eq!(spec.key_space, 512);
            let worst = (spec.key_size.max() + spec.value_size.max()) as usize;
            assert!(worst <= 64 << 10, "spec {id} can reach the huge heap");
        }
    }

    #[test]
    fn streams_draw_keys_inside_the_ledger() {
        // `apply_op` indexes the ledger by key, unreduced: every key the
        // stream or the skew overlay draws must be a cell.
        let cap = 97;
        for id in [0u8, 1] {
            let mut stream = OpStream::new(spec_by_id(id, cap), StdRng::seed_from_u64(7));
            for _ in 0..20_000 {
                let (KvOp::Read { key } | KvOp::Delete { key } | KvOp::Insert { key, .. }) = stream.next_op();
                assert!(key < cap, "spec {id} drew key {key} of {cap}");
            }
        }
        let (zipf, mut rng) = (Zipfian::new(cap, 0.99), StdRng::seed_from_u64(7));
        assert!((0..20_000).all(|_| zipf.rank(rng.gen::<f64>()) < cap));
        assert_eq!(zipf.rank(1.0), cap - 1, "the coldest rank is the last cell");
    }

    #[test]
    fn ledger_simulation_is_deterministic() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        simulate_ledger(0, 42, 128, 5_000, None, &mut a);
        simulate_ledger(0, 42, 128, 5_000, None, &mut b);
        assert_eq!(a, b);
        assert!(a.iter().any(|&x| x), "5000 YCSB-A ops never inserted");
    }

    #[test]
    fn skewed_simulation_is_deterministic_and_concentrated() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        simulate_ledger(0, 42, 128, 5_000, Some(0.9), &mut a);
        simulate_ledger(0, 42, 128, 5_000, Some(0.9), &mut b);
        assert_eq!(a, b, "the skew overlay must replay bit-for-bit");
        let mut plain = Vec::new();
        simulate_ledger(0, 42, 128, 5_000, None, &mut plain);
        assert_ne!(a, plain, "theta 0.9 must actually reshape the key stream");
        // The overlay samples *unscrambled* ranks (rank 0 = key 0), so
        // traffic concentrates on the head of the key range — where the
        // shared cut lives — unlike the spec's scrambled distribution.
        let head_touched = a[..8].iter().filter(|x| **x).count();
        assert!(
            head_touched > 0 || a.iter().filter(|x| **x).count() == 0,
            "the hot head must see traffic under the skew overlay"
        );
    }
}
