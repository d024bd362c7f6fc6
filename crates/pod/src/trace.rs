//! Latency-attribution event tracing (the observability layer).
//!
//! Every simulated-latency charge the pod substrate makes — coherence
//! fills, writebacks, flush/fence stalls, NMP mCAS round trips — is
//! recorded here as a typed [`Event`] carrying the exact nanosecond
//! cost the [`latency`](crate::latency) model charged for it. The
//! allocator layers on top emit zero-cost *structural* events (slab
//! alloc/free, remote-free publishes, lease renewals, CAS retries)
//! through the same stream, so a trace answers both "where did the
//! time go" and "what was the allocator doing when it went there".
//!
//! # Discipline: a true no-op when disarmed
//!
//! Like [`fault`](crate::fault), the tracer follows the
//! armed-[`AtomicBool`] discipline: every emission site guards on
//! [`Tracer::enabled`] — a single relaxed load — before computing
//! anything else (including the timestamp). Disarmed, tracing adds
//! one predictable branch per substrate operation and allocates
//! nothing; the repo benchmark (`pod-bench`, `benchmark/`) and the CI
//! gates (`bench-gates`) run with the tracer disarmed and must not move.
//!
//! # Determinism: the tracer is a correctness oracle
//!
//! Schedules under [`sched`](../cxl_core/sched/index.html) are
//! deterministic and single-threaded, and every event's cost is the
//! *return value* of the latency model's charge (jitter included), so
//! two replays of the same seed produce **byte-identical** event
//! streams ([`Trace::to_bytes`]) and equal [`Tracer::fingerprint`]s.
//! A diverging fingerprint is a determinism bug, exactly like a
//! diverging schedule fingerprint.
//!
//! # Cost accounting invariant
//!
//! Cost-bearing events are emitted *only* at clock-advance sites, with
//! the charged duration the clock actually advanced by. Therefore for
//! every core, `Σ event.cost_ns == PodMemory::virtual_ns(core)`
//! exactly — [`attribution::Attribution::total_ns`] reconciles against
//! the run's `MemStats`-adjacent totals with no rounding slack. The
//! attribution table is folded *incrementally at emit time*, so ring
//! overflow (which drops the oldest retained events) never loses
//! attribution or fingerprint coverage — only exportable event detail.
//!
//! # Example
//!
//! ```
//! use cxl_pod::trace::{Tracer, TraceKind};
//!
//! let tracer = Tracer::new(2);
//! assert!(!tracer.enabled(), "tracers start disarmed");
//! tracer.arm();
//! let phase = tracer.phase_id("warmup");
//! tracer.set_phase(0, phase);
//! tracer.emit(0, TraceKind::LoadFill, 0x40, 357, 357);
//! tracer.emit(0, TraceKind::Fence, 0, 25, 382);
//! let attr = tracer.attribution();
//! assert_eq!(attr.total_ns(), 382);
//! let trace = tracer.snapshot();
//! assert_eq!(trace.cores[0].events.len(), 2);
//! assert_eq!(trace.cores[0].events[0].kind, TraceKind::LoadFill);
//! ```

use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};

/// Typed event classes. The discriminant is the on-wire id (byte 0 of
/// an event's packed header word); new kinds append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum TraceKind {
    /// Cached load served from the simulated core cache.
    LoadHit = 0,
    /// Cached load that missed and filled a line from CXL.
    LoadFill = 1,
    /// Load from the hardware-coherent (HWcc) window.
    LoadHwcc = 2,
    /// Uncached load (HWcc mode `None`).
    LoadUncached = 3,
    // Id 4 is retired (the bulk span load); it stays unused so later
    // ids do not move.
    /// Cached store that dirtied a line.
    StoreDirty = 5,
    /// Store to the HWcc window.
    StoreHwcc = 6,
    /// Uncached store.
    StoreUncached = 7,
    /// Coherent CAS on an HWcc-region cell (`Full` / `Limited`),
    /// serialized on the line's resource clock.
    CasAttempt = 8,
    /// CAS retry loop iteration (allocator-level; zero cost).
    CasRetry = 9,
    /// Software-emulated CAS on the fallback path (NMP outage).
    CasFallback = 10,
    /// NMP mCAS round trip that succeeded device-side.
    McasAttempt = 11,
    /// NMP mCAS round trip that failed (contention / fault).
    McasRetry = 12,
    /// Injected NMP service delay (fault layer; extra charge).
    McasDelay = 13,
    /// Coherence line fill (structural; zero cost — charged by the
    /// enclosing load/store event).
    LineFill = 14,
    /// Coherence writeback of a dirty line (structural unless a
    /// `DelayWriteback` fault charged extra).
    Writeback = 15,
    /// Explicit flush of a span (`arg` = dirty lines written back).
    Flush = 16,
    /// Flush dropped by an injected `DropFlush` fault.
    FlushDropped = 17,
    /// Ordering fence.
    Fence = 18,
    /// Whole-cache discard from an injected `AbandonCache` fault.
    CacheAbandon = 19,
    /// Block allocation handed to the application (`arg` = offset).
    SlabAlloc = 20,
    /// Block free, local or remote-buffered (`arg` = offset).
    SlabFree = 21,
    /// Batched remote-free publish (`arg` = batch width `k`).
    RemoteFreePublish = 22,
    /// Liveness lease renewal (heartbeat).
    LeaseRenew = 23,
    // Ids 24 and 25 are retired (the flat-combining win / wait events);
    // they stay unused so later ids do not move.
    /// Explicit write-back of a span with the line *retained* in the
    /// core's cache — clwb semantics, vs [`TraceKind::Flush`]'s
    /// evicting clflush (`arg` = dirty lines written back).
    WritebackKept = 26,
    // Id 27 is retired (the bulk span store), like 4.
    /// Fabric queue-wait: time spent queued at fabric stations (host
    /// port / switch / device port) before service began (`arg` =
    /// payload bytes). Emitted only when the wait is nonzero.
    FabricQueue = 28,
    /// Fabric service: port + switch + device occupancy plus link
    /// serialization for one crossing (`arg` = payload bytes). Emitted
    /// once per fabric request, so its count equals `fabric_requests`.
    FabricService = 29,
}

/// Size of the event-kind id space (one past the highest
/// discriminant, retired ids included): per-kind tables are indexed by
/// id.
pub const KIND_COUNT: usize = 30;

/// All kinds, in discriminant order.
pub const ALL_KINDS: [TraceKind; 26] = [
    TraceKind::LoadHit,
    TraceKind::LoadFill,
    TraceKind::LoadHwcc,
    TraceKind::LoadUncached,
    TraceKind::StoreDirty,
    TraceKind::StoreHwcc,
    TraceKind::StoreUncached,
    TraceKind::CasAttempt,
    TraceKind::CasRetry,
    TraceKind::CasFallback,
    TraceKind::McasAttempt,
    TraceKind::McasRetry,
    TraceKind::McasDelay,
    TraceKind::LineFill,
    TraceKind::Writeback,
    TraceKind::Flush,
    TraceKind::FlushDropped,
    TraceKind::Fence,
    TraceKind::CacheAbandon,
    TraceKind::SlabAlloc,
    TraceKind::SlabFree,
    TraceKind::RemoteFreePublish,
    TraceKind::LeaseRenew,
    TraceKind::WritebackKept,
    TraceKind::FabricQueue,
    TraceKind::FabricService,
];

impl TraceKind {
    /// Decodes a discriminant byte.
    pub fn from_u8(raw: u8) -> Option<TraceKind> {
        ALL_KINDS.iter().copied().find(|&kind| kind as u8 == raw)
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::LoadHit => "load_hit",
            TraceKind::LoadFill => "load_fill",
            TraceKind::LoadHwcc => "load_hwcc",
            TraceKind::LoadUncached => "load_uncached",
            TraceKind::StoreDirty => "store_dirty",
            TraceKind::StoreHwcc => "store_hwcc",
            TraceKind::StoreUncached => "store_uncached",
            TraceKind::CasAttempt => "cas_attempt",
            TraceKind::CasRetry => "cas_retry",
            TraceKind::CasFallback => "cas_fallback",
            TraceKind::McasAttempt => "mcas_attempt",
            TraceKind::McasRetry => "mcas_retry",
            TraceKind::McasDelay => "mcas_delay",
            TraceKind::LineFill => "line_fill",
            TraceKind::Writeback => "writeback",
            TraceKind::Flush => "flush",
            TraceKind::FlushDropped => "flush_dropped",
            TraceKind::Fence => "fence",
            TraceKind::CacheAbandon => "cache_abandon",
            TraceKind::SlabAlloc => "slab_alloc",
            TraceKind::SlabFree => "slab_free",
            TraceKind::RemoteFreePublish => "remote_free_publish",
            TraceKind::LeaseRenew => "lease_renew",
            TraceKind::WritebackKept => "clwb",
            TraceKind::FabricQueue => "fabric_queue",
            TraceKind::FabricService => "fabric_service",
        }
    }

    /// Coarse category, used by the Chrome exporter's `cat` field and
    /// the attribution table's grouping.
    pub fn category(self) -> &'static str {
        match self {
            TraceKind::LoadHit
            | TraceKind::LoadFill
            | TraceKind::LoadHwcc
            | TraceKind::LoadUncached => "load",
            TraceKind::StoreDirty | TraceKind::StoreHwcc | TraceKind::StoreUncached => "store",
            TraceKind::CasAttempt | TraceKind::CasRetry | TraceKind::CasFallback => "cas",
            TraceKind::McasAttempt | TraceKind::McasRetry | TraceKind::McasDelay => "nmp",
            TraceKind::LineFill | TraceKind::Writeback | TraceKind::CacheAbandon => "cache",
            TraceKind::Flush
            | TraceKind::FlushDropped
            | TraceKind::Fence
            | TraceKind::WritebackKept => "ordering",
            TraceKind::SlabAlloc
            | TraceKind::SlabFree
            | TraceKind::RemoteFreePublish
            | TraceKind::LeaseRenew => "alloc",
            TraceKind::FabricQueue | TraceKind::FabricService => "fabric",
        }
    }
}

/// Interned phase label. Phase 0 is always `"run"`.
pub type PhaseId = u8;

/// Upper bound on distinct phases (ids are a packed byte).
pub const MAX_PHASES: usize = 32;

/// One decoded trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Event class.
    pub kind: TraceKind,
    /// Phase the emitting core was in (see [`Tracer::phase_id`]).
    pub phase: PhaseId,
    /// Emitting core.
    pub core: u16,
    /// Simulated nanoseconds this event was charged (0 for
    /// structural events).
    pub cost_ns: u32,
    /// Kind-specific argument (offset, lines written, batch width, …).
    pub arg: u64,
    /// The core's virtual clock *after* the charge landed.
    pub stamp_ns: u64,
}

impl Event {
    fn pack(self) -> [u64; 3] {
        let w0 = self.kind as u64
            | (u64::from(self.phase) << 8)
            | (u64::from(self.core) << 16)
            | (u64::from(self.cost_ns) << 32);
        [w0, self.arg, self.stamp_ns]
    }

    fn unpack(words: [u64; 3]) -> Event {
        Event {
            kind: TraceKind::from_u8(words[0] as u8).expect("corrupt event kind"),
            phase: (words[0] >> 8) as u8,
            core: (words[0] >> 16) as u16,
            cost_ns: (words[0] >> 32) as u32,
            arg: words[1],
            stamp_ns: words[2],
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

#[inline]
fn fnv_mix(fp: u64, word: u64) -> u64 {
    (fp ^ word).wrapping_mul(FNV_PRIME)
}

/// Per-core ring state. Events beyond `capacity` overwrite the oldest
/// retained event; the fingerprint and attribution accumulators are
/// folded at emit time, before retention, so they cover the *full*
/// stream regardless of overflow.
#[derive(Debug)]
struct CoreRing {
    events: Vec<[u64; 3]>,
    head: usize,
    emitted: u64,
    dropped: u64,
    fingerprint: u64,
    /// Timestamp of the most recent stamped event; structural events
    /// emitted below the clock layer ([`Tracer::emit_here`]) reuse it.
    last_stamp: u64,
    /// `(count, total_ns)` per `[phase][kind]`; phases grow on demand.
    attribution: Vec<[(u64, u64); KIND_COUNT]>,
}

impl CoreRing {
    fn new() -> Self {
        CoreRing {
            events: Vec::new(),
            head: 0,
            emitted: 0,
            dropped: 0,
            fingerprint: FNV_OFFSET,
            last_stamp: 0,
            attribution: Vec::new(),
        }
    }

    fn push(&mut self, capacity: usize, words: [u64; 3], phase: u8, kind: u8, cost: u64) {
        self.emitted += 1;
        for w in words {
            self.fingerprint = fnv_mix(self.fingerprint, w);
        }
        while self.attribution.len() <= phase as usize {
            self.attribution.push([(0, 0); KIND_COUNT]);
        }
        let cell = &mut self.attribution[phase as usize][kind as usize];
        cell.0 += 1;
        cell.1 += cost;
        if self.events.len() < capacity {
            self.events.push(words);
        } else {
            self.events[self.head] = words;
            self.head = (self.head + 1) % capacity;
            self.dropped += 1;
        }
    }

    fn in_order(&self) -> Vec<[u64; 3]> {
        let mut out = Vec::with_capacity(self.events.len());
        out.extend_from_slice(&self.events[self.head..]);
        out.extend_from_slice(&self.events[..self.head]);
        out
    }
}

/// Default per-core ring capacity (events retained for export).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 16;

/// Per-core, lock-free-when-disarmed event tracer.
///
/// Construction allocates only empty rings; arming it does not
/// allocate either — rings grow as events arrive. Each core's ring is
/// behind its own mutex, uncontended by construction (a core id is
/// used by one OS thread at a time, and deterministic schedules are
/// single-threaded).
#[derive(Debug)]
pub struct Tracer {
    armed: AtomicBool,
    capacity: usize,
    rings: Vec<Mutex<CoreRing>>,
    /// Current phase per core, read at emit time.
    phase: Vec<AtomicU8>,
    /// Interned phase names; index = `PhaseId`.
    names: Mutex<Vec<String>>,
}

impl Tracer {
    /// Tracer for `cores` cores with the default ring capacity.
    pub fn new(cores: usize) -> Self {
        Self::with_capacity(cores, DEFAULT_RING_CAPACITY)
    }

    /// Tracer retaining at most `capacity` events per core.
    pub fn with_capacity(cores: usize, capacity: usize) -> Self {
        Tracer {
            armed: AtomicBool::new(false),
            capacity: capacity.max(1),
            rings: (0..cores).map(|_| Mutex::new(CoreRing::new())).collect(),
            phase: (0..cores).map(|_| AtomicU8::new(0)).collect(),
            names: Mutex::new(vec!["run".to_string()]),
        }
    }

    /// Whether tracing is armed. One relaxed load; every emission
    /// site checks this before doing any other work.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Starts recording.
    pub fn arm(&self) {
        self.armed.store(true, Ordering::Release);
    }

    /// Stops recording (retained events stay readable).
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::Release);
    }

    /// Clears all rings, counters, and attribution (armed state and
    /// interned phase names are kept).
    pub fn reset(&self) {
        for ring in &self.rings {
            *ring.lock() = CoreRing::new();
        }
    }

    /// Interns `name` and returns its [`PhaseId`] (idempotent).
    ///
    /// # Panics
    ///
    /// Panics past [`MAX_PHASES`] distinct names.
    pub fn phase_id(&self, name: &str) -> PhaseId {
        let mut names = self.names.lock();
        if let Some(i) = names.iter().position(|n| n == name) {
            return i as PhaseId;
        }
        assert!(names.len() < MAX_PHASES, "too many trace phases");
        names.push(name.to_string());
        (names.len() - 1) as PhaseId
    }

    /// Moves `core` into `phase`; subsequent events from that core are
    /// attributed there.
    pub fn set_phase(&self, core: usize, phase: PhaseId) {
        if let Some(p) = self.phase.get(core) {
            p.store(phase, Ordering::Relaxed);
        }
    }

    /// Records one event. Callers on hot paths must guard with
    /// [`enabled`](Self::enabled) *before* computing `stamp_ns`; this
    /// method re-checks and drops the event when disarmed.
    pub fn emit(&self, core: usize, kind: TraceKind, arg: u64, cost_ns: u64, stamp_ns: u64) {
        if !self.enabled() {
            return;
        }
        let Some(ring) = self.rings.get(core) else {
            return;
        };
        let phase = self.phase[core].load(Ordering::Relaxed);
        let event = Event {
            kind,
            phase,
            core: core as u16,
            cost_ns: cost_ns.min(u64::from(u32::MAX)) as u32,
            arg,
            stamp_ns,
        };
        let mut r = ring.lock();
        r.last_stamp = stamp_ns;
        r.push(self.capacity, event.pack(), phase, kind as u8, cost_ns);
    }

    /// Records a zero-cost structural event stamped at the core's most
    /// recent event's timestamp. For emission sites *below* the clock
    /// layer (the coherence model's line fills and writebacks), which
    /// have no access to the core's virtual clock.
    pub fn emit_here(&self, core: usize, kind: TraceKind, arg: u64) {
        if !self.enabled() {
            return;
        }
        let Some(ring) = self.rings.get(core) else {
            return;
        };
        let phase = self.phase[core].load(Ordering::Relaxed);
        let mut r = ring.lock();
        let event = Event {
            kind,
            phase,
            core: core as u16,
            cost_ns: 0,
            arg,
            stamp_ns: r.last_stamp,
        };
        r.push(self.capacity, event.pack(), phase, kind as u8, 0);
    }

    /// FNV-1a fingerprint over the *entire* emitted stream (overflow-
    /// immune), mixing per-core fingerprints and counts in core order.
    /// Equal seeds must produce equal fingerprints.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = FNV_OFFSET;
        for (i, ring) in self.rings.iter().enumerate() {
            let r = ring.lock();
            fp = fnv_mix(fp, i as u64);
            fp = fnv_mix(fp, r.emitted);
            fp = fnv_mix(fp, r.fingerprint);
        }
        fp
    }

    /// Snapshot of the retained events and counters.
    pub fn snapshot(&self) -> Trace {
        let cores = self
            .rings
            .iter()
            .enumerate()
            .map(|(i, ring)| {
                let r = ring.lock();
                CoreTrace {
                    core: i as u16,
                    events: r.in_order().into_iter().map(Event::unpack).collect(),
                    emitted: r.emitted,
                    dropped: r.dropped,
                    fingerprint: r.fingerprint,
                }
            })
            .collect();
        Trace { cores }
    }

    /// Folds the per-core accumulators into an attribution table.
    /// Covers every emitted event, including ones the rings dropped.
    pub fn attribution(&self) -> attribution::Attribution {
        let names = self.names.lock().clone();
        let mut rows = Vec::new();
        for ring in &self.rings {
            let r = ring.lock();
            for (phase, kinds) in r.attribution.iter().enumerate() {
                for (kind_idx, &(count, total)) in kinds.iter().enumerate() {
                    if count == 0 {
                        continue;
                    }
                    rows.push((phase as u8, kind_idx as u8, count, total));
                }
            }
        }
        attribution::Attribution::fold(names, rows)
    }
}

/// A decoded snapshot of the tracer's retained state.
#[derive(Debug, Clone)]
pub struct Trace {
    /// One entry per core, in core order.
    pub cores: Vec<CoreTrace>,
}

/// One core's share of a [`Trace`].
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// Core id.
    pub core: u16,
    /// Retained events, oldest first.
    pub events: Vec<Event>,
    /// Total events emitted (≥ `events.len()`).
    pub emitted: u64,
    /// Events dropped by ring overflow.
    pub dropped: u64,
    /// Full-stream FNV-1a fingerprint for this core.
    pub fingerprint: u64,
}

impl Trace {
    /// Canonical little-endian byte serialization: per core, a header
    /// of `[core, emitted, dropped, len]` u64s followed by the packed
    /// event words. Two replays of the same seed must serialize to
    /// identical bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        let mut word = |w: u64| out.extend_from_slice(&w.to_le_bytes());
        for core in &self.cores {
            word(u64::from(core.core));
            word(core.emitted);
            word(core.dropped);
            word(core.events.len() as u64);
            for ev in &core.events {
                for w in ev.pack() {
                    word(w);
                }
            }
        }
        out
    }

    /// Total events retained across cores.
    pub fn len(&self) -> usize {
        self.cores.iter().map(|c| c.events.len()).sum()
    }

    /// Whether no events were retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

pub mod attribution {
    //! Folding a trace into a per-phase, per-event-class
    //! latency-attribution table.

    use super::TraceKind;

    /// One `(phase, kind)` row of the table.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct Row {
        /// Phase name.
        pub phase: String,
        /// Event class.
        pub kind: TraceKind,
        /// Events of this class in this phase.
        pub count: u64,
        /// Simulated nanoseconds charged to them.
        pub total_ns: u64,
    }

    /// Per-phase, per-event-class latency attribution. Because
    /// cost-bearing events are emitted exactly at clock-advance
    /// sites, [`total_ns`](Attribution::total_ns) equals the sum of
    /// all cores' virtual clocks.
    #[derive(Debug, Clone, Default)]
    pub struct Attribution {
        rows: Vec<Row>,
    }

    impl Attribution {
        pub(super) fn fold(names: Vec<String>, raw: Vec<(u8, u8, u64, u64)>) -> Attribution {
            // Merge across cores: key on (phase, kind), keep table
            // order deterministic (phase id, then kind id).
            let mut merged: Vec<((u8, u8), (u64, u64))> = Vec::new();
            for (phase, kind, count, total) in raw {
                match merged.iter_mut().find(|(k, _)| *k == (phase, kind)) {
                    Some((_, cell)) => {
                        cell.0 += count;
                        cell.1 += total;
                    }
                    None => merged.push(((phase, kind), (count, total))),
                }
            }
            merged.sort_by_key(|&(k, _)| k);
            let rows = merged
                .into_iter()
                .map(|((phase, kind), (count, total_ns))| Row {
                    phase: names
                        .get(phase as usize)
                        .cloned()
                        .unwrap_or_else(|| format!("phase{phase}")),
                    kind: TraceKind::from_u8(kind).expect("attribution rows carry live kind ids"),
                    count,
                    total_ns,
                })
                .collect();
            Attribution { rows }
        }

        /// The table rows, ordered by phase then kind.
        pub fn rows(&self) -> &[Row] {
            &self.rows
        }

        /// Total charged nanoseconds across the table.
        pub fn total_ns(&self) -> u64 {
            self.rows.iter().map(|r| r.total_ns).sum()
        }

        /// Totals collapsed over phases: `(kind, count, total_ns)` in
        /// kind order.
        pub fn by_kind(&self) -> Vec<(TraceKind, u64, u64)> {
            let mut out: Vec<(TraceKind, u64, u64)> = Vec::new();
            for row in &self.rows {
                match out.iter_mut().find(|(k, _, _)| *k == row.kind) {
                    Some(cell) => {
                        cell.1 += row.count;
                        cell.2 += row.total_ns;
                    }
                    None => out.push((row.kind, row.count, row.total_ns)),
                }
            }
            out.sort_by_key(|&(k, _, _)| k);
            out
        }

        /// Events of `kind` across all phases.
        pub fn count_of(&self, kind: TraceKind) -> u64 {
            self.rows
                .iter()
                .filter(|r| r.kind == kind)
                .map(|r| r.count)
                .sum()
        }

        /// Renders a fixed-width text table (phase, class, category,
        /// count, total ns, share of the grand total).
        pub fn render(&self) -> String {
            let total = self.total_ns().max(1);
            let mut out = String::new();
            out.push_str(&format!(
                "{:<14} {:<20} {:<9} {:>10} {:>14} {:>7}\n",
                "phase", "event", "category", "count", "total ns", "share"
            ));
            for row in &self.rows {
                out.push_str(&format!(
                    "{:<14} {:<20} {:<9} {:>10} {:>14} {:>6.1}%\n",
                    row.phase,
                    row.kind.name(),
                    row.kind.category(),
                    row.count,
                    row.total_ns,
                    100.0 * row.total_ns as f64 / total as f64
                ));
            }
            out.push_str(&format!(
                "{:<14} {:<20} {:<9} {:>10} {:>14} {:>6.1}%\n",
                "TOTAL",
                "",
                "",
                self.rows.iter().map(|r| r.count).sum::<u64>(),
                self.total_ns(),
                100.0
            ));
            out
        }
    }
}

/// Serializes a trace as Chrome-tracing JSON (the `chrome://tracing` /
/// Perfetto "JSON array" format): one complete (`"ph":"X"`) slice per
/// cost-bearing event, one instant (`"ph":"i"`) per structural event.
/// Timestamps are microseconds of simulated time; `tid` is the core.
pub fn chrome_trace_json(trace: &Trace) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for core in &trace.cores {
        for ev in &core.events {
            if !first {
                out.push(',');
            }
            first = false;
            let ts_ns = ev.stamp_ns.saturating_sub(u64::from(ev.cost_ns));
            if ev.cost_ns > 0 {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":0,\"tid\":{},\"args\":{{\"arg\":{},\"phase\":{}}}}}",
                    ev.kind.name(),
                    ev.kind.category(),
                    ts_ns as f64 / 1000.0,
                    f64::from(ev.cost_ns) / 1000.0,
                    ev.core,
                    ev.arg,
                    ev.phase
                ));
            } else {
                out.push_str(&format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"ts\":{:.3},\"s\":\"t\",\"pid\":0,\"tid\":{},\"args\":{{\"arg\":{},\"phase\":{}}}}}",
                    ev.kind.name(),
                    ev.kind.category(),
                    ev.stamp_ns as f64 / 1000.0,
                    ev.core,
                    ev.arg,
                    ev.phase
                ));
            }
        }
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_tracer_records_nothing() {
        let t = Tracer::new(2);
        t.emit(0, TraceKind::LoadFill, 1, 357, 357);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.attribution().total_ns(), 0);
    }

    #[test]
    fn event_pack_roundtrip() {
        let ev = Event {
            kind: TraceKind::RemoteFreePublish,
            phase: 3,
            core: 12,
            cost_ns: 2_100,
            arg: 0xdead_beef,
            stamp_ns: 123_456_789,
        };
        assert_eq!(Event::unpack(ev.pack()), ev);
    }

    #[test]
    fn ring_overflow_keeps_attribution_and_fingerprint() {
        let a = Tracer::with_capacity(1, 4);
        let b = Tracer::with_capacity(1, 1024);
        for t in [&a, &b] {
            t.arm();
            for i in 0..100u64 {
                t.emit(0, TraceKind::Fence, i, 25, (i + 1) * 25);
            }
        }
        // Same stream, different retention: fingerprints and
        // attribution agree; only retained detail differs.
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.attribution().total_ns(), 2_500);
        assert_eq!(b.attribution().total_ns(), 2_500);
        let snap = a.snapshot();
        assert_eq!(snap.cores[0].events.len(), 4);
        assert_eq!(snap.cores[0].emitted, 100);
        assert_eq!(snap.cores[0].dropped, 96);
        // Oldest-first ordering survives the wraparound.
        assert_eq!(snap.cores[0].events[0].arg, 96);
        assert_eq!(snap.cores[0].events[3].arg, 99);
    }

    #[test]
    fn identical_streams_serialize_identically() {
        let make = || {
            let t = Tracer::new(2);
            t.arm();
            let p = t.phase_id("fill");
            t.set_phase(1, p);
            t.emit(0, TraceKind::LoadFill, 64, 357, 357);
            t.emit(1, TraceKind::McasAttempt, 7, 2160, 2160);
            t.emit(1, TraceKind::SlabAlloc, 4096, 0, 2160);
            t
        };
        let (a, b) = (make(), make());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.snapshot().to_bytes(), b.snapshot().to_bytes());
        // And a differing stream diverges.
        b.emit(0, TraceKind::Fence, 0, 25, 382);
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn attribution_folds_by_phase_and_kind() {
        let t = Tracer::new(2);
        t.arm();
        let warm = t.phase_id("warmup");
        let bench = t.phase_id("bench");
        t.set_phase(0, warm);
        t.emit(0, TraceKind::LoadFill, 0, 300, 300);
        t.emit(0, TraceKind::LoadFill, 0, 300, 600);
        t.set_phase(0, bench);
        t.emit(0, TraceKind::LoadFill, 0, 400, 1000);
        t.emit(1, TraceKind::Fence, 0, 25, 25);
        let attr = t.attribution();
        assert_eq!(attr.total_ns(), 1025);
        assert_eq!(attr.count_of(TraceKind::LoadFill), 3);
        let rows = attr.rows();
        assert_eq!(rows.len(), 3);
        assert_eq!((rows[0].phase.as_str(), rows[0].total_ns), ("run", 25));
        assert_eq!((rows[1].phase.as_str(), rows[1].total_ns), ("warmup", 600));
        assert_eq!((rows[2].phase.as_str(), rows[2].total_ns), ("bench", 400));
        let by_kind = attr.by_kind();
        assert_eq!(by_kind[0], (TraceKind::LoadFill, 3, 1000));
        assert!(attr.render().contains("load_fill"));
    }

    #[test]
    fn chrome_export_emits_slices_and_instants() {
        let t = Tracer::new(1);
        t.arm();
        t.emit(0, TraceKind::LoadFill, 64, 357, 357);
        t.emit(0, TraceKind::LineFill, 64, 0, 357);
        let json = chrome_trace_json(&t.snapshot());
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"load_fill\""));
    }
}
