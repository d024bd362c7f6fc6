//! Shared-memory control plane between the serving coordinator and its
//! worker processes.
//!
//! The control plane lives in the pod segment's *control tail* — the
//! page-aligned region [`Pod::create_shared`](cxl_pod::Pod::create_shared)
//! reserves past `layout.total_len`, outside every heap. Because it is
//! part of the same `MAP_SHARED` mapping, a `kill -9`'d worker loses
//! nothing the coordinator has not already seen: completed stores are
//! coherent, and half-written ring slots are fenced off by the
//! tail-counter publish order.
//!
//! Layout (all cells are 8-byte words accessed through
//! [`Segment::atomic_u64`]):
//!
//! ```text
//! ctrl+0        header: magic/version, workers, ledger_cap, run_state
//! per worker w at ctrl + 64 + w*stride:
//!   +0    status block (128 B): state, pid, tid, ops, allocs, frees,
//!         stolen, forwarded (peer frees), timeouts
//!   +128  latency histogram: 64 log2-ns buckets
//!   +640  evt ring (worker -> coordinator): 64 B header + 32 x 64 B slots
//!   +2752 allocation ledger: ledger_cap x 8 B cells
//! ```
//!
//! The ledger is the crash-audit ground truth: cell `k` of worker `w`
//! holds the offset of the block backing key `k` (0 = absent). An
//! insert passes the *cell itself* as the destination of
//! [`alloc_detectable`](cxl_core::ThreadHandle::alloc_detectable), and
//! a delete as the claimed cell of
//! [`dealloc_detectable`](cxl_core::ThreadHandle::dealloc_detectable),
//! so the allocator — not the application — writes the cell inside the
//! logged op. After any crash the cell and the heap agree: recovery
//! finishes or undoes the one in-flight op by what the cell holds.
//! Bit 0 of a shared key's cell is its *publish tag* (block offsets are
//! 8-aligned); [`WorkerPlane::ledger_live`] strips it.
//!
//! The coordinator tells workers nothing over a ring: a worker's run is
//! fixed by its command line, and it starts and stops on the header's
//! [`run_state`] word. The one ring, worker → coordinator, carries
//! [`Msg::Hello`], [`Msg::AdoptReport`], [`Msg::Stolen`] and one
//! [`Msg::Exited`] per incarnation, whether it stopped or drained. Chaos
//! never travels over it: a drain is triggered by SIGTERM only.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use cxl_pod::Segment;

/// Identifies a serve control plane (and its version) in the tail:
/// ASCII `CXLSRV` plus a format version byte (4: the command ring is
/// gone, so the ledger follows the event ring).
pub const MAGIC: u64 = 0x4358_4c53_5256_0004;
/// Ring capacity in slots. Power of two; deep enough that a worker
/// emitting one event per phase never fills it between coordinator
/// polls.
pub const RING_SLOTS: u64 = 32;
/// Bytes per ring slot: one cache line, eight words.
pub const SLOT_BYTES: u64 = 64;
/// Latency histogram buckets (one per log2-nanosecond magnitude).
pub const HIST_BUCKETS: usize = 64;

const HEADER_BYTES: u64 = 64;
const STATUS_BYTES: u64 = 128;
const HIST_BYTES: u64 = HIST_BUCKETS as u64 * 8;
const RING_BYTES: u64 = 64 + RING_SLOTS * SLOT_BYTES;

/// Worker lifecycle states published in the status block.
pub mod state {
    /// Attached, not yet serving.
    pub const INIT: u64 = 0;
    /// Serving traffic.
    pub const RUNNING: u64 = 1;
    /// Stopped or reached its op target; exiting cleanly.
    pub const DONE: u64 = 2;
    /// Draining (or drained): the worker stopped taking ops and is
    /// flushing its buffers toward a frozen-lease exit. Published at
    /// drain *start* so the watchdog stops expecting heartbeats while
    /// the flush runs.
    pub const DRAINED: u64 = 3;
}

/// Run states published in the control-plane header.
pub mod run_state {
    /// Coordinator still wiring up workers; a worker that said hello
    /// heartbeats until the state moves on.
    pub const SETUP: u64 = 0;
    /// Traffic phase: a worker that reads it serves.
    pub const RUNNING: u64 = 1;
    /// Stop requested: a worker that reads it exits cleanly.
    pub const STOPPING: u64 = 2;
}

/// Total control-tail bytes needed for `workers` workers with
/// `ledger_cap` ledger cells each.
pub fn tail_bytes(workers: u32, ledger_cap: u64) -> u64 {
    HEADER_BYTES + workers as u64 * worker_stride(ledger_cap)
}

/// Bytes from a worker's status block to its first ledger cell.
const LEDGER_AT: u64 = STATUS_BYTES + HIST_BYTES + RING_BYTES;

fn worker_stride(ledger_cap: u64) -> u64 {
    (LEDGER_AT + ledger_cap * 8).next_multiple_of(64)
}

/// One process's view of the whole control plane.
#[derive(Debug, Clone)]
pub struct ControlPlane {
    seg: Arc<Segment>,
    base: u64,
    workers: u32,
    ledger_cap: u64,
}

impl ControlPlane {
    /// Opens the control plane at `base` (the creator's
    /// `layout.total_len`). Does not touch memory.
    pub fn new(seg: Arc<Segment>, base: u64, workers: u32, ledger_cap: u64) -> Self {
        assert!(
            base + tail_bytes(workers, ledger_cap) <= seg.len(),
            "control tail does not fit the mapped segment"
        );
        ControlPlane { seg, base, workers, ledger_cap }
    }

    /// Coordinator-side: stamps the header. Workers verify with
    /// [`ControlPlane::validate`].
    pub fn init(&self) {
        self.cell(8).store(self.workers as u64, Ordering::SeqCst);
        self.cell(16).store(self.ledger_cap, Ordering::SeqCst);
        self.cell(24).store(run_state::SETUP, Ordering::SeqCst);
        self.cell(0).store(MAGIC, Ordering::SeqCst);
    }

    /// Worker-side: checks the header matches this plane's geometry.
    ///
    /// # Errors
    ///
    /// A description of the first mismatch.
    pub fn validate(&self) -> Result<(), String> {
        let magic = self.cell(0).load(Ordering::SeqCst);
        if magic != MAGIC {
            return Err(format!("control plane magic {magic:#x} != {MAGIC:#x}"));
        }
        let workers = self.cell(8).load(Ordering::SeqCst);
        let cap = self.cell(16).load(Ordering::SeqCst);
        if workers != self.workers as u64 || cap != self.ledger_cap {
            return Err(format!(
                "control plane geometry ({workers} workers, {cap} cells) != \
                 local ({}, {})",
                self.workers, self.ledger_cap
            ));
        }
        Ok(())
    }

    /// The published run state (see [`run_state`]).
    pub fn run_state(&self) -> u64 {
        self.cell(24).load(Ordering::SeqCst)
    }

    /// Publishes a new run state.
    pub fn set_run_state(&self, s: u64) {
        self.cell(24).store(s, Ordering::SeqCst);
    }

    /// The per-worker view for slot `index`.
    pub fn worker(&self, index: u32) -> WorkerPlane {
        assert!(index < self.workers, "worker index out of range");
        WorkerPlane {
            seg: self.seg.clone(),
            base: self.base + HEADER_BYTES + index as u64 * worker_stride(self.ledger_cap),
            ledger_cap: self.ledger_cap,
        }
    }

    /// Number of worker slots.
    pub fn workers(&self) -> u32 {
        self.workers
    }

    fn cell(&self, off: u64) -> &std::sync::atomic::AtomicU64 {
        self.seg.atomic_u64(self.base + off)
    }
}

/// One worker's slice of the control plane: status, histogram, the event
/// ring, and the allocation ledger.
#[derive(Debug, Clone)]
pub struct WorkerPlane {
    seg: Arc<Segment>,
    base: u64,
    ledger_cap: u64,
}

/// Offsets of the status-block fields, in bytes from the status base.
///
/// Every status word and histogram bucket of a slot has one writer: the
/// slot's current incarnation (the coordinator only reads them).
/// Incarnations never overlap. The coordinator spawns a replacement,
/// adopter or fresh, only once it has reaped the process before it: a
/// killed victim, a worker the watchdog escalated to SIGKILL, a drained
/// or stopped one. Of the two adopters of a raced adoption, the loser
/// exits before it writes any status word. So a counter moves by a load
/// and a store ([`WorkerPlane::bump_status`]), not a locked
/// read-modify-write: there is no second writer whose increment a plain
/// store could lose. A `kill -9` between the load and the store loses the
/// bump, as one between an op and a `fetch_add` would. The coordinator's
/// `SeqCst` loads pair with the worker's `Release` stores; the end-of-run
/// reads also follow the worker's reaping.
pub mod status {
    /// Lifecycle state (see [`super::state`]).
    pub const STATE: u64 = 0;
    /// OS pid of the current incarnation.
    pub const PID: u64 = 8;
    /// Registered / adopted thread id (raw u16).
    pub const TID: u64 = 16;
    /// Operations completed by the current incarnation
    /// ([`super::WorkerPlane::set_ops`]).
    pub const OPS: u64 = 24;
    /// Blocks allocated (all incarnations of this slot).
    pub const ALLOCS: u64 = 32;
    /// Blocks freed (all incarnations of this slot).
    pub const FREES: u64 = 40;
    /// Set to 1 when a heartbeat came back [`cxl_core::AllocError::LeaseStolen`].
    pub const STOLEN: u64 = 48;
    /// Peer frees: shared-key frees this worker executed by claiming
    /// another worker's ledger cell. Each is also one of its [`FREES`].
    pub const FORWARDED: u64 = 56;
    /// Deadline-bounded control-plane waits that expired
    /// ([`super::ControlPlaneTimeout`]s observed by this worker).
    pub const TIMEOUTS: u64 = 64;
}

impl WorkerPlane {
    /// Reads a status field (see [`status`]).
    pub fn status(&self, field: u64) -> u64 {
        self.seg.atomic_u64(self.base + field).load(Ordering::SeqCst)
    }

    /// Writes a status field.
    pub fn set_status(&self, field: u64, value: u64) {
        self.seg.atomic_u64(self.base + field).store(value, Ordering::SeqCst);
    }

    /// Publishes the current incarnation's op count ([`status::OPS`]):
    /// one `Release` store per op, where [`WorkerPlane::set_status`]'s
    /// `SeqCst` store is a locked exchange.
    #[inline]
    pub fn set_ops(&self, ops: u64) {
        self.seg.atomic_u64(self.base + status::OPS).store(ops, Ordering::Release);
    }

    /// Adds `n` to a status counter. A load and a store: the status words
    /// are single-writer ([`status`]).
    #[inline]
    pub fn bump_status(&self, field: u64, n: u64) {
        self.bump(field, n);
    }

    /// Records one latency sample, in nanoseconds, in the log2-ns
    /// histogram: bucket 0 holds 0 ns, bucket `b` holds `[2^(b-1), 2^b)`.
    /// A load and a store, like [`WorkerPlane::bump_status`].
    #[inline]
    pub fn record_latency(&self, nanos: u64) {
        let bucket = (64 - nanos.leading_zeros()).min(HIST_BUCKETS as u32 - 1) as u64;
        self.bump(STATUS_BYTES + bucket * 8, 1);
    }

    #[inline]
    fn bump(&self, off: u64, n: u64) {
        let word = self.seg.atomic_u64(self.base + off);
        word.store(word.load(Ordering::Relaxed) + n, Ordering::Release);
    }

    /// Snapshot of the 64 histogram buckets.
    pub fn histogram(&self) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self
                .seg
                .atomic_u64(self.base + STATUS_BYTES + i as u64 * 8)
                .load(Ordering::Relaxed);
        }
        out
    }

    /// The worker→coordinator event ring.
    pub fn evt_ring(&self) -> Ring {
        Ring { seg: self.seg.clone(), base: self.base + STATUS_BYTES + HIST_BYTES }
    }

    /// Segment offset of ledger cell `k` — the word the allocator
    /// itself writes: the destination of an insert's detectable
    /// allocation, the claimed cell of a delete's detectable free.
    pub fn ledger_cell(&self, k: u64) -> u64 {
        assert!(k < self.ledger_cap, "ledger key out of range");
        self.base + LEDGER_AT + k * 8
    }

    /// Reads ledger cell `k` raw, publish tag included (0 = no block).
    pub fn ledger_get(&self, k: u64) -> u64 {
        self.seg.atomic_u64(self.ledger_cell(k)).load(Ordering::SeqCst)
    }

    /// Writes ledger cell `k`.
    pub fn ledger_set(&self, k: u64, value: u64) {
        self.seg.atomic_u64(self.ledger_cell(k)).store(value, Ordering::SeqCst)
    }

    /// All nonzero ledger entries as `(key, offset)` pairs, the publish
    /// tag stripped.
    pub fn ledger_live(&self) -> Vec<(u64, u64)> {
        (0..self.ledger_cap)
            .filter_map(|k| match self.ledger_get(k) & !PUBLISHED {
                0 => None,
                off => Some((k, off)),
            })
            .collect()
    }

    /// Ledger cells per worker.
    pub fn ledger_cap(&self) -> u64 {
        self.ledger_cap
    }
}

/// Bit 0 of a shared key's ledger cell: set by the home worker once its
/// detectable allocation has returned, and the only state in which the
/// key's peer may claim the cell (DESIGN.md §12). Block offsets are
/// 8-aligned, so the bit never belongs to an offset.
pub const PUBLISHED: u64 = 1;

/// Control-plane messages. Each encodes into one 64-byte ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Msg {
    /// Worker attached and registered (or adopted) a thread slot.
    Hello {
        /// OS pid.
        pid: u64,
        /// Registered thread id (raw).
        tid: u16,
    },
    /// A replacement worker won the DEAD→ADOPTING race. Only the winner
    /// reports: a loser exits `RACED` without touching the ring.
    AdoptReport {
        /// The dead incarnation's thread id (raw).
        victim: u16,
        /// Live blocks inherited through the ledger.
        inherited: u64,
        /// The reporting process's OS pid.
        pid: u64,
        /// The lease epoch the adoption installed. With `pid` it names
        /// the reporter when a second report reaches a closed episode.
        epoch: u16,
    },
    /// Worker: exit summary, sent once buffers are flushed and the lease
    /// is frozen. `drained` marks a SIGTERM drain, after which a
    /// *re-registering* replacement (not an adopter) takes over the
    /// slot's traffic share; otherwise the worker stopped or reached
    /// its op target.
    Exited {
        /// Whether the exit was a drain.
        drained: bool,
        /// Ops completed by this incarnation.
        ops: u64,
        /// Live blocks left in the ledger.
        live: u64,
    },
    /// Worker: a heartbeat was rejected with `LeaseStolen`.
    Stolen {
        /// The stolen thread id (raw).
        tid: u16,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_ADOPT: u8 = 2;
const KIND_EXITED: u8 = 6;
const KIND_STOLEN: u8 = 7;
// Kinds 3 (start), 4 (stop), 5 (progress), 8 (drain command), 9
// (drained) and 10 (forwarded free) are retired: the run state replaced
// 3 and 4, nothing sent 5 or 8, 9 folded into `Exited`, and shared keys
// are now freed in place.

/// A malformed ring slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Word 0 carries an unknown message kind.
    BadKind(u8),
    /// The slot's embedded sequence number does not match the ring
    /// position being read — a torn or stale slot.
    BadSeq {
        /// Sequence the reader expected.
        want: u64,
        /// Sequence found in the slot.
        got: u64,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadKind(k) => write!(f, "unknown message kind {k}"),
            FrameError::BadSeq { want, got } => {
                write!(f, "slot sequence {got} != expected {want}")
            }
        }
    }
}

/// Encodes `msg` into a ring slot stamped with sequence `seq`.
///
/// Word 0 packs `kind | seq << 8`; the remaining seven words are
/// payload. The 56-bit sequence is the slot's position in the ring's
/// unbounded stream, which doubles as a framing check on the far side.
pub fn encode(msg: &Msg, seq: u64) -> [u64; 8] {
    let mut w = [0u64; 8];
    let kind = match msg {
        Msg::Hello { pid, tid } => {
            w[1] = *pid;
            w[2] = *tid as u64;
            KIND_HELLO
        }
        Msg::AdoptReport { victim, inherited, pid, epoch } => {
            w[1] = *victim as u64;
            w[2] = *inherited;
            w[3] = *pid;
            w[4] = *epoch as u64;
            KIND_ADOPT
        }
        Msg::Exited { drained, ops, live } => {
            w[1] = *drained as u64;
            w[2] = *ops;
            w[3] = *live;
            KIND_EXITED
        }
        Msg::Stolen { tid } => {
            w[1] = *tid as u64;
            KIND_STOLEN
        }
    };
    w[0] = kind as u64 | (seq << 8);
    w
}

/// Decodes a ring slot read at stream position `seq`.
///
/// # Errors
///
/// [`FrameError`] for unknown kinds or a sequence mismatch.
pub fn decode(w: &[u64; 8], seq: u64) -> Result<Msg, FrameError> {
    let got = w[0] >> 8;
    if got != seq & ((1 << 56) - 1) {
        return Err(FrameError::BadSeq { want: seq, got });
    }
    match (w[0] & 0xff) as u8 {
        KIND_HELLO => Ok(Msg::Hello { pid: w[1], tid: w[2] as u16 }),
        KIND_ADOPT => Ok(Msg::AdoptReport {
            victim: w[1] as u16,
            inherited: w[2],
            pid: w[3],
            epoch: w[4] as u16,
        }),
        KIND_EXITED => Ok(Msg::Exited { drained: w[1] != 0, ops: w[2], live: w[3] }),
        KIND_STOLEN => Ok(Msg::Stolen { tid: w[1] as u16 }),
        k => Err(FrameError::BadKind(k)),
    }
}

/// A single-producer single-consumer message ring over shared memory.
///
/// Header word 0 is the consumer's head, word 1 the producer's tail;
/// both are unbounded stream positions (`% RING_SLOTS` picks the slot).
/// The producer writes the payload words, then word 0 (with the
/// embedded sequence), then publishes the new tail — so a consumer that
/// observed the tail is guaranteed fully-written slots, and a producer
/// killed mid-push leaves the stream exactly where it was.
#[derive(Debug, Clone)]
pub struct Ring {
    seg: Arc<Segment>,
    base: u64,
}

impl Ring {
    fn head(&self) -> &std::sync::atomic::AtomicU64 {
        self.seg.atomic_u64(self.base)
    }

    fn tail(&self) -> &std::sync::atomic::AtomicU64 {
        self.seg.atomic_u64(self.base + 8)
    }

    fn slot(&self, pos: u64) -> u64 {
        self.base + 64 + (pos % RING_SLOTS) * SLOT_BYTES
    }

    /// Producer: appends `msg`.
    ///
    /// # Errors
    ///
    /// Returns `msg` back if the ring is full (consumer is `RING_SLOTS`
    /// messages behind).
    pub fn push(&self, msg: Msg) -> Result<(), Msg> {
        let head = self.head().load(Ordering::Acquire);
        let tail = self.tail().load(Ordering::Relaxed);
        if tail - head >= RING_SLOTS {
            return Err(msg);
        }
        let words = encode(&msg, tail);
        let slot = self.slot(tail);
        for (i, w) in words.iter().enumerate().skip(1) {
            self.seg.atomic_u64(slot + i as u64 * 8).store(*w, Ordering::Relaxed);
        }
        self.seg.atomic_u64(slot).store(words[0], Ordering::Release);
        self.tail().store(tail + 1, Ordering::Release);
        Ok(())
    }

    /// Consumer: takes the oldest message, if any.
    ///
    /// # Errors
    ///
    /// [`FrameError`] if the slot fails validation (the head still
    /// advances past it — a poisoned slot is dropped, not replayed).
    pub fn pop(&self) -> Result<Option<Msg>, FrameError> {
        let head = self.head().load(Ordering::Relaxed);
        let tail = self.tail().load(Ordering::Acquire);
        if head == tail {
            return Ok(None);
        }
        let slot = self.slot(head);
        let mut words = [0u64; 8];
        for (i, w) in words.iter_mut().enumerate() {
            *w = self.seg.atomic_u64(slot + i as u64 * 8).load(Ordering::Acquire);
        }
        let decoded = decode(&words, head);
        self.head().store(head + 1, Ordering::Release);
        decoded.map(Some)
    }

    /// Producer: appends `msg`, waiting up to `timeout` for ring space.
    ///
    /// This is the deadline-bounded form every cross-process control
    /// call must use: a peer that is SIGSTOPped (or dead without its
    /// slot reaped yet) stops draining its ring, and an unbounded spin
    /// here would wedge the caller for as long as the peer stays
    /// wedged. The wait spins with short sleeps so a healthy peer costs
    /// at most one scheduling quantum.
    ///
    /// # Errors
    ///
    /// [`ControlPlaneTimeout`] naming `op` if the ring still has no
    /// space at the deadline; the message is *not* enqueued.
    pub fn push_wait(
        &self,
        msg: Msg,
        op: &'static str,
        timeout: Duration,
    ) -> Result<(), ControlPlaneTimeout> {
        let start = Instant::now();
        let mut msg = msg;
        loop {
            match self.push(msg) {
                Ok(()) => return Ok(()),
                Err(back) => msg = back,
            }
            let waited = start.elapsed();
            if waited >= timeout {
                return Err(ControlPlaneTimeout { op, waited });
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }
}

/// A deadline-bounded control-plane wait expired: the peer did not
/// drain the ring, or move the run state, in time. Carries enough to
/// say *which* call gave up, so a wedged run reports "control-plane
/// start-wait timed out" instead of hanging forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlPlaneTimeout {
    /// The control-plane call that gave up (e.g. `"hello"`, `"start-wait"`).
    pub op: &'static str,
    /// How long the caller actually waited.
    pub waited: Duration,
}

impl std::fmt::Display for ControlPlaneTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "control-plane {} timed out after {:?}", self.op, self.waited)
    }
}

impl std::error::Error for ControlPlaneTimeout {}

/// Merges per-worker histograms and extracts a quantile (0.0–1.0) as
/// the upper latency bound (in ns) of the bucket containing it.
pub fn quantile_ns(hist: &[u64; HIST_BUCKETS], q: f64) -> u64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (bucket, count) in hist.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << bucket;
        }
    }
    1u64 << (HIST_BUCKETS - 1)
}

/// Element-wise sum of histograms.
pub fn merge_hists(hists: &[[u64; HIST_BUCKETS]]) -> [u64; HIST_BUCKETS] {
    let mut out = [0u64; HIST_BUCKETS];
    for h in hists {
        for (o, v) in out.iter_mut().zip(h.iter()) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cxl_pod::Segment;
    use proptest::prelude::*;

    fn plane() -> ControlPlane {
        let cap = 8;
        let seg = Arc::new(Segment::zeroed(4096 + tail_bytes(2, cap)).unwrap());
        let plane = ControlPlane::new(seg, 4096, 2, cap);
        plane.init();
        plane
    }

    #[test]
    fn header_roundtrip_and_validation() {
        let plane = plane();
        plane.validate().unwrap();
        assert_eq!(plane.run_state(), run_state::SETUP);
        plane.set_run_state(run_state::RUNNING);
        assert_eq!(plane.run_state(), run_state::RUNNING);

        let other = ControlPlane::new(
            plane.seg.clone(),
            4096,
            2,
            7, // wrong geometry
        );
        assert!(other.validate().is_err());
    }

    const STOLEN: Msg = Msg::Stolen { tid: 3 };

    #[test]
    fn ring_delivers_in_order() {
        let plane = plane();
        let ring = plane.worker(0).evt_ring();
        assert_eq!(ring.pop().unwrap(), None);
        let exited = Msg::Exited { drained: true, ops: 7, live: 3 };
        ring.push(STOLEN).unwrap();
        ring.push(exited).unwrap();
        assert_eq!(ring.pop().unwrap(), Some(STOLEN));
        assert_eq!(ring.pop().unwrap(), Some(exited));
        assert_eq!(ring.pop().unwrap(), None);
    }

    #[test]
    fn ring_wraps_and_rejects_overflow() {
        let plane = plane();
        let ring = plane.worker(1).evt_ring();
        // Several full cycles: positions far past RING_SLOTS keep
        // mapping onto the 32 physical slots.
        for round in 0..4 {
            for i in 0..RING_SLOTS {
                ring.push(Msg::Exited { drained: false, ops: round * 100 + i, live: i })
                    .unwrap();
            }
            // One more: full.
            assert!(ring.push(STOLEN).is_err());
            for i in 0..RING_SLOTS {
                assert_eq!(
                    ring.pop().unwrap(),
                    Some(Msg::Exited { drained: false, ops: round * 100 + i, live: i })
                );
            }
        }
        assert_eq!(ring.pop().unwrap(), None);
    }

    #[test]
    fn torn_slot_is_a_framing_error() {
        let plane = plane();
        let w = plane.worker(0);
        let ring = w.evt_ring();
        ring.push(STOLEN).unwrap();
        // Corrupt the slot's kind byte in place: decode must fail.
        let slot = ring.slot(0);
        ring.seg.atomic_u64(slot).store(0xff, Ordering::SeqCst);
        assert!(matches!(ring.pop(), Err(FrameError::BadKind(0xff)) | Err(FrameError::BadSeq { .. })));
        // The poisoned slot was skipped; the ring keeps working.
        ring.push(STOLEN).unwrap();
        assert_eq!(ring.pop().unwrap(), Some(STOLEN));
    }

    #[test]
    fn ledger_cells_are_distinct_and_stable() {
        let plane = plane();
        let a = plane.worker(0);
        let b = plane.worker(1);
        let mut cells: Vec<u64> =
            (0..8).flat_map(|k| [a.ledger_cell(k), b.ledger_cell(k)]).collect();
        cells.sort_unstable();
        cells.dedup();
        assert_eq!(cells.len(), 16, "ledger cells must not alias");
        a.ledger_set(3, 0xdead0);
        assert_eq!(a.ledger_get(3), 0xdead0);
        assert_eq!(b.ledger_get(3), 0, "worker ledgers are disjoint");
        assert_eq!(a.ledger_live(), vec![(3, 0xdead0)]);
        // Rings and ledgers never alias, and the last cell of the last
        // worker fits the tail.
        let (ra, rb) = (a.evt_ring().base, b.evt_ring().base);
        assert!(ra + RING_BYTES <= a.ledger_cell(0), "a's ring runs into its ledger");
        assert!(a.ledger_cell(7) + 8 <= rb, "a's ledger runs into b's ring");
        assert!(rb + RING_BYTES <= b.ledger_cell(0), "b's ring runs into its ledger");
        assert!(b.ledger_cell(7) + 8 <= plane.base + tail_bytes(2, 8));
    }

    #[test]
    fn ledger_live_strips_the_publish_tag() {
        let plane = plane();
        let w = plane.worker(1);
        w.ledger_set(2, 0xbeef00 | PUBLISHED);
        w.ledger_set(5, 0xcafe00);
        assert_eq!(w.ledger_get(2), 0xbeef01, "the raw cell keeps its tag");
        assert_eq!(w.ledger_live(), vec![(2, 0xbeef00), (5, 0xcafe00)]);
    }

    #[test]
    fn waits_carry_deadlines_not_spins() {
        let plane = plane();
        let ring = plane.worker(0).evt_ring();
        // Full ring with no consumer: push_wait must give up too.
        for _ in 0..RING_SLOTS {
            ring.push(STOLEN).unwrap();
        }
        let err = ring
            .push_wait(STOLEN, "unit-push", Duration::from_millis(5))
            .unwrap_err();
        assert_eq!(err.op, "unit-push");
        assert!(err.waited >= Duration::from_millis(5));
        assert!(err.to_string().contains("unit-push"), "{err}");
        // A draining consumer unblocks the producer within the deadline.
        ring.pop().unwrap();
        ring.push_wait(STOLEN, "unit-push", Duration::from_millis(100)).unwrap();
    }

    #[test]
    fn status_and_histogram_roundtrip() {
        let plane = plane();
        let w = plane.worker(0);
        w.set_status(status::TID, 5);
        w.bump_status(status::OPS, 3);
        w.bump_status(status::OPS, 2);
        assert_eq!(w.status(status::TID), 5);
        assert_eq!(w.status(status::OPS), 5);
        w.record_latency(1000); // 2^9 < 1000 <= 2^10
        w.record_latency(1000);
        w.record_latency(1); // bucket 1
        let h = w.histogram();
        assert_eq!(h[10], 2);
        assert_eq!(h[1], 1);
        assert_eq!(h.iter().sum::<u64>(), 3);
    }

    #[test]
    fn single_writer_counts_are_exact() {
        let plane = plane();
        let w = plane.worker(1);
        const N: u64 = 10_000;
        for i in 0..N {
            w.record_latency(i % 3 * 100); // 0, 100, 200 ns: buckets 0, 7, 8
            w.bump_status(status::ALLOCS, 1);
            w.bump_status(status::FREES, 2);
            w.set_ops(i + 1);
        }
        let h = w.histogram();
        assert_eq!((h[0], h[7], h[8]), (3334, 3333, 3333));
        assert_eq!(h.iter().sum::<u64>(), N, "every sample lands once");
        assert_eq!((w.status(status::ALLOCS), w.status(status::FREES)), (N, 2 * N));
        assert_eq!(w.status(status::OPS), N);
        assert_eq!(plane.worker(0).histogram(), [0; HIST_BUCKETS], "worker 0's words are its own");
    }

    #[test]
    fn quantiles_pick_bucket_bounds() {
        let mut h = [0u64; HIST_BUCKETS];
        h[5] = 90;
        h[20] = 10;
        assert_eq!(quantile_ns(&h, 0.5), 1 << 5);
        assert_eq!(quantile_ns(&h, 0.99), 1 << 20);
        assert_eq!(quantile_ns(&[0u64; HIST_BUCKETS], 0.5), 0);
        let merged = merge_hists(&[h, h]);
        assert_eq!(merged[5], 180);
    }

    fn arb_msg() -> impl Strategy<Value = Msg> {
        prop_oneof![
            (any::<u64>(), any::<u16>()).prop_map(|(pid, tid)| Msg::Hello { pid, tid }),
            (any::<u16>(), any::<u64>(), any::<u64>(), any::<u16>()).prop_map(
                |(victim, inherited, pid, epoch)| Msg::AdoptReport { victim, inherited, pid, epoch }
            ),
            (any::<bool>(), any::<u64>(), any::<u64>())
                .prop_map(|(drained, ops, live)| Msg::Exited { drained, ops, live }),
            any::<u16>().prop_map(|tid| Msg::Stolen { tid }),
        ]
    }

    proptest! {
        #[test]
        fn encode_decode_roundtrip(msg in arb_msg(), seq in 0u64..(1 << 56)) {
            let words = encode(&msg, seq);
            prop_assert_eq!(decode(&words, seq).unwrap(), msg);
            // A different stream position rejects the same slot.
            prop_assert!(decode(&words, seq.wrapping_add(1)).is_err());
        }
    }
}
