//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! The harness opens one *op* span around each call into the top layer
//! (a `kvstore` call, an allocator call, a recovery); [`Metered`] wraps
//! the allocator handle the layer above was given and records a *child*
//! span around every call that crosses into `cxl-core`. Spans are
//! aggregated per name in memory; one op in [`RAW_EVERY`] also keeps
//! its raw spans (name, start, end, parent, op id) for the trace file.

use crate::host::{ticks, TickClock};
use baselines::{BenchError, PodAllocThread};
use cxl_core::OffsetPtr;
use std::cell::{Cell, RefCell};

/// One op in this many is timed; the rest only count their calls.
/// Timing every call of a 100 ns op costs more than the op. Odd on
/// purpose: `kvstore` passes its EBR token every 64 ops and frees its
/// backlog in that op, which a power-of-two period never samples.
pub const TIMED_EVERY: u64 = 7;
/// One op in this many keeps its raw spans (a multiple of
/// [`TIMED_EVERY`]: only timed ops have spans to keep).
pub const RAW_EVERY: u64 = 63;
/// Raw spans kept per workload, so a trace file stays a few MiB.
pub const RAW_CAP: usize = 20_000;

/// Span names. A fixed set, so recording a span indexes an array: a
/// map lookup per span would cost more than the calls being timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    KvGet,
    KvInsert,
    KvDelete,
    OpAlloc,
    OpFreeLocal,
    OpFreeRemote,
    OpRecover,
    CoreAlloc,
    CoreDealloc,
    CoreResolve,
    CoreMarkCrashed,
    CoreAdopt,
}

const NAMES: usize = 12;

impl Name {
    pub const ALL: [Name; NAMES] = [
        Name::KvGet,
        Name::KvInsert,
        Name::KvDelete,
        Name::OpAlloc,
        Name::OpFreeLocal,
        Name::OpFreeRemote,
        Name::OpRecover,
        Name::CoreAlloc,
        Name::CoreDealloc,
        Name::CoreResolve,
        Name::CoreMarkCrashed,
        Name::CoreAdopt,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::KvGet => "kvstore.get",
            Name::KvInsert => "kvstore.insert",
            Name::KvDelete => "kvstore.delete",
            Name::OpAlloc => "op.alloc",
            Name::OpFreeLocal => "op.free_local",
            Name::OpFreeRemote => "op.free_remote",
            Name::OpRecover => "op.recover",
            Name::CoreAlloc => "core.alloc",
            Name::CoreDealloc => "core.dealloc",
            Name::CoreResolve => "core.resolve",
            Name::CoreMarkCrashed => "core.mark_crashed",
            Name::CoreAdopt => "core.adopt",
        }
    }
}

/// A raw span. Times are tick-clock nanoseconds since recording began.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: Name,
    pub start_ns: f64,
    pub end_ns: f64,
    /// Index of the op span this one ran inside; `None` for op spans.
    pub parent: Option<usize>,
    pub op: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Agg {
    pub count: u64,
    /// Measured duration, in ticks.
    pub ticks: u64,
    /// Children of these spans: how many, and their measured ticks.
    pub child_count: u64,
    pub child_ticks: u64,
}

/// What timing itself adds, calibrated once per traced run.
#[derive(Debug, Clone, Copy)]
pub struct Overhead {
    /// One clock read: what a timed interval holds beyond the work
    /// inside it (half of each of its two reads).
    pub floor_ns: f64,
    /// What recording one child span adds to its *parent's* interval
    /// outside the child's own: the other halves of the child's clock
    /// reads plus the recorder's bookkeeping.
    pub per_child_ns: f64,
}

/// Self time of `spans` parent spans that measured `measured_ns` in
/// all: minus their children's measured durations, minus what timing
/// the children and the parents themselves added.
pub fn self_ns(
    measured_ns: f64,
    spans: u64,
    children_ns: f64,
    children: u64,
    overhead: Overhead,
) -> f64 {
    (measured_ns
        - children_ns
        - overhead.per_child_ns * children as f64
        - overhead.floor_ns * spans as f64)
        .max(0.0)
}

/// Real duration of `count` leaf spans that measured `measured_ns`.
pub fn leaf_ns(measured_ns: f64, count: u64, overhead: Overhead) -> f64 {
    (measured_ns - overhead.floor_ns * count as f64).max(0.0)
}

#[derive(Debug, Default)]
struct Recorder {
    on: bool,
    base_ticks: u64,
    op: u64,
    /// Whether the open op keeps its raw spans.
    open_raw: bool,
    open_children: u64,
    open_child_ticks: u64,
    /// Raw child spans of the open op, until `end_op` knows the parent.
    open_spans: Vec<Span>,
    agg: [Agg; NAMES],
    /// Every timed `core.alloc` call's ticks, for its tail.
    alloc_samples: Vec<u64>,
    raw: Vec<Span>,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder::default());
    /// Whether calls are being timed right now: read on every metered
    /// call, so kept out of the `RefCell`.
    static TIMING: Cell<bool> = const { Cell::new(false) };
    /// Calls per name, timed or not.
    static CALLS: [Cell<u64>; NAMES] = const { [const { Cell::new(0) }; NAMES] };
}

/// Starts recording on this thread, dropping anything recorded before.
pub fn start() {
    start_at(ticks());
}

/// [`start`], with raw span times counted from `base_ticks`.
pub fn start_at(base_ticks: u64) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Recorder {
            on: true,
            base_ticks,
            ..Recorder::default()
        }
    });
    CALLS.with(|calls| calls.iter().for_each(|c| c.set(0)));
    TIMING.set(false);
}

/// What a traced pass recorded.
#[derive(Debug, Default)]
pub struct Recording {
    agg: [Agg; NAMES],
    calls: [u64; NAMES],
    pub alloc_samples: Vec<u64>,
    pub raw: Vec<Span>,
}

impl Recording {
    /// Totals of the *timed* spans of `name`.
    pub fn agg(&self, name: Name) -> Agg {
        self.agg[name as usize]
    }

    /// Calls of `name`, whether or not they were timed.
    pub fn calls(&self, name: Name) -> u64 {
        self.calls[name as usize]
    }

    /// Adds another pass's aggregates and samples; raw spans are kept
    /// from the first pass only (their parent indices are per pass).
    pub fn merge(&mut self, other: Recording) {
        for (mine, theirs) in self.agg.iter_mut().zip(other.agg) {
            mine.count += theirs.count;
            mine.ticks += theirs.ticks;
            mine.child_count += theirs.child_count;
            mine.child_ticks += theirs.child_ticks;
        }
        for (mine, theirs) in self.calls.iter_mut().zip(other.calls) {
            *mine += theirs;
        }
        self.alloc_samples.extend(other.alloc_samples);
        if self.raw.is_empty() {
            self.raw = other.raw;
        }
    }
}

/// Stops recording and hands back what was recorded.
pub fn stop() -> Recording {
    TIMING.set(false);
    RECORDER.with(|r| {
        let rec = std::mem::take(&mut *r.borrow_mut());
        Recording {
            agg: rec.agg,
            calls: CALLS.with(|calls| std::array::from_fn(|i| calls[i].get())),
            alloc_samples: rec.alloc_samples,
            raw: rec.raw,
        }
    })
}

/// Whether metered calls should read the clock right now.
#[inline(always)]
pub fn timing() -> bool {
    TIMING.get()
}

/// Counts a call of `name`; every call is counted, timed or not.
#[inline(always)]
pub fn count(name: Name) {
    CALLS.with(|calls| calls[name as usize].set(calls[name as usize].get() + 1));
}

/// Opens op `op`. One op in [`TIMED_EVERY`] is timed, its children
/// with it, and the call returns `true`: the caller then reads the
/// clock around the op and closes it with [`end_op`]. The others run
/// untimed, so that a traced pass stays close to an untraced one.
#[inline]
pub fn begin_op(op: u64) -> bool {
    let timed = op.is_multiple_of(TIMED_EVERY);
    if timed {
        begin_timed_op(op);
    } else {
        TIMING.set(false);
    }
    TIMING.get()
}

/// Opens op `op` and times it whatever its id.
pub fn begin_timed_op(op: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        TIMING.set(r.on);
        r.op = op;
        r.open_children = 0;
        r.open_child_ticks = 0;
        r.open_spans.clear();
        r.open_raw = op.is_multiple_of(RAW_EVERY) && r.raw.len() < RAW_CAP;
    });
}

/// Closes the open op as a span `name` over `[t0, t1]` ticks.
#[inline]
pub fn end_op(name: Name, clock: &TickClock, t0: u64, t1: u64) {
    TIMING.set(false);
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        let (children, child_ticks) = (r.open_children, r.open_child_ticks);
        let agg = &mut r.agg[name as usize];
        agg.count += 1;
        agg.ticks += t1 - t0;
        agg.child_count += children;
        agg.child_ticks += child_ticks;
        if r.open_raw {
            let r = &mut *r;
            let parent = r.raw.len();
            r.raw.push(Span {
                name,
                start_ns: clock.ns(t0 - r.base_ticks),
                end_ns: clock.ns(t1 - r.base_ticks),
                parent: None,
                op: r.op,
            });
            r.raw.extend(r.open_spans.drain(..).map(|span| Span {
                parent: Some(parent),
                ..span
            }));
        }
    });
}

fn record(r: &mut Recorder, name: Name, ticks: u64) {
    let agg = &mut r.agg[name as usize];
    agg.count += 1;
    agg.ticks += ticks;
    if name == Name::CoreAlloc {
        r.alloc_samples.push(ticks);
    }
}

/// Records a timed call made inside the open op.
#[inline]
pub fn child(name: Name, clock: &TickClock, t0: u64, t1: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return;
        }
        r.open_children += 1;
        r.open_child_ticks += t1 - t0;
        record(&mut r, name, t1 - t0);
        if r.open_raw {
            let span = Span {
                name,
                start_ns: clock.ns(t0 - r.base_ticks),
                end_ns: clock.ns(t1 - r.base_ticks),
                parent: None,
                op: r.op,
            };
            r.open_spans.push(span);
        }
    });
}

/// Records a timed call that belongs to no op span.
#[inline]
pub fn leaf(name: Name, t0: u64, t1: u64) {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if r.on {
            record(&mut r, name, t1 - t0);
        }
    });
}

/// Measures [`Overhead`] by recording empty child spans inside one op.
pub fn calibrate(clock: &TickClock) -> Overhead {
    const CALLS: u64 = 200_000;
    start();
    begin_timed_op(1);
    let t0 = ticks();
    for _ in 0..CALLS {
        count(Name::CoreResolve);
        if timing() {
            let c0 = ticks();
            child(Name::CoreResolve, clock, c0, ticks());
        }
    }
    let t1 = ticks();
    end_op(Name::KvGet, clock, t0, t1);
    let rec = stop();
    let parent = rec.agg(Name::KvGet);
    Overhead {
        floor_ns: clock.floor_ns,
        per_child_ns: (clock.ns(parent.ticks - parent.child_ticks) / CALLS as f64).max(0.0),
    }
}

/// An allocator handle that records a span around every call into
/// `cxl-core`. The layer above (`kvstore`) cannot tell it from the
/// handle it wraps.
pub struct Metered {
    inner: Box<dyn PodAllocThread>,
    clock: TickClock,
}

impl Metered {
    pub fn new(inner: Box<dyn PodAllocThread>, clock: TickClock) -> Self {
        Metered { inner, clock }
    }
}

impl PodAllocThread for Metered {
    fn alloc(&mut self, size: usize) -> Result<OffsetPtr, BenchError> {
        count(Name::CoreAlloc);
        if !timing() {
            return self.inner.alloc(size);
        }
        let t0 = ticks();
        let result = self.inner.alloc(size);
        child(Name::CoreAlloc, &self.clock, t0, ticks());
        result
    }

    fn dealloc(&mut self, ptr: OffsetPtr) -> Result<(), BenchError> {
        count(Name::CoreDealloc);
        if !timing() {
            return self.inner.dealloc(ptr);
        }
        let t0 = ticks();
        let result = self.inner.dealloc(ptr);
        child(Name::CoreDealloc, &self.clock, t0, ticks());
        result
    }

    fn resolve(&mut self, ptr: OffsetPtr, len: u64) -> *mut u8 {
        count(Name::CoreResolve);
        if !timing() {
            return self.inner.resolve(ptr, len);
        }
        let t0 = ticks();
        let raw = self.inner.resolve(ptr, len);
        child(Name::CoreResolve, &self.clock, t0, ticks());
        raw
    }

    fn thread_id(&self) -> Option<u16> {
        self.inner.thread_id()
    }

    fn maintain(&mut self) {
        self.inner.maintain();
    }
}

/// Checks what the recording must satisfy whatever was traced: every
/// raw child lies inside its parent, and no span name's children
/// measured longer than the spans themselves.
///
/// # Errors
///
/// Describes the first span that breaks the nesting.
pub fn check_nesting(rec: &Recording) -> Result<(), String> {
    for span in &rec.raw {
        if let Some(parent) = span.parent {
            let p = rec.raw.get(parent).ok_or("child names a missing parent")?;
            if span.start_ns < p.start_ns || span.end_ns > p.end_ns || span.op != p.op {
                return Err(format!(
                    "span {} [{}, {}] of op {} is not inside its parent {} [{}, {}]",
                    span.name.as_str(),
                    span.start_ns,
                    span.end_ns,
                    span.op,
                    p.name.as_str(),
                    p.start_ns,
                    p.end_ns
                ));
            }
        }
    }
    for name in Name::ALL {
        let agg = rec.agg(name);
        if agg.child_ticks > agg.ticks {
            return Err(format!(
                "children of {} measured {} ticks, the spans themselves {}",
                name.as_str(),
                agg.child_ticks,
                agg.ticks
            ));
        }
    }
    Ok(())
}

/// Writes the trace file: the counters, the per-name aggregates and
/// the raw spans of the sampled ops.
///
/// # Errors
///
/// Any I/O error creating or writing the file.
pub fn write_file(
    path: &std::path::Path,
    workload: &str,
    machine: &str,
    clock: &TickClock,
    overhead: Overhead,
    rec: &Recording,
    counters: &crate::report::Values,
) -> std::io::Result<()> {
    use crate::report::{json_number, json_string};
    use std::io::Write;

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": {},", json_string(workload))?;
    writeln!(out, " \"machine\": {machine},")?;
    writeln!(
        out,
        " \"clock_floor_ns\": {},",
        json_number(overhead.floor_ns)
    )?;
    writeln!(
        out,
        " \"per_child_overhead_ns\": {},",
        json_number(overhead.per_child_ns)
    )?;
    writeln!(out, " \"timed_every\": {TIMED_EVERY},")?;
    writeln!(out, " \"raw_every\": {RAW_EVERY},")?;
    let counters: Vec<String> = counters
        .iter()
        .map(|(name, value)| format!("{}: {}", json_string(name), json_number(*value)))
        .collect();
    writeln!(out, " \"counters\": {{{}}},", counters.join(", "))?;
    let aggregates: Vec<String> = Name::ALL
        .into_iter()
        .filter(|&name| rec.agg(name).count > 0)
        .map(|name| {
            let a = rec.agg(name);
            format!(
                "{}: {{\"count\": {}, \"total_ns\": {}, \"children\": {}, \"children_ns\": {}}}",
                json_string(name.as_str()),
                a.count,
                json_number(clock.ns(a.ticks)),
                a.child_count,
                json_number(clock.ns(a.child_ticks)),
            )
        })
        .collect();
    writeln!(out, " \"aggregate\": {{{}}},", aggregates.join(", "))?;
    writeln!(out, " \"spans\": [")?;
    for (index, span) in rec.raw.iter().enumerate() {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let comma = if index + 1 == rec.raw.len() { "" } else { "," };
        writeln!(
            out,
            "  {{\"id\": {index}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}{comma}",
            json_string(span.name.as_str()),
            json_number(span.start_ns),
            json_number(span.end_ns),
            span.op,
        )?;
    }
    writeln!(out, " ]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLOCK: TickClock = TickClock {
        ns_per_tick: 0.5,
        floor_ns: 10.0,
    };
    const OVERHEAD: Overhead = Overhead {
        floor_ns: 10.0,
        per_child_ns: 15.0,
    };

    #[test]
    fn self_time_removes_children_and_timing_overhead() {
        // A 200 ns parent span with two children measuring 40 and 60 ns:
        // 100 ns left, of which 2 x 15 + 10 ns are the timing's own.
        assert_eq!(self_ns(200.0, 1, 100.0, 2, OVERHEAD), 60.0);
        // Ten such spans, aggregated.
        assert_eq!(self_ns(2000.0, 10, 1000.0, 20, OVERHEAD), 600.0);
        assert_eq!(self_ns(50.0, 1, 45.0, 1, OVERHEAD), 0.0);
        assert_eq!(leaf_ns(100.0, 2, OVERHEAD), 80.0);
        assert_eq!(leaf_ns(5.0, 1, OVERHEAD), 0.0);
    }

    #[test]
    fn children_attach_to_the_open_op() {
        start_at(0);
        assert!(begin_op(0));
        assert!(timing());
        child(Name::CoreAlloc, &CLOCK, 110, 150);
        child(Name::CoreResolve, &CLOCK, 160, 170);
        end_op(Name::KvInsert, &CLOCK, 100, 300);
        assert!(!begin_op(1), "one op in {TIMED_EVERY} is timed");
        count(Name::CoreResolve);
        assert!(begin_op(TIMED_EVERY)); // timed, but keeps no raw spans
        child(Name::CoreResolve, &CLOCK, 410, 420);
        end_op(Name::KvGet, &CLOCK, 400, 450);
        leaf(Name::CoreDealloc, 500, 530);
        let rec = stop();

        let insert = rec.agg(Name::KvInsert);
        assert_eq!((insert.count, insert.ticks), (1, 200));
        assert_eq!((insert.child_count, insert.child_ticks), (2, 50));
        assert_eq!(rec.agg(Name::CoreResolve).count, 2);
        assert_eq!(rec.calls(Name::CoreResolve), 1, "only `count` counts calls");
        assert_eq!(rec.agg(Name::CoreDealloc).ticks, 30);
        assert_eq!(rec.agg(Name::KvGet).child_count, 1);
        assert_eq!(rec.alloc_samples, vec![40]);
        assert_eq!(rec.raw.len(), 3);
        assert_eq!(rec.raw[0].name, Name::KvInsert);
        assert_eq!((rec.raw[0].start_ns, rec.raw[0].end_ns), (50.0, 150.0));
        assert_eq!(rec.raw[1].parent, Some(0));
        assert!(check_nesting(&rec).is_ok());

        // Nothing is recorded once stopped.
        assert!(!begin_op(0));
        end_op(Name::KvGet, &CLOCK, 0, 1);
        assert_eq!(stop().agg(Name::KvGet).count, 0);
    }

    #[test]
    fn nesting_check_rejects_a_child_outside_its_parent() {
        let mut rec = Recording::default();
        rec.raw.push(Span {
            name: Name::KvGet,
            start_ns: 10.0,
            end_ns: 20.0,
            parent: None,
            op: 0,
        });
        rec.raw.push(Span {
            name: Name::CoreResolve,
            start_ns: 15.0,
            end_ns: 25.0,
            parent: Some(0),
            op: 0,
        });
        assert!(check_nesting(&rec).is_err());
    }
}
