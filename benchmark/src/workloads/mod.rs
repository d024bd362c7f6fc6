//! The five workloads. Each builds a fresh pod per round, replays a
//! script generated before timing, and checks what the program left
//! behind.

pub mod alloc_sim;
pub mod crash_recover;
pub mod kv;
pub mod serve;

use crate::host::{ticks, TickClock};
use crate::report::Values;
use crate::trace::{self, Agg, Overhead, Recording};
use cxl_core::{AttachOptions, BlockCensus, HeapStats};
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::PodConfig;
use std::path::PathBuf;
use std::time::Instant;

/// What every workload is built from.
#[derive(Debug, Clone)]
pub struct Env {
    pub seed: u64,
    pub clock: TickClock,
    /// What recording a span costs; used by traced rounds only.
    pub overhead: Overhead,
    /// The allocator's options: `AttachOptions::default()`, what a user
    /// gets, except in the sensitivity runs.
    pub options: AttachOptions,
    /// Multiplies `kv_update`'s value sizes (sensitivity only).
    pub value_scale: u16,
    /// Where the serve segment file and the trace files go.
    pub out_dir: PathBuf,
}

/// What a round timed.
#[derive(Debug)]
pub enum Timing {
    /// Tick-clock deltas. `chunks` splits the rate pass of `rate_ops`
    /// ops at the same op boundaries in every round; `latency` holds
    /// one delta per individually timed op, in script order. Rounds are
    /// identical replays, so the run can take each chunk's and each
    /// op's fastest round (see `run::Fold`).
    Ticks {
        rate_ops: u64,
        chunks: Vec<u64>,
        latency: Vec<u64>,
    },
    /// Timed by the program itself (`serve_1w`'s worker process), which
    /// reports totals and a histogram, not single ops.
    Reported {
        ops_per_s: f64,
        op_p50_ns: f64,
        op_p99_ns: f64,
        /// Ops slower than the reported p99.
        beyond_p99: u64,
    },
}

/// One round: a fresh pod, set up, warmed, measured and checked.
#[derive(Debug)]
pub struct Round {
    /// Pod create + attach + register + preload.
    pub setup_s: f64,
    /// Ops of the timed passes, and how many of them failed.
    pub ops: u64,
    pub failed: u64,
    pub timing: Timing,
    /// Values that do not depend on the host clock: bit-identical in
    /// every round, or the run fails.
    pub exact: Values,
    /// Host-time values of single layers; averaged over traced rounds.
    pub layer: Values,
    /// Spans of a traced round.
    pub recording: Option<Recording>,
    /// The round's correctness check.
    pub check: Result<(), String>,
}

impl Default for Round {
    fn default() -> Self {
        Round {
            setup_s: 0.0,
            ops: 0,
            failed: 0,
            timing: Timing::Ticks {
                rate_ops: 0,
                chunks: Vec::new(),
                latency: Vec::new(),
            },
            exact: Values::new(),
            layer: Values::new(),
            recording: None,
            check: Ok(()),
        }
    }
}

pub trait Workload {
    /// Runs one round; `traced` records spans around each layer call.
    fn round(&mut self, traced: bool) -> Round;

    /// Values measured once when the workload was built (script
    /// generation cost, the harness's own loop cost).
    fn built(&self) -> Values;
}

/// Builds the workload `name`, or `None` for an unknown name.
pub fn build(name: &str, env: &Env) -> Option<Box<dyn Workload>> {
    Some(match name {
        "kv_update" => Box::new(kv::Kv::new(env, kv::UPDATE)),
        "kv_read" => Box::new(kv::Kv::new(env, kv::READ)),
        "alloc_sim" => Box::new(alloc_sim::AllocSim::new(env)),
        "crash_recover" => Box::new(crash_recover::CrashRecover::new(env)),
        "serve_1w" => Box::new(serve::Serve::new(env)),
        _ => return None,
    })
}

/// A pod with the given slab capacities and a token huge heap (no
/// workload allocates huge blocks).
fn pod_config(small_max_slabs: u32, large_max_slabs: u32) -> PodConfig {
    PodConfig {
        max_threads: 16,
        small_max_slabs,
        large_max_slabs,
        huge_capacity: 16 << 20,
        huge_regions: 32,
        huge_descs_per_thread: 64,
        hazards_per_thread: 8,
        ..PodConfig::default()
    }
}

/// Heap bytes (data mapped in both slab heaps plus HWcc metadata) per
/// requested byte still live, and the heap's shape.
fn heap_exact(exact: &mut Values, stats: &HeapStats, live_bytes: u64) {
    let heap_bytes = stats.small_bytes + stats.large_bytes + stats.hwcc_bytes;
    exact.insert(
        "heap_bytes_per_live_byte",
        heap_bytes as f64 / live_bytes.max(1) as f64,
    );
    exact.insert("core.hwcc_bytes", stats.hwcc_bytes as f64);
    exact.insert("core.small_slabs", stats.small_slabs as f64);
    exact.insert("core.large_slabs", stats.large_slabs as f64);
}

/// `MemStats` deltas over a timed pass of `ops` ops. With one client
/// these are exact.
fn pod_exact(exact: &mut Values, delta: &MemStatsSnapshot, ops: u64) {
    let per_op = |n: u64| n as f64 / ops.max(1) as f64;
    exact.insert("pod.flushes_per_op", per_op(delta.flushes));
    exact.insert("pod.fences_per_op", per_op(delta.fences));
    exact.insert("pod.cas_per_op", per_op(delta.cas_total()));
    exact.insert(
        "pod.cas_fail_per_kop",
        1000.0 * per_op(delta.cas_fail + delta.mcas_fail),
    );
    exact.insert(
        "pod.cas_retries_per_kop",
        1000.0 * per_op(delta.cas_retries),
    );
    exact.insert("pod.line_fills_per_op", per_op(delta.line_fills));
    exact.insert("pod.writebacks_per_op", per_op(delta.writebacks));
    exact.insert("pod.uncached_ops_per_op", per_op(delta.uncached_ops));
    let cached = delta.cached_hits + delta.line_fills;
    exact.insert(
        "pod.cached_hit_ratio",
        if cached == 0 {
            0.0
        } else {
            delta.cached_hits as f64 / cached as f64
        },
    );
}

/// The zero-lost-blocks audit: the benchmark's ledger of live blocks
/// against the heap's census. A block the heap holds and the ledger
/// does not must be one its slab counts as remotely freed but not yet
/// reclaimed (a full slab that saw a remote free is disowned, and its
/// freed blocks return only when the whole slab has drained); anything
/// else is a lost block. A ledger block the heap does not hold, or one
/// the ledger holds twice, fails the other way.
fn audit_ledger(census: &BlockCensus, mut ledger: Vec<u64>) -> Result<(), String> {
    ledger.sort_unstable();
    if ledger.windows(2).any(|pair| pair[0] == pair[1]) {
        return Err("the ledger owns a block twice".into());
    }
    let mut credits: Vec<(u64, u64)> = census
        .slabs
        .iter()
        .map(|slab| (slab.base, slab.remote_pending as u64))
        .collect();
    credits.sort_unstable();
    let (mut lost, mut phantom) = (0u64, 0u64);
    let mut owned = ledger.iter().copied().peekable();
    for block in census.all_offsets() {
        while owned.next_if(|&o| o < block).is_some() {
            phantom += 1;
        }
        if owned.next_if_eq(&block).is_some() {
            continue;
        }
        // The slab holding `block` is the last one based at or below it.
        let slab = credits.partition_point(|&(base, _)| base <= block);
        match slab.checked_sub(1).map(|i| &mut credits[i].1) {
            Some(credit) if *credit > 0 => *credit -= 1,
            _ => lost += 1,
        }
    }
    phantom += owned.count() as u64;
    let unused: u64 = credits.iter().map(|&(_, credit)| credit).sum();
    if lost + phantom + unused > 0 {
        return Err(format!(
            "census and ledger differ: {lost} blocks lost, {phantom} only in the ledger, \
             {unused} remote frees that free no ledger block"
        ));
    }
    Ok(())
}

/// Real duration of all leaf spans of `agg` together.
fn leaf_total_ns(agg: Agg, env: &Env) -> f64 {
    trace::leaf_ns(env.clock.ns(agg.ticks), agg.count, env.overhead)
}

/// Mean real duration of one leaf span of `agg`.
fn leaf_mean_ns(agg: Agg, env: &Env) -> f64 {
    leaf_total_ns(agg, env) / agg.count.max(1) as f64
}

/// The allocator-call rows every in-process workload shares: mean and
/// tail of `core.alloc`, means of `core.dealloc` and `core.resolve`.
fn core_calls(layer: &mut Values, rec: &Recording, env: &Env) {
    use trace::Name;
    layer.insert("core.alloc_ns", leaf_mean_ns(rec.agg(Name::CoreAlloc), env));
    layer.insert(
        "core.dealloc_ns",
        leaf_mean_ns(rec.agg(Name::CoreDealloc), env),
    );
    layer.insert(
        "core.resolve_ns",
        leaf_mean_ns(rec.agg(Name::CoreResolve), env),
    );
    if !rec.alloc_samples.is_empty() {
        let mut samples = rec.alloc_samples.clone();
        let p99 = crate::stats::percentile(&mut samples, 0.99);
        layer.insert(
            "core.alloc_p99_ns",
            (env.clock.ns(p99) - env.overhead.floor_ns).max(0.0),
        );
    }
}

/// [`core_calls`], plus the allocator's share of the timed op spans
/// `ops`: the ceiling on what any allocator gain can do for the workload.
fn core_layer(layer: &mut Values, rec: &Recording, ops: &[trace::Name], env: &Env) {
    use trace::Name;
    core_calls(layer, rec, env);
    let busy_ns: f64 = [Name::CoreAlloc, Name::CoreDealloc, Name::CoreResolve]
        .iter()
        .map(|&call| leaf_total_ns(rec.agg(call), env))
        .sum();
    let self_ns: f64 = ops
        .iter()
        .map(|&op| span_self_total_ns(rec.agg(op), env))
        .sum();
    if busy_ns + self_ns > 0.0 {
        layer.insert("core.share_of_op", busy_ns / (busy_ns + self_ns));
    }
}

/// Total self time of all spans of `agg`.
fn span_self_total_ns(agg: Agg, env: &Env) -> f64 {
    trace::self_ns(
        env.clock.ns(agg.ticks),
        agg.count,
        env.clock.ns(agg.child_ticks),
        agg.child_count,
        env.overhead,
    )
}

/// Mean self time of one span of `agg`.
fn span_self_mean_ns(agg: Agg, env: &Env) -> f64 {
    span_self_total_ns(agg, env) / agg.count.max(1) as f64
}

/// Nanoseconds per op since `start`.
fn per_op_ns(start: Instant, ops: usize) -> f64 {
    start.elapsed().as_nanos() as f64 / ops.max(1) as f64
}

/// The harness's own cost per op: the replay loop against a sink that
/// does nothing.
fn harness_ns_per_op<T: Copy>(ops: &[T]) -> f64 {
    #[inline(never)]
    fn sink<T: Copy>(op: T) -> u64 {
        std::hint::black_box(op);
        1
    }
    let start = Instant::now();
    let seen: u64 = ops.iter().map(|&op| sink(op)).sum();
    std::hint::black_box(seen);
    per_op_ns(start, ops.len())
}

/// Runs `ops` in chunks of `chunk` ops, timing each chunk as a whole.
fn timed_chunks<T>(ops: &[T], chunk: usize, mut apply: impl FnMut(usize, &T)) -> Vec<u64> {
    let mut deltas = Vec::with_capacity(ops.len().div_ceil(chunk));
    for (index, ops) in ops.chunks(chunk).enumerate() {
        let t0 = ticks();
        for (offset, op) in ops.iter().enumerate() {
            apply(index * chunk + offset, op);
        }
        deltas.push(ticks() - t0);
    }
    deltas
}
