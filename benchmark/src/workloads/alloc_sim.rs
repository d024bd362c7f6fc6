//! `alloc_sim`: the allocator alone on the limited-HWcc CXL model.
//!
//! Two simulated processes share a `SimMemory` pod; the owner's thread
//! allocates and frees, the other process's thread frees 30 % of the
//! blocks remotely in bursts, both driven alternately from the one OS
//! thread. No `kvstore` or `workloads` code is in the timed path.
//! Flush, fence and line-fill costs exist only here: on the raw pods of
//! the other workloads they are counters.
//!
//! End to end it reports host time — simulated ops per host second is
//! the simulator's own efficiency. What the modelled hardware would
//! take (`pod.sim_ns_per_op` and its split) is exact and per-layer.

use super::{audit_ledger, core_layer, harness_ns_per_op, heap_exact, per_op_ns, pod_config};
use super::{pod_exact, timed_chunks};
use super::{Env, Round, Timing, Workload};
use crate::host::ticks;
use crate::report::Values;
use crate::script::{sim_script, SimOp, SimScript};
use crate::trace::{self, Name};
use cxl_core::{Cxlalloc, OffsetPtr, ThreadHandle};
use cxl_pod::trace::TraceKind;
use cxl_pod::{HwccMode, Pod, PodMemory};
use std::time::Instant;

const WARM_OPS: usize = 32_000;
const RATE_OPS: usize = 192_000;
const LATENCY_OPS: usize = 192_000;
/// The rate pass is timed in chunks of this many ops.
const CHUNK_OPS: usize = 8_000;

pub struct AllocSim {
    env: Env,
    script: SimScript,
    samples: Vec<u64>,
    sim_samples: Vec<u64>,
    built: Values,
}

struct Actors {
    owner: ThreadHandle,
    remote: ThreadHandle,
    ptrs: Vec<Option<OffsetPtr>>,
    failed: u64,
}

impl Actors {
    #[inline(always)]
    fn apply(&mut self, op: SimOp) {
        match op {
            SimOp::Alloc { slot, size } => match self.owner.alloc(size as usize) {
                Ok(ptr) => self.ptrs[slot as usize] = Some(ptr),
                Err(_) => self.failed += 1,
            },
            SimOp::FreeLocal { slot } => {
                let freed = self.ptrs[slot as usize]
                    .take()
                    .is_some_and(|ptr| self.owner.dealloc(ptr).is_ok());
                self.failed += !freed as u64;
            }
            SimOp::FreeRemote { slot } => {
                let freed = self.ptrs[slot as usize]
                    .take()
                    .is_some_and(|ptr| self.remote.dealloc(ptr).is_ok());
                self.failed += !freed as u64;
            }
        }
    }

    /// Simulated nanoseconds charged so far to the two actors' cores.
    #[inline(always)]
    fn sim_ns(&self, mem: &dyn PodMemory) -> u64 {
        mem.virtual_ns(self.owner.core()) + mem.virtual_ns(self.remote.core())
    }
}

impl AllocSim {
    pub fn new(env: &Env) -> Self {
        let start = Instant::now();
        let script = sim_script(env.seed, WARM_OPS, RATE_OPS, LATENCY_OPS);
        let mut built = Values::new();
        built.insert(
            "workloads.gen_ns_per_op",
            per_op_ns(start, WARM_OPS + RATE_OPS + LATENCY_OPS),
        );
        built.insert("bench.harness_ns_per_op", harness_ns_per_op(&script.rate));
        AllocSim {
            env: env.clone(),
            script,
            // Written once, so that no timed pass takes the buffers' page faults.
            samples: vec![1; LATENCY_OPS],
            sim_samples: vec![1; LATENCY_OPS],
            built,
        }
    }
}

/// Simulated time and op count of one kind of op in a traced pass.
#[derive(Default, Clone, Copy)]
struct SimKind {
    ops: u64,
    sim_ns: u64,
}

impl SimKind {
    fn mean(self) -> f64 {
        self.sim_ns as f64 / self.ops.max(1) as f64
    }
}

impl Workload for AllocSim {
    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();
        let clock = self.env.clock;

        let setup = Instant::now();
        // 65 536 blocks, 15 % of them 1-64 KiB, are ~330 MiB live in 19 large classes.
        let pod = Pod::with_simulation(pod_config(4096, 4096), HwccMode::Limited)
            .expect("pod config is valid");
        let attach = |pod: &Pod| {
            Cxlalloc::attach(pod.spawn_process(), self.env.options.clone())
                .expect("layout matches the class tables")
                .register_thread()
                .expect("a fresh pod has free thread slots")
        };
        let mut actors = Actors {
            owner: attach(&pod),
            remote: attach(&pod),
            ptrs: Vec::with_capacity(self.script.preload.len()),
            failed: 0,
        };
        for &size in &self.script.preload {
            let ptr = actors.owner.alloc(size as usize).ok();
            actors.failed += ptr.is_none() as u64;
            actors.ptrs.push(ptr);
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        for &op in &self.script.warm {
            actors.apply(op);
        }

        let mem = pod.memory().as_ref();
        let tracer = mem.tracer().expect("simulated pods carry a tracer");
        let (mut alloc, mut free_local, mut free_remote) =
            (SimKind::default(), SimKind::default(), SimKind::default());
        let before = mem.stats();
        let sim_before = actors.sim_ns(mem);
        if traced {
            tracer.reset();
            tracer.arm();
            trace::start();
        }
        let chunks = timed_chunks(&self.script.rate, CHUNK_OPS, |id, &op| {
            if !traced {
                actors.apply(op);
                return;
            }
            let (name, call, kind) = match op {
                SimOp::Alloc { .. } => (Name::OpAlloc, Name::CoreAlloc, &mut alloc),
                SimOp::FreeLocal { .. } => (Name::OpFreeLocal, Name::CoreDealloc, &mut free_local),
                SimOp::FreeRemote { .. } => {
                    (Name::OpFreeRemote, Name::CoreDealloc, &mut free_remote)
                }
            };
            let s0 = actors.sim_ns(mem);
            trace::count(call);
            if trace::begin_op(id as u64) {
                let t0 = ticks();
                actors.apply(op);
                let t1 = ticks();
                // The op *is* the allocator call: it is recorded as the op
                // span and as its one child, so the rows shared with the
                // other workloads mean the same here.
                trace::child(call, &clock, t0, t1);
                trace::end_op(name, &clock, t0, t1);
            } else {
                actors.apply(op);
            }
            kind.ops += 1;
            kind.sim_ns += actors.sim_ns(mem) - s0;
        });
        if traced {
            tracer.disarm();
        }
        let recording = traced.then(trace::stop);
        let sim_rate_ns = actors.sim_ns(mem) - sim_before;
        let rate_ops = self.script.rate.len() as u64;
        pod_exact(&mut round.exact, &mem.stats().since(&before), rate_ops);
        round
            .exact
            .insert("pod.sim_ns_per_op", sim_rate_ns as f64 / rate_ops as f64);
        round.layer.insert(
            "pod.host_ns_per_sim_ns",
            clock.ns(chunks.iter().sum()) / sim_rate_ns.max(1) as f64,
        );

        self.samples.clear();
        self.sim_samples.clear();
        for &op in &self.script.latency {
            let s0 = actors.sim_ns(mem);
            let t0 = ticks();
            actors.apply(op);
            self.samples.push(ticks() - t0);
            self.sim_samples.push(actors.sim_ns(mem) - s0);
        }
        round.timing = Timing::Ticks {
            rate_ops,
            chunks,
            latency: self.samples.clone(),
        };
        round.exact.insert(
            "pod.sim_op_p99_ns",
            crate::stats::percentile(&mut self.sim_samples, 0.99) as f64,
        );
        heap_exact(
            &mut round.exact,
            &actors.owner.heap().stats(),
            self.script.live_bytes,
        );
        round.exact.insert(
            "core.remote_free_share",
            self.script.remote_frees as f64 / self.script.frees.max(1) as f64,
        );

        round.ops = rate_ops + self.script.latency.len() as u64;
        round.failed = actors.failed;
        round.check = (|| {
            if actors.failed > 0 {
                return Err(format!("{} allocator calls failed", actors.failed));
            }
            actors.owner.flush_cache();
            actors.remote.flush_cache();
            let heap = actors.owner.heap();
            let start = Instant::now();
            let census = heap.census(actors.owner.core())?;
            round
                .layer
                .insert("core.census_ns", start.elapsed().as_nanos() as f64);
            let live = actors.ptrs.iter().flatten().map(|p| p.offset()).collect();
            audit_ledger(&census, live)?;
            heap.check_invariants(actors.owner.core())
        })();

        if let Some(rec) = recording {
            let ops = [Name::OpAlloc, Name::OpFreeLocal, Name::OpFreeRemote];
            core_layer(&mut round.layer, &rec, &ops, &self.env);
            // Every simulated nanosecond charged during the pass must be
            // some traced event's cost, or the split below is not a split.
            let attribution = tracer.attribution();
            let mut split = [0u64; 4];
            for (kind, _count, ns) in attribution.by_kind() {
                let row = match kind {
                    TraceKind::Flush | TraceKind::FlushDropped | TraceKind::WritebackKept => 0,
                    TraceKind::Fence => 1,
                    TraceKind::LoadFill | TraceKind::LineFill | TraceKind::Writeback => 2,
                    TraceKind::CasAttempt
                    | TraceKind::CasRetry
                    | TraceKind::CasFallback
                    | TraceKind::McasAttempt
                    | TraceKind::McasRetry
                    | TraceKind::McasDelay => 3,
                    _ => continue,
                };
                split[row] += ns;
            }
            let named: u64 = split.iter().sum();
            if round.check.is_ok() && attribution.total_ns() != sim_rate_ns {
                round.check = Err(format!(
                    "trace attributes {} simulated ns, the cores' clocks advanced {sim_rate_ns}",
                    attribution.total_ns()
                ));
            }
            let per_op = |ns: u64| ns as f64 / rate_ops as f64;
            let exact = &mut round.exact;
            exact.insert("pod.sim_flush_ns_per_op", per_op(split[0]));
            exact.insert("pod.sim_fence_ns_per_op", per_op(split[1]));
            exact.insert("pod.sim_line_fill_ns_per_op", per_op(split[2]));
            exact.insert("pod.sim_cas_ns_per_op", per_op(split[3]));
            exact.insert(
                "pod.sim_other_ns_per_op",
                per_op(attribution.total_ns().saturating_sub(named)),
            );
            let per_kop = |kind| 1000.0 * attribution.count_of(kind) as f64 / rate_ops as f64;
            exact.insert("core.slab_allocs_per_kop", per_kop(TraceKind::SlabAlloc));
            exact.insert(
                "core.remote_publishes_per_kop",
                per_kop(TraceKind::RemoteFreePublish),
            );
            exact.insert("core.sim_local_pair_ns", alloc.mean() + free_local.mean());
            exact.insert("core.sim_remote_pair_ns", alloc.mean() + free_remote.mean());
            round.recording = Some(rec);
        }
        round
    }

    fn built(&self) -> Values {
        self.built.clone()
    }
}
