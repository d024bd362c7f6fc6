//! `crash_recover`: the paper's third axis — recovery after a thread
//! dies inside the allocator.
//!
//! Each cycle arms a crash at one of the allocator's own crash points,
//! runs alloc/free pairs until it fires, marks the thread crashed and
//! adopts it, timing `mark_crashed` → `adopt` returned. The benchmark's
//! ledger is reconciled for the one op in flight, and at the end of the
//! round must equal the heap census exactly: no block lost, none owned
//! twice. The individually timed op of this workload is the recovery,
//! so `op_p50_ns` / `op_p99_ns` are recovery latency.
//!
//! It runs on a raw pod. On a `Limited` simulated pod a prototype saw
//! ledger-only blocks after the first recovery; see the README.

use super::{audit_ledger, core_calls, heap_exact, leaf_mean_ns, per_op_ns, pod_config, pod_exact};
use super::{Env, Round, Timing, Workload};
use crate::host::ticks;
use crate::report::Values;
use crate::script::{crash_script, CrashCycle, CrashScript};
use crate::trace::{self, Name};
use cxl_core::audit::{block_state, BlockState};
use cxl_core::crash::{self, CrashPlan};
use cxl_core::{Cxlalloc, OffsetPtr, ThreadHandle};
use cxl_pod::Pod;
use std::panic::AssertUnwindSafe;
use std::time::Instant;

const WARM_CYCLES: usize = 200;
const TIMED_CYCLES: usize = 3000;
/// The timed pass is timed in chunks of this many cycles.
const CHUNK_CYCLES: usize = 100;

/// The op a crash interrupted.
#[derive(Clone, Copy)]
enum InFlight {
    Alloc { slot: u32, size: u32 },
    Free { slot: u32 },
}

/// Crash points one thread can reach on its own: everything but the
/// remote-free path, which needs a second thread's block.
pub fn labels() -> Vec<&'static str> {
    cxl_core::slab::CRASH_POINTS
        .iter()
        .copied()
        .filter(|label| !label.starts_with("slab::remote_free"))
        .collect()
}

/// Keeps injected crashes (panics carrying a `CrashSignal`) off stderr;
/// any other panic still reports through the previous hook.
pub fn silence_crash_signals() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !info.payload().is::<crash::CrashSignal>() {
            previous(info);
        }
    }));
}

pub struct CrashRecover {
    env: Env,
    labels: Vec<&'static str>,
    script: CrashScript,
    samples: Vec<u64>,
    built: Values,
}

struct State {
    handle: ThreadHandle,
    /// The ledger: the block each window slot holds, and its size.
    slots: Vec<Option<(OffsetPtr, u32)>>,
    in_flight: Option<InFlight>,
    /// Set in a traced pass.
    traced: bool,
    /// Whether this cycle's allocator calls are timed: one cycle in
    /// `TIMED_EVERY` of a traced pass.
    timed: bool,
    ops: u64,
    failed: u64,
}

impl State {
    /// Runs the cycle's pairs; an armed crash point unwinds out of here.
    fn run_pairs(&mut self, cycle: &CrashCycle) {
        for &(slot, size) in &cycle.pairs {
            if let Some((ptr, _)) = self.slots[slot as usize] {
                self.in_flight = Some(InFlight::Free { slot });
                if self.traced {
                    trace::count(Name::CoreDealloc);
                }
                let t0 = if self.timed { ticks() } else { 0 };
                let freed = self.handle.dealloc(ptr);
                if self.timed {
                    trace::leaf(Name::CoreDealloc, t0, ticks());
                }
                match freed {
                    Ok(()) => self.slots[slot as usize] = None,
                    Err(_) => self.failed += 1,
                }
                self.ops += 1;
            }
            self.in_flight = Some(InFlight::Alloc { slot, size });
            if self.traced {
                trace::count(Name::CoreAlloc);
            }
            let t0 = if self.timed { ticks() } else { 0 };
            let allocated = self.handle.alloc(size as usize);
            if self.timed {
                trace::leaf(Name::CoreAlloc, t0, ticks());
            }
            match allocated {
                Ok(ptr) => self.slots[slot as usize] = Some((ptr, size)),
                Err(_) => self.failed += 1,
            }
            self.ops += 1;
            self.in_flight = None;
        }
    }
}

impl CrashRecover {
    pub fn new(env: &Env) -> Self {
        let labels = labels();
        let start = Instant::now();
        let script = crash_script(env.seed, WARM_CYCLES + TIMED_CYCLES, labels.len());
        let mut built = Values::new();
        let generated: usize = script.cycles.iter().map(|c| 2 * c.pairs.len()).sum();
        built.insert("workloads.gen_ns_per_op", per_op_ns(start, generated));
        CrashRecover {
            env: env.clone(),
            labels,
            script,
            samples: Vec::with_capacity(TIMED_CYCLES),
            built,
        }
    }

    /// One cycle: arm, run until the crash, recover, reconcile.
    /// Returns whether the crash point fired.
    fn cycle(
        &mut self,
        index: usize,
        heap: &Cxlalloc,
        via: &ThreadHandle,
        state: &mut State,
    ) -> Result<bool, String> {
        let cycle = &self.script.cycles[index];
        state.timed = state.traced && (index as u64).is_multiple_of(trace::TIMED_EVERY);
        crash::arm(CrashPlan {
            at: self.labels[cycle.label],
            skip: cycle.skip,
        });
        let crashed = crash::catch(AssertUnwindSafe(|| state.run_pairs(cycle))).is_err();
        crash::disarm();
        if !crashed {
            return Ok(false);
        }

        let tid = state.handle.tid();
        let traced = state.traced;
        if traced {
            trace::begin_timed_op(index as u64);
        }
        let t0 = ticks();
        heap.mark_crashed(tid)
            .map_err(|e| format!("mark_crashed: {e}"))?;
        let marked = ticks();
        let (adopted, report) = heap
            .adopt(tid, via.core())
            .map_err(|e| format!("adopt: {e}"))?;
        let t1 = ticks();
        self.samples.push(t1 - t0);
        if traced {
            trace::child(Name::CoreMarkCrashed, &self.env.clock, t0, marked);
            trace::child(Name::CoreAdopt, &self.env.clock, marked, t1);
            trace::end_op(Name::OpRecover, &self.env.clock, t0, t1);
        }
        state.handle = adopted;
        state.ops += 1;

        match state.in_flight.take() {
            Some(InFlight::Alloc { slot, size }) => {
                // Recovery either rolled the allocation back or kept the
                // block and reported it: the ledger takes it over.
                if let Some(offset) = report.lost_block {
                    let ptr = OffsetPtr::new(offset).ok_or("recovery reported block 0")?;
                    state.slots[slot as usize] = Some((ptr, size));
                }
            }
            Some(InFlight::Free { slot }) => {
                let (ptr, _) =
                    state.slots[slot as usize].ok_or("free in flight on an empty slot")?;
                let mem = heap.process().memory().as_ref();
                if block_state(mem, via.core(), ptr.offset())? == BlockState::Free {
                    state.slots[slot as usize] = None;
                }
            }
            None => return Err("crash fired outside an allocator call".into()),
        }
        Ok(true)
    }
}

impl Workload for CrashRecover {
    fn round(&mut self, traced: bool) -> Round {
        let mut round = Round::default();

        let setup = Instant::now();
        let pod = Pod::new(pod_config(8192, 256)).expect("pod config is valid");
        let heap = Cxlalloc::attach(pod.spawn_process(), self.env.options.clone())
            .expect("layout matches the class tables");
        let via = heap
            .register_thread()
            .expect("a fresh pod has free thread slots");
        let mut state = State {
            handle: heap
                .register_thread()
                .expect("a fresh pod has free thread slots"),
            slots: Vec::with_capacity(self.script.preload.len()),
            in_flight: None,
            traced: false,
            timed: false,
            ops: 0,
            failed: 0,
        };
        for &size in &self.script.preload {
            let ptr = state.handle.alloc(size as usize).ok();
            state.failed += ptr.is_none() as u64;
            state.slots.push(ptr.map(|p| (p, size)));
        }
        round.setup_s = setup.elapsed().as_secs_f64();

        let mut error =
            (0..WARM_CYCLES).find_map(|index| self.cycle(index, &heap, &via, &mut state).err());
        let warm_ops = state.ops;

        self.samples.clear();
        let before = pod.memory().stats();
        if traced {
            state.traced = true;
            trace::start();
        }
        let mut chunks = Vec::with_capacity(TIMED_CYCLES / CHUNK_CYCLES);
        let mut next = WARM_CYCLES;
        while error.is_none() && next < WARM_CYCLES + TIMED_CYCLES {
            let t0 = ticks();
            error = (next..next + CHUNK_CYCLES)
                .find_map(|index| self.cycle(index, &heap, &via, &mut state).err());
            chunks.push(ticks() - t0);
            next += CHUNK_CYCLES;
        }
        let pass_ns = self.env.clock.ns(chunks.iter().sum());
        let recording = traced.then(trace::stop);

        round.ops = state.ops - warm_ops;
        round.failed = state.failed;
        pod_exact(
            &mut round.exact,
            &pod.memory().stats().since(&before),
            round.ops,
        );
        round
            .exact
            .insert("recoveries_per_round", self.samples.len() as f64);
        round.timing = Timing::Ticks {
            rate_ops: round.ops,
            chunks,
            latency: self.samples.clone(),
        };
        let live_bytes: u64 = state
            .slots
            .iter()
            .flatten()
            .map(|&(_, size)| size as u64)
            .sum();
        heap_exact(&mut round.exact, &heap.stats(), live_bytes);

        round.check = (|| {
            if let Some(error) = error {
                return Err(error);
            }
            if state.failed > 0 {
                return Err(format!("{} allocator calls failed", state.failed));
            }
            let start = Instant::now();
            let census = heap.census(via.core())?;
            round
                .layer
                .insert("core.census_ns", start.elapsed().as_nanos() as f64);
            let ledger = state
                .slots
                .iter()
                .flatten()
                .map(|(ptr, _)| ptr.offset())
                .collect();
            audit_ledger(&census, ledger)?;
            heap.check_invariants(via.core())
        })();

        if let Some(rec) = recording {
            core_calls(&mut round.layer, &rec, &self.env);
            let (mark, adopt) = (rec.agg(Name::CoreMarkCrashed), rec.agg(Name::CoreAdopt));
            let layer = &mut round.layer;
            layer.insert("core.mark_crashed_ns", leaf_mean_ns(mark, &self.env));
            layer.insert("core.adopt_ns", leaf_mean_ns(adopt, &self.env));
            // Allocator calls are timed in one cycle in seven and counted
            // in all; every recovery is timed.
            let busy_ns = layer["core.alloc_ns"] * rec.calls(Name::CoreAlloc) as f64
                + layer["core.dealloc_ns"] * rec.calls(Name::CoreDealloc) as f64
                + layer["core.mark_crashed_ns"] * mark.count as f64
                + layer["core.adopt_ns"] * adopt.count as f64;
            layer.insert("core.share_of_op", busy_ns / pass_ns);
            let p50 = crate::stats::percentile(&mut self.samples, 0.50);
            layer.insert("core.recover_p50_us", self.env.clock.ns(p50) / 1000.0);
            round.recording = Some(rec);
        }
        round
    }

    fn built(&self) -> Values {
        self.built.clone()
    }
}
