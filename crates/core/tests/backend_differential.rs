//! The allocator's internals are compiled twice from one source: for
//! `RawMemory` (picked statically, once per call, on a raw pod) and for
//! `dyn PodMemory` (every other pod). This drives one seeded script,
//! with three crashes and adoptions in it, through pairs of pods and
//! requires each pair to agree on every returned offset, every recovery
//! report, the final census and the slab counts:
//!
//! * a raw pod and a simulated pod in `HwccMode::Full`, which models the
//!   same fully coherent memory behind the `dyn` instantiation;
//! * for `HwccMode::Limited` and `HwccMode::None`, where no raw pod
//!   models the same memory, two simulated pods built independently
//!   (`Pod::with_simulation` and `Pod::from_memory` over an identical
//!   `SimMemory`) — where the simulator's own output must match too:
//!   every counter, every core's virtual clock and the fingerprint of
//!   the whole event stream.
//!
//! The simulated pods also run the script with every adoption walking
//! all of the dead thread's lists (`!0` in its durable dirty-list mask):
//! the same events, audits and metadata, and the same pinned refusal.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, BlockCensus, Cxlalloc, OffsetPtr, ThreadHandle};
use cxl_pod::latency::LatencyModel;
use cxl_pod::stats::MemStatsSnapshot;
use cxl_pod::{CoreId, HwccMode, Layout, Pod, PodConfig, Segment, SimMemory};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hash::{Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::Arc;

include!("common/crash.rs");

const SEED: u64 = 0x00D1_FF15;
const STEPS: usize = 6000;

/// Where each of the three crashes is injected: (step, label). The step
/// is an alloc or a free according to the label.
const CRASHES: [(usize, &str); 3] = [
    (1500, "slab::alloc_block::after_clear"),
    (3000, "slab::free_local::after_set"),
    (4500, "slab::remote_free::after_cas"),
];

/// What one step did, as far as a caller can see.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Event {
    Alloc { by: usize, size: usize, got: Result<u64, String> },
    Free { by: usize, offset: u64, got: Result<(), String> },
    Crashed { by: usize, outcome: &'static str, lost_block: Option<u64> },
}

#[derive(Debug, PartialEq)]
struct Outcome {
    events: Vec<Event>,
    /// The two end-of-run audits' verdicts; `Ok` on coherent memory.
    invariants: Result<(), String>,
    census: Result<BlockCensus, String>,
    slabs: (u32, u32),
    /// A hash of the segment's metadata at the end.
    metadata: u64,
    /// What the backend itself recorded: counters, each core's virtual
    /// clock, and the trace stream's fingerprint on backends that trace.
    stats: MemStatsSnapshot,
    virtual_ns: Vec<u64>,
    trace: Option<u64>,
}

/// Runs the script on `pod`; with `full_walk` every adoption walks all
/// of the dead thread's lists.
fn run(pod: &Pod, expect_static: bool, full_walk: bool) -> Outcome {
    let process = pod.spawn_process();
    assert_eq!(process.raw_memory().is_some(), expect_static);
    if let Some(tracer) = pod.memory().tracer() {
        tracer.arm();
    }
    let heap = Cxlalloc::attach(process, AttachOptions::default()).unwrap();
    let mut handles: Vec<ThreadHandle> = vec![
        heap.register_thread().unwrap(),
        heap.register_thread().unwrap(),
    ];
    // (block, the handle that allocated it)
    let mut live: Vec<(OffsetPtr, usize)> = Vec::new();
    let mut events = Vec::with_capacity(STEPS);
    let mut rng = StdRng::seed_from_u64(SEED);
    let mut crashes = 0;

    for step in 0..STEPS {
        let crash = CRASHES.iter().find(|c| c.0 == step).map(|c| c.1);
        let mut by = usize::from(rng.gen_range(0..10) >= 7);
        let alloc = match crash {
            Some(label) => label.starts_with("slab::alloc_block"),
            None => live.is_empty() || rng.gen_range(0..100) < 55,
        };
        // Small sizes mostly, every fifth one large.
        let size = if rng.gen_range(0..5) == 0 {
            rng.gen_range(1025..=16 << 10)
        } else {
            rng.gen_range(1..=1024)
        };
        let pick = rng.gen_range(0..live.len().max(1));
        let victim = if alloc {
            None
        } else if let Some(label) = crash {
            // The newest small block: its slab is still its allocator's,
            // so the allocator's free is local and the other handle's is
            // remote.
            let i = (0..live.len())
                .rev()
                .find(|&i| pod.layout().small.data.contains(live[i].0.offset()))
                .expect("a live small block");
            let (ptr, owner) = live.swap_remove(i);
            by = if label.starts_with("slab::free_local") { owner } else { 1 - owner };
            Some(ptr)
        } else {
            Some(live.swap_remove(pick).0)
        };
        if let Some(label) = crash {
            crash::arm(CrashPlan { at: label, skip: 0 });
        }

        let handle = &mut handles[by];
        let result = crash::catch(AssertUnwindSafe(|| match victim {
            None => Event::Alloc {
                by,
                size,
                got: handle.alloc(size).map(|p| p.offset()).map_err(|e| e.to_string()),
            },
            Some(ptr) => Event::Free {
                by,
                offset: ptr.offset(),
                got: handle.dealloc(ptr).map_err(|e| e.to_string()),
            },
        }));
        crash::disarm();
        match result {
            Ok(event) => {
                assert!(crash.is_none(), "step {step} never reached its crash point");
                if let Event::Alloc { got: Ok(offset), .. } = event {
                    live.push((OffsetPtr::new(offset).unwrap(), by));
                }
                events.push(event);
            }
            Err(signal) => {
                assert_eq!(Some(signal.at), crash);
                crashes += 1;
                // The crashed handle is never used again; the other
                // thread adopts its slot and takes its place.
                let tid = handles[by].tid();
                let via = handles[1 - by].core();
                heap.mark_crashed(tid).unwrap();
                if full_walk {
                    force_full_walk(pod, tid.slot());
                }
                let (adopted, report) = heap.adopt(tid, via).unwrap();
                handles[by] = adopted;
                // An interrupted alloc that recovery could not roll back
                // is the caller's to keep; an interrupted free is redone.
                if let Some(lost) = report.lost_block {
                    live.push((OffsetPtr::new(lost).unwrap(), by));
                }
                events.push(Event::Crashed {
                    by,
                    outcome: report.outcome,
                    lost_block: report.lost_block,
                });
            }
        }
    }
    assert_eq!(crashes, CRASHES.len());

    for handle in &handles {
        handle.flush_cache();
    }
    let via = handles[0].core();
    let invariants = heap.check_invariants(via);
    let census = heap.census(via);
    let mem = pod.memory();
    // On coherent memory the audits are exact, by their own accounting:
    // a block whose remote free was published but not yet applied by the
    // slab's owner still has its bit clear, and `remote_pending` counts
    // exactly those. Where `mark_crashed` discards the victim's cache
    // they are not yet (ROADMAP item 1: a bitmap word that lived only in
    // that cache is lost); there the verdicts are compared between the
    // two instantiations like everything else.
    if mem.hwcc_mode() == HwccMode::Full {
        invariants.as_ref().unwrap();
        let census = census.as_ref().unwrap();
        let counted = census.all_offsets();
        for (ptr, _) in &live {
            assert!(counted.binary_search(&ptr.offset()).is_ok(), "live block {ptr:?} lost");
        }
        assert_eq!(
            counted.len() as u64,
            live.len() as u64 + census.remote_pending_total(),
            "census counts a block nobody holds"
        );
    }
    let stats = heap.stats();
    let mut metadata = std::collections::hash_map::DefaultHasher::new();
    metadata_image(pod).hash(&mut metadata);
    Outcome {
        events,
        invariants,
        census,
        slabs: (stats.small_slabs, stats.large_slabs),
        metadata: metadata.finish(),
        stats: mem.stats(),
        virtual_ns: (0..pod.config().max_threads)
            .map(|core| mem.virtual_ns(CoreId(core as u16)))
            .collect(),
        trace: mem.tracer().map(|tracer| tracer.fingerprint()),
    }
}

fn config() -> PodConfig {
    PodConfig {
        small_max_slabs: 256,
        large_max_slabs: 64,
        ..PodConfig::small_for_tests()
    }
}

#[test]
fn static_and_dyn_instantiations_agree() {
    let raw = run(&Pod::new(config()).unwrap(), true, false);
    let sim = run(&Pod::with_simulation(config(), HwccMode::Full).unwrap(), false, false);

    assert_eq!(raw.events.len(), sim.events.len());
    for (step, (a, b)) in raw.events.iter().zip(&sim.events).enumerate() {
        assert_eq!(a, b, "step {step} differs between the raw and the simulated pod");
    }
    assert_eq!(raw.census, sim.census);
    assert_eq!(raw.slabs, sim.slabs);

    // The script exercised what it claims to.
    let count = |f: fn(&Event) -> bool| raw.events.iter().filter(|e| f(e)).count();
    assert!(count(|e| matches!(e, Event::Alloc { size, got: Ok(_), .. } if *size > 1024)) > 100);
    assert!(count(|e| matches!(e, Event::Free { got: Ok(()), .. })) > 1000);
    assert_eq!(count(|e| matches!(e, Event::Free { got: Err(_), .. })), 0);
}

/// The pod `Pod::with_simulation(config(), mode)` builds, assembled by
/// hand and handed to `Pod::from_memory`.
fn hand_built_sim_pod(mode: HwccMode) -> Pod {
    let config = config();
    let layout = Layout::compute(&config).unwrap();
    let segment = Arc::new(Segment::zeroed(layout.total_len).unwrap());
    let sim = SimMemory::new(
        segment,
        layout,
        mode,
        config.max_threads,
        LatencyModel::paper_calibrated(),
    );
    Pod::from_memory(config, Arc::new(sim))
}

#[test]
fn simulated_pods_agree_on_every_counter_and_clock() {
    for mode in [HwccMode::Limited, HwccMode::None] {
        let built = run(&Pod::with_simulation(config(), mode).unwrap(), false, false);
        let handed = run(&hand_built_sim_pod(mode), false, false);

        for (step, (a, b)) in built.events.iter().zip(&handed.events).enumerate() {
            assert_eq!(a, b, "{mode}: step {step} differs between the two pods");
        }
        assert_eq!(built, handed, "{mode}");

        // Not exact on either mode (ROADMAP item 1), and the same under
        // the full walk: its counters and clocks differ, nothing else.
        let refusal = "small: slab 13 has 23 pending remote frees but only 19 open blocks";
        assert_eq!(built.invariants, Err(refusal.to_string()), "{mode}");
        let full = run(&Pod::with_simulation(config(), mode).unwrap(), false, true);
        assert_eq!(
            (&full.events, &full.invariants, &full.census, full.slabs, full.metadata),
            (&built.events, &built.invariants, &built.census, built.slabs, built.metadata),
            "{mode}: the full walk diverged"
        );

        // The comparison is of a simulation that did something.
        assert!(built.trace.is_some());
        assert!(built.stats.line_fills > 0 && built.stats.writebacks > 0);
        assert!(built.virtual_ns[0] > 0 && built.virtual_ns[1] > 0);
        let (cas, mcas) = (built.stats.cas_ok, built.stats.mcas_ok);
        assert!(if mode == HwccMode::None { mcas > 0 } else { cas > 0 && mcas == 0 });
    }
}
