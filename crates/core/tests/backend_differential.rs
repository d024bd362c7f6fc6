//! The allocator's internals are compiled twice from one source: for
//! `RawMemory` (picked statically, once per call, on a raw pod) and for
//! `dyn PodMemory` (every other pod). This drives one seeded script
//! through both — a raw pod and a simulated pod in `HwccMode::Full`,
//! which models the same fully coherent memory behind the `dyn`
//! instantiation — and requires the two to agree on every returned
//! offset, every recovery report, the final census and the slab counts.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, BlockCensus, Cxlalloc, OffsetPtr, ThreadHandle};
use cxl_pod::{HwccMode, Pod, PodConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::AssertUnwindSafe;

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

struct Outcome {
    events: Vec<Event>,
    census: BlockCensus,
    slabs: (u32, u32),
}

fn run(pod: &Pod, expect_static: bool) -> Outcome {
    let process = pod.spawn_process();
    assert_eq!(process.raw_memory().is_some(), expect_static);
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
    heap.check_invariants(via).unwrap();
    let census = heap.census(via).unwrap();
    // Exact, by the audit's own accounting: a block whose remote free
    // was published but not yet applied by the slab's owner still has
    // its bit clear, and `remote_pending` counts exactly those.
    let counted = census.all_offsets();
    for (ptr, _) in &live {
        assert!(counted.binary_search(&ptr.offset()).is_ok(), "live block {ptr:?} lost");
    }
    assert_eq!(
        counted.len() as u64,
        live.len() as u64 + census.remote_pending_total(),
        "census counts a block nobody holds"
    );
    let stats = heap.stats();
    Outcome {
        events,
        census,
        slabs: (stats.small_slabs, stats.large_slabs),
    }
}

#[test]
fn static_and_dyn_instantiations_agree() {
    let config = PodConfig {
        small_max_slabs: 256,
        large_max_slabs: 64,
        ..PodConfig::small_for_tests()
    };
    let raw = run(&Pod::new(config.clone()).unwrap(), true);
    let sim = run(&Pod::with_simulation(config, HwccMode::Full).unwrap(), false);

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
