//! Property-based tests (proptest) on the allocator and its core data
//! structures, checked against simple shadow models.

use cxl_core::interval::IntervalTree;
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::{MapSet, Pod, PodConfig};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

// ---------------------------------------------------------------------------
// Allocator vs shadow model: random alloc/free sequences must produce
// disjoint, in-bounds, aligned blocks and support full drain.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(usize),
    FreeOldest,
    FreeNewest,
}

fn alloc_op() -> impl Strategy<Value = AllocOp> {
    prop_oneof![
        3 => (1usize..=2048).prop_map(AllocOp::Alloc),
        1 => Just(AllocOp::FreeOldest),
        1 => Just(AllocOp::FreeNewest),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        ..ProptestConfig::default()
    })]

    #[test]
    fn allocator_blocks_never_overlap(ops in proptest::collection::vec(alloc_op(), 1..300)) {
        let pod = Pod::new(PodConfig {
            small_max_slabs: 256,
            ..PodConfig::small_for_tests()
        }).unwrap();
        let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
        let mut t = heap.register_thread().unwrap();
        let mut live: Vec<(OffsetPtr, usize)> = Vec::new();
        let mut shadow: HashMap<u64, usize> = HashMap::new();

        for op in ops {
            match op {
                AllocOp::Alloc(size) => {
                    let p = t.alloc(size).unwrap();
                    // In-bounds of some data region.
                    let layout = pod.layout();
                    prop_assert!(layout.is_data(p.offset()));
                    // Disjoint from every live block.
                    for (&o, &s) in &shadow {
                        prop_assert!(
                            p.offset() + size as u64 <= o || p.offset() >= o + s as u64,
                            "[{:#x}+{}) overlaps [{:#x}+{})", p.offset(), size, o, s
                        );
                    }
                    shadow.insert(p.offset(), size);
                    live.push((p, size));
                }
                AllocOp::FreeOldest if !live.is_empty() => {
                    let (p, _) = live.remove(0);
                    shadow.remove(&p.offset());
                    t.dealloc(p).unwrap();
                }
                AllocOp::FreeNewest if !live.is_empty() => {
                    let (p, _) = live.pop().unwrap();
                    shadow.remove(&p.offset());
                    t.dealloc(p).unwrap();
                }
                _ => {}
            }
        }
        for (p, _) in live {
            t.dealloc(p).unwrap();
        }
        prop_assert!(heap.check_invariants(t.core()).is_ok());
    }

    #[test]
    fn rover_and_scan_from_zero_allocate_equivalently(
        ops in proptest::collection::vec(alloc_op(), 1..300)
    ) {
        // Differential oracle for the first-fit rover: the same op
        // sequence driven against a rover-guided heap and a
        // scan-from-zero heap must agree on every observable outcome —
        // per-op success, map-oracle validity (disjoint in-bounds
        // blocks), live-byte totals, the per-class live multiset, and
        // the slab-level trajectory (the rover only reorders bits
        // *within* a slab; slab fill/empty events are unchanged).
        let mk = || {
            let pod = Pod::new(PodConfig {
                small_max_slabs: 256,
                ..PodConfig::small_for_tests()
            }).unwrap();
            let heap = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default()).unwrap();
            (pod, heap)
        };
        let (pod_r, heap_r) = mk();
        let (pod_z, heap_z) = mk();
        let mut tr = heap_r.register_thread().unwrap();
        let mut tz = heap_z.register_thread().unwrap();
        let mut live_r: Vec<(OffsetPtr, usize)> = Vec::new();
        let mut live_z: Vec<(OffsetPtr, usize)> = Vec::new();
        let mut shadow_r: HashMap<u64, usize> = HashMap::new();
        // The reference heap scans from zero: before each allocation the
        // rover of every slab its thread has allocated from is zeroed
        // (one pointer per slab, keyed by the slab's data offset), and a
        // slab it never touched has no rover yet.
        let mut touched_z: HashMap<u64, OffsetPtr> = HashMap::new();
        let slab_base = |offset: u64| {
            let layout = pod_z.layout();
            let hl = if layout.small.data.contains(offset) { &layout.small } else { &layout.large };
            hl.slab_data_at(hl.slab_of(offset).unwrap())
        };

        for op in ops {
            match op {
                AllocOp::Alloc(size) => {
                    for &p in touched_z.values() {
                        tz.debug_set_rover(p, 0);
                    }
                    let pr = tr.alloc(size);
                    let pz = tz.alloc(size);
                    if let Ok(pz) = pz {
                        touched_z.insert(slab_base(pz.offset()), pz);
                    }
                    prop_assert_eq!(pr.is_ok(), pz.is_ok(), "success diverged for size {}", size);
                    let (Ok(pr), Ok(pz)) = (pr, pz) else { continue };
                    // Map oracle on the rover heap: in some data
                    // region, disjoint from every live block.
                    prop_assert!(pod_r.layout().is_data(pr.offset()));
                    for (&o, &s) in &shadow_r {
                        prop_assert!(
                            pr.offset() + size as u64 <= o || pr.offset() >= o + s as u64,
                            "rover block [{:#x}+{}) overlaps [{:#x}+{})",
                            pr.offset(), size, o, s
                        );
                    }
                    shadow_r.insert(pr.offset(), size);
                    live_r.push((pr, size));
                    live_z.push((pz, size));
                }
                AllocOp::FreeOldest if !live_r.is_empty() => {
                    let (pr, _) = live_r.remove(0);
                    let (pz, _) = live_z.remove(0);
                    shadow_r.remove(&pr.offset());
                    prop_assert_eq!(tr.dealloc(pr).is_ok(), tz.dealloc(pz).is_ok());
                }
                AllocOp::FreeNewest if !live_r.is_empty() => {
                    let (pr, _) = live_r.pop().unwrap();
                    let (pz, _) = live_z.pop().unwrap();
                    shadow_r.remove(&pr.offset());
                    prop_assert_eq!(tr.dealloc(pr).is_ok(), tz.dealloc(pz).is_ok());
                }
                _ => {}
            }
        }
        // Identical live multisets (trivially same sizes — the real
        // content is that both heaps survived the same trajectory) and
        // identical slab-level state.
        let bytes = |l: &Vec<(OffsetPtr, usize)>| l.iter().map(|&(_, s)| s as u64).sum::<u64>();
        prop_assert_eq!(bytes(&live_r), bytes(&live_z));
        let slabs_r = heap_r.stats();
        let slabs_z = heap_z.stats();
        prop_assert_eq!(slabs_r.small_slabs, slabs_z.small_slabs, "small slab counts diverged");
        prop_assert_eq!(slabs_r.large_slabs, slabs_z.large_slabs, "large slab counts diverged");
        for (p, _) in live_r {
            tr.dealloc(p).unwrap();
        }
        for (p, _) in live_z {
            tz.dealloc(p).unwrap();
        }
        prop_assert!(heap_r.check_invariants(tr.core()).is_ok());
        prop_assert!(heap_z.check_invariants(tz.core()).is_ok());
    }

    #[test]
    fn size_class_serves_at_least_requested(size in 1usize..=(512 << 10)) {
        use cxl_core::class::{LARGE_CLASSES_TABLE, SMALL_CLASSES_TABLE};
        let table = if size <= 1024 { &SMALL_CLASSES_TABLE } else { &LARGE_CLASSES_TABLE };
        let class = table.class_of(size).unwrap();
        prop_assert!(table.block_size(class) as usize >= size);
        if class > 0 {
            prop_assert!((table.block_size(class - 1) as usize) < size);
        }
    }
}

// ---------------------------------------------------------------------------
// IntervalTree vs BTreeSet-of-bytes model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TreeOp {
    Take(u64),
    InsertTaken(usize),
}

fn tree_op() -> impl Strategy<Value = TreeOp> {
    prop_oneof![
        2 => (1u64..=64).prop_map(TreeOp::Take),
        1 => (0usize..8).prop_map(TreeOp::InsertTaken),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128,
        ..ProptestConfig::default()
    })]

    #[test]
    fn interval_tree_matches_byte_model(ops in proptest::collection::vec(tree_op(), 1..200)) {
        const SPACE: u64 = 512;
        let mut tree = IntervalTree::new();
        tree.insert(0, SPACE);
        let mut model: BTreeSet<u64> = (0..SPACE).collect();
        let mut taken: Vec<(u64, u64)> = Vec::new();

        for op in ops {
            match op {
                TreeOp::Take(len) => {
                    match tree.take(len) {
                        Some(start) => {
                            for b in start..start + len {
                                prop_assert!(model.remove(&b), "byte {b} double-taken");
                            }
                            taken.push((start, len));
                        }
                        None => {
                            // No run of `len` contiguous free bytes may exist.
                            let mut run = 0u64;
                            let mut prev: Option<u64> = None;
                            let mut max_run = 0u64;
                            for &b in &model {
                                run = match prev {
                                    Some(p) if b == p + 1 => run + 1,
                                    _ => 1,
                                };
                                prev = Some(b);
                                max_run = max_run.max(run);
                            }
                            prop_assert!(max_run < len, "take({len}) failed with a {max_run}-byte run free");
                        }
                    }
                }
                TreeOp::InsertTaken(i) if !taken.is_empty() => {
                    let (start, len) = taken.swap_remove(i % taken.len());
                    tree.insert(start, len);
                    for b in start..start + len {
                        prop_assert!(model.insert(b));
                    }
                }
                _ => {}
            }
            prop_assert_eq!(tree.free_bytes(), model.len() as u64);
        }
    }

    #[test]
    fn mapset_matches_byte_model(
        ops in proptest::collection::vec(
            (0u64..256, 1u64..64, any::<bool>()), 1..100)
    ) {
        let mut set = MapSet::new();
        let mut model: BTreeSet<u64> = BTreeSet::new();
        for (start, len, insert) in ops {
            let end = start + len;
            if insert {
                set.insert(start, end);
                model.extend(start..end);
            } else {
                set.remove(start, end);
                for b in start..end {
                    model.remove(&b);
                }
            }
            prop_assert_eq!(set.covered_bytes(), model.len() as u64);
            // Spot-check membership at the edges.
            for probe in [start.saturating_sub(1), start, end - 1, end] {
                prop_assert_eq!(
                    set.contains(probe, 1),
                    model.contains(&probe),
                    "probe {}", probe
                );
            }
        }
    }

    #[test]
    fn detect_cell_roundtrips(version in any::<u16>(), tid in any::<u16>(), payload in any::<u32>()) {
        use cxl_core::cell::Detect;
        let d = Detect { version, tid, payload };
        prop_assert_eq!(Detect::unpack(d.pack()), d);
    }

    #[test]
    fn swcc_header_roundtrips(next in any::<u32>(), owner in any::<u16>(), class in any::<u8>(), flags in any::<u8>()) {
        use cxl_core::cell::SwccHeader;
        let h = SwccHeader { next, owner, class, flags };
        prop_assert_eq!(SwccHeader::unpack(h.pack()), h);
    }
}

// ---------------------------------------------------------------------------
// Fault plans and schedules: random schedules under randomly generated
// *benign* fault plans (virtual-clock delays and bounded transient mCAS
// contention) must still pass every invariant — faults may slow the
// pod down, never corrupt it.
// ---------------------------------------------------------------------------

mod faults {
    use super::*;
    use cxl_drive::explore::Explorer;
    use cxl_drive::sched::{self, Schedule, SimConfig};
    use cxl_pod::fault::{FaultKind, FaultRule};
    use cxl_pod::HwccMode;

    /// A fault kind that cannot violate correctness: delays only move
    /// the virtual clock, and transient mCAS contention is retried by
    /// every caller.
    fn benign_kind() -> impl Strategy<Value = FaultKind> {
        prop_oneof![
            (1u64..=5_000).prop_map(FaultKind::DelayFlush),
            (1u64..=2_000).prop_map(FaultKind::DelayWriteback),
            (1u64..=5_000).prop_map(FaultKind::McasDelay),
            Just(FaultKind::McasContention),
        ]
    }

    /// A benign rule: any kind, optional core/range filter, bounded
    /// skip/count window. Contention stays bounded well below the
    /// allocator's retry budget so it is always transient.
    fn benign_rule() -> impl Strategy<Value = FaultRule> {
        (
            benign_kind(),
            prop_oneof![Just(None), (0usize..2).prop_map(Some)],
            0u64..8,
            1u64..16,
        )
            .prop_map(|(kind, core, skip, count)| {
                let mut rule = FaultRule::new(kind).after(skip).times(count);
                if let Some(core) = core {
                    rule = rule.on_core(core);
                }
                rule
            })
    }

    fn benign_plan() -> impl Strategy<Value = Vec<FaultRule>> {
        proptest::collection::vec(benign_rule(), 0..4)
    }

    /// A schedule drawn through the canonical generator, so failures
    /// reported here replay with `Explorer::run_seed(seed)`.
    fn schedule() -> impl Strategy<Value = Schedule> {
        (any::<u64>(), 5usize..25)
            .prop_map(|(seed, len)| Schedule::generate(seed, 2, len))
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 24,
            ..ProptestConfig::default()
        })]

        #[test]
        fn random_schedules_survive_benign_fault_plans(
            schedule in schedule(),
            plan in benign_plan(),
        ) {
            let explorer = Explorer {
                plan,
                ..Explorer::default()
            };
            let run = sched::run(&explorer.config, &schedule, &explorer.plan);
            prop_assert!(
                run.is_ok(),
                "seed {} failed: {:?} (plan {:?})",
                schedule.seed,
                run.err(),
                explorer.plan
            );
        }

        #[test]
        fn mcas_schedules_survive_device_faults(
            seed in any::<u64>(),
            delay in 1u64..10_000,
            contended in 1u64..12,
        ) {
            let config = SimConfig {
                mode: HwccMode::None,
                ..SimConfig::default()
            };
            let faults = [
                FaultRule::new(FaultKind::McasDelay(delay)).times(16),
                FaultRule::new(FaultKind::McasContention).times(contended),
            ];
            let schedule = Schedule::generate(seed, 2, 15);
            let run = sched::run(&config, &schedule, &faults);
            prop_assert!(run.is_ok(), "seed {seed} failed: {:?}", run.err());
        }

        #[test]
        fn schedule_generation_is_pure(seed in any::<u64>(), len in 1usize..60) {
            let a = Schedule::generate(seed, 3, len);
            let b = Schedule::generate(seed, 3, len);
            prop_assert_eq!(a, b);
        }
    }
}
