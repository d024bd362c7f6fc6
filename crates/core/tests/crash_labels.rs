//! Crash-label coverage: the registry the crash matrices iterate
//! (`crash::known_points()`) and the `crash::point("…")` calls
//! compiled into the allocator must name
//! exactly the same labels, each in exactly one of the registry's
//! lists. A call whose label no list names is a crash point no matrix
//! ever fires; a listed label with no call is a matrix row that can
//! only ever report "never reached".
//!
//! The global free list's five labels are additionally held to fire
//! and recover exactly on a default-layout pod.

use cxl_core::crash::{self, CrashPlan};
use cxl_core::{AttachOptions, Cxlalloc, OffsetPtr};
use cxl_pod::{HwccMode, Pod, PodConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every string literal passed to `crash::point(` in
/// `crates/core/src/*.rs`, with the files that pass it.
fn labels_in_source() -> BTreeMap<String, BTreeSet<String>> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut found: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_none_or(|e| e != "rs") {
            continue;
        }
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let call = "crash::point(\"";
        for (at, _) in text.match_indices(call) {
            let rest = &text[at + call.len()..];
            let label = &rest[..rest.find('"').expect("unterminated label")];
            found.entry(label.to_owned()).or_default().insert(file.clone());
        }
    }
    found
}

#[test]
fn every_crash_label_is_listed_exactly_once_and_every_listed_label_exists() {
    let source = labels_in_source();
    assert!(source.len() > 30, "the scan found only {} labels", source.len());

    let mut listed: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (list, labels) in crash::known_points() {
        for label in labels {
            listed.entry(label).or_default().push(list);
        }
    }

    let mut problems = Vec::new();
    for (label, files) in &source {
        match listed.get(label.as_str()).map_or(0, Vec::len) {
            1 => {}
            0 => problems.push(format!("{label} (in {files:?}) is in no list")),
            _ => problems.push(format!("{label} is in several lists: {:?}", listed[label.as_str()])),
        }
    }
    for (label, lists) in &listed {
        if !source.contains_key(*label) {
            problems.push(format!("{label} is listed in {lists:?} but no source file passes it"));
        }
    }
    assert!(problems.is_empty(), "{}", problems.join("\n"));
}

include!("common/walks.rs");

/// Each label inside the global free list's pop and push fires on a
/// pod of the default layout, raw, `Limited` and `None`, and recovery
/// leaves clean invariants, a census of exactly the blocks still held,
/// and no slab lost: the adopter fills a slab's worth of blocks without
/// the heap growing. Each cell runs with the targeted and with the full
/// sanitize walk.
#[test]
fn global_list_labels_fire_and_recover_exactly() {
    const LABELS: [&str; 5] = [
        "slab::pop_global::after_log",
        "slab::pop_global::after_cas",
        "slab::push_global::after_pop",
        "slab::push_global::after_log",
        "slab::push_global::after_cas",
    ];
    let mut rows = Vec::new();
    for mode in [None, Some(HwccMode::Limited), Some(HwccMode::None)] {
        for label in LABELS {
            let cell = format!("{label} ({mode:?})");
            let targeted = global_list_cell(label, mode, false);
            let full = global_list_cell(label, mode, true);
            rows.push(compare_walks(cell, &targeted, &full));
        }
    }
    check_walks("global_list_labels_fire_and_recover_exactly", &rows);
}

/// One cell of `global_list_labels_fire_and_recover_exactly`, walking
/// every list when `full`: what its recovery left.
fn global_list_cell(label: &'static str, mode: Option<HwccMode>, full: bool) -> Recovered {
    // 64-byte blocks per 32 KiB small slab.
    const PER_SLAB: usize = 512;
    let is_push = label.starts_with("slab::push_global");
    let config = PodConfig::small_for_tests();
    let pod = match mode {
        None => Pod::new(config).unwrap(),
        Some(mode) => Pod::with_simulation(config, mode).unwrap(),
    };
    // No local unsized list: every slab a thread gives up goes to the
    // global list, and every slab it needs comes from it.
    let options = AttachOptions { unsized_limit: 0, ..AttachOptions::default() };
    let heap = Cxlalloc::attach(pod.spawn_process(), options).unwrap();
    let mut survivor = heap.register_thread().unwrap();
    let mut kept: Vec<OffsetPtr> = [8, 128, 4096].map(|size| survivor.alloc(size).unwrap()).to_vec();
    // Two slabs filled and emptied: one stays behind as the class's
    // retained empty slab, the other is on the global list for the
    // victim to pop.
    let churn: Vec<OffsetPtr> = (0..2 * PER_SLAB).map(|_| survivor.alloc(64).unwrap()).collect();
    for p in churn {
        survivor.dealloc(p).unwrap();
    }
    survivor.flush_cache();

    let (tid, last) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut t = heap.register_thread().unwrap();
            // Push: two slabs freed down to their last block, whose free
            // empties the second one and overflows it. Pop: the victim's
            // first allocation.
            let last = is_push.then(|| {
                let mut filled: Vec<OffsetPtr> = (0..2 * PER_SLAB).map(|_| t.alloc(64).unwrap()).collect();
                let last = filled.pop().unwrap();
                for p in filled {
                    t.dealloc(p).unwrap();
                }
                // Quiesce: the crashing op is then the only one the
                // victim's cache can take with it.
                t.flush_cache();
                last
            });
            crash::arm(CrashPlan { at: label, skip: 0 });
            let crashed = crash::catch(std::panic::AssertUnwindSafe(|| match last {
                Some(last) => t.dealloc(last).unwrap(),
                None => drop(t.alloc(64).unwrap()),
            }))
            .is_err();
            crash::disarm();
            assert!(crashed, "{label} ({mode:?}) never fired");
            (t.tid(), last)
        })
        .join()
        .unwrap()
    });
    heap.mark_crashed(tid).unwrap();
    if full {
        force_full_walk(&pod, tid.slot());
    }
    let via = survivor.core();
    let report = heap.recover(tid, via).unwrap();
    let recovered = Recovered::after(&pod, &heap, via, &report);
    heap.check_invariants(via)
        .unwrap_or_else(|e| panic!("invariants after {label} ({mode:?}): {e}"));
    // One cell is not exact on the simulated pods. At `after_pop` the
    // free that emptied the slab has cleared its own log entry and the
    // push has not logged yet; the freed block's bitmap word is still in
    // the victim's cache and goes with it, so the block reads allocated
    // and its owner frees it again (ROADMAP item 1, the `Limited`
    // signal).
    if label == "slab::push_global::after_pop" && mode.is_some() {
        kept.extend(last);
    }
    let mut expected: Vec<u64> = kept.iter().map(|p| p.offset()).collect();
    expected.sort_unstable();
    assert_eq!(recovered.census, Ok(expected), "{label} ({mode:?})");

    let slabs = heap.stats().small_slabs;
    let (mut adopted, _report) = heap.adopt(tid, via).unwrap();
    kept.extend((0..PER_SLAB).map(|_| adopted.alloc(64).unwrap()));
    assert_eq!(heap.stats().small_slabs, slabs, "{label} ({mode:?}) lost a slab");
    for p in kept {
        adopted.dealloc(p).unwrap();
    }
    adopted.flush_cache();
    heap.check_invariants(via).unwrap();
    recovered
}
