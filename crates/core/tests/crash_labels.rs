//! Crash-label coverage: the registry the crash matrix iterates
//! (`crash::known_points()`) and the `crash::point("…")` calls
//! compiled into the allocator must name
//! exactly the same labels, each in exactly one of the registry's
//! lists. A call whose label no list names is a crash point the matrix
//! never fires; a listed label with no call is a matrix row that can
//! only ever report "never reached" (`crash_recovery.rs` fails then).

use cxl_core::crash;
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

/// `slab::CRASH_POINTS` and `huge::CRASH_POINTS`, in order. The
/// `crash_recover` benchmark builds its label cycle from the slab list
/// (`benchmark/src/workloads/crash_recover.rs::labels`), and
/// `cxl-drive`'s schedule generator draws from both lists by index, so
/// adding, removing or reordering a label changes the benchmark's script
/// and every generated schedule, not just the code under test. A new
/// crash point goes in a list of its own, as
/// `slab::BATCH_CRASH_POINTS` and `huge::HINT_CRASH_POINTS` do.
#[test]
fn the_lists_that_scripts_draw_from_do_not_move() {
    assert_eq!(
        cxl_core::slab::CRASH_POINTS,
        [
            "slab::alloc_block::rover",
            "slab::alloc_block::after_log",
            "slab::alloc_block::after_clear",
            "slab::alloc_block::after_deliver",
            "slab::alloc_block::after_unlink",
            "slab::alloc_block::after_transition",
            "slab::free_local::after_log",
            "slab::free_local::after_set",
            "slab::free_local::after_relink",
            "slab::remote_free::after_log",
            "slab::remote_free::after_cas",
            "slab::remote_free::before_steal_push",
            "slab::init::after_log",
            "slab::init::mid",
            "slab::pop_global::after_log",
            "slab::pop_global::after_cas",
            "slab::push_global::after_log",
            "slab::push_global::after_pop",
            "slab::push_global::after_cas",
            "slab::extend::after_log",
            "slab::extend::after_cas",
        ]
    );
    assert_eq!(
        cxl_core::huge::CRASH_POINTS,
        [
            "huge::claim::after_log",
            "huge::claim::after_cas",
            "huge::alloc::after_log",
            "huge::alloc::after_desc",
            "huge::alloc::after_hazard",
            "huge::alloc::after_link",
            "huge::free::after_log",
            "huge::free::after_flag",
            "huge::cleanup::after_log",
        ]
    );
}
