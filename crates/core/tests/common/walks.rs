// The targeted-vs-full sanitize differential, shared by the crash
// matrices (`include!`d, like `golden_fingerprints.rs`). Each crash cell
// runs twice from the same deterministic script: once as is, and once
// with `!0` written into the dead thread's durable dirty-list mask
// before recovery, which makes sanitize walk all 49 private lists, as it
// did before the mask existed. Both runs must leave the same metadata
// image, census and outcome, and repair the same number of lists: every
// list the full walk repairs is inside the targeted walk set. Each test
// target uses only some items, so every item carries allow(dead_code).

/// Writes `!0` into thread `slot`'s durable dirty-list mask, so its next
/// recovery walks every private list.
#[allow(dead_code)]
fn force_full_walk(pod: &cxl_pod::Pod, slot: u32) {
    let off = pod.layout().log_aux_at(slot, cxl_core::oplog::DIRTY_WORD);
    pod.memory()
        .segment()
        .atomic_u64(off)
        .store(!0, std::sync::atomic::Ordering::SeqCst);
}

/// The segment's durable allocator metadata: everything below the small
/// heap's data region (HWcc cells, list heads, SWcc descriptors, huge
/// descriptors, logs) and the remote-free header lines at its tail.
#[allow(dead_code)]
fn metadata_image(pod: &cxl_pod::Pod) -> Vec<u8> {
    let layout = pod.layout();
    let segment = pod.memory().segment();
    let mut image = vec![0u8; (layout.small.data.start + layout.remote_buf.len) as usize];
    let (head, tail) = image.split_at_mut(layout.small.data.start as usize);
    segment.read_bytes(0, head);
    segment.read_bytes(layout.remote_buf.start, tail);
    image
}

/// What one run of a crash cell left right after its recovery.
#[allow(dead_code)]
#[derive(Debug)]
struct Recovered {
    outcome: &'static str,
    /// `(lists_walked, lists_repaired)`.
    walks: (u64, u64),
    /// The census's allocated offsets, or the audit's refusal.
    census: Result<Vec<u64>, String>,
    image: Vec<u8>,
}

#[allow(dead_code)]
impl Recovered {
    /// Reads the census and the metadata image after `report`'s recovery.
    fn after(pod: &cxl_pod::Pod, heap: &cxl_core::Cxlalloc, via: cxl_pod::CoreId, report: &cxl_core::RecoveryReport) -> Self {
        Recovered {
            outcome: report.outcome,
            walks: (report.lists_walked.into(), report.lists_repaired.into()),
            census: heap.census(via).map(|c| c.all_offsets()),
            image: metadata_image(pod),
        }
    }
}

/// One crash cell's recovery walks: `(lists_walked, lists_repaired)`
/// under the targeted and the forced-full walk.
#[allow(dead_code)]
struct WalkRow {
    cell: String,
    targeted: (u64, u64),
    full: (u64, u64),
}

/// Asserts the targeted and the forced-full run of `cell` left the same
/// metadata, census and outcome, and returns the cell's row.
#[allow(dead_code)]
fn compare_walks(cell: String, targeted: &Recovered, full: &Recovered) -> WalkRow {
    assert_same_image(&cell, &targeted.image, &full.image);
    assert_eq!((targeted.outcome, &targeted.census), (full.outcome, &full.census), "{cell}");
    WalkRow { cell, targeted: targeted.walks, full: full.walks }
}

/// Asserts the two images are byte-identical, naming the first
/// differing offset.
#[allow(dead_code)]
fn assert_same_image(cell: &str, targeted: &[u8], full: &[u8]) {
    if let Some(at) = targeted.iter().zip(full).position(|(a, b)| a != b) {
        panic!("{cell}: targeted and full walks leave different metadata at byte {at:#x}");
    }
    assert_eq!(targeted.len(), full.len(), "{cell}");
}

/// Checks the rows (equal repairs, the targeted walk no wider than the
/// full one) and prints them as a table (`--nocapture` shows it).
#[allow(dead_code)]
fn check_walks(test: &str, rows: &[WalkRow]) {
    println!("{test}: cell | targeted walked / repaired | full walked / repaired");
    for row in rows {
        println!(
            "  {} | {} / {} | {} / {}",
            row.cell, row.targeted.0, row.targeted.1, row.full.0, row.full.1
        );
        assert_eq!(row.targeted.1, row.full.1, "{}: the full walk repaired a list the targeted one skipped", row.cell);
        assert!(row.targeted.0 <= row.full.0, "{}", row.cell);
    }
}
