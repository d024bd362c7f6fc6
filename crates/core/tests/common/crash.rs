// Crash-cell helpers shared by the test targets that crash a thread
// (`include!`d, like `golden_fingerprints.rs`). Each target uses only
// some of them, so every item carries allow(dead_code).

/// Runs `op` with a crash armed at `at`, after `skip` earlier passes;
/// `Err` when it fired.
#[allow(dead_code)]
fn crash_at<T>(at: &'static str, skip: u32, op: impl FnOnce() -> T) -> Result<T, cxl_core::crash::CrashSignal> {
    cxl_core::crash::arm(cxl_core::crash::CrashPlan { at, skip });
    let result = cxl_core::crash::catch(std::panic::AssertUnwindSafe(op));
    cxl_core::crash::disarm();
    result
}

/// Writes `!0` into thread `slot`'s durable dirty-list mask, so its next
/// recovery walks every private list.
#[allow(dead_code)]
fn force_full_walk(pod: &cxl_pod::Pod, slot: u32) {
    let off = pod.layout().log_aux_at(slot, cxl_core::oplog::DIRTY_WORD);
    pod.memory().segment().atomic_u64(off).store(!0, std::sync::atomic::Ordering::SeqCst);
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
