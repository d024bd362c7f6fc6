// Golden replay fingerprints, pinned.
//
// GENERATED — regenerate with `cargo run -p cxl-core --release
// --example print_fingerprints -- --bless` (or set
// CXL_BLESS_FINGERPRINTS=1), which re-runs every pinned schedule,
// prints an old-vs-new diff summary, and rewrites this file. See
// EXPERIMENTS.md ("Golden-fingerprint re-pin protocol") for when a
// re-pin is legitimate.
//
// Two kinds of pin. A schedule pin (CLASSIC, LIVENESS, BATCHED) mixes
// every step outcome, allocated offset, live-set length, and recovery
// outcome of a run — so it changes only when the allocator's
// *observable* behaviour changes, never from substrate optimizations
// (caches, counters). A trace pin (TRACE_SCRIPTED, TRACE_CONGESTED)
// also mixes every charged nanosecond, so it carries modeled cost: it
// moves whenever an access starts or stops being charged.
//
// Each test target include!s this file and uses only some pins, so
// every constant carries allow(dead_code).

/// Classic explorer profile (`Explorer::default()`): (seed, fingerprint).
#[allow(dead_code)]
pub const CLASSIC: &[(u64, u64)] = &[
    (3, 0xe07ff893a929d366),
    (11, 0x36f865dd1093456b),
    (12, 0x078e3b534aaae6df),
    (17, 0x1a24f90193625841),
    (91, 0x18c983f23fa04836),
];

/// Liveness profile (`liveness: true`): (seed, fingerprint).
#[allow(dead_code)]
pub const LIVENESS: &[(u64, u64)] = &[
    (5, 0x3e653b5093fbfb23),
    (23, 0xbd3d5b821137b186),
    (47, 0x19293bac26aebed6),
];

/// Liveness profile with batched remote frees and fence coalescing
/// (PR 4): (seed, fingerprint).
#[allow(dead_code)]
pub const BATCHED: &[(u64, u64)] = &[
    (23, 0x55b495b7daa34c14),
    (47, 0x1234099ff258b1e4),
];

/// Trace-stream fingerprint of the scripted crash/recovery schedule in
/// `trace_determinism.rs` (tracer armed, 3 hosts, seed 42). Both trace
/// pins last moved when the owner began marking its dirty-list mask
/// (a store to its log line on a list's first edit after a flush
/// point) and recovery stopped walking the lists the mask leaves out:
/// both change charged accesses, not outcomes.
#[allow(dead_code)]
pub const TRACE_SCRIPTED: u64 = 0x26a007e2722700fc;

/// Trace-stream fingerprint of the same scripted schedule on a pod with
/// the congested fabric preset (`FabricConfig::congested()`): pins the
/// cost determinism of the fabric layer, which schedule fingerprints
/// (outcomes and offsets only) cannot see. It last moved when a
/// crossing that sees the saturation knee began to record a zero-cost
/// `fabric_saturated` marker after its `fabric_service` event: no
/// charged nanosecond and no other event moved.
#[allow(dead_code)]
pub const TRACE_CONGESTED: u64 = 0xf66087293fbe280b;
