// Golden replay fingerprints, pinned.
//
// GENERATED — regenerate with `cargo run -p cxl-drive --release
// --example print_fingerprints -- --bless` (or set
// CXL_BLESS_FINGERPRINTS=1), which re-runs every pinned schedule,
// prints an old-vs-new diff summary, and rewrites this file. See
// EXPERIMENTS.md ("Golden-fingerprint re-pin protocol") for when a
// re-pin is legitimate. The pinned scenarios are defined once, in
// tests/common/scenarios.rs.
//
// Two kinds of pin. A schedule pin (CLASSIC, LIVENESS) mixes every
// step outcome, allocated offset, live-set length, and recovery
// outcome of a run — so it changes only when the allocator's
// *observable* behaviour changes, never from substrate optimizations
// (caches, counters). The batched profile has no pin: it must replay
// LIVENESS at every seed. A trace pin (TRACE_SCRIPTED, TRACE_CONGESTED)
// also mixes every charged nanosecond, so it carries modeled cost: it
// moves whenever an access starts or stops being charged. The traced
// window closes before the end-of-run audit, so a checker change
// never moves a trace pin.
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

/// Trace-stream fingerprint of the scripted crash/recovery schedule
/// (`scenarios::trace_schedule`: tracer armed, 3 hosts, seed 42). Both
/// trace pins last moved when a registration or adoption stopped
/// scanning the whole reservation array (it reads the thread's
/// claimed-region hint instead) and each huge claim began to widen
/// that hint durably: loads left the stream, one store, flush and
/// fence came per widening, and every charge after them shifted.
#[allow(dead_code)]
pub const TRACE_SCRIPTED: u64 = 0xae88211fd63c534c;

/// Trace-stream fingerprint of the same scripted schedule on a pod with
/// the congested fabric preset (`FabricConfig::congested()`): pins the
/// cost determinism of the fabric layer, which schedule fingerprints
/// (outcomes and offsets only) cannot see. It last moved with
/// `TRACE_SCRIPTED`, for the same loads.
#[allow(dead_code)]
pub const TRACE_CONGESTED: u64 = 0x21ce09644446aee1;
