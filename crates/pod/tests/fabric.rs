//! Integration tests for the fabric contention layer (`cxl_pod::fabric`).
//!
//! Three properties, matching the reconciliation discipline the tracer
//! established in PR 5:
//!
//! 1. **Uncongested is free**: every default constructor carries a
//!    disabled fabric that charges nothing — zero fabric counts, zero
//!    fabric events — so pre-fabric golden fingerprints stay
//!    byte-identical.
//! 2. **Congested is deterministic**: two fresh congested pods driven
//!    through the same op sequence serialize byte-identical traces.
//! 3. **Exact reconciliation**: the whole trace, fabric charges
//!    included, reconciles against the per-core virtual clocks.
//!
//! Plus the saturation-knee shape test: as simulated hosts multiply,
//! throughput plateaus at the device port's service rate while queue
//! delay keeps growing.

use cxl_pod::fabric::{Fabric, FabricConfig};
use cxl_pod::latency::LatencyModel;
use cxl_pod::trace::TraceKind;
use cxl_pod::{CoreId, HwccMode, Layout, PodConfig, PodMemory, Segment, SimMemory};
use std::sync::Arc;

const CORES: u32 = 4;

fn sim(mode: HwccMode, fabric: Option<FabricConfig>) -> SimMemory {
    let layout = Layout::compute(&PodConfig::small_for_tests()).unwrap();
    let segment = Arc::new(Segment::zeroed(layout.total_len).unwrap());
    match fabric {
        Some(config) => SimMemory::with_fabric(
            segment,
            layout,
            mode,
            CORES,
            LatencyModel::paper_calibrated(),
            0,
            config,
        ),
        None => SimMemory::new(segment, layout, mode, CORES, LatencyModel::paper_calibrated()),
    }
}

/// A deterministic single-threaded workload touching every fabric
/// charge site reachable in `Limited` mode: cached loads (misses fill
/// lines), stores, flushes (writebacks), and HWcc traffic.
fn drive(mem: &SimMemory) {
    for round in 0..8u64 {
        for core in 0..CORES {
            let id = CoreId(core as u16);
            let off = mem.layout().small.swcc_desc_at(core * 3 % 8);
            mem.store_u64(id, off, round * 100 + core as u64);
            mem.load_u64(id, off);
            // A second slot: misses on first touch, then hits.
            let other = mem.layout().small.swcc_desc_at((core * 3 + 1) % 8);
            mem.load_u64(id, other);
            mem.flush(id, off, 8);
            mem.fence(id);
        }
    }
}

#[test]
fn default_constructors_keep_the_fabric_disabled_and_free() {
    let mem = sim(HwccMode::Limited, None);
    assert!(!mem.fabric().enabled());
    let tracer = mem.tracer().unwrap();
    tracer.arm();
    drive(&mem);
    let snap = mem.stats();
    assert_eq!(snap.fabric_requests, 0);
    assert_eq!(snap.fabric_queue_ns, 0);
    assert_eq!(snap.fabric_service_ns, 0);
    assert_eq!(snap.fabric_saturated, 0);
    for (kind, count, total_ns) in tracer.attribution().by_kind() {
        if matches!(kind, TraceKind::FabricQueue | TraceKind::FabricService) {
            panic!("disabled fabric emitted {count} {} events ({total_ns} ns)", kind.name());
        }
    }
}

#[test]
fn congested_replay_is_byte_identical() {
    let run = || {
        let mem = sim(HwccMode::Limited, Some(FabricConfig::congested()));
        let tracer = mem.tracer().unwrap();
        tracer.arm();
        drive(&mem);
        (tracer.snapshot().to_bytes(), tracer.fingerprint(), mem.stats())
    };
    let (bytes_a, fp_a, snap_a) = run();
    let (bytes_b, fp_b, snap_b) = run();
    assert!(snap_a.fabric_requests > 0, "workload must cross the fabric");
    assert_eq!(snap_a, snap_b, "congested stats must replay exactly");
    assert_eq!(fp_a, fp_b);
    assert_eq!(bytes_a, bytes_b, "congested traces must be byte-identical");
}

#[test]
fn fabric_trace_reconciles_exactly() {
    let mem = sim(HwccMode::Limited, Some(FabricConfig::congested()));
    let tracer = mem.tracer().unwrap();
    tracer.arm();
    drive(&mem);
    tracer.disarm();

    let attribution = tracer.attribution();
    assert!(
        attribution.count_of(TraceKind::FabricService) > 0,
        "congested run must charge fabric events"
    );
    let trace_total = attribution.total_ns();
    // The whole trace reconciles against the virtual clocks — fabric
    // charges included.
    let clock_total: u64 = (0..CORES).map(|c| mem.virtual_ns(CoreId(c as u16))).sum();
    assert_eq!(trace_total, clock_total, "trace total must equal clock total");
}

#[test]
fn uncongested_pod_charges_exactly_zero_fabric_time() {
    // The reconciliation oracle's degenerate case: an uncongested pod
    // runs the identical workload and every fabric figure is zero while
    // the trace still reconciles.
    let mem = sim(HwccMode::Limited, None);
    let tracer = mem.tracer().unwrap();
    tracer.arm();
    drive(&mem);
    tracer.disarm();
    let snap = mem.stats();
    assert_eq!(snap.fabric_queue_ns + snap.fabric_service_ns, 0);
    let clock_total: u64 = (0..CORES).map(|c| mem.virtual_ns(CoreId(c as u16))).sum();
    assert_eq!(tracer.attribution().total_ns(), clock_total);
}

#[test]
fn mcas_crosses_the_fabric() {
    let mem = sim(HwccMode::None, Some(FabricConfig::congested()));
    let off = mem.layout().small.hwcc_desc_at(0);
    let before = mem.stats();
    mem.cas_u64(CoreId(0), off, 0, 7).unwrap();
    let delta = mem.stats().since(&before);
    assert!(
        delta.fabric_requests >= 1,
        "an mCAS round trip must be charged as a fabric crossing"
    );
    assert!(delta.fabric_service_ns > 0);
}

#[test]
fn reset_clocks_resets_fabric_stations() {
    let mem = sim(HwccMode::Limited, Some(FabricConfig::congested()));
    drive(&mem);
    assert!(mem.stats().fabric_requests > 0);
    mem.reset_clocks();
    // After the reset a request at time zero sees idle stations: were
    // the busy-until clocks left behind, the first post-reset crossing
    // would wait for a completion time no core will ever reach again.
    let charge = mem.fabric().charge(0, 0, 64);
    assert_eq!(charge.queue_ns, 0, "stations must be idle after reset_clocks");
}

/// The knee: closed-loop simulated hosts each issue a fabric crossing
/// every `think_ns` of virtual time. Throughput scales linearly while
/// the device port keeps up, then plateaus at its service rate; queue
/// delay, flat in the linear region, grows without bound past the knee.
#[test]
fn saturation_knee_plateaus_throughput_while_queue_delay_grows() {
    const THINK_NS: u64 = 400;
    const OPS_PER_HOST: u64 = 200;

    // (ops per ns across all hosts, mean queue ns per op, saturated count)
    let run = |hosts: usize| -> (f64, u64, u64) {
        let fabric = Fabric::new(FabricConfig::congested());
        let mut t = vec![0u64; hosts];
        let mut queue_total = 0u64;
        let mut saturated = 0u64;
        for _ in 0..OPS_PER_HOST {
            for (core, now) in t.iter_mut().enumerate() {
                let charge = fabric.charge(core, *now, 64);
                queue_total += charge.queue_ns;
                saturated += charge.saturated as u64;
                *now += THINK_NS + charge.queue_ns + charge.service_ns;
            }
        }
        let makespan = *t.iter().max().unwrap();
        let ops = hosts as u64 * OPS_PER_HOST;
        (
            ops as f64 / makespan as f64,
            queue_total / ops,
            saturated,
        )
    };

    let (thr_1, _, sat_1) = run(1);
    let (thr_4, q_4, _) = run(4);
    let (thr_16, _, _) = run(16);
    let (thr_32, q_32, sat_32) = run(32);

    // Linear region: 4 hosts deliver close to 4x one host's throughput.
    assert!(
        thr_4 > 3.0 * thr_1,
        "4-host throughput must scale nearly linearly (got {:.2}x)",
        thr_4 / thr_1
    );
    // Plateau: past the knee, doubling hosts buys almost nothing.
    assert!(
        thr_32 < 1.25 * thr_16,
        "32-host throughput must plateau at the device service rate \
         (16h {thr_16:.5} vs 32h {thr_32:.5} ops/ns)"
    );
    // Queue delay keeps growing where throughput no longer does.
    assert!(
        q_32 > 10 * q_4.max(1),
        "saturated queue delay must dwarf the linear region's \
         (4h {q_4} ns vs 32h {q_32} ns)"
    );
    // The knee is witnessed by the saturation counter, not curve-fitting.
    assert_eq!(sat_1, 0, "a single host must never saturate the device");
    assert!(sat_32 > 0, "32 hosts must push utilization past the knee");
}
