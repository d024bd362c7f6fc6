//! CXL fabric contention model: port queueing and shared-link bandwidth.
//!
//! The latency model of [`crate::latency`] charges fixed per-operation
//! costs — a line fill is always `cxl_load_ns`, no matter how many other
//! hosts are hammering the device at the same time. Real CXL pods are
//! not like that: every line fill, writeback, and NMP round trip crosses
//! a *fabric* (host port → optional switch → device port → shared link),
//! and each of those stages is a queueing station with a finite service
//! rate. Under light load the fabric adds a few nanoseconds; past a
//! saturation knee, queueing delay dominates protocol cost. This module
//! models that — the scenario family CXLMemSim and CXL-DMSim are built
//! around ("what breaks first under heavy traffic: the allocator or the
//! fabric?") — while keeping the simulation deterministic and
//! wall-clock-free.
//!
//! # Model
//!
//! A [`Fabric`] is a chain of up to three queueing stations, each a
//! *work-conserving server* tracking its outstanding backlog:
//!
//! 1. **Host port** — cores map round-robin onto
//!    [`FabricConfig::host_ports`] ports (`core % host_ports`), modeling
//!    several simulated cores sharing one physical host link. Each
//!    request occupies its port for [`FabricConfig::port_service_ns`].
//! 2. **Switch** (optional) — one shared station crossed by every
//!    request when [`FabricConfig::switch_service_ns`] is nonzero,
//!    giving the two-level `host port → switch → device port` topology
//!    of a multi-host pod.
//! 3. **Device port + link** — one shared station whose per-request
//!    occupancy is [`FabricConfig::device_service_ns`] plus the payload
//!    serialization time `bytes / link_bytes_per_us`.
//!
//! Each station keeps two counters: the latest arrival time it has
//! seen and its **backlog** — nanoseconds of accepted-but-unfinished
//! service. When a request arrives at virtual time `t`, the backlog
//! first *drains* by the station's idle progress since the last
//! arrival (`t - latest_seen`, if positive — the server was working
//! through its queue in the meantime), then the request waits out the
//! remaining backlog (its **queue-wait**) and deposits its own service
//! time (its **service** cost). This is deliberately *not* a
//! busy-until resource clock (the discipline
//! [`Clocks::serialize_through`] uses for cache lines): a sequential
//! driver issues requests from different cores out of virtual-time
//! order, and a busy-until clock would insert the fast core's idle
//! think-time as holes that every clock-behind core then waits
//! through — serializing whole batches instead of modeling a queue. A
//! backlog server charges only unfinished *work*, so interleaved
//! drivers measure genuine contention.
//!
//! Because the charged wait feeds back into the issuing core's virtual
//! clock, the model is a closed queueing network — each core has one
//! outstanding request — so throughput genuinely plateaus at the
//! bottleneck station's service rate instead of queues growing without
//! bound.
//!
//! On top of the resource-clock waits, the device station charges an
//! M/D/1-style stochastic queueing term computed from the *observed*
//! arrival rate over a sliding virtual-clock window
//! ([`FabricConfig::window_ns`]): with utilization `ρ` (arrivals ×
//! service / window), the extra delay is `service × ρ / (2(1-ρ))` — the
//! Pollaczek–Khinchine mean wait for deterministic service — clamped at
//! `ρ = `[`UTIL_CAP_PCT`]`%`. Requests that observe `ρ ≥`
//! [`FabricConfig::knee_pct`] are counted as **saturated** (a
//! [`TraceKind::FabricSaturated`] marker, the snapshot's
//! `fabric_saturated`), which is how experiments detect the knee
//! without parsing latency curves.
//!
//! # Determinism
//!
//! Everything is driven by the per-core virtual clocks of
//! [`crate::latency::Clocks`]; there is no wall time and no
//! randomness. Fabric charges deliberately draw **no jitter** (they use
//! [`Clocks::advance_exact`]), so enabling a fabric never perturbs the
//! jitter sequence of protocol charges — and a *disabled* fabric (the
//! default on every existing constructor) performs no clock advances,
//! no jitter draws, and no atomic updates at all, keeping the golden
//! fingerprints of every uncongested configuration byte-identical.
//!
//! # Accounting
//!
//! A crossing is counted once, where the backend charges it
//! (`Fabric::apply`): a [`TraceKind::FabricQueue`] event carrying the
//! queue wait (when nonzero) and a [`TraceKind::FabricService`] event
//! carrying the service time, each the exact nanoseconds the core's
//! clock advanced by. The fabric keeps no totals of its own.
//!
//! ```
//! use cxl_pod::fabric::{Fabric, FabricConfig};
//!
//! let fabric = Fabric::new(FabricConfig::congested());
//! // 32 cores all issue a 64-byte line fill at virtual time 0: the
//! // first request sails through, later ones queue behind it.
//! let waits: Vec<u64> = (0..32).map(|c| fabric.charge(c, 0, 64).queue_ns).collect();
//! assert_eq!(waits[0], 0);
//! assert!(waits[31] > waits[1]);
//! ```

use crate::latency::Clocks;
use crate::trace::{TraceKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};

/// Utilization ceiling (percent) for the M/D/1 queue-delay term: the
/// closed-form wait diverges as `ρ → 1`, so the observed utilization is
/// clamped here, bounding the stochastic term at
/// `service × 97 / (2 × 3) ≈ 16 × service`.
pub const UTIL_CAP_PCT: u64 = 97;

/// Static description of a fabric: service rates, bandwidth, topology.
///
/// All fields are plain integers (nanoseconds, bytes-per-microsecond,
/// percent), so configurations are `Copy`, comparable, and hashable into
/// schedule fingerprints. Use [`FabricConfig::congested`] for the
/// calibrated contended-pod preset, or build a custom one — every field
/// is public. A config only takes effect on pods built through the
/// fabric-aware constructors
/// ([`Pod::with_simulation_fabric`](crate::Pod::with_simulation_fabric),
/// [`SimMemory::with_fabric`](crate::SimMemory::with_fabric)); every
/// other constructor gets a disabled fabric that charges nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FabricConfig {
    /// Number of host-side ports; cores map onto ports round-robin
    /// (`core % host_ports`). Must be ≥ 1.
    pub host_ports: u32,
    /// Per-request occupancy of a host port in nanoseconds.
    pub port_service_ns: u64,
    /// Per-request occupancy of the shared switch in nanoseconds; 0
    /// collapses the topology to one level (no switch station).
    pub switch_service_ns: u64,
    /// Per-request occupancy of the device port in nanoseconds,
    /// excluding payload serialization (see `link_bytes_per_us`).
    pub device_service_ns: u64,
    /// Shared-link bandwidth in bytes per microsecond: transferring `b`
    /// bytes occupies the device station an extra `b * 1000 /
    /// link_bytes_per_us` nanoseconds. (16_000 ≈ 16 GB/s, an x8 CXL 2.0
    /// link's practical data rate.)
    pub link_bytes_per_us: u64,
    /// Width of the sliding virtual-clock window (ns) over which the
    /// device station observes its arrival rate for the M/D/1 term.
    pub window_ns: u64,
    /// Observed device utilization (percent) at and above which a
    /// request counts as saturated — the knee of the bandwidth curve.
    pub knee_pct: u64,
}

impl FabricConfig {
    /// Calibrated contended-pod preset. The values and their sources
    /// (CXLMemSim's port model, CXL-DMSim's measured link rates) are
    /// documented in EXPERIMENTS.md ("Congested host scaling"):
    ///
    /// * 8 host ports at 25 ns/request (a port's request-processing
    ///   overhead, CXLMemSim's default port service cost);
    /// * a 30 ns shared switch hop (two-level topology, the pod shape);
    /// * a 50 ns device-port slot plus a 16 GB/s shared link
    ///   (CXL-DMSim's effective x8 Gen5 data rate under load);
    /// * an 8.2 µs arrival window with the knee declared at 65 %
    ///   utilization.
    pub fn congested() -> Self {
        FabricConfig {
            host_ports: 8,
            port_service_ns: 25,
            switch_service_ns: 30,
            device_service_ns: 50,
            link_bytes_per_us: 16_000,
            window_ns: 8_192,
            knee_pct: 65,
        }
    }

    /// One-level variant of [`FabricConfig::congested`] (no switch):
    /// host ports feed the device port directly, as in a single-switch
    /// pod where the switch is folded into the device model.
    pub fn congested_flat() -> Self {
        FabricConfig {
            switch_service_ns: 0,
            ..Self::congested()
        }
    }
}

/// What one fabric crossing cost, split the way the trace reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabricCharge {
    /// Time spent queued behind other requests (backlog waits at every
    /// station plus the M/D/1 term), in nanoseconds.
    pub queue_ns: u64,
    /// Time spent being serviced (port + switch + device occupancy plus
    /// payload serialization on the link), in nanoseconds.
    pub service_ns: u64,
    /// Whether the request observed device utilization at or past
    /// [`FabricConfig::knee_pct`].
    pub saturated: bool,
}

impl FabricCharge {
    /// Total charged nanoseconds (queue + service).
    pub fn total_ns(&self) -> u64 {
        self.queue_ns + self.service_ns
    }
}

/// One work-conserving queueing station: the latest arrival time seen
/// and the outstanding service backlog at that time. See the module
/// docs for why this is a backlog server rather than a busy-until
/// resource clock.
#[derive(Debug, Default)]
struct Station {
    /// Latest virtual arrival time any request has presented.
    seen: AtomicU64,
    /// Nanoseconds of accepted-but-unfinished service as of `seen`.
    backlog: AtomicU64,
}

impl Station {
    /// Passes one request through the station: drains the backlog by
    /// the virtual-time progress since the last-seen arrival, waits out
    /// what remains, deposits `service`. Returns `(queue_wait,
    /// completion_time)`.
    fn pass(&self, arrival: u64, service: u64) -> (u64, u64) {
        let last = self.seen.fetch_max(arrival, Ordering::Relaxed);
        let drained = arrival.saturating_sub(last);
        let mut wait = 0;
        self.backlog
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |backlog| {
                wait = backlog.saturating_sub(drained);
                Some(wait + service)
            })
            .expect("backlog update never bails");
        (wait, arrival + wait + service)
    }

    fn reset(&self) {
        self.seen.store(0, Ordering::Relaxed);
        self.backlog.store(0, Ordering::Relaxed);
    }
}

/// Runtime state of the fabric model: per-station backlog servers and
/// the arrival window.
///
/// Shared by [`SimMemory`](crate::SimMemory) and its
/// [`NmpDevice`](crate::nmp::NmpDevice) so host-side line traffic and
/// NMP round trips queue at the *same* stations. A disabled fabric
/// (the default) reduces every hook to one branch on a plain bool.
#[derive(Debug)]
pub struct Fabric {
    enabled: bool,
    config: FabricConfig,
    /// Backlog server per host port.
    ports: Vec<Station>,
    /// Backlog server of the shared switch (unused when
    /// `switch_service_ns == 0`).
    switch: Station,
    /// Backlog server of the device port + link.
    device: Station,
    /// Start of the current arrival-observation window (virtual ns).
    window_start: AtomicU64,
    /// Arrivals observed in the current window.
    window_arrivals: AtomicU64,
}

impl Fabric {
    /// Creates an armed fabric from `config`.
    pub fn new(config: FabricConfig) -> Self {
        let ports = config.host_ports.max(1) as usize;
        Fabric {
            enabled: true,
            config,
            ports: (0..ports).map(|_| Station::default()).collect(),
            switch: Station::default(),
            device: Station::default(),
            window_start: AtomicU64::new(0),
            window_arrivals: AtomicU64::new(0),
        }
    }

    /// Creates the default *disabled* fabric: [`Fabric::charge`] and the
    /// backend hooks charge nothing and touch no shared state, so an
    /// uncongested pod is cost-identical (and jitter-identical) to one
    /// built before this module existed.
    pub fn disabled() -> Self {
        let mut fabric = Self::new(FabricConfig {
            host_ports: 1,
            port_service_ns: 0,
            switch_service_ns: 0,
            device_service_ns: 0,
            link_bytes_per_us: 0,
            window_ns: 1,
            knee_pct: 100,
        });
        fabric.enabled = false;
        fabric
    }

    /// Whether this fabric charges anything.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The configuration this fabric was built from.
    pub fn config(&self) -> &FabricConfig {
        &self.config
    }

    /// M/D/1 queue-delay term at the device station: observes the
    /// arrival in the sliding window anchored at `now` and returns
    /// `(extra_delay, utilization_pct)`. The window tumbles forward
    /// whenever `now` passes its end; a floor of a quarter window on
    /// the elapsed time keeps early-window estimates finite.
    fn window_delay(&self, now: u64, service: u64) -> (u64, u64) {
        let start = self.window_start.load(Ordering::Relaxed);
        let arrivals = if now >= start.saturating_add(self.config.window_ns) {
            self.window_start.store(now, Ordering::Relaxed);
            self.window_arrivals.store(1, Ordering::Relaxed);
            1
        } else {
            self.window_arrivals.fetch_add(1, Ordering::Relaxed) + 1
        };
        let elapsed = now
            .saturating_sub(start)
            .max(self.config.window_ns / 4)
            .max(1);
        let util_pct = (arrivals.saturating_mul(service).saturating_mul(100) / elapsed)
            .min(UTIL_CAP_PCT);
        // Pollaczek–Khinchine mean wait for deterministic service:
        // W = S·ρ / (2(1−ρ)), in integer percent arithmetic.
        let delay = service * util_pct / (2 * (100 - util_pct));
        (delay, util_pct)
    }

    /// Charges one `bytes`-byte crossing for `core` arriving at virtual
    /// time `now`, depositing service at every station it occupies.
    /// Returns the split charge; on a disabled fabric this is free and
    /// all-zero.
    ///
    /// The caller is responsible for advancing the core's virtual clock
    /// by the returned nanoseconds (jitter-free, via
    /// [`Clocks::advance_exact`]) and for counting the crossing — the
    /// internal hook the `mem`/`nmp` backends use does both.
    pub fn charge(&self, core: usize, now: u64, bytes: u64) -> FabricCharge {
        if !self.enabled {
            return FabricCharge {
                queue_ns: 0,
                service_ns: 0,
                saturated: false,
            };
        }
        let cfg = &self.config;
        // Stage 1: this core's host port.
        let port = &self.ports[core % self.ports.len()];
        let (wait_port, t) = port.pass(now, cfg.port_service_ns);
        // Stage 2: the shared switch (two-level topology only).
        let (wait_switch, t) = if cfg.switch_service_ns > 0 {
            self.switch.pass(t, cfg.switch_service_ns)
        } else {
            (0, t)
        };
        // Stage 3: the device port, occupied for its service slot plus
        // the payload's serialization time on the shared link.
        let transfer_ns = bytes
            .saturating_mul(1000)
            .checked_div(cfg.link_bytes_per_us)
            .unwrap_or(0);
        let device_service = cfg.device_service_ns + transfer_ns;
        let (wait_device, _) = self.device.pass(t, device_service);
        // Stochastic residue: the M/D/1 term from the observed arrival
        // rate (the resource clocks only see *actual* overlap; the
        // window term models the variance a deterministic replay of
        // mean rates cannot).
        let (window_wait, util_pct) = self.window_delay(now, device_service);

        let queue_ns = wait_port + wait_switch + wait_device + window_wait;
        let service_ns = cfg.port_service_ns + cfg.switch_service_ns + device_service;
        let saturated = util_pct >= cfg.knee_pct;
        FabricCharge {
            queue_ns,
            service_ns,
            saturated,
        }
    }

    /// The backend hook: charges the crossing, advances `core`'s virtual
    /// clock by exactly the charged nanoseconds (no jitter draw), and
    /// charges `tracer` the queue wait (when nonzero) and the service
    /// time as [`TraceKind::FabricQueue`] / [`TraceKind::FabricService`]
    /// events with those costs, then a [`TraceKind::FabricSaturated`]
    /// marker if the crossing saw the knee. One branch when disabled.
    #[inline]
    pub(crate) fn apply(&self, core: usize, bytes: u64, clocks: &Clocks, tracer: &Tracer) {
        if !self.enabled {
            return;
        }
        let charge = self.charge(core, clocks.now(core), bytes);
        if charge.queue_ns > 0 {
            clocks.advance_exact(core, charge.queue_ns);
            tracer.charge(
                core,
                TraceKind::FabricQueue,
                bytes,
                charge.queue_ns,
                clocks.now(core),
            );
        }
        clocks.advance_exact(core, charge.service_ns);
        tracer.charge(
            core,
            TraceKind::FabricService,
            bytes,
            charge.service_ns,
            clocks.now(core),
        );
        if charge.saturated {
            tracer.charge(core, TraceKind::FabricSaturated, bytes, 0, clocks.now(core));
        }
    }

    /// Resets the station backlogs and the arrival window to time zero
    /// — called by [`reset_clocks`](crate::PodMemory::reset_clocks)
    /// alongside the core and NMP clocks, so between-run resets do not
    /// leave the stations with backlog no core will ever drain. Counts
    /// are not reset.
    pub fn reset(&self) {
        for port in &self.ports {
            port.reset();
        }
        self.switch.reset();
        self.device.reset();
        self.window_start.store(0, Ordering::Relaxed);
        self.window_arrivals.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_fabric_is_free() {
        let fabric = Fabric::disabled();
        assert!(!fabric.enabled());
        let charge = fabric.charge(0, 123, 64);
        assert_eq!(charge, FabricCharge { queue_ns: 0, service_ns: 0, saturated: false });
    }

    #[test]
    fn single_request_pays_service_only() {
        let fabric = Fabric::new(FabricConfig::congested());
        let cfg = *fabric.config();
        let charge = fabric.charge(0, 0, 64);
        let transfer = 64 * 1000 / cfg.link_bytes_per_us;
        assert_eq!(
            charge.service_ns,
            cfg.port_service_ns + cfg.switch_service_ns + cfg.device_service_ns + transfer
        );
        assert_eq!(charge.queue_ns, 0, "an idle fabric has no queue");
        assert!(!charge.saturated);
    }

    #[test]
    fn concurrent_arrivals_queue_at_stations() {
        let fabric = Fabric::new(FabricConfig::congested());
        // Two cores on *different* host ports, same instant: the second
        // still waits, because the switch and device are shared.
        let first = fabric.charge(0, 0, 64);
        let second = fabric.charge(1, 0, 64);
        assert_eq!(first.queue_ns, 0);
        assert!(second.queue_ns > 0, "shared stations must serialize");
        // Same port (core 0 and core 8 with 8 ports): waits stack higher.
        let third = fabric.charge(8, 0, 64);
        assert!(third.queue_ns > second.queue_ns);
    }

    #[test]
    fn apply_charges_the_clock_and_the_count_table_alike() {
        let fabric = Fabric::new(FabricConfig::congested_flat());
        let clocks = Clocks::new(16);
        let tracer = Tracer::new(16);
        for core in 0..16 {
            clocks.advance_exact(core, 10 * core as u64);
            fabric.apply(core, 64, &clocks, &tracer);
        }
        let totals = tracer.counts().totals();
        let charged: u64 = (0..16).map(|core| clocks.now(core) - 10 * core as u64).sum();
        assert_eq!(totals.ns(TraceKind::FabricQueue) + totals.ns(TraceKind::FabricService), charged);
        assert_eq!(totals.count(TraceKind::FabricService), 16);
    }

    #[test]
    fn window_observes_saturation() {
        let config = FabricConfig {
            knee_pct: 50,
            ..FabricConfig::congested()
        };
        let fabric = Fabric::new(config);
        // Hammer the device from one instant: utilization climbs past
        // the knee within a handful of arrivals.
        let mut saw_saturated = false;
        for core in 0..64 {
            saw_saturated |= fabric.charge(core % 8, 0, 64).saturated;
        }
        assert!(saw_saturated, "a burst at one instant must cross the knee");
    }

    #[test]
    fn reset_clears_stations() {
        let fabric = Fabric::new(FabricConfig::congested());
        for core in 0..8 {
            fabric.charge(core, 0, 64);
        }
        assert!(fabric.charge(0, 0, 64).queue_ns > 0);
        fabric.reset();
        // Stations idle again: a fresh request at t=0 has no queue.
        assert_eq!(fabric.charge(0, 0, 64).queue_ns, 0);
    }
}
