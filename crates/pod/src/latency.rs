//! Virtual-clock latency model.
//!
//! The paper's hardware experiments (§5.4) measure latencies that we
//! cannot reproduce without the FPGA. Instead, [`SimMemory`](crate::SimMemory) accumulates
//! *modeled* time into per-core virtual clocks using constants calibrated
//! to the paper's measurements:
//!
//! * local DRAM load: 112 ns, CXL load: 357 ns (§5.4, Intel MLC);
//! * `sw_cas`: a coherent CAS whose cost grows with line contention;
//! * `sw_flush_cas`: flush + CAS, modelling an emulated mCAS;
//! * `hw_cas` (mCAS): a fixed ~2.3 µs spwr/sprd round trip over PCIe plus
//!   queueing at the NMP device, which serializes per-address operations.
//!
//! Shared resources (a contended cacheline, the NMP device) are modeled
//! as *resource clocks*: an operation's start time is the maximum of the
//! issuing core's clock and the resource clock; its completion advances
//! both. This produces the paper's shape — `hw_cas` is slower than
//! `sw_flush_cas` at one thread (2.3 µs vs sub-µs) but wins under
//! contention (17–20 % lower p50/p99 at 16 threads) because the device
//! pipelines independent requests while coherence traffic must bounce the
//! exclusive line between cores.
//!
//! # One writer per core
//!
//! A core's clock and its jitter seed are written only by the OS thread
//! driving that core (the thread that holds the core's `ThreadHandle`).
//! [`Clocks::advance`], [`Clocks::advance_exact`] and
//! [`Clocks::serialize_through`] therefore update them with a relaxed
//! load and a relaxed store, not a locked read-modify-write: a charge is
//! made on every simulated access, and the rule makes the RMW dead
//! weight. Any thread may *read* a clock ([`Clocks::now`]). Two threads
//! charging one core at once stay memory-safe (the cells are atomics),
//! but the later store wins whole: a foreign charge that loaded the clock
//! before the core's own thread charged it stores back the stale value
//! plus its own cost, rolling the clock back by *everything* the owner
//! charged in between (a whole timeslice if the foreign thread was
//! preempted there), and the jitter sequence forks the same way.
//!
//! Known exceptions, all in `cxl-core`, all on `CoreId(0)`:
//! `register_thread`, `mark_crashed` and `Cxlalloc::stats` charge
//! core 0 from whichever thread calls them (workers register from their
//! own threads while worker 0 may already be running); the fault handler charges core 0 when it runs on a
//! thread that holds no `ThreadHandle`; and `recover`/`adopt` charge
//! whatever `via` core the caller names, which some callers
//! (`fig7_recovery`) give as a literal `CoreId(0)`. A run whose modeled
//! time must be exact keeps those calls off the time core 0's own
//! thread is charging — the single-threaded replay tests and the
//! `alloc_sim` workload do.

use std::sync::atomic::{AtomicU64, Ordering};

/// `x % d` for a divisor fixed ahead of time, as multiplications by a
/// precomputed reciprocal (Lemire, Kaser & Kurz, "Faster remainder by
/// direct computation", 2019): with `magic = ⌈2¹²⁸ / d⌉`, the low 128
/// bits of `magic · x` are the fractional part of `x / d` scaled by
/// 2¹²⁸, and multiplying them by `d` leaves the remainder in the top 64
/// bits. Exact for every `u64` `x` whenever `d < 2⁶⁴` (128 fractional
/// bits ≥ 64 + log₂ d).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Remainder {
    d: u64,
    magic: u128,
}

impl Remainder {
    fn new(d: u64) -> Self {
        // d = 1 wraps the magic to 0, which yields the remainder 0.
        Remainder {
            d,
            magic: (u128::MAX / d as u128).wrapping_add(1),
        }
    }

    #[inline]
    fn of(self, x: u64) -> u64 {
        let low = self.magic.wrapping_mul(x as u128);
        // Top 64 bits of the 192-bit product `low · d`.
        let bottom = ((low as u64 as u128) * self.d as u128) >> 64;
        let top = (low >> 64) * self.d as u128;
        ((bottom + top) >> 64) as u64
    }
}

/// Latency constants in nanoseconds.
///
/// Every constant is a public field so experiments can build ablations;
/// the jitter range is set through [`LatencyModel::with_jitter_pct`]
/// because a reciprocal is derived from it. Use
/// [`LatencyModel::paper_calibrated`] for the defaults.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// Load served from a core's own cache.
    pub cache_hit_ns: u64,
    /// Load miss filled from CXL memory (paper: 357 ns).
    pub cxl_load_ns: u64,
    /// Load or store to the hardware-coherent (HWcc) region when HWcc is
    /// available: the region is cacheable, so the amortized cost is far
    /// below a raw CXL load.
    pub hwcc_load_ns: u64,
    /// Load from local DRAM (paper: 112 ns) — used for baselines that
    /// keep metadata local.
    pub local_load_ns: u64,
    /// Store into the core's cache.
    pub cache_store_ns: u64,
    /// Uncached (device-biased) load or store over PCIe.
    pub uncached_op_ns: u64,
    /// Cacheline flush (writeback + invalidate).
    pub flush_ns: u64,
    /// Store fence.
    pub fence_ns: u64,
    /// Base cost of a coherent CAS on an uncontended line.
    pub cas_base_ns: u64,
    /// Cost of transferring an exclusive line between cores (paid per
    /// queued competitor on a contended CAS line).
    pub line_transfer_ns: u64,
    /// Fixed spwr+sprd round-trip for one mCAS (paper: p50 2.3 µs at one
    /// thread on the FPGA prototype).
    pub mcas_round_trip_ns: u64,
    /// NMP per-operation service time (device-side serialization).
    pub nmp_service_ns: u64,
    /// Multiplicative jitter range (percent) applied pseudo-randomly so
    /// percentile plots have realistic tails.
    jitter_pct: u64,
    /// Remainder by `4 · jitter_pct + 1`, the number of jitter offsets.
    jitter_span: Remainder,
}

impl LatencyModel {
    /// Constants calibrated to the paper's §5.4 measurements.
    pub fn paper_calibrated() -> Self {
        LatencyModel {
            cache_hit_ns: 4,
            cxl_load_ns: 357,
            hwcc_load_ns: 40,
            local_load_ns: 112,
            cache_store_ns: 5,
            uncached_op_ns: 450,
            flush_ns: 100,
            fence_ns: 25,
            cas_base_ns: 230,
            line_transfer_ns: 160,
            mcas_round_trip_ns: 2100,
            nmp_service_ns: 60,
            ..Self::zero()
        }
        .with_jitter_pct(12)
    }

    /// A zero-latency model, used when only operation *counts* matter.
    pub fn zero() -> Self {
        LatencyModel {
            cache_hit_ns: 0,
            cxl_load_ns: 0,
            hwcc_load_ns: 0,
            local_load_ns: 0,
            cache_store_ns: 0,
            uncached_op_ns: 0,
            flush_ns: 0,
            fence_ns: 0,
            cas_base_ns: 0,
            line_transfer_ns: 0,
            mcas_round_trip_ns: 0,
            nmp_service_ns: 0,
            jitter_pct: 0,
            jitter_span: Remainder::new(1),
        }
    }

    /// The multiplicative jitter range in percent.
    pub fn jitter_pct(&self) -> u64 {
        self.jitter_pct
    }

    /// This model with charges jittered uniformly in
    /// `[-jitter_pct, +3 · jitter_pct]` percent (0 = none).
    pub fn with_jitter_pct(mut self, jitter_pct: u64) -> Self {
        self.jitter_pct = jitter_pct;
        self.jitter_span = Remainder::new(jitter_pct * 4 + 1);
        self
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::paper_calibrated()
    }
}

/// Per-core virtual clocks plus shared resource clocks.
#[derive(Debug)]
pub struct Clocks {
    cores: Vec<AtomicU64>,
    /// Seed cells for per-core deterministic jitter.
    seeds: Vec<AtomicU64>,
}

impl Clocks {
    /// Creates clocks for `cores` cores, all at time zero.
    pub fn new(cores: usize) -> Self {
        Clocks {
            cores: (0..cores).map(|_| AtomicU64::new(0)).collect(),
            seeds: (0..cores)
                .map(|i| AtomicU64::new(0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1)))
                .collect(),
        }
    }

    /// Number of cores tracked.
    pub fn len(&self) -> usize {
        self.cores.len()
    }

    /// Whether no cores are tracked.
    pub fn is_empty(&self) -> bool {
        self.cores.is_empty()
    }

    /// Current virtual time of `core` in nanoseconds.
    pub fn now(&self, core: usize) -> u64 {
        self.cores[core].load(Ordering::Relaxed)
    }

    /// Advances `core`'s clock by `ns` (with jitter) and returns the
    /// jittered duration charged. Called by the thread driving `core`
    /// (see the module docs).
    #[inline]
    pub fn advance(&self, core: usize, ns: u64, model: &LatencyModel) -> u64 {
        let charged = self.jitter(core, ns, model);
        self.advance_exact(core, charged);
        charged
    }

    /// Advances `core`'s clock by exactly `ns` — no jitter draw, no seed
    /// mutation. This is the charge primitive of the fabric layer
    /// ([`crate::fabric`]): queueing delays are already an emergent
    /// function of arrival order, and drawing jitter here would perturb
    /// the jitter *sequence* of subsequent protocol charges, breaking
    /// the invariant that an uncongested fabric is byte-identical to no
    /// fabric at all.
    ///
    /// ```
    /// use cxl_pod::latency::Clocks;
    /// let clocks = Clocks::new(1);
    /// clocks.advance_exact(0, 40);
    /// clocks.advance_exact(0, 2);
    /// assert_eq!(clocks.now(0), 42);
    /// ```
    #[inline]
    pub fn advance_exact(&self, core: usize, ns: u64) {
        // Single writer per core: load + store, no locked RMW.
        let clock = &self.cores[core];
        let now = clock.load(Ordering::Relaxed);
        clock.store(now.wrapping_add(ns), Ordering::Relaxed);
    }

    /// Serializes `core` through a shared resource clock: the operation
    /// starts at `max(core_now, resource_now)`, takes `service_ns`
    /// (jittered), and both clocks move to the completion time. Returns
    /// the *latency observed by the core* (completion − core start).
    pub fn serialize_through(
        &self,
        core: usize,
        resource: &AtomicU64,
        service_ns: u64,
        model: &LatencyModel,
    ) -> u64 {
        let service = self.jitter(core, service_ns, model);
        let core_now = self.cores[core].load(Ordering::Relaxed);
        // Claim a service slot on the resource: completion = max(resource,
        // core_now) + service, updated atomically so concurrent cores
        // queue behind each other.
        let mut completion;
        let mut observed = resource.load(Ordering::Relaxed);
        loop {
            let start = observed.max(core_now);
            completion = start + service;
            match resource.compare_exchange_weak(
                observed,
                completion,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => observed = actual,
            }
        }
        self.cores[core].store(completion, Ordering::Relaxed);
        completion - core_now
    }

    /// Deterministic per-core xorshift jitter.
    #[inline]
    fn jitter(&self, core: usize, ns: u64, model: &LatencyModel) -> u64 {
        if model.jitter_pct == 0 || ns == 0 {
            return ns;
        }
        let seed = &self.seeds[core];
        let mut x = seed.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        seed.store(x, Ordering::Relaxed);
        // Uniform in [-jitter_pct, +3*jitter_pct]% — positively skewed so
        // tails (p99, p99.9) stretch upward like real measurements.
        let offset_pct = model.jitter_span.of(x) as i64 - model.jitter_pct as i64;
        let delta = (ns as i64 * offset_pct) / 100;
        (ns as i64 + delta).max(1) as u64
    }

    /// Resets every clock to zero (between experiment runs).
    pub fn reset(&self) {
        for c in &self.cores {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_accumulates() {
        let clocks = Clocks::new(2);
        let model = LatencyModel::zero();
        clocks.advance(0, 100, &model);
        clocks.advance(0, 50, &model);
        assert_eq!(clocks.now(0), 150);
        assert_eq!(clocks.now(1), 0);
    }

    #[test]
    fn jitter_stays_near_mean() {
        let clocks = Clocks::new(1);
        let model = LatencyModel::paper_calibrated();
        let mut total = 0u64;
        const N: u64 = 10_000;
        for _ in 0..N {
            total += clocks.jitter(0, 1000, &model);
        }
        let mean = total / N;
        // Mean offset is +jitter_pct/2 (positively skewed distribution).
        assert!((950..1250).contains(&mean), "mean {mean} out of range");
    }

    #[test]
    fn serialization_queues_cores() {
        let clocks = Clocks::new(4);
        let resource = AtomicU64::new(0);
        let mut model = LatencyModel::zero();
        model.nmp_service_ns = 100;
        // Four cores all at time 0 hit the device back to back; observed
        // latencies must be 100, 200, 300, 400 (queueing).
        let mut latencies: Vec<u64> = (0..4)
            .map(|core| clocks.serialize_through(core, &resource, 100, &model))
            .collect();
        latencies.sort_unstable();
        assert_eq!(latencies, vec![100, 200, 300, 400]);
    }

    #[test]
    fn advance_exact_draws_no_jitter() {
        let jittered = Clocks::new(1);
        let plain = Clocks::new(1);
        let model = LatencyModel::paper_calibrated();
        // Interleave exact charges on one set of clocks only; the jitter
        // streams of the two must stay in lockstep regardless.
        for _ in 0..32 {
            jittered.advance_exact(0, 7);
            let a = jittered.advance(0, 1000, &model);
            let b = plain.advance(0, 1000, &model);
            assert_eq!(a, b, "advance_exact must not touch the jitter seed");
        }
        assert_eq!(jittered.now(0), plain.now(0) + 32 * 7);
    }

    #[test]
    fn reciprocal_remainder_is_exact() {
        let mut draw = 0x9E37_79B9_7F4A_7C15u64;
        // Every divisor a jitter range of 0–100 % produces, and the rest
        // in between.
        for d in 1..=401u64 {
            let rem = Remainder::new(d);
            let check = |x: u64| assert_eq!(rem.of(x), x % d, "{x} % {d}");
            for x in [0, 1, d - 1, d, d + 1, u64::MAX - 1, u64::MAX] {
                check(x);
            }
            for shift in 1..64 {
                let p = 1u64 << shift;
                for x in [p - 1, p, p + 1] {
                    check(x);
                }
            }
            for multiple in [u64::MAX / d * d, u64::MAX / d * d - 1] {
                check(multiple);
            }
            for _ in 0..100_000 / 401 + 1 {
                draw ^= draw << 13;
                draw ^= draw >> 7;
                draw ^= draw << 17;
                check(draw);
            }
        }
    }

    #[test]
    fn jitter_sequence_is_pinned() {
        // The first sixteen charges of core 0 under the calibrated model:
        // every simulated figure and every trace fingerprint is a function
        // of this sequence.
        let clocks = Clocks::new(1);
        let model = LatencyModel::paper_calibrated();
        const PINNED: [u64; 16] = [
            880, 1270, 1190, 1080, 950, 1360, 1120, 1190, 990, 1170, 910, 1210, 1260, 1320, 920,
            1070,
        ];
        let charges: Vec<u64> = (0..16).map(|_| clocks.advance(0, 1000, &model)).collect();
        assert_eq!(charges, PINNED);
        assert_eq!(clocks.now(0), PINNED.iter().sum::<u64>());
    }

    #[test]
    fn interleaved_charges_sum_exactly() {
        let clocks = Clocks::new(2);
        let model = LatencyModel::paper_calibrated();
        let resource = AtomicU64::new(0);
        let mut expected = 0;
        for i in 0..1000u64 {
            expected += clocks.advance(0, 357, &model);
            clocks.advance_exact(0, i);
            expected += i;
            // An idle resource never makes the core wait, so the latency
            // observed is the service time charged.
            resource.store(0, Ordering::Relaxed);
            expected += clocks.serialize_through(0, &resource, 160, &model);
            assert_eq!(resource.load(Ordering::Relaxed), clocks.now(0));
            assert_eq!(clocks.now(0), expected, "after round {i}");
        }
        assert_eq!(clocks.now(1), 0, "charges to core 0 never touch core 1");
    }

    #[test]
    fn reset_zeroes() {
        let clocks = Clocks::new(2);
        clocks.advance(1, 10, &LatencyModel::zero());
        clocks.reset();
        assert_eq!(clocks.now(1), 0);
    }
}
