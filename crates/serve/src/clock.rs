//! The worker's per-op clock.
//!
//! A served op takes tens of nanoseconds, and an `Instant` pair around
//! it costs more than that (two vDSO `clock_gettime` calls). On x86-64
//! with an invariant time-stamp counter (CPUID leaf `0x8000_0007`, EDX
//! bit 8: the counter ticks at one rate through frequency and power
//! changes) the clock reads the TSC instead, a pair of `rdtsc`
//! instructions. Anywhere else it reads `Instant`, in nanoseconds since
//! the calibration began. There is no setting: the CPU decides.
//!
//! A worker calibrates for itself, every incarnation and adopter alike,
//! over its own start-up. [`Calibration::start`] stamps (`Instant`,
//! ticks) when the process starts; [`Calibration::finish`] stamps again
//! when it reads RUNNING, and the ratio becomes a 32.32 fixed-point
//! nanoseconds-per-tick multiplier. Start-up (attach, register or
//! adopt, hello) takes milliseconds, so the window costs nothing; only
//! a window under 200 µs is stretched by spinning.
//!
//! A sample is the op's own time: the ticks between the two reads
//! around it, minus the clock's *floor* — the smallest back-to-back
//! delta of the same pair of reads, probed while the worker waits to
//! start — converted to nanoseconds, and 0 if the op read under the
//! floor. Without the subtraction every sample would carry the pair's
//! own cost (an `rdtsc` pair's floor is ~15 ns, an `Instant` pair's
//! ~28 ns, on a 2-vCPU Xeon VM), which the log2 histogram cannot tell
//! from the op.

use std::time::{Duration, Instant};

/// A calibration window shorter than this is stretched by spinning, so
/// the tens of nanoseconds either stamp may be off by stay under 0.1 %
/// of it.
const MIN_WINDOW: Duration = Duration::from_micros(200);

/// Back-to-back read pairs each floor probe times (~2 µs on the TSC).
const FLOOR_PAIRS: u32 = 64;

/// Stamps each pairing tries, keeping the one whose tick reads
/// bracket the `Instant` read most tightly.
const STAMP_TRIES: u32 = 3;

/// Where ticks come from.
#[derive(Debug, Clone, Copy)]
enum Source {
    /// The time-stamp counter.
    Tsc,
    /// Nanoseconds since this `Instant`.
    Since(Instant),
}

impl Source {
    fn pick(base: Instant) -> Source {
        if invariant_tsc() {
            Source::Tsc
        } else {
            Source::Since(base)
        }
    }

    #[inline(always)]
    fn ticks(self) -> u64 {
        match self {
            Source::Tsc => rdtsc(),
            Source::Since(base) => base.elapsed().as_nanos() as u64,
        }
    }
}

/// Whether CPUID reports an invariant TSC.
#[cfg(target_arch = "x86_64")]
fn invariant_tsc() -> bool {
    use core::arch::x86_64::__cpuid;
    // SAFETY: `cpuid` exists on every x86-64 CPU and only writes the
    // four registers it returns; leaf 0x8000_0007 is read only when the
    // highest extended leaf (leaf 0x8000_0000's EAX) reaches it.
    #[allow(unused_unsafe)]
    unsafe {
        __cpuid(0x8000_0000).eax >= 0x8000_0007 && __cpuid(0x8000_0007).edx & (1 << 8) != 0
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn invariant_tsc() -> bool {
    false
}

/// Reads the TSC. Unfenced: the read may start a few instructions
/// early or late, well inside one log2 bucket of a served op.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn rdtsc() -> u64 {
    // SAFETY: `rdtsc` reads a counter into registers and touches no
    // memory; `Source::Tsc` exists only where CPUID reported the TSC.
    #[allow(unused_unsafe)]
    unsafe {
        core::arch::x86_64::_rdtsc()
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn rdtsc() -> u64 {
    unreachable!("Source::Tsc is picked on x86-64 only")
}

/// An (`Instant`, ticks) pair read as close together as this process
/// can: the middle of the tightest of [`STAMP_TRIES`] tick brackets
/// around an `Instant` read, so a preemption inside one try does not
/// skew the calibration.
fn stamp(source: Source) -> (Instant, u64) {
    let mut best = (Instant::now(), 0, u64::MAX);
    for _ in 0..STAMP_TRIES {
        let before = source.ticks();
        let at = Instant::now();
        let after = source.ticks();
        let width = after.saturating_sub(before);
        if width < best.2 {
            best = (at, before + width / 2, width);
        }
    }
    (best.0, best.1)
}

/// A per-op clock being calibrated: begun when the worker starts,
/// finished when it reads RUNNING.
#[derive(Debug)]
pub struct Calibration {
    source: Source,
    start: (Instant, u64),
    floor: u64,
}

impl Calibration {
    /// Picks the source and takes the first stamp.
    pub fn start() -> Calibration {
        let source = Source::pick(Instant::now());
        Calibration { source, start: stamp(source), floor: u64::MAX }
    }

    /// Times 64 back-to-back read pairs and keeps the
    /// smallest delta seen so far: the clock's floor.
    pub fn probe_floor(&mut self) {
        for _ in 0..FLOOR_PAIRS {
            let t0 = self.source.ticks();
            let t1 = self.source.ticks();
            self.floor = self.floor.min(t1.saturating_sub(t0));
        }
    }

    /// Takes the second stamp (spinning first if the window is still
    /// under 200 µs) and returns the calibrated clock.
    pub fn finish(mut self) -> OpClock {
        self.probe_floor();
        let (i0, t0) = self.start;
        while i0.elapsed() < MIN_WINDOW {
            std::hint::spin_loop();
        }
        let mult = match self.source {
            // `Since` ticks are nanoseconds already.
            Source::Since(_) => 1 << 32,
            Source::Tsc => {
                let (i1, t1) = stamp(self.source);
                let ns = (i1 - i0).as_nanos();
                let ticks = t1.saturating_sub(t0).max(1) as u128;
                u64::try_from((ns << 32) / ticks).expect("a TSC ticks at least once per 4 s")
            }
        };
        OpClock { source: self.source, mult, floor: self.floor }
    }
}

/// A calibrated per-op clock: [`now`](OpClock::now) before the op,
/// [`since`](OpClock::since) after it.
#[derive(Debug, Clone, Copy)]
pub struct OpClock {
    source: Source,
    /// Nanoseconds per tick, 32.32 fixed point.
    mult: u64,
    /// Smallest back-to-back read delta, in ticks.
    floor: u64,
}

impl OpClock {
    /// Reads the clock.
    #[inline(always)]
    pub fn now(&self) -> u64 {
        self.source.ticks()
    }

    /// The op's own time since `t0` (a [`now`](OpClock::now) reading),
    /// in nanoseconds.
    #[inline(always)]
    pub fn since(&self, t0: u64) -> u64 {
        self.op_ns(t0, self.now())
    }

    /// Nanoseconds from `t0` to `t1` beyond the floor, 0 at or under it.
    #[inline(always)]
    fn op_ns(&self, t0: u64, t1: u64) -> u64 {
        self.ns(t1.saturating_sub(t0).saturating_sub(self.floor))
    }

    #[inline(always)]
    fn ns(&self, ticks: u64) -> u64 {
        ((ticks as u128 * self.mult as u128) >> 32) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn a_spin_reads_the_same_on_both_clocks() {
        let mut cal = Calibration::start();
        cal.probe_floor();
        spin(Duration::from_millis(20));
        let clock = cal.finish();
        // Both clocks time one wall interval, so only a preemption
        // between the paired reads can tell them apart: the best of five
        // tries must agree within 1 %.
        let error = (0..5)
            .map(|_| {
                let (i0, t0) = (Instant::now(), clock.now());
                spin(Duration::from_millis(20));
                let (op, wall) = (clock.since(t0), i0.elapsed().as_nanos() as f64);
                (op as f64 - wall).abs() / wall
            })
            .fold(f64::INFINITY, f64::min);
        assert!(error < 0.01, "the op clock is {:.3} % off Instant: {clock:?}", error * 100.0);
    }

    #[test]
    fn the_floor_subtraction_saturates_at_zero() {
        let clock = OpClock { source: Source::Tsc, mult: 1 << 32, floor: 40 };
        assert_eq!(clock.op_ns(1000, 1100), 60);
        assert_eq!(clock.op_ns(1000, 1040), 0, "an op at the floor reads 0");
        assert_eq!(clock.op_ns(1000, 1010), 0, "an op under the floor reads 0");
        assert_eq!(clock.op_ns(1000, 900), 0, "a read behind its start reads 0");
    }

    #[test]
    fn tick_conversion_is_exact_at_zero_and_monotone() {
        // 0.3 ns a tick (a 3.3 GHz counter), 1 ns, and 2.5 ns.
        for mult in [(3u64 << 32) / 10, 1 << 32, 5 << 31] {
            let clock = OpClock { source: Source::Tsc, mult, floor: 0 };
            assert_eq!(clock.ns(0), 0);
            let mut last = 0;
            for ticks in (0..10_000).chain([u32::MAX as u64, 1 << 40, u64::MAX / 4]) {
                let ns = clock.ns(ticks);
                assert!(ns >= last, "mult {mult:#x}: {ticks} ticks read {ns} < {last}");
                last = ns;
            }
        }
        let unit = OpClock { source: Source::Tsc, mult: 1 << 32, floor: 0 };
        assert_eq!(unit.ns(12_345), 12_345, "one tick a nanosecond converts exactly");
    }

    #[test]
    fn a_short_start_up_is_stretched_to_the_minimum_window() {
        let cal = Calibration::start();
        let began = cal.start.0;
        let clock = cal.finish();
        assert!(began.elapsed() >= MIN_WINDOW);
        assert!(clock.floor < u64::MAX, "finish probes the floor");
    }
}
