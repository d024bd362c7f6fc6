//! The box the benchmark runs on: a per-op tick clock, CPU pinning,
//! `/proc/stat` steal accounting and the machine descriptor stamped
//! into every output.

use std::time::{Duration, Instant};

/// Reads the per-op clock. On x86-64 this is `rdtscp` (waits for the
/// timed op's instructions to execute; ~17 ns a read here, sub-ns
/// resolution — an `Instant` pair costs ~45 ns and rounds a 100 ns op
/// to whole ns, so its percentiles would read identically run after run).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
pub fn ticks() -> u64 {
    let mut aux = 0u32;
    // SAFETY: `rdtscp` has no memory-safety preconditions; `aux` is a
    // valid out-pointer for the processor id it also returns.
    #[allow(unused_unsafe)]
    unsafe {
        core::arch::x86_64::__rdtscp(&mut aux)
    }
}

/// Portable fallback: nanoseconds since the first call.
#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
pub fn ticks() -> u64 {
    use std::sync::OnceLock;
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The tick clock's rate and its own cost, measured once per run.
#[derive(Debug, Clone, Copy)]
pub struct TickClock {
    /// Nanoseconds per tick, calibrated against `Instant`.
    pub ns_per_tick: f64,
    /// Smallest back-to-back `ticks()` delta, in ns: what one timed
    /// interval includes beyond the work inside it.
    pub floor_ns: f64,
}

impl TickClock {
    /// Calibrates over ~30 ms of spinning.
    pub fn calibrate() -> Self {
        let (i0, t0) = (Instant::now(), ticks());
        while i0.elapsed() < Duration::from_millis(30) {
            std::hint::spin_loop();
        }
        let (i1, t1) = (Instant::now(), ticks());
        let ns_per_tick = (i1 - i0).as_nanos() as f64 / (t1 - t0).max(1) as f64;
        let floor_ticks = (0..10_000)
            .map(|_| {
                let a = ticks();
                let b = ticks();
                b - a
            })
            .min()
            .unwrap_or(0);
        TickClock {
            ns_per_tick,
            floor_ns: floor_ticks as f64 * ns_per_tick,
        }
    }

    /// Converts a tick delta to nanoseconds.
    #[inline]
    pub fn ns(&self, ticks: u64) -> f64 {
        ticks as f64 * self.ns_per_tick
    }
}

const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins the calling thread to the highest-numbered CPU it may run on
/// (CPU 0 takes most interrupts). Returns the CPU, or `None` when the
/// affinity calls fail — the run continues unpinned.
pub fn pin_current_thread() -> Option<usize> {
    let mut mask = [0u64; MASK_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `bytes` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..MASK_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut only = [0u64; MASK_WORDS];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is a readable buffer of `bytes` bytes.
    (unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } == 0).then_some(cpu)
}

/// Cumulative (steal, total) jiffies from the first line of
/// `/proc/stat`, or `None` where it cannot be read.
pub fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice]
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Share of CPU time stolen by the hypervisor since `earlier`, in %.
pub fn steal_pct_since(earlier: Option<(u64, u64)>) -> f64 {
    match (earlier, cpu_jiffies()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => 100.0 * (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}

/// CPUs this process may run on. Cached at the first call, which
/// `main` makes before any thread is pinned.
pub fn nproc() -> usize {
    static NPROC: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(0, |n| n.get()))
}

fn read_trimmed(path: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    Some(text.trim().to_string())
}

/// The machine descriptor, as one JSON object. Every field degrades to
/// `"unknown"` where the box does not expose it.
pub fn machine_json() -> String {
    let unknown = || "unknown".to_string();
    let nproc = nproc();
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(unknown);
    let governor = read_trimmed("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor")
        .unwrap_or_else(unknown);
    let kernel = read_trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown);
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"governor\": {}, \"kernel\": {}, \"rustc\": {}}}",
        crate::report::json_string(&model),
        crate::report::json_string(&governor),
        crate::report::json_string(&kernel),
        crate::report::json_string(env!("POD_BENCH_RUSTC")),
    )
}
