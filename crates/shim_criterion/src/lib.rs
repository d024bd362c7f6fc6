//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no crates.io access, so this crate vendors
//! the subset of criterion's API the workspace's benches use:
//! [`Criterion::benchmark_group`], [`BenchmarkGroup::bench_function`],
//! `throughput`, the [`criterion_group!`]/[`criterion_main!`] macros, and
//! [`black_box`]. Measurement is a plain calibrated timing loop: each
//! benchmark is warmed up, then run for `sample_size` samples whose
//! median ns/iter (and derived throughput) is printed. No statistics
//! beyond that — these numbers are for relative comparisons between
//! in-repo variants, not publication.

#![warn(missing_docs)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Throughput annotation for a benchmark group.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One finished benchmark's measurement, kept by the driver so harness
/// binaries (e.g. `bench-gates`) can post-process results instead of
/// scraping stdout.
#[derive(Debug, Clone)]
pub struct BenchRecord {
    /// Group name (first path component of `group/id`).
    pub group: String,
    /// Benchmark id within the group.
    pub id: String,
    /// Median ns per iteration.
    pub median_ns: f64,
    /// Fastest sample, ns per iteration.
    pub min_ns: f64,
    /// Slowest sample, ns per iteration.
    pub max_ns: f64,
    /// The group's throughput annotation, if any.
    pub throughput: Option<Throughput>,
    /// Auxiliary counters attached after measurement via
    /// [`BenchmarkGroup::annotate_last`] (e.g. per-op memory-traffic
    /// rates observed while the samples ran); `bench-gates` forms its
    /// modeled-time ratios from them.
    pub counters: Vec<(String, f64)>,
}

impl BenchRecord {
    /// `group/id`, the path criterion reports under.
    pub fn path(&self) -> String {
        format!("{}/{}", self.group, self.id)
    }

    /// Elements (or bytes) per second implied by the median, when the
    /// group carries a throughput annotation.
    pub fn per_second(&self) -> Option<f64> {
        match self.throughput {
            Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) => {
                Some(n as f64 * 1e9 / self.median_ns)
            }
            None => None,
        }
    }
}

/// Top-level benchmark driver.
#[derive(Debug, Clone, Default)]
pub struct Criterion {
    sample_size: usize,
    records: Vec<BenchRecord>,
}

impl Criterion {
    /// Sets the number of timed samples per benchmark.
    #[must_use]
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(2);
        self
    }

    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        println!("\n== {name} ==");
        let sample_size = self.effective_sample_size();
        BenchmarkGroup {
            criterion: self,
            name,
            throughput: None,
            sample_size,
        }
    }

    /// Drains the measurements recorded so far.
    pub fn take_records(&mut self) -> Vec<BenchRecord> {
        std::mem::take(&mut self.records)
    }

    fn effective_sample_size(&self) -> usize {
        if self.sample_size == 0 {
            20
        } else {
            self.sample_size
        }
    }
}

/// A named group of benchmarks sharing a throughput annotation.
#[derive(Debug)]
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the group's per-iteration throughput.
    pub fn throughput(&mut self, throughput: Throughput) {
        self.throughput = Some(throughput);
    }

    /// Runs one benchmark: `f` receives a [`Bencher`] and calls
    /// [`Bencher::iter`] with the routine under test.
    pub fn bench_function(&mut self, id: impl Into<String>, mut f: impl FnMut(&mut Bencher)) {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut bencher);
        if let Some(record) = bencher.record(&self.name, &id, self.throughput) {
            self.criterion.records.push(record);
        }
    }

    /// Attaches an auxiliary counter to the most recently recorded
    /// benchmark and prints it under that benchmark's line. No-op when
    /// the last `bench_function` produced no record (its routine never
    /// called [`Bencher::iter`]).
    pub fn annotate_last(&mut self, key: impl Into<String>, value: f64) {
        if let Some(record) = self.criterion.records.last_mut() {
            let key = key.into();
            println!("    {key} = {value:.1}");
            record.counters.push((key, value));
        }
    }

    /// Ends the group (printing is incremental; nothing to flush).
    pub fn finish(self) {}
}

/// Hands the routine under test to the timing loop.
#[derive(Debug)]
pub struct Bencher {
    sample_size: usize,
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `routine`, storing per-iteration samples.
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        // Warm up and calibrate: grow the batch until one batch takes
        // ~5 ms so Instant overhead stays negligible.
        let mut batch: u64 = 1;
        loop {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            if elapsed >= Duration::from_millis(5) || batch >= 1 << 20 {
                break;
            }
            batch *= 2;
        }
        self.samples_ns.clear();
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..batch {
                black_box(routine());
            }
            let elapsed = start.elapsed();
            self.samples_ns
                .push(elapsed.as_nanos() as f64 / batch as f64);
        }
    }

    fn record(&self, group: &str, id: &str, throughput: Option<Throughput>) -> Option<BenchRecord> {
        if self.samples_ns.is_empty() {
            println!("{group}/{id}: no samples (Bencher::iter never called)");
            return None;
        }
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let min = sorted[0];
        let max = sorted[sorted.len() - 1];
        let rate = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:>10.2} Melem/s", n as f64 * 1e3 / median)
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:>10.2} MiB/s", n as f64 * 1e9 / median / (1 << 20) as f64)
            }
            None => String::new(),
        };
        println!("{group}/{id}: {median:>10.1} ns/iter  [{min:.1} .. {max:.1}]{rate}");
        Some(BenchRecord {
            group: group.to_string(),
            id: id.to_string(),
            median_ns: median,
            min_ns: min,
            max_ns: max,
            throughput,
            counters: Vec::new(),
        })
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group! {
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        }
    };
}

/// Declares the benchmark binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_loop_produces_samples() {
        let mut c = Criterion::default().sample_size(3);
        let mut group = c.benchmark_group("shim_selftest");
        group.throughput(Throughput::Elements(1));
        let mut calls = 0u64;
        group.bench_function("noop", |b| {
            b.iter(|| {
                calls += 1;
                black_box(calls)
            })
        });
        group.finish();
        assert!(calls > 0);
    }
}
