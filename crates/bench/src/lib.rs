//! Benchmark harness regenerating the cxlalloc evaluation.
//!
//! One binary per paper table/figure (see `src/bin/`): `fig_table1`,
//! `fig_table2`, `fig7_recovery`, `fig8_macro`, `fig9_micro`,
//! `fig10_huge`, `fig11_mcas`, `fig12_cxl`, and `fig_mlc`. Each prints
//! the same rows/series the paper reports and, when `CXL_BENCH_OUT`
//! names a file, appends its records to it as NDJSON.
//!
//! By default the binaries run *scaled-down* workloads that finish in
//! seconds; pass `--paper` for the paper's full operation counts.

#![warn(missing_docs)]

pub mod allocators;
pub mod driver;
pub mod groups;
pub mod harness;
pub mod report;

pub use allocators::AllocatorKind;
pub use harness::{run_macro, run_micro, MacroResult, MicroResult};
pub use report::{percentile, NdjsonSink, Table};

/// Common CLI options shared by the figure binaries.
#[derive(Debug, Clone)]
pub struct Options {
    /// Run the paper's full operation counts (default: scaled down ~100×).
    pub paper: bool,
    /// Workload scale-down divisor applied when `paper` is false.
    pub scale: u64,
    /// Thread counts to sweep.
    pub threads: Vec<u32>,
    /// Simulated process count for cross-process allocators.
    pub processes: usize,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            paper: false,
            scale: 100,
            threads: vec![1, 2, 4, 8],
            processes: 4,
        }
    }
}

impl Options {
    /// Parses `--paper`, `--scale N`, `--threads a,b,c`, and
    /// `--processes N` from the process arguments.
    pub fn from_args() -> Self {
        let mut options = Options::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--paper" => {
                    options.paper = true;
                    options.scale = 1;
                    options.threads = vec![1, 2, 4, 8, 10, 16, 20, 32, 40, 64, 80];
                    options.processes = 10;
                }
                "--scale" => {
                    i += 1;
                    options.scale = args[i].parse().expect("--scale N");
                }
                "--threads" => {
                    i += 1;
                    options.threads = args[i]
                        .split(',')
                        .map(|t| t.parse().expect("--threads a,b,c"))
                        .collect();
                }
                "--processes" => {
                    i += 1;
                    options.processes = args[i].parse().expect("--processes N");
                }
                other => panic!("unknown argument {other}"),
            }
            i += 1;
        }
        options
    }

    /// The effective operation count for a paper-sized workload.
    pub fn ops(&self, paper_ops: u64) -> u64 {
        (paper_ops / self.scale).max(1000)
    }
}
