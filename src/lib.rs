//! Facade crate re-exporting the cxlalloc reproduction's public API.
//!
//! See the individual crates for details:
//! * [`pod`] — CXL pod substrate (segment, coherence simulation, NMP mCAS).
//! * [`core`] — the cxlalloc allocator.
//! * [`drive`] — deterministic multi-host drivers: clock order for
//!   modeled numbers, seeded schedules and their explorer for crashes.
//! * [`baselines`] — comparison allocators.
//! * [`kvstore`] — lock-free hash table used by the macrobenchmarks.
//! * [`recoverable`] — detectably recoverable data structures.
//! * [`workloads`] — YCSB / memcached-trace / microbenchmark generators.

pub use baselines;
pub use cxl_core as core;
pub use cxl_drive as drive;
pub use cxl_serve as serve;
pub use cxl_pod as pod;
pub use kvstore;
pub use recoverable;
pub use workloads;
