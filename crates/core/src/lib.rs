//! # cxlalloc — safe and efficient memory allocation for a CXL pod
//!
//! A from-scratch Rust reproduction of *Cxlalloc: Safe and Efficient
//! Memory Allocation for a CXL Pod* (ASPLOS 2026). Cxlalloc is a
//! user-space memory allocator for groups of hosts sharing CXL-attached
//! memory, addressing three challenges no prior allocator handles
//! together:
//!
//! 1. **Limited hardware cache coherence** — metadata is partitioned
//!    into a tiny HWcc region (one 8-byte cell per slab plus constants)
//!    and a SWcc region kept coherent in software by an explicit
//!    flush/fence protocol ([`slab`], [`huge`]). On pods with *no* HWcc,
//!    synchronization falls back to a memory-side compare-and-swap
//!    (mCAS) served by near-memory-processing logic
//!    ([`cxl_pod::nmp`]).
//! 2. **Cross-process sharing** — pointer consistency (PC-S via offset
//!    pointers and deterministic layout; PC-T via a fault handler that
//!    installs memory mappings asynchronously and a hazard-offset
//!    protocol for safely unmapping huge allocations).
//! 3. **Partial failure** — lock-free shared structures where every
//!    operation is a single (detectable) CAS, plus a per-thread 8-byte
//!    redo log that makes every operation idempotently recoverable
//!    without blocking live threads ([`recovery`]).
//!
//! The allocator manages three heaps: small (8 B–1 KiB blocks, 32 KiB
//! slabs), large (1 KiB–512 KiB blocks, 512 KiB slabs), and huge
//! (512 KiB+, backed by individual memory mappings).
//!
//! Partial-failure safety is checked from outside this crate: [`crash`]
//! compiles labelled crash points into the allocator, and the
//! `cxl-drive` crate runs seeded schedules of allocations, crashes and
//! recoveries across simulated hosts into them, ending every run with
//! [`Cxlalloc::check_invariants`].
//!
//! ## Quickstart
//!
//! ```
//! use cxl_pod::{Pod, PodConfig};
//! use cxl_core::{AttachOptions, Cxlalloc};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pod = Pod::new(PodConfig::small_for_tests())?;
//!
//! // Two "processes" attach with no coordination: zeroed memory is a
//! // valid heap.
//! let heap_a = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
//! let heap_b = Cxlalloc::attach(pod.spawn_process(), AttachOptions::default())?;
//!
//! let mut alice = heap_a.register_thread()?;
//! let mut bob = heap_b.register_thread()?;
//!
//! // Alice allocates and writes; the pointer is just an offset.
//! let ptr = alice.alloc(128)?;
//! unsafe { alice.resolve(ptr, 128)?.write_bytes(7, 128) };
//!
//! // Bob dereferences the same pointer in his process (PC-S + PC-T) and
//! // frees it remotely.
//! let raw = bob.resolve(ptr, 128)?;
//! assert_eq!(unsafe { *raw }, 7);
//! bob.dealloc(ptr)?;
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod alloc;
pub mod audit;
pub mod backoff;
pub mod bitset;
pub mod cell;
pub mod class;
pub mod crash;
mod ctx;
pub mod dcas;
mod error;
pub mod huge;
pub mod interval;
pub mod liveness;
pub mod oplog;
mod ptr;
pub mod recovery;
mod remote;
mod rover;
pub mod slab;

pub use alloc::{AttachOptions, Cxlalloc, HeapStats, ThreadHandle};
pub use audit::BlockCensus;
pub use error::{AllocError, HeapKind};
pub use ptr::{OffsetPtr, ThreadId};
pub use recovery::{Op, RecoveryReport};
