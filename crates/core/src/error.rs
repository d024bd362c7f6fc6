//! Allocator error types.

use std::fmt;

/// Errors returned by allocator operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AllocError {
    /// The requested size is zero or exceeds the huge heap's capacity.
    InvalidSize {
        /// The rejected size.
        size: usize,
    },
    /// The responsible heap is out of memory (slab capacity or huge
    /// address space exhausted).
    OutOfMemory {
        /// Which heap ran out.
        heap: HeapKind,
        /// The request that failed.
        size: usize,
    },
    /// All thread slots are registered.
    TooManyThreads {
        /// Configured maximum.
        max: u32,
    },
    /// The pointer passed to `dealloc` does not point into any heap.
    WildPointer {
        /// The offending offset.
        offset: u64,
    },
    /// The pointer passed to `dealloc` points at memory that is not
    /// currently allocated (double free or misaligned interior pointer).
    NotAllocated {
        /// The offending offset.
        offset: u64,
    },
    /// The per-thread huge descriptor pool is exhausted.
    DescriptorPoolExhausted {
        /// Thread whose pool is full.
        thread: crate::ThreadId,
    },
    /// The per-thread hazard-slot array is full.
    HazardSlotsExhausted {
        /// Thread whose hazard array is full.
        thread: crate::ThreadId,
    },
    /// Attach-time validation failed (layout mismatch between processes).
    ConfigMismatch {
        /// Description of the mismatch.
        reason: String,
    },
    /// The thread slot is not in a state that permits this operation
    /// (e.g. recovering a live thread).
    BadThreadState {
        /// The slot in question.
        thread: crate::ThreadId,
        /// What was found.
        state: &'static str,
    },
    /// A CAS loop exhausted its bounded retry budget against persistent
    /// device contention (the mCAS device kept bouncing pairs while the
    /// cell value never changed). Distinct from a genuine state
    /// conflict: the operation may be retried once the device recovers,
    /// and the NMP breaker will reroute it through the software-fallback
    /// path if the outage persists.
    DeviceContention {
        /// Failed attempts before giving up.
        retries: u32,
    },
    /// Another survivor won the race to adopt this crashed thread — its
    /// DEAD→ADOPTING registry CAS linearized first. The loser should
    /// back off; the thread is being recovered.
    AdoptionRaced {
        /// The contested thread slot.
        thread: crate::ThreadId,
    },
    /// A heartbeat found the lease word carrying a different epoch: a
    /// detector declared this thread dead and an adopter (possibly in
    /// another process) re-incarnated the slot. The handle must stop
    /// touching the heap — everything it owned now belongs to the
    /// adopter.
    LeaseStolen {
        /// The slot that was stolen.
        thread: crate::ThreadId,
        /// The epoch this handle's incarnation held.
        held_epoch: u16,
        /// The epoch found in the lease word.
        found_epoch: u16,
    },
    /// A detectable free's claim lost, so nothing was freed.
    ClaimLost {
        /// Segment offset of the claimed cell.
        dst: u64,
        /// The value the claim expected.
        seen: u64,
        /// The value the cell held.
        found: u64,
    },
    /// `dealloc_detectable` was given a huge-heap pointer.
    NotDetectable {
        /// The offending offset.
        offset: u64,
    },
}

/// Which of the three heaps an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapKind {
    /// 8 B – 1 KiB blocks in 32 KiB slabs.
    Small,
    /// 1 KiB – 512 KiB blocks in 512 KiB slabs.
    Large,
    /// 512 KiB+ allocations backed by individual mappings.
    Huge,
}

impl fmt::Display for HeapKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeapKind::Small => write!(f, "small"),
            HeapKind::Large => write!(f, "large"),
            HeapKind::Huge => write!(f, "huge"),
        }
    }
}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::InvalidSize { size } => write!(f, "invalid allocation size {size}"),
            AllocError::OutOfMemory { heap, size } => {
                write!(f, "{heap} heap out of memory allocating {size} bytes")
            }
            AllocError::TooManyThreads { max } => {
                write!(f, "all {max} thread slots are registered")
            }
            AllocError::WildPointer { offset } => {
                write!(f, "pointer at offset {offset:#x} is outside every heap")
            }
            AllocError::NotAllocated { offset } => {
                write!(f, "pointer at offset {offset:#x} is not an allocated block")
            }
            AllocError::DescriptorPoolExhausted { thread } => {
                write!(f, "huge descriptor pool of {thread} exhausted")
            }
            AllocError::HazardSlotsExhausted { thread } => {
                write!(f, "hazard slots of {thread} exhausted")
            }
            AllocError::ConfigMismatch { reason } => write!(f, "config mismatch: {reason}"),
            AllocError::BadThreadState { thread, state } => {
                write!(f, "{thread} is in state {state}, operation not permitted")
            }
            AllocError::DeviceContention { retries } => {
                write!(f, "mCAS device contention persisted across {retries} bounded retries")
            }
            AllocError::AdoptionRaced { thread } => {
                write!(f, "another survivor is already adopting {thread}")
            }
            AllocError::LeaseStolen {
                thread,
                held_epoch,
                found_epoch,
            } => write!(
                f,
                "lease of {thread} was stolen: held epoch {held_epoch}, found {found_epoch}"
            ),
            AllocError::ClaimLost { dst, seen, found } => write!(
                f,
                "claim of cell {dst:#x} lost: expected {seen:#x}, found {found:#x}"
            ),
            AllocError::NotDetectable { offset } => write!(f, "huge block {offset:#x} has no detectable free"),
        }
    }
}

impl std::error::Error for AllocError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty() {
        let errors: Vec<AllocError> = vec![
            AllocError::InvalidSize { size: 0 },
            AllocError::OutOfMemory {
                heap: HeapKind::Small,
                size: 64,
            },
            AllocError::TooManyThreads { max: 4 },
            AllocError::WildPointer { offset: 1 },
            AllocError::NotAllocated { offset: 1 },
            AllocError::DescriptorPoolExhausted {
                thread: crate::ThreadId::new(1).unwrap(),
            },
            AllocError::HazardSlotsExhausted {
                thread: crate::ThreadId::new(1).unwrap(),
            },
            AllocError::ConfigMismatch {
                reason: "x".into(),
            },
            AllocError::BadThreadState {
                thread: crate::ThreadId::new(1).unwrap(),
                state: "live",
            },
            AllocError::DeviceContention { retries: 24 },
            AllocError::AdoptionRaced {
                thread: crate::ThreadId::new(1).unwrap(),
            },
            AllocError::LeaseStolen {
                thread: crate::ThreadId::new(1).unwrap(),
                held_epoch: 1,
                found_epoch: 2,
            },
            AllocError::ClaimLost { dst: 8, seen: 16, found: 0 },
            AllocError::NotDetectable { offset: 1 },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn heap_kind_display() {
        assert_eq!(HeapKind::Small.to_string(), "small");
        assert_eq!(HeapKind::Large.to_string(), "large");
        assert_eq!(HeapKind::Huge.to_string(), "huge");
    }
}
