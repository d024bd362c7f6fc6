//! Pod configuration.

use crate::PodError;

/// Size of a small-heap slab (paper §3.2: "a small slab is 32KiB").
pub const SMALL_SLAB_SIZE: u64 = 32 * 1024;
/// Size of a large-heap slab (paper §3.2: "a large slab is 512KiB").
pub const LARGE_SLAB_SIZE: u64 = 512 * 1024;
/// Smallest block served by the small heap.
pub const SMALL_MIN_BLOCK: u64 = 8;
/// Largest block served by the small heap (inclusive).
pub const SMALL_MAX_BLOCK: u64 = 1024;
/// Largest block served by the large heap (inclusive). Anything bigger
/// goes to the huge heap.
pub const LARGE_MAX_BLOCK: u64 = 512 * 1024;
/// Cacheline size assumed throughout (bytes).
pub const CACHELINE: u64 = 64;
/// Page granularity for huge-heap mappings (bytes).
pub const PAGE_SIZE: u64 = 4096;

/// Number of small-heap size classes. Must match
/// `cxl-core`'s class table; checked there at attach time.
pub const SMALL_CLASSES: u32 = 28;
/// Number of large-heap size classes. Must match `cxl-core`'s class table.
pub const LARGE_CLASSES: u32 = 19;

/// Geometry of a pod's shared segment.
///
/// The same configuration must be used by every process attaching to a
/// given segment; the allocator's layout is a pure function of it, which
/// is what makes an all-zero segment a valid empty heap (paper §4).
///
/// # Example
///
/// ```
/// use cxl_pod::PodConfig;
///
/// let config = PodConfig::default();
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodConfig {
    /// Maximum number of registered threads across all processes
    /// (`NUM_THREAD` in the paper's pseudocode). Thread IDs are 16-bit
    /// and 1-based (0 means "no owner"), so this must be < 65536.
    pub max_threads: u32,
    /// Capacity of the small heap, in 32 KiB slabs.
    pub small_max_slabs: u32,
    /// Capacity of the large heap, in 512 KiB slabs.
    pub large_max_slabs: u32,
    /// Capacity of the huge heap's data region, in bytes. Rounded up to a
    /// multiple of `huge_regions * PAGE_SIZE`.
    pub huge_capacity: u64,
    /// Number of coarse-grained reservation entries in the huge heap
    /// (`NUM_RESERVATION`). The paper's prototype uses 8 KiB of HWcc
    /// memory for the reservation array, i.e. 1024 8-byte entries.
    pub huge_regions: u32,
    /// Per-thread pool capacity of huge descriptors.
    pub huge_descs_per_thread: u32,
    /// Per-thread hazard-offset slots (`NUM_HAZARD`).
    pub hazards_per_thread: u32,
    /// Safety cap on the total segment size in bytes.
    pub max_segment_bytes: u64,
}

impl Default for PodConfig {
    fn default() -> Self {
        PodConfig {
            max_threads: 128,
            small_max_slabs: 4096,         // 128 MiB of small data
            large_max_slabs: 512,          // 256 MiB of large data
            huge_capacity: 8 << 30,        // 8 GiB of huge address space
            huge_regions: 1024,            // 8 KiB of HWcc memory, as in the paper
            huge_descs_per_thread: 1024,
            hazards_per_thread: 64,
            max_segment_bytes: 64 << 30,
        }
    }
}

impl PodConfig {
    /// A tiny configuration suitable for unit tests: a few MiB total.
    pub fn small_for_tests() -> Self {
        PodConfig {
            max_threads: 16,
            small_max_slabs: 64,
            large_max_slabs: 8,
            huge_capacity: 64 << 20,
            huge_regions: 32,
            huge_descs_per_thread: 64,
            hazards_per_thread: 8,
            max_segment_bytes: 1 << 30,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PodError::InvalidConfig`] describing the first
    /// inconsistency found.
    pub fn validate(&self) -> Result<(), PodError> {
        let fail = |reason: &str| {
            Err(PodError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.max_threads == 0 {
            return fail("max_threads must be at least 1");
        }
        if self.max_threads >= u16::MAX as u32 {
            return fail("max_threads must fit in a 16-bit thread id (< 65535)");
        }
        if self.small_max_slabs == 0 || self.large_max_slabs == 0 {
            return fail("heap slab capacities must be at least 1");
        }
        if self.huge_regions == 0 {
            return fail("huge_regions must be at least 1");
        }
        if self.huge_capacity < self.huge_regions as u64 * PAGE_SIZE {
            return fail("huge_capacity must provide at least one page per region");
        }
        if self.huge_descs_per_thread == 0 {
            return fail("huge_descs_per_thread must be at least 1");
        }
        if self.hazards_per_thread == 0 {
            return fail("hazards_per_thread must be at least 1");
        }
        Ok(())
    }

    /// Size of one huge-heap reservation region in bytes (the unit of the
    /// reservation array), after rounding `huge_capacity` up.
    pub fn huge_region_size(&self) -> u64 {
        let regions = self.huge_regions as u64;
        let per_region = self.huge_capacity.div_ceil(regions);
        // Round region size up to page granularity.
        per_region.div_ceil(PAGE_SIZE) * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_valid() {
        PodConfig::default().validate().unwrap();
        PodConfig::small_for_tests().validate().unwrap();
    }

    #[test]
    fn rejects_zero_threads() {
        let config = PodConfig {
            max_threads: 0,
            ..PodConfig::small_for_tests()
        };
        assert!(matches!(
            config.validate(),
            Err(PodError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn rejects_oversized_thread_ids() {
        let config = PodConfig {
            max_threads: 70_000,
            ..PodConfig::small_for_tests()
        };
        assert!(config.validate().is_err());
    }

    #[test]
    fn region_size_is_page_aligned() {
        let config = PodConfig::small_for_tests();
        assert_eq!(config.huge_region_size() % PAGE_SIZE, 0);
        assert!(config.huge_region_size() * config.huge_regions as u64 >= config.huge_capacity);
    }

    #[test]
    fn rejects_tiny_huge_capacity() {
        let config = PodConfig {
            huge_capacity: 16,
            ..PodConfig::small_for_tests()
        };
        assert!(config.validate().is_err());
    }
}
