//! The shared "physical" memory segment.
//!
//! A [`Segment`] models the CXL device's DRAM: one contiguous,
//! byte-addressable range shared by every host in the pod. It is
//! zero-initialized, which the allocator relies on — an all-zero segment
//! is a valid, initialized heap (paper §4, *Heap initialization*), so no
//! cross-process bootstrap coordination is needed.

use crate::PodError;
use std::alloc::{alloc_zeroed, dealloc, Layout as AllocLayout};
use std::sync::atomic::{AtomicU64, Ordering};

/// Alignment of the segment base (one page).
const SEGMENT_ALIGN: usize = 4096;

/// A zero-initialized, page-aligned shared memory segment.
///
/// All access is through *offsets*, never absolute pointers — the same
/// discipline the allocator's offset pointers impose (PC-S). Atomic
/// accessors hand out references to `AtomicU64` cells living inside the
/// segment.
///
/// Backing memory for the in-process variant is requested with the
/// allocator's *minimum* alignment and page-aligned manually. This
/// matters: on Linux, `alloc_zeroed` with large alignment bypasses
/// `calloc` and memsets the whole allocation, which would *touch* every
/// page of a multi-GiB segment. With `calloc`, large requests come from
/// fresh anonymous mappings and stay lazily committed — untouched heap
/// capacity costs nothing, like an untouched shared memory file.
///
/// The shared variant ([`Segment::map_shared`]) maps a sparse on-disk
/// file with `MAP_SHARED`, so several OS processes opening the same path
/// see one physical byte range — the real-process analogue of the CXL
/// device memory every host in the pod maps.
pub struct Segment {
    backing: Backing,
    span: Span,
}

/// A segment's usable range: its page-aligned base and its length. A
/// copy lets a backend reach a cell with one load of its own field
/// instead of a hop through the `Arc<Segment>`; whoever holds one must
/// keep the segment alive.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Span {
    base: *mut u8,
    len: u64,
}

// SAFETY: the pointer names the segment's byte arena, which `Segment`
// shares between threads under the same contract (all mutation goes
// through atomics, or through raw pointers the caller synchronizes).
unsafe impl Send for Span {}
unsafe impl Sync for Span {}

impl Span {
    /// The base address.
    #[inline]
    pub(crate) fn base(&self) -> *mut u8 {
        self.base
    }

    #[inline]
    fn check(&self, offset: u64, bytes: u64) {
        assert!(
            offset.checked_add(bytes).is_some_and(|end| end <= self.len),
            "segment access out of bounds: offset {offset} + {bytes} > len {}",
            self.len
        );
    }

    /// Returns the `AtomicU64` cell at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 8-byte aligned or out of bounds.
    #[inline]
    pub(crate) fn atomic_u64(&self, offset: u64) -> &AtomicU64 {
        self.check(offset, 8);
        assert_eq!(offset % 8, 0, "unaligned u64 access at offset {offset}");
        // SAFETY: in-bounds (checked), aligned (checked), and AtomicU64
        // has the same layout as u64; the holder keeps the segment, and
        // so the backing memory, alive.
        unsafe { &*(self.base.add(offset as usize) as *const AtomicU64) }
    }
}

/// How the segment's bytes are owned (and therefore released on drop).
enum Backing {
    /// In-process `alloc_zeroed` arena; `raw` is the unaligned pointer
    /// the global allocator handed out, freed with the padded layout.
    Heap { raw: *mut u8 },
    /// `MAP_SHARED` file mapping; `base` itself is the mmap address and
    /// is unmapped with `munmap(base, len)`.
    #[cfg(unix)]
    SharedFile,
}

// SAFETY: the segment is a plain byte arena; all mutation goes through
// atomic operations (or through raw pointers whose synchronization is the
// caller's responsibility, exactly as with real shared memory).
unsafe impl Send for Segment {}
unsafe impl Sync for Segment {}

impl Segment {
    /// Allocates a zeroed segment of `len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`PodError::OutOfHostMemory`] if the host allocation fails
    /// and [`PodError::InvalidConfig`] for a zero-length segment.
    pub fn zeroed(len: u64) -> Result<Self, PodError> {
        if len == 0 {
            return Err(PodError::InvalidConfig {
                reason: "segment length must be nonzero".into(),
            });
        }
        // Over-allocate by one page at minimal alignment (goes through
        // calloc → lazily-zeroed fresh mappings for large sizes), then
        // align the base by hand.
        let padded = (len as usize)
            .checked_add(SEGMENT_ALIGN)
            .ok_or(PodError::InvalidConfig {
                reason: format!("segment length {len} overflows"),
            })?;
        let layout = AllocLayout::from_size_align(padded, 8).map_err(|_| {
            PodError::InvalidConfig {
                reason: format!("segment length {len} not layoutable"),
            }
        })?;
        // SAFETY: layout has nonzero size (checked above).
        let raw = unsafe { alloc_zeroed(layout) };
        if raw.is_null() {
            return Err(PodError::OutOfHostMemory { requested: len });
        }
        let misalign = raw as usize % SEGMENT_ALIGN;
        let adjust = if misalign == 0 { 0 } else { SEGMENT_ALIGN - misalign };
        // SAFETY: adjust < SEGMENT_ALIGN and padded = len + SEGMENT_ALIGN,
        // so base..base+len stays within the allocation.
        let base = unsafe { raw.add(adjust) };
        Ok(Segment {
            backing: Backing::Heap { raw },
            span: Span { base, len },
        })
    }

    /// Maps a shared segment file of `len` bytes, visible to every OS
    /// process that maps the same path.
    ///
    /// With `create`, the file is created (truncated if present) and
    /// extended to `len` bytes with `set_len`, which leaves it sparse —
    /// like [`Segment::zeroed`], untouched capacity costs nothing, and
    /// the kernel zero-fills on first touch, preserving the "all-zero
    /// memory is a valid heap" bootstrap property. Without `create`, the
    /// file must already exist and be at least `len` bytes (a shorter
    /// file means the two sides disagree on the pod layout, which would
    /// turn every out-of-range access into `SIGBUS`).
    ///
    /// # Errors
    ///
    /// Returns [`PodError::InvalidConfig`] for a zero-length segment and
    /// [`PodError::SharedSegment`] for any file or mapping failure.
    #[cfg(unix)]
    pub fn map_shared(path: &std::path::Path, len: u64, create: bool) -> Result<Self, PodError> {
        use std::os::unix::io::AsRawFd;

        if len == 0 {
            return Err(PodError::InvalidConfig {
                reason: "segment length must be nonzero".into(),
            });
        }
        let shared_err = |what: &str, e: std::io::Error| PodError::SharedSegment {
            reason: format!("{what} {}: {e}", path.display()),
        };
        let file = if create {
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)
                .map_err(|e| shared_err("create", e))?;
            f.set_len(len).map_err(|e| shared_err("extend", e))?;
            f
        } else {
            let f = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(path)
                .map_err(|e| shared_err("open", e))?;
            let actual = f.metadata().map_err(|e| shared_err("stat", e))?.len();
            if actual < len {
                return Err(PodError::SharedSegment {
                    reason: format!(
                        "segment file {} is {actual} bytes, need {len} — \
                         pod configs disagree?",
                        path.display()
                    ),
                });
            }
            f
        };
        // SAFETY: fd is valid for the duration of the call; the mapping
        // outlives the file handle by design (POSIX keeps MAP_SHARED
        // mappings alive after close).
        let addr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len as usize,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if addr == sys::MAP_FAILED {
            return Err(PodError::SharedSegment {
                reason: format!(
                    "mmap of {len} bytes from {} failed: {}",
                    path.display(),
                    std::io::Error::last_os_error()
                ),
            });
        }
        Ok(Segment {
            backing: Backing::SharedFile,
            span: Span {
                base: addr as *mut u8,
                len,
            },
        })
    }

    /// Segment length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.span.len
    }

    /// Whether the segment is empty (never true for a constructed
    /// segment, provided for API completeness).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.span.len == 0
    }

    /// The segment's base and length, for a holder that keeps it alive.
    #[inline]
    pub(crate) fn span(&self) -> Span {
        self.span
    }

    /// Returns the `AtomicU64` cell at `offset`.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is not 8-byte aligned or out of bounds.
    #[inline]
    pub fn atomic_u64(&self, offset: u64) -> &AtomicU64 {
        self.span.atomic_u64(offset)
    }

    /// Relaxed-load convenience used by diagnostics.
    #[inline]
    pub fn peek_u64(&self, offset: u64) -> u64 {
        self.atomic_u64(offset).load(Ordering::Relaxed)
    }

    /// Raw pointer to `offset`, for application data access.
    ///
    /// # Panics
    ///
    /// Panics if the `len`-byte range starting at `offset` is out of
    /// bounds.
    ///
    /// The returned pointer is valid for `len` bytes for the lifetime of
    /// the segment. Synchronization of accesses through it is the
    /// caller's responsibility (as with real shared memory).
    #[inline]
    pub fn data_ptr(&self, offset: u64, len: u64) -> *mut u8 {
        self.span.check(offset, len);
        // SAFETY: in-bounds per check above.
        unsafe { self.span.base.add(offset as usize) }
    }

    /// Copies bytes out of the segment.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn read_bytes(&self, offset: u64, out: &mut [u8]) {
        let ptr = self.data_ptr(offset, out.len() as u64);
        // SAFETY: source range checked in-bounds; destination is a
        // distinct Rust slice.
        unsafe { std::ptr::copy_nonoverlapping(ptr, out.as_mut_ptr(), out.len()) }
    }

    /// Copies bytes into the segment.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds access.
    pub fn write_bytes(&self, offset: u64, data: &[u8]) {
        let ptr = self.data_ptr(offset, data.len() as u64);
        // SAFETY: destination range checked in-bounds.
        unsafe { std::ptr::copy_nonoverlapping(data.as_ptr(), ptr, data.len()) }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        match self.backing {
            Backing::Heap { raw } => {
                let layout = AllocLayout::from_size_align(self.span.len as usize + SEGMENT_ALIGN, 8)
                    .expect("layout validated at construction");
                // SAFETY: `raw` was allocated with the identical layout
                // in `zeroed`.
                unsafe { dealloc(raw, layout) }
            }
            #[cfg(unix)]
            Backing::SharedFile => {
                // SAFETY: `base`/`len` are exactly the mmap arguments.
                unsafe { sys::munmap(self.span.base as *mut std::ffi::c_void, self.span.len as usize) };
            }
        }
    }
}

/// Minimal libc surface for the shared-file mapping — declared here
/// rather than pulled in as a crate dependency.
#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl std::fmt::Debug for Segment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Segment").field("len", &self.span.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_on_creation() {
        let seg = Segment::zeroed(4096).unwrap();
        for off in (0..4096).step_by(8) {
            assert_eq!(seg.peek_u64(off), 0);
        }
    }

    #[test]
    fn atomic_cells_are_shared() {
        let seg = Segment::zeroed(4096).unwrap();
        seg.atomic_u64(64).store(7, Ordering::SeqCst);
        assert_eq!(seg.atomic_u64(64).load(Ordering::SeqCst), 7);
        assert_eq!(seg.peek_u64(64), 7);
        // Neighbouring cells untouched.
        assert_eq!(seg.peek_u64(56), 0);
        assert_eq!(seg.peek_u64(72), 0);
    }

    #[test]
    fn byte_copies_roundtrip() {
        let seg = Segment::zeroed(4096).unwrap();
        seg.write_bytes(100, b"hello pod");
        let mut buf = [0u8; 9];
        seg.read_bytes(100, &mut buf);
        assert_eq!(&buf, b"hello pod");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let seg = Segment::zeroed(64).unwrap();
        seg.atomic_u64(64);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_panics() {
        let seg = Segment::zeroed(64).unwrap();
        seg.atomic_u64(4);
    }

    #[test]
    fn zero_length_rejected() {
        assert!(Segment::zeroed(0).is_err());
    }

    #[cfg(unix)]
    #[test]
    fn shared_file_mappings_alias() {
        // Two mappings of the same file are one byte range — the
        // in-process stand-in for two OS processes sharing the pod.
        let path = std::env::temp_dir().join(format!("cxl-seg-alias-{}", std::process::id()));
        let a = Segment::map_shared(&path, 8192, true).unwrap();
        let b = Segment::map_shared(&path, 8192, false).unwrap();
        assert_eq!(b.peek_u64(128), 0);
        a.atomic_u64(128).store(0xBEEF, Ordering::SeqCst);
        assert_eq!(b.atomic_u64(128).load(Ordering::SeqCst), 0xBEEF);
        b.write_bytes(4096, b"pod");
        let mut buf = [0u8; 3];
        a.read_bytes(4096, &mut buf);
        assert_eq!(&buf, b"pod");
        drop(a);
        drop(b);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn shared_file_size_mismatch_rejected() {
        let path = std::env::temp_dir().join(format!("cxl-seg-short-{}", std::process::id()));
        let _small = Segment::map_shared(&path, 4096, true).unwrap();
        let err = Segment::map_shared(&path, 8192, false).unwrap_err();
        assert!(matches!(err, PodError::SharedSegment { .. }), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn shared_file_missing_rejected() {
        let path = std::env::temp_dir().join(format!("cxl-seg-missing-{}", std::process::id()));
        let err = Segment::map_shared(&path, 4096, false).unwrap_err();
        assert!(matches!(err, PodError::SharedSegment { .. }), "{err}");
    }

    #[test]
    fn concurrent_atomics() {
        use std::sync::Arc;
        let seg = Arc::new(Segment::zeroed(4096).unwrap());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let seg = seg.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    seg.atomic_u64(128).fetch_add(1, Ordering::Relaxed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(seg.peek_u64(128), 80_000);
    }
}
