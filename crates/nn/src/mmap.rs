//! Zero-copy artifact bytes for [`crate::amdl`]: a thin mmap wrapper
//! with a buffered-read fallback.
//!
//! Artifacts are read-heavy and can dominate a serving host's memory if
//! every worker holds its own copy, so the loader maps the file
//! read-only and private ([`ArtifactBytes::open`]) and decodes tensors
//! straight out of the mapping. Anything that prevents mapping — a
//! non-Linux platform, an empty file, a filesystem that refuses `mmap` —
//! degrades silently to one buffered read into an owned `Vec<u8>`; both
//! variants expose the identical `&[u8]` view, so the format layer never
//! knows the difference.

use std::fs;
use std::io;
use std::ops::Deref;
use std::path::Path;

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    // std already links libc on Linux; declaring the two symbols we need
    // avoids depending on the `libc` crate (the build is offline and
    // vendors no such shim).
    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
    }
}

/// A read-only, private, page-aligned mapping of an entire file.
#[cfg(target_os = "linux")]
#[derive(Debug)]
pub struct MmapFile {
    ptr: *const u8,
    len: usize,
}

// SAFETY: the mapping is PROT_READ + MAP_PRIVATE and never mutated or
// remapped after construction; sharing immutable bytes across threads
// is sound.
#[cfg(target_os = "linux")]
unsafe impl Send for MmapFile {}
#[cfg(target_os = "linux")]
unsafe impl Sync for MmapFile {}

#[cfg(target_os = "linux")]
impl MmapFile {
    /// Maps `path` read-only. Returns `Ok(None)` when the file cannot be
    /// mapped (empty file, or the kernel refuses) so the caller can fall
    /// back to a buffered read; only failures to *open* the file error.
    fn open(path: &Path) -> io::Result<Option<MmapFile>> {
        use std::os::unix::io::AsRawFd;
        let file = fs::File::open(path)?;
        let len = file.metadata()?.len();
        if len == 0 || usize::try_from(len).is_err() {
            return Ok(None);
        }
        let len = len as usize;
        // SAFETY: fd is a valid open file descriptor for the duration of
        // the call; length is nonzero; the returned mapping (when not
        // MAP_FAILED) stays valid until the munmap in Drop. The file
        // descriptor may close right after — the mapping persists.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as isize == -1 || ptr.is_null() {
            return Ok(None);
        }
        Ok(Some(MmapFile { ptr: ptr.cast_const().cast(), len }))
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: ptr/len describe a live PROT_READ mapping owned by
        // self; it is unmapped only in Drop, after which no &self can
        // exist.
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

#[cfg(target_os = "linux")]
impl Drop for MmapFile {
    fn drop(&mut self) {
        // SAFETY: ptr/len are exactly what mmap returned; double-unmap
        // is impossible because Drop runs once.
        unsafe {
            sys::munmap(self.ptr.cast_mut().cast(), self.len);
        }
    }
}

/// The raw bytes of an artifact: memory-mapped when possible, owned
/// otherwise. Dereferences to `&[u8]` either way.
#[derive(Debug)]
pub enum ArtifactBytes {
    /// A zero-copy read-only mapping of the file.
    #[cfg(target_os = "linux")]
    Mapped(MmapFile),
    /// The file's bytes read into memory (fallback, and the in-memory
    /// decode path).
    Owned(Vec<u8>),
}

impl ArtifactBytes {
    /// Opens `path`, preferring a zero-copy mapping and degrading to a
    /// buffered read.
    ///
    /// # Errors
    ///
    /// Propagates failures to open or read the file.
    pub fn open(path: &Path) -> io::Result<ArtifactBytes> {
        #[cfg(target_os = "linux")]
        if let Some(mapped) = MmapFile::open(path)? {
            return Ok(ArtifactBytes::Mapped(mapped));
        }
        Ok(ArtifactBytes::Owned(fs::read(path)?))
    }

    /// Wraps bytes already in memory.
    #[must_use]
    pub fn from_vec(bytes: Vec<u8>) -> ArtifactBytes {
        ArtifactBytes::Owned(bytes)
    }

    /// Whether this is a zero-copy mapping (`false` means the buffered
    /// fallback or an in-memory buffer).
    #[must_use]
    pub fn is_mapped(&self) -> bool {
        match self {
            #[cfg(target_os = "linux")]
            ArtifactBytes::Mapped(_) => true,
            ArtifactBytes::Owned(_) => false,
        }
    }
}

impl Deref for ArtifactBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match self {
            #[cfg(target_os = "linux")]
            ArtifactBytes::Mapped(m) => m.as_slice(),
            ArtifactBytes::Owned(v) => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_maps_and_matches_file_contents() {
        let dir = std::env::temp_dir().join("aero_nn_mmap");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        let payload: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        fs::write(&path, &payload).unwrap();
        let bytes = ArtifactBytes::open(&path).unwrap();
        assert_eq!(&*bytes, payload.as_slice());
        #[cfg(target_os = "linux")]
        assert!(bytes.is_mapped(), "a regular nonempty file should map");
    }

    #[test]
    fn empty_file_falls_back_to_owned() {
        let dir = std::env::temp_dir().join("aero_nn_mmap_empty");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        fs::write(&path, b"").unwrap();
        let bytes = ArtifactBytes::open(&path).unwrap();
        assert!(!bytes.is_mapped());
        assert!(bytes.is_empty());
    }

    #[test]
    fn owned_bytes_round_trip() {
        let v = vec![1u8, 2, 3];
        let bytes = ArtifactBytes::from_vec(v.clone());
        assert_eq!(&*bytes, v.as_slice());
        assert!(!bytes.is_mapped());
    }

    #[test]
    fn mapped_bytes_survive_a_thread_hop() {
        let dir = std::env::temp_dir().join("aero_nn_mmap_send");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        fs::write(&path, vec![7u8; 4096]).unwrap();
        let bytes = ArtifactBytes::open(&path).unwrap();
        let sum: u64 =
            std::thread::spawn(move || bytes.iter().map(|&b| u64::from(b)).sum()).join().unwrap();
        assert_eq!(sum, 7 * 4096);
    }
}
