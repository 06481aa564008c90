//! On-disk integrity primitives under the [`crate::amdl`] container.
//!
//! - [`crc32`] — a hand-rolled CRC-32 (IEEE 802.3, reflected) over a
//!   compile-time table, so a bit flip anywhere in a file is detected;
//! - [`write_atomic`] — tmp-file-plus-rename writes, so a crash mid-save
//!   never leaves a half-written file under the final name.

use std::fs;
use std::io;
use std::path::Path;

/// The CRC-32 lookup table (IEEE 802.3 reflected polynomial 0xEDB88320),
/// generated at compile time — no runtime init, no network, no deps.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 == 1 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of a byte slice.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Writes `bytes` to `path` crash-safely: the data lands in a sibling
/// `.tmp` file first and is renamed over the final name only once fully
/// written, so readers never observe a truncated file.
///
/// # Errors
///
/// Propagates I/O failures from the write or the rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_standard_check_vector() {
        // The canonical IEEE CRC-32 test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc32_detects_a_single_bit_flip() {
        let mut data = b"the quick brown fox jumps over the lazy dog".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x01;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn write_atomic_leaves_no_tmp_file() {
        let dir = std::env::temp_dir().join("aero_nn_integrity_atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blob.bin");
        write_atomic(&path, b"payload").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"payload");
        assert!(!dir.join("blob.bin.tmp").exists(), "tmp file must be renamed away");
    }
}
