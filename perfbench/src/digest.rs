//! Output digests, and the digests recorded per workload and seed.

use std::io;
use std::path::Path;

/// Digests recorded for fixed seeds, one `<workload> <seed> <digest>`
/// line each. A host-speed change must leave every simulated statistic
/// identical, so it must leave these digests unchanged.
const RECORDED: &str = include_str!("../digests.txt");

/// 64-bit FNV-1a, stable across platforms and releases.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, value: u64) -> &mut Self {
        self.bytes(&value.to_le_bytes())
    }

    /// Folds a float in, bit for bit.
    pub fn f64(&mut self, value: f64) -> &mut Self {
        self.u64(value.to_bits())
    }

    /// Folds in the contents of `path`.
    ///
    /// # Errors
    ///
    /// Returns the read error.
    pub fn file(&mut self, path: &Path) -> io::Result<&mut Self> {
        Ok(self.bytes(&std::fs::read(path)?))
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Folds the sealed record files of a record directory into `digest`.
///
/// # Errors
///
/// Returns the read error of a missing or unreadable record file.
pub fn records(digest: &mut Digest, records_dir: &Path) -> io::Result<()> {
    for file in ["steps.jsonl", "windows.jsonl"] {
        digest.file(&records_dir.join(file))?;
    }
    Ok(())
}

/// The digest recorded for `workload` at `seed`, if one was.
pub fn recorded(workload: &str, seed: u64) -> Option<&'static str> {
    RECORDED.lines().find_map(|line| {
        let mut fields = line.split_whitespace();
        let matches = fields.next() == Some(workload)
            && fields.next().and_then(|s| s.parse::<u64>().ok()) == Some(seed);
        if matches {
            fields.next()
        } else {
            None
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(Digest::default().hex(), "cbf29ce484222325");
        assert_eq!(Digest::default().bytes(b"a").hex(), "af63dc4c8601ec8c");
        assert_eq!(Digest::default().bytes(b"foobar").hex(), "85944171f73967e8");
    }

    #[test]
    fn recorded_digests_parse() {
        for line in RECORDED.lines() {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(fields.len(), 3, "{line}");
            let seed: u64 = fields[1].parse().expect("seed");
            assert_eq!(recorded(fields[0], seed), Some(fields[2]));
            assert_eq!(fields[2].len(), 16);
        }
        assert_eq!(recorded("no-such-workload", 0), None);
    }
}
