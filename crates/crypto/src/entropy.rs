//! Byte-distribution statistics for content inspection.
//!
//! The ransomware detector (monitor + audit crates) needs to distinguish
//! "scientist wrote a CSV" from "malware wrote ciphertext": encrypted
//! content is near 8 bits/byte Shannon entropy, fails chi-squared
//! uniformity *less* than structured text does, and has a low printable
//! ratio. [`ByteStats`] computes all three in one pass and supports
//! incremental updates so detectors can track per-file or per-flow
//! distributions as data streams through.

/// One-pass byte histogram with derived statistics.
#[derive(Clone, Debug)]
pub struct ByteStats {
    counts: [u64; 256],
    total: u64,
}

impl Default for ByteStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ByteStats {
    /// Empty statistics.
    pub fn new() -> Self {
        ByteStats {
            counts: [0; 256],
            total: 0,
        }
    }

    /// Statistics of a byte slice.
    pub fn from_bytes(data: &[u8]) -> Self {
        let mut s = Self::new();
        s.update(data);
        s
    }

    /// Absorb more bytes.
    pub fn update(&mut self, data: &[u8]) {
        for &b in data {
            self.counts[b as usize] += 1;
        }
        self.total += data.len() as u64;
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &ByteStats) {
        for i in 0..256 {
            self.counts[i] += other.counts[i];
        }
        self.total += other.total;
    }

    /// Total bytes observed.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Shannon entropy in bits per byte (0.0 for empty input).
    pub fn shannon_bits(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.total as f64;
        let mut h = 0.0;
        for &c in &self.counts {
            if c > 0 {
                let p = c as f64 / n;
                h -= p * p.log2();
            }
        }
        h
    }

    /// Chi-squared statistic against the uniform distribution over 256
    /// symbols. Uniform (random/encrypted) data gives values near 255
    /// (the degrees of freedom); text gives values orders of magnitude
    /// larger.
    pub fn chi_squared(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let expected = self.total as f64 / 256.0;
        self.counts
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum()
    }

    /// Fraction of bytes that are printable ASCII (0x20..=0x7e, plus tab,
    /// LF, CR). Scientific text/CSV/JSON is close to 1.0; ciphertext is
    /// close to 98/256 ≈ 0.38.
    pub fn printable_ratio(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let mut printable = 0u64;
        for b in 0x20..=0x7eusize {
            printable += self.counts[b];
        }
        printable += self.counts[b'\t' as usize];
        printable += self.counts[b'\n' as usize];
        printable += self.counts[b'\r' as usize];
        printable as f64 / self.total as f64
    }

    /// Heuristic: does this distribution look like ciphertext/compressed
    /// data? High entropy and low printable ratio together.
    pub fn looks_encrypted(&self) -> bool {
        self.total >= 64 && self.shannon_bits() > 7.2 && self.printable_ratio() < 0.6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_is_zero() {
        let s = ByteStats::new();
        assert_eq!(s.shannon_bits(), 0.0);
        assert_eq!(s.chi_squared(), 0.0);
        assert_eq!(s.printable_ratio(), 0.0);
        assert!(!s.looks_encrypted());
    }

    #[test]
    fn constant_data_zero_entropy() {
        let s = ByteStats::from_bytes(&[0x41; 1000]);
        assert_eq!(s.shannon_bits(), 0.0);
        assert!(s.printable_ratio() > 0.99);
    }

    #[test]
    fn uniform_data_max_entropy() {
        let data: Vec<u8> = (0u8..=255).cycle().take(256 * 64).collect();
        let s = ByteStats::from_bytes(&data);
        assert!((s.shannon_bits() - 8.0).abs() < 1e-9);
        assert!(s.chi_squared() < 1e-9);
    }

    #[test]
    fn two_symbol_entropy_is_one_bit() {
        let data: Vec<u8> = [0u8, 255u8].iter().cycle().take(2000).copied().collect();
        let s = ByteStats::from_bytes(&data);
        assert!((s.shannon_bits() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn text_vs_ciphertext_separation() {
        let text =
            b"import numpy as np\nfor i in range(100):\n    print(i, np.sin(i))\n".repeat(50);
        let mut cipher = crate::chacha::ChaCha20::from_seed(b"sep");
        let ct = cipher.encrypt(&text);
        let st = ByteStats::from_bytes(&text);
        let sc = ByteStats::from_bytes(&ct);
        assert!(st.shannon_bits() < 6.0);
        assert!(sc.shannon_bits() > 7.5);
        assert!(!st.looks_encrypted());
        assert!(sc.looks_encrypted());
        assert!(st.printable_ratio() > 0.95);
        assert!(sc.printable_ratio() < 0.6);
        assert!(st.chi_squared() > sc.chi_squared());
    }

    #[test]
    fn merge_equals_concatenation() {
        let a = b"hello world".repeat(10);
        let b = vec![0xffu8; 100];
        let mut merged = ByteStats::from_bytes(&a);
        merged.merge(&ByteStats::from_bytes(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let direct = ByteStats::from_bytes(&concat);
        assert_eq!(merged.total(), direct.total());
        assert!((merged.shannon_bits() - direct.shannon_bits()).abs() < 1e-12);
        assert!((merged.chi_squared() - direct.chi_squared()).abs() < 1e-9);
    }

    #[test]
    fn small_samples_not_flagged() {
        // looks_encrypted must not fire on tiny samples even if uniform.
        let data: Vec<u8> = (0u8..32).collect();
        assert!(!ByteStats::from_bytes(&data).looks_encrypted());
    }
}
