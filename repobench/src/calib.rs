//! Timing at a reference speed.
//!
//! On a shared host the same code runs up to about 1.6× slower for
//! seconds to minutes at a time, and a run's wall-clock figures follow
//! the host rather than the program. So every timed operation is
//! bracketed by passes of a fixed reference workload, and its time is
//! scaled by how much slower than [`REFERENCE_PASS_S`] those passes ran.
//! The reference workload uses only the standard library (formatting,
//! parsing, hashing, ordered maps, sorting, allocation), never the
//! repository's crates, so no change to the program moves it.

use crate::metrics::median;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write;
use std::hint::black_box;
use std::time::Instant;

/// Keys one reference pass formats, hashes, orders and parses.
const KEYS: u64 = 10_000;

/// Seconds one reference pass takes on a quiet 2-vCPU x86-64 VM (the
/// machine the recorded numbers in README.md come from). Scaled times
/// are seconds at that speed.
pub const REFERENCE_PASS_S: f64 = 0.004;

/// One pass of the reference workload; returns a checksum.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x243F_6A88_85A3_08D3;
    let mut text = String::new();
    let mut hashed: HashMap<String, usize> = HashMap::new();
    let mut ordered: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    for i in 0..KEYS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        text.clear();
        write!(text, "{x:x}-{i}").expect("writing to a String");
        let bytes: Vec<u8> = text.bytes().rev().collect();
        hashed.insert(text.clone(), bytes.len());
        ordered.insert(x % 1024, bytes);
    }
    let mut keys: Vec<&String> = hashed.keys().collect();
    keys.sort_unstable();
    let mut sum = 0u64;
    for k in keys {
        let (hex, i) = k.split_once('-').expect("formatted above");
        sum = sum
            .wrapping_add(u64::from_str_radix(hex, 16).expect("hex"))
            .wrapping_add(i.parse::<u64>().expect("decimal"));
    }
    for v in ordered.values() {
        sum = sum.wrapping_add(v.iter().map(|&b| u64::from(b)).sum::<u64>());
    }
    sum
}

/// Seconds one reference pass takes now.
fn pass() -> f64 {
    let t = Instant::now();
    black_box(kernel());
    t.elapsed().as_secs_f64()
}

/// Times operations and scales each to the reference speed.
#[derive(Debug)]
pub struct Gauge {
    /// The pass that ended the previous operation, which also begins the
    /// next one.
    last: f64,
    /// Mean of the two passes around each operation.
    passes: Vec<f64>,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge {
            last: pass(),
            passes: Vec::new(),
        }
    }

    /// Run `f`; its output and its wall seconds times
    /// [`REFERENCE_PASS_S`] over the mean of the passes just before and
    /// just after it.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let t = Instant::now();
        let out = f();
        let secs = t.elapsed().as_secs_f64();
        let after = pass();
        let around = (self.last + after) / 2.0;
        self.last = after;
        self.passes.push(around);
        (out, scale(secs, around))
    }

    /// One line on how fast the host ran: the median reference pass.
    pub fn summary(&self) -> String {
        format!(
            "reference pass: median {:.6} s around {} timed sections ({REFERENCE_PASS_S} s at the reference speed)",
            median(&self.passes),
            self.passes.len()
        )
    }
}

/// `secs` measured while a reference pass took `pass` seconds, in
/// seconds at the reference speed.
fn scale(secs: f64, pass: f64) -> f64 {
    secs * REFERENCE_PASS_S / pass
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_slower_host_scales_down() {
        assert_eq!(scale(0.2, REFERENCE_PASS_S), 0.2);
        // Passes twice as slow: the operation counts half its time.
        assert!((scale(0.2, 2.0 * REFERENCE_PASS_S) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn the_gauge_records_each_operation() {
        let mut g = Gauge::new();
        let (v, secs) = g.time(|| 7);
        assert_eq!(v, 7);
        assert!(secs >= 0.0 && secs.is_finite());
        assert_eq!(g.passes.len(), 1);
        assert!(g.passes[0] > 0.0);
    }
}
