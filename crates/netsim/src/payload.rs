//! Zero-copy payload buffers — the capture plane's unit of sharing.
//!
//! Before this module existed every [`crate::segment::SegmentRecord`]
//! owned a fresh `Vec<u8>`, so one captured byte was copied at emission,
//! again into the reassembler's contiguous buffer, and a third time when
//! it arrived out of order. [`PayloadBytes`] is an own-rolled equivalent
//! of `bytes::Bytes` (the workspace is offline/vendored, so no external
//! crates): a reference-counted `Arc<[u8]>` backing store plus an
//! `(offset, len)` window, so slicing is O(1) and cloning is a
//! refcount bump. A multi-MSS application write is materialized into
//! **one** allocation and every segment record, fan-out channel batch,
//! tracer tap and reassembly pending holds a view into it.
//!
//! # Aliasing rules
//!
//! The backing store is immutable for the lifetime of every view — the
//! type hands out `&[u8]` only, never `&mut [u8]`, so aliased views can
//! never observe a torn write and `PayloadBytes` is `Send + Sync` for
//! free. Code that needs to *transform* bytes (e.g. the monitor's
//! TLS-inspection decrypt) must copy out first (`to_vec`), which is
//! exactly the boundary where a copy is semantically required. Equality
//! and ordering compare **contents**, not backing identity: two views
//! of different allocations with the same bytes are equal.
//!
//! # Copy accounting
//!
//! The payload plane keeps process-wide [`copied_bytes`] /
//! [`captured_bytes`] counters (relaxed atomics — exact under any
//! interleaving, cheap on the hot path). Every materialization of bytes
//! into a new backing store counts as a copy; taps that record a view
//! count captured bytes. The `e12_hotpath` bench reads these to report
//! bytes-copied-per-byte-captured; reassembly and analyzer layers call
//! [`count_copied`] at their own unavoidable copy sites so the metric
//! spans the whole capture→scan path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

#[cfg(not(test))]
static COPIED_BYTES: AtomicU64 = AtomicU64::new(0);
#[cfg(not(test))]
static CAPTURED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Run `f` on the (copied, captured) counter pair.
#[cfg(not(test))]
fn counters<R>(f: impl FnOnce(&AtomicU64, &AtomicU64) -> R) -> R {
    f(&COPIED_BYTES, &CAPTURED_BYTES)
}

// This crate's unit tests run concurrently in one process, and most of
// them build payloads; each test thread keeps its own pair there so a
// test that checks exact counts sees only its own copies. Every other
// build, this crate's dependents' tests included, has one process-wide
// pair.
#[cfg(test)]
thread_local! {
    static COPIED_BYTES: AtomicU64 = const { AtomicU64::new(0) };
    static CAPTURED_BYTES: AtomicU64 = const { AtomicU64::new(0) };
}

#[cfg(test)]
fn counters<R>(f: impl FnOnce(&AtomicU64, &AtomicU64) -> R) -> R {
    COPIED_BYTES.with(|copied| CAPTURED_BYTES.with(|captured| f(copied, captured)))
}

/// Record `n` payload bytes copied into a fresh allocation somewhere in
/// the capture→reassembly→scan plane.
pub fn count_copied(n: u64) {
    counters(|copied, _| copied.fetch_add(n, Ordering::Relaxed));
}

/// Record `n` payload bytes captured at a tap.
pub fn count_captured(n: u64) {
    counters(|_, captured| captured.fetch_add(n, Ordering::Relaxed));
}

/// Total payload bytes copied since the last [`reset_copy_metrics`].
pub fn copied_bytes() -> u64 {
    counters(|copied, _| copied.load(Ordering::Relaxed))
}

/// Total payload bytes captured since the last [`reset_copy_metrics`].
pub fn captured_bytes() -> u64 {
    counters(|_, captured| captured.load(Ordering::Relaxed))
}

/// Zero both copy-plane counters (bench harnesses call this between
/// measured phases).
pub fn reset_copy_metrics() {
    counters(|copied, captured| {
        copied.store(0, Ordering::Relaxed);
        captured.store(0, Ordering::Relaxed);
    });
}

fn empty_backing() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// A cheaply cloneable, cheaply sliceable view into an immutable,
/// reference-counted byte buffer. See the module docs for aliasing
/// rules and copy accounting.
#[derive(Clone)]
pub struct PayloadBytes {
    data: Arc<[u8]>,
    off: usize,
    len: usize,
}

impl PayloadBytes {
    /// An empty view. Does not allocate (all empty views share one
    /// static backing store).
    pub fn new() -> Self {
        PayloadBytes {
            data: empty_backing(),
            off: 0,
            len: 0,
        }
    }

    /// Materialize `bytes` into a fresh backing store (one counted
    /// copy). This is the *only* place capture-plane bytes should enter
    /// a `PayloadBytes`; everything downstream shares the allocation.
    pub fn copy_from(bytes: &[u8]) -> Self {
        if bytes.is_empty() {
            return Self::new();
        }
        count_copied(bytes.len() as u64);
        PayloadBytes {
            data: Arc::from(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// The viewed bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data[self.off..self.off + self.len]
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the view empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A zero-copy sub-view of `self` (shares the backing store; a
    /// refcount bump, no allocation).
    ///
    /// # Panics
    /// Panics if `start > end` or `end > self.len()`, mirroring slice
    /// indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice {range:?} out of bounds of view of {}",
            self.len
        );
        if range.start == range.end {
            return Self::new();
        }
        PayloadBytes {
            data: self.data.clone(),
            off: self.off + range.start,
            len: range.end - range.start,
        }
    }

    /// A zero-copy suffix view starting at `start`.
    pub fn slice_from(&self, start: usize) -> Self {
        self.slice(start..self.len)
    }
}

impl Default for PayloadBytes {
    fn default() -> Self {
        Self::new()
    }
}

impl std::ops::Deref for PayloadBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PayloadBytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PayloadBytes {
    /// Materializes the vector into a shared backing store (counted as
    /// one copy — `Arc<[u8]>` re-allocates to prepend its refcount
    /// header).
    fn from(v: Vec<u8>) -> Self {
        Self::copy_from(&v)
    }
}

impl From<&[u8]> for PayloadBytes {
    fn from(b: &[u8]) -> Self {
        Self::copy_from(b)
    }
}

impl<const N: usize> From<&[u8; N]> for PayloadBytes {
    fn from(b: &[u8; N]) -> Self {
        Self::copy_from(b)
    }
}

impl std::fmt::Debug for PayloadBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.as_slice().fmt(f)
    }
}

impl PartialEq for PayloadBytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PayloadBytes {}

impl PartialEq<[u8]> for PayloadBytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<&[u8]> for PayloadBytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<Vec<u8>> for PayloadBytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for PayloadBytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for PayloadBytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl PartialEq<PayloadBytes> for Vec<u8> {
    fn eq(&self, other: &PayloadBytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for PayloadBytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slicing_is_zero_copy_and_content_equal() {
        let p = PayloadBytes::copy_from(b"hello world");
        let hello = p.slice(0..5);
        let world = p.slice(6..11);
        assert_eq!(hello, b"hello");
        assert_eq!(world.as_slice(), b"world");
        assert!(Arc::ptr_eq(&p.data, &world.data));
        let ell = hello.slice(1..4);
        assert_eq!(ell, b"ell");
        assert!(Arc::ptr_eq(&p.data, &ell.data));
    }

    #[test]
    fn empty_views_share_static_backing() {
        let a = PayloadBytes::new();
        let b = PayloadBytes::copy_from(b"");
        let c = PayloadBytes::copy_from(b"xy").slice(1..1);
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn equality_is_by_content_not_identity() {
        let a = PayloadBytes::copy_from(b"abc");
        let b = PayloadBytes::copy_from(b"xabcx").slice(1..4);
        assert_eq!(a, b);
        assert_ne!(a, PayloadBytes::copy_from(b"abd"));
        assert_eq!(a, b"abc".to_vec());
        assert_eq!(b"abc".to_vec(), a);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_slice_panics() {
        PayloadBytes::copy_from(b"abc").slice(1..5);
    }

    #[test]
    fn copy_metrics_count_materializations() {
        reset_copy_metrics();
        let p = PayloadBytes::copy_from(&[0u8; 100]);
        let _v = p.slice(10..90); // slicing is free
        let _c = p.clone(); // cloning is free
        assert_eq!(copied_bytes(), 100);
        count_captured(100);
        assert_eq!(captured_bytes(), 100);
        reset_copy_metrics();
        assert_eq!(copied_bytes(), 0);
    }
}
