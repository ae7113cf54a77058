//! # ja-crypto — cryptographic substrate for `jupyter-audit`
//!
//! The Jupyter kernel wire protocol signs every message with HMAC-SHA256,
//! so a faithful protocol implementation needs a hash and a MAC. Rather
//! than pulling in external crypto crates, this crate implements the
//! primitives from scratch (they are small, well-specified, and fully
//! covered by published test vectors):
//!
//! - [`sha256`] — FIPS 180-4 SHA-256 (tested against NIST vectors).
//! - [`hmac`] — RFC 2104 / FIPS 198-1 HMAC-SHA256 (tested against
//!   RFC 4231 vectors), plus constant-time tag comparison.
//! - [`chacha`] — an RFC 8439 ChaCha20 block function and stream cipher,
//!   used to model opaque (encrypted) transports and ransomware payload
//!   encryption in the simulators.
//! - [`entropy`] — byte-distribution statistics (Shannon entropy,
//!   chi-squared uniformity, printable ratio) used by the ransomware and
//!   exfiltration detectors.
//! - [`keys`] — key material, cryptoperiod bookkeeping and key-rotation
//!   policies for the harvest-now-decrypt-later experiment (E9).
//! - [`pqc`] — an abstract quantum-adversary model: records ciphertext
//!   today, breaks classically-exchanged keys at a configurable future
//!   date; contrasts classical and post-quantum signatures for the
//!   signature-spoofing analysis.
//! - [`hex`] — small hex encode/decode helpers shared across the
//!   workspace (message ids, digests, signatures).
//!
//! Nothing in this crate is intended for production cryptographic use;
//! it exists so the simulated Jupyter stack has *real* message signing
//! and *measurable* encryption behaviour with zero external
//! dependencies.
//!
//! ## Backends
//!
//! SHA-256 and ChaCha20 run on every byte the simulator sends and the
//! monitor inspects, so each has a hardware kernel beside its scalar
//! code: SHA-NI compression over a run of whole blocks, and an AVX2
//! ChaCha20 block function that makes 8 blocks at once. The kernels live
//! in one private x86-64 module, are picked from the CPU on first use
//! (`is_x86_feature_detected!`, no option or feature flag), and give
//! bit-identical output; [`sha256::backend`] and [`chacha::backend`]
//! name the choice. The scalar code runs on other CPUs and
//! architectures and is the oracle the kernels are tested against.
//! `unsafe` is denied crate-wide and allowed only in that module: at a
//! kernel call right after its feature check, and at unaligned loads and
//! stores of fixed-size arrays, each with a `// SAFETY:` comment.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod chacha;
pub mod entropy;
pub mod hex;
pub mod hmac;
pub mod keys;
pub mod pqc;
pub mod sha1;
pub mod sha256;
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86;

pub use chacha::ChaCha20;
pub use entropy::ByteStats;
pub use hmac::HmacSha256;
pub use sha256::Sha256;
