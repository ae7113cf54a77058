//! RFC 2104 / FIPS 198-1 HMAC-SHA256.
//!
//! This is the signature scheme Jupyter uses on every kernel-protocol
//! message: the connection file carries a per-session `key`, and each wire
//! message is signed over `header || parent_header || metadata || content`.
//! See `ja-jupyter-proto::wire` for that framing; this module provides the
//! MAC itself plus constant-time verification.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// Streaming HMAC-SHA256.
///
/// Both pads are absorbed at construction, so a keyed instance holds two
/// hash states and no key block. Cloning one and feeding each message to
/// the clone signs a stream of messages under one key schedule — what
/// jupyter_client's `Session.auth.copy()` does per message.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    /// Hash state after the outer-pad key block, resumed at finalize.
    outer: Sha256,
}

impl std::fmt::Debug for HmacSha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print key material.
        f.debug_struct("HmacSha256").finish_non_exhaustive()
    }
}

impl HmacSha256 {
    /// Create an HMAC instance keyed with `key` (any length; keys longer
    /// than the block size are hashed first, per the RFC).
    pub fn new(key: &[u8]) -> Self {
        let mut k = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            let d = crate::sha256::sha256(key);
            k[..DIGEST_LEN].copy_from_slice(&d);
        } else {
            k[..key.len()].copy_from_slice(key);
        }
        let mut ipad = [0u8; BLOCK_LEN];
        let mut opad = [0u8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] = k[i] ^ 0x36;
            opad[i] = k[i] ^ 0x5c;
        }
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacSha256 { inner, outer }
    }

    /// Absorb message bytes.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.inner.update(data);
        self
    }

    /// Finish and return the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let inner_digest = self.inner.finalize();
        let mut outer = self.outer;
        outer.update(&inner_digest);
        outer.finalize()
    }
}

/// One-shot HMAC-SHA256 over a set of message parts (signed in order).
pub fn hmac_sha256_parts(key: &[u8], parts: &[&[u8]]) -> [u8; DIGEST_LEN] {
    let mut mac = HmacSha256::new(key);
    for p in parts {
        mac.update(p);
    }
    mac.finalize()
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], msg: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256_parts(key, &[msg])
}

/// Constant-time equality of two byte strings.
///
/// Detection-evasion note (paper §IV): timing side channels on signature
/// verification are one of the rule-inference vectors the paper worries
/// about, so verification must not short-circuit.
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

/// Verify a tag in constant time.
pub fn verify(key: &[u8], msg: &[u8], tag: &[u8]) -> bool {
    ct_eq(&hmac_sha256(key, msg), tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn check(key: &[u8], data: &[u8], want_hex: &str) {
        assert_eq!(hex::encode(&hmac_sha256(key, data)), want_hex);
    }

    // RFC 4231 test vectors (SHA-256 column).
    #[test]
    fn rfc4231_case_1() {
        check(
            &[0x0b; 20],
            b"Hi There",
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
        );
    }

    #[test]
    fn rfc4231_case_2() {
        check(
            b"Jefe",
            b"what do ya want for nothing?",
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
        );
    }

    #[test]
    fn rfc4231_case_3() {
        check(
            &[0xaa; 20],
            &[0xdd; 50],
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
        );
    }

    #[test]
    fn rfc4231_case_4() {
        let key: Vec<u8> = (1u8..=25).collect();
        check(
            &key,
            &[0xcd; 50],
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
        );
    }

    #[test]
    fn rfc4231_case_6_long_key() {
        check(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
        );
    }

    #[test]
    fn rfc4231_case_7_long_key_long_data() {
        check(
            &[0xaa; 131],
            b"This is a test using a larger than block-size key and a larger than block-size data. The key needs to be hashed before being used by the HMAC algorithm.",
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
        );
    }

    #[test]
    fn parts_equal_concatenation() {
        let key = b"session-key";
        let whole = hmac_sha256(key, b"headerparentmetadatacontent");
        let parts = hmac_sha256_parts(key, &[b"header", b"parent", b"metadata", b"content"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn verify_accepts_and_rejects() {
        let key = b"k";
        let tag = hmac_sha256(key, b"msg");
        assert!(verify(key, b"msg", &tag));
        assert!(!verify(key, b"msg2", &tag));
        assert!(!verify(b"other", b"msg", &tag));
        let mut bad = tag;
        bad[0] ^= 1;
        assert!(!verify(key, b"msg", &bad));
    }

    #[test]
    fn ct_eq_length_mismatch() {
        assert!(!ct_eq(b"abc", b"ab"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn streaming_matches_oneshot() {
        let key = b"stream-key";
        let data: Vec<u8> = (0u8..=200).collect();
        let want = hmac_sha256(key, &data);
        let mut mac = HmacSha256::new(key);
        for chunk in data.chunks(7) {
            mac.update(chunk);
        }
        assert_eq!(mac.finalize(), want);
    }

    #[test]
    fn debug_does_not_leak_key() {
        let mac = HmacSha256::new(b"super-secret");
        let dbg = format!("{mac:?}");
        assert!(!dbg.contains("super-secret"));
    }
}
