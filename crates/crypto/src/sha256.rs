//! FIPS 180-4 SHA-256.
//!
//! A streaming implementation: feed bytes with [`Sha256::update`], read the
//! digest with [`Sha256::finalize`]. The one-shot [`sha256`] helper covers
//! the common case.
//!
//! Two compression backends give bit-identical digests: on x86-64 CPUs
//! with the SHA extensions, a SHA-NI kernel (the crate's `x86` module,
//! the only place `unsafe` is allowed); everywhere else, the scalar code
//! here, which is also the oracle the kernel is tested against. The
//! backend is picked from the CPU on first use; [`backend`] names it.
//! `update` and `finalize` hand every whole block of one call to one
//! backend call, so the kernel loads and stores the state once per run
//! of blocks.

/// Size of a SHA-256 digest in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

/// SHA-256 round constants (first 32 bits of the fractional parts of the
/// cube roots of the first 64 primes).
pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state (first 32 bits of the fractional parts of the square
/// roots of the first 8 primes).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 hasher.
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("total_len", &self.total_len)
            .field("buf_len", &self.buf_len)
            .finish()
    }
}

impl Sha256 {
    /// Create a fresh hasher.
    pub fn new() -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorb `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) -> &mut Self {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let take = (BLOCK_LEN - self.buf_len).min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len < BLOCK_LEN {
                // Input exhausted without completing a block.
                return self;
            }
            compress_blocks(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % BLOCK_LEN);
        compress_blocks(&mut self.state, blocks);
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
        self
    }

    /// Finish the hash and return the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        // The buffered tail, 0x80, zeros, then the 64-bit big-endian bit
        // length: one block, or two when the tail leaves no room for the
        // length.
        let tail = self.buf_len;
        let end = if tail < 56 { BLOCK_LEN } else { 2 * BLOCK_LEN };
        let mut last = [0u8; 2 * BLOCK_LEN];
        last[..tail].copy_from_slice(&self.buf[..tail]);
        last[tail] = 0x80;
        last[end - 8..end].copy_from_slice(&self.total_len.wrapping_mul(8).to_be_bytes());
        compress_blocks(&mut self.state, &last[..end]);
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The compression backend this CPU runs: `"sha-ni"` or `"scalar"`.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if crate::x86::has_sha_ni() {
        return "sha-ni";
    }
    "scalar"
}

/// Compress every block of `blocks` (a whole number of them) into
/// `state`, with SHA-NI when the CPU has it.
fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % BLOCK_LEN, 0);
    if blocks.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if crate::x86::sha256_blocks(state, blocks) {
        return;
    }
    for block in blocks.chunks_exact(BLOCK_LEN) {
        compress(
            state,
            block.try_into().expect("chunks_exact yields whole blocks"),
        );
    }
}

/// The scalar compression of one 64-byte block.
fn compress(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let t1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// One-shot SHA-256 returning a lowercase hex string.
pub fn sha256_hex(data: &[u8]) -> String {
    crate::hex::encode(&sha256(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    fn hash_hex(data: &[u8]) -> String {
        hex::encode(&sha256(data))
    }

    #[test]
    fn nist_empty() {
        assert_eq!(
            hash_hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hash_hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_block() {
        assert_eq!(
            hash_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_four_block() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            hash_hex(msg),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            hash_hex(&msg),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u32..300).map(|i| (i * 7 + 3) as u8).collect();
        let want = sha256(&data);
        for split in 0..data.len() {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), want, "split {split}");
        }
    }

    #[test]
    fn streaming_many_small_updates() {
        let data: Vec<u8> = (0u8..=255).cycle().take(10_000).collect();
        let want = sha256(&data);
        let mut h = Sha256::new();
        for chunk in data.chunks(17) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), want);
    }

    #[test]
    fn exact_block_boundary_padding() {
        // 55, 56, 63, 64, 65-byte messages exercise all padding branches.
        for len in [55usize, 56, 63, 64, 65, 119, 120, 128] {
            let data = vec![0xabu8; len];
            let oneshot = sha256(&data);
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), oneshot, "len {len}");
        }
    }

    #[test]
    fn distinct_inputs_distinct_digests() {
        assert_ne!(sha256(b"message a"), sha256(b"message b"));
        assert_ne!(sha256(b"\x00"), sha256(b""));
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        /// The SHA-NI kernel equals the scalar compression over arbitrary
        /// states and runs of 1 to 8 blocks.
        #[test]
        fn sha_ni_equals_scalar(state in proptest::prelude::any::<[u32; 8]>(),
                                data in proptest::prelude::any::<[u8; 8 * BLOCK_LEN]>(),
                                blocks in 1usize..9) {
            if !crate::x86::has_sha_ni() {
                println!("sha_ni_equals_scalar skipped: this CPU lacks SHA-NI");
                return;
            }
            let data = &data[..blocks * BLOCK_LEN];
            let mut want = state;
            for block in data.chunks_exact(BLOCK_LEN) {
                compress(&mut want, block.try_into().unwrap());
            }
            let mut got = state;
            assert!(crate::x86::sha256_blocks(&mut got, data));
            proptest::prop_assert_eq!(got, want);
        }
    }
}
