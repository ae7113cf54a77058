//! RFC 8439 ChaCha20 stream cipher.
//!
//! Used by the simulators in two roles the paper cares about:
//!
//! 1. **Opaque transports** — when a simulated Jupyter deployment enables
//!    TLS, payload bytes handed to the network are ChaCha20-encrypted so
//!    the Zeek-style monitor genuinely cannot parse them (experiment E7).
//! 2. **Ransomware payloads** — the ransomware campaign encrypts victim
//!    files through this cipher, so file contents really do jump to
//!    ~8 bits/byte entropy, which is what the ransomware detector keys on.
//!
//! It is not the simulators' random-byte source: bytes that only need to
//! look random (high-entropy payloads, archive and ciphertext file
//! samples) come from `SimRng`, which costs a fraction of a keystream.
//!
//! Two block-function backends give bit-identical keystreams: on x86-64
//! CPUs with AVX2, a kernel that makes 8 consecutive blocks at once (the
//! crate's `x86` module, the only place `unsafe` is allowed); everywhere
//! else, the scalar block function here, which is also the oracle the
//! kernel is tested against. [`ChaCha20::new`] picks the backend from the
//! CPU; [`backend`] names it. Each cipher keeps a 512-byte keystream
//! buffer that the AVX2 backend refills 8 blocks at a time and the scalar
//! backend one block at a time, so `apply` gives the same bytes for any
//! split of its input on either.

/// Bytes of keystream the AVX2 backend makes per refill: 8 blocks.
const WIDE: usize = 8 * 64;

/// ChaCha20 stream cipher instance (keyed, nonce'd, seekable by block).
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    /// Counter of the first block not yet in `buf`.
    counter: u32,
    /// Whether refills use the 8-block kernel.
    wide: bool,
    /// Keystream; `buf[pos..end]` is unused, and `end` is 0 (before the
    /// first refill), 64 or [`WIDE`].
    buf: [u8; WIDE],
    pos: usize,
    end: usize,
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The stream position: the block the next keystream byte comes
        // from, and that byte's offset in it. Never print key material.
        let buffered_blocks = (self.end - self.pos).div_ceil(64) as u32;
        f.debug_struct("ChaCha20")
            .field("block", &self.counter.wrapping_sub(buffered_blocks))
            .field("offset", &(self.pos % 64))
            .field("backend", &backend_name(self.wide))
            .finish_non_exhaustive()
    }
}

pub(crate) const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// Whether this CPU has the 8-block kernel.
fn wide_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    let wide = crate::x86::has_avx2();
    #[cfg(not(target_arch = "x86_64"))]
    let wide = false;
    wide
}

fn backend_name(wide: bool) -> &'static str {
    if wide {
        "avx2"
    } else {
        "scalar"
    }
}

/// The keystream backend [`ChaCha20::new`] picks on this CPU: `"avx2"`
/// or `"scalar"`.
pub fn backend() -> &'static str {
    backend_name(wide_available())
}

impl ChaCha20 {
    /// Create a cipher from a 32-byte key and 12-byte nonce, with the block
    /// counter starting at `counter` (RFC 8439 uses 1 for AEAD payloads; raw
    /// keystream tests use 0).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
        Self::with_backend(key, nonce, counter, true)
    }

    /// [`ChaCha20::new`] with the backend pinned: the 8-block kernel when
    /// `wide` and the CPU has it, else the scalar block function.
    pub(crate) fn with_backend(key: &[u8; 32], nonce: &[u8; 12], counter: u32, wide: bool) -> Self {
        let mut k = [0u32; 8];
        for (i, c) in key.chunks_exact(4).enumerate() {
            k[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        let mut n = [0u32; 3];
        for (i, c) in nonce.chunks_exact(4).enumerate() {
            n[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        }
        ChaCha20 {
            key: k,
            nonce: n,
            counter,
            wide: wide && wide_available(),
            buf: [0u8; WIDE],
            pos: 0,
            end: 0,
        }
    }

    /// Convenience constructor deriving key and nonce from arbitrary seed
    /// bytes (hashes the seed; simulation use only).
    pub fn from_seed(seed: &[u8]) -> Self {
        let key = crate::sha256::sha256(seed);
        let nd = crate::sha256::sha256(&key);
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nd[..12]);
        Self::new(&key, &nonce, 0)
    }

    /// The scalar keystream block for the current counter; advances the
    /// counter.
    fn next_block(&mut self) -> [u8; 64] {
        let mut state = [0u32; 16];
        state[..4].copy_from_slice(&SIGMA);
        state[4..12].copy_from_slice(&self.key);
        state[12] = self.counter;
        state[13..16].copy_from_slice(&self.nonce);
        let mut w = state;
        for _ in 0..10 {
            // column rounds
            quarter_round(&mut w, 0, 4, 8, 12);
            quarter_round(&mut w, 1, 5, 9, 13);
            quarter_round(&mut w, 2, 6, 10, 14);
            quarter_round(&mut w, 3, 7, 11, 15);
            // diagonal rounds
            quarter_round(&mut w, 0, 5, 10, 15);
            quarter_round(&mut w, 1, 6, 11, 12);
            quarter_round(&mut w, 2, 7, 8, 13);
            quarter_round(&mut w, 3, 4, 9, 14);
        }
        let mut block = [0u8; 64];
        for (i, out) in block.chunks_exact_mut(4).enumerate() {
            out.copy_from_slice(&w[i].wrapping_add(state[i]).to_le_bytes());
        }
        self.counter = self.counter.wrapping_add(1);
        block
    }

    /// Refill the spent keystream buffer: 8 blocks on the wide backend,
    /// one on the scalar one.
    fn refill(&mut self) {
        debug_assert_eq!(self.pos, self.end);
        self.pos = 0;
        #[cfg(target_arch = "x86_64")]
        if self.wide
            && crate::x86::chacha20_blocks8(&self.key, &self.nonce, self.counter, &mut self.buf)
        {
            self.counter = self.counter.wrapping_add(8);
            self.end = WIDE;
            return;
        }
        let block = self.next_block();
        self.buf[..64].copy_from_slice(&block);
        self.end = 64;
    }

    /// XOR `data` in place with the keystream (encryption == decryption).
    ///
    /// Spends the buffered keystream first, then refills the buffer and
    /// spends it until `data` runs out; what is left stays for the next
    /// call.
    pub fn apply(&mut self, data: &mut [u8]) {
        let mut rest = data;
        while !rest.is_empty() {
            if self.pos == self.end {
                self.refill();
            }
            let n = rest.len().min(self.end - self.pos);
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(n);
            for (d, k) in head.iter_mut().zip(&self.buf[self.pos..self.end]) {
                *d ^= k;
            }
            self.pos += n;
            rest = tail;
        }
    }

    /// Encrypt a copy of `data`.
    pub fn encrypt(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;
    use proptest::prelude::*;

    /// RFC 8439 §2.3.2 block function test vector.
    #[test]
    fn rfc8439_block_vector() {
        let key: Vec<u8> = (0u8..32).collect();
        let mut k = [0u8; 32];
        k.copy_from_slice(&key);
        let nonce_bytes = hex::decode("000000090000004a00000000").unwrap();
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        let mut c = ChaCha20::new(&k, &nonce, 1);
        let ks = c.encrypt(&[0; 64]);
        assert_eq!(
            hex::encode(&ks),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
        );
    }

    /// RFC 8439 §2.4.2: key 00..1f, nonce, counter 1, plaintext, ciphertext.
    fn rfc8439_2_4_2() -> (ChaCha20, &'static [u8], &'static str) {
        let mut key = [0u8; 32];
        key.iter_mut().zip(0u8..).for_each(|(b, i)| *b = i);
        let nonce_bytes = hex::decode("000000000000004a00000000").unwrap();
        let mut nonce = [0u8; 12];
        nonce.copy_from_slice(&nonce_bytes);
        (
            ChaCha20::new(&key, &nonce, 1),
            b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.",
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
5af90bbf74a35be6b40b8eedf2785e42874d",
        )
    }

    /// RFC 8439 §2.4.2 encryption test vector.
    #[test]
    fn rfc8439_encrypt_vector() {
        let (mut c, plaintext, want) = rfc8439_2_4_2();
        assert_eq!(hex::encode(&c.encrypt(plaintext)), want);
    }

    /// The §2.4.2 vector fed in pieces reaches the known answer through
    /// every path of `apply`: 7 | 64 | rest runs tail, then head + tail,
    /// then head; 64 | 7 | rest runs a whole block, then tail, then head;
    /// 0 | 0 | all runs two empty calls, then a whole block + tail.
    #[test]
    fn rfc8439_encrypt_vector_in_pieces() {
        for [first, second] in [[7, 64], [64, 7], [0, 0]] {
            let (mut c, plaintext, want) = rfc8439_2_4_2();
            let mut data = plaintext.to_vec();
            let (a, rest) = data.split_at_mut(first);
            let (b, rest) = rest.split_at_mut(second);
            c.apply(a);
            c.apply(b);
            c.apply(rest);
            assert_eq!(hex::encode(&data), want, "pieces {first} | {second}");
        }
    }

    #[test]
    fn round_trip() {
        let mut enc = ChaCha20::from_seed(b"ransomware-campaign-42");
        let mut dec = ChaCha20::from_seed(b"ransomware-campaign-42");
        let msg = b"important research data: model weights v3".to_vec();
        let ct = enc.encrypt(&msg);
        assert_ne!(ct, msg);
        let pt = dec.encrypt(&ct);
        assert_eq!(pt, msg);
    }

    #[test]
    fn keystream_is_high_entropy() {
        let mut c = ChaCha20::from_seed(b"entropy-check");
        let ks = c.encrypt(&[0; 65536]);
        let stats = crate::entropy::ByteStats::from_bytes(&ks);
        assert!(stats.shannon_bits() > 7.9, "got {}", stats.shannon_bits());
    }

    #[test]
    fn different_seeds_differ() {
        let a = ChaCha20::from_seed(b"a").encrypt(&[0; 32]);
        let b = ChaCha20::from_seed(b"b").encrypt(&[0; 32]);
        assert_ne!(a, b);
    }

    /// `{:?}` names the stream position, whatever the backend buffers.
    #[test]
    fn debug_names_the_stream_position() {
        for wide in [false, true] {
            let mut c = ChaCha20::with_backend(&[7; 32], &[9; 12], 5, wide);
            for (n, block, offset) in [(0, 5, 0), (10, 5, 10), (54, 6, 0), (600, 15, 24)] {
                c.apply(&mut vec![0; n]);
                let want = format!("ChaCha20 {{ block: {block}, offset: {offset}, backend:");
                let got = format!("{c:?}");
                assert!(got.starts_with(&want), "{got} after {n} more bytes");
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    proptest::proptest! {
        /// The 8-block kernel equals 8 scalar blocks, counters that wrap
        /// inside the batch included.
        #[test]
        fn avx2_blocks_equal_scalar(key in any::<[u8; 32]>(),
                                    nonce in any::<[u8; 12]>(),
                                    counter in any::<u32>(),
                                    near_wrap in 0u32..8,
                                    wrap in any::<bool>()) {
            if !crate::x86::has_avx2() {
                println!("avx2_blocks_equal_scalar skipped: this CPU lacks AVX2");
                return;
            }
            let counter = if wrap { u32::MAX - near_wrap } else { counter };
            let mut scalar = ChaCha20::with_backend(&key, &nonce, counter, false);
            let mut want = [0u8; WIDE];
            for block in want.chunks_exact_mut(64) {
                block.copy_from_slice(&scalar.next_block());
            }
            let mut got = [0u8; WIDE];
            assert!(crate::x86::chacha20_blocks8(&scalar.key, &scalar.nonce, counter, &mut got));
            prop_assert_eq!(got, want);
        }
    }

    proptest::proptest! {
        /// On both backends, `apply` over pieces cut at arbitrary points
        /// and at points around 64- and 512-byte boundaries equals one
        /// scalar call.
        #[test]
        fn apply_split_points_equal_one_call_on_both_backends(
            key in any::<[u8; 32]>(),
            counter in any::<u32>(),
            data in collection::vec(any::<u8>(), 0..1600),
            cuts in collection::vec(0usize..1600, 0..4),
            near_boundary in collection::vec((0usize..26, 0usize..5), 0..6)) {
            let want = ChaCha20::with_backend(&key, &[3; 12], counter, false).encrypt(&data);
            let mut points: Vec<usize> = cuts
                .iter()
                .copied()
                .chain(near_boundary.iter().map(|&(k, d)| (64 * k + d).saturating_sub(2)))
                .map(|p| p.min(data.len()))
                .collect();
            points.sort_unstable();
            points.push(data.len());
            for wide in [false, true] {
                #[cfg(target_arch = "x86_64")]
                if wide && !crate::x86::has_avx2() {
                    println!("avx2 case skipped: this CPU lacks AVX2");
                    continue;
                }
                let mut c = ChaCha20::with_backend(&key, &[3; 12], counter, wide);
                let mut got = data.clone();
                let mut prev = 0;
                for &p in &points {
                    c.apply(&mut got[prev..p]);
                    prev = p;
                }
                prop_assert_eq!(&got, &want, "wide {}", wide);
            }
        }
    }

    #[test]
    fn apply_across_block_boundaries() {
        // Encrypt in odd-sized chunks and compare with one-shot.
        let mut one = ChaCha20::from_seed(b"chunks");
        let data = vec![0x5au8; 300];
        let whole = one.encrypt(&data);
        let mut chunked = ChaCha20::from_seed(b"chunks");
        let mut out = Vec::new();
        for chunk in data.chunks(37) {
            out.extend_from_slice(&chunked.encrypt(chunk));
        }
        assert_eq!(out, whole);
    }
}
