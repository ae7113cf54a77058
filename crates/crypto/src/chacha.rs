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

/// ChaCha20 stream cipher instance (keyed, nonce'd, seekable by block).
#[derive(Clone)]
pub struct ChaCha20 {
    key: [u32; 8],
    nonce: [u32; 3],
    counter: u32,
    /// The current keystream block; `block[block_pos..]` is unused.
    block: [u8; 64],
    block_pos: usize,
}

impl std::fmt::Debug for ChaCha20 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaCha20")
            .field("counter", &self.counter)
            .finish_non_exhaustive()
    }
}

const SIGMA: [u32; 4] = [0x61707865, 0x3320646e, 0x79622d32, 0x6b206574];

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

impl ChaCha20 {
    /// Create a cipher from a 32-byte key and 12-byte nonce, with the block
    /// counter starting at `counter` (RFC 8439 uses 1 for AEAD payloads; raw
    /// keystream tests use 0).
    pub fn new(key: &[u8; 32], nonce: &[u8; 12], counter: u32) -> Self {
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
            block: [0u8; 64],
            block_pos: 64,
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

    /// The keystream block for the current counter; advances the counter.
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

    /// XOR `data` in place with the keystream (encryption == decryption).
    ///
    /// Finishes the partly used block first, then XORs whole blocks
    /// straight from the block function, then keeps the block the tail
    /// starts so the next call resumes mid-block.
    pub fn apply(&mut self, data: &mut [u8]) {
        let head_len = data.len().min(64 - self.block_pos);
        let (head, rest) = data.split_at_mut(head_len);
        xor(head, &self.block[self.block_pos..]);
        self.block_pos += head_len;
        let mut blocks = rest.chunks_exact_mut(64);
        for chunk in &mut blocks {
            xor(chunk, &self.next_block());
        }
        let tail = blocks.into_remainder();
        if !tail.is_empty() {
            self.block = self.next_block();
            xor(tail, &self.block);
            self.block_pos = tail.len();
        }
    }

    /// Encrypt a copy of `data`.
    pub fn encrypt(&mut self, data: &[u8]) -> Vec<u8> {
        let mut out = data.to_vec();
        self.apply(&mut out);
        out
    }
}

/// `data[i] ^= keystream[i]` over the shorter of the two.
#[inline(always)]
fn xor(data: &mut [u8], keystream: &[u8]) {
    for (d, k) in data.iter_mut().zip(keystream) {
        *d ^= k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

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
