//! Property-based tests for the crypto substrate.

use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_crypto::hex;
use ja_crypto::hmac::{ct_eq, hmac_sha256, hmac_sha256_parts, verify, HmacSha256};
use ja_crypto::sha256::{sha256, Sha256};
use proptest::prelude::*;

proptest! {
    /// Streaming SHA-256 over arbitrary chunkings equals the one-shot hash.
    #[test]
    fn sha256_chunking_invariant(data in proptest::collection::vec(any::<u8>(), 0..4096),
                                 cuts in proptest::collection::vec(0usize..4096, 0..8)) {
        let want = sha256(&data);
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        let mut h = Sha256::new();
        let mut prev = 0;
        for &p in &points {
            h.update(&data[prev..p]);
            prev = p;
        }
        h.update(&data[prev..]);
        prop_assert_eq!(h.finalize(), want);
    }

    /// Hex round-trips.
    #[test]
    fn hex_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        prop_assert_eq!(hex::decode(&hex::encode(&data)).unwrap(), data);
    }

    /// HMAC verification accepts genuine tags and rejects single-bit flips.
    #[test]
    fn hmac_bitflip_rejected(key in proptest::collection::vec(any::<u8>(), 1..128),
                             msg in proptest::collection::vec(any::<u8>(), 0..512),
                             flip_byte in 0usize..32, flip_bit in 0u8..8) {
        let tag = hmac_sha256(&key, &msg);
        prop_assert!(verify(&key, &msg, &tag));
        let mut bad = tag;
        bad[flip_byte] ^= 1 << flip_bit;
        prop_assert!(!verify(&key, &msg, &bad));
    }

    /// Streaming HMAC equals one-shot for arbitrary chunk sizes.
    #[test]
    fn hmac_streaming(key in proptest::collection::vec(any::<u8>(), 0..96),
                      msg in proptest::collection::vec(any::<u8>(), 0..1024),
                      chunk in 1usize..64) {
        let want = hmac_sha256(&key, &msg);
        let mut mac = HmacSha256::new(&key);
        for c in msg.chunks(chunk) {
            mac.update(c);
        }
        prop_assert_eq!(mac.finalize(), want);
    }

    /// One keyed MAC, cloned for each of N messages (the per-session
    /// reuse the wire layer relies on), tags every message exactly as a
    /// one-shot HMAC under the raw key does.
    #[test]
    fn hmac_keyed_clone_reuse(key in proptest::collection::vec(any::<u8>(), 0..160),
                              msgs in proptest::collection::vec(
                                  proptest::collection::vec(
                                      proptest::collection::vec(any::<u8>(), 0..200), 0..5),
                                  1..12)) {
        let keyed = HmacSha256::new(&key);
        for parts in &msgs {
            let parts: Vec<&[u8]> = parts.iter().map(Vec::as_slice).collect();
            let mut mac = keyed.clone();
            for p in &parts {
                mac.update(p);
            }
            prop_assert_eq!(mac.finalize(), hmac_sha256_parts(&key, &parts));
        }
    }

    /// ct_eq is true iff the slices are equal.
    #[test]
    fn ct_eq_is_eq(a in proptest::collection::vec(any::<u8>(), 0..64),
                   b in proptest::collection::vec(any::<u8>(), 0..64)) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// ChaCha20 decrypt(encrypt(x)) == x for any seed and message.
    #[test]
    fn chacha_round_trip(seed in proptest::collection::vec(any::<u8>(), 1..64),
                         msg in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let ct = ChaCha20::from_seed(&seed).encrypt(&msg);
        let pt = ChaCha20::from_seed(&seed).encrypt(&ct);
        prop_assert_eq!(pt, msg);
    }

    /// `apply` over any split of the data (empty pieces and pieces that
    /// start partway through a block included) equals one call: the
    /// sensor decrypts flows in chunks of whatever size the wire gives it.
    #[test]
    fn chacha_apply_split_points_equal_one_call(
        seed in proptest::collection::vec(any::<u8>(), 1..64),
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        cuts in proptest::collection::vec(0usize..4096, 0..8)) {
        let want = ChaCha20::from_seed(&seed).encrypt(&data);
        let mut points: Vec<usize> = cuts.iter().map(|&c| c % (data.len() + 1)).collect();
        points.sort_unstable();
        points.push(data.len());
        let mut c = ChaCha20::from_seed(&seed);
        let mut got = data.clone();
        let mut prev = 0;
        for &p in &points {
            c.apply(&mut got[prev..p]);
            prev = p;
        }
        prop_assert_eq!(got, want);
    }

    /// Entropy is bounded by [0, 8] bits and merge matches concatenation.
    #[test]
    fn entropy_bounds_and_merge(a in proptest::collection::vec(any::<u8>(), 0..2048),
                                b in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let sa = ByteStats::from_bytes(&a);
        prop_assert!((0.0..=8.0 + 1e-9).contains(&sa.shannon_bits()));
        let mut merged = sa.clone();
        merged.merge(&ByteStats::from_bytes(&b));
        let mut cat = a.clone();
        cat.extend_from_slice(&b);
        let direct = ByteStats::from_bytes(&cat);
        prop_assert_eq!(merged.total(), direct.total());
        prop_assert!((merged.shannon_bits() - direct.shannon_bits()).abs() < 1e-9);
    }
}
