//! x86-64 kernels: SHA-NI SHA-256 compression and an AVX2 ChaCha20 block
//! function that makes 8 consecutive blocks at once.
//!
//! This is the one module of the crate allowed `unsafe`. The kernels are
//! `unsafe fn`s compiled with `#[target_feature]`; each is reached only
//! through a safe wrapper that calls it right after checking, through
//! `is_x86_feature_detected!` (which runs CPUID once per process and
//! caches the answer), that the CPU has the features it was compiled
//! for. A wrapper returns `false` when the CPU lacks them, and its caller
//! then runs the scalar code, which is also the oracle these kernels are
//! tested against. Output is bit-identical to the scalar code.

use std::arch::x86_64::*;

/// Whether this CPU runs [`sha256_blocks`]'s kernel.
pub(crate) fn has_sha_ni() -> bool {
    is_x86_feature_detected!("sha")
        && is_x86_feature_detected!("ssse3")
        && is_x86_feature_detected!("sse4.1")
}

/// Whether this CPU runs [`chacha20_blocks8`]'s kernel.
pub(crate) fn has_avx2() -> bool {
    is_x86_feature_detected!("avx2")
}

/// Compress every whole 64-byte block of `blocks` into `state` with
/// SHA-NI. Returns `false`, leaving `state` as it was, when this CPU
/// lacks SHA-NI.
pub(crate) fn sha256_blocks(state: &mut [u32; 8], blocks: &[u8]) -> bool {
    if !has_sha_ni() {
        return false;
    }
    // SAFETY: `has_sha_ni` just confirmed every feature the kernel is
    // compiled for (sse2 is part of the x86-64 baseline).
    unsafe { sha256_compress_shani(state, blocks) };
    true
}

/// Write the 8 ChaCha20 keystream blocks for `counter`, `counter + 1`,
/// ... `counter + 7` (wrapping) into `out` with AVX2. Returns `false`,
/// leaving `out` as it was, when this CPU lacks AVX2.
pub(crate) fn chacha20_blocks8(
    key: &[u32; 8],
    nonce: &[u32; 3],
    counter: u32,
    out: &mut [u8; 512],
) -> bool {
    if !has_avx2() {
        return false;
    }
    // SAFETY: `has_avx2` just confirmed the one feature the kernel is
    // compiled for.
    unsafe { chacha20_blocks8_avx2(key, nonce, counter, out) };
    true
}

/// Unaligned load of 16 bytes.
#[inline(always)]
fn load128(bytes: &[u8; 16]) -> __m128i {
    // SAFETY: `bytes` is 16 readable bytes, and `loadu` has no alignment
    // requirement; sse2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }
}

/// Unaligned load of 4 words.
#[inline(always)]
fn load128_words(words: &[u32; 4]) -> __m128i {
    // SAFETY: `words` is 16 readable bytes, and `loadu` has no alignment
    // requirement; sse2 is part of the x86-64 baseline.
    unsafe { _mm_loadu_si128(words.as_ptr().cast()) }
}

/// Unaligned store of 4 words.
#[inline(always)]
fn store128_words(words: &mut [u32; 4], v: __m128i) {
    // SAFETY: `words` is 16 writable bytes, and `storeu` has no alignment
    // requirement; sse2 is part of the x86-64 baseline.
    unsafe { _mm_storeu_si128(words.as_mut_ptr().cast(), v) }
}

/// `w[i]` for `i` in `first..first + N`, as a fixed-size array.
#[inline(always)]
fn sub<T, const N: usize>(w: &[T], first: usize) -> &[T; N] {
    w[first..first + N].try_into().expect("slice of length N")
}

/// Mutable `w[first..first + N]` as a fixed-size array.
#[inline(always)]
fn sub_mut<T, const N: usize>(w: &mut [T], first: usize) -> &mut [T; N] {
    (&mut w[first..first + N])
        .try_into()
        .expect("slice of length N")
}

/// SHA-256 compression of every whole 64-byte block of `blocks`, with the
/// SHA-NI round and message-schedule instructions.
///
/// The instructions keep the working variables as two vectors, ABEF and
/// CDGH (high lane first); the state is shuffled into that order once per
/// call and back once at the end, so a run of blocks pays it once.
///
/// # Safety
///
/// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
#[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
unsafe fn sha256_compress_shani(state: &mut [u32; 8], blocks: &[u8]) {
    use crate::sha256::K;
    debug_assert_eq!(blocks.len() % 64, 0);
    // Byte-swaps each 32-bit lane: message words are big-endian.
    let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);

    let dcba = load128_words(sub(state, 0));
    let hgfe = load128_words(sub(state, 4));
    let cdab = _mm_shuffle_epi32(dcba, 0xb1);
    let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
    let mut abef = _mm_alignr_epi8(cdab, efgh, 8);
    let mut cdgh = _mm_blend_epi16(efgh, cdab, 0xf0);

    // Four rounds from the message words `w` (plus constants `K[4i..]`).
    macro_rules! rounds4 {
        ($w:expr, $i:expr) => {{
            let wk = _mm_add_epi32($w, load128_words(sub(&K, 4 * $i)));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
        }};
    }
    // The next four schedule words from the previous sixteen.
    macro_rules! schedule {
        ($w0:expr, $w1:expr, $w2:expr, $w3:expr) => {
            _mm_sha256msg2_epu32(
                _mm_add_epi32(_mm_sha256msg1_epu32($w0, $w1), _mm_alignr_epi8($w3, $w2, 4)),
                $w3,
            )
        };
    }

    for block in blocks.chunks_exact(64) {
        let (abef_in, cdgh_in) = (abef, cdgh);
        let mut w0 = _mm_shuffle_epi8(load128(sub(block, 0)), bswap);
        let mut w1 = _mm_shuffle_epi8(load128(sub(block, 16)), bswap);
        let mut w2 = _mm_shuffle_epi8(load128(sub(block, 32)), bswap);
        let mut w3 = _mm_shuffle_epi8(load128(sub(block, 48)), bswap);
        rounds4!(w0, 0);
        rounds4!(w1, 1);
        rounds4!(w2, 2);
        rounds4!(w3, 3);
        for i in 1..4 {
            w0 = schedule!(w0, w1, w2, w3);
            rounds4!(w0, 4 * i);
            w1 = schedule!(w1, w2, w3, w0);
            rounds4!(w1, 4 * i + 1);
            w2 = schedule!(w2, w3, w0, w1);
            rounds4!(w2, 4 * i + 2);
            w3 = schedule!(w3, w0, w1, w2);
            rounds4!(w3, 4 * i + 3);
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    let feba = _mm_shuffle_epi32(abef, 0x1b);
    let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
    store128_words(sub_mut(state, 0), _mm_blend_epi16(feba, dchg, 0xf0));
    store128_words(sub_mut(state, 4), _mm_alignr_epi8(dchg, feba, 8));
}

/// Eight ChaCha20 blocks, `counter` to `counter + 7` (wrapping), into
/// `out` in stream order.
///
/// Vector `x[i]` holds state word `i` of all eight blocks, lane `j` for
/// block `counter + j`, so each quarter round runs on eight blocks at
/// once. Two 8×8 transposes turn the word-major result into block order.
///
/// # Safety
///
/// The CPU must support `avx2`.
#[target_feature(enable = "avx2")]
unsafe fn chacha20_blocks8_avx2(
    key: &[u32; 8],
    nonce: &[u32; 3],
    counter: u32,
    out: &mut [u8; 512],
) {
    use crate::chacha::SIGMA;
    let mut input = [_mm256_setzero_si256(); 16];
    for (v, &w) in input.iter_mut().zip(SIGMA.iter().chain(key)) {
        *v = _mm256_set1_epi32(w as i32);
    }
    input[12] = _mm256_add_epi32(
        _mm256_set1_epi32(counter as i32),
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
    );
    for (v, &w) in input[13..].iter_mut().zip(nonce) {
        *v = _mm256_set1_epi32(w as i32);
    }

    // Byte shuffles rotating each 32-bit lane left by 16 and by 8.
    let rot16 = _mm256_set_epi64x(
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
        0x0d0c_0f0e_0908_0b0a,
        0x0504_0706_0100_0302,
    );
    let rot8 = _mm256_set_epi64x(
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
        0x0e0d_0c0f_0a09_080b,
        0x0605_0407_0201_0003,
    );
    let mut x = input;
    macro_rules! quarter_round {
        ($a:expr, $b:expr, $c:expr, $d:expr) => {
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot16);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            let t = _mm256_xor_si256(x[$b], x[$c]);
            x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 12), _mm256_srli_epi32(t, 20));
            x[$a] = _mm256_add_epi32(x[$a], x[$b]);
            x[$d] = _mm256_shuffle_epi8(_mm256_xor_si256(x[$d], x[$a]), rot8);
            x[$c] = _mm256_add_epi32(x[$c], x[$d]);
            let t = _mm256_xor_si256(x[$b], x[$c]);
            x[$b] = _mm256_or_si256(_mm256_slli_epi32(t, 7), _mm256_srli_epi32(t, 25));
        };
    }
    for _ in 0..10 {
        quarter_round!(0, 4, 8, 12);
        quarter_round!(1, 5, 9, 13);
        quarter_round!(2, 6, 10, 14);
        quarter_round!(3, 7, 11, 15);
        quarter_round!(0, 5, 10, 15);
        quarter_round!(1, 6, 11, 12);
        quarter_round!(2, 7, 8, 13);
        quarter_round!(3, 4, 9, 14);
    }
    for (v, i) in x.iter_mut().zip(input) {
        *v = _mm256_add_epi32(*v, i);
    }

    // Block j is lane j of every x[i]. Each half of `x` (words 0..8, then
    // words 8..16) goes out as an 8×8 transpose of 32-bit elements:
    // interleave pairs of rows, then pairs of pairs, then swap 128-bit
    // halves.
    for half in 0..2 {
        let r = sub::<__m256i, 8>(&x, 8 * half);
        let t0 = _mm256_unpacklo_epi32(r[0], r[1]);
        let t1 = _mm256_unpackhi_epi32(r[0], r[1]);
        let t2 = _mm256_unpacklo_epi32(r[2], r[3]);
        let t3 = _mm256_unpackhi_epi32(r[2], r[3]);
        let t4 = _mm256_unpacklo_epi32(r[4], r[5]);
        let t5 = _mm256_unpackhi_epi32(r[4], r[5]);
        let t6 = _mm256_unpacklo_epi32(r[6], r[7]);
        let t7 = _mm256_unpackhi_epi32(r[6], r[7]);
        // lo[k] holds rows 0..4 and hi[k] rows 4..8, each of block k in
        // its low 128 bits and of block k + 4 in its high 128 bits.
        let lo = [
            _mm256_unpacklo_epi64(t0, t2),
            _mm256_unpackhi_epi64(t0, t2),
            _mm256_unpacklo_epi64(t1, t3),
            _mm256_unpackhi_epi64(t1, t3),
        ];
        let hi = [
            _mm256_unpacklo_epi64(t4, t6),
            _mm256_unpackhi_epi64(t4, t6),
            _mm256_unpacklo_epi64(t5, t7),
            _mm256_unpackhi_epi64(t5, t7),
        ];
        let blocks = [
            _mm256_permute2x128_si256(lo[0], hi[0], 0x20),
            _mm256_permute2x128_si256(lo[1], hi[1], 0x20),
            _mm256_permute2x128_si256(lo[2], hi[2], 0x20),
            _mm256_permute2x128_si256(lo[3], hi[3], 0x20),
            _mm256_permute2x128_si256(lo[0], hi[0], 0x31),
            _mm256_permute2x128_si256(lo[1], hi[1], 0x31),
            _mm256_permute2x128_si256(lo[2], hi[2], 0x31),
            _mm256_permute2x128_si256(lo[3], hi[3], 0x31),
        ];
        for (k, words) in blocks.into_iter().enumerate() {
            let dst: &mut [u8; 32] = sub_mut(out, 64 * k + 32 * half);
            // SAFETY: `dst` is 32 writable bytes, and `storeu` has no
            // alignment requirement.
            _mm256_storeu_si256(dst.as_mut_ptr().cast(), words);
        }
    }
}
