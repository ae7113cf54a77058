//! Virtual filesystem with realistic content statistics.
//!
//! Ransomware detection hinges on byte statistics: a scientist's CSV has
//! ~4-5 bits/byte entropy, model weights ~7.5, ChaCha ciphertext ~8.0.
//! Files here carry a materialized *sample* of their content (plus a
//! nominal size), generated deterministically per content kind, so the
//! detectors compute genuine statistics rather than reading a label.
//!
//! Archive and ciphertext samples only need to look random, so they come
//! from a child `SimRng`, not a cipher keystream; the real cipher is kept
//! for [`Vfs::encrypt_in_place`], the ransomware primitive.
//!
//! CSV samples are written line by line straight into the sample buffer
//! by an exact fixed-point writer that produces the bytes of `{:.4}`:
//! it rounds each value's exact binary expansion half-to-even in integer
//! arithmetic, as std's formatter does, at a fraction of its cost.

use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_netsim::rng::{split_seed, SimRng};
use ja_netsim::time::SimTime;
use std::collections::BTreeMap;

/// Content archetypes for generated files.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContentKind {
    /// Source code / notebooks / plain text (low entropy).
    Text,
    /// CSV/TSV numeric data (low-mid entropy).
    Csv,
    /// Floating-point model weights / binary arrays (high entropy, but
    /// structured — below ciphertext).
    ModelWeights,
    /// Compressed archive (near-ciphertext entropy; the detector's known
    /// false-positive source).
    Archive,
    /// Ciphertext (what ransomware leaves behind).
    Encrypted,
}

/// How many content bytes are materialized per file for statistics.
pub const SAMPLE_LEN: usize = 1024;

/// `pattern` (not empty) repeated and cut to `len` bytes, copied a
/// whole pattern at a time.
pub(crate) fn repeat_to(pattern: &[u8], len: usize) -> Vec<u8> {
    assert!(!pattern.is_empty(), "repeat_to of an empty pattern");
    let mut out = Vec::with_capacity(len);
    while out.len() < len {
        let n = (len - out.len()).min(pattern.len());
        out.extend_from_slice(&pattern[..n]);
    }
    out
}

/// Generate a deterministic content sample of `kind`.
pub fn generate_sample(kind: ContentKind, rng: &mut SimRng) -> Vec<u8> {
    match kind {
        ContentKind::Text => {
            let corpus = b"import numpy as np\n# compute spectral density\nfor i in range(N):\n    psd[i] = fft(x[i])\n";
            repeat_to(corpus, SAMPLE_LEN)
        }
        ContentKind::Csv => {
            // Room for the longest line past the cut, so it never regrows.
            let mut out = Vec::with_capacity(SAMPLE_LEN + 32);
            while out.len() < SAMPLE_LEN {
                // `{},{:.4},{:.4}\n`, drawing range, f64, f64 in that order.
                push_digits(&mut out, rng.range(0, 100000), 1);
                out.push(b',');
                push_fixed4(&mut out, rng.f64() * 100.0);
                out.push(b',');
                push_fixed4(&mut out, rng.f64());
                out.push(b'\n');
            }
            out.truncate(SAMPLE_LEN);
            out
        }
        ContentKind::ModelWeights => {
            let mut out = Vec::with_capacity(SAMPLE_LEN);
            while out.len() < SAMPLE_LEN {
                // f32 little-endian weights around zero: exponent bytes
                // repeat, mantissa bytes are noisy — entropy ≈ 6-7.5.
                let w = (rng.gaussian() * 0.05) as f32;
                out.extend_from_slice(&w.to_le_bytes());
            }
            out.truncate(SAMPLE_LEN);
            out
        }
        ContentKind::Archive | ContentKind::Encrypted => {
            // The sample's only draw from `rng` is a 16-byte seed, so its
            // length moves no later draw; the bytes come from a child.
            let mut seed = [0u8; 16];
            rng.fill_bytes(&mut seed);
            let (a, b) = seed.split_at(8);
            let word = |w: &[u8]| u64::from_le_bytes(w.try_into().unwrap());
            let mut out = vec![0u8; SAMPLE_LEN];
            SimRng::new(split_seed(word(a), word(b))).fill_bytes(&mut out);
            out
        }
    }
}

/// Append the decimal digits of `v`, zero-padded to at least `width`.
fn push_digits(out: &mut Vec<u8>, mut v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut i = buf.len();
    while v > 0 {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    out.extend_from_slice(&buf[i.min(buf.len() - width)..]);
}

/// Append finite `x` exactly as `format!("{x:.4}")` writes it.
///
/// `x = m · 2^e` exactly; `x · 10⁴` is rounded half-to-even to the
/// integer `n` (std's rounding of the exact binary value), which is then
/// printed as `n / 10⁴` "." four digits of `n % 10⁴`. For `e ≥ 0`, `x` is
/// an integer and is printed whole.
fn push_fixed4(out: &mut Vec<u8>, x: f64) {
    debug_assert!(x.is_finite());
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        out.push(b'-');
    }
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), biased - 1075)
    };
    if e >= 0 {
        push_integer(out, m, e as u32);
        out.extend_from_slice(b".0000");
        return;
    }
    // m < 2^53, so m · 10⁴ < 2^67; a shift of 128 or more leaves less
    // than half a unit, which rounds to zero.
    let k = e.unsigned_abs();
    let n = if k >= 128 {
        0
    } else {
        let scaled = u128::from(m) * 10_000;
        let q = scaled >> k;
        let r = scaled & ((1u128 << k) - 1);
        let half = 1u128 << (k - 1);
        q + u128::from(r > half || (r == half && q & 1 == 1))
    };
    // e < 0 ⇒ x < 2^53, so the integer part fits a u64. `n` fits one too
    // unless x ≥ 2^64 / 10⁴, and u64 division is far cheaper than u128.
    let (int, frac) = match u64::try_from(n) {
        Ok(n) => (n / 10_000, n % 10_000),
        Err(_) => ((n / 10_000) as u64, (n % 10_000) as u64),
    };
    push_digits(out, int, 1);
    out.push(b'.');
    push_digits(out, frac, 4);
}

/// Append the decimal digits of the integer `m · 2^e`: directly when it
/// fits a u64, else by long division of base-2³² limbs by 10⁹ (only for
/// values of 2^64 and up).
fn push_integer(out: &mut Vec<u8>, m: u64, e: u32) {
    if m.leading_zeros() >= e {
        push_digits(out, m << e, 1);
        return;
    }
    let wide = u128::from(m) << (e % 32);
    let mut limbs = vec![0u32; (e / 32) as usize];
    limbs.extend([wide as u32, (wide >> 32) as u32, (wide >> 64) as u32]);
    let mut chunks = Vec::new();
    while limbs.iter().any(|&l| l != 0) {
        let mut rem = 0u64;
        for limb in limbs.iter_mut().rev() {
            let cur = rem << 32 | u64::from(*limb);
            *limb = (cur / 1_000_000_000) as u32;
            rem = cur % 1_000_000_000;
        }
        chunks.push(rem);
    }
    let mut chunks = chunks.into_iter().rev();
    push_digits(out, chunks.next().unwrap_or(0), 1);
    for chunk in chunks {
        push_digits(out, chunk, 9);
    }
}

/// A file in the virtual filesystem.
#[derive(Clone, Debug)]
pub struct FileNode {
    /// Nominal size in bytes (sample is only [`SAMPLE_LEN`]).
    pub size: u64,
    /// Materialized content sample.
    pub sample: Vec<u8>,
    /// Content archetype at creation.
    pub kind: ContentKind,
    /// Owner username.
    pub owner: String,
    /// Last modification time.
    pub mtime: SimTime,
}

impl FileNode {
    /// Shannon entropy of the sample.
    pub fn entropy_bits(&self) -> f64 {
        ByteStats::from_bytes(&self.sample).shannon_bits()
    }
}

/// Filesystem operation outcomes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VfsError {
    /// Path not present.
    NotFound,
    /// Path already present (create collision).
    Exists,
}

/// The virtual filesystem of one server.
#[derive(Clone, Debug, Default)]
pub struct Vfs {
    files: BTreeMap<String, FileNode>,
}

impl Vfs {
    /// Empty filesystem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Populate a home directory with a realistic scientific workspace:
    /// notebooks, datasets, model checkpoints, archives.
    pub fn populate_home(&mut self, user: &str, rng: &mut SimRng, now: SimTime) {
        let spec: &[(&str, ContentKind, u64, u64)] = &[
            ("analysis.ipynb", ContentKind::Text, 20_000, 3),
            ("notes.md", ContentKind::Text, 4_000, 2),
            ("data/run_{}.csv", ContentKind::Csv, 5_000_000, 8),
            ("data/obs_{}.csv", ContentKind::Csv, 12_000_000, 4),
            (
                "models/ckpt_{}.bin",
                ContentKind::ModelWeights,
                400_000_000,
                3,
            ),
            (
                "models/weights_{}.npy",
                ContentKind::ModelWeights,
                80_000_000,
                2,
            ),
            (
                "archive/backup_{}.tar.gz",
                ContentKind::Archive,
                900_000_000,
                1,
            ),
            (
                "archive/rawdata_{}.tar.gz",
                ContentKind::Archive,
                2_000_000_000,
                1,
            ),
        ];
        for (pattern, kind, size, count) in spec {
            for i in 0..*count {
                let rel = pattern.replace("{}", &i.to_string());
                let path = format!("/home/{user}/{rel}");
                let jitter = 1.0 + 0.2 * rng.gaussian().clamp(-2.0, 2.0);
                let node = FileNode {
                    size: ((*size as f64) * jitter).max(128.0) as u64,
                    sample: generate_sample(*kind, rng),
                    kind: *kind,
                    owner: user.to_string(),
                    mtime: now,
                };
                self.files.insert(path, node);
            }
        }
    }

    /// Create a file.
    pub fn create(
        &mut self,
        path: &str,
        kind: ContentKind,
        size: u64,
        owner: &str,
        rng: &mut SimRng,
        now: SimTime,
    ) -> Result<(), VfsError> {
        if self.files.contains_key(path) {
            return Err(VfsError::Exists);
        }
        self.files.insert(
            path.to_string(),
            FileNode {
                size,
                sample: generate_sample(kind, rng),
                kind,
                owner: owner.to_string(),
                mtime: now,
            },
        );
        Ok(())
    }

    /// Create a file with explicit content bytes (no RNG draw) — used for
    /// provisioned artifacts whose *text* matters, like credentials and
    /// peer lists an interactive adversary reads back through a terminal.
    /// The nominal size equals the sample length.
    pub fn create_with_sample(
        &mut self,
        path: &str,
        kind: ContentKind,
        sample: Vec<u8>,
        owner: &str,
        now: SimTime,
    ) -> Result<(), VfsError> {
        if self.files.contains_key(path) {
            return Err(VfsError::Exists);
        }
        self.files.insert(
            path.to_string(),
            FileNode {
                size: sample.len() as u64,
                sample,
                kind,
                owner: owner.to_string(),
                mtime: now,
            },
        );
        Ok(())
    }

    /// Read a file node.
    pub fn read(&self, path: &str) -> Result<&FileNode, VfsError> {
        self.files.get(path).ok_or(VfsError::NotFound)
    }

    /// Overwrite a file's content in place with ciphertext — the
    /// ransomware primitive. The sample really is encrypted with ChaCha20
    /// keyed by `key_seed`, so entropy genuinely jumps.
    pub fn encrypt_in_place(
        &mut self,
        path: &str,
        key_seed: &[u8],
        now: SimTime,
    ) -> Result<(), VfsError> {
        let node = self.files.get_mut(path).ok_or(VfsError::NotFound)?;
        let mut cipher = ChaCha20::from_seed(key_seed);
        cipher.apply(&mut node.sample);
        node.kind = ContentKind::Encrypted;
        node.mtime = now;
        Ok(())
    }

    /// Rename (ransomware extension churn: `x.csv` → `x.csv.locked`).
    pub fn rename(&mut self, from: &str, to: &str, now: SimTime) -> Result<(), VfsError> {
        if self.files.contains_key(to) {
            return Err(VfsError::Exists);
        }
        let mut node = self.files.remove(from).ok_or(VfsError::NotFound)?;
        node.mtime = now;
        self.files.insert(to.to_string(), node);
        Ok(())
    }

    /// Delete a file.
    pub fn delete(&mut self, path: &str) -> Result<FileNode, VfsError> {
        self.files.remove(path).ok_or(VfsError::NotFound)
    }

    /// All paths under a prefix (lexicographic).
    pub fn list(&self, prefix: &str) -> Vec<String> {
        self.files
            .range(prefix.to_string()..)
            .take_while(|(p, _)| p.starts_with(prefix))
            .map(|(p, _)| p.clone())
            .collect()
    }

    /// Total nominal bytes under a prefix.
    pub fn bytes_under(&self, prefix: &str) -> u64 {
        self.list(prefix).iter().map(|p| self.files[p].size).sum()
    }

    /// File count.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Is the filesystem empty?
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_to_equals_a_cycled_pattern() {
        for pattern in [&b"a"[..], b"abc", b"0123456789"] {
            for len in [0, 1, 2, 3, 9, 10, 11, 1024, 65536] {
                let want: Vec<u8> = pattern.iter().cycle().take(len).copied().collect();
                assert_eq!(repeat_to(pattern, len), want, "{pattern:?} to {len}");
            }
        }
    }
    use proptest::prelude::*;

    fn rng() -> SimRng {
        SimRng::new(99)
    }

    /// The writer against its oracle, std's `{:.4}`.
    fn assert_fixed4(x: f64) {
        let mut got = Vec::new();
        push_fixed4(&mut got, x);
        assert_eq!(
            String::from_utf8(got).unwrap(),
            format!("{x:.4}"),
            "bits {:#x}",
            x.to_bits()
        );
    }

    /// [`assert_fixed4`] on `x` and its one-ulp neighbours (`x > 0`).
    fn assert_fixed4_around(x: f64) {
        let b = x.to_bits();
        for y in [f64::from_bits(b - 1), x, f64::from_bits(b + 1)] {
            assert_fixed4(y);
        }
    }

    proptest! {
        /// The values CSV samples actually format: unit-interval draws
        /// and the same draws scaled by 100.
        #[test]
        fn fixed4_matches_std_on_sample_draws(seed in any::<u64>()) {
            let mut r = SimRng::new(seed);
            for _ in 0..2000 {
                let u = r.f64();
                assert_fixed4(u);
                assert_fixed4(u * 100.0);
            }
        }

        /// Arbitrary values in [0, 1e12): uniform, and uniform over the
        /// bit patterns (every exponent, subnormals included).
        #[test]
        fn fixed4_matches_std_on_wide_values(x in 0.0f64..1e12, seed in any::<u64>()) {
            assert_fixed4(x);
            let mut r = SimRng::new(seed);
            for _ in 0..2000 {
                let y = f64::from_bits(r.range(0, u64::MAX) >> 1);
                if y < 1e12 {
                    assert_fixed4(y);
                }
            }
        }

        /// Ties `(2k+1)/20000` (exact only when the value is an odd
        /// multiple of 1/32) and their ±1-ulp neighbours.
        #[test]
        fn fixed4_matches_std_on_ties(k0 in 0u64..1_000_000_000, j0 in 0u64..1 << 40) {
            for k in k0..k0 + 500 {
                assert_fixed4_around((2 * k + 1) as f64 / 20000.0);
            }
            for j in j0..j0 + 500 {
                let tie = (2 * j + 1) as f64 / 32.0;
                assert_eq!(tie * 20000.0 % 2.0, 1.0, "{tie} is an exact tie");
                assert_fixed4_around(tie);
            }
        }
    }

    #[test]
    fn fixed4_matches_std_at_the_edges() {
        let near_u64 = [1e15, 1.8e15, 2f64.powi(53) - 0.5, 2f64.powi(64), 1e19];
        for x in near_u64
            .into_iter()
            .chain([1e300, f64::MIN_POSITIVE, 5e-324])
        {
            assert_fixed4_around(x);
        }
        for x in [
            0.0,
            -0.0,
            0.00005,
            -0.00005,
            0.99995,
            99.99995,
            -0.03125,
            -1e300,
            f64::MAX,
        ] {
            assert_fixed4(x);
        }
    }

    /// The CSV branch as it was written with `format!`, kept as the oracle.
    fn csv_sample_oracle(rng: &mut SimRng) -> Vec<u8> {
        let mut out = Vec::with_capacity(SAMPLE_LEN);
        while out.len() < SAMPLE_LEN {
            let line = format!(
                "{},{:.4},{:.4}\n",
                rng.range(0, 100000),
                rng.f64() * 100.0,
                rng.f64()
            );
            out.extend_from_slice(line.as_bytes());
        }
        out.truncate(SAMPLE_LEN);
        out
    }

    #[test]
    fn csv_sample_equals_format_oracle() {
        for seed in 0..10_000 {
            let (mut a, mut b) = (SimRng::new(seed), SimRng::new(seed));
            let got = generate_sample(ContentKind::Csv, &mut a);
            assert_eq!(got, csv_sample_oracle(&mut b), "seed {seed}");
            assert_eq!(a.state(), b.state(), "seed {seed}");
        }
    }

    #[test]
    fn content_kinds_have_expected_entropy_ordering() {
        let mut r = rng();
        let text =
            ByteStats::from_bytes(&generate_sample(ContentKind::Text, &mut r)).shannon_bits();
        let csv = ByteStats::from_bytes(&generate_sample(ContentKind::Csv, &mut r)).shannon_bits();
        let weights = ByteStats::from_bytes(&generate_sample(ContentKind::ModelWeights, &mut r))
            .shannon_bits();
        let cipher =
            ByteStats::from_bytes(&generate_sample(ContentKind::Encrypted, &mut r)).shannon_bits();
        assert!(text < 5.0, "text {text}");
        assert!(csv < 5.5, "csv {csv}");
        assert!(weights > csv, "weights {weights} vs csv {csv}");
        assert!(cipher > 7.5, "cipher {cipher}");
        assert!(weights < cipher, "weights {weights} vs cipher {cipher}");
    }

    #[test]
    fn populate_home_creates_workspace() {
        let mut vfs = Vfs::new();
        vfs.populate_home("alice", &mut rng(), SimTime::ZERO);
        assert!(vfs.len() >= 20);
        assert!(!vfs.list("/home/alice/data/").is_empty());
        assert!(!vfs.list("/home/alice/models/").is_empty());
        assert!(vfs.bytes_under("/home/alice/") > 1_000_000_000);
        assert!(vfs.list("/home/bob/").is_empty());
    }

    #[test]
    fn encryption_raises_entropy() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create(
            "/home/a/data.csv",
            ContentKind::Csv,
            1000,
            "a",
            &mut r,
            SimTime::ZERO,
        )
        .unwrap();
        let before = vfs.read("/home/a/data.csv").unwrap().entropy_bits();
        vfs.encrypt_in_place("/home/a/data.csv", b"ransom-key", SimTime::from_secs(1))
            .unwrap();
        let node = vfs.read("/home/a/data.csv").unwrap();
        assert!(node.entropy_bits() > before + 2.0);
        assert_eq!(node.kind, ContentKind::Encrypted);
        assert_eq!(node.mtime, SimTime::from_secs(1));
    }

    #[test]
    fn rename_and_delete() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/x.csv", ContentKind::Csv, 10, "a", &mut r, SimTime::ZERO)
            .unwrap();
        vfs.rename("/x.csv", "/x.csv.locked", SimTime::from_secs(1))
            .unwrap();
        assert!(matches!(vfs.read("/x.csv"), Err(VfsError::NotFound)));
        assert!(vfs.read("/x.csv.locked").is_ok());
        vfs.delete("/x.csv.locked").unwrap();
        assert!(vfs.is_empty());
    }

    #[test]
    fn create_collision_rejected() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        assert_eq!(
            vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO),
            Err(VfsError::Exists)
        );
    }

    #[test]
    fn rename_collision_rejected() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        vfs.create("/a", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        vfs.create("/b", ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
            .unwrap();
        assert_eq!(vfs.rename("/a", "/b", SimTime::ZERO), Err(VfsError::Exists));
        assert_eq!(
            vfs.rename("/zz", "/c", SimTime::ZERO),
            Err(VfsError::NotFound)
        );
    }

    #[test]
    fn list_prefix_boundaries() {
        let mut vfs = Vfs::new();
        let mut r = rng();
        for p in ["/home/a/1", "/home/a/2", "/home/ab/3", "/home/b/4"] {
            vfs.create(p, ContentKind::Text, 1, "u", &mut r, SimTime::ZERO)
                .unwrap();
        }
        assert_eq!(vfs.list("/home/a/"), vec!["/home/a/1", "/home/a/2"]);
        assert_eq!(vfs.list("/home/ab"), vec!["/home/ab/3"]);
    }
}
