//! Quantum-threat models: harvest-now-decrypt-later and signature spoofing.
//!
//! The paper names two "immediate threats" from quantum computing
//! (§IV.B, citing Sowa et al. 2024): **harvest now, decrypt later**
//! (an adversary records encrypted Jupyter traffic today and decrypts it
//! once a cryptographically relevant quantum computer exists) and
//! **digital signature spoofing** (forging classically-signed messages,
//! e.g. the HMAC-keyed kernel protocol bootstrap or notebook signing).
//!
//! This module does not simulate a quantum computer; it is a *bookkeeping
//! model over exposure windows*, which is exactly what risk analyses of
//! HNDL do: for every recorded session we know the key-exchange family and
//! byte volume, and for a given CRQC arrival date we can compute how much
//! recorded plaintext becomes readable. Experiment E9 sweeps PQC adoption
//! curves against CRQC arrival dates.

use crate::keys::KexAlgorithm;

/// One recorded (wire-tapped) session in the adversary's archive.
#[derive(Clone, Debug)]
pub struct RecordedSession {
    /// Simulation day the session was captured.
    pub captured_day: u32,
    /// Key exchange protecting the session.
    pub kex: KexAlgorithm,
    /// Application bytes in the session.
    pub bytes: u64,
    /// How many days the content stays sensitive (research embargo,
    /// credentials lifetime, …). After this the decryption is worthless.
    pub sensitivity_days: u32,
}

/// A harvest-now-decrypt-later adversary: records everything, decrypts
/// what becomes breakable when the CRQC arrives.
#[derive(Clone, Debug, Default)]
pub struct HarvestAdversary {
    archive: Vec<RecordedSession>,
}

impl HarvestAdversary {
    /// Fresh adversary with an empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a session (the adversary taps passively; recording is free).
    pub fn record(&mut self, s: RecordedSession) {
        self.archive.push(s);
    }

    /// Total bytes in the archive.
    pub fn archived_bytes(&self) -> u64 {
        self.archive.iter().map(|s| s.bytes).sum()
    }

    /// Bytes readable by the adversary if a CRQC arrives on `crqc_day`:
    /// sessions that used a quantum-vulnerable exchange *and* are still
    /// sensitive on that day.
    pub fn exposed_bytes(&self, crqc_day: u32) -> u64 {
        self.archive
            .iter()
            .filter(|s| s.kex.quantum_vulnerable())
            .filter(|s| s.captured_day + s.sensitivity_days > crqc_day)
            .map(|s| s.bytes)
            .sum()
    }

    /// Fraction of archived bytes exposed at `crqc_day` (0.0 for an empty
    /// archive).
    pub fn exposure_ratio(&self, crqc_day: u32) -> f64 {
        let total = self.archived_bytes();
        if total == 0 {
            return 0.0;
        }
        self.exposed_bytes(crqc_day) as f64 / total as f64
    }
}

/// Logistic PQC adoption curve: fraction of sessions using quantum-safe
/// exchange as a function of the day.
///
/// Modeled on the measurement methodology of the PQC network instrument
/// paper the taxonomy cites (\[17\]): adoption starts near `floor`, ramps
/// around `midpoint_day` with steepness `rate`, and saturates near
/// `ceiling`.
#[derive(Clone, Copy, Debug)]
pub struct AdoptionCurve {
    /// Initial adoption fraction (e.g. 0.02 — early Chrome/Cloudflare).
    pub floor: f64,
    /// Final adoption fraction (≤ 1.0; legacy stragglers keep it below 1).
    pub ceiling: f64,
    /// Day at which adoption is halfway between floor and ceiling.
    pub midpoint_day: f64,
    /// Logistic growth rate per day.
    pub rate: f64,
}

impl AdoptionCurve {
    /// A "migration starts now" curve: 2% → 95% with a 2-year midpoint.
    pub fn optimistic() -> Self {
        AdoptionCurve {
            floor: 0.02,
            ceiling: 0.95,
            midpoint_day: 730.0,
            rate: 0.01,
        }
    }

    /// A stalled migration: 2% → 40% with a 6-year midpoint.
    pub fn pessimistic() -> Self {
        AdoptionCurve {
            floor: 0.02,
            ceiling: 0.40,
            midpoint_day: 2190.0,
            rate: 0.004,
        }
    }

    /// No migration at all (everything classical, forever).
    pub fn none() -> Self {
        AdoptionCurve {
            floor: 0.0,
            ceiling: 0.0,
            midpoint_day: 0.0,
            rate: 1.0,
        }
    }

    /// Adoption fraction on `day`.
    pub fn fraction(&self, day: u32) -> f64 {
        if self.ceiling <= self.floor {
            return self.floor;
        }
        let x = (day as f64 - self.midpoint_day) * self.rate;
        self.floor + (self.ceiling - self.floor) / (1.0 + (-x).exp())
    }

    /// Deterministically decide whether session number `seq` on `day` uses
    /// a quantum-safe exchange, by comparing a hash-derived uniform draw
    /// against the adoption fraction.
    pub fn pick_kex(&self, day: u32, seq: u64) -> KexAlgorithm {
        let mut seed = Vec::with_capacity(12);
        seed.extend_from_slice(&day.to_le_bytes());
        seed.extend_from_slice(&seq.to_le_bytes());
        let h = crate::sha256::sha256(&seed);
        let draw = u64::from_le_bytes(h[..8].try_into().expect("8 bytes")) as f64 / u64::MAX as f64;
        if draw < self.fraction(day) {
            KexAlgorithm::HybridPqc
        } else {
            KexAlgorithm::Classical
        }
    }
}

/// Signature schemes for the spoofing analysis.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SignatureScheme {
    /// RSA-2048 / ECDSA-P256 class: broken by Shor once a CRQC exists.
    ClassicalPk,
    /// Symmetric HMAC-SHA256 (Jupyter's message signing): Grover only
    /// halves effective strength; 256-bit keys stay safe.
    HmacSha256,
    /// ML-DSA (Dilithium) class post-quantum signatures.
    PostQuantum,
}

impl SignatureScheme {
    /// Can an adversary with a CRQC forge signatures under this scheme?
    pub fn quantum_forgeable(self) -> bool {
        matches!(self, SignatureScheme::ClassicalPk)
    }

    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            SignatureScheme::ClassicalPk => "classical-pk",
            SignatureScheme::HmacSha256 => "hmac-sha256",
            SignatureScheme::PostQuantum => "ml-dsa",
        }
    }
}

/// Outcome of presenting a (possibly forged) signed artifact to a
/// verifier, before and after CRQC arrival.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpoofingOutcome {
    /// Scheme under test.
    pub scheme: SignatureScheme,
    /// Whether a forgery is accepted before the CRQC exists.
    pub forgeable_before_crqc: bool,
    /// Whether a forgery is accepted after the CRQC exists.
    pub forgeable_after_crqc: bool,
}

/// Evaluate the spoofing risk matrix for all schemes.
pub fn spoofing_matrix() -> Vec<SpoofingOutcome> {
    [
        SignatureScheme::ClassicalPk,
        SignatureScheme::HmacSha256,
        SignatureScheme::PostQuantum,
    ]
    .iter()
    .map(|&scheme| SpoofingOutcome {
        scheme,
        forgeable_before_crqc: false,
        forgeable_after_crqc: scheme.quantum_forgeable(),
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session(day: u32, kex: KexAlgorithm, bytes: u64, sens: u32) -> RecordedSession {
        RecordedSession {
            captured_day: day,
            kex,
            bytes,
            sensitivity_days: sens,
        }
    }

    #[test]
    fn empty_archive_no_exposure() {
        let a = HarvestAdversary::new();
        assert_eq!(a.exposed_bytes(1000), 0);
        assert_eq!(a.exposure_ratio(1000), 0.0);
    }

    #[test]
    fn classical_sessions_exposed_while_sensitive() {
        let mut a = HarvestAdversary::new();
        a.record(session(0, KexAlgorithm::Classical, 1000, 3650));
        a.record(session(0, KexAlgorithm::HybridPqc, 1000, 3650));
        // CRQC on day 100: only the classical session is readable.
        assert_eq!(a.exposed_bytes(100), 1000);
        assert!((a.exposure_ratio(100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn expired_sensitivity_not_counted() {
        let mut a = HarvestAdversary::new();
        a.record(session(0, KexAlgorithm::Classical, 1000, 30));
        // CRQC arrives on day 31: the secret already expired.
        assert_eq!(a.exposed_bytes(31), 0);
        // On day 29 it would still matter.
        assert_eq!(a.exposed_bytes(29), 1000);
    }

    #[test]
    fn adoption_curve_monotonic() {
        let c = AdoptionCurve::optimistic();
        let mut prev = 0.0;
        for day in (0..4000).step_by(100) {
            let f = c.fraction(day);
            assert!(f >= prev - 1e-12, "non-monotone at day {day}");
            assert!((0.0..=1.0).contains(&f));
            prev = f;
        }
        assert!(c.fraction(0) < 0.05);
        assert!(c.fraction(4000) > 0.9);
    }

    #[test]
    fn none_curve_always_classical() {
        let c = AdoptionCurve::none();
        for day in [0u32, 100, 10_000] {
            assert_eq!(c.fraction(day), 0.0);
            assert_eq!(c.pick_kex(day, 7), KexAlgorithm::Classical);
        }
    }

    #[test]
    fn pick_kex_tracks_fraction() {
        let c = AdoptionCurve {
            floor: 0.5,
            ceiling: 0.5001,
            midpoint_day: 0.0,
            rate: 1.0,
        };
        let n = 4000u64;
        let hybrid = (0..n)
            .filter(|&s| c.pick_kex(10, s) == KexAlgorithm::HybridPqc)
            .count() as f64;
        let frac = hybrid / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "got {frac}");
    }

    #[test]
    fn pick_kex_deterministic() {
        let c = AdoptionCurve::optimistic();
        assert_eq!(c.pick_kex(100, 42), c.pick_kex(100, 42));
    }

    #[test]
    fn spoofing_matrix_shape() {
        let m = spoofing_matrix();
        assert_eq!(m.len(), 3);
        assert!(m.iter().all(|o| !o.forgeable_before_crqc));
        let classical = m
            .iter()
            .find(|o| o.scheme == SignatureScheme::ClassicalPk)
            .unwrap();
        assert!(classical.forgeable_after_crqc);
        let hmac = m
            .iter()
            .find(|o| o.scheme == SignatureScheme::HmacSha256)
            .unwrap();
        assert!(!hmac.forgeable_after_crqc);
    }
}
