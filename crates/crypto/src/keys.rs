//! Key material, cryptoperiods and rotation policies.
//!
//! The paper (§IV.B) argues Jupyter's cryptographic design "should be
//! adapted to resist emerging quantum threats", naming *harvest now,
//! decrypt later* explicitly. The exposure window of recorded traffic is
//! governed by (a) which key-exchange protected each session and (b) how
//! long each key was in service. This module provides that bookkeeping;
//! [`crate::pqc`] supplies the adversary.

/// Key-exchange algorithm families relevant to the quantum-threat model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KexAlgorithm {
    /// Classical elliptic-curve / finite-field exchange (X25519, ECDHE,
    /// RSA key transport). Broken retroactively by a cryptographically
    /// relevant quantum computer (CRQC).
    Classical,
    /// Hybrid classical+PQC exchange (e.g. X25519+ML-KEM). Secure as long
    /// as *either* component holds; treated as quantum-resistant here.
    HybridPqc,
    /// Pure post-quantum KEM (ML-KEM / Kyber class).
    PurePqc,
}

impl KexAlgorithm {
    /// Whether traffic protected only by this exchange can be decrypted
    /// once a CRQC exists.
    pub fn quantum_vulnerable(self) -> bool {
        matches!(self, KexAlgorithm::Classical)
    }

    /// Short human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            KexAlgorithm::Classical => "classical",
            KexAlgorithm::HybridPqc => "hybrid-pqc",
            KexAlgorithm::PurePqc => "pure-pqc",
        }
    }
}

/// A session key with its provenance.
#[derive(Clone, Debug)]
pub struct SessionKey {
    /// Unique key id within the simulation.
    pub id: u64,
    /// Simulation time (seconds) the key was established.
    pub established_at: u64,
    /// Key-exchange family that produced it.
    pub kex: KexAlgorithm,
    /// The key bytes (derived deterministically for simulation).
    pub bytes: [u8; 32],
}

impl SessionKey {
    /// Derive a key deterministically from (id, kex, established_at).
    pub fn derive(id: u64, kex: KexAlgorithm, established_at: u64) -> Self {
        let mut seed = Vec::with_capacity(24);
        seed.extend_from_slice(&id.to_le_bytes());
        seed.extend_from_slice(&established_at.to_le_bytes());
        seed.push(match kex {
            KexAlgorithm::Classical => 0,
            KexAlgorithm::HybridPqc => 1,
            KexAlgorithm::PurePqc => 2,
        });
        SessionKey {
            id,
            established_at,
            kex,
            bytes: crate::sha256::sha256(&seed),
        }
    }
}

/// Key-rotation policy: maximum cryptoperiod before a key must be retired.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RotationPolicy {
    /// Maximum seconds a key may stay in service.
    pub max_cryptoperiod_secs: u64,
}

impl RotationPolicy {
    /// NIST SP 800-57-style conservative default: 24 hours for session
    /// keys of a web-facing service.
    pub fn daily() -> Self {
        RotationPolicy {
            max_cryptoperiod_secs: 86_400,
        }
    }

    /// Is a key established at `established_at` still valid at `now`?
    pub fn is_valid(&self, established_at: u64, now: u64) -> bool {
        now.saturating_sub(established_at) < self.max_cryptoperiod_secs
    }
}

/// A rolling key ring that mints a fresh key whenever the policy expires
/// the current one. Deterministic: key ids increase monotonically.
#[derive(Clone, Debug)]
pub struct KeyRing {
    policy: RotationPolicy,
    kex: KexAlgorithm,
    current: SessionKey,
    next_id: u64,
    /// Retired keys (id, established_at, retired_at) — the audit trail the
    /// harvest-now-decrypt-later experiment walks.
    pub history: Vec<(u64, u64, u64)>,
}

impl KeyRing {
    /// Create a ring with its first key established at `now`.
    pub fn new(policy: RotationPolicy, kex: KexAlgorithm, now: u64) -> Self {
        KeyRing {
            policy,
            kex,
            current: SessionKey::derive(0, kex, now),
            next_id: 1,
            history: Vec::new(),
        }
    }

    /// The key to use at time `now`, rotating first if the cryptoperiod
    /// lapsed (possibly several times for large gaps).
    pub fn key_at(&mut self, now: u64) -> &SessionKey {
        while !self.policy.is_valid(self.current.established_at, now) {
            let established = self.current.established_at;
            let retired = established + self.policy.max_cryptoperiod_secs;
            self.history.push((self.current.id, established, retired));
            self.current = SessionKey::derive(self.next_id, self.kex, retired);
            self.next_id += 1;
        }
        &self.current
    }

    /// Switch the ring's key-exchange family (models a PQC migration); the
    /// change takes effect at the next rotation.
    pub fn migrate(&mut self, kex: KexAlgorithm) {
        self.kex = kex;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derive_is_deterministic_and_distinct() {
        let a = SessionKey::derive(1, KexAlgorithm::Classical, 100);
        let b = SessionKey::derive(1, KexAlgorithm::Classical, 100);
        assert_eq!(a.bytes, b.bytes);
        let c = SessionKey::derive(2, KexAlgorithm::Classical, 100);
        assert_ne!(a.bytes, c.bytes);
        let d = SessionKey::derive(1, KexAlgorithm::PurePqc, 100);
        assert_ne!(a.bytes, d.bytes);
    }

    #[test]
    fn vulnerability_classification() {
        assert!(KexAlgorithm::Classical.quantum_vulnerable());
        assert!(!KexAlgorithm::HybridPqc.quantum_vulnerable());
        assert!(!KexAlgorithm::PurePqc.quantum_vulnerable());
    }

    #[test]
    fn policy_validity_window() {
        let p = RotationPolicy::daily();
        assert!(p.is_valid(0, 0));
        assert!(p.is_valid(0, 86_399));
        assert!(!p.is_valid(0, 86_400));
    }

    #[test]
    fn ring_rotates_on_schedule() {
        let mut ring = KeyRing::new(RotationPolicy::daily(), KexAlgorithm::Classical, 0);
        let first = ring.key_at(1000).clone();
        assert_eq!(first.id, 0);
        let second = ring.key_at(86_400).clone();
        assert_eq!(second.id, 1);
        assert_ne!(first.bytes, second.bytes);
        assert_eq!(ring.history.len(), 1);
        assert_eq!(ring.history[0], (0, 0, 86_400));
    }

    #[test]
    fn ring_catches_up_over_large_gap() {
        let mut ring = KeyRing::new(RotationPolicy::daily(), KexAlgorithm::Classical, 0);
        // Jump ten days ahead: ten rotations should have occurred.
        let k = ring.key_at(10 * 86_400).clone();
        assert_eq!(k.id, 10);
        assert_eq!(ring.history.len(), 10);
    }

    #[test]
    fn migration_changes_new_keys_only() {
        let mut ring = KeyRing::new(RotationPolicy::daily(), KexAlgorithm::Classical, 0);
        assert_eq!(ring.key_at(0).kex, KexAlgorithm::Classical);
        ring.migrate(KexAlgorithm::HybridPqc);
        // Current key unchanged until rotation.
        assert_eq!(ring.key_at(100).kex, KexAlgorithm::Classical);
        assert_eq!(ring.key_at(86_400).kex, KexAlgorithm::HybridPqc);
    }
}
