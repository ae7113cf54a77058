//! The honeypot wave on the streamed pipeline: how much exposure do
//! edge decoys remove?
//!
//! An internet-scale mining wave ([`build_wave`]) visits every server of
//! a site in shuffled order. Decoys among them capture the payload, the
//! intel loop publishes its signature, and production visits after the
//! signature propagates are protected. Experiment E6(c) and ablation A1
//! sweep this over fleet size, propagation delay and attacker
//! sophistication.

use ja_core::intel::{build_wave, IntelConfig, IntelOutcome, WaveSpec};
use ja_core::pipeline::{Pipeline, PipelineConfig};
use ja_kernelsim::deployment::DeploymentSpec;
use ja_monitor::alerts::AlertSource;
use ja_netsim::rng::SimRng;
use ja_netsim::time::SimTime;

/// What one wave did to the site.
#[derive(Debug)]
pub struct Exposure {
    /// Production visits whose payload ran before any signature was
    /// available.
    pub victims_hit: usize,
    /// Production visits after one was.
    pub victims_protected: usize,
    /// Honeypot-intel alerts raised on the stream.
    pub intel_alerts: usize,
    /// The intel loop's captures and published signatures.
    pub intel: IntelOutcome,
}

/// Run one wave of an attacker with fingerprinting `sophistication`
/// over a small-lab site of `production` servers plus `decoys` decoys,
/// whose intel loop runs with `intel`.
pub fn run_wave(
    production: usize,
    decoys: usize,
    intel: &IntelConfig,
    sophistication: f64,
    seed: u64,
) -> Exposure {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers: production,
        decoys,
        ..DeploymentSpec::small_lab(seed)
    };
    cfg.intel = Some(intel.clone());
    let mut p = Pipeline::new(cfg);
    let mut rng = SimRng::new(seed ^ 0x1A7E);
    let spec = WaveSpec {
        sophistication,
        ..Default::default()
    };
    let wave = build_wave(p.deployment(), intel, &spec, &mut rng);
    let start = SimTime::from_secs(60);
    let out = p.run_campaigns(vec![(start, wave.campaign)], seed);
    let intel = out.intel.expect("intel loop configured");
    let victims_hit = intel.victims_hit(start, &wave.production_visits);
    Exposure {
        victims_hit,
        victims_protected: wave.production_visits.len() - victims_hit,
        intel_alerts: out.report.alerts_from(AlertSource::HoneypotIntel),
        intel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_monitor::rules::RuleSet;
    use ja_netsim::time::Duration;

    fn naive(decoys: usize, seed: u64) -> Exposure {
        run_wave(8, decoys, &IntelConfig::default(), 0.0, seed)
    }

    #[test]
    fn no_decoys_no_protection() {
        let out = naive(0, 1);
        assert_eq!(out.victims_hit, 8);
        assert_eq!(out.victims_protected, 0);
        assert_eq!(out.intel_alerts, 0);
        assert!(out.intel.first_capture.is_none());
    }

    #[test]
    fn decoys_protect_later_victims() {
        let out = naive(8, 2);
        assert!(out.victims_protected > 0, "{out:?}");
        assert_eq!(out.victims_hit + out.victims_protected, 8);
        // Signature lags capture by the propagation delay.
        let capture = out.intel.first_capture.expect("a decoy was hit");
        assert_eq!(
            out.intel.first_available,
            Some(capture + Duration::from_secs(600))
        );
    }

    #[test]
    fn more_decoys_more_protection_on_average() {
        let protected = |decoys| {
            (0..6)
                .map(|seed| naive(decoys, seed).victims_protected)
                .sum::<usize>()
        };
        let (p1, p16) = (protected(1), protected(16));
        assert!(p16 > p1 + 6, "1 decoy {p1}, 16 decoys {p16} (of 48)");
    }

    #[test]
    fn sophisticated_attacker_skips_naive_decoys() {
        let bait = IntelConfig {
            realism: 0.0,
            ..Default::default()
        };
        // Every decoy is fingerprinted, so none captures anything.
        let out = run_wave(8, 10, &bait, 1.0, 3);
        assert_eq!(out.intel.captures, 0);
        assert_eq!(out.victims_protected, 0);
    }

    #[test]
    fn learned_rule_matches_payload_in_monitor() {
        let out = naive(4, 4);
        assert_eq!(out.intel.published.len(), 1);
        let mut rules = RuleSet::new();
        rules.add(out.intel.published[0].rule.clone());
        assert!(!rules
            .match_code(&WaveSpec::default().payload_code)
            .is_empty());
    }

    #[test]
    fn distinct_payloads_each_contribute_a_signature() {
        // Regression: only the global first capture used to publish, so
        // a rotated dropper's later variants never produced intel.
        let naive = IntelConfig {
            realism: 0.0,
            ..Default::default()
        };
        let mut cfg = PipelineConfig::small_lab(6);
        cfg.deployment = DeploymentSpec {
            servers: 4,
            decoys: 10,
            ..DeploymentSpec::small_lab(6)
        };
        cfg.intel = Some(naive.clone());
        let mut p = Pipeline::new(cfg);
        let mut rng = SimRng::new(6);
        let campaigns = ["a", "b"]
            .iter()
            .enumerate()
            .map(|(i, variant)| {
                let spec = WaveSpec {
                    payload_code: format!("subprocess.Popen('/tmp/.kworkerd_variant_{variant}')"),
                    ..Default::default()
                };
                let wave = build_wave(p.deployment(), &naive, &spec, &mut rng);
                (SimTime::from_secs(60 + 3600 * i as u64), wave.campaign)
            })
            .collect();
        let out = p
            .run_campaigns(campaigns, 6)
            .intel
            .expect("intel loop configured");
        // Both variants were captured, and each published exactly one
        // rule, first capture wins.
        assert_eq!(out.published.len(), 2, "{:?}", out.published);
        let (a, b) = (out.published[0].available_at, out.published[1].available_at);
        assert_eq!(out.first_available, Some(a.min(b)));
        // Repeated captures of an already-signed payload do not
        // republish: 10 naive decoys hit by two waves, only 2 rules.
        assert_eq!(out.captures, 20);
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, b) = (naive(4, 9), naive(4, 9));
        assert_eq!(a.victims_hit, b.victims_hit);
        assert_eq!(a.intel_alerts, b.intel_alerts);
        assert_eq!(a.intel.first_capture, b.intel.first_capture);
    }
}
