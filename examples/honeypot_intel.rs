//! Edge honeypots, live: the paper's defense for staying "ahead of
//! attackers", demonstrated on the real streamed pipeline. A deployment
//! hosts deliberately exposed decoy servers; an internet wave visits
//! every server in shuffled order; decoys capture the payload
//! mid-stream; the extracted signature propagates to production and
//! hot-reloads into the running monitor — so production flows that
//! begin after propagation raise `HoneypotIntel` alerts while the
//! capture is still streaming.
//!
//! ```sh
//! cargo run --release --example honeypot_intel
//! ```

use jupyter_audit::core::intel::{build_wave, IntelConfig, WaveCampaign, WaveSpec};
use jupyter_audit::core::pipeline::{Pipeline, PipelineConfig, RunOutcome};
use jupyter_audit::kernelsim::deployment::DeploymentSpec;
use jupyter_audit::monitor::alerts::AlertSource;
use jupyter_audit::netsim::rng::SimRng;
use jupyter_audit::netsim::time::{Duration, SimTime};

/// When the wave starts: 60 s into the run.
const START: SimTime = SimTime(60_000_000);

/// Run one wave against 8 production servers and `decoys` bait servers.
fn run(decoys: usize, propagation_secs: u64) -> (WaveCampaign, RunOutcome) {
    let mut cfg = PipelineConfig::small_lab(7);
    cfg.deployment = DeploymentSpec {
        servers: 8,
        decoys,
        ..DeploymentSpec::small_lab(7)
    };
    let intel = IntelConfig {
        propagation: Duration::from_secs(propagation_secs),
        realism: 0.9,
        ..Default::default()
    };
    cfg.intel = Some(intel.clone());
    let mut p = Pipeline::new(cfg);
    let mut rng = SimRng::new(11);
    let wave = build_wave(p.deployment(), &intel, &WaveSpec::default(), &mut rng);
    let out = p.run_campaigns(vec![(START, wave.campaign.clone())], 7);
    (wave, out)
}

/// Victims hit, decoy captures and honeypot-intel alerts of one wave.
fn exposure(decoys: usize, propagation_secs: u64) -> (usize, usize, usize) {
    let (wave, out) = run(decoys, propagation_secs);
    let intel = out.intel.expect("intel loop configured");
    (
        intel.victims_hit(START, &wave.production_visits),
        intel.captures,
        out.report.alerts_from(AlertSource::HoneypotIntel),
    )
}

fn main() {
    println!("=== honeypot intel loop on the streamed pipeline ===\n");

    // One fully narrated run: 8 production servers, 4 decoys.
    let (wave, out) = run(4, 300);
    println!(
        "wave: {} production visits, {} decoy visits, {} decoys fingerprinted+skipped",
        wave.production_visits.len(),
        wave.decoy_visits.len(),
        wave.decoys_skipped
    );
    let intel = out.intel.as_ref().expect("intel loop configured");
    println!("decoy captures:      {}", intel.captures);
    println!("first capture:       {:?}", intel.first_capture);
    println!("signature available: {:?}", intel.first_available);
    for pr in &intel.published {
        println!(
            "learned rule {} ({:?}) from the captured payload",
            pr.rule.id, pr.rule.pattern
        );
    }
    println!(
        "honeypot-intel alerts on the live stream: {}",
        out.report.alerts_from(AlertSource::HoneypotIntel)
    );
    println!("\nreport header:");
    println!("{}", out.report.render().lines().next().unwrap_or_default());

    // The ablation in miniature: decoys and fast intel shrink exposure.
    println!("\nvictims hit (of 8 production servers) vs fleet size and propagation delay:");
    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>14}",
        "decoys", "victims", "captures", "hp alerts", "(prop 300 s)"
    );
    for decoys in [0usize, 2, 4, 8] {
        let (victims, captures, alerts) = exposure(decoys, 300);
        println!("{decoys:<8} {victims:>12} {captures:>12} {alerts:>12}");
    }
    println!("\nfaster intel, fewer victims (4 decoys):");
    for prop in [60u64, 300, 1800] {
        let (victims, _, alerts) = exposure(4, prop);
        println!("  propagation {prop:>5} s -> victims {victims}, honeypot alerts {alerts}");
    }
}
