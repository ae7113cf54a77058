//! E6 — the evasion lessons (§IV.A): (a) low-and-slow pacing pushes
//! activity under detector thresholds, (b) an adversary can infer those
//! thresholds by probing and then fly just beneath them, and (c) edge
//! honeypots claw back protection by learning signatures upstream.

use ja_attackgen::evasion::{low_and_slow, RuleInferenceAttacker};
use ja_attackgen::takeover::{campaign as takeover_campaign, TakeoverParams};
use ja_bench::fleet::run_wave;
use ja_core::intel::IntelConfig;
use ja_core::pipeline::{Pipeline, PipelineConfig};
use ja_netsim::time::SimTime;

fn main() {
    let ja_bench::Args { seed, tiny, .. } = ja_bench::Args::from_env();
    println!("=== E6: evasion and the honeypot response (seed {seed}) ===\n");

    // (a) Low-and-slow brute force vs the windowed auth detector.
    println!("(a) low-and-slow stretching of a password-guessing campaign");
    println!(
        "{:<12} {:>16} {:>12} {:>12}",
        "stretch", "fails/5min max", "rate rule", "breadth rule"
    );
    for factor in [1.0f64, 3.0, 10.0, 30.0, 100.0] {
        let mut p = Pipeline::new(PipelineConfig::small_lab(seed));
        let targets: Vec<String> = (0..4)
            .map(|i| p.deployment().owner_of(i).to_string())
            .collect();
        let base = takeover_campaign(&TakeoverParams {
            targets,
            guesses_per_account: 30,
            guess_interval_secs: 2.0,
            ..Default::default()
        });
        let slowed = low_and_slow(base, factor);
        let out = p.run_campaigns(vec![(SimTime::from_secs(60), slowed)], seed);
        let rate_hit = out
            .report
            .alerts
            .iter()
            .any(|a| a.detail.contains("brute force"));
        let breadth_hit = out
            .report
            .alerts
            .iter()
            .any(|a| a.detail.contains("spraying"));
        // Max failures in any 300 s window at this pacing.
        let per_window = (300.0 / (2.0 * factor)).floor().min(120.0) as u64;
        println!(
            "{:<12} {:>16} {:>12} {:>12}",
            format!("{factor:.0}x"),
            per_window,
            if rate_hit { "YES" } else { "evaded" },
            if breadth_hit { "YES" } else { "evaded" }
        );
    }

    println!("  (the rate rule needs >=12 failures in a 300 s window; stretching defeats it, but");
    println!("   the breadth rule keys on distinct usernames and survives any pacing.)");

    // (b) Threshold inference.
    println!("\n(b) detection-rule inference (binary search against the volume oracle)");
    let threshold = 10_000_000u64; // the default exfil_bulk_bytes
    let mut attacker = RuleInferenceAttacker::new(1 << 32);
    let inferred = attacker.infer(|v| v >= threshold, 64);
    println!(
        "  defender threshold {} bytes; attacker inferred safe ceiling {} bytes in {} probes",
        threshold, inferred, attacker.probes_used
    );
    println!(
        "  a {}-byte-per-flow exfil now evades the bulk rule (volume split across flows),",
        inferred
    );
    println!("  leaving only beacon-periodicity and audit-volume rules in play.");

    // (c) Honeypot time-to-signature, on the streamed pipeline.
    let (production, trials) = if tiny { (4, 2) } else { (16, 10) };
    let intel = IntelConfig::default();
    println!(
        "\n(c) honeypot fleet: victim exposure during a mining wave \
         ({production} production targets, sophistication 0.3)"
    );
    println!(
        "{:<8} {:>14} {:>16} {:>16}",
        "decoys", "victims hit", "protected", "protection"
    );
    for decoys in [0usize, 2, 4, 8, 16] {
        let (mut hit, mut prot) = (0, 0);
        for t in 0..trials {
            let e = run_wave(production, decoys, &intel, 0.3, seed * 1000 + t);
            hit += e.victims_hit;
            prot += e.victims_protected;
        }
        println!(
            "{:<8} {:>14.1} {:>16.1} {:>15.1}%",
            decoys,
            hit as f64 / trials as f64,
            prot as f64 / trials as f64,
            100.0 * prot as f64 / (hit + prot).max(1) as f64
        );
    }
}
