//! A1 — ablation: honeypot fleet size vs time-to-signature and victim
//! exposure, across attacker sophistication and intel propagation
//! delays — measured on the *real* streamed pipeline, not a closed-form
//! wave model.
//!
//! Each cell builds a deployment with `decoys` bait servers, runs an
//! internet-wave campaign through `Pipeline::run_campaigns`,
//! and reads the intel loop's outcome: decoys capture the payload
//! mid-stream, `rule_from_capture` signatures propagate over the intel
//! bus after the configured delay, and production flows beginning after
//! propagation raise `AlertSource::HoneypotIntel` alerts. A production
//! visit counts as a *victim* when its payload cell ran before the
//! signature was available.
//!
//! `--tiny` shrinks the sweep to a CI smoke run; `--seed N` reseeds.

use ja_core::intel::{build_wave, IntelConfig, WaveSpec};
use ja_core::pipeline::{Pipeline, PipelineConfig};
use ja_kernelsim::deployment::DeploymentSpec;
use ja_monitor::alerts::AlertSource;
use ja_netsim::rng::SimRng;
use ja_netsim::time::{Duration, SimTime};

const REALISM: f64 = 0.9;

struct Cell {
    victims_hit: f64,
    victims_protected: f64,
    intel_alerts: f64,
    /// Mean time-to-signature-available in minutes over trials where a
    /// capture happened; NaN when no trial captured.
    tts_min: f64,
}

/// Run one wave through the streamed pipeline and measure exposure.
#[allow(clippy::too_many_arguments)]
fn run_wave(
    production: usize,
    decoys: usize,
    prop_secs: u64,
    sophistication: f64,
    realism: f64,
    seed: u64,
) -> (usize, usize, usize, Option<SimTime>) {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers: production,
        decoys,
        ..DeploymentSpec::small_lab(seed)
    };
    let intel = IntelConfig {
        propagation: Duration::from_secs(prop_secs),
        realism,
        ..Default::default()
    };
    cfg.intel = Some(intel.clone());
    let mut p = Pipeline::new(cfg);
    let mut rng = SimRng::new(seed ^ 0x1A7E);
    let spec = WaveSpec {
        sophistication,
        ..Default::default()
    };
    let wave = build_wave(p.deployment(), &intel, &spec, &mut rng);
    let start = SimTime::from_secs(60);
    let out = p.run_campaigns(vec![(start, wave.campaign)], seed);
    let intel = out.intel.expect("intel loop configured");
    let avail = intel.first_available;
    let hit = wave
        .production_visits
        .iter()
        .filter(|(_, off)| avail.map_or(true, |a| start + *off < a))
        .count();
    let protected = wave.production_visits.len() - hit;
    let intel_alerts = out.report.alerts_from(AlertSource::HoneypotIntel);
    (hit, protected, intel_alerts, avail)
}

#[allow(clippy::too_many_arguments)]
fn cell(
    production: usize,
    decoys: usize,
    prop_secs: u64,
    soph: f64,
    realism: f64,
    seed: u64,
    trials: u64,
) -> Cell {
    let mut hit = 0.0;
    let mut prot = 0.0;
    let mut alerts = 0.0;
    let mut tts = 0.0;
    let mut tts_n = 0u64;
    for t in 0..trials {
        let (h, p, a, avail) =
            run_wave(production, decoys, prop_secs, soph, realism, seed + 131 * t);
        hit += h as f64;
        prot += p as f64;
        alerts += a as f64;
        if let Some(at) = avail {
            tts += at.as_secs_f64() / 60.0;
            tts_n += 1;
        }
    }
    Cell {
        victims_hit: hit / trials as f64,
        victims_protected: prot / trials as f64,
        intel_alerts: alerts / trials as f64,
        tts_min: if tts_n > 0 {
            tts / tts_n as f64
        } else {
            f64::NAN
        },
    }
}

fn main() {
    let ja_bench::Args { seed, tiny, .. } = ja_bench::Args::from_env();
    let (production, trials) = if tiny { (4, 3) } else { (12, 5) };
    let decoy_axis: &[usize] = if tiny { &[0, 4] } else { &[0, 1, 2, 4, 8] };
    let prop_axis: &[u64] = if tiny { &[60] } else { &[60, 600, 3600] };
    println!(
        "=== A1: honeypot ablation on the streamed pipeline \
         ({production} production servers, realism {REALISM}, seed {seed}, {trials} trial(s)/cell) ===\n"
    );

    println!(
        "victims hit (of {production}) and time-to-signature vs decoys × propagation delay \
         (naive attacker):"
    );
    print!("{:<8}", "decoys");
    for p in prop_axis {
        print!(" {:>22}", format!("prop {p}s: hit / tts"));
    }
    println!();
    let mut grid: Vec<Vec<Cell>> = Vec::new();
    for &decoys in decoy_axis {
        print!("{decoys:<8}");
        let mut row = Vec::new();
        for &prop in prop_axis {
            let c = cell(production, decoys, prop, 0.0, REALISM, seed, trials);
            print!(
                " {:>22}",
                format!("{:>5.1} / {:>6.1}min", c.victims_hit, c.tts_min)
            );
            row.push(c);
        }
        println!();
        grid.push(row);
    }

    println!("\nhoneypot-intel alerts raised per run (same sweep):");
    print!("{:<8}", "decoys");
    for p in prop_axis {
        print!(" {:>14}", format!("prop {p}s"));
    }
    println!();
    for (di, &decoys) in decoy_axis.iter().enumerate() {
        print!("{decoys:<8}");
        for c in &grid[di] {
            print!(" {:>14.1}", c.intel_alerts);
        }
        println!();
    }

    // The qualitative claims the paper's §IV.A rests on, checked on the
    // real pipeline: decoys reduce exposure, and so does faster intel.
    let no_decoys = &grid[0][0];
    let most_decoys = &grid[grid.len() - 1][0];
    assert_eq!(
        no_decoys.victims_hit, production as f64,
        "without decoys every production visit lands"
    );
    assert!(
        most_decoys.victims_hit < no_decoys.victims_hit,
        "more decoys must reduce victims: {} -> {}",
        no_decoys.victims_hit,
        most_decoys.victims_hit
    );
    assert!(
        most_decoys.victims_protected > 0.0 && most_decoys.intel_alerts > 0.0,
        "the intel loop must actually fire"
    );
    if prop_axis.len() > 1 {
        let last = grid.len() - 1;
        let fast = &grid[last][0];
        let slow = &grid[last][prop_axis.len() - 1];
        assert!(
            fast.victims_hit <= slow.victims_hit,
            "shorter propagation must not increase victims: {} vs {}",
            fast.victims_hit,
            slow.victims_hit
        );
    }

    if !tiny {
        // Sophistication only buys the attacker anything against
        // low-realism bait, so this table sweeps a naive fleet.
        println!("\nvictims hit vs decoys × attacker sophistication (prop 600s, realism 0.3):");
        println!(
            "{:<8} {:>10} {:>10} {:>10}",
            "decoys", "s=0.0", "s=0.5", "s=1.0"
        );
        for &decoys in decoy_axis {
            print!("{decoys:<8}");
            for soph in [0.0f64, 0.5, 1.0] {
                let c = cell(production, decoys, 600, soph, 0.3, seed * 7 + 1, trials);
                print!(" {:>10.1}", c.victims_hit);
            }
            println!();
        }
        println!(
            "\n(decoys cut exposure; fingerprinting attackers claw it back when realism is low.)"
        );
    }
    println!("\nA1 qualitative checks passed.");
}
