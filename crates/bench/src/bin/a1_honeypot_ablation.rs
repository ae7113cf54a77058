//! A1 — ablation: honeypot fleet size vs time-to-signature and victim
//! exposure, across attacker sophistication and intel propagation
//! delays — measured on the *real* streamed pipeline, not a closed-form
//! wave model.
//!
//! Each cell builds a deployment with `decoys` bait servers, runs an
//! internet-wave campaign through `Pipeline::run_campaigns`
//! (`ja_bench::fleet::run_wave`), and reads the intel loop's outcome:
//! decoys capture the payload mid-stream, `rule_from_capture`
//! signatures reach production monitors after the configured delay,
//! and production flows beginning after propagation raise
//! `AlertSource::HoneypotIntel` alerts. A production visit counts as a
//! *victim* when its payload cell ran before the signature was
//! available.
//!
//! `--tiny` shrinks the sweep to a CI smoke run; `--seed N` reseeds.

use ja_bench::fleet::run_wave;
use ja_core::intel::IntelConfig;
use ja_netsim::time::Duration;

const REALISM: f64 = 0.9;

struct Cell {
    victims_hit: f64,
    victims_protected: f64,
    intel_alerts: f64,
    /// Mean time-to-signature-available in minutes over trials where a
    /// capture happened; NaN when no trial captured.
    tts_min: f64,
}

/// An intel loop whose signatures propagate in `prop_secs`, over decoys
/// of `realism`.
fn intel(prop_secs: u64, realism: f64) -> IntelConfig {
    IntelConfig {
        propagation: Duration::from_secs(prop_secs),
        realism,
        ..Default::default()
    }
}

/// Mean exposure over `trials` waves.
fn cell(
    production: usize,
    decoys: usize,
    intel: &IntelConfig,
    soph: f64,
    seed: u64,
    trials: u64,
) -> Cell {
    let mut hit = 0.0;
    let mut prot = 0.0;
    let mut alerts = 0.0;
    let mut tts = 0.0;
    let mut tts_n = 0u64;
    for t in 0..trials {
        let e = run_wave(production, decoys, intel, soph, seed + 131 * t);
        hit += e.victims_hit as f64;
        prot += e.victims_protected as f64;
        alerts += e.intel_alerts as f64;
        if let Some(at) = e.intel.first_available {
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
            let c = cell(production, decoys, &intel(prop, REALISM), 0.0, seed, trials);
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
        let naive_bait = intel(600, 0.3);
        for &decoys in decoy_axis {
            print!("{decoys:<8}");
            for soph in [0.0f64, 0.5, 1.0] {
                let c = cell(production, decoys, &naive_bait, soph, seed * 7 + 1, trials);
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
