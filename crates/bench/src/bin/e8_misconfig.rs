//! E8 — security misconfiguration at fleet scale: seed fleets with
//! increasing per-axis misconfiguration rates, scan them, count findings
//! per class, and measure what a mass scan-and-exploit wave actually
//! compromises.

use ja_attackgen::campaign::execute;
use ja_attackgen::misconfig::{campaign, ScanParams};
use ja_kernelsim::config::MisconfigClass;
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_netsim::time::SimTime;
use std::collections::BTreeMap;

const FLEET: usize = 32;

fn main() {
    let seed = ja_bench::Args::from_env().seed;
    println!("=== E8: misconfiguration scan across fleets (seed {seed}) ===\n");
    println!("fleet size: {FLEET} single-user servers; sweeping per-axis misconfiguration rate\n");
    print!("{:<30}", "misconfiguration class");
    let rates = [0.05f64, 0.1, 0.2, 0.4];
    for r in rates {
        print!(" {:>8}", format!("p={r}"));
    }
    println!();
    println!("{}", "-".repeat(68));

    let mut per_rate: Vec<(BTreeMap<MisconfigClass, usize>, usize, usize)> = Vec::new();
    for (i, rate) in rates.iter().enumerate() {
        let spec = DeploymentSpec {
            servers: FLEET,
            misconfig_rate: *rate,
            weak_cred_fraction: 0.2,
            breached_cred_fraction: 0.05,
            mfa_fraction: 0.5,
            decoys: 0,
            seed: seed + i as u64,
        };
        let mut d = Deployment::build(&spec);
        let mut counts: BTreeMap<MisconfigClass, usize> = BTreeMap::new();
        for srv in &d.servers {
            for m in srv.config.misconfigurations() {
                *counts.entry(m).or_default() += 1;
            }
        }
        let exploitable = d
            .servers
            .iter()
            .filter(|s| s.config.trivially_exploitable())
            .count();
        // Run the wave.
        let c = campaign(&d, &ScanParams::default());
        let _ = execute(&mut d, &[(SimTime::ZERO, c)], seed);
        let compromised = d
            .servers
            .iter()
            .filter(|s| {
                s.procs
                    .all()
                    .iter()
                    .any(|p| p.cmdline.contains("curl http://203.0.0.99/p"))
            })
            .count();
        per_rate.push((counts, exploitable, compromised));
    }
    for class in MisconfigClass::ALL {
        print!("{:<30}", class.label());
        for (counts, _, _) in &per_rate {
            print!(" {:>8}", counts.get(&class).copied().unwrap_or(0));
        }
        println!();
    }
    println!("{}", "-".repeat(68));
    print!("{:<30}", "trivially exploitable");
    for (_, e, _) in &per_rate {
        print!(" {:>8}", e);
    }
    println!();
    print!("{:<30}", "compromised by the wave");
    for (_, _, c) in &per_rate {
        print!(" {:>8}", c);
    }
    println!();
    println!(
        "\n(compromise requires an exposed interface plus either no-auth or an RCE-grade CVE —"
    );
    println!(
        " the conjunction explains why compromises grow faster than any single finding class.)"
    );
}
