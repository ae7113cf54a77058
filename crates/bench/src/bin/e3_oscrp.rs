//! E3 — regenerate Fig. 3 / Table 1: the OSCRP mapping from avenues of
//! attack to concerns to consequences, then demonstrate it *live*: run
//! one campaign per avenue and show the classifier attaching the same
//! concerns/consequences to the resulting incidents.

use ja_attackgen::AttackClass;
use ja_core::oscrp;
use ja_core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};

fn main() {
    let seed = ja_bench::Args::from_env().seed;
    println!("=== E3: Fig. 3 / Table 1 — OSCRP threat model (seed {seed}) ===\n");
    println!("{}", oscrp::render_table());

    println!("\nlive classification (one campaign per avenue):\n");
    for class in AttackClass::ALL {
        let mut p = Pipeline::new(PipelineConfig::small_lab(seed));
        let out = p.run(&CampaignPlan {
            benign_sessions_per_server: 0,
            attacks: vec![class],
            interactive: Vec::new(),
            horizon_secs: 3600,
            stretch: 1.0,
            seed,
        });
        let incident = out.report.incidents.iter().find(|i| i.class == class);
        match incident {
            Some(i) => println!(
                "{:<20} -> incident with concerns {:?}",
                class.label(),
                i.concerns.iter().map(|c| c.label()).collect::<Vec<_>>()
            ),
            None => println!(
                "{:<20} -> no incident (expected for the unsignatured zero-day proxy at default thresholds)",
                class.label()
            ),
        }
    }
}
