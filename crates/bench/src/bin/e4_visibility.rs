//! E4 — the paper's central claim: auditing gives "better visibility
//! against such attacks". We run the full mixed corpus and score three
//! defensive configurations:
//!
//!   1. network monitor only,
//!   2. kernel audit only,
//!   3. combined (the paper's proposed architecture).
//!
//! The expected shape: network-only misses host-local attacks
//! (ransomware without key exfil), audit-only misses perimeter patterns
//! (scans, brute force), combined dominates both.

use ja_attackgen::AttackClass;
use ja_core::metrics::{score, ScoringConfig};
use ja_core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};
use ja_monitor::alerts::{Alert, AlertSource};

fn main() {
    let seed = ja_bench::Args::from_env().seed;
    println!("=== E4: detection visibility by plane (seed {seed}) ===\n");
    let mut p = Pipeline::new(PipelineConfig::small_lab(seed));
    let out = p.run(&CampaignPlan::full_mix(seed));
    let gt = &out.scenario.ground_truth;
    let cfg = ScoringConfig::default();

    let by_source = |keep: &dyn Fn(&Alert) -> bool| -> Vec<Alert> {
        out.report
            .alerts
            .iter()
            .filter(|a| keep(a))
            .cloned()
            .collect()
    };
    let network = by_source(&|a: &Alert| a.source == AlertSource::Network);
    let audit = by_source(&|a: &Alert| a.source == AlertSource::KernelAudit);
    let combined = by_source(&|a: &Alert| a.source != AlertSource::ConfigScan);

    let boards = [
        ("network-only", score(&network, gt, &cfg)),
        ("kernel-audit-only", score(&audit, gt, &cfg)),
        ("combined", score(&combined, gt, &cfg)),
    ];

    println!(
        "{:<20} {:>14} {:>18} {:>10} {:>10}",
        "class", "network-only", "kernel-audit-only", "combined", "campaigns"
    );
    for class in AttackClass::ALL {
        let cells: Vec<String> = boards
            .iter()
            .map(|(_, b)| {
                let s = b.class(class);
                format!("{}/{}", s.detected, s.campaigns)
            })
            .collect();
        println!(
            "{:<20} {:>14} {:>18} {:>10} {:>10}",
            class.label(),
            cells[0],
            cells[1],
            cells[2],
            boards[0].1.class(class).campaigns
        );
    }
    println!();
    for (name, b) in &boards {
        println!(
            "{:<20} macro-recall {:.3}  false-positives {}",
            name,
            b.macro_recall(),
            b.total_fp()
        );
    }
    println!(
        "\nmonitor visibility: {} full / {} framing / {} opaque flows; audit completeness {:.1}%",
        out.monitor_stats.full_content_flows,
        out.monitor_stats.framing_only_flows,
        out.monitor_stats.opaque_flows,
        out.audit_completeness * 100.0
    );
}
