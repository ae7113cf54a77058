//! Quickstart: build a small simulated JupyterHub deployment, run one
//! ransomware campaign against it alongside benign scientific work, and
//! print the consolidated detection report.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};

fn main() {
    // A 4-server hardened lab; the monitor has TLS inspection, the
    // kernel tracer has a comfortable ring.
    let mut pipeline = Pipeline::new(PipelineConfig::small_lab(7));

    // One ransomware campaign hidden among benign notebook sessions.
    let plan = CampaignPlan::single(AttackClass::Ransomware);
    let outcome = pipeline.run(&plan);

    println!("=== jupyter-audit quickstart ===\n");
    let truth = &outcome.scenario.ground_truth;
    println!(
        "scenario: {} sessions over {:.1} h, {} of them attacks; monitor saw {} segments, {} flows, {} kernel messages\n",
        truth.len(),
        outcome.scenario.end.as_secs_f64() / 3600.0,
        truth.iter().filter(|g| g.class.is_some()).count(),
        outcome.monitor_stats.segments,
        outcome.monitor_stats.flows,
        outcome.monitor_stats.kernel_msgs,
    );
    println!("{}", outcome.report.render());
    println!(
        "monitor visibility: {} full-content / {} framing-only / {} opaque flows",
        outcome.monitor_stats.full_content_flows,
        outcome.monitor_stats.framing_only_flows,
        outcome.monitor_stats.opaque_flows,
    );
    println!(
        "kernel-audit completeness: {:.1}%",
        outcome.audit_completeness * 100.0
    );

    let board = outcome.report.scoreboard.as_ref().expect("scored run");
    let detected = board.class(AttackClass::Ransomware).detected;
    println!(
        "\nransomware campaign detected: {}",
        if detected > 0 { "YES" } else { "NO" }
    );
}
