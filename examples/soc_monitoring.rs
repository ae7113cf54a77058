//! SOC view: run the full mixed scenario (all six taxonomy classes over
//! a campus-scale deployment) through the *fused streaming pipeline* —
//! generation pumped straight into the sharded streaming monitor, no
//! trace ever materialized — and triage the incident queue the way a
//! security-operations analyst would: ranked by OSCRP risk, with
//! per-plane attribution and per-class detection scores. A second run
//! hunts a 48-hour low-and-slow "quiet APT" to show bounded live state
//! on sparse long captures.
//!
//! ```sh
//! cargo run --release --example soc_monitoring
//! ```

use jupyter_audit::core::classify;
use jupyter_audit::core::pipeline::{CampaignPlan, Pipeline, PipelineConfig};
use jupyter_audit::core::risk;
use jupyter_audit::netsim::time::Duration;

fn main() {
    let mut config = PipelineConfig::campus(2024);
    // The "harness the supercomputer" path: server-disjoint campaign
    // groups are generated on parallel producer threads, and segments
    // are routed by flow id to per-shard streaming engines on worker
    // threads while the scenario is still being generated.
    let width = std::thread::available_parallelism().map_or(1, |n| n.get());
    config.producers = Some(width);
    config.shards = Some(width);
    let mut pipeline = Pipeline::new(config);

    let outcome = pipeline.run(&CampaignPlan::full_mix(42));

    println!("=== SOC monitoring: campus deployment, full attack mix (streamed) ===\n");
    println!(
        "traffic: {} segments / {:.1} MB over {:.1} h — analyzed in flight, no capture retained",
        outcome.monitor_stats.segments,
        outcome.monitor_stats.bytes as f64 / 1e6,
        outcome.scenario.end.as_secs_f64() / 3600.0,
    );
    println!(
        "monitor throughput: {:.0} segments/s of wall time ({} flows, peak {} live)\n",
        outcome.monitor_stats.throughput_segments_per_sec(),
        outcome.monitor_stats.flows,
        outcome.monitor_stats.peak_live_flows,
    );

    // The triage queue.
    let incidents = classify::incidents(&outcome.report.alerts, Duration::from_secs(1800));
    let ranked = risk::rank(incidents);
    println!("incident queue ({} incidents):", ranked.len());
    for (i, (score, inc)) in ranked.iter().enumerate().take(12) {
        println!(
            "{:>3}. [risk {score:>5.2}] {:<18} server={:<8} user={:<10} planes={:?}",
            i + 1,
            inc.class.label(),
            inc.server_id
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            inc.user.clone().unwrap_or_else(|| "-".into()),
            inc.sources,
        );
        for c in &inc.consequences {
            print!(" {}", c.label());
        }
        println!();
    }

    println!("\nper-class detection scores:");
    println!(
        "{}",
        outcome.report.scoreboard.as_ref().expect("scored").render()
    );

    // The quiet APT hunt: a sparse 48-hour capture with an 8x-stretched
    // stealth attack mix. The pipeline's live state stays bounded
    // by the handful of concurrently-active sessions even though the
    // capture spans two days.
    let mut hunter = Pipeline::new(PipelineConfig::small_lab(2024));
    let quiet = hunter.run(&CampaignPlan::quiet_apt(2024));
    println!("=== quiet-APT hunt: 48 h sparse capture, low-and-slow mix (streamed) ===\n");
    println!(
        "capture: {} segments over {:.1} h; {} flows total, peak {} live",
        quiet.monitor_stats.segments,
        quiet.scenario.end.as_secs_f64() / 3600.0,
        quiet.monitor_stats.flows,
        quiet.monitor_stats.peak_live_flows,
    );
    let board = quiet.report.scoreboard.as_ref().expect("scored");
    let caught: Vec<&str> = board
        .classes
        .iter()
        .filter(|(_, s)| s.campaigns > 0 && s.detected > 0)
        .map(|(c, _)| c.label())
        .collect();
    println!(
        "stealth campaigns detected despite stretching: {}",
        if caught.is_empty() {
            "none".to_string()
        } else {
            caught.join(", ")
        }
    );
}
