//! Fleet audit: the multi-deployment regime an NCSA-scale operator
//! actually runs — several independent JupyterHub deployments (labs,
//! a campus hub), each with its own traffic and threat mix, audited in
//! parallel by one SOC through `Pipeline::run_fleet` and aggregated into a
//! single fleet report.
//!
//! ```sh
//! cargo run --release --example fleet_audit
//! ```

use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::pipeline::{CampaignPlan, FleetJob, Pipeline, PipelineConfig};

fn main() {
    // Three deployments with different scales, hygiene, and attack mixes.
    let mut campus = PipelineConfig::campus(301);
    campus.shards = Some(4); // shard the campus monitor across 4 workers
    let jobs = vec![
        FleetJob::new(
            "physics-lab",
            PipelineConfig::small_lab(101),
            CampaignPlan::single(AttackClass::Ransomware),
        ),
        FleetJob::new(
            "genomics-lab",
            PipelineConfig::small_lab(201),
            CampaignPlan::single(AttackClass::DataExfiltration),
        ),
        // The campus hub's capture is the big one: it is analyzed in
        // flight across its monitor shards.
        FleetJob::new("campus-hub", campus, CampaignPlan::full_mix(42)),
    ];

    println!(
        "=== fleet audit: {} deployments in parallel ===\n",
        jobs.len()
    );
    let fleet = Pipeline::run_fleet(jobs);

    println!("{}", fleet.render());
    println!(
        "mean macro-recall across deployments: {:.2}",
        fleet.mean_macro_recall()
    );

    // Per-deployment drill-down, the way a SOC pivots from the fleet
    // overview into one site's incident queue.
    for run in &fleet.runs {
        let top = run.outcome.report.incidents.first();
        println!(
            "\n[{}] {} incidents; first: {}",
            run.label,
            run.outcome.report.incidents_total(),
            top.map(|i| i.class.label().to_string())
                .unwrap_or_else(|| "-".into()),
        );
    }
}
