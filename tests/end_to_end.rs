//! End-to-end integration: deployment → campaigns → monitor + audit +
//! config scan → classification → scoring, across the public API.

use jupyter_audit::attackgen::campaign::execute;
use jupyter_audit::attackgen::exfiltration::{campaign, ExfilParams};
use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::dataset::Dataset;
use jupyter_audit::core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig};
use jupyter_audit::kernelsim::deployment::{Deployment, DeploymentSpec};
use jupyter_audit::monitor::alerts::AlertSource;
use jupyter_audit::netsim::time::SimTime;

#[test]
fn every_attack_class_is_detected_in_isolation_except_zeroday() {
    for class in AttackClass::ALL {
        let mut p = Pipeline::new(PipelineConfig::small_lab(100));
        let out = p.run(&CampaignPlan::single(class));
        let board = out.report.scoreboard.as_ref().expect("scored");
        let s = board.class(class);
        if class == AttackClass::ZeroDay {
            // The unsignatured proxy only surfaces as a low-confidence
            // anomaly, below the default triage threshold — the paper's
            // "unknown unknown".
            continue;
        }
        assert_eq!(
            s.detected,
            s.campaigns,
            "class {} not fully detected:\n{}",
            class.label(),
            board.render()
        );
    }
}

#[test]
fn zeroday_surfaces_at_lower_confidence_threshold() {
    let mut p = Pipeline::new(PipelineConfig::small_lab(101));
    let mut out = p.run(&CampaignPlan::single(AttackClass::ZeroDay));
    // Rescore with an anomaly-grade threshold.
    let cfg = jupyter_audit::core::metrics::ScoringConfig {
        min_confidence: 0.3,
        ..Default::default()
    };
    let board =
        jupyter_audit::core::metrics::score(&out.report.alerts, &out.scenario.ground_truth, &cfg);
    assert_eq!(
        board.class(AttackClass::ZeroDay).detected,
        1,
        "{}",
        board.render()
    );
    out.report.scoreboard = Some(board);
}

#[test]
fn combined_pipeline_produces_multi_plane_corroboration() {
    let mut p = Pipeline::new(PipelineConfig::small_lab(102));
    let out = p.run(&CampaignPlan::single(AttackClass::Cryptomining));
    let mining = out
        .report
        .incidents
        .iter()
        .find(|i| i.class == AttackClass::Cryptomining)
        .expect("mining incident");
    assert!(
        mining.corroborated(),
        "expected network + audit corroboration, got {:?}",
        mining.sources
    );
}

#[test]
fn benign_only_plan_produces_no_high_confidence_alerts() {
    let mut p = Pipeline::new(PipelineConfig::small_lab(103));
    let plan = CampaignPlan {
        benign_sessions_per_server: 3,
        attacks: vec![],
        interactive: Vec::new(),
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed: 103,
    };
    let out = p.run(&plan);
    let high: Vec<_> = out
        .report
        .alerts
        .iter()
        .filter(|a| a.confidence >= 0.8 && a.source != AlertSource::ConfigScan)
        .collect();
    assert!(high.is_empty(), "benign false alarms: {high:?}");
    assert_eq!(out.report.scoreboard.as_ref().unwrap().total_fp(), 0);
}

#[test]
fn interactive_escalation_is_detected_on_the_streamed_pipeline() {
    // The hands-on-keyboard adversary has no steps at plan time; every
    // move materializes from live kernel output inside the fused
    // streamed pipeline — and the session is still caught end to end.
    let mut p = Pipeline::new(PipelineConfig::small_lab(106));
    let plan = CampaignPlan {
        benign_sessions_per_server: 1,
        attacks: vec![],
        interactive: vec![InteractiveScenario::Escalation],
        horizon_secs: 3600,
        stretch: 1.0,
        seed: 106,
    };
    let out = p.run(&plan);
    let gt = out
        .scenario
        .ground_truth
        .iter()
        .find(|g| g.name.contains("escalation"))
        .expect("escalation session labeled");
    assert!(gt.end > gt.start, "materialized window");
    let board = out.report.scoreboard.as_ref().expect("scored");
    let s = board.class(AttackClass::AccountTakeover);
    assert_eq!(
        s.detected,
        s.campaigns,
        "interactive escalation not detected:\n{}",
        board.render()
    );
}

#[test]
fn notebook_worm_compromises_fleet_and_is_detected() {
    // The worm hops using credentials read from real terminal outputs;
    // the parallel streamed pipeline must both carry it (ground truth
    // spanning servers) and catch its credential harvesting fleet-wide.
    let mut cfg = PipelineConfig::small_lab(107);
    cfg.shards = Some(2);
    cfg.producers = Some(2);
    let mut p = Pipeline::new(cfg);
    let plan = CampaignPlan {
        benign_sessions_per_server: 1,
        attacks: vec![],
        interactive: vec![InteractiveScenario::Worm],
        horizon_secs: 3600,
        stretch: 1.0,
        seed: 107,
    };
    let out = p.run(&plan);
    let gt = out
        .scenario
        .ground_truth
        .iter()
        .find(|g| g.name.contains("worm"))
        .expect("worm labeled");
    assert!(
        gt.servers.len() >= 2,
        "worm must reach at least two servers, got {:?}",
        gt.servers
    );
    // Credential harvesting raises takeover alerts on multiple servers.
    let takeover_servers: std::collections::BTreeSet<u32> = out
        .report
        .alerts
        .iter()
        .filter(|a| a.class == AttackClass::AccountTakeover)
        .filter_map(|a| a.server_id)
        .collect();
    assert!(
        takeover_servers.len() >= 2,
        "worm detected on {takeover_servers:?} only"
    );
    // The first takeover alert after the worm's first action falls
    // inside its window: detection without the scorer's slack.
    let first = out
        .report
        .alerts
        .iter()
        .filter(|a| a.class == AttackClass::AccountTakeover && a.time >= gt.start)
        .map(|a| a.time)
        .min()
        .expect("worm flagged");
    assert!(
        first <= gt.end,
        "first takeover alert at {first:?}, after the worm's window {:?}..{:?}",
        gt.start,
        gt.end
    );
    let board = out.report.scoreboard.as_ref().expect("scored");
    let s = board.class(AttackClass::AccountTakeover);
    assert_eq!(s.detected, s.campaigns, "{}", board.render());
}

#[test]
fn dataset_export_round_trips_from_pipeline_output() {
    // The dataset is built from the raw capture, which the scenario
    // executor materializes.
    let mut d = Deployment::build(&DeploymentSpec::small_lab(104));
    let victim = d.owner_of(0).to_string();
    let c = campaign(0, &victim, &ExfilParams::default());
    let out = execute(&mut d, &[(SimTime::from_secs(300), c)], 104);
    let ds = Dataset::from_scenario(&out, &out.ground_truth, b"integration-key");
    let back = Dataset::from_json(&ds.to_json()).expect("parses");
    assert_eq!(back.flows.len(), ds.flows.len());
    assert!(ds
        .labels
        .iter()
        .any(|l| l.class.as_deref() == Some("data-exfiltration")));
}

#[test]
fn campus_scale_run_completes_with_stats() {
    let mut cfg = PipelineConfig::campus(105);
    cfg.producers = Some(2);
    cfg.shards = Some(2);
    let mut p = Pipeline::new(cfg);
    let out = p.run(&CampaignPlan::full_mix(105));
    assert!(out.monitor_stats.flows > 10);
    assert!(out.monitor_stats.elapsed_secs > 0.0);
    assert!(out.audit_completeness > 0.9);
    assert!(out.report.incidents_total() > 0);
    // Render paths never panic.
    let _ = out.report.render();
}
