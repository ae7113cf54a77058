//! E13 — interactive session plane: what does reacting cost, and how
//! fast is a reactive intruder caught? Scripted campaigns are fully
//! materialized at plan time; interactive campaigns start with zero
//! steps and synthesize each move from the kernel's previous reply
//! through the session transport. This harness measures three things:
//!
//! - **interactive tax** — wall clock of the pipeline on
//!   a plan whose attacks are all hands-on-keyboard adversaries vs the
//!   same benign load with the equivalent scripted campaign classes;
//! - **worm time-to-detection** — sim-time lag between the notebook
//!   worm's first action and the first account-takeover alert, plus how
//!   many servers it reached and on how many it was flagged;
//! - **path equivalence** — the interactive plan replayed with one
//!   producer and shard and with two of each must produce the same
//!   alert stream bit-for-bit (the determinism the proptests pin,
//!   spot-checked here on the bench workload).
//!
//! `--tiny` shrinks the workload for CI smoke; `--json` writes
//! `BENCH_E13.json`. All detection/equivalence numbers are
//! deterministic and asserted in every mode; wall clock is reported
//! but never asserted (the tiny CI box is too noisy).

use ja_attackgen::AttackClass;
use ja_core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig, RunOutcome};
use ja_kernelsim::deployment::DeploymentSpec;
use ja_monitor::alerts::Alert;
use ja_netsim::time::SimTime;

/// The whole `BENCH_E13.json` payload.
#[derive(serde::Serialize)]
struct BenchReport {
    seed: u64,
    tiny: bool,
    servers: usize,
    benign_sessions_per_server: usize,
    scripted: ModeRow,
    interactive: ModeRow,
    interactive_tax: Option<f64>,
    worm: WormRow,
    identical_paths: bool,
    takeover_detected: usize,
    takeover_campaigns: usize,
}

/// One pipeline mode's measured numbers.
#[derive(serde::Serialize)]
struct ModeRow {
    wall_secs: Option<f64>,
    segments: u64,
    segments_per_sec: Option<f64>,
    alerts: usize,
    campaigns: usize,
}

/// The notebook worm's propagation-vs-detection race, in sim time.
#[derive(serde::Serialize)]
struct WormRow {
    servers_reached: usize,
    servers_flagged: usize,
    window_secs: f64,
    time_to_detect_secs: Option<f64>,
}

/// `None` for non-finite values so the JSON carries `null`, never
/// `NaN`/`inf`.
fn finite(x: f64) -> Option<f64> {
    x.is_finite().then_some(x)
}

fn config(servers: usize, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment = DeploymentSpec {
        servers,
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys: 0,
        seed,
    };
    cfg
}

/// The interactive plan under test: every scenario class once, so the
/// worm, the probing escalation, the terminal abuser and the comm
/// exfiltrator all materialize their steps from live kernel output.
fn interactive_plan(benign: usize, seed: u64) -> CampaignPlan {
    CampaignPlan {
        benign_sessions_per_server: benign,
        attacks: vec![],
        interactive: InteractiveScenario::ALL.to_vec(),
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    }
}

/// The scripted comparator: same benign load, same attack classes, but
/// every step materialized at plan time (no session round-trips).
fn scripted_plan(benign: usize, seed: u64) -> CampaignPlan {
    CampaignPlan {
        benign_sessions_per_server: benign,
        attacks: vec![
            AttackClass::AccountTakeover,
            AttackClass::Misconfiguration,
            AttackClass::DataExfiltration,
        ],
        interactive: Vec::new(),
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    }
}

type AlertKey = (
    SimTime,
    AttackClass,
    u64,
    Option<u32>,
    Option<String>,
    String,
);

fn fingerprint(alerts: &[Alert]) -> Vec<AlertKey> {
    alerts
        .iter()
        .map(|a| {
            (
                a.time,
                a.class,
                a.confidence.to_bits(),
                a.server_id,
                a.user.clone(),
                a.detail.clone(),
            )
        })
        .collect()
}

fn main() {
    let seed = ja_bench::seed_from_args();
    let tiny = ja_bench::flag_from_args("--tiny");
    let json = ja_bench::flag_from_args("--json");
    let (servers, benign, reps) = if tiny { (4, 1, 2) } else { (8, 3, 7) };
    println!("=== E13: interactive session plane ({servers} servers, seed {seed}) ===\n");

    // -- interactive tax: scripted vs interactive wall clock, streamed.
    // Interleave the modes rep by rep so allocator/cache drift on a
    // shared VM doesn't systematically favor whichever runs last.
    let mut scripted_secs = f64::MAX;
    let mut interactive_secs = f64::MAX;
    let mut scripted_out = None;
    let mut interactive_out = None;
    for rep in 0..reps {
        let order = [rep % 2 == 0, rep % 2 != 0];
        for scripted_first in order {
            if scripted_first {
                let mut p = Pipeline::new(config(servers, seed));
                let started = std::time::Instant::now();
                let out = p.run(&scripted_plan(benign, seed));
                scripted_secs = scripted_secs.min(started.elapsed().as_secs_f64());
                scripted_out = Some(out);
            } else {
                let mut p = Pipeline::new(config(servers, seed));
                let started = std::time::Instant::now();
                let out = p.run(&interactive_plan(benign, seed));
                interactive_secs = interactive_secs.min(started.elapsed().as_secs_f64());
                interactive_out = Some(out);
            }
        }
    }
    let scripted_out = scripted_out.expect("scripted run completed");
    let out = interactive_out.expect("interactive run completed");

    let mode_row = |o: &RunOutcome, secs: f64| ModeRow {
        wall_secs: finite(secs),
        segments: o.monitor_stats.segments,
        segments_per_sec: finite(o.monitor_stats.segments as f64 / secs),
        alerts: o.report.alerts.len(),
        campaigns: o
            .scenario
            .ground_truth
            .iter()
            .filter(|g| g.class.is_some())
            .count(),
    };
    let srow = mode_row(&scripted_out, scripted_secs);
    let irow = mode_row(&out, interactive_secs);
    let tax = interactive_secs / scripted_secs;
    println!(
        "{:<13} {:>10} {:>10} {:>9} {:>11} {:>9}",
        "mode", "wall (s)", "sg/s", "alerts", "campaigns", "tax"
    );
    for (name, row, t) in [("scripted", &srow, 1.0), ("interactive", &irow, tax)] {
        println!(
            "{:<13} {:>10.3} {:>10.0} {:>9} {:>11} {:>8.2}x",
            name,
            row.wall_secs.unwrap_or(f64::NAN),
            row.segments_per_sec.unwrap_or(f64::NAN),
            row.alerts,
            row.campaigns,
            t,
        );
    }
    println!("\n(tax = interactive/scripted wall clock on the fused streamed pipeline; the");
    println!(" interactive plan pays one session round-trip per materialized step.)");

    // -- worm race: propagation span vs first takeover alert.
    let gt = out
        .scenario
        .ground_truth
        .iter()
        .find(|g| g.name.contains("worm"))
        .expect("worm campaign labeled");
    let first_alert = out
        .report
        .alerts
        .iter()
        .filter(|a| a.class == AttackClass::AccountTakeover && a.time >= gt.start)
        .map(|a| a.time)
        .min();
    let ttd = first_alert.map(|t| t.since(gt.start).as_secs_f64());
    let flagged: std::collections::BTreeSet<u32> = out
        .report
        .alerts
        .iter()
        .filter(|a| a.class == AttackClass::AccountTakeover)
        .filter_map(|a| a.server_id)
        .collect();
    let window = gt.end.since(gt.start).as_secs_f64();
    println!("\n=== notebook worm: propagation vs detection (sim time) ===\n");
    println!(
        "worm reached {} servers {:?} over {:.0}s; takeover flagged on {} servers",
        gt.servers.len(),
        gt.servers,
        window,
        flagged.len(),
    );
    match ttd {
        Some(secs) => println!("first takeover alert {secs:.0}s after the worm's first action"),
        None => println!("worm never flagged"),
    }
    assert!(
        gt.servers.len() >= 2,
        "worm must hop: reached only {:?}",
        gt.servers
    );
    assert!(
        flagged.len() >= 2,
        "worm must be flagged fleet-wide, got {flagged:?}"
    );
    let ttd_secs = ttd.expect("worm detected");
    assert!(
        ttd_secs >= 0.0 && ttd_secs <= window,
        "detection lag {ttd_secs:.0}s outside the campaign window {window:.0}s"
    );

    // -- path equivalence: inline vs fully fanned-out parallel.
    let mut pcfg = config(servers, seed);
    pcfg.shards = Some(2);
    pcfg.producers = Some(2);
    let par = Pipeline::new(pcfg).run(&interactive_plan(benign, seed));
    let identical = fingerprint(&out.report.alerts) == fingerprint(&par.report.alerts);
    assert!(
        identical,
        "interactive plan diverged across execution paths: {} vs {} alerts",
        out.report.alerts.len(),
        par.report.alerts.len()
    );
    println!(
        "\npath equivalence: {} alerts IDENTICAL at 1 and 2 producers/shards",
        out.report.alerts.len()
    );

    let board = out.report.scoreboard.as_ref().expect("scored");
    let takeover = board.class(AttackClass::AccountTakeover);
    assert_eq!(
        takeover.detected, takeover.campaigns,
        "interactive takeover sessions must all be detected"
    );

    if json {
        let report = BenchReport {
            seed,
            tiny,
            servers,
            benign_sessions_per_server: benign,
            scripted: srow,
            interactive: irow,
            interactive_tax: finite(tax),
            worm: WormRow {
                servers_reached: gt.servers.len(),
                servers_flagged: flagged.len(),
                window_secs: window,
                time_to_detect_secs: finite(ttd_secs),
            },
            identical_paths: identical,
            takeover_detected: takeover.detected,
            takeover_campaigns: takeover.campaigns,
        };
        let out = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write("BENCH_E13.json", &out).expect("write BENCH_E13.json");
        println!("\nwrote BENCH_E13.json");
    }
}
