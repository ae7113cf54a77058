//! E11 — long-horizon soak of the always-on SOC service. The paper's
//! auditing architecture is meant to run continuously, not per-batch:
//! this harness drives [`SocService`] through many epochs on one global
//! clock (honeypot intel live, cadence checkpoints on) and verifies the
//! two properties that make "always-on" honest:
//!
//! 1. **Flat live state** — the per-epoch peak of concurrently-live
//!    monitor flows stays bounded while cumulative sessions, segments
//!    and alerts grow without bound. Durable accumulators (report,
//!    ground truth, intel rules) may grow; *live* pipeline state must
//!    not.
//! 2. **Crash-resume equivalence** — a twin service killed at its last
//!    mid-epoch cadence checkpoint and restored from the serialized
//!    [`ja_core::ServiceCheckpoint`] finishes with a bit-identical alert stream.
//!
//! `--tiny` shrinks the soak for CI smoke. `--json` writes
//! `BENCH_E11.json` with `peak_flat` and `resume_equal` verdicts.

use ja_attackgen::AttackClass;
use ja_bench::{alert_keys, finite};
use ja_core::intel::IntelConfig;
use ja_core::pipeline::{CampaignPlan, PipelineConfig};
use ja_core::{QueueSource, ServiceConfig, SocService, WaveSpec};
use ja_kernelsim::deployment::DeploymentSpec;

/// The whole `BENCH_E11.json` payload.
#[derive(serde::Serialize)]
struct BenchReport {
    seed: u64,
    tiny: bool,
    epochs: u64,
    servers: usize,
    rows: Vec<EpochRow>,
    peak_live_flows_min: u64,
    peak_live_flows_max: u64,
    peak_flat: bool,
    peak_retained_min: u64,
    peak_retained_max: u64,
    retained_flat: bool,
    resume_equal: bool,
    resume_replayed_items: u64,
    checkpoint_bytes: usize,
    total_sessions: u64,
    total_segments: u64,
    total_alerts: usize,
    intel_rules: u64,
    wall_secs: Option<f64>,
}

/// One soak epoch, for the JSON report.
#[derive(serde::Serialize)]
struct EpochRow {
    epoch: u64,
    sessions: u64,
    items: u64,
    alerts: u64,
    peak_live_flows: u64,
    peak_retained_bytes: u64,
    degraded: bool,
    checkpoints: u64,
    cumulative_alerts: usize,
    wall_secs: Option<f64>,
}

fn soak_config(servers: usize, seed: u64, cadence: u64) -> ServiceConfig {
    let mut pcfg = PipelineConfig::small_lab(seed);
    pcfg.deployment = DeploymentSpec {
        servers,
        ..DeploymentSpec::small_lab(seed)
    }
    .with_decoys(1);
    pcfg.shards = Some(2);
    pcfg.producers = Some(2);
    pcfg.intel = Some(IntelConfig::default());
    let mut cfg = ServiceConfig::new(pcfg, seed);
    cfg.checkpoint_items = Some(cadence);
    // One wave sweep per epoch keeps the honeypot-intel loop fed: the
    // decoy captures it, publishes a signature, and the soak (and its
    // crash-resume twin) must carry the growing feed across epochs.
    cfg.wave = Some(WaveSpec::default());
    cfg
}

/// The same plan every epoch: holding the offered workload constant is
/// the control that makes the flat-memory verdict meaningful — the only
/// thing that grows across epochs is accumulated history (report,
/// ground truth, intel), so any live-state growth would be a leak, not
/// scenario variance.
fn soak_source(seed: u64, epochs: u64) -> QueueSource {
    let plan = CampaignPlan {
        benign_sessions_per_server: 2,
        attacks: vec![
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::Ransomware,
        ],
        interactive: Vec::new(),
        horizon_secs: 2 * 3600,
        stretch: 1.0,
        seed,
    };
    QueueSource {
        plans: vec![plan; epochs as usize],
    }
}

fn main() {
    let args = ja_bench::Args::from_env();
    let (seed, tiny) = (args.seed, args.tiny);
    let (servers, epochs, cadence) = if tiny { (2, 4u64, 96) } else { (8, 12u64, 512) };
    println!("=== E11: always-on service soak ({servers} srv, {epochs} epochs, seed {seed}) ===\n");

    let source = soak_source(seed, epochs);
    let mut svc = SocService::new(soak_config(servers, seed, cadence));
    println!(
        "{:<7} {:>9} {:>9} {:>8} {:>10} {:>12} {:>9} {:>7} {:>11} {:>10}",
        "epoch",
        "sessions",
        "items",
        "alerts",
        "peak-live",
        "peak-retain",
        "ckpts",
        "degr",
        "cum-alerts",
        "wall (s)"
    );
    let started = std::time::Instant::now();
    let mut rows: Vec<EpochRow> = Vec::new();
    for _ in 0..epochs {
        let epoch_started = std::time::Instant::now();
        let summary = svc
            .run_epoch(&source)
            .expect("soak epoch runs")
            .expect("queue holds a plan per soak epoch");
        let wall = epoch_started.elapsed().as_secs_f64();
        println!(
            "{:<7} {:>9} {:>9} {:>8} {:>10} {:>12} {:>9} {:>7} {:>11} {:>10.3}",
            summary.epoch,
            summary.sessions,
            summary.items,
            summary.alerts,
            summary.peak_live_flows,
            summary.peak_retained_bytes,
            summary.checkpoints,
            summary.degraded,
            svc.report().alerts.len(),
            wall,
        );
        rows.push(EpochRow {
            epoch: summary.epoch,
            sessions: summary.sessions,
            items: summary.items,
            alerts: summary.alerts,
            peak_live_flows: summary.peak_live_flows,
            peak_retained_bytes: summary.peak_retained_bytes,
            degraded: summary.degraded,
            checkpoints: summary.checkpoints,
            cumulative_alerts: svc.report().alerts.len(),
            wall_secs: finite(wall),
        });
    }
    let wall_secs = started.elapsed().as_secs_f64();

    // Flat-memory verdict: cumulative counters grow every epoch, but
    // the live flow-table high-water mark must stay in a constant band.
    let peak_min = rows.iter().map(|r| r.peak_live_flows).min().unwrap_or(0);
    let peak_max = rows.iter().map(|r| r.peak_live_flows).max().unwrap_or(0);
    let peak_flat = peak_max <= peak_min.saturating_mul(2).max(1);
    println!(
        "\npeak live flows: min {peak_min}, max {peak_max} over {epochs} epochs -> {}",
        if peak_flat {
            "FLAT (bounded live state)"
        } else {
            "GROWING"
        }
    );
    assert!(
        peak_flat,
        "live state grew across the soak: peak {peak_min}..{peak_max}"
    );

    // Same verdict for retained payload bytes: under incremental
    // scanning a flow's retention is bounded by the reorder window, not
    // its stream length, so the high-water mark must sit in the same
    // constant band every epoch no matter how much traffic has passed.
    let retained_min = rows
        .iter()
        .map(|r| r.peak_retained_bytes)
        .min()
        .unwrap_or(0);
    let retained_max = rows
        .iter()
        .map(|r| r.peak_retained_bytes)
        .max()
        .unwrap_or(0);
    let retained_flat = retained_max <= retained_min.saturating_mul(2).max(1);
    println!(
        "peak retained bytes: min {retained_min}, max {retained_max} -> {}",
        if retained_flat {
            "FLAT (bounded by reorder window)"
        } else {
            "GROWING"
        }
    );
    assert!(
        retained_flat,
        "retained payload bytes grew across the soak: {retained_min}..{retained_max}"
    );

    // Crash-resume twin: run the same soak, "crash" it after the final
    // epoch's last cadence checkpoint, restore from the serialized
    // checkpoint, finish, and demand the identical alert stream.
    let mut doomed = SocService::new(soak_config(servers, seed, cadence));
    doomed.run_epochs(&source, epochs).expect("twin soak runs");
    let chk = doomed
        .last_checkpoint()
        .expect("cadence checkpoints were taken")
        .clone();
    let chk_json = chk.to_json();
    drop(doomed);
    let mut revived = SocService::restore(soak_config(servers, seed, cadence), &chk_json)
        .expect("checkpoint restores");
    let remaining = epochs - revived.epoch();
    revived
        .run_epochs(&source, remaining)
        .expect("revived service finishes the soak");
    let resume_equal = alert_keys(&svc.report().alerts) == alert_keys(&revived.report().alerts)
        && svc.clock() == revived.clock()
        && svc.stats().segments == revived.stats().segments
        && svc.stats().intel_rules == revived.stats().intel_rules;
    println!(
        "resume: crashed at epoch {} item {}, replayed {} items -> {}",
        chk.epoch,
        chk.watermark.as_ref().map_or(0, |w| w.items),
        revived.stats().replayed_items,
        if resume_equal {
            "IDENTICAL alert stream"
        } else {
            "DIVERGED"
        }
    );
    assert!(resume_equal, "resumed soak diverged from uninterrupted run");
    assert!(
        svc.stats().intel_rules > 0,
        "the per-epoch wave never fed the intel loop"
    );

    println!(
        "\ntotals: {} sessions, {} segments, {} alerts, {} intel rules, checkpoint {} bytes, {:.2}s",
        svc.stats().sessions,
        svc.stats().segments,
        svc.report().alerts.len(),
        svc.stats().intel_rules,
        chk_json.len(),
        wall_secs,
    );
    println!("(durable accumulators grow; the peak-live column is the state that must not.)");

    args.emit(
        "E11",
        &BenchReport {
            seed,
            tiny,
            epochs,
            servers,
            rows,
            peak_live_flows_min: peak_min,
            peak_live_flows_max: peak_max,
            peak_flat,
            peak_retained_min: retained_min,
            peak_retained_max: retained_max,
            retained_flat,
            resume_equal,
            resume_replayed_items: revived.stats().replayed_items,
            checkpoint_bytes: chk_json.len(),
            total_sessions: svc.stats().sessions,
            total_segments: svc.stats().segments,
            total_alerts: svc.report().alerts.len(),
            intel_rules: svc.stats().intel_rules,
            wall_secs: finite(wall_secs),
        },
    );
}
