//! Golden detection digests: the exact alert stream and scoreboard of
//! four reference runs, pinned so that any change to detection output
//! — an alert gained, lost, reordered, re-attributed or re-scored —
//! fails here, whichever layer caused it.
//!
//! Each case commits two SHA-256 digests: one over the full alert
//! sequence (time, class, source, host, server id, user, detail,
//! confidence bits) and one over the per-class scoreboard rows
//! (campaigns, detected, false positives, mean latency bits). When a
//! change is *meant* to alter detection, recompute the digests and say
//! why in the change description.
//!
//! The capture digests pin what the lab producer makes, before any
//! detection: every segment, sys event and auth event of one lab
//! scenario at two seeds. A producer change meant to be byte-identical
//! (a faster encoder, fewer copies) must leave them where they are.

use jupyter_audit::attackgen::benign::{session, BenignProfile};
use jupyter_audit::attackgen::campaign::Campaign;
use jupyter_audit::attackgen::mixer::build_attack;
use jupyter_audit::attackgen::stream::{ScenarioItem, ScenarioStream};
use jupyter_audit::attackgen::AttackClass;
use jupyter_audit::core::intel::{build_wave, IntelConfig, WaveSpec};
use jupyter_audit::core::pipeline::{CampaignPlan, InteractiveScenario, Pipeline, PipelineConfig};
use jupyter_audit::core::report::Report;
use jupyter_audit::core::service::{MixSource, ServiceConfig, SocService};
use jupyter_audit::crypto::hex;
use jupyter_audit::crypto::sha256::{sha256_hex, Sha256};
use jupyter_audit::kernelsim::deployment::Deployment;
use jupyter_audit::monitor::alerts::AlertSource;
use jupyter_audit::netsim::rng::SimRng;
use jupyter_audit::netsim::time::{Duration, SimTime};

/// Assert the alert-stream and scoreboard digests of one report.
fn check(case: &str, report: &Report, alerts: &str, board: &str) {
    let mut alert_rows = String::new();
    for a in &report.alerts {
        alert_rows.push_str(&format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{:016x}\n",
            a.time.0,
            a.class,
            a.source,
            a.host,
            a.server_id,
            a.user,
            a.detail,
            a.confidence.to_bits()
        ));
    }
    let scoreboard = report.scoreboard.as_ref().expect("run is scored");
    let mut board_rows = String::new();
    for (class, s) in &scoreboard.classes {
        board_rows.push_str(&format!(
            "{:?}|{}|{}|{}|{:016x}\n",
            class,
            s.campaigns,
            s.detected,
            s.fp_alerts,
            s.mean_latency_secs.to_bits()
        ));
    }
    let got_alerts = sha256_hex(alert_rows.as_bytes());
    let got_board = sha256_hex(board_rows.as_bytes());
    assert_eq!(
        (got_alerts.as_str(), got_board.as_str()),
        (alerts, board),
        "{case}: detection output changed ({} alerts)\n{}",
        report.alerts.len(),
        scoreboard.render()
    );
}

#[test]
fn golden_small_lab_full_mix() {
    let mut p = Pipeline::new(PipelineConfig::small_lab(31));
    let out = p.run(&CampaignPlan::full_mix(13));
    check(
        "small_lab full_mix(13)",
        &out.report,
        "08c95de77f0b155317f89f9ccb3b2db352583c7cadcd5f28f363c233d61bd89a",
        "acb82b1270ceb91d22ecec3babe31b2f63f0c6bead0f62a5067b64d84a81bfc3",
    );
}

/// Two decoys with the intel loop live, a wave sweeping the fleet, and
/// every scripted attack class over benign background.
fn wave_lab_campaigns(p: &Pipeline, intel: &IntelConfig) -> Vec<(SimTime, Campaign)> {
    let d = p.deployment();
    let mut rng = SimRng::new(5);
    let wave = build_wave(d, intel, &WaveSpec::default(), &mut rng);
    let mut campaigns = vec![(SimTime::from_secs(60), wave.campaign)];
    for s in 0..d.production_count() {
        let benign = session(s, d.owner_of(s), &BenignProfile::default(), &mut rng);
        campaigns.push((SimTime::from_secs(30 + 400 * s as u64), benign));
    }
    for (i, &class) in AttackClass::ALL.iter().enumerate() {
        let attack = build_attack(class, d, i % d.production_count(), &mut rng);
        campaigns.push((SimTime::from_secs(900 + 600 * i as u64), attack));
    }
    campaigns
}

#[test]
fn golden_wave_lab_parallel() {
    let intel = IntelConfig {
        propagation: Duration::from_secs(120),
        realism: 1.0,
        ..Default::default()
    };
    let mut cfg = PipelineConfig::small_lab(91);
    cfg.deployment.decoys = 2;
    cfg.intel = Some(intel.clone());
    cfg.producers = Some(4);
    cfg.shards = Some(3);
    let mut p = Pipeline::new(cfg);
    let campaigns = wave_lab_campaigns(&p, &intel);
    let out = p.run_campaigns(campaigns, 91);
    assert!(
        out.report.alerts_from(AlertSource::HoneypotIntel) > 0,
        "the wave never closed the intel loop"
    );
    check(
        "wave lab, producers 4, shards 3",
        &out.report,
        "72c1cccb39008c0424cbb4d327610649b90c009c5c1f64b79865d15b906923e7",
        "9778962313df204e5d513266b5636a43a9d302678adc5123443c5c66bf045780",
    );
}

#[test]
fn golden_campus_full_mix() {
    let mut p = Pipeline::new(PipelineConfig::campus(7));
    let out = p.run(&CampaignPlan::full_mix(105));
    check(
        "campus full_mix(105)",
        &out.report,
        "05e36c063bf1a4af323901a6e2b0021f3ce6e7fbd9979fc2cf2aa9698e11214b",
        "bbd820f934c9afcb1983d697b5edf3abff64efb8e7f2883764b68d7c3e107e3e",
    );
}

#[test]
fn golden_service_three_epochs() {
    let mut pcfg = PipelineConfig::small_lab(17);
    pcfg.deployment.decoys = 1;
    pcfg.intel = Some(IntelConfig::default());
    let mut cfg = ServiceConfig::new(pcfg, 17);
    cfg.checkpoint_items = Some(257);
    cfg.wave = Some(WaveSpec::default());
    let source = MixSource {
        base: CampaignPlan {
            benign_sessions_per_server: 1,
            attacks: vec![AttackClass::Ransomware, AttackClass::Cryptomining],
            interactive: Vec::new(),
            horizon_secs: 1800,
            stretch: 1.0,
            seed: 17,
        },
    };
    let mut svc = SocService::new(cfg);
    svc.run_epochs(&source, 3).expect("service runs");
    assert!(svc.stats().checkpoints > 0, "cadence took no checkpoints");
    check(
        "service, 3 epochs",
        svc.report(),
        "2c5707c55ecc5406e79e29f0b090d244198fed1cf0e42dcf8ab66805b77195df",
        "e9520522064a38033fc125043b32f94716d6bb6597cfb30ee40802936c4220a7",
    );
}

/// SHA-256 over everything the lab producer makes at `seed`: the
/// `small_lab` deployment with one decoy, four benign sessions per
/// server, exfiltration, mining and ransomware, the interactive
/// escalation and worm, and one intel wave. Each segment contributes
/// its time, tuple, flow, direction, stream offset, wire length, flags
/// and payload; each sys and auth event its full `Debug` form.
fn lab_capture_digest(seed: u64) -> String {
    let mut cfg = PipelineConfig::small_lab(seed);
    cfg.deployment.decoys = 1;
    let intel = IntelConfig::default();
    let p = Pipeline::new(cfg.clone());
    let plan = CampaignPlan {
        benign_sessions_per_server: 4,
        attacks: vec![
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::Ransomware,
        ],
        interactive: vec![InteractiveScenario::Escalation, InteractiveScenario::Worm],
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    };
    let mut campaigns = p.build_campaigns(&plan);
    let mut rng = SimRng::new(seed ^ 0x5a5a);
    let wave = build_wave(p.deployment(), &intel, &WaveSpec::default(), &mut rng);
    campaigns.push((SimTime::from_secs(3600), wave.campaign));
    let mut deployment = Deployment::build(&cfg.deployment);
    let mut stream = ScenarioStream::new(&mut deployment, campaigns, seed);
    let mut h = Sha256::new();
    let (mut segments, mut payload) = (0usize, 0usize);
    while let Some(item) = stream.next_item() {
        match item {
            ScenarioItem::Segment(r) => {
                segments += 1;
                payload += r.payload.len();
                let row = format!(
                    "S|{}|{:?}|{}|{:?}|{}|{}|{:?}|{}\n",
                    r.time.0,
                    r.tuple,
                    r.flow_id,
                    r.dir,
                    r.stream_offset,
                    r.wire_len,
                    r.flags,
                    r.payload.len()
                );
                h.update(row.as_bytes()).update(&r.payload);
            }
            ScenarioItem::Sys(e) => {
                h.update(format!("Y|{e:?}\n").as_bytes());
            }
            ScenarioItem::Auth(e) => {
                h.update(format!("A|{e:?}\n").as_bytes());
            }
        }
    }
    assert!(
        segments > 1000 && payload > 1 << 20,
        "seed {seed}: a lab run made only {segments} segments, {payload} payload bytes"
    );
    hex::encode(&h.finalize())
}

#[test]
fn golden_lab_capture_bytes() {
    for (seed, want) in [
        (
            42,
            "6b5af73f47f40298213faa531edc519e0d956522a4ce752eb8087a5a2b5c0c4e",
        ),
        (
            7,
            "584b92f73c7ced77f213794f3c22cb6835b61cda9d8f99283519fee70d7dfe1e",
        ),
    ] {
        assert_eq!(
            lab_capture_digest(seed),
            want,
            "seed {seed}: the lab producer's output changed"
        );
    }
}
