//! Property tests for the always-on SOC service's checkpoint/resume
//! contract: interrupting a service at an arbitrary mid-stream
//! watermark and restoring from the serialized checkpoint must be
//! indistinguishable — bit-identical alerts in identical order — from
//! a service that never stopped, across random plans, seeds, shard
//! counts, producer counts and checkpoint cadences, with the honeypot
//! intel loop live. Plus: corrupted and truncated checkpoints must be
//! rejected, never trusted and never a panic.

use ja_attackgen::AttackClass;
use ja_core::intel::IntelConfig;
use ja_core::pipeline::{CampaignPlan, PipelineConfig};
use ja_core::report::Report;
use ja_core::service::{MixSource, RestoreError, ServiceCheckpoint, ServiceConfig, SocService};
use ja_core::WaveSpec;
use ja_kernelsim::deployment::DeploymentSpec;
use ja_netsim::time::SimTime;
use proptest::prelude::*;

/// A two-server lab (plus decoys) so each property case stays cheap.
fn tiny_service_config(
    seed: u64,
    shards: usize,
    producers: usize,
    decoys: usize,
    cadence: u64,
) -> ServiceConfig {
    let mut pcfg = PipelineConfig::small_lab(seed);
    pcfg.deployment = DeploymentSpec {
        servers: 2,
        misconfig_rate: 0.0,
        weak_cred_fraction: 0.1,
        breached_cred_fraction: 0.02,
        mfa_fraction: 0.8,
        decoys,
        seed,
    };
    pcfg.shards = Some(shards);
    pcfg.producers = Some(producers);
    // The intel loop is always live: resume must carry decoy capture
    // books and the hot-reload feed across the crash.
    pcfg.intel = Some(IntelConfig::default());
    let mut cfg = ServiceConfig::new(pcfg, seed);
    cfg.checkpoint_items = Some(cadence);
    // Every epoch also sweeps the fleet with a wave, so when decoys are
    // present the intel feed the resume must carry is non-empty.
    cfg.wave = Some(WaveSpec::default());
    cfg
}

type AlertKey = (SimTime, AttackClass, Option<u32>, String, u64);

fn alert_fingerprint(report: &Report) -> Vec<AlertKey> {
    report
        .alerts
        .iter()
        .map(|a| {
            (
                a.time,
                a.class,
                a.server_id,
                a.detail.clone(),
                a.confidence.to_bits(),
            )
        })
        .collect()
}

proptest! {
    /// Crash-resume equivalence at a random watermark: run two epochs
    /// and "crash" partway through the second — the latest cadence
    /// checkpoint (its watermark position randomized by the cadence)
    /// stands in for the crash point. Restoring from its serialization
    /// and finishing must reproduce the uninterrupted service's alert
    /// stream exactly, and the replay must verify the watermark proof.
    #[test]
    fn resume_from_random_watermark_is_alert_identical(
        seed in 0u64..4096,
        shards in 1usize..=3,
        producers in 1usize..=3,
        decoys in 0usize..=2,
        cadence in 16u64..384,
        benign in 1usize..=2,
        attack_mask in 1u8..64,
    ) {
        let attacks: Vec<AttackClass> = AttackClass::ALL
            .iter()
            .enumerate()
            .filter(|(i, _)| attack_mask & (1 << i) != 0)
            .map(|(_, &c)| c)
            .collect();
        let source = MixSource {
            base: CampaignPlan {
                benign_sessions_per_server: benign,
                attacks,
                interactive: Vec::new(),
                horizon_secs: 1800,
                stretch: 1.0,
                seed,
            },
        };
        let mk_cfg = || tiny_service_config(seed, shards, producers, decoys, cadence);

        let mut uninterrupted = SocService::new(mk_cfg());
        uninterrupted.run_epochs(&source, 2).unwrap();

        let mut interrupted = SocService::new(mk_cfg());
        interrupted.run_epochs(&source, 2).unwrap();
        let chk = interrupted
            .last_checkpoint()
            .expect("cadence < items per epoch, so checkpoints were taken")
            .clone();
        let in_flight = chk.epoch;
        prop_assert!(chk.watermark.is_some());
        drop(interrupted);

        let mut revived = SocService::restore(mk_cfg(), &chk.to_json()).unwrap();
        prop_assert_eq!(revived.epoch(), in_flight);
        let summaries = revived.run_epochs(&source, 2 - in_flight).unwrap();
        prop_assert!(
            summaries[0].verified_resume,
            "replay never hit the watermark: {:?}",
            summaries
        );

        prop_assert_eq!(
            alert_fingerprint(uninterrupted.report()),
            alert_fingerprint(revived.report())
        );
        prop_assert_eq!(
            uninterrupted.report().incidents_total(),
            revived.report().incidents_total()
        );
        prop_assert_eq!(uninterrupted.clock(), revived.clock());
        prop_assert_eq!(uninterrupted.stats().sessions, revived.stats().sessions);
        prop_assert_eq!(uninterrupted.stats().segments, revived.stats().segments);
        prop_assert_eq!(uninterrupted.stats().intel_rules, revived.stats().intel_rules);
        prop_assert_eq!(revived.stats().restores, 1);
        // Ground truth matches entry for entry in global time.
        prop_assert_eq!(
            uninterrupted.ground_truth().len(),
            revived.ground_truth().len()
        );
        for (a, b) in uninterrupted.ground_truth().iter().zip(revived.ground_truth()) {
            prop_assert_eq!(&a.name, &b.name);
            prop_assert_eq!(a.start, b.start);
            prop_assert_eq!(a.end, b.end);
            prop_assert_eq!(&a.servers, &b.servers);
        }
    }
}

/// Corruption sweep: no truncation of a valid checkpoint parses, and
/// no single-byte mutation of the JSON body both parses and passes the
/// checksum — and none of them panics.
#[test]
fn corrupted_or_truncated_checkpoints_never_restore() {
    let source = MixSource {
        base: CampaignPlan::single(AttackClass::Ransomware),
    };
    let mut svc = SocService::new(tiny_service_config(3, 2, 1, 1, 64));
    svc.run_epochs(&source, 1).unwrap();
    let json = svc
        .last_checkpoint()
        .expect("cadence checkpoint taken")
        .to_json();

    // Every truncation is rejected (empty through len-1, stride to
    // keep the sweep fast).
    for cut in (0..json.len()).step_by(61) {
        let err =
            ServiceCheckpoint::from_json(&json[..cut]).expect_err("truncated checkpoint accepted");
        assert!(
            matches!(
                err,
                RestoreError::Malformed(_) | RestoreError::ChecksumMismatch
            ),
            "truncation at {cut}: {err}"
        );
    }

    // Flipping any payload byte must never smuggle in *different*
    // state: either parsing breaks, the checksum trips, or (the one
    // benign case — e.g. renaming a key whose value was already the
    // default) the restored checkpoint is content-identical to the
    // sealed original.
    let bytes = json.as_bytes();
    for pos in (0..bytes.len()).step_by(53) {
        let mut mutated = bytes.to_vec();
        // Stay printable ASCII so the mutation stays valid UTF-8 and
        // the checksum (not the decoder) is what must catch in-string
        // flips.
        mutated[pos] = if mutated[pos] == b'x' { b'y' } else { b'x' };
        let Ok(text) = String::from_utf8(mutated) else {
            continue;
        };
        if text == json {
            continue;
        }
        if let Ok(chk) = ServiceCheckpoint::from_json(&text) {
            assert_eq!(
                chk.to_json(),
                json,
                "byte flip at {pos} restored altered state: ...{}...",
                &json[pos.saturating_sub(40)..(pos + 40).min(json.len())]
            );
        }
    }
}

/// A sealed cadence checkpoint of a one-epoch tiny service, as JSON.
fn sample_checkpoint_json() -> &'static str {
    static JSON: std::sync::OnceLock<String> = std::sync::OnceLock::new();
    JSON.get_or_init(|| {
        let source = MixSource {
            base: CampaignPlan::single(AttackClass::Ransomware),
        };
        let mut svc = SocService::new(tiny_service_config(3, 2, 1, 1, 64));
        svc.run_epochs(&source, 1).unwrap();
        svc.last_checkpoint()
            .expect("cadence checkpoint taken")
            .to_json()
    })
}

/// What the `Value` writer writes for `x`.
fn value_writer<T: serde::Serialize>(x: &T) -> String {
    let mut out = String::new();
    serde::json::write_value(&x.to_value(), &mut out, None);
    out
}

/// Pieces that break or bend a checkpoint when spliced in.
const SPLICES: [&str; 10] = [
    "{",
    "}",
    "[",
    "\"",
    "\\",
    ",",
    "0",
    "null",
    "\\u0041",
    "\"epoch\":1,",
];

proptest! {
    /// Checkpoints are written by derived direct writes and read by
    /// derived direct reads. On a real checkpoint, the write is
    /// byte-identical to the `Value` writer; on mutations of it (a
    /// piece spliced in, characters deleted, a slice copied elsewhere,
    /// which duplicates keys), the direct read returns what reading the
    /// tree returns, and errs exactly when that errs.
    #[test]
    fn checkpoint_json_matches_the_value_oracle(
        at in any::<usize>(),
        to in any::<usize>(),
        len in 0usize..64,
        piece in 0..SPLICES.len()) {
        let json = sample_checkpoint_json();
        let chk = ServiceCheckpoint::from_json(json).unwrap();
        prop_assert_eq!(&serde_json::to_string(&chk).unwrap(), json);
        prop_assert_eq!(&value_writer(&chk), json);
        let chars: Vec<char> = json.chars().collect();
        let at = at % chars.len();
        let end = (at + len).min(chars.len());
        let to = to % chars.len();
        let mutations = [
            [&chars[..at], &SPLICES[piece].chars().collect::<Vec<_>>(), &chars[at..]].concat(),
            [&chars[..at], &chars[end..]].concat(),
            [&chars[..to], &chars[at..end], &chars[to..]].concat(),
        ];
        for mutated in mutations {
            let text: String = mutated.into_iter().collect();
            let direct = serde_json::from_str::<ServiceCheckpoint>(&text)
                .map(|c| serde_json::to_string(&c).unwrap())
                .map_err(drop);
            let tree = serde_json::from_str::<serde_json::Value>(&text)
                .map_err(drop)
                .and_then(|v| {
                    <ServiceCheckpoint as serde::Deserialize>::from_value(&v).map_err(drop)
                })
                .map(|c| value_writer(&c));
            prop_assert_eq!(direct, tree);
        }
    }
}
