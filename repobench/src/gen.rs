//! Workload generator: every campaign list the benchmark hands to the
//! program is built here from `--seed`, with the crates' public campaign
//! constructors only (`benign::session`, `mixer::build_attack`,
//! `exfiltration::campaign`, `interactive::*_campaign`,
//! `intel::build_wave`).
//!
//! [`campaigns`] lays a [`CampaignPlan`] out draw for draw the way the
//! pipeline lays out its own plans (exfiltration and the worm aside), so the traced
//! replica of a service epoch, which the service builds from the same
//! plan, sees the very campaigns the service ran.

use ja_attackgen::campaign::Campaign;
use ja_attackgen::mixer::build_attack;
use ja_attackgen::{benign, exfiltration, interactive, AttackClass};
use ja_core::intel::{build_wave, IntelConfig, WaveSpec};
use ja_core::pipeline::{CampaignPlan, InteractiveScenario};
use ja_core::ServiceConfig;
use ja_kernelsim::deployment::Deployment;
use ja_netsim::rng::{split_seed, SimRng};
use ja_netsim::time::{Duration, SimTime};

/// A timed campaign list, as the pipeline's `run_campaigns*` entry
/// points take it.
pub type Campaigns = Vec<(SimTime, Campaign)>;

/// Seed of the benchmark wave's visit order. Fixed, so that where the
/// decoy falls in the sweep — which sets how soon the intel loop can
/// protect production, and so the wave's detection latency — is the
/// same for every `--seed`. With this seed the decoy is the second
/// server visited of a 16 + 1 server lab, so the later production
/// visits are caught by the signature learned there.
const WAVE_SEED: u64 = 15;

/// Hops the lab's worm may take. Capped below the fleet size: how far an
/// uncapped worm spreads depends on the seed's `peers.txt` files, and
/// with it the alert count and so the size of everything written about
/// the run; four hops are reached on every seed.
const WORM_HOPS: usize = 4;

/// How many archive-heavy benign users [`hard_negatives`] adds.
const HARD_NEGATIVES: usize = 2;

/// Seed label of the hard negatives' draws.
const HARD_NEGATIVE_LABEL: u64 = 0x6e65_6761;

/// The service's salt for its per-epoch wave seed.
const SERVICE_WAVE_SALT: u64 = 0x5741_5645;

/// The plan of the three pipeline workloads: benign sessions on every
/// production server, scripted exfiltration, mining and ransomware, and
/// the given interactive adversaries.
pub fn lab_plan(seed: u64, interactive: Vec<InteractiveScenario>) -> CampaignPlan {
    CampaignPlan {
        benign_sessions_per_server: 4,
        attacks: vec![
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::Ransomware,
        ],
        interactive,
        horizon_secs: 4 * 3600,
        stretch: 1.0,
        seed,
    }
}

/// Lay `plan` out over `deployment`'s production servers: benign
/// sessions at uniform start times, then the scripted attacks and the
/// interactive sessions in the middle half of the horizon, server
/// `i % production` for the `i`-th of them. Exfiltration is always the
/// beacon variant, where the pipeline's plan layout draws the variant,
/// and the worm takes at most [`WORM_HOPS`] hops; every other campaign
/// is drawn exactly as the pipeline draws it, so a plan without
/// exfiltration or the worm lays out identically here and there.
pub fn campaigns(deployment: &Deployment, plan: &CampaignPlan) -> Campaigns {
    let mut rng = SimRng::new(plan.seed);
    let production = deployment.production_count();
    let horizon = Duration::from_secs(plan.horizon_secs).as_micros();
    let mut out = Campaigns::new();
    for server in 0..production {
        let user = deployment.owner_of(server).to_string();
        for _ in 0..plan.benign_sessions_per_server {
            let start = SimTime(rng.range(0, horizon));
            let profile = benign::BenignProfile::default();
            out.push((start, benign::session(server, &user, &profile, &mut rng)));
        }
    }
    let mid_half = |rng: &mut SimRng| SimTime(rng.range(horizon / 4, horizon / 2));
    for (i, &class) in plan.attacks.iter().enumerate() {
        let start = mid_half(&mut rng);
        let server = i % production;
        let campaign = if class == AttackClass::DataExfiltration {
            let user = deployment.owner_of(server);
            let params = exfiltration::ExfilParams {
                variant: exfiltration::ExfilVariant::Beacon,
                total_bytes: 64 * 1024 * 30,
                ..Default::default()
            };
            exfiltration::campaign(server, user, &params)
        } else {
            build_attack(class, deployment, server, &mut rng)
        };
        out.push((start, campaign));
    }
    for (i, &kind) in plan.interactive.iter().enumerate() {
        let server = (plan.attacks.len() + i) % production;
        let user = deployment.owner_of(server).to_string();
        let start = mid_half(&mut rng);
        let campaign = match kind {
            InteractiveScenario::Escalation => interactive::escalation_campaign(server, &user),
            InteractiveScenario::TerminalAbuse => {
                interactive::terminal_abuse_campaign(server, &user)
            }
            InteractiveScenario::CommExfil => interactive::comm_exfil_campaign(server, &user),
            InteractiveScenario::Worm => interactive::worm_campaign(
                server,
                &user,
                (0..production).collect(),
                WORM_HOPS.min(production),
            ),
        };
        out.push((start, campaign));
    }
    out
}

/// One internet-wave sweep over the whole fleet, decoys included,
/// starting at the end of the plan's horizon, after every scripted
/// attack's scoring window has closed (so no attack's alert can be
/// credited to the wave). Its visit order does not depend on the seed.
pub fn wave(
    deployment: &Deployment,
    intel: &IntelConfig,
    plan: &CampaignPlan,
) -> (SimTime, Campaign) {
    let mut rng = SimRng::new(WAVE_SEED);
    let built = build_wave(deployment, intel, &WaveSpec::default(), &mut rng);
    let start = Duration::from_secs(plan.horizon_secs).as_micros();
    (SimTime(start), built.campaign)
}

/// Benign users whose every cell writes a compressed checkpoint
/// archive — the ransomware detector's legitimate look-alike — on the
/// last production servers, away from the scripted attacks. They give
/// every workload a false-positive floor that does not hinge on what
/// the ordinary benign sessions happened to draw.
pub fn hard_negatives(deployment: &Deployment, plan: &CampaignPlan) -> Campaigns {
    let mut rng = SimRng::new(split_seed(plan.seed, HARD_NEGATIVE_LABEL));
    let production = deployment.production_count();
    let horizon = Duration::from_secs(plan.horizon_secs).as_micros();
    let profile = benign::BenignProfile {
        download_prob: 0.0,
        archive_prob: 1.0,
        train_prob: 0.0,
        ..Default::default()
    };
    (0..HARD_NEGATIVES)
        .map(|k| {
            let server = production - 1 - k % production;
            let user = deployment.owner_of(server).to_string();
            let start = SimTime(rng.range(0, horizon));
            (start, benign::session(server, &user, &profile, &mut rng))
        })
        .collect()
}

/// The campaigns a [`SocService`](ja_core::SocService) runs in its
/// first epoch: `plan` laid out as [`campaigns`] does, plus the
/// service's own per-epoch wave when one is configured. The wave is
/// seeded as the service seeds it (`split_seed(seed ^ 0x5741_5645,
/// epoch)`, ja-core `service.rs`).
pub fn service_epoch0(
    deployment: &Deployment,
    cfg: &ServiceConfig,
    plan: &CampaignPlan,
) -> Campaigns {
    let mut out = campaigns(deployment, plan);
    if let Some(spec) = &cfg.wave {
        let intel = cfg.pipeline.intel.clone().unwrap_or_default();
        let mut rng = SimRng::new(split_seed(cfg.seed ^ SERVICE_WAVE_SALT, 0));
        let built = build_wave(deployment, &intel, spec, &mut rng);
        let quarter = Duration::from_secs(plan.horizon_secs.max(1) / 4).as_micros();
        out.push((SimTime(rng.range(0, quarter.max(1))), built.campaign));
    }
    out
}

/// FNV-1a digest of a campaign list's full content and schedule.
pub fn digest(campaigns: &Campaigns) -> u64 {
    fnv(format!("{campaigns:?}").as_bytes())
}

/// 64-bit FNV-1a.
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_attackgen::stream::ScenarioStream;
    use ja_kernelsim::deployment::DeploymentSpec;

    fn small(seed: u64) -> (Campaigns, usize) {
        let spec = DeploymentSpec::small_lab(seed).with_decoys(1);
        let mut deployment = Deployment::build(&spec);
        let mut plan = lab_plan(seed, vec![InteractiveScenario::Escalation]);
        plan.benign_sessions_per_server = 1;
        let mut list = campaigns(&deployment, &plan);
        list.push(wave(&deployment, &IntelConfig::default(), &plan));
        let mut stream = ScenarioStream::new(&mut deployment, list.clone(), seed);
        let mut items = 0;
        while stream.next_item().is_some() {
            items += 1;
        }
        (list, items)
    }

    #[test]
    fn same_seed_same_campaigns_and_items() {
        let (a, items_a) = small(5);
        let (b, items_b) = small(5);
        assert_eq!(digest(&a), digest(&b));
        assert_eq!(items_a, items_b);
        assert!(items_a > 0);
    }

    #[test]
    fn other_seed_other_campaigns_and_items() {
        let (a, items_a) = small(5);
        let (b, items_b) = small(6);
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(items_a, items_b);
    }
}
