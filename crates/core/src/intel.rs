//! The live honeypot-intel loop: decoy → signature → intel bus →
//! hot-reloaded monitor rules.
//!
//! The paper's §IV.A lesson is that defenders "deploy Jupyter Notebook
//! monitors early at the network edges, for example, on a set of
//! honeypots, to catch the latest signatures of attacks in the wild" —
//! *before* they reach production instances. This module closes that
//! loop inside the streamed pipeline:
//!
//! 1. A deployment built with [`DeploymentSpec::decoys`] hosts real,
//!    deliberately exposed decoy servers; [`build_wave`] constructs an
//!    internet-wave [`Campaign`] that visits production servers and
//!    decoys in shuffled order, so decoys receive *real* campaign
//!    traffic through the scenario stream.
//! 2. While [`Pipeline::run`] pumps the stream, an intel loop watches
//!    kernel-audit items from decoy servers. Anything executing on a decoy is hostile by construction; each
//!    cell is recorded via [`Decoy::capture`].
//! 3. Every distinct captured payload yields a signature
//!    ([`ja_honeypot::signature::rule_from_capture`]) published on the
//!    pipeline's [`IntelBus`] and mirrored into the monitor's
//!    hot-reloadable [`RuleFeed`] with `available_at = learned_at +
//!    propagation` — so production flows that begin after propagation
//!    raise [`AlertSource::HoneypotIntel`](ja_monitor::alerts::AlertSource)
//!    alerts mid-stream, and nothing matches retroactively.
//!
//! Each publish bumps the feed's generation epoch; monitor shards key
//! their compiled Aho-Corasick snapshot on it
//! ([`ja_monitor::matcher::FeedCache`]), so between publishes the
//! per-flow intel cost is one atomic load — no lock, no rescan — and a
//! publish triggers exactly one recompile per shard.
//!
//! [`DeploymentSpec::decoys`]: ja_kernelsim::deployment::DeploymentSpec::decoys
//! [`Pipeline::run`]: crate::pipeline::Pipeline::run

use ja_attackgen::campaign::{Campaign, CampaignStep};
use ja_attackgen::stream::ScenarioItem;
use ja_attackgen::AttackClass;
use ja_honeypot::decoy::Interaction;
use ja_honeypot::intel::PublishedRule;
use ja_honeypot::signature::rule_from_capture;
use ja_honeypot::{Decoy, IntelBus};
use ja_kernelsim::actions::{Action, CellScript};
use ja_kernelsim::deployment::Deployment;
use ja_kernelsim::events::SysEventKind;
use ja_monitor::rules::{FeedCheckpoint, Pattern, RuleFeed};
use ja_netsim::addr::HostAddr;
use ja_netsim::rng::SimRng;
use ja_netsim::time::{Duration, SimTime};
use std::collections::HashSet;

/// Configuration of the pipeline-owned intel loop. Present (`Some`) on
/// a [`PipelineConfig`](crate::pipeline::PipelineConfig) it activates
/// decoy capture + signature publication in the pipeline; absent
/// it changes nothing, decoys or not.
#[derive(Clone, Debug)]
pub struct IntelConfig {
    /// Triage + distribution latency between a decoy capture and the
    /// signature becoming usable by production monitors.
    pub propagation: Duration,
    /// Realism of the decoy fleet in [0, 1] (resistance to
    /// fingerprinting; see [`Decoy::fingerprinted_by`]).
    pub realism: f64,
    /// The class a decoy operator's triage assigns to captured
    /// payloads (our experiments run single-class waves, so this is
    /// the wave's class).
    pub triage_class: AttackClass,
}

impl Default for IntelConfig {
    fn default() -> Self {
        IntelConfig {
            propagation: Duration::from_secs(600),
            realism: 0.9,
            triage_class: AttackClass::Cryptomining,
        }
    }
}

/// Where decoy captures attribute the remote peer. The kernel-audit
/// plane sees the executing user, not the network source, so captures
/// carry this placeholder external address (`203.0.190.239`).
const UNATTRIBUTED_PEER: HostAddr = HostAddr(0xCB00_0000 | 0xBEEF);

/// Per-run state of the intel loop: the decoy fleet's capture books,
/// the pipeline's intel bus, and the live feed handle shared with the
/// monitor shards.
pub(crate) struct IntelLoop {
    decoy_base: u32,
    decoys: Vec<Decoy>,
    bus: IntelBus,
    feed: RuleFeed,
    seen_tokens: HashSet<String>,
    triage_class: AttackClass,
    seq: usize,
}

impl IntelLoop {
    /// Fresh loop state for one streamed run: one [`Decoy`] per decoy
    /// server, an empty bus, an empty feed.
    pub(crate) fn new(cfg: &IntelConfig, deployment: &Deployment) -> Self {
        let decoy_base = deployment.production_count() as u32;
        let decoys = deployment
            .decoy_indices()
            .map(|i| Decoy::new(i as u32, cfg.realism))
            .collect();
        IntelLoop {
            decoy_base,
            decoys,
            bus: IntelBus::new(cfg.propagation),
            feed: RuleFeed::new(),
            seen_tokens: HashSet::new(),
            triage_class: cfg.triage_class,
            seq: 0,
        }
    }

    /// The hot-reload feed the run's monitor should consult.
    pub(crate) fn feed(&self) -> &RuleFeed {
        &self.feed
    }

    /// Watch one scenario item. A `CellExecute` audit event on a decoy
    /// server is an attacker interaction: capture it, and publish a
    /// signature for every payload not yet signed. Publication happens
    /// *inside* the pump loop, so by stream ordering every flow a rule
    /// may match (flows beginning at/after `available_at`) is analyzed
    /// with the rule already in the feed.
    pub(crate) fn observe(&mut self, item: &ScenarioItem) {
        let ScenarioItem::Sys(ev) = item else { return };
        if ev.server_id < self.decoy_base {
            return;
        }
        let Some(decoy) = self
            .decoys
            .get_mut((ev.server_id - self.decoy_base) as usize)
        else {
            return;
        };
        let SysEventKind::CellExecute { code, .. } = &ev.kind else {
            return;
        };
        decoy.capture(
            ev.time,
            UNATTRIBUTED_PEER,
            Interaction::ExecuteCell { code: code.clone() },
        );
        let rule = rule_from_capture(decoy.id, self.seq, self.triage_class, code);
        let Pattern::CodeSubstring(token) = &rule.pattern else {
            return;
        };
        if self.seen_tokens.insert(token.clone()) {
            self.seq += 1;
            self.bus.publish(ev.time, rule.clone());
            let inserted = self
                .feed
                .publish(ev.time + self.bus.propagation_delay, rule);
            // Token-dedup guarantees a fresh id, so every publish must
            // bump the feed epoch (one shard recompile each).
            debug_assert!(inserted, "duplicate rule id escaped token dedup");
        }
    }

    /// Finish the run: the decoy fleet's state and everything the bus
    /// published.
    pub(crate) fn into_outcome(self) -> IntelOutcome {
        let first_capture = self
            .decoys
            .iter()
            .flat_map(|d| d.captures.iter().map(|c| c.time))
            .min();
        IntelOutcome {
            captures: self.decoys.iter().map(|d| d.captures.len()).sum(),
            first_capture,
            first_available: self.bus.first_available(),
            published: self.bus.published().to_vec(),
            decoys: self.decoys,
        }
    }

    /// Serializable copy of the loop's full durable state. Restoring it
    /// (possibly in another process) yields a loop that observes the
    /// remainder of a stream exactly as this one would have.
    pub(crate) fn snapshot(&self) -> IntelSnapshot {
        // The dedup set iterates in hash order; sort so equal states
        // serialize identically (checkpoint digests rely on it).
        let mut seen_tokens: Vec<String> = self.seen_tokens.iter().cloned().collect();
        seen_tokens.sort_unstable();
        IntelSnapshot {
            decoy_base: self.decoy_base,
            decoys: self.decoys.clone(),
            bus: self.bus.clone(),
            feed: self.feed.checkpoint(),
            seen_tokens,
            triage_class: self.triage_class,
            seq: self.seq as u64,
        }
    }

    /// Rebuild a loop from a checkpointed state instead of starting
    /// fresh — the service epoch loop's way of carrying learned
    /// signatures (and their dedup history) across epochs and restarts.
    pub(crate) fn restore(snap: &IntelSnapshot) -> Self {
        IntelLoop {
            decoy_base: snap.decoy_base,
            decoys: snap.decoys.clone(),
            bus: snap.bus.clone(),
            feed: RuleFeed::restore(&snap.feed),
            seen_tokens: snap.seen_tokens.iter().cloned().collect(),
            triage_class: snap.triage_class,
            seq: snap.seq as usize,
        }
    }
}

/// Checkpointed state of the honeypot intel loop: the decoy fleet's
/// capture books, the bus's publish history, the hot-reload feed
/// contents (rules + generation epoch), and the payload-dedup set.
/// Everything `IntelLoop` needs to resume mid-service without
/// re-learning or double-publishing a signature.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct IntelSnapshot {
    /// First decoy server id (production ids are below it).
    pub decoy_base: u32,
    /// The decoy fleet, capture books included.
    pub decoys: Vec<Decoy>,
    /// The intel bus: propagation delay plus publish history.
    pub bus: IntelBus,
    /// Hot-reload feed contents and generation epoch.
    pub feed: FeedCheckpoint,
    /// Payload tokens already signed, sorted (dedup across epochs).
    pub seen_tokens: Vec<String>,
    /// The triage class assigned to captured payloads.
    pub triage_class: AttackClass,
    /// Next signature sequence number.
    pub seq: u64,
}

/// What the intel loop did during one streamed run.
#[derive(Clone, Debug)]
pub struct IntelOutcome {
    /// The decoy fleet after the run, capture books included.
    pub decoys: Vec<Decoy>,
    /// Total attacker interactions captured across the fleet.
    pub captures: usize,
    /// Rules published on the bus (one per distinct payload, first
    /// capture each), in publish order.
    pub published: Vec<PublishedRule>,
    /// Earliest decoy capture, if any.
    pub first_capture: Option<SimTime>,
    /// Earliest instant a published signature reached production
    /// monitors, if any.
    pub first_available: Option<SimTime>,
}

/// Parameters of an internet-scale attack wave against one deployment:
/// the mass-scanning campaign of E6(c)/A1, now expressed as a real
/// [`Campaign`] the streamed pipeline executes.
#[derive(Clone, Debug)]
pub struct WaveSpec {
    /// Class of the wave's payload.
    pub class: AttackClass,
    /// The payload cell dropped on every reachable target.
    pub payload_code: String,
    /// The payload's host-side effects (the audit-plane half of the
    /// cell). Override together with `payload_code` when studying a
    /// different payload.
    pub payload_actions: Vec<Action>,
    /// Seconds-scale gap between successive target visits.
    pub inter_visit: Duration,
    /// Attacker fingerprinting sophistication in [0, 1]: probability
    /// mass invested in identifying (and skipping) decoys.
    pub sophistication: f64,
    /// The attacker's source address (external).
    pub attacker: HostAddr,
}

impl Default for WaveSpec {
    fn default() -> Self {
        WaveSpec {
            class: AttackClass::Cryptomining,
            // Distinct from every builtin signature, so detections of
            // this payload isolate the honeypot-intel loop.
            payload_code:
                "subprocess.Popen(['/tmp/.kinsing_cryptonight_v7','-o','xmr.darkpool:7777'])".into(),
            payload_actions: vec![
                Action::Exec {
                    name: "kinsing".into(),
                    cmdline: "/tmp/.kinsing_cryptonight_v7 -o xmr.darkpool:7777".into(),
                },
                Action::Connect {
                    dst: HostAddr::external(0x66),
                    dst_port: 7777,
                },
                Action::SendBytes {
                    bytes: 256,
                    entropy_high: false,
                },
            ],
            inter_visit: Duration::from_secs(120),
            sophistication: 0.0,
            attacker: HostAddr::external(0xBEEF),
        }
    }
}

/// A built wave: the executable campaign plus the visit schedule the
/// ablation needs to count exposure.
#[derive(Clone, Debug)]
pub struct WaveCampaign {
    /// The campaign to hand to the pipeline.
    pub campaign: Campaign,
    /// `(server, payload-cell offset)` for every production visit, in
    /// visit order.
    pub production_visits: Vec<(usize, Duration)>,
    /// `(server, payload-cell offset)` for every decoy the attacker
    /// actually engaged.
    pub decoy_visits: Vec<(usize, Duration)>,
    /// Decoys the attacker fingerprinted and skipped (probe only).
    pub decoys_skipped: usize,
}

/// Build a wave over `deployment`: every server — production and decoy
/// alike — is probed and, unless the target is a decoy the attacker
/// fingerprints (probability grows with `spec.sophistication` and
/// shrinks with `intel.realism`), receives the payload cell. Visit
/// order is a deterministic shuffle from `rng`; the attacker cannot
/// tell bait from production up front. Taking the same [`IntelConfig`]
/// the pipeline runs with keeps the wave's fingerprint model and the
/// decoy fleet's configured realism in sync by construction.
pub fn build_wave(
    deployment: &Deployment,
    intel: &IntelConfig,
    spec: &WaveSpec,
    rng: &mut SimRng,
) -> WaveCampaign {
    let mut targets: Vec<usize> = (0..deployment.servers.len()).collect();
    for i in (1..targets.len()).rev() {
        let j = rng.range(0, (i + 1) as u64) as usize;
        targets.swap(i, j);
    }
    let script = CellScript::new(&spec.payload_code, spec.payload_actions.clone());
    let mut steps = Vec::new();
    let mut production_visits = Vec::new();
    let mut decoy_visits = Vec::new();
    let mut decoys_skipped = 0usize;
    for (i, &server) in targets.iter().enumerate() {
        let probe_at = spec.inter_visit * i as u64;
        steps.push(CampaignStep::Probe {
            src: spec.attacker,
            server,
            port: deployment.servers[server].port,
            offset: probe_at,
        });
        let drop_at = probe_at + Duration::from_secs(1);
        if deployment.is_decoy(server) {
            if Decoy::new(server as u32, intel.realism).fingerprinted_by(spec.sophistication, rng) {
                decoys_skipped += 1;
                continue;
            }
            decoy_visits.push((server, drop_at));
        } else {
            production_visits.push((server, drop_at));
        }
        steps.push(CampaignStep::Cell {
            server,
            user: deployment.owner_of(server).to_string(),
            offset: drop_at,
            script: script.clone(),
        });
    }
    WaveCampaign {
        campaign: Campaign::scripted(
            Some(spec.class),
            &format!("wave-{}", spec.class.label()),
            steps,
        ),
        production_visits,
        decoy_visits,
        decoys_skipped,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_kernelsim::deployment::DeploymentSpec;

    fn site(decoys: usize) -> Deployment {
        Deployment::build(&DeploymentSpec::small_lab(3).with_decoys(decoys))
    }

    #[test]
    fn wave_visits_every_reachable_target_once() {
        let d = site(2);
        let mut rng = SimRng::new(1);
        let w = build_wave(&d, &IntelConfig::default(), &WaveSpec::default(), &mut rng);
        assert_eq!(w.production_visits.len(), 4);
        assert_eq!(w.decoy_visits.len() + w.decoys_skipped, 2);
        // One probe per server, one payload cell per engaged target.
        let probes = w
            .campaign
            .steps
            .iter()
            .filter(|s| matches!(s, CampaignStep::Probe { .. }))
            .count();
        assert_eq!(probes, 6);
    }

    #[test]
    fn naive_attacker_never_skips_decoys() {
        let d = site(3);
        let mut rng = SimRng::new(2);
        let spec = WaveSpec {
            sophistication: 0.0,
            ..Default::default()
        };
        let naive = IntelConfig {
            realism: 0.0,
            ..Default::default()
        };
        let w = build_wave(&d, &naive, &spec, &mut rng);
        assert_eq!(w.decoys_skipped, 0);
        assert_eq!(w.decoy_visits.len(), 3);
    }

    #[test]
    fn expert_attacker_skips_naive_decoys() {
        let d = site(3);
        let mut rng = SimRng::new(2);
        let spec = WaveSpec {
            sophistication: 1.0,
            ..Default::default()
        };
        let naive = IntelConfig {
            realism: 0.0,
            ..Default::default()
        };
        let w = build_wave(&d, &naive, &spec, &mut rng);
        assert_eq!(w.decoys_skipped, 3);
        assert!(w.decoy_visits.is_empty());
    }

    #[test]
    fn intel_loop_captures_and_publishes_once_per_payload() {
        use ja_kernelsim::events::{SysEvent, SysEventKind};
        let d = site(2);
        let cfg = IntelConfig {
            propagation: Duration::from_secs(300),
            ..Default::default()
        };
        let mut il = IntelLoop::new(&cfg, &d);
        let exec = |server_id: u32, t: u64, code: &str| {
            ScenarioItem::Sys(SysEvent {
                time: SimTime::from_secs(t),
                server_id,
                user: "svc-decoy-0".into(),
                kind: SysEventKind::CellExecute {
                    kernel_id: 0,
                    code: code.into(),
                },
            })
        };
        // Production executions are invisible to the loop.
        il.observe(&exec(0, 5, "evil_dropper_v1()"));
        // Two captures of the same payload on different decoys: one rule.
        il.observe(&exec(4, 10, "evil_dropper_v1()"));
        il.observe(&exec(5, 20, "evil_dropper_v1()"));
        // A distinct payload publishes its own rule.
        il.observe(&exec(5, 30, "evil_dropper_v2()"));
        assert_eq!(il.feed().len(), 2);
        let out = il.into_outcome();
        assert_eq!(out.captures, 3);
        assert_eq!(out.published.len(), 2);
        assert_eq!(out.first_capture, Some(SimTime::from_secs(10)));
        // learned at 10s + 300s propagation.
        assert_eq!(out.first_available, Some(SimTime::from_secs(310)));
        assert_eq!(out.decoys[0].captures.len(), 1);
        assert_eq!(out.decoys[1].captures.len(), 2);
    }

    #[test]
    fn intel_snapshot_round_trips_and_keeps_dedup_across_restore() {
        use ja_kernelsim::events::{SysEvent, SysEventKind};
        let d = site(2);
        let mut il = IntelLoop::new(&IntelConfig::default(), &d);
        let exec = |server_id: u32, t: u64, code: &str| {
            ScenarioItem::Sys(SysEvent {
                time: SimTime::from_secs(t),
                server_id,
                user: "svc-decoy-0".into(),
                kind: SysEventKind::CellExecute {
                    kernel_id: 0,
                    code: code.into(),
                },
            })
        };
        il.observe(&exec(4, 10, "evil_dropper_v1()"));
        il.observe(&exec(5, 20, "evil_dropper_v2()"));
        let snap = il.snapshot();
        // Serde round trip through JSON preserves the snapshot exactly.
        let json = serde_json::to_string(&snap).unwrap();
        let back: IntelSnapshot =
            serde::Deserialize::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back.seen_tokens, snap.seen_tokens);
        assert_eq!(back.seq, snap.seq);
        assert_eq!(back.feed.epoch, snap.feed.epoch);
        assert_eq!(back.feed.rules.len(), 2);

        // A restored loop dedups payloads learned before the restore
        // (no re-publish) but still learns genuinely new ones.
        let mut restored = IntelLoop::restore(&back);
        assert_eq!(restored.feed().len(), 2);
        let epoch_before = restored.feed().epoch();
        restored.observe(&exec(4, 30, "evil_dropper_v1()"));
        assert_eq!(restored.feed().len(), 2, "old payload re-published");
        assert_eq!(restored.feed().epoch(), epoch_before);
        restored.observe(&exec(4, 40, "evil_dropper_v3()"));
        assert_eq!(restored.feed().len(), 3);
        let out = restored.into_outcome();
        // Capture books carried over plus the two new interactions.
        assert_eq!(out.captures, 4);
        assert_eq!(out.published.len(), 3);
    }
}
