//! The end-to-end auditing pipeline — the system Fig. 1's caption calls
//! "the design of auditing Jupyter to have better visibility against
//! such attacks".
//!
//! One [`Pipeline::run`] does what a real deployment's defense stack
//! does continuously: execute workload (benign + attacks) on the
//! deployment, capture the network at the tap, collect kernel-audit
//! events through the bounded tracer, scan configurations, fold in
//! honeypot-learned signatures, classify everything, and report.
//!
//! There is one path. The lazy scenario producer
//! ([`ja_attackgen::stream::ScenarioStream`]) is fused straight into
//! the streaming monitor, the bounded tracer and the auth analyzer; no
//! trace is ever materialized, so peak memory is bounded by
//! concurrently live campaigns and flows, and generation overlaps
//! analysis. [`PipelineConfig::producers`] and
//! [`PipelineConfig::shards`] fan out the two ends of that stream —
//! server-disjoint producer threads merged back into canonical order,
//! and flow-hashed monitor shards — without changing a single output
//! bit. A caller that needs the raw capture (dataset export,
//! forensics) runs [`ja_attackgen::campaign::execute`] directly.

use crate::classify::incidents;
use crate::intel::{IntelConfig, IntelLoop, IntelOutcome};
use crate::metrics::{score, ScoringConfig};
use crate::report::Report;
use crate::service::WatermarkProof;
use ja_attackgen::campaign::{Campaign, GroundTruth};
use ja_attackgen::mixer::build_attack;
use ja_attackgen::parallel::run_parallel;
use ja_attackgen::stream::{ScenarioItem, ScenarioStream};
use ja_attackgen::AttackClass;
use ja_audit::detectors::AuditDetector;
use ja_audit::tracer::Tracer;
use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
use ja_kernelsim::hub::AuthEvent;
use ja_monitor::alerts::AlertSource;
use ja_monitor::detectors::scan_config;
use ja_monitor::engine::{Monitor, MonitorConfig, MonitorStats};
use ja_monitor::streaming::StreamingConfig;
use ja_netsim::rng::SimRng;
use ja_netsim::time::{Duration, SimTime};

/// Decorrelates the scenario stream's seed from the plan's placement
/// seed.
const STREAM_SALT: u64 = 0xA0D17;

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct PipelineConfig {
    /// Deployment spec.
    pub deployment: DeploymentSpec,
    /// Monitor configuration (rules/thresholds; server maps are filled
    /// in by the pipeline).
    pub monitor: MonitorConfig,
    /// Grant the monitor TLS inspection for fleet servers?
    pub tls_inspection: bool,
    /// Kernel tracer ring capacity.
    pub tracer_capacity: usize,
    /// Monitor shard workers (`None` = 1, analyzed inline on the
    /// feeding thread). Output is bit-identical at every shard count.
    pub shards: Option<usize>,
    /// Scenario producer threads (`None` = 1, an inline stream). The
    /// effective count may be lower: campaigns sharing a server always
    /// run on one producer. Output is bit-identical at every producer
    /// count.
    pub producers: Option<usize>,
    /// Incident merge window.
    pub merge_window: Duration,
    /// Scoring config.
    pub scoring: ScoringConfig,
    /// Honeypot intel loop (decoy capture → signature → hot-reloaded
    /// monitor rules).
    pub intel: Option<IntelConfig>,
}

impl PipelineConfig {
    /// A small hardened lab (4 servers), full visibility, sequential.
    pub fn small_lab(seed: u64) -> Self {
        PipelineConfig {
            deployment: DeploymentSpec::small_lab(seed),
            monitor: MonitorConfig::default(),
            tls_inspection: true,
            tracer_capacity: 1 << 16,
            shards: None,
            producers: None,
            merge_window: Duration::from_secs(1800),
            scoring: ScoringConfig::default(),
            intel: None,
        }
    }

    /// A campus-scale deployment with hygiene problems.
    pub fn campus(seed: u64) -> Self {
        PipelineConfig {
            deployment: DeploymentSpec::campus(seed),
            ..Self::small_lab(seed)
        }
    }
}

/// Labels and bounds of the executed scenario.
pub struct ScenarioArtifacts {
    /// Ground-truth labels, one per campaign, in plan order.
    pub ground_truth: Vec<GroundTruth>,
    /// When the scenario ended.
    pub end: SimTime,
}

/// Everything one pipeline run produced.
pub struct RunOutcome {
    /// Scenario labels and bounds.
    pub scenario: ScenarioArtifacts,
    /// Monitor statistics.
    pub monitor_stats: MonitorStats,
    /// Kernel-audit completeness (1.0 = no ring drops).
    pub audit_completeness: f64,
    /// What the honeypot intel loop did (`Some` when
    /// [`PipelineConfig::intel`] is configured).
    pub intel: Option<IntelOutcome>,
    /// The consolidated report.
    pub report: Report,
}

/// Observation hooks an always-on driver (the SOC service) threads
/// through one epoch's fused pump. The pump calls
/// [`EpochObserver::on_item`] for every scenario item *before* routing
/// it; returning `true` requests a watermark capture, delivered to
/// [`EpochObserver::at_watermark`] immediately *after* the item is
/// routed.
pub(crate) trait EpochObserver {
    /// One scenario item is about to be routed; `count` is 1-based.
    fn on_item(&mut self, count: u64, item: &ScenarioItem) -> bool;
    /// A requested watermark capture: the item count and every layer
    /// snapshot the pump can observe, all as of the instant *after*
    /// the `items`-th item was routed. The pump leaves `digest` zero;
    /// the observer folds the feed digest and stamps it.
    fn at_watermark(&mut self, mark: WatermarkProof);
}

/// Observer used by one-shot runs: no watermarks.
pub(crate) struct NoopObserver;

impl EpochObserver for NoopObserver {
    fn on_item(&mut self, _count: u64, _item: &ScenarioItem) -> bool {
        false
    }
    fn at_watermark(&mut self, _mark: WatermarkProof) {}
}

/// An interactive scenario slot in a plan: which reactive adversary
/// drives a live session ([`ja_attackgen::interactive`]). Unlike the
/// scripted [`AttackClass`] campaigns, these have no steps up front —
/// the executor materializes each move from the previous kernel
/// outcome, and every producer count carries them through the same
/// [`ja_attackgen::StreamKey`] total order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InteractiveScenario {
    /// Hands-on-keyboard privilege escalation on one server.
    Escalation,
    /// Terminal-channel abuse: explore, then `curl | sh`.
    TerminalAbuse,
    /// Comm-channel exfiltration of exactly the files a listing reveals.
    CommExfil,
    /// Notebook worm pivoting across the production fleet on harvested
    /// credentials.
    Worm,
}

impl InteractiveScenario {
    /// All interactive scenario kinds.
    pub const ALL: [InteractiveScenario; 4] = [
        InteractiveScenario::Escalation,
        InteractiveScenario::TerminalAbuse,
        InteractiveScenario::CommExfil,
        InteractiveScenario::Worm,
    ];
}

/// What to run.
#[derive(Clone, Debug)]
pub struct CampaignPlan {
    /// Benign sessions per server.
    pub benign_sessions_per_server: usize,
    /// Attack classes to inject.
    pub attacks: Vec<AttackClass>,
    /// Interactive adversary sessions to inject (empty = scripted-only
    /// plan, bit-identical to the pre-interactive pipeline).
    pub interactive: Vec<InteractiveScenario>,
    /// Scenario horizon (seconds).
    pub horizon_secs: u64,
    /// Stretch factor applied to every attack campaign's schedule:
    /// values `> 1` slow it down via
    /// [`ja_attackgen::evasion::low_and_slow`]; any value `<= 1.0`
    /// (including 0/NaN) means native pacing — schedules are never
    /// compressed.
    pub stretch: f64,
    /// Seed for campaign placement.
    pub seed: u64,
}

impl CampaignPlan {
    /// One campaign of one class, one benign session per server.
    pub fn single(class: AttackClass) -> Self {
        CampaignPlan {
            benign_sessions_per_server: 1,
            attacks: vec![class],
            interactive: Vec::new(),
            horizon_secs: 3600,
            stretch: 1.0,
            seed: 7,
        }
    }

    /// The full mixed scenario across all classes.
    pub fn full_mix(seed: u64) -> Self {
        CampaignPlan {
            benign_sessions_per_server: 2,
            attacks: AttackClass::ALL.to_vec(),
            interactive: Vec::new(),
            horizon_secs: 6 * 3600,
            stretch: 1.0,
            seed,
        }
    }

    /// A quiet APT: a sparse 48-hour capture with one benign session
    /// per server and a stealth-leaning attack mix (beacon-style exfil,
    /// the zero-day comm side channel, credential attack) stretched 8×
    /// low-and-slow. This is the long-horizon regime the streamed
    /// pipeline is built for: the capture is enormous in duration but
    /// only a handful of campaigns and flows are ever live at once.
    pub fn quiet_apt(seed: u64) -> Self {
        CampaignPlan {
            benign_sessions_per_server: 1,
            attacks: vec![
                AttackClass::DataExfiltration,
                AttackClass::ZeroDay,
                AttackClass::AccountTakeover,
            ],
            interactive: Vec::new(),
            horizon_secs: 48 * 3600,
            stretch: 8.0,
            seed,
        }
    }
}

/// The unified pipeline.
pub struct Pipeline {
    /// Configuration.
    pub config: PipelineConfig,
    deployment: Deployment,
}

impl Pipeline {
    /// Build the deployment and pipeline.
    pub fn new(config: PipelineConfig) -> Self {
        let deployment = Deployment::build(&config.deployment);
        Pipeline { config, deployment }
    }

    /// Access the deployment (e.g. for campaign construction).
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// Build the campaign schedule (benign + attacks + interactive
    /// sessions) a plan describes — what [`Pipeline::run`] executes.
    /// Callers can extend or replace it and run the result through
    /// [`Pipeline::run_campaigns`].
    pub fn build_campaigns(&self, plan: &CampaignPlan) -> Vec<(SimTime, Campaign)> {
        let mut rng = SimRng::new(plan.seed);
        let mut campaigns: Vec<(SimTime, Campaign)> = Vec::new();
        // Benign workload and targeted attacks run on production
        // servers only; decoys receive traffic through wave campaigns
        // (see [`crate::intel::build_wave`]).
        for s in 0..self.deployment.production_count() {
            let user = self.deployment.owner_of(s).to_string();
            for _ in 0..plan.benign_sessions_per_server {
                let start =
                    SimTime(rng.range(0, Duration::from_secs(plan.horizon_secs).as_micros()));
                campaigns.push((
                    start,
                    ja_attackgen::benign::session(
                        s,
                        &user,
                        &ja_attackgen::benign::BenignProfile::default(),
                        &mut rng,
                    ),
                ));
            }
        }
        for (i, &class) in plan.attacks.iter().enumerate() {
            let server = i % self.deployment.production_count();
            let start = SimTime(rng.range(
                Duration::from_secs(plan.horizon_secs / 4).as_micros(),
                Duration::from_secs(plan.horizon_secs / 2).as_micros(),
            ));
            let mut c = build_attack(class, &self.deployment, server, &mut rng);
            if plan.stretch > 1.0 {
                c = ja_attackgen::evasion::low_and_slow(c, plan.stretch);
            }
            campaigns.push((start, c));
        }
        // Interactive sessions: stepless at plan time; each gets a start
        // slot and an entry server exactly like a scripted attack, and
        // the executor materializes its moves from live kernel outcomes.
        // `stretch` does not apply — there is no schedule to stretch,
        // only reaction delays.
        for (i, &kind) in plan.interactive.iter().enumerate() {
            let server = (plan.attacks.len() + i) % self.deployment.production_count();
            let user = self.deployment.owner_of(server).to_string();
            let start = SimTime(rng.range(
                Duration::from_secs(plan.horizon_secs / 4).as_micros(),
                Duration::from_secs(plan.horizon_secs / 2).as_micros(),
            ));
            let c = match kind {
                InteractiveScenario::Escalation => {
                    ja_attackgen::interactive::escalation_campaign(server, &user)
                }
                InteractiveScenario::TerminalAbuse => {
                    ja_attackgen::interactive::terminal_abuse_campaign(server, &user)
                }
                InteractiveScenario::CommExfil => {
                    ja_attackgen::interactive::comm_exfil_campaign(server, &user)
                }
                InteractiveScenario::Worm => ja_attackgen::interactive::worm_campaign(
                    server,
                    &user,
                    (0..self.deployment.production_count()).collect(),
                    self.deployment.production_count(),
                ),
            };
            campaigns.push((start, c));
        }
        campaigns
    }

    /// The monitor for one run/epoch: the configured rules/thresholds
    /// wired with fleet knowledge (server attribution and TLS-inspection
    /// secrets when granted). Decoy flows are scanned like any other;
    /// the intel loop mines decoys from kernel-audit items, not from
    /// monitor buffers. When an intel loop is live its feed handle replaces the
    /// configured one, so signatures the loop learns hot-reload into
    /// this monitor's shards (the feed is a shared handle — cloning it
    /// shares state, it does not copy rules).
    fn fleet_monitor(&self, intel: Option<&IntelLoop>) -> Monitor {
        let mut mcfg = self.config.monitor.clone();
        for srv in &self.deployment.servers {
            mcfg.server_ids.insert(srv.addr, srv.id);
            if self.config.tls_inspection {
                mcfg.inspect_secrets
                    .insert(srv.addr, srv.transport_secret.clone());
            }
        }
        if let Some(il) = intel {
            mcfg.intel = il.feed().clone();
        }
        Monitor::new(mcfg)
    }

    /// How many monitor shards the configuration asks for.
    pub(crate) fn shard_count(&self) -> usize {
        self.config.shards.unwrap_or(1).max(1)
    }

    /// How many scenario producer threads the configuration asks for.
    fn producer_count(&self) -> usize {
        self.config.producers.unwrap_or(1).max(1)
    }

    /// Run a plan end to end.
    pub fn run(&mut self, plan: &CampaignPlan) -> RunOutcome {
        let campaigns = self.build_campaigns(plan);
        self.run_campaigns(campaigns, plan.seed)
    }

    /// Run explicit campaigns end to end. The honeypot intel loop, when
    /// configured, gets fresh per-run state so signatures learned here
    /// never leak across runs; the always-on service drives the same
    /// pump with a *persistent* loop instead.
    pub fn run_campaigns(&mut self, campaigns: Vec<(SimTime, Campaign)>, seed: u64) -> RunOutcome {
        let intel_cfg = self.config.intel.as_ref();
        let mut intel = intel_cfg.map(|cfg| IntelLoop::new(cfg, &self.config.deployment));
        let mut out = self.pump_epoch(campaigns, seed, intel.as_mut(), &mut NoopObserver);
        out.intel = intel.map(IntelLoop::into_outcome);
        out
    }

    /// Same as [`Pipeline::run_campaigns`]; kept for existing callers.
    pub fn run_campaigns_streamed(
        &mut self,
        campaigns: Vec<(SimTime, Campaign)>,
        seed: u64,
    ) -> RunOutcome {
        self.run_campaigns(campaigns, seed)
    }

    /// Same as [`Pipeline::run_campaigns`]; kept for existing callers.
    /// Producer and shard counts come from the configuration.
    pub fn run_campaigns_streamed_parallel(
        &mut self,
        campaigns: Vec<(SimTime, Campaign)>,
        seed: u64,
    ) -> RunOutcome {
        self.run_campaigns(campaigns, seed)
    }

    /// The one pump every run and service epoch goes through. Each
    /// scenario item is routed the moment it is produced: the intel
    /// loop observes it, the observer sees it, and then the segment
    /// goes to the (sharded) streaming monitor, the kernel event to the
    /// bounded tracer, the auth event to the auth log. One producer
    /// runs an inline [`ScenarioStream`], so watermarks carry its
    /// snapshot; more run [`run_parallel`], whose keyed merge delivers
    /// the same items in the same order.
    pub(crate) fn pump_epoch(
        &mut self,
        campaigns: Vec<(SimTime, Campaign)>,
        seed: u64,
        mut intel: Option<&mut IntelLoop>,
        observer: &mut dyn EpochObserver,
    ) -> RunOutcome {
        let monitor = self.fleet_monitor(intel.as_deref());
        let (producers, shards) = (self.producer_count(), self.shard_count());
        let mut tracer = Tracer::new(self.config.tracer_capacity);
        let mut auth_log: Vec<AuthEvent> = Vec::new();
        let deployment = &mut self.deployment;
        let mut labels = (Vec::new(), SimTime::ZERO);
        let mut count = 0u64;
        let (mut alerts, monitor_stats) =
            monitor.analyze_stream(shards, StreamingConfig::close_evict(), |sink| {
                let mut route = |item: ScenarioItem, stream: Option<&ScenarioStream>| {
                    if let Some(il) = intel.as_mut() {
                        il.observe(&item);
                    }
                    count += 1;
                    let capture = observer.on_item(count, &item);
                    match item {
                        ScenarioItem::Segment(rec) => sink.accept(rec),
                        ScenarioItem::Auth(ev) => auth_log.push(ev),
                        ScenarioItem::Sys(ev) => tracer.ingest(ev),
                    }
                    if capture {
                        observer.at_watermark(WatermarkProof {
                            items: count,
                            digest: 0,
                            stream: stream.map(ScenarioStream::snapshot),
                            shard: sink.shard_snapshot(),
                            intel: intel.as_deref().map(IntelLoop::snapshot),
                        });
                    }
                };
                let seed = seed ^ STREAM_SALT;
                if producers == 1 {
                    let mut stream = ScenarioStream::new(deployment, campaigns, seed);
                    while let Some(item) = stream.next_item() {
                        route(item, Some(&stream));
                    }
                    labels = stream.into_labels();
                } else {
                    let out = run_parallel(deployment, campaigns, seed, producers, |item| {
                        route(item, None)
                    });
                    labels = (out.ground_truth, out.end);
                }
            });
        let (ground_truth, end) = labels;
        alerts.extend(monitor.analyze_auth(&auth_log));
        alerts.extend(AuditDetector::new().analyze(&tracer.collect()));
        // Configuration findings are hygiene reports, not campaign
        // detections: they stay in the report and incident queue but
        // are not scored against ground truth. Decoys are exposed *on
        // purpose* — bait, not hygiene failures — so the scan skips
        // them.
        for (idx, srv) in self.deployment.servers.iter().enumerate() {
            if !self.deployment.is_decoy(idx) {
                alerts.extend(scan_config(srv.id, &srv.config).into_iter().map(|(_, a)| a));
            }
        }
        alerts.sort_by_key(|a| a.time);
        let scored = alerts
            .iter()
            .filter(|a| a.source != AlertSource::ConfigScan);
        let board = score(scored, &ground_truth, &self.config.scoring);
        RunOutcome {
            scenario: ScenarioArtifacts { ground_truth, end },
            monitor_stats,
            audit_completeness: tracer.completeness(),
            intel: None,
            report: Report {
                incidents: incidents(&alerts, self.config.merge_window),
                alerts,
                scoreboard: Some(board),
            },
        }
    }
}

/// One deployment + plan to execute as part of a fleet.
#[derive(Clone, Debug)]
pub struct FleetJob {
    /// Human-readable deployment name (report key).
    pub label: String,
    /// Pipeline configuration for this deployment.
    pub config: PipelineConfig,
    /// The campaign plan to run against it.
    pub plan: CampaignPlan,
}

impl FleetJob {
    /// A labelled job.
    pub fn new(label: impl Into<String>, config: PipelineConfig, plan: CampaignPlan) -> Self {
        FleetJob {
            label: label.into(),
            config,
            plan,
        }
    }
}

/// The outcome of one fleet member's run.
pub struct FleetRun {
    /// The job's label.
    pub label: String,
    /// Everything its pipeline produced.
    pub outcome: RunOutcome,
}

/// Aggregated results across a fleet of deployments.
pub struct FleetOutcome {
    /// Per-deployment runs, in job order.
    pub runs: Vec<FleetRun>,
}

impl FleetOutcome {
    /// Total alerts raised across the fleet.
    pub fn total_alerts(&self) -> usize {
        self.runs
            .iter()
            .map(|r| r.outcome.report.alerts_total())
            .sum()
    }

    /// Total segments the fleet's monitors consumed.
    pub fn total_segments(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.outcome.monitor_stats.segments)
            .sum()
    }

    /// Campaigns detected / campaigns injected, fleet-wide (scored
    /// classes only).
    pub fn detection_totals(&self) -> (usize, usize) {
        let mut detected = 0;
        let mut campaigns = 0;
        for r in &self.runs {
            if let Some(board) = &r.outcome.report.scoreboard {
                for (_, s) in &board.classes {
                    detected += s.detected;
                    campaigns += s.campaigns;
                }
            }
        }
        (detected, campaigns)
    }

    /// One fleet-wide report folded from every run via
    /// [`Report::merge`]: alerts in global time order, incidents
    /// concatenated, scoreboards folded. Equivalent to aggregating the
    /// runs in one batch (see the merge test in `report.rs`).
    pub fn merged_report(&self) -> Report {
        let mut merged = Report::default();
        for r in &self.runs {
            merged.merge(r.outcome.report.clone());
        }
        merged
    }

    /// Mean macro-recall across scored runs.
    pub fn mean_macro_recall(&self) -> f64 {
        let scored: Vec<f64> = self
            .runs
            .iter()
            .filter_map(|r| r.outcome.report.scoreboard.as_ref())
            .map(|b| b.macro_recall())
            .collect();
        if scored.is_empty() {
            0.0
        } else {
            scored.iter().sum::<f64>() / scored.len() as f64
        }
    }

    /// One summary line per deployment plus fleet totals.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:>10} {:>8} {:>10} {:>14}\n",
            "deployment", "segments", "alerts", "incidents", "macro-recall"
        ));
        for r in &self.runs {
            let recall = r
                .outcome
                .report
                .scoreboard
                .as_ref()
                .map(|b| format!("{:.2}", b.macro_recall()))
                .unwrap_or_else(|| "-".into());
            out.push_str(&format!(
                "{:<18} {:>10} {:>8} {:>10} {:>14}\n",
                r.label,
                r.outcome.monitor_stats.segments,
                r.outcome.report.alerts_total(),
                r.outcome.report.incidents_total(),
                recall
            ));
        }
        let (det, camp) = self.detection_totals();
        out.push_str(&format!(
            "fleet: {} deployments, {} segments, {} alerts, {det}/{camp} campaigns detected\n",
            self.runs.len(),
            self.total_segments(),
            self.total_alerts(),
        ));
        out
    }
}

impl Pipeline {
    /// Run many deployments/plans in parallel and aggregate — the
    /// multi-deployment regime an NCSA-scale operator actually runs,
    /// where each cluster or lab has its own JupyterHub and the SOC
    /// aggregates across all of them. Each job builds its own
    /// [`Pipeline`] on one of `available_parallelism()` scoped threads,
    /// each taking a contiguous chunk of the jobs; run order in the
    /// output matches job order regardless of scheduling.
    pub fn run_fleet(jobs: Vec<FleetJob>) -> FleetOutcome {
        let runs = par_map(&jobs, |job| FleetRun {
            label: job.label.clone(),
            outcome: Pipeline::new(job.config.clone()).run(&job.plan),
        });
        FleetOutcome { runs }
    }
}

/// Map `f` over `items` on `available_parallelism()` scoped threads,
/// each taking a contiguous chunk; the output keeps input order.
pub(crate) fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let chunk = items.len().div_ceil(workers).max(1);
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|part| scope.spawn(move || part.iter().map(f).collect::<Vec<_>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_ransomware_run_detects() {
        let mut p = Pipeline::new(PipelineConfig::small_lab(7));
        let out = p.run(&CampaignPlan::single(AttackClass::Ransomware));
        assert!(out.report.alerts_total() > 0);
        let board = out.report.scoreboard.as_ref().unwrap();
        assert_eq!(board.class(AttackClass::Ransomware).detected, 1);
        assert!(out.audit_completeness > 0.99);
        assert!(out.monitor_stats.flows > 0);
    }

    #[test]
    fn full_mix_detects_most_classes() {
        let mut p = Pipeline::new(PipelineConfig::small_lab(8));
        let out = p.run(&CampaignPlan::full_mix(3));
        let board = out.report.scoreboard.as_ref().unwrap();
        // Everything except (possibly) the zero-day proxy should be
        // caught by the combined stack.
        for class in [
            AttackClass::Ransomware,
            AttackClass::DataExfiltration,
            AttackClass::Cryptomining,
            AttackClass::AccountTakeover,
        ] {
            assert_eq!(
                board.class(class).detected,
                board.class(class).campaigns,
                "class {} board:\n{}",
                class.label(),
                board.render()
            );
        }
        assert!(board.macro_recall() >= 0.5);
    }

    #[test]
    fn worker_counts_come_from_the_config_not_the_pool() {
        // Shard and producer counts are the configured ones, never the
        // machine's core count, and unset means 1.
        for t in [1, 2, 4] {
            let mut cfg = PipelineConfig::small_lab(1);
            cfg.shards = Some(t);
            cfg.producers = Some(t);
            let p = Pipeline::new(cfg);
            assert_eq!((p.shard_count(), p.producer_count()), (t, t));
        }
        let p = Pipeline::new(PipelineConfig::small_lab(1));
        assert_eq!((p.shard_count(), p.producer_count()), (1, 1));
    }

    #[test]
    fn parallel_path_matches_sequential() {
        let mut p1 = Pipeline::new(PipelineConfig::small_lab(9));
        let o1 = p1.run(&CampaignPlan::single(AttackClass::Cryptomining));
        let mut cfg2 = PipelineConfig::small_lab(9);
        cfg2.producers = Some(2);
        cfg2.shards = Some(2);
        let mut p2 = Pipeline::new(cfg2);
        let o2 = p2.run(&CampaignPlan::single(AttackClass::Cryptomining));
        assert_eq!(alert_keys(&o1), alert_keys(&o2));
    }

    #[test]
    fn sharded_config_matches_sequential() {
        let mut p1 = Pipeline::new(PipelineConfig::small_lab(11));
        let o1 = p1.run(&CampaignPlan::single(AttackClass::DataExfiltration));
        let mut cfg = PipelineConfig::small_lab(11);
        cfg.shards = Some(3);
        let mut p2 = Pipeline::new(cfg);
        let o2 = p2.run(&CampaignPlan::single(AttackClass::DataExfiltration));
        assert_eq!(o1.report.alerts_total(), o2.report.alerts_total());
        assert_eq!(o1.monitor_stats.flows, o2.monitor_stats.flows);
    }

    #[test]
    fn fleet_matches_individual_runs_and_aggregates() {
        let jobs = vec![
            FleetJob::new(
                "lab-a",
                PipelineConfig::small_lab(21),
                CampaignPlan::single(AttackClass::Ransomware),
            ),
            FleetJob::new(
                "lab-b",
                PipelineConfig::small_lab(22),
                CampaignPlan::single(AttackClass::Cryptomining),
            ),
            FleetJob::new(
                "lab-c",
                PipelineConfig::small_lab(23),
                CampaignPlan::single(AttackClass::DataExfiltration),
            ),
        ];
        let fleet = Pipeline::run_fleet(jobs.clone());
        assert_eq!(fleet.runs.len(), 3);
        // Output order matches job order, and each run reproduces what
        // a standalone pipeline produces for the same config/plan.
        for (job, run) in jobs.iter().zip(&fleet.runs) {
            assert_eq!(job.label, run.label);
            let mut solo = Pipeline::new(job.config.clone());
            let solo_out = solo.run(&job.plan);
            assert_eq!(
                solo_out.report.alerts_total(),
                run.outcome.report.alerts_total(),
                "{}",
                job.label
            );
        }
        let (detected, campaigns) = fleet.detection_totals();
        assert_eq!(campaigns, 3);
        assert_eq!(detected, 3, "\n{}", fleet.render());
        assert_eq!(
            fleet.total_alerts(),
            fleet
                .runs
                .iter()
                .map(|r| r.outcome.report.alerts_total())
                .sum::<usize>()
        );
        assert!(fleet.render().contains("lab-b"));
        // An empty fleet runs nothing and aggregates to zero.
        let empty = Pipeline::run_fleet(Vec::new());
        assert!(empty.runs.is_empty());
        assert_eq!(empty.detection_totals(), (0, 0));
    }

    #[test]
    fn fleet_merged_report_equals_per_run_aggregation() {
        let fleet = Pipeline::run_fleet(vec![
            FleetJob::new(
                "lab-a",
                PipelineConfig::small_lab(61),
                CampaignPlan::single(AttackClass::Ransomware),
            ),
            FleetJob::new(
                "lab-b",
                PipelineConfig::small_lab(62),
                CampaignPlan::single(AttackClass::Cryptomining),
            ),
        ]);
        let merged = fleet.merged_report();
        assert_eq!(merged.alerts_total(), fleet.total_alerts());
        assert_eq!(
            merged.incidents_total(),
            fleet
                .runs
                .iter()
                .map(|r| r.outcome.report.incidents_total())
                .sum::<usize>()
        );
        // Fleet runs share a simulated clock, so the merged alert
        // stream must be globally time-ordered even though the runs
        // overlap.
        assert!(merged.alerts.windows(2).all(|w| w[0].time <= w[1].time));
        // The folded scoreboard counts every campaign once.
        let board = merged.scoreboard.as_ref().unwrap();
        let campaigns: usize = board.classes.iter().map(|(_, s)| s.campaigns).sum();
        let (_, fleet_campaigns) = fleet.detection_totals();
        assert_eq!(campaigns, fleet_campaigns);
    }

    fn alert_keys(out: &RunOutcome) -> Vec<(SimTime, AttackClass, String, f64)> {
        out.report
            .alerts
            .iter()
            .map(|a| (a.time, a.class, a.detail.clone(), a.confidence))
            .collect()
    }

    #[test]
    fn streamed_run_honors_shard_config() {
        let mut cfg = PipelineConfig::small_lab(33);
        cfg.shards = Some(3);
        let mut p1 = Pipeline::new(cfg);
        let sharded = p1.run(&CampaignPlan::single(AttackClass::DataExfiltration));
        let mut p2 = Pipeline::new(PipelineConfig::small_lab(33));
        let single = p2.run(&CampaignPlan::single(AttackClass::DataExfiltration));
        assert_eq!(alert_keys(&sharded), alert_keys(&single));
        assert_eq!(sharded.monitor_stats.flows, single.monitor_stats.flows);
    }

    #[test]
    fn quiet_apt_streams_sparse_long_captures_with_bounded_state() {
        let mut p = Pipeline::new(PipelineConfig::small_lab(77));
        let out = p.run(&CampaignPlan::quiet_apt(77));
        // Two-day horizon actually materialized in the labels.
        assert!(out.scenario.end.as_secs_f64() > 12.0 * 3600.0);
        // The stealth mix still surfaces: at least the credential
        // attack is caught by the auth detectors despite stretching.
        let board = out.report.scoreboard.as_ref().unwrap();
        assert!(
            board.class(AttackClass::AccountTakeover).detected > 0,
            "{}",
            board.render()
        );
        // Live state stays far below total flows on a sparse capture.
        assert!(
            out.monitor_stats.peak_live_flows < out.monitor_stats.flows / 2,
            "peak {} vs flows {}",
            out.monitor_stats.peak_live_flows,
            out.monitor_stats.flows
        );
    }

    #[test]
    fn parallel_streamed_run_matches_streamed_and_batch() {
        // Four producers and three shards against one of each; the
        // batch oracle comparison lives in the crate's proptests.
        let mut cfg = PipelineConfig::small_lab(51);
        cfg.producers = Some(4);
        cfg.shards = Some(3);
        let mut p1 = Pipeline::new(cfg);
        let par = p1.run(&CampaignPlan::full_mix(5));
        let mut p2 = Pipeline::new(PipelineConfig::small_lab(51));
        let streamed = p2.run(&CampaignPlan::full_mix(5));
        assert_eq!(alert_keys(&streamed), alert_keys(&par));
        assert_eq!(
            streamed.report.incidents_total(),
            par.report.incidents_total()
        );
        assert_eq!(
            streamed.report.scoreboard.as_ref().unwrap().render(),
            par.report.scoreboard.as_ref().unwrap().render()
        );
        assert_eq!(streamed.scenario.end, par.scenario.end);
        assert_eq!(
            streamed.scenario.ground_truth.len(),
            par.scenario.ground_truth.len()
        );
        for (a, b) in streamed
            .scenario
            .ground_truth
            .iter()
            .zip(&par.scenario.ground_truth)
        {
            assert_eq!(a.name, b.name);
            assert_eq!(a.servers, b.servers);
        }
        assert_eq!(streamed.monitor_stats.segments, par.monitor_stats.segments);
        assert_eq!(streamed.monitor_stats.flows, par.monitor_stats.flows);
        assert_eq!(streamed.monitor_stats.bytes, par.monitor_stats.bytes);
        assert_eq!(streamed.audit_completeness, par.audit_completeness);
        // The engine evicted closed flows instead of holding all of
        // them.
        assert!(
            streamed.monitor_stats.peak_live_flows < streamed.monitor_stats.flows,
            "peak {} vs flows {}",
            streamed.monitor_stats.peak_live_flows,
            streamed.monitor_stats.flows
        );
    }

    #[test]
    fn parallel_streamed_is_deterministic_across_repeat_runs() {
        // Same config, same plan, run twice: thread interleaving must
        // not leak into any output (the merge is keyed, not racy).
        let run = || {
            let mut cfg = PipelineConfig::small_lab(52);
            cfg.producers = Some(3);
            cfg.shards = Some(2);
            let mut p = Pipeline::new(cfg);
            let out = p.run(&CampaignPlan::full_mix(6));
            (
                alert_keys(&out),
                out.report.incidents_total(),
                out.monitor_stats.segments,
                out.scenario.end,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parallel_streamed_fleet_job_matches_streamed_job() {
        let mut pcfg = PipelineConfig::small_lab(43);
        pcfg.producers = Some(4);
        let jobs = vec![
            FleetJob::new(
                "streamed",
                PipelineConfig::small_lab(43),
                CampaignPlan::full_mix(7),
            ),
            FleetJob::new("par-streamed", pcfg, CampaignPlan::full_mix(7)),
        ];
        let fleet = Pipeline::run_fleet(jobs);
        assert_eq!(
            alert_keys(&fleet.runs[0].outcome),
            alert_keys(&fleet.runs[1].outcome)
        );
    }

    /// A lab with two perfect decoys and a short propagation delay,
    /// run with `producers` against a naive mass wave.
    fn wave_lab(producers: Option<usize>) -> (crate::intel::WaveCampaign, RunOutcome) {
        use crate::intel::{build_wave, IntelConfig, WaveSpec};
        let intel_cfg = IntelConfig {
            propagation: Duration::from_secs(120),
            realism: 1.0,
            ..Default::default()
        };
        let mut cfg = PipelineConfig::small_lab(91);
        cfg.deployment.decoys = 2;
        cfg.intel = Some(intel_cfg.clone());
        cfg.producers = producers;
        let mut p = Pipeline::new(cfg);
        let mut rng = SimRng::new(5);
        let wave = build_wave(p.deployment(), &intel_cfg, &WaveSpec::default(), &mut rng);
        let out = p.run_campaigns(vec![(SimTime::from_secs(60), wave.campaign.clone())], 91);
        (wave, out)
    }

    #[test]
    fn parallel_streamed_wave_closes_the_intel_loop_identically() {
        // The intel loop observes the merged feed; its hot-reload
        // behavior must be byte-for-byte what the sequential streamed
        // path produces, regardless of requested producer count.
        let (_, par) = wave_lab(Some(4));
        let (_, seq) = wave_lab(None);
        assert_eq!(alert_keys(&seq), alert_keys(&par));
        assert_eq!(format!("{:?}", seq.intel), format!("{:?}", par.intel));
    }

    #[test]
    fn streamed_wave_closes_the_intel_loop() {
        // Decoys capture the payload mid-stream, the signature
        // hot-reloads into the running monitor, and later production
        // visits raise HoneypotIntel alerts.
        let (wave, out) = wave_lab(None);
        assert_eq!(wave.production_visits.len(), 4);
        assert_eq!(wave.decoy_visits.len(), 2);
        let intel = out.intel.as_ref().expect("intel loop ran");
        assert!(intel.captures >= 2, "captures {}", intel.captures);
        assert_eq!(intel.published.len(), 1, "one distinct payload");
        let avail = intel.first_available.expect("signature propagated");
        assert_eq!(
            avail,
            intel.first_capture.unwrap() + Duration::from_secs(120)
        );
        let hp: Vec<_> = out
            .report
            .alerts
            .iter()
            .filter(|a| a.source == AlertSource::HoneypotIntel)
            .collect();
        assert!(
            !hp.is_empty(),
            "intel loop never fired:\n{}",
            out.report.render()
        );
        // No retroactive alerts: every honeypot-intel alert is on a
        // flow that began at/after the signature became available.
        for a in &hp {
            assert!(a.time >= avail, "retroactive alert {a:?}");
            assert!(a.detail.contains("hp-"), "{a:?}");
        }
        // The report's honeypot plane is nonzero.
        assert!(out.report.alerts_from(AlertSource::HoneypotIntel) > 0);
        assert!(!out.report.render().contains("honeypot 0"));
    }

    #[test]
    fn decoy_session_is_scanned_not_held_whole() {
        use ja_attackgen::benign::{self, BenignProfile};
        // One decoy receiving one long notebook session, its only flow.
        // Decoy flows are scanned like any other, so the monitor's peak
        // retention stays far below that flow's payload volume instead
        // of holding the flow whole until eviction.
        let mut cfg = PipelineConfig::small_lab(77);
        cfg.deployment.decoys = 1;
        let mut p = Pipeline::new(cfg);
        let decoy = p.deployment().decoy_indices().start;
        let user = p.deployment().owner_of(decoy).to_string();
        let profile = BenignProfile {
            cells: 60,
            download_prob: 0.0,
            archive_prob: 0.0,
            train_prob: 0.0,
            ..Default::default()
        };
        let session = benign::session(decoy, &user, &profile, &mut SimRng::new(3));
        let out = p.run_campaigns(vec![(SimTime::from_secs(10), session)], 7);
        let s = &out.monitor_stats;
        assert_eq!(s.flows, 1);
        assert!(s.kernel_msgs > 100, "{} kernel messages", s.kernel_msgs);
        assert!(
            s.peak_retained_bytes * 4 < s.bytes,
            "retained {} of the decoy flow's {} bytes",
            s.peak_retained_bytes,
            s.bytes
        );
    }

    #[test]
    fn intel_loop_inert_without_decoys() {
        use crate::intel::IntelConfig;
        // Intel configured but zero decoys: nothing captured, nothing
        // published, output identical to the unconfigured pipeline.
        let mut cfg = PipelineConfig::small_lab(47);
        cfg.intel = Some(IntelConfig::default());
        let mut p1 = Pipeline::new(cfg);
        let with_loop = p1.run(&CampaignPlan::full_mix(9));
        let mut p2 = Pipeline::new(PipelineConfig::small_lab(47));
        let without = p2.run(&CampaignPlan::full_mix(9));
        let intel = with_loop.intel.as_ref().unwrap();
        assert_eq!(intel.captures, 0);
        assert!(intel.published.is_empty());
        assert_eq!(intel.first_available, None);
        assert_eq!(alert_keys(&with_loop), alert_keys(&without));
        assert_eq!(with_loop.report.alerts_from(AlertSource::HoneypotIntel), 0);
        // Without a configured loop the run reports no intel.
        assert!(without.intel.is_none());
    }

    #[test]
    fn decoy_servers_do_not_perturb_plans_or_config_scans() {
        // Same plan, same seed, decoys added: benign/attack campaigns
        // still land on production servers only, and the exposed decoy
        // configs are not reported as hygiene findings.
        // Misconfiguration matters most here: its scan-and-exploit
        // campaign reads server configs, and decoys are deliberately
        // exploitable — it must still skip them.
        for class in [AttackClass::Cryptomining, AttackClass::Misconfiguration] {
            let mut cfg = PipelineConfig::campus(13);
            cfg.deployment.decoys = 3;
            let mut with_decoys = Pipeline::new(cfg);
            let a = with_decoys.run(&CampaignPlan::single(class));
            let mut plain = Pipeline::new(PipelineConfig::campus(13));
            let b = plain.run(&CampaignPlan::single(class));
            assert_eq!(
                a.report.alerts_from(AlertSource::ConfigScan),
                b.report.alerts_from(AlertSource::ConfigScan),
                "{class:?}"
            );
            assert_eq!(alert_keys(&a), alert_keys(&b), "{class:?}");
            for (ga, gb) in a.scenario.ground_truth.iter().zip(&b.scenario.ground_truth) {
                assert_eq!(ga.servers, gb.servers, "{class:?}");
            }
        }
    }

    #[test]
    fn tiny_tracer_loses_audit_events() {
        let mut cfg = PipelineConfig::small_lab(10);
        cfg.tracer_capacity = 8;
        let mut p = Pipeline::new(cfg);
        let out = p.run(&CampaignPlan::single(AttackClass::Ransomware));
        assert!(out.audit_completeness < 0.5);
    }
}
