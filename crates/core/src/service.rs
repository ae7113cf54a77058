//! The always-on SOC service: an unbounded epoch loop over the fused
//! streamed pipeline, with durable checkpoint/resume, per-shard health
//! tracking, and degraded-mode load shedding.
//!
//! A one-shot [`crate::pipeline::Pipeline`] run answers "what would the
//! defense stack have seen in this capture?". A real SOC never stops:
//! it pulls the next batch of workload forever, keeps the signatures
//! its honeypots learned, survives restarts, and degrades gracefully
//! when a shard falls behind. [`SocService`] is that loop:
//!
//! - **Epochs on one global clock.** Each epoch pulls a
//!   [`CampaignPlan`] from a [`PlanSource`], shifts its campaign start
//!   times by the accumulated simulated clock, and pumps it through the
//!   streamed pipeline. Alerts, incidents and ground truth therefore
//!   emerge already in global time, and signatures the intel loop
//!   learned in epoch *e* are correctly available (their
//!   `available_at` needs no rebasing) in every later epoch.
//! - **Incremental aggregation.** Per-epoch reports fold into one
//!   service-lifetime report via [`Report::merge`] — never
//!   re-aggregated from scratch — so merge cost tracks the epoch, not
//!   the service lifetime.
//! - **Checkpoint/resume.** [`SocService::checkpoint`] serializes the
//!   durable state (intel snapshot, merged report, ground truth,
//!   stats, health, clock). With a cadence configured, checkpoints are
//!   also taken *mid-epoch* at item-count watermarks, carrying a
//!   [`WatermarkProof`]. Restoring rewinds to the epoch start and
//!   deterministically replays the interrupted epoch; at the watermark
//!   the proof is verified (feed digest, plus producer/monitor/intel
//!   layer snapshots where observable) and a mismatch surfaces as
//!   [`ServiceError::ResumeDiverged`] instead of silently diverging.
//!   Determinism then guarantees the restored service is
//!   alert-identical to one that never stopped.
//! - **Shard health.** Per-epoch segment counts per monitor shard
//!   (computed from the same `shard_of` routing the monitor uses)
//!   yield a load-skew measure. Sustained skew beyond
//!   [`HealthConfig::skew_threshold`] puts the service in degraded
//!   mode for exponentially backed-off spans of epochs: the monitor
//!   sheds its lowest-confidence per-flow detector work
//!   ([`ja_monitor::engine::MonitorConfig::confidence_floor`]), and
//!   both the shed count and the degraded spans land in
//!   [`ServiceStats`].

use crate::intel::{build_wave, IntelLoop, IntelSnapshot, WaveSpec};
use crate::pipeline::{CampaignPlan, EpochObserver, Pipeline, PipelineConfig, RunOutcome};
use crate::report::Report;
use ja_attackgen::campaign::GroundTruth;
use ja_attackgen::stream::{ScenarioItem, StreamSnapshot};
use ja_crypto::sha256::sha256_hex;
use ja_monitor::engine::shard_of;
use ja_monitor::streaming::MonitorShardSnapshot;
use ja_netsim::rng::{split_seed, SimRng};
use ja_netsim::time::{Duration, SimTime};

/// Checkpoint format version; bumped on incompatible layout changes.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Decorrelates the per-epoch wave seed from the per-epoch stream seed.
const WAVE_SALT: u64 = 0x5741_5645; // "WAVE"

/// Where the service gets the next epoch's workload.
pub trait PlanSource {
    /// The plan for `epoch`, or `None` when the source is exhausted
    /// (the service loop then stops cleanly).
    fn plan_for(&self, epoch: u64) -> Option<CampaignPlan>;
}

/// An endless source: the same plan shape every epoch, reseeded per
/// epoch by [`split_seed`] so placement varies while staying
/// reproducible from the base seed alone.
#[derive(Clone, Debug)]
pub struct MixSource {
    /// The plan template (its `seed` is the base of the per-epoch
    /// derivation).
    pub base: CampaignPlan,
}

impl PlanSource for MixSource {
    fn plan_for(&self, epoch: u64) -> Option<CampaignPlan> {
        let mut plan = self.base.clone();
        plan.seed = split_seed(self.base.seed, epoch);
        Some(plan)
    }
}

/// A finite queue of explicit plans, one per epoch, in order.
#[derive(Clone, Debug, Default)]
pub struct QueueSource {
    /// The plans; epoch `e` runs `plans[e]`.
    pub plans: Vec<CampaignPlan>,
}

impl PlanSource for QueueSource {
    fn plan_for(&self, epoch: u64) -> Option<CampaignPlan> {
        self.plans.get(epoch as usize).cloned()
    }
}

/// Shard-health policy.
#[derive(Clone, Debug)]
pub struct HealthConfig {
    /// Degrade when the hottest shard's segment load exceeds this
    /// multiple of the mean shard load.
    pub skew_threshold: f64,
    /// The per-flow confidence floor applied while degraded: alerts
    /// below it are shed at flow eviction instead of retained.
    pub degraded_floor: f64,
    /// Cap on the backoff exponent: degraded spans grow `1, 2, 4, …,
    /// 2^max_backoff_exp` epochs while skew persists.
    pub max_backoff_exp: u32,
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig {
            skew_threshold: 2.0,
            degraded_floor: 0.35,
            max_backoff_exp: 4,
        }
    }
}

/// Service configuration: the pipeline to run each epoch plus the
/// service-level policies.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Per-epoch pipeline configuration (deployment, monitor, intel,
    /// shards/producers, scoring).
    pub pipeline: PipelineConfig,
    /// Service seed; epoch `e` streams with `split_seed(seed, e)`.
    pub seed: u64,
    /// Mid-epoch checkpoint cadence in scenario items (`None` = only
    /// explicit boundary checkpoints).
    pub checkpoint_items: Option<u64>,
    /// Idle simulated time inserted between epochs.
    pub epoch_gap: Duration,
    /// Shard-health policy.
    pub health: HealthConfig,
    /// When set, every epoch additionally injects one opportunistic
    /// attack wave ([`build_wave`]) sweeping the whole fleet — decoys
    /// included — so the honeypot-intel loop has something to capture
    /// and the signature feed actually grows while the service runs.
    /// The wave is derived deterministically per epoch, so crash-resume
    /// replay rebuilds it bit for bit.
    pub wave: Option<WaveSpec>,
}

impl ServiceConfig {
    /// A service over `pipeline` with default policies.
    pub fn new(pipeline: PipelineConfig, seed: u64) -> Self {
        ServiceConfig {
            pipeline,
            seed,
            checkpoint_items: None,
            epoch_gap: Duration::from_secs(60),
            health: HealthConfig::default(),
            wave: None,
        }
    }

    /// A fingerprint of everything that must match between the config
    /// that wrote a checkpoint and the config restoring it — replay
    /// determinism holds only under an identical configuration.
    fn fingerprint(&self) -> String {
        sha256_hex(
            format!(
                "v{}|{:?}|{}|{:?}|{:?}|{}|{:?}",
                CHECKPOINT_VERSION,
                self.pipeline,
                self.seed,
                self.checkpoint_items,
                self.health,
                self.epoch_gap.0,
                self.wave,
            )
            .as_bytes(),
        )
    }
}

/// Why a checkpoint was rejected at restore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RestoreError {
    /// Not parseable as a checkpoint (truncated, invalid JSON, missing
    /// fields).
    Malformed(String),
    /// Parsed, but the embedded checksum does not match the contents
    /// (bit rot or tampering).
    ChecksumMismatch,
    /// A checkpoint from an incompatible format version.
    Version {
        /// The version the checkpoint claims.
        found: u32,
    },
    /// The restoring service's configuration differs from the one that
    /// wrote the checkpoint, so replay would not be deterministic.
    ConfigMismatch,
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::Malformed(why) => write!(f, "malformed checkpoint: {why}"),
            RestoreError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            RestoreError::Version { found } => write!(
                f,
                "checkpoint format version {found} (supported: {CHECKPOINT_VERSION})"
            ),
            RestoreError::ConfigMismatch => {
                write!(f, "checkpoint was written under a different configuration")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// A service-loop failure.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServiceError {
    /// A resumed epoch's replay did not reproduce the checkpointed
    /// watermark state — the run this checkpoint came from and the
    /// replay have diverged (configuration drift or corruption the
    /// checksum could not see).
    ResumeDiverged {
        /// The epoch being replayed.
        epoch: u64,
        /// The watermark (item count) at which verification failed.
        items: u64,
        /// What mismatched.
        detail: String,
    },
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::ResumeDiverged {
                epoch,
                items,
                detail,
            } => write!(
                f,
                "resume of epoch {epoch} diverged at item {items}: {detail}"
            ),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Proof of the feed position a mid-epoch checkpoint was taken at:
/// the item count, a rolling digest over item fingerprints, and —
/// where the feeding thread can observe them — the producer, monitor
/// and intel layer snapshots at that instant. Replay recomputes all of
/// these and must reproduce them exactly.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct WatermarkProof {
    /// Scenario items produced up to and including the watermark.
    pub items: u64,
    /// Rolling FNV-1a digest over per-item fingerprints.
    pub digest: u64,
    /// Producer-side stream state: observable with one producer only,
    /// where the feeding thread owns the stream.
    pub stream: Option<StreamSnapshot>,
    /// Monitor engine state: observable with one inline shard only
    /// (sharded routers keep worker state on other threads).
    pub shard: Option<MonitorShardSnapshot>,
    /// Intel-loop state at the watermark, when the loop is live.
    pub intel: Option<IntelSnapshot>,
}

impl WatermarkProof {
    /// Why `replay`, the same watermark reached again on resume,
    /// diverges from this checkpointed proof, if it does. A layer is
    /// compared where both sides observed it; the first mismatch of
    /// intel loop, monitor shard, producer stream and feed digest, in
    /// that order, names the failure.
    fn divergence(&self, replay: &WatermarkProof) -> Option<String> {
        fn differs<T: PartialEq>(theirs: &Option<T>, ours: &Option<T>) -> bool {
            matches!((theirs, ours), (Some(a), Some(b)) if a != b)
        }
        if differs(&self.intel, &replay.intel) {
            Some("intel loop state mismatch".into())
        } else if differs(&self.shard, &replay.shard) {
            Some("monitor shard state mismatch".into())
        } else if differs(&self.stream, &replay.stream) {
            Some("producer stream state mismatch".into())
        } else {
            (self.digest != replay.digest).then(|| {
                format!(
                    "feed digest {:#x} != checkpointed {:#x}",
                    replay.digest, self.digest
                )
            })
        }
    }
}

/// Health state the degraded-mode controller carries across epochs.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct HealthState {
    /// Currently in a degraded span?
    pub degraded: bool,
    /// Backoff exponent: the current span is `2^backoff_exp` epochs.
    pub backoff_exp: u32,
    /// First epoch index at/after which the span expires and skew is
    /// re-checked.
    pub degraded_until: u64,
    /// Load skew measured at the end of the last epoch (hottest shard
    /// over mean shard).
    pub last_skew: f64,
}

/// Lifetime counters of one service.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ServiceStats {
    /// Epochs completed.
    pub epochs: u64,
    /// Sessions (benign + attack campaigns) executed.
    pub sessions: u64,
    /// Scenario items pumped.
    pub items: u64,
    /// Network segments analyzed.
    pub segments: u64,
    /// Alerts raised (before merge dedup — the service never dedups).
    pub alerts: u64,
    /// Checkpoints taken (mid-epoch watermarks).
    pub checkpoints: u64,
    /// Restores this lineage has been through.
    pub restores: u64,
    /// Items replayed to reach resumed watermarks.
    pub replayed_items: u64,
    /// Epochs run in degraded mode.
    pub degraded_epochs: u64,
    /// Alerts shed by the degraded-mode confidence floor.
    pub shed_alerts: u64,
    /// Signatures currently live in the intel feed.
    pub intel_rules: u64,
    /// Highest per-epoch peak of concurrently live monitor flows — the
    /// service's peak live state. Flat across epochs while total
    /// sessions grow without bound.
    pub peak_live_flows: u64,
    /// The last epoch's peak of concurrently live monitor flows.
    pub last_peak_live_flows: u64,
}

/// Per-shard load observed in the last epoch.
#[derive(Clone, Debug)]
pub struct ShardHealth {
    /// Shard index.
    pub shard: usize,
    /// Segments routed to it last epoch.
    pub segments: u64,
    /// Its share of the epoch's segments relative to a fair share
    /// (1.0 = exactly fair).
    pub load_ratio: f64,
    /// Was it loaded beyond the skew threshold?
    pub lagging: bool,
}

/// A durable snapshot of everything the service needs to continue:
/// serialize with [`ServiceCheckpoint::to_json`], revive with
/// [`SocService::restore`].
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ServiceCheckpoint {
    /// Format version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Fingerprint of the writing service's configuration.
    pub fingerprint: String,
    /// With a watermark: the epoch in flight. Without: the next epoch
    /// to run.
    pub epoch: u64,
    /// Global simulated clock at the epoch boundary (µs).
    pub clock_us: u64,
    /// Mid-epoch position proof; `None` for boundary checkpoints.
    pub watermark: Option<WatermarkProof>,
    /// Intel-loop state as of the epoch boundary.
    pub intel: Option<IntelSnapshot>,
    /// The merged service-lifetime report.
    pub report: Report,
    /// Accumulated ground truth.
    pub ground_truth: Vec<GroundTruth>,
    /// Lifetime counters as of the epoch boundary.
    pub stats: ServiceStats,
    /// Degraded-mode controller state.
    pub health: HealthState,
    /// SHA-256 over the serialized checkpoint with this field empty.
    pub checksum: String,
}

impl ServiceCheckpoint {
    /// The checksum the contents seal to: SHA-256 over the checkpoint
    /// serialized with `checksum` empty.
    fn seal(&mut self) -> String {
        let checksum = std::mem::take(&mut self.checksum);
        let body = serde_json::to_string(self).expect("checkpoint serializes");
        self.checksum = checksum;
        sha256_hex(body.as_bytes())
    }

    /// Serialize, sealing the contents under a SHA-256 checksum.
    pub fn to_json(&self) -> String {
        let mut sealed = self.clone();
        sealed.checksum = sealed.seal();
        serde_json::to_string(&sealed).expect("checkpoint serializes")
    }

    /// Parse and verify a serialized checkpoint. Rejects truncated or
    /// invalid JSON ([`RestoreError::Malformed`]), contents that fail
    /// the checksum ([`RestoreError::ChecksumMismatch`]), and
    /// incompatible format versions ([`RestoreError::Version`]).
    pub fn from_json(text: &str) -> Result<Self, RestoreError> {
        let mut chk: ServiceCheckpoint =
            serde_json::from_str(text).map_err(|e| RestoreError::Malformed(e.to_string()))?;
        if chk.checksum.is_empty() || chk.seal() != chk.checksum {
            return Err(RestoreError::ChecksumMismatch);
        }
        if chk.version != CHECKPOINT_VERSION {
            return Err(RestoreError::Version { found: chk.version });
        }
        Ok(chk)
    }
}

/// What one epoch did.
#[derive(Clone, Debug)]
pub struct EpochSummary {
    /// The epoch index.
    pub epoch: u64,
    /// Sessions executed this epoch.
    pub sessions: u64,
    /// Scenario items pumped this epoch.
    pub items: u64,
    /// Alerts this epoch contributed.
    pub alerts: u64,
    /// Peak concurrently-live monitor flows this epoch.
    pub peak_live_flows: u64,
    /// Peak payload bytes the monitor retained across live flows this
    /// epoch — bounded by the reorder window under incremental
    /// scanning, so it must stay flat across a soak even when
    /// individual flows are long.
    pub peak_retained_bytes: u64,
    /// Did the epoch run in degraded mode?
    pub degraded: bool,
    /// Mid-epoch checkpoints taken.
    pub checkpoints: u64,
    /// Did this epoch verify a resumed watermark?
    pub verified_resume: bool,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fold_bytes(h, &v.to_le_bytes())
}

/// One item's contribution to the feed digest: enough identity (kind,
/// time, flow/server attribution, sizes) that any reordering, loss or
/// substitution in a replayed feed flips the digest.
fn fold_item(h: u64, item: &ScenarioItem) -> u64 {
    match item {
        ScenarioItem::Segment(rec) => {
            let h = fold_u64(h, 1);
            let h = fold_u64(h, rec.time.0);
            let h = fold_u64(h, rec.flow_id);
            let h = fold_u64(h, rec.stream_offset);
            let h = fold_u64(h, rec.wire_len as u64);
            fold_u64(h, rec.payload.len() as u64)
        }
        ScenarioItem::Auth(ev) => {
            let h = fold_u64(h, 2);
            let h = fold_u64(h, ev.time.0);
            let h = fold_bytes(h, ev.username.as_bytes());
            fold_bytes(h, format!("{:?}", ev.outcome).as_bytes())
        }
        ScenarioItem::Sys(ev) => {
            let h = fold_u64(h, 3);
            let h = fold_u64(h, ev.time.0);
            let h = fold_u64(h, ev.server_id as u64);
            fold_bytes(h, ev.user.as_bytes())
        }
    }
}

/// The per-epoch observer: folds the feed digest, counts per-shard
/// segment routing for health, materializes cadence checkpoints, and
/// verifies a resumed watermark.
struct EpochDriver {
    cadence: Option<u64>,
    shard_segments: Vec<u64>,
    digest: u64,
    items: u64,
    base: Option<ServiceCheckpoint>,
    latest: Option<ServiceCheckpoint>,
    taken: u64,
    resume: Option<WatermarkProof>,
    resume_failure: Option<(u64, String)>,
    resume_verified: bool,
}

impl EpochObserver for EpochDriver {
    fn on_item(&mut self, count: u64, item: &ScenarioItem) -> bool {
        self.items = count;
        self.digest = fold_item(self.digest, item);
        if let ScenarioItem::Segment(rec) = item {
            let shard = shard_of(rec.flow_id, self.shard_segments.len());
            self.shard_segments[shard] += 1;
        }
        let cadence_hit = self.cadence.is_some_and(|n| n > 0 && count % n == 0);
        let resume_hit = self.resume.as_ref().is_some_and(|p| p.items == count);
        cadence_hit || resume_hit
    }

    fn at_watermark(&mut self, mut mark: WatermarkProof) {
        mark.digest = self.digest;
        if let Some(proof) = self.resume.take() {
            if proof.items == mark.items {
                match proof.divergence(&mark) {
                    Some(why) => self.resume_failure = Some((mark.items, why)),
                    None => self.resume_verified = true,
                }
            } else {
                self.resume = Some(proof);
            }
        }
        if self.cadence.is_some_and(|n| n > 0 && mark.items % n == 0) {
            if let Some(base) = &self.base {
                let mut chk = base.clone();
                chk.watermark = Some(mark);
                self.latest = Some(chk);
                self.taken += 1;
            }
        }
    }
}

/// The always-on SOC service. See the module docs for the lifecycle.
pub struct SocService {
    cfg: ServiceConfig,
    fingerprint: String,
    epoch: u64,
    clock: SimTime,
    intel: Option<IntelLoop>,
    report: Report,
    ground_truth: Vec<GroundTruth>,
    stats: ServiceStats,
    health: HealthState,
    shard_health: Vec<ShardHealth>,
    last_checkpoint: Option<ServiceCheckpoint>,
    resume: Option<WatermarkProof>,
}

impl SocService {
    /// A fresh service at epoch 0 on a zeroed clock.
    pub fn new(cfg: ServiceConfig) -> Self {
        let fingerprint = cfg.fingerprint();
        SocService {
            cfg,
            fingerprint,
            epoch: 0,
            clock: SimTime::ZERO,
            intel: None,
            report: Report::default(),
            ground_truth: Vec::new(),
            stats: ServiceStats::default(),
            health: HealthState::default(),
            shard_health: Vec::new(),
            last_checkpoint: None,
            resume: None,
        }
    }

    /// The merged service-lifetime report.
    pub fn report(&self) -> &Report {
        &self.report
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Degraded-mode controller state.
    pub fn health(&self) -> &HealthState {
        &self.health
    }

    /// Per-shard load from the last completed epoch.
    pub fn shard_health(&self) -> &[ShardHealth] {
        &self.shard_health
    }

    /// The next epoch to run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global simulated clock (start of the next epoch).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Accumulated ground truth across all epochs, in global time.
    pub fn ground_truth(&self) -> &[GroundTruth] {
        &self.ground_truth
    }

    /// The latest mid-epoch cadence checkpoint, if any epoch has taken
    /// one ([`ServiceConfig::checkpoint_items`]).
    pub fn last_checkpoint(&self) -> Option<&ServiceCheckpoint> {
        self.last_checkpoint.as_ref()
    }

    /// A boundary checkpoint of the durable state right now (between
    /// epochs). Restoring it continues with the next epoch — no replay
    /// needed.
    pub fn checkpoint(&self) -> ServiceCheckpoint {
        ServiceCheckpoint {
            version: CHECKPOINT_VERSION,
            fingerprint: self.fingerprint.clone(),
            epoch: self.epoch,
            clock_us: self.clock.0,
            watermark: None,
            intel: self.intel.as_ref().map(IntelLoop::snapshot),
            report: self.report.clone(),
            ground_truth: self.ground_truth.clone(),
            stats: self.stats.clone(),
            health: self.health.clone(),
            checksum: String::new(),
        }
    }

    /// Revive a service from a serialized checkpoint. The
    /// configuration must be identical to the one that wrote it
    /// (enforced by fingerprint) — replay determinism depends on it.
    /// If the checkpoint carries a mid-epoch watermark, the next
    /// [`SocService::run_epoch`] deterministically replays the
    /// interrupted epoch and verifies the watermark proof in passing.
    pub fn restore(cfg: ServiceConfig, json: &str) -> Result<Self, RestoreError> {
        let chk = ServiceCheckpoint::from_json(json)?;
        let fingerprint = cfg.fingerprint();
        if chk.fingerprint != fingerprint {
            return Err(RestoreError::ConfigMismatch);
        }
        // A configured loop exists from the first epoch's start on, so
        // only the epoch-0 boundary may lack its snapshot; a snapshot
        // without a configured loop has nothing to restore into.
        let intel = match (&cfg.pipeline.intel, &chk.intel) {
            (Some(icfg), Some(snap)) => {
                Some(IntelLoop::restore(icfg, &cfg.pipeline.deployment, snap))
            }
            (None, None) => None,
            (Some(_), None) if chk.epoch == 0 && chk.watermark.is_none() => None,
            _ => {
                return Err(RestoreError::Malformed(
                    "intel snapshot does not match the configured intel loop".into(),
                ))
            }
        };
        let mut svc = SocService {
            cfg,
            fingerprint,
            epoch: chk.epoch,
            clock: SimTime(chk.clock_us),
            intel,
            report: chk.report,
            ground_truth: chk.ground_truth,
            stats: chk.stats,
            health: chk.health,
            shard_health: Vec::new(),
            last_checkpoint: None,
            resume: chk.watermark,
        };
        svc.stats.restores += 1;
        Ok(svc)
    }

    /// Is the *next* epoch inside a degraded span?
    fn degraded_now(&self) -> bool {
        self.health.degraded && self.epoch < self.health.degraded_until
    }

    /// Run one epoch: pull the plan, pump it through the streamed
    /// pipeline on the global clock, checkpoint on cadence, merge the
    /// outcome, update health. Returns `Ok(None)` when the source is
    /// exhausted.
    pub fn run_epoch(
        &mut self,
        source: &dyn PlanSource,
    ) -> Result<Option<EpochSummary>, ServiceError> {
        let Some(plan) = source.plan_for(self.epoch) else {
            return Ok(None);
        };
        let epoch = self.epoch;
        let degraded = self.degraded_now();
        let mut pcfg = self.cfg.pipeline.clone();
        if degraded {
            pcfg.monitor.confidence_floor = self.cfg.health.degraded_floor;
        }
        let mut pipeline = Pipeline::new(pcfg);
        if self.intel.is_none() {
            // First epoch with intel configured: the loop is created
            // once and persists — signatures keep accumulating across
            // epochs, which is the point of an always-on service.
            if let Some(icfg) = &self.cfg.pipeline.intel {
                self.intel = Some(IntelLoop::new(icfg, &self.cfg.pipeline.deployment));
            }
        }
        // Shift the plan's campaigns onto the global clock: the epoch
        // runs directly in global simulated time, so its outputs (and
        // any signature availability times the intel loop records)
        // compose with every other epoch without rebasing.
        let mut campaigns: Vec<_> = pipeline
            .build_campaigns(&plan)
            .into_iter()
            .map(|(start, c)| (SimTime(start.0 + self.clock.0), c))
            .collect();
        if let Some(spec) = &self.cfg.wave {
            // The per-epoch wave sweep. Seeded off the service seed
            // (salted so it never correlates with the stream seed),
            // it rebuilds identically during crash-resume replay.
            let icfg = self.cfg.pipeline.intel.clone().unwrap_or_default();
            let mut wrng = SimRng::new(split_seed(self.cfg.seed ^ WAVE_SALT, epoch));
            let wave = build_wave(pipeline.deployment(), &icfg, spec, &mut wrng);
            let start = wrng.range(
                0,
                Duration::from_secs(plan.horizon_secs.max(1) / 4)
                    .as_micros()
                    .max(1),
            );
            campaigns.push((SimTime(start + self.clock.0), wave.campaign));
        }
        let resume_items = self.resume.as_ref().map(|p| p.items);
        let mut driver = EpochDriver {
            cadence: self.cfg.checkpoint_items,
            shard_segments: vec![0; pipeline.shard_count()],
            digest: FNV_OFFSET,
            items: 0,
            base: self.cfg.checkpoint_items.map(|_| self.checkpoint()),
            latest: None,
            taken: 0,
            resume: self.resume.take(),
            resume_failure: None,
            resume_verified: false,
        };
        let seed = split_seed(self.cfg.seed, epoch);
        let outcome: RunOutcome =
            pipeline.pump_epoch(campaigns, seed, self.intel.as_mut(), &mut driver);
        if let Some((items, detail)) = driver.resume_failure {
            return Err(ServiceError::ResumeDiverged {
                epoch,
                items,
                detail,
            });
        }
        if let Some(proof) = driver.resume {
            return Err(ServiceError::ResumeDiverged {
                epoch,
                items: proof.items,
                detail: format!(
                    "checkpoint watermark {} beyond the epoch's {} items",
                    proof.items, driver.items
                ),
            });
        }
        if let Some(items) = resume_items {
            self.stats.replayed_items += items;
        }
        // Merge the epoch into the service lifetime state.
        let epoch_sessions = outcome.scenario.ground_truth.len() as u64;
        let epoch_alerts = outcome.report.alerts.len() as u64;
        self.ground_truth
            .extend(outcome.scenario.ground_truth.iter().cloned());
        self.report.merge(outcome.report);
        self.stats.epochs += 1;
        self.stats.sessions += epoch_sessions;
        self.stats.items += driver.items;
        self.stats.segments += outcome.monitor_stats.segments;
        self.stats.alerts += epoch_alerts;
        self.stats.shed_alerts += outcome.monitor_stats.shed_alerts;
        self.stats.checkpoints += driver.taken;
        if degraded {
            self.stats.degraded_epochs += 1;
        }
        self.stats.last_peak_live_flows = outcome.monitor_stats.peak_live_flows;
        self.stats.peak_live_flows = self
            .stats
            .peak_live_flows
            .max(outcome.monitor_stats.peak_live_flows);
        self.stats.intel_rules = self.intel.as_ref().map_or(0, |il| il.feed().len() as u64);
        // Advance the global clock past everything this epoch did.
        self.clock = SimTime(self.clock.0.max(outcome.scenario.end.0)) + self.cfg.epoch_gap;
        self.update_health(&driver.shard_segments);
        if driver.latest.is_some() {
            self.last_checkpoint = driver.latest;
        }
        self.epoch += 1;
        Ok(Some(EpochSummary {
            epoch,
            sessions: epoch_sessions,
            items: driver.items,
            alerts: epoch_alerts,
            peak_live_flows: outcome.monitor_stats.peak_live_flows,
            peak_retained_bytes: outcome.monitor_stats.peak_retained_bytes,
            degraded,
            checkpoints: driver.taken,
            verified_resume: driver.resume_verified,
        }))
    }

    /// Run up to `max_epochs` epochs, stopping early if the source is
    /// exhausted.
    pub fn run_epochs(
        &mut self,
        source: &dyn PlanSource,
        max_epochs: u64,
    ) -> Result<Vec<EpochSummary>, ServiceError> {
        let mut summaries = Vec::new();
        for _ in 0..max_epochs {
            match self.run_epoch(source)? {
                Some(s) => summaries.push(s),
                None => break,
            }
        }
        Ok(summaries)
    }

    /// Fold the finished epoch's shard loads into health state. All
    /// inputs are simulated-deterministic (segment routing counts — no
    /// wall clock), so the controller's decisions replay identically.
    fn update_health(&mut self, shard_segments: &[u64]) {
        let shards = shard_segments.len().max(1);
        let total: u64 = shard_segments.iter().sum();
        let fair = total as f64 / shards as f64;
        let skew = if total == 0 || shards == 1 {
            1.0
        } else {
            shard_segments.iter().copied().max().unwrap_or(0) as f64 / fair
        };
        let threshold = self.cfg.health.skew_threshold;
        self.shard_health = shard_segments
            .iter()
            .enumerate()
            .map(|(shard, &segments)| {
                let load_ratio = if total == 0 {
                    0.0
                } else {
                    segments as f64 / fair
                };
                ShardHealth {
                    shard,
                    segments,
                    load_ratio,
                    lagging: shards > 1 && load_ratio > threshold,
                }
            })
            .collect();
        let next = self.epoch + 1;
        advance_health(&mut self.health, &self.cfg.health, next, skew);
    }
}

/// The degraded-mode state machine, advanced once per finished epoch.
/// `next` is the index of the upcoming epoch; `skew` the load skew the
/// finished epoch measured.
///
/// - Healthy + skew over threshold: enter a 1-epoch degraded span.
/// - Degraded span expired, still skewed: double the span (capped at
///   `2^max_backoff_exp`).
/// - Degraded span expired, skew recovered: leave degraded mode.
/// - Mid-span: hold (shedding already active; re-check at expiry).
pub(crate) fn advance_health(state: &mut HealthState, cfg: &HealthConfig, next: u64, skew: f64) {
    state.last_skew = skew;
    let lagging = skew > cfg.skew_threshold;
    if !state.degraded {
        if lagging {
            state.degraded = true;
            state.backoff_exp = 0;
            state.degraded_until = next + 1;
        }
        return;
    }
    if next < state.degraded_until {
        return;
    }
    if lagging {
        state.backoff_exp = (state.backoff_exp + 1).min(cfg.max_backoff_exp);
        state.degraded_until = next + (1u64 << state.backoff_exp);
    } else {
        state.degraded = false;
        state.backoff_exp = 0;
        state.degraded_until = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_attackgen::AttackClass;
    use ja_monitor::alerts::Alert;

    fn svc_config(seed: u64) -> ServiceConfig {
        ServiceConfig::new(PipelineConfig::small_lab(seed), seed)
    }

    fn mix(seed: u64) -> MixSource {
        MixSource {
            base: CampaignPlan {
                benign_sessions_per_server: 1,
                attacks: vec![AttackClass::Ransomware, AttackClass::Cryptomining],
                interactive: Vec::new(),
                horizon_secs: 1800,
                stretch: 1.0,
                seed,
            },
        }
    }

    fn alert_keys(report: &Report) -> Vec<(SimTime, AttackClass, String, f64)> {
        report
            .alerts
            .iter()
            .map(|a: &Alert| (a.time, a.class, a.detail.clone(), a.confidence))
            .collect()
    }

    #[test]
    fn service_accumulates_across_epochs_on_one_clock() {
        let mut svc = SocService::new(svc_config(5));
        let source = mix(5);
        let summaries = svc.run_epochs(&source, 3).unwrap();
        assert_eq!(summaries.len(), 3);
        assert_eq!(svc.stats().epochs, 3);
        assert_eq!(
            svc.stats().sessions,
            summaries.iter().map(|s| s.sessions).sum::<u64>()
        );
        assert!(svc.stats().alerts > 0);
        assert_eq!(svc.report().alerts_total() as u64, svc.stats().alerts);
        // Global clock: epochs occupy disjoint, advancing time, so the
        // merged alert stream is globally ordered and ground truth
        // never rewinds.
        assert!(svc
            .report()
            .alerts
            .windows(2)
            .all(|w| w[0].time <= w[1].time));
        assert!(svc.ground_truth().iter().all(|g| g.end.0 <= svc.clock().0));
        assert!(svc.clock() > SimTime::ZERO);
        // Merged scoreboard counts every epoch's attack campaigns
        // (benign sessions are unlabeled and unscored).
        let board = svc.report().scoreboard.as_ref().unwrap();
        let campaigns: usize = board.classes.iter().map(|(_, s)| s.campaigns).sum();
        let attacks = svc
            .ground_truth()
            .iter()
            .filter(|g| g.class.is_some())
            .count();
        assert_eq!(campaigns, attacks);
        assert_eq!(campaigns, 3 * 2, "2 attacks per epoch, 3 epochs");
    }

    #[test]
    fn queue_source_exhausts_cleanly() {
        let mut svc = SocService::new(svc_config(6));
        let source = QueueSource {
            plans: vec![CampaignPlan::single(AttackClass::Ransomware)],
        };
        let summaries = svc.run_epochs(&source, 5).unwrap();
        assert_eq!(summaries.len(), 1);
        assert!(svc.run_epoch(&source).unwrap().is_none());
        assert_eq!(svc.stats().epochs, 1);
    }

    #[test]
    fn boundary_checkpoint_restore_is_alert_identical() {
        let source = mix(9);
        // Uninterrupted: three epochs straight.
        let mut all = SocService::new(svc_config(9));
        all.run_epochs(&source, 3).unwrap();
        // Interrupted: one epoch, checkpoint at the boundary, restart
        // from serialized state, two more.
        let mut first = SocService::new(svc_config(9));
        first.run_epochs(&source, 1).unwrap();
        let json = first.checkpoint().to_json();
        drop(first);
        let mut revived = SocService::restore(svc_config(9), &json).unwrap();
        revived.run_epochs(&source, 2).unwrap();
        assert_eq!(alert_keys(all.report()), alert_keys(revived.report()));
        assert_eq!(all.clock(), revived.clock());
        assert_eq!(all.stats().sessions, revived.stats().sessions);
        assert_eq!(all.stats().segments, revived.stats().segments);
        assert_eq!(revived.stats().restores, 1);
        assert_eq!(
            all.report().incidents_total(),
            revived.report().incidents_total()
        );
    }

    /// One decoy, a live intel loop, a per-epoch wave and cadence
    /// checkpoints every 257 items.
    fn intel_wave_config() -> ServiceConfig {
        let mut pcfg = PipelineConfig::small_lab(17);
        pcfg.deployment.decoys = 1;
        pcfg.intel = Some(crate::intel::IntelConfig::default());
        let mut cfg = ServiceConfig::new(pcfg, 17);
        cfg.checkpoint_items = Some(257);
        // A per-epoch wave sweeps the decoy, so the intel feed the
        // resume must carry is non-empty, not vacuously equal.
        cfg.wave = Some(WaveSpec::default());
        cfg
    }

    #[test]
    fn mid_epoch_checkpoint_resume_is_alert_identical_with_intel() {
        let source = mix(17);
        let mut all = SocService::new(intel_wave_config());
        all.run_epochs(&source, 3).unwrap();
        // Run one full epoch, then "crash" partway through epoch 1:
        // the latest cadence checkpoint stands in for the crash point.
        let mut interrupted = SocService::new(intel_wave_config());
        interrupted.run_epochs(&source, 2).unwrap();
        let chk = interrupted
            .last_checkpoint()
            .expect("cadence produced checkpoints")
            .clone();
        assert!(chk.watermark.is_some());
        drop(interrupted);
        let mut revived = SocService::restore(intel_wave_config(), &chk.to_json()).unwrap();
        assert_eq!(revived.epoch(), 1);
        let summaries = revived.run_epochs(&source, 2).unwrap();
        assert!(summaries[0].verified_resume, "{summaries:?}");
        assert_eq!(alert_keys(all.report()), alert_keys(revived.report()));
        assert_eq!(all.stats().sessions, revived.stats().sessions);
        assert_eq!(all.stats().intel_rules, revived.stats().intel_rules);
        assert!(
            revived.stats().intel_rules > 0,
            "the wave never fed the intel loop"
        );
        assert!(revived.stats().replayed_items > 0);
    }

    #[test]
    fn corrupt_and_incompatible_checkpoints_are_rejected() {
        let mut svc = SocService::new(svc_config(21));
        svc.run_epochs(&mix(21), 1).unwrap();
        let json = svc.checkpoint().to_json();

        // Truncation → malformed.
        let truncated = &json[..json.len() / 2];
        assert!(matches!(
            ServiceCheckpoint::from_json(truncated),
            Err(RestoreError::Malformed(_))
        ));

        // Bit-flip in the payload → checksum mismatch. Flip a digit in
        // the clock field (guaranteed present and covered by the
        // checksum).
        let clock_field = format!("\"clock_us\":{}", svc.checkpoint().clock_us);
        assert!(json.contains(&clock_field), "{json:.120}");
        let tampered = json.replace(&clock_field, "\"clock_us\":1");
        assert!(matches!(
            ServiceCheckpoint::from_json(&tampered),
            Err(RestoreError::ChecksumMismatch)
        ));

        // Past or future format version → version error (re-sealed so
        // the checksum passes and the version check is what fires).
        for version in [2, CHECKPOINT_VERSION + 1] {
            let mut other = svc.checkpoint();
            other.version = version;
            assert!(matches!(
                ServiceCheckpoint::from_json(&other.to_json()),
                Err(RestoreError::Version { found }) if found == version
            ));
        }

        // Different config (seed) → fingerprint mismatch at restore.
        assert!(matches!(
            SocService::restore(svc_config(22), &json),
            Err(RestoreError::ConfigMismatch)
        ));
    }

    #[test]
    fn diverged_watermark_is_detected_on_resume() {
        let mut cfg = svc_config(23);
        cfg.checkpoint_items = Some(100);
        let source = mix(23);
        let mut svc = SocService::new(cfg.clone());
        svc.run_epochs(&source, 1).unwrap();
        let mut chk = svc.last_checkpoint().expect("cadence checkpoint").clone();
        // Corrupt the watermark digest (re-sealed: the checksum passes,
        // only replay verification can catch it).
        chk.watermark.as_mut().unwrap().digest ^= 1;
        chk.watermark.as_mut().unwrap().stream = None;
        chk.watermark.as_mut().unwrap().shard = None;
        chk.watermark.as_mut().unwrap().intel = None;
        let mut revived = SocService::restore(cfg, &chk.to_json()).unwrap();
        let err = revived.run_epoch(&source).unwrap_err();
        assert!(
            matches!(err, ServiceError::ResumeDiverged { epoch: 0, .. }),
            "{err}"
        );
    }

    #[test]
    fn every_watermark_layer_is_verified_on_resume() {
        let source = mix(17);
        let mut svc = SocService::new(intel_wave_config());
        svc.run_epochs(&source, 1).unwrap();
        let chk = svc.last_checkpoint().expect("cadence checkpoint").clone();
        // One edit per layer, re-sealed: the digest still matches, so
        // only that layer's comparison can catch it.
        type LayerEdit = (&'static str, fn(&mut WatermarkProof));
        let edits: [LayerEdit; 3] = [
            ("producer stream", |w| {
                w.stream.as_mut().unwrap().retired += 1
            }),
            ("monitor shard", |w| w.shard.as_mut().unwrap().segments += 1),
            ("intel loop", |w| w.intel.as_mut().unwrap().captures += 1),
        ];
        for (layer, edit) in edits {
            let mut tampered = chk.clone();
            edit(tampered.watermark.as_mut().unwrap());
            let mut revived =
                SocService::restore(intel_wave_config(), &tampered.to_json()).unwrap();
            let Err(ServiceError::ResumeDiverged {
                epoch: 0, detail, ..
            }) = revived.run_epoch(&source)
            else {
                panic!("{layer}: the resume did not diverge in epoch 0");
            };
            assert!(detail.contains(layer), "{layer}: {detail}");
        }
    }

    #[test]
    fn intel_snapshot_must_match_the_configured_loop() {
        let source = mix(17);
        let mut svc = SocService::new(intel_wave_config());
        // The loop is created when the first epoch starts, so the
        // epoch-0 boundary is the one checkpoint that may lack it.
        let fresh = svc.checkpoint();
        assert!(fresh.intel.is_none());
        assert!(SocService::restore(intel_wave_config(), &fresh.to_json()).is_ok());
        svc.run_epochs(&source, 1).unwrap();
        // A boundary checkpoint after epoch 0, and a mid-epoch one of
        // epoch 0, each with the snapshot dropped and re-sealed.
        let mid = svc.last_checkpoint().expect("cadence checkpoint").clone();
        assert_eq!((svc.checkpoint().epoch, mid.epoch), (1, 0));
        for mut chk in [svc.checkpoint(), mid] {
            assert!(chk.intel.take().is_some());
            assert!(matches!(
                SocService::restore(intel_wave_config(), &chk.to_json()),
                Err(RestoreError::Malformed(_))
            ));
        }
        // A snapshot where no loop is configured.
        let mut chk = SocService::new(svc_config(17)).checkpoint();
        chk.intel = svc.checkpoint().intel;
        assert!(matches!(
            SocService::restore(svc_config(17), &chk.to_json()),
            Err(RestoreError::Malformed(_))
        ));
    }

    #[test]
    fn degraded_mode_state_machine_backs_off_exponentially() {
        let cfg = HealthConfig {
            skew_threshold: 2.0,
            degraded_floor: 0.3,
            max_backoff_exp: 2,
        };
        let mut st = HealthState::default();
        // Healthy while skew stays under threshold.
        advance_health(&mut st, &cfg, 1, 1.2);
        assert!(!st.degraded);
        // Skew event: 1-epoch degraded span.
        advance_health(&mut st, &cfg, 2, 3.0);
        assert!(st.degraded);
        assert_eq!(st.degraded_until, 3);
        // Still skewed at expiry: spans double — 2, then 4, then cap.
        advance_health(&mut st, &cfg, 3, 3.0);
        assert_eq!((st.backoff_exp, st.degraded_until), (1, 5));
        advance_health(&mut st, &cfg, 4, 3.0); // mid-span: hold
        assert_eq!((st.backoff_exp, st.degraded_until), (1, 5));
        advance_health(&mut st, &cfg, 5, 3.0);
        assert_eq!((st.backoff_exp, st.degraded_until), (2, 9));
        advance_health(&mut st, &cfg, 9, 3.0); // capped
        assert_eq!((st.backoff_exp, st.degraded_until), (2, 13));
        // Recovered at expiry: leave degraded mode entirely.
        advance_health(&mut st, &cfg, 13, 1.1);
        assert!(!st.degraded);
        assert_eq!(st.backoff_exp, 0);
    }

    #[test]
    fn sustained_skew_degrades_sheds_and_reports() {
        // Two shards and a hair-trigger threshold: real traffic always
        // skews a little, so the service must degrade, shed via the
        // confidence floor, and say so in stats.
        let mut pcfg = PipelineConfig::small_lab(29);
        pcfg.shards = Some(2);
        let mut cfg = ServiceConfig::new(pcfg, 29);
        cfg.health.skew_threshold = 1.0001;
        cfg.health.degraded_floor = 0.99;
        let mut svc = SocService::new(cfg);
        let summaries = svc.run_epochs(&mix(29), 4).unwrap();
        assert!(svc.health().degraded, "{:?}", svc.health());
        assert!(svc.health().last_skew > 1.0001);
        assert!(svc.stats().degraded_epochs >= 1, "{summaries:?}");
        assert!(
            summaries.iter().any(|s| s.degraded),
            "no degraded epoch: {summaries:?}"
        );
        // The shed counter moved: a 0.99 floor drops nearly every
        // per-flow alert in degraded epochs.
        assert!(svc.stats().shed_alerts > 0, "{:?}", svc.stats());
        assert_eq!(svc.shard_health().len(), 2);
        assert!(svc.shard_health().iter().any(|s| s.lagging));
        // Degraded epochs shed real alerts, healthy epochs don't —
        // lifetime alert count sits strictly between "all healthy" and
        // zero.
        let mut healthy = SocService::new(ServiceConfig::new(
            {
                let mut p = PipelineConfig::small_lab(29);
                p.shards = Some(2);
                p
            },
            29,
        ));
        healthy.run_epochs(&mix(29), 4).unwrap();
        assert!(svc.stats().alerts < healthy.stats().alerts);
        assert!(svc.stats().alerts > 0);
    }

    #[test]
    fn peak_live_state_stays_flat_while_sessions_grow() {
        let mut svc = SocService::new(svc_config(31));
        let mut peaks = Vec::new();
        let mut sessions = Vec::new();
        for _ in 0..3 {
            let s = svc.run_epoch(&mix(31)).unwrap().unwrap();
            peaks.push(s.peak_live_flows.max(1));
            sessions.push(svc.stats().sessions);
        }
        // Sessions accumulate without bound...
        assert!(sessions.windows(2).all(|w| w[1] > w[0]));
        // ...while peak live state is flat across epochs (same plan
        // shape ⇒ same concurrency envelope; nothing leaks between
        // epochs).
        let (min, max) = (*peaks.iter().min().unwrap(), *peaks.iter().max().unwrap());
        assert!(max <= 2 * min, "peaks not flat: {peaks:?}");
    }
}
