//! The monitor engine: capture in, alerts out.
//!
//! Every entry point runs on the streaming core in [`crate::streaming`]:
//! [`Monitor::analyze_stream`] analyzes a live feed on one engine or
//! fans it out to per-shard engines by flow id — reassembly *and*
//! per-flow analysis run shard-parallel with no global sort and no
//! barrier between the stages — and merges their summaries for the
//! cross-flow detectors (E5's "harness the supercomputer"
//! configuration); `analyze` pushes a captured trace through one
//! [`StreamingMonitor`].

use crate::alerts::Alert;
use crate::analyzers::{analyze_flow, FlowAnalysis};
use crate::detectors::{self, Thresholds};
use crate::features::{FlowFeatures, RateAcc};
use crate::matcher::{CompiledRuleSet, FeedCache, MatchMode};
use crate::reassembly::FlowBuf;
use crate::rules::{RuleFeed, RuleSet};
use crate::scan::FlowScanner;
use crate::streaming::{StreamingConfig, StreamingMonitor};
use ja_kernelsim::hub::AuthEvent;
use ja_netsim::addr::{FiveTuple, HostAddr};
use ja_netsim::flow::FlowId;
use ja_netsim::trace::Trace;
use std::collections::{HashMap, HashSet};

/// Which analysis path the streaming engine runs for flows that
/// qualify for single-pass scanning: every flow except those of
/// `audit_trace_hosts`, which always take the eager path regardless of
/// mode. TLS-inspected flows qualify; the scanner decrypts them a
/// chunk at a time once their plaintext attempt fails.
///
/// Both modes produce bit-identical alerts and statistics — the
/// equivalence property tests drive them against each other over
/// random captures — so [`ScanMode::Eager`] exists as the measurable
/// reference, not as a behavioural option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScanMode {
    /// Retain every delivered byte; parse and scan the full buffers at
    /// eviction (the original path, kept as the baseline the
    /// `e12_hotpath` bench and the proptests compare against).
    Eager,
    /// Analyze in-order bytes as the reassembler delivers them and
    /// drop them immediately; per-flow retention is bounded by the
    /// reorder window instead of flow length. A TLS-inspected flow
    /// also holds its chunks until its first upstream bytes decide
    /// between plaintext and decryption.
    #[default]
    Incremental,
}

/// Monitor configuration.
#[derive(Clone, Debug)]
pub struct MonitorConfig {
    /// Signature rules (builtin + anything merged before analysis).
    pub rules: RuleSet,
    /// Hot-reloadable timed rules published *during* analysis (the
    /// honeypot intel loop). Each rule only matches flows that began at
    /// or after its `available_at`; an empty feed changes nothing.
    /// Clones of this config share the feed.
    pub intel: RuleFeed,
    /// Detector thresholds.
    pub thresholds: Thresholds,
    /// TLS-inspection secrets by server address (empty = purely
    /// passive).
    pub inspect_secrets: HashMap<HostAddr, Vec<u8>>,
    /// Map server address → server id for attribution.
    pub server_ids: HashMap<HostAddr, u32>,
    /// How signature rules execute: compiled automata (default) or the
    /// naive linear scans, kept as a measurable baseline for the
    /// `e7_rulescale` bench and the equivalence property tests.
    pub match_mode: MatchMode,
    /// Whether qualifying flows are analyzed single-pass as bytes
    /// arrive ([`ScanMode::Incremental`], the default) or buffered in
    /// full and analyzed at eviction ([`ScanMode::Eager`]).
    pub scan_mode: ScanMode,
    /// Hosts whose flows are captured in full for forensic audit
    /// (e.g. honeypot decoys): their payload buffers are always
    /// retained to eviction, never dropped by the incremental scanner.
    pub audit_trace_hosts: HashSet<HostAddr>,
    /// Degraded-mode load shedding: per-flow alerts with confidence
    /// strictly below this floor are dropped at the shard (before
    /// attribution, incident merging, and scoring) and counted in
    /// [`MonitorStats::shed_alerts`]. `0.0` (the default) sheds
    /// nothing. The SOC service raises the floor while a shard is
    /// behind and lowers it back on recovery.
    pub confidence_floor: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            rules: RuleSet::builtin(),
            intel: RuleFeed::new(),
            thresholds: Thresholds::default(),
            inspect_secrets: HashMap::new(),
            server_ids: HashMap::new(),
            match_mode: MatchMode::default(),
            scan_mode: ScanMode::default(),
            audit_trace_hosts: HashSet::new(),
            confidence_floor: 0.0,
        }
    }
}

impl MonitorConfig {
    /// Grant TLS inspection for a server.
    pub fn with_inspection(mut self, addr: HostAddr, secret: Vec<u8>) -> Self {
        self.inspect_secrets.insert(addr, secret);
        self
    }

    /// Capture `addr`'s flows in full for forensic audit.
    pub fn with_audit_trace(mut self, addr: HostAddr) -> Self {
        self.audit_trace_hosts.insert(addr);
        self
    }
}

/// Analyzer statistics for one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MonitorStats {
    /// Segments consumed.
    pub segments: u64,
    /// Flows reconstructed.
    pub flows: u64,
    /// Payload bytes processed.
    pub bytes: u64,
    /// Flows with full content visibility.
    pub full_content_flows: u64,
    /// Flows with framing-only visibility.
    pub framing_only_flows: u64,
    /// Opaque flows.
    pub opaque_flows: u64,
    /// Kernel messages recovered.
    pub kernel_msgs: u64,
    /// High-water mark of concurrently retained (live) flows. For the
    /// batch wrappers this equals `flows`; a streaming engine with
    /// eviction keeps it bounded by concurrency, not capture size. For
    /// the sharded path it is the sum of per-shard peaks.
    pub peak_live_flows: u64,
    /// Per-flow alerts dropped by the degraded-mode confidence floor
    /// ([`MonitorConfig::confidence_floor`]). Zero unless the service
    /// put the monitor in degraded mode.
    pub shed_alerts: u64,
    /// High-water mark of raw payload bytes retained across all live
    /// flows (reassembly buffers + reorder pendings + incremental
    /// decoder buffers). Under [`ScanMode::Incremental`] this is
    /// bounded by the reorder window of concurrently-live flows, plus
    /// the chunks a TLS-inspected flow holds until its first upstream
    /// bytes decide between plaintext and decryption; under
    /// [`ScanMode::Eager`] it tracks total live flow volume. For the
    /// sharded path it is the sum of per-shard peaks. Deterministic
    /// (no wall-clock input), so it participates in checkpoint
    /// verification.
    pub peak_retained_bytes: u64,
    /// Wall-clock seconds spent in analysis.
    pub elapsed_secs: f64,
}

impl MonitorStats {
    /// Throughput in segments/second of wall time.
    pub fn throughput_segments_per_sec(&self) -> f64 {
        if self.elapsed_secs <= 0.0 {
            0.0
        } else {
            self.segments as f64 / self.elapsed_secs
        }
    }
}

/// The network security monitor.
#[derive(Clone, Debug, Default)]
pub struct Monitor {
    /// Configuration.
    pub config: MonitorConfig,
}

impl Monitor {
    /// Monitor with the given config.
    pub fn new(config: MonitorConfig) -> Self {
        Monitor { config }
    }

    /// May a flow with this tuple be analyzed single-pass with early
    /// byte-drop? Decided once, from the flow's first record. Only
    /// flows of audit-traced hosts, which are captured in full for
    /// forensics, take the eager path; TLS-inspected flows are scanned
    /// too, decrypted a chunk at a time once their plaintext attempt
    /// fails.
    pub(crate) fn scan_eligible(&self, tuple: &FiveTuple) -> bool {
        self.config.scan_mode == ScanMode::Incremental
            && !self.config.audit_trace_hosts.contains(&tuple.dst)
            && !self.config.audit_trace_hosts.contains(&tuple.src)
    }

    /// The inspection secret for a flow with this tuple: its
    /// responder's if granted, else its initiator's (a server that
    /// opened the flow).
    pub(crate) fn secret_for(&self, tuple: &FiveTuple) -> Option<&[u8]> {
        self.config
            .inspect_secrets
            .get(&tuple.dst)
            .or_else(|| self.config.inspect_secrets.get(&tuple.src))
            .map(|v| v.as_slice())
    }

    pub(crate) fn attribute(&self, mut alert: Alert) -> Alert {
        if alert.server_id.is_none() {
            if let Some(host) = alert.host {
                if let Some(&id) = self.config.server_ids.get(&host) {
                    alert.server_id = Some(id);
                }
            }
        }
        alert
    }

    /// Compile this monitor's static rule set for its configured match
    /// mode. Each [`StreamingMonitor`] (one per shard) builds its own.
    pub(crate) fn compile_rules(&self) -> CompiledRuleSet {
        CompiledRuleSet::compile(&self.config.rules, self.config.match_mode)
    }

    /// A fresh generation-cached view of this monitor's intel feed.
    pub(crate) fn feed_cache(&self) -> FeedCache {
        FeedCache::new(self.config.intel.clone(), self.config.match_mode)
    }

    pub(crate) fn flow_work(
        &self,
        id: u64,
        buf: &FlowBuf,
        rules: &CompiledRuleSet,
        intel: &mut FeedCache,
    ) -> Option<(FlowFeatures, FlowAnalysis, Vec<Alert>)> {
        let ff = FlowFeatures::from_flow(id, buf)?;
        let secret = buf.tuple.as_ref().and_then(|t| self.secret_for(t));
        let analysis = analyze_flow(FlowId(id), buf, secret);
        let mut alerts = detectors::per_flow(&ff, &analysis, rules, &self.config.thresholds);
        // Hot-reloaded intel: only rules that had propagated before this
        // flow began may match it (no retroactive alerts). The guard is
        // a lock-free epoch check, so an idle feed costs nothing.
        if !self.config.intel.is_empty() {
            alerts.extend(detectors::feed_rule_hits(&ff, &analysis, intel));
        }
        Some((ff, analysis, alerts))
    }

    /// [`Monitor::flow_work`] for a flow the incremental scanner
    /// followed byte-by-byte: features come from the fold-as-you-go
    /// [`RateAcc`], analysis and signature hits from the scanner —
    /// the flow's raw bytes are already gone. Output is bit-identical
    /// to [`Monitor::flow_work`] on the same (fully retained) flow.
    pub(crate) fn scanned_flow_work(
        &self,
        id: u64,
        buf: &FlowBuf,
        scanner: FlowScanner,
        acc: &RateAcc,
        rules: &CompiledRuleSet,
        intel: &mut FeedCache,
    ) -> Option<(FlowFeatures, FlowAnalysis, Vec<Alert>)> {
        let ff = acc.finish(id, buf)?;
        let (analysis, hits) = scanner.finalize(intel);
        let mut alerts = detectors::per_flow(&ff, &analysis, rules, &self.config.thresholds);
        if !self.config.intel.is_empty() {
            alerts.extend(detectors::feed_rule_hits_scanned(
                &ff, &analysis, intel, &hits,
            ));
        }
        Some((ff, analysis, alerts))
    }

    /// Analyze a capture sequentially: the streaming core in batch
    /// (no-early-eviction) mode, one engine, one pass.
    pub fn analyze(&self, trace: &Trace) -> (Vec<Alert>, MonitorStats) {
        let mut sm = StreamingMonitor::new(self, StreamingConfig::batch());
        for r in trace.records() {
            sm.push(r);
        }
        sm.finish()
    }

    /// Analyze the hub auth log.
    pub fn analyze_auth(&self, events: &[AuthEvent]) -> Vec<Alert> {
        detectors::auth_log(events, &self.config.thresholds)
            .into_iter()
            .map(|a| self.attribute(a))
            .collect()
    }
}

/// Shard assignment for a flow id — shared by the streaming fan-out
/// router and the service's shard-health accounting. A
/// multiplicative hash rather than `flow_id % n`: campaign-scoped flow
/// ids are `(campaign << 32) | counter`, so for power-of-two shard
/// counts a plain modulo would land every campaign's first flow on
/// shard 0.
pub fn shard_of(flow_id: u64, n: usize) -> usize {
    ((flow_id.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 33) % n as u64) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_attackgen::campaign::execute;
    use ja_attackgen::{exfiltration, AttackClass};
    use ja_kernelsim::deployment::{Deployment, DeploymentSpec};
    use ja_netsim::time::SimTime;

    fn exfil_scenario() -> (Trace, Vec<AuthEvent>) {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(71));
        let user = d.owner_of(0).to_string();
        let c = exfiltration::campaign(0, &user, &exfiltration::ExfilParams::default());
        let out = execute(&mut d, &[(SimTime::from_secs(10), c)], 12);
        (out.trace, out.auth_log)
    }

    #[test]
    fn sharded_agrees_for_any_shard_count() {
        let (trace, _) = exfil_scenario();
        let m = Monitor::default();
        let (a_seq, s_seq) = m.analyze(&trace);
        // Alert ordering is canonical, so the output sequences must be
        // *identical*, not merely set-equal.
        let key = |a: &Alert| (a.time, a.class, a.detail.clone(), a.host, a.server_id);
        let k1: Vec<_> = a_seq.iter().map(key).collect();
        for shards in [1, 2, 3, 4, 7, 64] {
            let (a_sh, s_sh) = m.analyze_stream(shards, StreamingConfig::batch(), |sink| {
                for r in trace.records() {
                    sink.accept(r.clone());
                }
            });
            let k2: Vec<_> = a_sh.iter().map(key).collect();
            assert_eq!(k1, k2, "shards={shards}");
            assert_eq!(s_seq.flows, s_sh.flows, "shards={shards}");
            assert_eq!(s_seq.segments, s_sh.segments, "shards={shards}");
        }
    }

    #[test]
    fn exfil_scenario_raises_exfil_alert() {
        let (trace, _) = exfil_scenario();
        let m = Monitor::default();
        let (alerts, stats) = m.analyze(&trace);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration));
        assert!(stats.segments > 0);
        assert!(stats.throughput_segments_per_sec() > 0.0);
    }

    #[test]
    fn attribution_maps_server_ids() {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(72));
        let user = d.owner_of(0).to_string();
        let server_addr = d.servers[0].addr;
        let c = exfiltration::campaign(0, &user, &exfiltration::ExfilParams::default());
        let out = execute(&mut d, &[(SimTime::from_secs(10), c)], 13);
        let mut cfg = MonitorConfig::default();
        cfg.server_ids.insert(server_addr, 0);
        let m = Monitor::new(cfg);
        let (alerts, _) = m.analyze(&out.trace);
        let exfil = alerts
            .iter()
            .find(|a| a.class == AttackClass::DataExfiltration)
            .expect("exfil alert");
        assert_eq!(exfil.server_id, Some(0));
    }

    #[test]
    fn benign_scenario_low_alert_volume() {
        use ja_attackgen::mixer::{run_scenario, ScenarioSpec};
        let mut d = Deployment::build(&DeploymentSpec::small_lab(73));
        let spec = ScenarioSpec {
            benign_sessions_per_server: 2,
            attacks: vec![],
            horizon_secs: 3600,
            seed: 5,
        };
        let out = run_scenario(&mut d, &spec);
        let m = Monitor::default();
        let (alerts, stats) = m.analyze(&out.trace);
        let auth_alerts = m.analyze_auth(&out.auth_log);
        // Benign load may produce a handful of low-confidence anomaly
        // alerts, but no high-confidence detections.
        assert!(
            alerts.iter().filter(|a| a.confidence >= 0.8).count() == 0,
            "{:?}",
            alerts
                .iter()
                .filter(|a| a.confidence >= 0.8)
                .collect::<Vec<_>>()
        );
        assert!(auth_alerts.is_empty());
        assert!(stats.flows > 0);
    }
}
