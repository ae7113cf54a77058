//! The monitor engine: capture in, alerts out.
//!
//! Production runs on the streaming core in [`crate::streaming`]:
//! [`Monitor::analyze_stream`] analyzes a live feed on one engine or
//! fans it out to per-shard engines by flow id — reassembly *and*
//! per-flow analysis run shard-parallel with no global sort and no
//! barrier between the stages — and merges their summaries for the
//! cross-flow detectors (E5's "harness the supercomputer"
//! configuration). Every flow there is followed by the single-pass
//! scanner.
//!
//! [`Monitor::analyze`] is the full-buffer reference: it reassembles a
//! captured trace whole and runs the original analyzer chain
//! ([`analyze_flow`]) on each flow's complete buffers. No production
//! path calls it; the equivalence tests check the streaming engine
//! against it.

use crate::alerts::Alert;
use crate::analyzers::analyze_flow;
use crate::detectors::{self, Thresholds};
use crate::features::FlowFeatures;
use crate::matcher::{CompiledRuleSet, FeedCache, MatchMode};
use crate::reassembly::Reassembler;
use crate::rules::{RuleFeed, RuleSet};
use crate::streaming::StreamSummary;
use ja_kernelsim::hub::AuthEvent;
use ja_netsim::addr::{FiveTuple, HostAddr};
use ja_netsim::flow::FlowId;
use ja_netsim::trace::Trace;
use std::collections::{HashMap, HashSet};

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
    /// Not read by the monitor: every flow is scanned single-pass. Kept
    /// only because the frozen benchmark harness still writes and reads
    /// it; delete it with the next benchmark change, like
    /// `run_campaigns_streamed*`.
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
    /// full-buffer reference and a batch-mode engine this is every flow
    /// of the capture; a streaming engine with eviction keeps it
    /// bounded by concurrency, not capture size. For the sharded path
    /// it is the sum of per-shard peaks.
    pub peak_live_flows: u64,
    /// Per-flow alerts dropped by the degraded-mode confidence floor
    /// ([`MonitorConfig::confidence_floor`]). Zero unless the service
    /// put the monitor in degraded mode.
    pub shed_alerts: u64,
    /// High-water mark of raw payload bytes retained across all live
    /// flows (reassembly buffers + reorder pendings + incremental
    /// decoder buffers). For a streaming engine this is bounded by the
    /// reorder window of concurrently-live flows, plus the chunks a
    /// TLS-inspected flow holds until its first upstream bytes decide
    /// between plaintext and decryption — decoy flows included. The
    /// full-buffer reference [`Monitor::analyze`] holds the whole
    /// capture, so there it is the capture's delivered volume. For the
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
    /// mode. Each streaming engine (one per shard) builds its own.
    pub(crate) fn compile_rules(&self) -> CompiledRuleSet {
        CompiledRuleSet::compile(&self.config.rules, self.config.match_mode)
    }

    /// A fresh generation-cached view of this monitor's intel feed.
    pub(crate) fn feed_cache(&self) -> FeedCache {
        FeedCache::new(self.config.intel.clone(), self.config.match_mode)
    }

    /// The full-buffer reference engine: reassemble the whole capture,
    /// then analyze each flow in id order from its complete buffers —
    /// [`FlowFeatures::from_flow`], [`analyze_flow`] with the flow's
    /// inspection secret, the per-flow detectors and the intel feed —
    /// and finish like a streaming engine. It holds every flow to the
    /// end, so it is a test and bench oracle, not a production path
    /// (that is [`Monitor::analyze_stream`]). Its alerts and counts
    /// equal the streaming engine's whenever the eviction policy
    /// preserves equivalence.
    pub fn analyze(&self, trace: &Trace) -> (Vec<Alert>, MonitorStats) {
        let started = std::time::Instant::now();
        let mut reassembler = Reassembler::new();
        reassembler.feed_trace(trace);
        let mut summary = StreamSummary::default();
        summary.stats.segments = reassembler.records_in;
        let mut flows: Vec<_> = reassembler.into_flows().into_iter().collect();
        flows.sort_unstable_by_key(|&(id, _)| id);
        summary.stats.peak_live_flows = flows.len() as u64;
        summary.stats.peak_retained_bytes = flows.iter().map(|(_, b)| b.retained_bytes()).sum();
        let rules = self.compile_rules();
        let mut intel = self.feed_cache();
        for (id, buf) in &flows {
            let Some(ff) = FlowFeatures::from_flow(*id, buf) else {
                continue;
            };
            let secret = buf.tuple.as_ref().and_then(|t| self.secret_for(t));
            let analysis = analyze_flow(FlowId(*id), buf, secret);
            let mut alerts = detectors::per_flow(&ff, &analysis, &rules, &self.config.thresholds);
            if !self.config.intel.is_empty() {
                alerts.extend(detectors::feed_rule_hits(&ff, &analysis, &mut intel));
            }
            summary.add_flow(self, ff, &analysis, alerts);
        }
        self.finish_summaries(vec![summary], started)
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
    use crate::streaming::StreamingConfig;
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
