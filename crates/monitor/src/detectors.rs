//! Behavioural detectors, one per taxonomy class.
//!
//! Each detector consumes the feature/analysis views and emits
//! [`Alert`]s. They are deliberately threshold-based and inspectable —
//! the paper's evasion lesson (rule inference) only makes sense against
//! detectors whose thresholds *exist*; E6 attacks exactly these.

use crate::alerts::{Alert, AlertSource};
use crate::analyzers::FlowAnalysis;
use crate::features::FlowFeatures;
use crate::matcher::{CompiledRuleSet, FeedCache, MatchMode};
use crate::rules::{Pattern, Rule, RuleOrigin};
use crate::scan::ScanHits;
use ja_attackgen::AttackClass;
use ja_kernelsim::config::MisconfigClass;
use ja_kernelsim::hub::{AuthEvent, AuthOutcome};
use ja_netsim::addr::HostAddr;
use std::collections::{BTreeMap, BTreeSet};

/// Detector thresholds (the attack surface of E6's rule inference).
#[derive(Clone, Debug)]
pub struct Thresholds {
    /// Upstream bytes in one perimeter-crossing flow ⇒ bulk exfil.
    pub exfil_bulk_bytes: u64,
    /// Minimum asymmetry for the bulk-exfil rule.
    pub exfil_asymmetry: f64,
    /// Beacon: minimum periodic sends.
    pub beacon_min_sends: usize,
    /// DNS tunnel: flows to port 53 from one host.
    pub dns_flows_per_host: usize,
    /// Mining: minimum flow duration (seconds) for the long-lived rule.
    pub mining_min_duration_secs: f64,
    /// Auth failures from one source within the window ⇒ brute force.
    pub auth_fail_threshold: usize,
    /// Auth window (seconds).
    pub auth_window_secs: u64,
    /// Distinct usernames from one source ⇒ spraying.
    pub spray_usernames: usize,
    /// Distinct (dst, port) RST pairs from one source ⇒ scanning.
    pub scan_fanout: usize,
    /// External destinations contacted fewer times than this across the
    /// capture are "rare" for the anomaly detector.
    pub rare_dst_max_count: usize,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            exfil_bulk_bytes: 10_000_000,
            exfil_asymmetry: 0.8,
            beacon_min_sends: 6,
            dns_flows_per_host: 20,
            mining_min_duration_secs: 1800.0,
            auth_fail_threshold: 12,
            auth_window_secs: 300,
            spray_usernames: 3,
            scan_fanout: 6,
            rare_dst_max_count: 1,
        }
    }
}

/// Per-flow detectors: bulk exfil, beaconing, mining shape, plus
/// signature matches against visible content — a single automaton pass
/// per payload via the pre-compiled rule set.
pub fn per_flow(
    features: &FlowFeatures,
    analysis: &FlowAnalysis,
    rules: &CompiledRuleSet,
    th: &Thresholds,
) -> Vec<Alert> {
    let mut alerts = Vec::new();
    let ext_dst = features.crosses_perimeter && !features.tuple.dst.is_internal();
    // Bulk exfiltration: large, strongly asymmetric upload leaving the
    // perimeter.
    if ext_dst
        && features.bytes_up >= th.exfil_bulk_bytes
        && features.asymmetry >= th.exfil_asymmetry
    {
        alerts.push(
            Alert::new(
                features.start,
                AttackClass::DataExfiltration,
                0.9,
                AlertSource::Network,
            )
            .with_host(features.tuple.src)
            .with_detail(format!(
                "bulk upload: {} bytes to {} (asymmetry {:.2})",
                features.bytes_up, features.tuple.dst, features.asymmetry
            )),
        );
    }
    // Beaconing: periodic small uploads out of the perimeter.
    if ext_dst
        && features.looks_periodic()
        && features.sends_up >= th.beacon_min_sends
        && features.bytes_up < th.exfil_bulk_bytes
        && features.tuple.dst_port != 3333
        && features.tuple.dst_port != 14444
    {
        alerts.push(
            Alert::new(
                features.start,
                AttackClass::DataExfiltration,
                0.6,
                AlertSource::Network,
            )
            .with_host(features.tuple.src)
            .with_detail(format!(
                "beaconing: {} sends every {:.0}s to {}",
                features.sends_up, features.mean_gap_secs, features.tuple.dst
            )),
        );
    }
    // Mining shape: long-lived, low-volume, periodic, to a pool port or
    // any external port when periodic and tiny.
    let pool_port = !rules.match_port(features.tuple.dst_port).is_empty();
    if ext_dst
        && features.duration_secs >= th.mining_min_duration_secs
        && features.bytes_up < 1_000_000
        && (pool_port || features.looks_periodic())
    {
        let conf = if pool_port { 0.9 } else { 0.55 };
        alerts.push(
            Alert::new(
                features.start,
                AttackClass::Cryptomining,
                conf,
                AlertSource::Network,
            )
            .with_host(features.tuple.src)
            .with_detail(format!(
                "long-lived low-volume flow to {}:{} ({:.0}s, {} bytes)",
                features.tuple.dst,
                features.tuple.dst_port,
                features.duration_secs,
                features.bytes_up
            )),
        );
    }
    // Signature rules against visible content. The alert source follows
    // the rule's provenance, so honeypot-learned signatures surface as
    // `HoneypotIntel` in reports rather than blending into `Network`.
    if let Some(hs) = &analysis.handshake {
        for rule in rules.match_url(&hs.target) {
            alerts.push(rule_hit(features, rule, || {
                format!("rule {} on URL {}", rule.id, hs.target)
            }));
        }
    }
    for msg in &analysis.kernel_msgs {
        if let Some(code) = &msg.code {
            for rule in rules.match_code(code) {
                alerts.push(rule_hit(features, rule, || {
                    format!("rule {} in cell code", rule.id)
                }));
            }
        }
        // Protocol anomaly: unsigned kernel traffic on a visible flow.
        if !msg.signed {
            alerts.push(
                Alert::new(
                    features.start,
                    AttackClass::Misconfiguration,
                    0.4,
                    AlertSource::Network,
                )
                .with_host(features.tuple.src)
                .with_detail("unsigned kernel message (HMAC disabled)"),
            );
            break; // one per flow is enough
        }
    }
    alerts
}

/// The alert source a match from `rule` should carry.
fn rule_alert_source(rule: &Rule) -> AlertSource {
    match rule.origin {
        RuleOrigin::HoneypotIntel => AlertSource::HoneypotIntel,
        RuleOrigin::Builtin => AlertSource::Network,
    }
}

/// The alert one rule match raises on one flow — shared by the static
/// rule set and the hot-reload feed paths, so provenance attribution
/// and attribution fields stay in one place. The detail is built
/// lazily (only a confirmed hit pays the `format!` allocation), so a
/// zero-match flow allocates nothing on the signature path.
fn rule_hit<D: FnOnce() -> String>(features: &FlowFeatures, rule: &Rule, detail: D) -> Alert {
    Alert::new(
        features.start,
        rule.class,
        rule.confidence,
        rule_alert_source(rule),
    )
    .with_host(features.tuple.src)
    .with_detail(detail())
}

/// Match the hot-reloadable rule feed against a flow's visible content:
/// only rules available by the flow's start may match (no retroactive
/// alerts), and only network-plane patterns apply here — code
/// substrings against recovered kernel messages and URL substrings
/// against the upgrade target. Port and cmdline patterns belong to the
/// static detectors and the audit plane respectively.
///
/// In [`MatchMode::Compiled`] the cache's generation-stamped snapshot
/// is consulted: each payload is scanned once by the cached automata,
/// hits are re-ordered to the naive (publish-order) sequence and then
/// time-gated against the cached `available_at` instants — so output
/// is bit-identical to the naive walk. [`MatchMode::Naive`] preserves
/// the original per-flow read lock + linear scan as the measurable
/// baseline.
pub fn feed_rule_hits(
    features: &FlowFeatures,
    analysis: &FlowAnalysis,
    cache: &mut FeedCache,
) -> Vec<Alert> {
    feed_rule_hits_scanned(features, analysis, cache, &ScanHits::default())
}

/// [`feed_rule_hits`] for a flow the incremental scanner analyzed:
/// signature hits were already collected message-by-message as bytes
/// arrived (single pass, under the feed generation current at arrival)
/// and only need re-validation here. If the feed epoch moved between a
/// payload's arrival and the flow's eviction, or no hits were stored
/// for it, that payload is rescanned from the retained parsed string
/// under the eviction-time snapshot — so output is identical to a scan
/// of every payload at eviction, across mid-flow publishes.
pub(crate) fn feed_rule_hits_scanned(
    features: &FlowFeatures,
    analysis: &FlowAnalysis,
    cache: &mut FeedCache,
    scanned: &ScanHits,
) -> Vec<Alert> {
    let mut alerts = Vec::new();
    if cache.mode() == MatchMode::Naive {
        // Naive mode never pre-scans (the scanner stores no hits): the
        // reference walk needs only the parsed artifacts.
        cache
            .feed()
            .for_each_available(features.start, |rule| match &rule.pattern {
                Pattern::CodeSubstring(s) => {
                    for msg in &analysis.kernel_msgs {
                        if msg.code.as_deref().is_some_and(|c| c.contains(s.as_str())) {
                            alerts.push(rule_hit(features, rule, || {
                                format!("rule {} in cell code", rule.id)
                            }));
                        }
                    }
                }
                Pattern::UrlSubstring(s) => {
                    if let Some(hs) = &analysis.handshake {
                        if hs.target.contains(s.as_str()) {
                            alerts.push(rule_hit(features, rule, || {
                                format!("rule {} on URL {}", rule.id, hs.target)
                            }));
                        }
                    }
                }
                Pattern::DstPort(_) | Pattern::CmdlineSubstring(_) => {}
            });
        return alerts;
    }
    cache.refresh();
    if cache.is_empty() {
        return alerts;
    }
    let generation = cache.generation();
    let (compiled, avail) = cache.parts();
    // Collect (rule index, payload index) hit pairs — stored, or from
    // one automaton pass per payload — then sort: the naive walk emits
    // rule-major (publish order), payload-minor, and a feed rule
    // matches exactly one plane, so this ordering reproduces it
    // bit-identically. Rule indices per payload are ascending either
    // way (pattern ids map to rule indices order-preservingly).
    let mut scratch = Vec::new();
    let mut ids = Vec::new();
    let mut hits: Vec<(u32, u32)> = Vec::new();
    if let Some(hs) = &analysis.handshake {
        let stored = scanned.url.as_ref();
        push_hits(&mut hits, 0, stored, generation, &mut ids, |ids| {
            compiled.url_hit_indices(&hs.target, &mut scratch, ids)
        });
    }
    for (mi, msg) in analysis.kernel_msgs.iter().enumerate() {
        let Some(code) = &msg.code else {
            continue;
        };
        let stored = scanned.per_msg.get(mi).and_then(Option::as_ref);
        push_hits(&mut hits, mi as u32, stored, generation, &mut ids, |ids| {
            compiled.code_hit_indices(code, &mut scratch, ids)
        });
    }
    if hits.is_empty() {
        return alerts;
    }
    hits.sort_unstable();
    for (r, _) in hits {
        // Time-gate *after* the automaton pass: the snapshot compiles
        // every published rule, availability filters the hits.
        if avail[r as usize] > features.start {
            continue;
        }
        let rule = compiled.rule(r);
        alerts.push(match &rule.pattern {
            Pattern::UrlSubstring(_) => rule_hit(features, rule, || {
                let target = analysis
                    .handshake
                    .as_ref()
                    .map(|hs| hs.target.as_str())
                    .unwrap_or_default();
                format!("rule {} on URL {}", rule.id, target)
            }),
            _ => rule_hit(features, rule, || format!("rule {} in cell code", rule.id)),
        });
    }
    alerts
}

/// Append one payload's `(rule index, payload index)` hit pairs: the
/// stored rule indices when they were scanned under `generation`, else
/// those a fresh `scan` appends to `ids`.
fn push_hits(
    hits: &mut Vec<(u32, u32)>,
    payload: u32,
    stored: Option<&(u64, Vec<u32>)>,
    generation: u64,
    ids: &mut Vec<u32>,
    scan: impl FnOnce(&mut Vec<u32>),
) {
    let ids = match stored {
        Some((gen, cached)) if *gen == generation => cached,
        _ => {
            ids.clear();
            scan(ids);
            ids
        }
    };
    hits.extend(ids.iter().map(|&r| (r, payload)));
}

/// Cross-flow detectors: DNS-tunnel fan-out, scanner fan-out, rare
/// external destinations (zero-day anomaly proxy). Grouping maps are
/// ordered so alert order is independent of how the feature set was
/// produced (sequential, streaming, or sharded).
pub fn cross_flow(features: &[FlowFeatures], th: &Thresholds) -> Vec<Alert> {
    let mut alerts = Vec::new();
    // DNS tunnel: many small flows to port 53 from one internal host.
    let mut dns_by_src: BTreeMap<HostAddr, usize> = BTreeMap::new();
    for f in features {
        if f.tuple.dst_port == 53 && f.crosses_perimeter {
            *dns_by_src.entry(f.tuple.src).or_default() += 1;
        }
    }
    for (src, count) in dns_by_src {
        if count >= th.dns_flows_per_host {
            let first = features
                .iter()
                .filter(|f| f.tuple.src == src && f.tuple.dst_port == 53 && f.crosses_perimeter)
                .map(|f| f.start)
                .min()
                .expect("counted above");
            alerts.push(
                Alert::new(
                    first,
                    AttackClass::DataExfiltration,
                    0.8,
                    AlertSource::Network,
                )
                .with_host(src)
                .with_detail(format!("DNS tunnel: {count} flows to port 53")),
            );
        }
    }
    // Scanner: one external source RST-probing many (dst, port) pairs.
    let mut probes_by_src: BTreeMap<HostAddr, BTreeSet<(HostAddr, u16)>> = BTreeMap::new();
    for f in features {
        if f.reset && !f.tuple.src.is_internal() && f.bytes_up == 0 {
            probes_by_src
                .entry(f.tuple.src)
                .or_default()
                .insert((f.tuple.dst, f.tuple.dst_port));
        }
    }
    for (src, targets) in probes_by_src {
        if targets.len() >= th.scan_fanout {
            let first = features
                .iter()
                .filter(|f| f.tuple.src == src && f.reset && f.bytes_up == 0)
                .map(|f| f.start)
                .min()
                .expect("counted above");
            alerts.push(
                Alert::new(
                    first,
                    AttackClass::Misconfiguration,
                    0.85,
                    AlertSource::Network,
                )
                .with_host(src)
                .with_detail(format!("port scan: {} targets probed", targets.len())),
            );
        }
    }
    // Rare external destination receiving an upload: the anomaly feature
    // standing in for "unknown unknown" detection.
    let mut dst_counts: BTreeMap<HostAddr, usize> = BTreeMap::new();
    for f in features {
        if f.crosses_perimeter && !f.tuple.dst.is_internal() {
            *dst_counts.entry(f.tuple.dst).or_default() += 1;
        }
    }
    for f in features {
        if f.crosses_perimeter
            && !f.tuple.dst.is_internal()
            && f.bytes_up > 4096
            && f.asymmetry > 0.5
            && dst_counts[&f.tuple.dst] <= th.rare_dst_max_count
            && f.tuple.dst_port != 53
        {
            alerts.push(
                Alert::new(f.start, AttackClass::ZeroDay, 0.35, AlertSource::Network)
                    .with_host(f.tuple.src)
                    .with_detail(format!(
                        "upload to rare external destination {} ({} bytes)",
                        f.tuple.dst, f.bytes_up
                    )),
            );
        }
    }
    alerts
}

/// Auth-log detectors: brute force and password spraying.
pub fn auth_log(events: &[AuthEvent], th: &Thresholds) -> Vec<Alert> {
    let mut alerts = Vec::new();
    // Group failures by source (ordered, for deterministic output).
    let mut by_src: BTreeMap<HostAddr, Vec<&AuthEvent>> = BTreeMap::new();
    for e in events {
        if e.outcome != AuthOutcome::Success {
            by_src.entry(e.src).or_default().push(e);
        }
    }
    for (src, fails) in by_src {
        // Sliding window count.
        let window = th.auth_window_secs as f64;
        let times: Vec<f64> = fails.iter().map(|e| e.time.as_secs_f64()).collect();
        let mut lo = 0usize;
        let mut worst = 0usize;
        for hi in 0..times.len() {
            while times[hi] - times[lo] > window {
                lo += 1;
            }
            worst = worst.max(hi - lo + 1);
        }
        let usernames: std::collections::HashSet<&str> =
            fails.iter().map(|e| e.username.as_str()).collect();
        if worst >= th.auth_fail_threshold {
            alerts.push(
                Alert::new(
                    fails[0].time,
                    AttackClass::AccountTakeover,
                    0.85,
                    AlertSource::Network,
                )
                .with_host(src)
                .with_detail(format!(
                    "brute force: {worst} failures in {window:.0}s window"
                )),
            );
        } else if usernames.len() >= th.spray_usernames && fails.len() >= th.spray_usernames * 2 {
            alerts.push(
                Alert::new(
                    fails[0].time,
                    AttackClass::AccountTakeover,
                    0.7,
                    AlertSource::Network,
                )
                .with_host(src)
                .with_detail(format!(
                    "password spraying: {} accounts targeted",
                    usernames.len()
                )),
            );
        }
    }
    alerts
}

/// Configuration scanner (the E8 tool): misconfiguration findings as
/// alerts.
pub fn scan_config(
    server_id: u32,
    config: &ja_kernelsim::config::ServerConfig,
) -> Vec<(MisconfigClass, Alert)> {
    config
        .misconfigurations()
        .into_iter()
        .map(|m| {
            let alert = Alert::new(
                ja_netsim::time::SimTime::ZERO,
                AttackClass::Misconfiguration,
                0.99,
                AlertSource::ConfigScan,
            )
            .with_server(server_id)
            .with_detail(format!("misconfiguration: {}", m.label()));
            (m, alert)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_kernelsim::config::ServerConfig;
    use ja_netsim::addr::{FiveTuple, HostId};
    use ja_netsim::time::SimTime;

    #[allow(clippy::too_many_arguments)]
    fn feat(
        src: HostAddr,
        dst: HostAddr,
        dst_port: u16,
        bytes_up: u64,
        bytes_down: u64,
        duration: f64,
        sends: usize,
        gap: f64,
        cv: f64,
        reset: bool,
    ) -> FlowFeatures {
        FlowFeatures {
            flow_id: 0,
            tuple: FiveTuple::new(src, 40000, dst, dst_port),
            duration_secs: duration,
            bytes_up,
            bytes_down,
            asymmetry: if bytes_up + bytes_down == 0 {
                0.0
            } else {
                (bytes_up as f64 - bytes_down as f64) / (bytes_up + bytes_down) as f64
            },
            sends_up: sends,
            mean_gap_secs: gap,
            gap_cv: cv,
            reset,
            crosses_perimeter: FiveTuple::new(src, 1, dst, 1).crosses_perimeter(),
            start: SimTime::ZERO,
        }
    }

    fn empty_analysis() -> FlowAnalysis {
        FlowAnalysis {
            handshake: None,
            kernel_msgs: Vec::new(),
            opaque_ws_messages: 0,
            visibility: crate::analyzers::Visibility::Opaque,
            up_entropy_bits: 7.9,
        }
    }

    fn internal() -> HostAddr {
        HostAddr::internal(HostId(11))
    }

    /// The builtin rules, compiled the way the engine runs them.
    fn builtin() -> CompiledRuleSet {
        crate::rules::RuleSet::builtin().compiled(MatchMode::Compiled)
    }

    #[test]
    fn bulk_exfil_detected() {
        let f = feat(
            internal(),
            HostAddr::external(1),
            443,
            500_000_000,
            1000,
            60.0,
            8,
            0.1,
            0.1,
            false,
        );
        let th = Thresholds::default();
        let alerts = per_flow(&f, &empty_analysis(), &builtin(), &th);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration && a.confidence > 0.8));
    }

    #[test]
    fn download_not_flagged() {
        // pip install: large download, upload tiny (asymmetry negative).
        let f = feat(
            internal(),
            HostAddr::external(40),
            443,
            2000,
            20_000_000,
            60.0,
            2,
            1.0,
            0.5,
            false,
        );
        let alerts = per_flow(&f, &empty_analysis(), &builtin(), &Thresholds::default());
        assert!(alerts.is_empty(), "{alerts:?}");
    }

    #[test]
    fn beacon_detected() {
        let f = feat(
            internal(),
            HostAddr::external(21),
            443,
            640_000,
            0,
            300.0,
            10,
            30.0,
            0.05,
            false,
        );
        let alerts = per_flow(&f, &empty_analysis(), &builtin(), &Thresholds::default());
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration));
    }

    #[test]
    fn mining_flow_detected_by_port_and_shape() {
        let f = feat(
            internal(),
            HostAddr::external(33),
            3333,
            12_000,
            5_000,
            3600.0,
            60,
            60.0,
            0.02,
            false,
        );
        let alerts = per_flow(&f, &empty_analysis(), &builtin(), &Thresholds::default());
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::Cryptomining && a.confidence > 0.8));
    }

    #[test]
    fn mining_on_https_port_still_caught_by_shape() {
        let f = feat(
            internal(),
            HostAddr::external(33),
            443,
            12_000,
            5_000,
            3600.0,
            60,
            60.0,
            0.02,
            false,
        );
        let alerts = per_flow(&f, &empty_analysis(), &builtin(), &Thresholds::default());
        let mining: Vec<_> = alerts
            .iter()
            .filter(|a| a.class == AttackClass::Cryptomining)
            .collect();
        assert_eq!(mining.len(), 1);
        assert!(mining[0].confidence < 0.8); // lower confidence without port
    }

    #[test]
    fn dns_fanout_detected() {
        let th = Thresholds::default();
        let feats: Vec<FlowFeatures> = (0..25)
            .map(|_| {
                feat(
                    internal(),
                    HostAddr::external(5),
                    53,
                    180,
                    60,
                    1.0,
                    1,
                    0.0,
                    0.0,
                    false,
                )
            })
            .collect();
        let alerts = cross_flow(&feats, &th);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration && a.detail.contains("DNS tunnel")));
    }

    #[test]
    fn scanner_fanout_detected() {
        let th = Thresholds::default();
        let scanner = HostAddr::external(99);
        let feats: Vec<FlowFeatures> = (0..12)
            .map(|i| {
                feat(
                    scanner,
                    HostAddr::internal(HostId(i)),
                    if i % 2 == 0 { 8888 } else { 22 },
                    0,
                    0,
                    0.001,
                    0,
                    0.0,
                    0.0,
                    true,
                )
            })
            .collect();
        let alerts = cross_flow(&feats, &th);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::Misconfiguration && a.detail.contains("scan")));
    }

    #[test]
    fn rare_destination_anomaly() {
        let th = Thresholds::default();
        let mut feats = vec![feat(
            internal(),
            HostAddr::external(101),
            443,
            40_960,
            100,
            5.0,
            1,
            0.0,
            0.0,
            false,
        )];
        // Popular mirror contacted many times: not rare.
        for _ in 0..5 {
            feats.push(feat(
                internal(),
                HostAddr::external(40),
                443,
                5000,
                2_000_000,
                5.0,
                1,
                0.0,
                0.0,
                false,
            ));
        }
        let alerts = cross_flow(&feats, &th);
        let zd: Vec<_> = alerts
            .iter()
            .filter(|a| a.class == AttackClass::ZeroDay)
            .collect();
        assert_eq!(zd.len(), 1);
        assert!(zd[0].detail.contains("203.0.0.101"));
    }

    #[test]
    fn brute_force_in_window_detected() {
        let th = Thresholds::default();
        let src = HostAddr::external(77);
        let events: Vec<AuthEvent> = (0..20)
            .map(|i| AuthEvent {
                time: SimTime::from_secs(i * 10),
                username: "alice".into(),
                src,
                outcome: AuthOutcome::Failure,
            })
            .collect();
        let alerts = auth_log(&events, &th);
        assert!(alerts
            .iter()
            .any(|a| a.class == AttackClass::AccountTakeover && a.detail.contains("brute")));
    }

    #[test]
    fn slow_failures_not_brute_force_but_spray_catches_breadth() {
        let th = Thresholds::default();
        let src = HostAddr::external(77);
        // 1 failure per hour across 8 users: below the window threshold.
        let events: Vec<AuthEvent> = (0..16)
            .map(|i| AuthEvent {
                time: SimTime::from_secs(i * 3600),
                username: format!("user{:03}", i % 8),
                src,
                outcome: AuthOutcome::Failure,
            })
            .collect();
        let alerts = auth_log(&events, &th);
        assert!(alerts.iter().all(|a| !a.detail.contains("brute")));
        assert!(alerts.iter().any(|a| a.detail.contains("spraying")));
    }

    #[test]
    fn legitimate_logins_quiet() {
        let th = Thresholds::default();
        let events: Vec<AuthEvent> = (0..50)
            .map(|i| AuthEvent {
                time: SimTime::from_secs(i * 60),
                username: format!("user{:03}", i % 10),
                src: HostAddr::internal(HostId(i as u32)),
                outcome: AuthOutcome::Success,
            })
            .collect();
        assert!(auth_log(&events, &th).is_empty());
    }

    #[test]
    fn config_scan_reports_findings() {
        let findings = scan_config(3, &ServerConfig::exposed());
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|(_, a)| a.server_id == Some(3)));
        assert!(scan_config(0, &ServerConfig::hardened()).is_empty());
    }
}
