//! The traced replica: one pipeline pass rebuilt from the crates'
//! public functions, with a span around every call into a layer, plus
//! replays of the sub-layers the monitor does not expose (reassembly,
//! features, flow analysis, detectors, transport decryption, WebSocket
//! framing, wire decoding, HMAC and JSON) over the pass's own bytes.
//!
//! Nothing inside the crates is instrumented. The replica must match
//! the run it shadows: its item and segment counts and its alert stream
//! are compared against the untimed run, so a replica that drifts from
//! the pipeline shows up as failed operations, not as wrong numbers.

use crate::gen::Campaigns;
use crate::spans::Spans;
use ja_attackgen::parallel::{partition_campaigns, run_parallel};
use ja_attackgen::stream::{ScenarioItem, ScenarioStream};
use ja_attackgen::GroundTruth;
use ja_audit::detectors::AuditDetector;
use ja_audit::tracer::Tracer;
use ja_core::classify::incidents;
use ja_core::metrics::score;
use ja_core::pipeline::PipelineConfig;
use ja_crypto::chacha::ChaCha20;
use ja_crypto::hmac::hmac_sha256_parts;
use ja_jupyter_proto::wire::WireMessage;
use ja_kernelsim::deployment::Deployment;
use ja_kernelsim::events::SysEvent;
use ja_kernelsim::hub::AuthEvent;
use ja_kernelsim::server::transport_seed;
use ja_monitor::alerts::{Alert, AlertSource};
use ja_monitor::analyzers::analyze_flow;
use ja_monitor::detectors::{cross_flow, feed_rule_hits, per_flow, scan_config};
use ja_monitor::reassembly::FlowBuf;
use ja_monitor::rules::RuleFeed;
use ja_monitor::{
    shard_of, CompiledRuleSet, FeedCache, FlowFeatures, Monitor, MonitorConfig, MonitorStats,
    StreamingConfig,
};
use ja_netsim::addr::HostAddr;
use ja_netsim::flow::FlowId;
use ja_netsim::segment::{Direction, SegmentRecord};
use ja_websocket::codec::{FrameDecoder, Message, MessageAssembler};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;

/// The pipeline seeds its scenario producer with `seed ^ 0xA0D17`
/// (`Pipeline` in ja-core); a replica that shadows a pipeline run must
/// derive the same producer seed.
pub const PRODUCER_SALT: u64 = 0xA0D17;

/// Per-layer values of one traced pass, keyed by metric name.
pub type Sample = BTreeMap<&'static str, f64>;

/// Everything the producer emitted, split by kind.
pub struct Produced {
    /// Captured segments, in feed order.
    pub segments: Vec<SegmentRecord>,
    /// Hub auth log entries.
    pub auth: Vec<AuthEvent>,
    /// Kernel-audit events.
    pub sys: Vec<SysEvent>,
    /// Ground truth in plan order.
    pub ground_truth: Vec<GroundTruth>,
    /// High-water mark of the producer's pending items (inline
    /// producer only; 0 when the parallel producer ran).
    pub peak_pending: usize,
}

impl Produced {
    /// Items emitted, of every kind.
    pub fn items(&self) -> usize {
        self.segments.len() + self.auth.len() + self.sys.len()
    }

    fn push(&mut self, item: ScenarioItem) {
        match item {
            ScenarioItem::Segment(rec) => self.segments.push(rec),
            ScenarioItem::Auth(ev) => self.auth.push(ev),
            ScenarioItem::Sys(ev) => self.sys.push(ev),
        }
    }
}

/// Run the producer over a fresh copy of `deployment`'s campaigns,
/// timing each call into it as `attackgen.produce`. With more than one
/// producer the parallel producer runs as one span and the benchmark's
/// collecting callback is a child span, so only the producer's own time
/// counts.
pub fn produce(
    sp: &mut Spans,
    deployment: &mut Deployment,
    campaigns: Campaigns,
    stream_seed: u64,
    producers: usize,
) -> Produced {
    let mut out = Produced {
        segments: Vec::new(),
        auth: Vec::new(),
        sys: Vec::new(),
        ground_truth: Vec::new(),
        peak_pending: 0,
    };
    if producers <= 1 {
        let mut stream = ScenarioStream::new(deployment, campaigns, stream_seed);
        while let Some(item) = sp.time("attackgen.produce", || stream.next_item()) {
            out.push(item);
        }
        out.peak_pending = stream.peak_pending();
        out.ground_truth = stream.into_labels().0;
    } else {
        let span = sp.begin("attackgen.produce");
        let done = run_parallel(deployment, campaigns, stream_seed, producers, |item| {
            let collect = sp.begin("bench.collect");
            out.push(item);
            sp.end(collect);
        });
        sp.end(span);
        out.ground_truth = done.ground_truth;
    }
    out
}

/// The monitor configuration the pipeline wires for `deployment`:
/// server attribution, inspection secrets when granted, decoys captured
/// in full, and `feed` as the hot-reload intel feed.
pub fn fleet_monitor_config(
    deployment: &Deployment,
    cfg: &PipelineConfig,
    feed: RuleFeed,
) -> MonitorConfig {
    let mut mcfg = cfg.monitor.clone();
    for (idx, srv) in deployment.servers.iter().enumerate() {
        mcfg.server_ids.insert(srv.addr, srv.id);
        if cfg.tls_inspection {
            mcfg.inspect_secrets
                .insert(srv.addr, srv.transport_secret.clone());
        }
        if deployment.is_decoy(idx) {
            mcfg.audit_trace_hosts.insert(srv.addr);
        }
    }
    mcfg.intel = feed;
    mcfg
}

/// Feed `segments` through the streaming monitor with `shards` shards,
/// as the pipeline's monitor stage does.
pub fn monitor_stage(
    monitor: &Monitor,
    shards: usize,
    segments: &[SegmentRecord],
) -> (Vec<Alert>, MonitorStats) {
    monitor.analyze_stream(shards, StreamingConfig::close_evict(), |sink| {
        for rec in segments {
            sink.accept(rec.clone());
        }
    })
}

/// One traced replica of a pipeline pass.
pub struct Replica {
    /// Per-layer values (producer, monitor stage, audit, core, and the
    /// replays).
    pub sample: Sample,
    /// Items the producer emitted.
    pub items: usize,
    /// Segments the monitor consumed.
    pub segments: u64,
    /// Digest of the final alert stream.
    pub alert_digest: u64,
    /// Campaigns labelled.
    pub campaigns: usize,
    /// Wall seconds of the replicated pass, replays excluded.
    pub total_s: f64,
}

/// Rebuild one pipeline pass — deployment, producer, monitor, auth,
/// kernel audit, configuration scan, incidents and scoring — from
/// public calls, each in its own span, then replay the sub-layers.
pub fn pipeline(
    cfg: &PipelineConfig,
    campaigns: &Campaigns,
    stream_seed: u64,
    feed: RuleFeed,
) -> Replica {
    let producers = cfg.producers.unwrap_or(1).max(1);
    let shards = cfg.shards.unwrap_or(1).max(1);
    let mut sp = Spans::default();
    let root = sp.begin("replica");
    let mut deployment = sp.time("kernelsim.deployment_build", || {
        Deployment::build(&cfg.deployment)
    });
    let groups = partition_campaigns(campaigns, deployment.servers.len(), producers);
    let produced = produce(
        &mut sp,
        &mut deployment,
        campaigns.clone(),
        stream_seed,
        producers,
    );
    let mcfg = fleet_monitor_config(&deployment, cfg, feed);
    let monitor = Monitor::new(mcfg.clone());
    let (mut alerts, stats) = sp.time("monitor.stream", || {
        monitor_stage(&monitor, shards, &produced.segments)
    });
    alerts.extend(sp.time("monitor.auth", || monitor.analyze_auth(&produced.auth)));
    let (events, completeness) = sp.time("audit.tracer", || {
        let mut tracer = Tracer::new(cfg.tracer_capacity);
        tracer.ingest_all(produced.sys.iter().cloned());
        let events = tracer.collect();
        (events, tracer.completeness())
    });
    alerts.extend(sp.time("audit.detect", || AuditDetector::new().analyze(&events)));
    sp.time("core.config_scan", || {
        for (idx, srv) in deployment.servers.iter().enumerate() {
            if !deployment.is_decoy(idx) {
                alerts.extend(scan_config(srv.id, &srv.config).into_iter().map(|(_, a)| a));
            }
        }
    });
    alerts.sort_by_key(|a| a.time);
    black_box(sp.time("core.incidents", || incidents(&alerts, cfg.merge_window)));
    black_box(sp.time("core.score", || {
        let scored = alerts
            .iter()
            .filter(|a| a.source != AlertSource::ConfigScan);
        score(scored, &produced.ground_truth, &cfg.scoring)
    }));
    sp.end(root);
    let total_s = sp.duration(root);

    let mut sample = replay(&mut sp, &produced.segments, &mcfg, &deployment);
    let weights: Vec<usize> = groups
        .iter()
        .map(|g| g.iter().map(|&i| campaigns[i].1.steps.len().max(1)).sum())
        .collect();
    let total_weight: usize = weights.iter().sum();
    let largest = weights.iter().copied().max().unwrap_or(0);
    for (name, value) in [
        ("attackgen.items", produced.items() as f64),
        ("attackgen.segments", produced.segments.len() as f64),
        ("attackgen.sys_events", produced.sys.len() as f64),
        ("attackgen.auth_events", produced.auth.len() as f64),
        ("attackgen.peak_pending", produced.peak_pending as f64),
        ("attackgen.producer_groups", groups.len().max(1) as f64),
        (
            "attackgen.largest_group_share",
            if total_weight == 0 {
                1.0
            } else {
                largest as f64 / total_weight as f64
            },
        ),
        ("audit.completeness", completeness),
    ] {
        sample.insert(name, value);
    }
    finish_sample(&mut sample, &sp, &stats, &produced.segments, shards);
    Replica {
        sample,
        items: produced.items(),
        segments: stats.segments,
        alert_digest: alert_digest(&alerts),
        campaigns: produced.ground_truth.len(),
        total_s,
    }
}

/// Span names and the per-layer metrics their self times feed.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("kernelsim.deployment_build", "kernelsim.deployment_build_s"),
    ("attackgen.produce", "attackgen.produce_s"),
    ("crypto.chacha", "crypto.chacha_s"),
    ("crypto.hmac", "crypto.hmac_s"),
    ("websocket.decode", "websocket.decode_s"),
    ("jupyter_proto.wire_decode", "jupyter_proto.wire_decode_s"),
    ("json.parse", "json.parse_s"),
    ("monitor.stream", "monitor.stream_s"),
    ("monitor.reassembly", "monitor.reassembly_s"),
    ("monitor.features", "monitor.features_s"),
    ("monitor.analyze_flow", "monitor.analyze_flow_s"),
    ("monitor.detect", "monitor.detect_s"),
    ("monitor.auth", "monitor.auth_s"),
    ("audit.tracer", "audit.tracer_s"),
    ("audit.detect", "audit.detect_s"),
    ("core.config_scan", "core.config_scan_s"),
    ("core.incidents", "core.incidents_s"),
    ("core.score", "core.score_s"),
];

/// Complete a traced pass's sample: every mapped span's self time, the
/// monitor stage's counters, the byte accounting, and the coverage of
/// the monitor sub-spans.
///
/// Real payload bytes and modeled wire bytes are kept apart: the
/// modeled `wire_len` (which `MonitorStats::bytes` sums) is orders of
/// magnitude larger than the bytes the layers actually touch.
pub fn finish_sample(
    sample: &mut Sample,
    sp: &Spans,
    stats: &MonitorStats,
    segments: &[SegmentRecord],
    shards: usize,
) {
    for (name, secs) in sp.totals() {
        if let Some(&(_, metric)) = LAYER_SPANS.iter().find(|(span, _)| *span == name) {
            sample.insert(metric, secs);
        }
    }
    let payload: usize = segments.iter().map(|r| r.payload.len()).sum();
    let wire: u64 = segments.iter().map(|r| r.wire_len as u64).sum();
    // Monitor sub-spans that run inside the stream stage, as a share of
    // it (auth analysis runs after the stream and is not part of it).
    // The replays run on one thread, so the share is only defined for a
    // one-shard stage; a sharded stage reads 0.
    let stream = if shards == 1 {
        sample.get("monitor.stream_s").copied().unwrap_or(0.0)
    } else {
        0.0
    };
    let parts: f64 = [
        "monitor.reassembly_s",
        "monitor.features_s",
        "monitor.analyze_flow_s",
        "monitor.detect_s",
    ]
    .iter()
    .filter_map(|k| sample.get(k))
    .sum();
    for (name, value) in [
        ("attackgen.payload_bytes", payload as f64),
        ("attackgen.wire_bytes", wire as f64),
        ("monitor.kernel_msgs", stats.kernel_msgs as f64),
        ("monitor.peak_live_flows", stats.peak_live_flows as f64),
        (
            "monitor.peak_retained_bytes",
            stats.peak_retained_bytes as f64,
        ),
        ("monitor.shard_skew", shard_skew(segments, shards)),
        (
            "monitor.coverage",
            if stream > 0.0 { parts / stream } else { 0.0 },
        ),
    ] {
        sample.insert(name, value);
    }
}

/// Hottest shard's segment count over the mean, routing by the
/// monitor's own flow hash.
fn shard_skew(segments: &[SegmentRecord], shards: usize) -> f64 {
    let shards = shards.max(1);
    let mut load = vec![0u64; shards];
    for rec in segments {
        load[shard_of(rec.flow_id, shards)] += 1;
    }
    let total: u64 = load.iter().sum();
    let hottest = load.iter().copied().max().unwrap_or(0);
    if total == 0 {
        1.0
    } else {
        hottest as f64 * shards as f64 / total as f64
    }
}

/// FNV-1a digest of an alert stream: every field that identifies an
/// alert, in stream order.
pub fn alert_digest(alerts: &[Alert]) -> u64 {
    let mut text = String::new();
    for a in alerts {
        text.push_str(&format!(
            "{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}\n",
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
    crate::gen::fnv(text.as_bytes())
}

/// Replay the monitor's sub-layers flow by flow over `segments` with
/// each call timed: reassembly, features, flow analysis and detectors,
/// then — on each flow's reassembled streams — transport decryption
/// for inspected flows, WebSocket framing, wire decoding, HMAC over
/// every signed message and JSON parsing of its content. Returns the
/// replay's counters; times land in `sp`.
pub fn replay(
    sp: &mut Spans,
    segments: &[SegmentRecord],
    mcfg: &MonitorConfig,
    deployment: &Deployment,
) -> Sample {
    let mut flows: BTreeMap<u64, Vec<&SegmentRecord>> = BTreeMap::new();
    for rec in segments {
        flows.entry(rec.flow_id).or_default().push(rec);
    }
    let keys: HashMap<HostAddr, &[u8]> = deployment
        .servers
        .iter()
        .map(|s| (s.addr, s.signing_key()))
        .collect();
    let rules = CompiledRuleSet::compile(&mcfg.rules, mcfg.match_mode);
    let mut cache = FeedCache::new(mcfg.intel.clone(), mcfg.match_mode);
    let th = &mcfg.thresholds;
    let mut counts = WireCounts::default();
    let (mut inspected, mut incremental) = (0u64, 0u64);
    let mut features = Vec::new();
    for (id, recs) in flows {
        let mut buf = FlowBuf::default();
        sp.time("monitor.reassembly", || {
            for rec in &recs {
                buf.absorb(rec);
            }
        });
        let Some(tuple) = buf.tuple else { continue };
        let secret = mcfg
            .inspect_secrets
            .get(&tuple.dst)
            .or_else(|| mcfg.inspect_secrets.get(&tuple.src))
            .map(Vec::as_slice);
        // The monitor's eager path: inspected and audit-traced hosts.
        let eager = secret.is_some()
            || mcfg.audit_trace_hosts.contains(&tuple.dst)
            || mcfg.audit_trace_hosts.contains(&tuple.src);
        if eager {
            inspected += 1;
        } else {
            incremental += 1;
        }
        let ff = sp.time("monitor.features", || FlowFeatures::from_flow(id, &buf));
        let analysis = sp.time("monitor.analyze_flow", || {
            analyze_flow(FlowId(id), &buf, secret)
        });
        if let Some(ff) = ff {
            black_box(sp.time("monitor.detect", || {
                let mut alerts = per_flow(&ff, &analysis, &rules, th);
                if !mcfg.intel.is_empty() {
                    alerts.extend(feed_rule_hits(&ff, &analysis, &mut cache));
                }
                alerts
            }));
            features.push(ff);
        }
        let key = keys
            .get(&tuple.dst)
            .or_else(|| keys.get(&tuple.src))
            .copied()
            .unwrap_or(&[]);
        replay_wire(sp, FlowId(id), &buf, secret, key, &mut counts);
    }
    black_box(sp.time("monitor.detect", || cross_flow(&features, th)));
    Sample::from([
        ("monitor.flows_inspected", inspected as f64),
        ("monitor.flows_incremental", incremental as f64),
        ("crypto.chacha_bytes", counts.chacha_bytes as f64),
        ("crypto.hmac_msgs", counts.hmac_msgs as f64),
        ("websocket.messages", counts.ws_messages as f64),
    ])
}

#[derive(Default)]
struct WireCounts {
    chacha_bytes: u64,
    hmac_msgs: u64,
    ws_messages: u64,
}

/// Decode one flow's streams down to message content, as the monitor's
/// analyzers do: decrypt when the client side does not open with a
/// plaintext HTTP request and the flow is inspected, then parse the
/// WebSocket frames after each side's HTTP head.
fn replay_wire(
    sp: &mut Spans,
    flow: FlowId,
    buf: &FlowBuf,
    secret: Option<&[u8]>,
    key: &[u8],
    counts: &mut WireCounts,
) {
    let mut up = buf.up.data.clone();
    let mut down = buf.down.data.clone();
    if !up.starts_with(b"GET ") {
        let Some(secret) = secret else { return };
        sp.time("crypto.chacha", || {
            ChaCha20::from_seed(&transport_seed(secret, flow, Direction::ToResponder))
                .apply(&mut up);
            ChaCha20::from_seed(&transport_seed(secret, flow, Direction::ToInitiator))
                .apply(&mut down);
        });
        counts.chacha_bytes += (up.len() + down.len()) as u64;
    }
    for side in [&up, &down] {
        let Some(head) = side.windows(4).position(|w| w == b"\r\n\r\n") else {
            continue;
        };
        let messages = sp.time("websocket.decode", || {
            let mut decoder = FrameDecoder::new();
            let mut assembler = MessageAssembler::new();
            let frames = decoder.feed(&side[head + 4..]).unwrap_or_default();
            frames
                .into_iter()
                .filter_map(|f| assembler.push(f).ok().flatten())
                .collect::<Vec<Message>>()
        });
        counts.ws_messages += messages.len() as u64;
        for msg in &messages {
            let body = match msg {
                Message::Binary(b) => b.as_slice(),
                Message::Text(t) => t.as_bytes(),
                _ => continue,
            };
            let decoded = sp.time("jupyter_proto.wire_decode", || WireMessage::decode(body));
            let Ok(Some((wire, _))) = decoded else {
                continue;
            };
            if !wire.signature.is_empty() && !key.is_empty() {
                black_box(sp.time("crypto.hmac", || {
                    hmac_sha256_parts(
                        key,
                        &[
                            wire.header.as_bytes(),
                            wire.parent_header.as_bytes(),
                            wire.metadata.as_bytes(),
                            wire.content.as_bytes(),
                        ],
                    )
                }));
                counts.hmac_msgs += 1;
            }
            black_box(sp.time("json.parse", || {
                serde_json::from_str::<serde_json::Value>(&wire.content).is_ok()
            }));
        }
    }
}
