//! Streaming monitor core — flows in, alerts out, memory bounded by
//! *live* flows.
//!
//! [`StreamingMonitor`] consumes [`SegmentRecord`]s one at a time.
//! Every flow is followed by the single-pass scanner: in-order bytes
//! are analyzed as the reassembler delivers them and then dropped, and
//! rate features are folded as segments arrive. A flow is evicted —
//! its analysis finalized, the per-flow detectors and the intel
//! signatures run over it, only its compact [`FlowFeatures`] summary
//! kept — as soon as it closes (FIN/RST plus a short reorder linger) or
//! goes idle. Per-flow memory is therefore bounded by the reorder
//! window, and the live table by concurrently-*live* flows, not by
//! capture size; what grows with the capture is only the small per-flow
//! feature summary the cross-flow detectors need at
//! [`StreamingMonitor::finish`] (plus per-flow alerts until they are
//! drained). That is what lets the sensor run online against unbounded
//! traffic (the paper's E5 "unsustainable overhead" lesson).
//!
//! [`Monitor::analyze_stream`] drives one engine inline or fans a live
//! feed out to one engine per flow-hash shard and merges the results.
//! Every production entry point shares this implementation and produces
//! one alert set. [`Monitor::analyze`] is the independent full-buffer
//! reference the equivalence tests check it against.

use crate::alerts::Alert;
use crate::analyzers::{FlowAnalysis, Visibility};
use crate::detectors;
use crate::engine::{Monitor, MonitorStats};
use crate::features::{FlowFeatures, RateAcc};
use crate::reassembly::FlowBuf;
use crate::scan::FlowScanner;
use ja_netsim::flow::FlowId;
use ja_netsim::payload::PayloadBytes;
use ja_netsim::segment::SegmentRecord;
use ja_netsim::time::{Duration, SimTime};
use std::collections::HashMap;

/// Eviction policy for the streaming engine.
#[derive(Clone, Copy, Debug)]
pub struct StreamingConfig {
    /// Evict a flow with no activity for this long (None = only evict
    /// on close / finish). A flow that resumes after an idle eviction
    /// is reconstructed as a fresh flow view.
    pub idle_timeout: Option<Duration>,
    /// After FIN/RST, keep the flow live this long so reordered
    /// segments captured "after" the close still land in it.
    pub close_linger: Duration,
    /// Run the eviction sweep every this many records (amortizes the
    /// live-table scan).
    pub sweep_interval: u64,
}

impl StreamingConfig {
    /// Online defaults: close-evict after a 2 s linger, idle-evict
    /// after 10 min, sweep every 256 records.
    pub fn online() -> Self {
        StreamingConfig {
            idle_timeout: Some(Duration::from_secs(600)),
            close_linger: Duration::from_secs(2),
            sweep_interval: 256,
        }
    }

    /// Batch mode: never evict early. Every flow stays live until
    /// [`StreamingMonitor::finish`], which makes the result identical
    /// to the full-buffer reference [`Monitor::analyze`] on arbitrarily
    /// reordered captures.
    pub fn batch() -> Self {
        StreamingConfig {
            idle_timeout: None,
            close_linger: Duration(u64::MAX),
            sweep_interval: u64::MAX,
        }
    }

    /// Close-based eviction only: a flow is released shortly after its
    /// FIN/RST, never on idleness. On an in-order feed this is
    /// *equivalence-preserving* — the alert set is identical to batch
    /// analysis — while memory stays bounded by concurrently-open
    /// flows. This is what the fused producer→monitor pipeline uses.
    pub fn close_evict() -> Self {
        StreamingConfig {
            idle_timeout: None,
            close_linger: Duration::from_secs(2),
            sweep_interval: 256,
        }
    }
}

/// Anything that can consume captured segments one at a time — the
/// contract a streaming producer (e.g. `ja-attackgen`'s scenario
/// stream, driven by the `ja-core` pipeline) pushes into. Implemented
/// by [`StreamingMonitor`] and by the sharded router behind
/// [`Monitor::analyze_stream`].
pub trait SegmentSink {
    /// Consume one captured record.
    fn accept(&mut self, rec: SegmentRecord);

    /// This sink's engine-state snapshot, when the sink is a single
    /// inline [`StreamingMonitor`]. Routers fanning out to shard
    /// workers return `None` — worker state is not observable from the
    /// feeding thread (checkpoint verification falls back to the feed
    /// digest there).
    fn shard_snapshot(&self) -> Option<MonitorShardSnapshot> {
        None
    }
}

impl SegmentSink for StreamingMonitor<'_> {
    fn accept(&mut self, rec: SegmentRecord) {
        self.push(&rec);
    }

    fn shard_snapshot(&self) -> Option<MonitorShardSnapshot> {
        Some(self.snapshot())
    }
}

impl Default for StreamingConfig {
    fn default() -> Self {
        StreamingConfig::online()
    }
}

/// A flow still being reassembled.
#[derive(Debug)]
struct LiveFlow {
    buf: FlowBuf,
    /// Capture time of the newest record on this flow.
    last_seen: SimTime,
    /// The flow's single-pass analyzers. Boxed: the scanner carries a
    /// 2 KiB entropy histogram, which would otherwise be moved on every
    /// live-table rehash.
    scan: Box<ScanState>,
}

/// The incremental analyzer pair for one lean flow: the protocol
/// scanner consuming delivered chunks and the rate-feature fold.
#[derive(Debug)]
struct ScanState {
    scanner: FlowScanner,
    acc: RateAcc,
}

impl ScanState {
    fn retained_with(&self, buf: &FlowBuf) -> u64 {
        buf.retained_bytes() + self.scanner.buffered()
    }
}

/// Everything a streaming engine accumulated from its evicted flows:
/// compact feature summaries (the cross-flow detectors' input),
/// attributed per-flow alerts, and partial stats. This is also the
/// unit the sharded path merges.
#[derive(Debug, Default)]
pub(crate) struct StreamSummary {
    pub(crate) features: Vec<FlowFeatures>,
    pub(crate) alerts: Vec<Alert>,
    pub(crate) stats: MonitorStats,
}

impl StreamSummary {
    /// Fold one analyzed flow in: shed per-flow alerts under the
    /// degraded-mode confidence floor, count the flow, attribute and
    /// keep the rest of its alerts and its feature summary.
    pub(crate) fn add_flow(
        &mut self,
        monitor: &Monitor,
        ff: FlowFeatures,
        analysis: &FlowAnalysis,
        mut alerts: Vec<Alert>,
    ) {
        // Degraded-mode load shedding: drop low-severity per-flow alerts
        // right at the shard, before attribution and downstream work.
        let floor = monitor.config.confidence_floor;
        if floor > 0.0 {
            let before = alerts.len();
            alerts.retain(|a| a.confidence >= floor);
            self.stats.shed_alerts += (before - alerts.len()) as u64;
        }
        let stats = &mut self.stats;
        stats.flows += 1;
        stats.bytes += ff.bytes_up + ff.bytes_down;
        stats.kernel_msgs += analysis.kernel_msgs.len() as u64;
        match analysis.visibility {
            Visibility::FullContent => stats.full_content_flows += 1,
            Visibility::FramingOnly => stats.framing_only_flows += 1,
            Visibility::Opaque => stats.opaque_flows += 1,
        }
        self.alerts
            .extend(alerts.into_iter().map(|a| monitor.attribute(a)));
        self.features.push(ff);
    }
}

/// Serializable live state of one [`StreamingMonitor`] shard at a
/// watermark: which flows are still being reassembled, the folded
/// deterministic statistics, and the generation of the compiled intel
/// snapshot. Equality between a checkpointed snapshot and a replayed
/// engine's snapshot at the same watermark proves the replay converged
/// (wall-clock timing is excluded by construction).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MonitorShardSnapshot {
    /// Eviction clock (newest capture timestamp seen).
    pub watermark: SimTime,
    /// Flow ids still live (being reassembled), sorted.
    pub live_flow_ids: Vec<u64>,
    /// Segments consumed.
    pub segments: u64,
    /// Flows evicted and analyzed.
    pub flows: u64,
    /// Payload bytes of analyzed flows.
    pub bytes: u64,
    /// Kernel messages recovered from analyzed flows.
    pub kernel_msgs: u64,
    /// High-water mark of concurrently live flows.
    pub peak_live_flows: u64,
    /// Alerts dropped by the degraded-mode confidence floor.
    pub shed_alerts: u64,
    /// High-water mark of retained raw payload bytes (deterministic —
    /// a pure function of the consumed record prefix).
    pub peak_retained_bytes: u64,
    /// Per-flow alerts accumulated and not yet drained.
    pub pending_alerts: u64,
    /// Flow feature summaries retained for the cross-flow pass.
    pub features: u64,
    /// Feed epoch of the compiled intel snapshot (`0` = nothing
    /// published when last consulted). The shard refreshes its cache
    /// only when it evicts a flow, so this is the epoch seen at the
    /// last eviction, not at the last record.
    pub feed_generation: u64,
}

/// The incremental monitor engine.
#[derive(Debug)]
pub struct StreamingMonitor<'m> {
    monitor: &'m Monitor,
    cfg: StreamingConfig,
    /// This shard's compiled static rules: built once per engine, so a
    /// flow's signature pass is one automaton walk per payload.
    rules: crate::matcher::CompiledRuleSet,
    /// This shard's generation-cached intel snapshot: consulted at
    /// eviction, recompiled only when a publisher bumped the feed
    /// epoch.
    intel: crate::matcher::FeedCache,
    live: HashMap<u64, LiveFlow>,
    summary: StreamSummary,
    /// Newest capture timestamp seen on any flow (eviction clock).
    watermark: SimTime,
    /// Raw payload bytes currently retained across live flows
    /// (reassembly buffers + reorder pendings + scanner codec
    /// buffers); its high-water mark feeds
    /// [`MonitorStats::peak_retained_bytes`].
    retained_now: u64,
    /// Reused delivered-chunk sinks for [`FlowBuf::absorb_with`], so
    /// the per-record hot path allocates nothing in steady state.
    scratch_up: Vec<PayloadBytes>,
    scratch_down: Vec<PayloadBytes>,
    /// Reused buffer the scanners of TLS-inspected flows decrypt
    /// chunks into.
    decrypt_buf: Vec<u8>,
    since_sweep: u64,
    started: std::time::Instant,
}

impl<'m> StreamingMonitor<'m> {
    /// A streaming engine over `monitor`'s rules and thresholds.
    pub fn new(monitor: &'m Monitor, cfg: StreamingConfig) -> Self {
        StreamingMonitor {
            monitor,
            cfg,
            rules: monitor.compile_rules(),
            intel: monitor.feed_cache(),
            live: HashMap::new(),
            summary: StreamSummary::default(),
            watermark: SimTime::ZERO,
            retained_now: 0,
            scratch_up: Vec::new(),
            scratch_down: Vec::new(),
            decrypt_buf: Vec::new(),
            since_sweep: 0,
            started: std::time::Instant::now(),
        }
    }

    /// Consume one captured record.
    pub fn push(&mut self, rec: &SegmentRecord) {
        self.summary.stats.segments += 1;
        self.watermark = self.watermark.max(rec.time);
        let monitor = self.monitor;
        let lf = self.live.entry(rec.flow_id).or_insert_with(|| {
            let mut buf = FlowBuf::default();
            buf.set_lean();
            // The inspection secret is chosen here, once, from the
            // flow's first record — every record carries the
            // five-tuple, so reordered captures choose identically.
            let scanner = FlowScanner::new(FlowId(rec.flow_id), monitor.secret_for(&rec.tuple));
            LiveFlow {
                buf,
                last_seen: rec.time,
                scan: Box::new(ScanState {
                    scanner,
                    acc: RateAcc::new(),
                }),
            }
        });
        lf.last_seen = lf.last_seen.max(rec.time);
        let scan = &mut *lf.scan;
        let before = scan.retained_with(&lf.buf);
        self.scratch_up.clear();
        self.scratch_down.clear();
        let outcome = lf
            .buf
            .absorb_with(rec, &mut self.scratch_up, &mut self.scratch_down);
        // Fold rate features off the same pass; up/down subsequences
        // each keep arrival order, which is all the accumulator is
        // sensitive to.
        if outcome.up_new {
            scan.acc.on_up(rec.time, rec.wire_len);
        }
        if outcome.down_new {
            scan.acc.on_down(rec.time, rec.wire_len);
        }
        for chunk in self.scratch_up.drain(..) {
            scan.scanner.feed_up(&chunk, &mut self.decrypt_buf);
        }
        for chunk in self.scratch_down.drain(..) {
            scan.scanner.feed_down(&chunk, &mut self.decrypt_buf);
        }
        let after = scan.retained_with(&lf.buf);
        self.retained_now = self.retained_now - before + after;
        let stats = &mut self.summary.stats;
        stats.peak_live_flows = stats.peak_live_flows.max(self.live.len() as u64);
        stats.peak_retained_bytes = stats.peak_retained_bytes.max(self.retained_now);
        self.since_sweep += 1;
        if self.since_sweep >= self.cfg.sweep_interval {
            self.sweep();
        }
    }

    /// Number of flows currently held in memory.
    pub fn live_flows(&self) -> usize {
        self.live.len()
    }

    /// High-water mark of concurrently live flows.
    pub fn peak_live_flows(&self) -> u64 {
        self.summary.stats.peak_live_flows
    }

    /// Take the per-flow alerts emitted since the last drain
    /// (attributed, in eviction order), releasing their memory from the
    /// engine. Cross-flow alerts only appear at
    /// [`StreamingMonitor::finish`].
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.summary.alerts)
    }

    /// Capture this engine's live-flow + intel-cache state as a
    /// serializable snapshot — the ja-monitor layer of the service
    /// checkpoint contract. Wall-clock fields are deliberately absent:
    /// two engines that consumed the same record prefix produce equal
    /// snapshots, so a restored service compares the checkpointed
    /// snapshot against its replayed engine at the same watermark.
    pub fn snapshot(&self) -> MonitorShardSnapshot {
        let mut live: Vec<u64> = self.live.keys().copied().collect();
        live.sort_unstable();
        let s = &self.summary.stats;
        MonitorShardSnapshot {
            watermark: self.watermark,
            live_flow_ids: live,
            segments: s.segments,
            flows: s.flows,
            bytes: s.bytes,
            kernel_msgs: s.kernel_msgs,
            peak_live_flows: s.peak_live_flows,
            shed_alerts: s.shed_alerts,
            peak_retained_bytes: s.peak_retained_bytes,
            pending_alerts: self.summary.alerts.len() as u64,
            features: self.summary.features.len() as u64,
            feed_generation: self.intel.generation(),
        }
    }

    /// Evict closed/idle flows according to the watermark.
    fn sweep(&mut self) {
        self.since_sweep = 0;
        let wm = self.watermark.as_micros();
        let mut evict: Vec<u64> = self
            .live
            .iter()
            .filter(|(_, lf)| {
                let closed = lf
                    .buf
                    .closed
                    .map(|t| t.as_micros().saturating_add(self.cfg.close_linger.0) <= wm)
                    .unwrap_or(false);
                let idle = self
                    .cfg
                    .idle_timeout
                    .map(|d| lf.last_seen.as_micros().saturating_add(d.0) <= wm)
                    .unwrap_or(false);
                closed || idle
            })
            .map(|(&id, _)| id)
            .collect();
        evict.sort_unstable();
        for id in evict {
            self.evict(id);
        }
    }

    /// Finalize one flow's scan, run the per-flow detectors and fold it
    /// into the running summary.
    fn evict(&mut self, id: u64) {
        let Some(LiveFlow { buf, scan, .. }) = self.live.remove(&id) else {
            return;
        };
        self.retained_now -= scan.retained_with(&buf);
        let ScanState { scanner, acc } = *scan;
        let Some(ff) = acc.finish(id, &buf) else {
            return;
        };
        let analysis = scanner.finalize();
        let config = &self.monitor.config;
        let mut alerts = detectors::per_flow(&ff, &analysis, &self.rules, &config.thresholds);
        // Hot-reloaded intel: only rules that had propagated before this
        // flow began may match it (no retroactive alerts). The guard is
        // a lock-free epoch check, so an idle feed costs nothing.
        if !config.intel.is_empty() {
            alerts.extend(detectors::feed_rule_hits(&ff, &analysis, &mut self.intel));
        }
        self.summary.add_flow(self.monitor, ff, &analysis, alerts);
    }

    /// Evict every remaining flow (in flow-id order, so output is
    /// deterministic) and return the accumulated summary, without
    /// running the cross-flow detectors. The sharded path merges these.
    pub(crate) fn into_summary(mut self) -> StreamSummary {
        let mut rest: Vec<u64> = self.live.keys().copied().collect();
        rest.sort_unstable();
        for id in rest {
            self.evict(id);
        }
        self.summary
    }

    /// Finish the capture: evict all remaining flows, run the
    /// cross-flow detectors over every flow summary, and return the
    /// full alert set (undrained per-flow + cross-flow, canonically
    /// sorted) with final statistics.
    pub fn finish(self) -> (Vec<Alert>, MonitorStats) {
        let monitor = self.monitor;
        let started = self.started;
        let summary = self.into_summary();
        monitor.finish_summaries(vec![summary], started)
    }
}

impl Monitor {
    /// Merge per-shard summaries: concatenate features and per-flow
    /// alerts, run the cross-flow detectors once over the global
    /// feature set, attribute, and sort canonically. Alerts already
    /// taken via [`StreamingMonitor::drain_alerts`] are gone from the
    /// summaries and therefore not re-emitted.
    pub(crate) fn finish_summaries(
        &self,
        parts: Vec<StreamSummary>,
        started: std::time::Instant,
    ) -> (Vec<Alert>, MonitorStats) {
        let mut stats = MonitorStats::default();
        let mut alerts: Vec<Alert> = Vec::new();
        let mut features: Vec<FlowFeatures> = Vec::new();
        for p in parts {
            stats.segments += p.stats.segments;
            stats.flows += p.stats.flows;
            stats.bytes += p.stats.bytes;
            stats.full_content_flows += p.stats.full_content_flows;
            stats.framing_only_flows += p.stats.framing_only_flows;
            stats.opaque_flows += p.stats.opaque_flows;
            stats.kernel_msgs += p.stats.kernel_msgs;
            stats.peak_live_flows += p.stats.peak_live_flows;
            stats.shed_alerts += p.stats.shed_alerts;
            stats.peak_retained_bytes += p.stats.peak_retained_bytes;
            alerts.extend(p.alerts);
            features.extend(p.features);
        }
        alerts.extend(
            detectors::cross_flow(&features, &self.config.thresholds)
                .into_iter()
                .map(|a| self.attribute(a)),
        );
        // Total order: equal-time alerts sort the same no matter which
        // path (sequential, streaming, any shard count) produced them,
        // so downstream order-sensitive consumers (incident merging)
        // see one canonical sequence.
        alerts.sort_by_cached_key(|a| {
            (
                a.time,
                a.class,
                a.source,
                a.host,
                a.server_id,
                a.user.clone(),
                a.detail.clone(),
                a.confidence.to_bits(),
            )
        });
        stats.elapsed_secs = started.elapsed().as_secs_f64();
        (alerts, stats)
    }

    /// Analyze a *live feed* of records without ever materializing a
    /// trace: `feed` pushes records into the provided [`SegmentSink`]
    /// as they are produced, and the monitor analyzes them as they
    /// arrive. With `shards == 1` the feed drives a single streaming
    /// engine inline; with more, records are routed by flow id over
    /// bounded channels to one worker thread per shard, so generation
    /// overlaps analysis and the alert output is identical to the
    /// full-buffer reference [`Monitor::analyze`] on the collected
    /// capture for every shard count (given an equivalence-preserving `cfg` such as
    /// [`StreamingConfig::close_evict`] on an in-order feed).
    ///
    /// Records are buffered per shard and shipped in chunks, so shard
    /// workers pay one channel synchronization per chunk instead of per
    /// record — the difference between fan-out overhead eating the
    /// shard gains and not.
    pub fn analyze_stream<F>(
        &self,
        shards: usize,
        cfg: StreamingConfig,
        feed: F,
    ) -> (Vec<Alert>, MonitorStats)
    where
        F: FnOnce(&mut dyn SegmentSink),
    {
        let started = std::time::Instant::now();
        let n = shards.max(1);
        if n == 1 {
            let mut engine = StreamingMonitor::new(self, cfg);
            feed(&mut engine);
            let summary = engine.into_summary();
            return self.finish_summaries(vec![summary], started);
        }
        std::thread::scope(|scope| {
            let mut senders = Vec::with_capacity(n);
            let mut handles = Vec::with_capacity(n);
            for _ in 0..n {
                // Bounded channel of chunks: backpressure keeps
                // in-flight records (and therefore memory) independent
                // of capture size.
                let (tx, rx) = std::sync::mpsc::sync_channel::<Vec<SegmentRecord>>(FANOUT_DEPTH);
                senders.push(tx);
                let monitor: &Monitor = self;
                handles.push(scope.spawn(move || {
                    let mut engine = StreamingMonitor::new(monitor, cfg);
                    for batch in rx {
                        for rec in &batch {
                            engine.push(rec);
                        }
                    }
                    engine.into_summary()
                }));
            }
            let buffers = (0..n).map(|_| Vec::with_capacity(FANOUT_CHUNK)).collect();
            let mut router = ShardRouter { senders, buffers };
            feed(&mut router);
            router.flush_all(); // partial final chunks
            drop(router); // hang up so workers drain and exit
            let parts: Vec<StreamSummary> = handles
                .into_iter()
                .map(|h| h.join().expect("monitor shard worker panicked"))
                .collect();
            self.finish_summaries(parts, started)
        })
    }
}

/// Records per chunked channel send on the sharded path.
const FANOUT_CHUNK: usize = 128;

/// In-flight chunks allowed per shard before the router blocks
/// (≈ a 1024-record backlog per shard).
const FANOUT_DEPTH: usize = 8;

/// Routes records to per-shard worker channels by flow-id hash
/// ([`crate::engine::shard_of`]), buffering [`FANOUT_CHUNK`] records
/// per shard between sends.
struct ShardRouter {
    senders: Vec<std::sync::mpsc::SyncSender<Vec<SegmentRecord>>>,
    buffers: Vec<Vec<SegmentRecord>>,
}

impl ShardRouter {
    fn flush(&mut self, i: usize) {
        if self.buffers[i].is_empty() {
            return;
        }
        let batch = std::mem::replace(&mut self.buffers[i], Vec::with_capacity(FANOUT_CHUNK));
        self.senders[i]
            .send(batch)
            .expect("monitor shard worker disappeared");
    }

    /// Ship every non-empty buffer (the partial final chunks at stream
    /// end).
    fn flush_all(&mut self) {
        for i in 0..self.buffers.len() {
            self.flush(i);
        }
    }
}

impl SegmentSink for ShardRouter {
    fn accept(&mut self, rec: SegmentRecord) {
        let i = crate::engine::shard_of(rec.flow_id, self.senders.len());
        self.buffers[i].push(rec);
        if self.buffers[i].len() >= FANOUT_CHUNK {
            self.flush(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ja_attackgen::mixer::{run_scenario, ScenarioSpec};
    use ja_attackgen::AttackClass;
    use ja_kernelsim::deployment::{Deployment, DeploymentSpec};

    fn alert_keys(alerts: &[Alert]) -> Vec<(SimTime, AttackClass, &str)> {
        let mut k: Vec<_> = alerts
            .iter()
            .map(|a| (a.time, a.class, a.detail.as_str()))
            .collect();
        k.sort();
        k
    }

    fn mixed_trace(seed: u64) -> ja_netsim::trace::Trace {
        let mut d = Deployment::build(&DeploymentSpec::small_lab(seed));
        run_scenario(
            &mut d,
            &ScenarioSpec {
                benign_sessions_per_server: 2,
                attacks: vec![AttackClass::DataExfiltration, AttackClass::Cryptomining],
                horizon_secs: 2 * 3600,
                seed,
            },
        )
        .trace
    }

    #[test]
    fn streaming_matches_batch_alert_set() {
        let trace = mixed_trace(41);
        let m = Monitor::default();
        let (batch, batch_stats) = m.analyze(&trace);
        let mut sm = StreamingMonitor::new(
            &m,
            StreamingConfig {
                // Close-based eviction only: idle eviction would split
                // legitimately slow flows and is an online trade-off,
                // not an equivalence-preserving one.
                idle_timeout: None,
                close_linger: Duration::from_secs(2),
                sweep_interval: 64,
            },
        );
        for r in trace.records() {
            sm.push(r);
        }
        let (stream, stream_stats) = sm.finish();
        assert_eq!(alert_keys(&batch), alert_keys(&stream));
        assert_eq!(batch_stats.flows, stream_stats.flows);
        assert_eq!(batch_stats.segments, stream_stats.segments);
        assert_eq!(batch_stats.bytes, stream_stats.bytes);
        assert_eq!(batch_stats.kernel_msgs, stream_stats.kernel_msgs);
    }

    #[test]
    fn eviction_bounds_live_flows_on_staggered_capture() {
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        use ja_netsim::segment::Direction;
        // 200 short sessions, each closed well before the next begins:
        // the batch path retains all 200 flow buffers, the streaming
        // path only a handful at a time.
        let mut net = Network::new();
        for i in 0..200u64 {
            let t0 = SimTime::from_secs(10 * i);
            let f = net.open(
                t0,
                HostAddr::internal(HostId(1 + (i % 3) as u32)),
                40_000 + i as u16,
                HostAddr::external(9),
                443,
            );
            net.send(
                t0 + Duration::from_millis(5),
                f,
                Direction::ToResponder,
                &[7u8; 300],
            );
            net.send(
                t0 + Duration::from_millis(9),
                f,
                Direction::ToInitiator,
                &[8u8; 900],
            );
            net.close(t0 + Duration::from_secs(5), f, false);
        }
        let trace = net.into_trace();
        let m = Monitor::default();
        let (batch, batch_stats) = m.analyze(&trace);
        assert_eq!(batch_stats.peak_live_flows, 200);
        let mut sm = StreamingMonitor::new(
            &m,
            StreamingConfig {
                idle_timeout: None,
                close_linger: Duration::from_secs(1),
                sweep_interval: 16,
            },
        );
        for r in trace.records() {
            sm.push(r);
        }
        let (stream, stream_stats) = sm.finish();
        assert_eq!(alert_keys(&batch), alert_keys(&stream));
        assert_eq!(stream_stats.flows, 200);
        assert!(
            stream_stats.peak_live_flows <= 8,
            "peak {} should be bounded by live flows, not capture size",
            stream_stats.peak_live_flows
        );
    }

    #[test]
    fn drain_alerts_streams_per_flow_alerts_without_duplication() {
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        use ja_netsim::segment::Direction;
        // Ten bulk uploads leaving the perimeter, each flow closed long
        // before the capture ends: their per-flow exfil alerts must
        // surface mid-stream via drain_alerts, and draining must not
        // duplicate or lose anything relative to the batch result.
        let mut net = Network::new();
        for i in 0..10u64 {
            let t0 = SimTime::from_secs(120 * i);
            let f = net.open(
                t0,
                HostAddr::internal(HostId(1)),
                50_000 + i as u16,
                HostAddr::external(7),
                443,
            );
            net.send_snapped(
                t0 + Duration::from_millis(10),
                f,
                Direction::ToResponder,
                &[1u8; 4096],
                20_000_000,
            );
            net.close(t0 + Duration::from_secs(30), f, false);
        }
        let trace = net.into_trace();
        let m = Monitor::default();
        let (batch, _) = m.analyze(&trace);
        let mut sm = StreamingMonitor::new(
            &m,
            StreamingConfig {
                sweep_interval: 8,
                ..StreamingConfig::online()
            },
        );
        let mut drained: Vec<Alert> = Vec::new();
        for r in trace.records() {
            sm.push(r);
            drained.extend(sm.drain_alerts());
        }
        let (rest, _) = sm.finish();
        // Exfil is caught per-flow, so it must surface mid-stream.
        assert!(drained
            .iter()
            .any(|a| a.class == AttackClass::DataExfiltration));
        let mut all = drained;
        all.extend(rest);
        assert_eq!(alert_keys(&batch), alert_keys(&all));
    }

    #[test]
    fn analyze_stream_matches_batch_for_every_shard_count() {
        let trace = mixed_trace(45);
        let m = Monitor::default();
        let (batch, batch_stats) = m.analyze(&trace);
        let key = |a: &Alert| (a.time, a.class, a.detail.clone(), a.host, a.server_id);
        let k1: Vec<_> = batch.iter().map(key).collect();
        for shards in [1usize, 2, 3, 8] {
            let (stream, stats) =
                m.analyze_stream(shards, StreamingConfig::close_evict(), |sink| {
                    for r in trace.records() {
                        sink.accept(r.clone());
                    }
                });
            let k2: Vec<_> = stream.iter().map(key).collect();
            assert_eq!(k1, k2, "shards={shards}");
            assert_eq!(batch_stats.flows, stats.flows, "shards={shards}");
            assert_eq!(batch_stats.segments, stats.segments, "shards={shards}");
            assert_eq!(batch_stats.bytes, stats.bytes, "shards={shards}");
        }
    }

    /// One plaintext notebook server visited by one hostile session per
    /// entry in `times`: each session connects (a fresh flow), executes
    /// a cell carrying a distinctive hostile token, and closes.
    fn hostile_sessions_trace(times: &[SimTime]) -> ja_netsim::trace::Trace {
        use ja_kernelsim::actions::CellScript;
        use ja_kernelsim::config::{ServerConfig, TransportMode};
        use ja_kernelsim::server::NotebookServer;
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        let mut cfg = ServerConfig::hardened();
        cfg.transport = TransportMode::PlainWs;
        let mut srv = NotebookServer::new(1, cfg, 11);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        let mut net = Network::new();
        for (i, &at) in times.iter().enumerate() {
            let mut conn = srv.connect(
                &mut net,
                at,
                HostAddr::internal(HostId(200 + i as u32)),
                "alice",
                0,
            );
            let done = srv.run_cell(
                &mut net,
                at + Duration::from_millis(50),
                &mut conn,
                &CellScript::pure("subprocess.Popen('/tmp/.stratum_kworkerd')"),
            );
            conn.close(&mut net, done + Duration::from_secs(1));
        }
        net.into_trace()
    }

    fn hot_rule() -> crate::rules::Rule {
        crate::rules::Rule {
            id: "hp-7-1".into(),
            class: AttackClass::Cryptomining,
            pattern: crate::rules::Pattern::CodeSubstring(".stratum_kworkerd".into()),
            confidence: 0.9,
            origin: crate::rules::RuleOrigin::HoneypotIntel,
        }
    }

    #[test]
    fn feed_rule_published_mid_stream_matches_only_later_flows() {
        use crate::alerts::AlertSource;
        // Two identical hostile sessions, one before and one after the
        // rule's availability instant: the hot-reloaded rule must catch
        // exactly the later one — never retroactively the earlier one.
        let trace = hostile_sessions_trace(&[SimTime::from_secs(100), SimTime::from_secs(5_000)]);
        let m = Monitor::default();
        let feed = m.config.intel.clone();
        let (alerts, _) = m.analyze_stream(1, StreamingConfig::close_evict(), |sink| {
            let mut published = false;
            for r in trace.records() {
                // The intel loop publishes while the capture is running.
                if !published && r.time >= SimTime::from_secs(1_000) {
                    feed.publish(SimTime::from_secs(1_000), hot_rule());
                    published = true;
                }
                sink.accept(r.clone());
            }
            assert!(published, "capture should span the publish instant");
        });
        let intel: Vec<&Alert> = alerts
            .iter()
            .filter(|a| a.source == AlertSource::HoneypotIntel)
            .collect();
        assert_eq!(intel.len(), 1, "{intel:?}");
        assert_eq!(intel[0].time, SimTime::from_secs(5_000));
        assert!(intel[0].detail.contains("hp-7-1"));
    }

    #[test]
    fn feed_rule_published_while_a_flow_is_live_matches_it_at_eviction() {
        use crate::alerts::AlertSource;
        // The rule is published after the first session's cell has
        // been read but before that flow is evicted, and is available
        // from before the flow began: eviction must match it under the
        // new snapshot, exactly as the reference does afterwards.
        let trace = hostile_sessions_trace(&[SimTime::from_secs(100), SimTime::from_secs(5_000)]);
        let records = trace.records();
        let first = records[0].flow_id;
        let last_of_first = records.iter().rposition(|r| r.flow_id == first).unwrap();
        let m = Monitor::default();
        let mut sm = StreamingMonitor::new(&m, StreamingConfig::close_evict());
        for (i, r) in records.iter().enumerate() {
            if i == last_of_first {
                assert_eq!(sm.live_flows(), 1, "the first flow is still live");
                m.config.intel.publish(SimTime::from_secs(50), hot_rule());
            }
            sm.push(r);
        }
        let (alerts, _) = sm.finish();
        let intel: Vec<SimTime> = alerts
            .iter()
            .filter(|a| a.source == AlertSource::HoneypotIntel)
            .map(|a| a.time)
            .collect();
        assert_eq!(
            intel,
            [SimTime::from_secs(100), SimTime::from_secs(5_000)],
            "{alerts:?}"
        );
        let (reference, _) = m.analyze(&trace);
        assert_eq!(alert_keys(&reference), alert_keys(&alerts));
    }

    #[test]
    fn feed_rule_never_matches_traffic_before_availability() {
        use crate::alerts::AlertSource;
        // Rule becomes available only after the whole capture: zero
        // honeypot-intel alerts, and the output is identical to a run
        // with no feed at all.
        let trace = hostile_sessions_trace(&[SimTime::from_secs(100)]);
        let baseline = Monitor::default();
        let (base_alerts, _) = baseline.analyze(&trace);
        let m = Monitor::default();
        m.config
            .intel
            .publish(SimTime::from_secs(10_000), hot_rule());
        let (alerts, _) = m.analyze(&trace);
        assert!(alerts
            .iter()
            .all(|a| a.source != AlertSource::HoneypotIntel));
        assert_eq!(alert_keys(&base_alerts), alert_keys(&alerts));
        // Flip availability to before the flow: it now matches.
        let m2 = Monitor::default();
        m2.config.intel.publish(SimTime::from_secs(50), hot_rule());
        let (alerts2, _) = m2.analyze(&trace);
        assert!(alerts2
            .iter()
            .any(|a| a.source == AlertSource::HoneypotIntel));
    }

    #[test]
    fn batched_fanout_flushes_partial_final_chunks() {
        // Captures of a few shard chunks each: every shard ships full
        // chunks and then a partial one. Whatever is left in a router
        // buffer at stream end must be flushed, or tail flows silently
        // vanish.
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        let m = Monitor::default();
        for n_flows in [200u64, 223, 257, 301] {
            let mut net = Network::new();
            for i in 0..n_flows {
                let t = SimTime::from_secs(i);
                let f = net.open(
                    t,
                    HostAddr::internal(HostId(1 + i as u32)),
                    40_000,
                    HostAddr::external(3),
                    443,
                );
                net.close(t + Duration::from_millis(10), f, false);
            }
            let trace = net.into_trace();
            let n_records = trace.records().len();
            assert!(n_records > 3 * FANOUT_CHUNK, "{n_records} records");
            let (_, stats) = m.analyze_stream(3, StreamingConfig::close_evict(), |sink| {
                for r in trace.records() {
                    sink.accept(r.clone());
                }
            });
            assert_eq!(stats.segments as usize, n_records, "flows={n_flows}");
            assert_eq!(stats.flows, n_flows, "flows={n_flows}");
        }
    }

    #[test]
    fn batched_fanout_zero_record_stream() {
        // A feed that never produces a record: workers must hang up
        // cleanly with nothing flushed and nothing analyzed.
        let m = Monitor::default();
        let (alerts, stats) = m.analyze_stream(4, StreamingConfig::close_evict(), |_sink| {});
        assert!(alerts.is_empty());
        assert_eq!(stats.segments, 0);
        assert_eq!(stats.flows, 0);
    }

    #[test]
    fn batched_fanout_single_flow_dominating_one_shard() {
        // One elephant flow (thousands of records, all on one shard,
        // several times the channel backlog) among a few mice: the
        // skewed shard must neither drop records nor deadlock against
        // the bounded channel depth, and the alert set must match the
        // batch path.
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        use ja_netsim::segment::Direction;
        let mut net = Network::new().with_mss(100);
        let big = net.open(
            SimTime::ZERO,
            HostAddr::internal(HostId(1)),
            40_000,
            HostAddr::external(7),
            443,
        );
        let mut t = SimTime::from_millis(10);
        for _ in 0..240 {
            // 240 writes × 10 segments each = 2400+ records on one flow.
            t = net.send(t, big, Direction::ToResponder, &[5u8; 1000]) + Duration::from_millis(50);
        }
        net.close(t + Duration::from_secs(1), big, false);
        for i in 0..3u64 {
            let f = net.open(
                SimTime::from_secs(2 + i),
                HostAddr::internal(HostId(10 + i as u32)),
                41_000,
                HostAddr::external(8),
                443,
            );
            net.close(SimTime::from_secs(3 + i), f, false);
        }
        let trace = net.into_trace();
        let m = Monitor::default();
        let (batch, batch_stats) = m.analyze(&trace);
        assert!(batch_stats.segments as usize > 2 * FANOUT_CHUNK * FANOUT_DEPTH);
        let (stream, stats) = m.analyze_stream(4, StreamingConfig::close_evict(), |sink| {
            for r in trace.records() {
                sink.accept(r.clone());
            }
        });
        assert_eq!(batch_stats.segments, stats.segments);
        assert_eq!(batch_stats.flows, stats.flows);
        assert_eq!(batch_stats.bytes, stats.bytes);
        assert_eq!(alert_keys(&batch), alert_keys(&stream));
    }

    #[test]
    fn idle_timeout_bounds_live_flows() {
        let trace = mixed_trace(43);
        let m = Monitor::default();
        let mut sm = StreamingMonitor::new(
            &m,
            StreamingConfig {
                idle_timeout: Some(Duration::from_secs(60)),
                close_linger: Duration::from_secs(1),
                sweep_interval: 32,
            },
        );
        for r in trace.records() {
            sm.push(r);
        }
        let (_, stats) = sm.finish();
        assert!(stats.peak_live_flows > 0);
        assert!(stats.peak_live_flows < stats.flows);
    }

    #[test]
    fn non_websocket_upstream_is_not_retained() {
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        use ja_netsim::segment::Direction;
        // A binary upstream never carries an HTTP header terminator. It
        // is rejected from its first bytes, so none of it is held until
        // eviction.
        let mut net = Network::new();
        let f = net.open(
            SimTime::ZERO,
            HostAddr::internal(HostId(1)),
            40_000,
            HostAddr::external(2),
            443,
        );
        for i in 0..100 {
            net.send(
                SimTime::from_millis(1 + i),
                f,
                Direction::ToResponder,
                &[0xffu8; 1000],
            );
        }
        net.close(SimTime::from_secs(1), f, false);
        let trace = net.into_trace();
        let (_, stats) = Monitor::default().analyze_stream(1, StreamingConfig::batch(), |sink| {
            for r in trace.records() {
                sink.accept(r.clone());
            }
        });
        assert_eq!((stats.flows, stats.opaque_flows), (1, 1));
        assert_eq!(stats.bytes, 100_000);
        assert!(
            stats.peak_retained_bytes < 1000,
            "retained {} bytes",
            stats.peak_retained_bytes
        );
    }

    /// A flow whose upstream sends `up` and its downstream `down`, each
    /// then followed by 100 × its tail, inspected under a transport
    /// secret or not. Returns the engine's stats, after checking them
    /// against the reference's.
    fn unterminated_flow(
        inspect: bool,
        (up, up_tail): (&[u8], &[u8]),
        (down, down_tail): (&[u8], &[u8]),
    ) -> MonitorStats {
        use ja_netsim::addr::{HostAddr, HostId};
        use ja_netsim::network::Network;
        use ja_netsim::segment::Direction;
        let mut net = Network::new();
        let server = HostAddr::internal(HostId(2));
        let f = net.open(
            SimTime::ZERO,
            HostAddr::internal(HostId(1)),
            40_000,
            server,
            8888,
        );
        let mut t = SimTime::from_millis(1);
        for (dir, bytes) in [(Direction::ToResponder, up), (Direction::ToInitiator, down)] {
            if !bytes.is_empty() {
                t = net.send(t, f, dir, bytes);
            }
        }
        for _ in 0..100 {
            for (dir, tail) in [
                (Direction::ToResponder, up_tail),
                (Direction::ToInitiator, down_tail),
            ] {
                if !tail.is_empty() {
                    t = net.send(t, f, dir, tail);
                }
            }
        }
        net.close(t, f, false);
        let trace = net.into_trace();
        let mut cfg = crate::MonitorConfig::default();
        if inspect {
            cfg = cfg.with_inspection(server, b"transport-secret".to_vec());
        }
        let m = Monitor::new(cfg);
        let (alerts, stats) = m.analyze_stream(1, StreamingConfig::batch(), |sink| {
            for r in trace.records() {
                sink.accept(r.clone());
            }
        });
        let (ref_alerts, reference) = m.analyze(&trace);
        assert_eq!(alert_keys(&alerts), alert_keys(&ref_alerts));
        assert_eq!(
            (
                stats.kernel_msgs,
                stats.opaque_flows,
                stats.full_content_flows
            ),
            (
                reference.kernel_msgs,
                reference.opaque_flows,
                reference.full_content_flows
            )
        );
        stats
    }

    #[test]
    fn unterminated_upstream_header_is_capped() {
        // `"GET /"` then 100 KB with no CRLFCRLF used to be held whole.
        let stats = unterminated_flow(false, (b"GET /", &[b'a'; 1000]), (b"", b""));
        assert_eq!((stats.flows, stats.opaque_flows), (1, 1));
        assert!(
            stats.peak_retained_bytes <= crate::analyzers::MAX_HEADER_BYTES as u64,
            "retained {} bytes",
            stats.peak_retained_bytes
        );
    }

    #[test]
    fn unterminated_downstream_header_is_capped() {
        // A valid upgrade, then 100 KB of downstream with no CRLFCRLF:
        // the downstream stops at the cap and yields no frames.
        let up = ja_websocket::handshake::UpgradeRequest::new("/api/kernels/k/channels", "hub", 7)
            .to_http();
        let stats = unterminated_flow(false, (up.as_bytes(), b""), (b"", &[b'b'; 1000]));
        assert_eq!((stats.flows, stats.kernel_msgs), (1, 0));
        assert!(
            stats.peak_retained_bytes <= crate::analyzers::MAX_HEADER_BYTES as u64,
            "retained {} bytes",
            stats.peak_retained_bytes
        );
    }

    #[test]
    fn undecided_inspected_flow_does_not_hold_its_downstream() {
        // An inspected flow whose upstream stalls at `"GET /"` stays
        // undecided, while 100 KB arrive downstream: with no header
        // terminator, or after a 101 response as WebSocket frames.
        // Besides the held upstream, the downstream held stays under
        // the cap, and past it nothing is buffered but a partial frame.
        use ja_websocket::frame::{Frame, Opcode};
        let frames = Frame::unmasked(Opcode::Binary, vec![b'c'; 996]).encode();
        assert_eq!(frames.len(), 1000);
        let response = b"HTTP/1.1 101 Switching Protocols\r\n\r\n".as_slice();
        for down in [(b"".as_slice(), &[b'b'; 1000][..]), (response, &frames[..])] {
            let stats = unterminated_flow(true, (b"GET /", b""), down);
            assert_eq!((stats.flows, stats.opaque_flows), (1, 1));
            assert!(
                stats.peak_retained_bytes < crate::analyzers::MAX_HEADER_BYTES as u64 + 5,
                "retained {} bytes",
                stats.peak_retained_bytes
            );
        }
    }
}
