//! Property tests: the sensor's reassembly matches ground truth under
//! arbitrary traffic and perturbation; detectors never panic on
//! arbitrary feature inputs; the compiled signature matcher is
//! bit-identical to the naive scans it replaced.

use ja_attackgen::AttackClass;
use ja_monitor::analyzers::{FlowAnalysis, ParsedKernelMsg, Visibility};
use ja_monitor::detectors::{self, Thresholds};
use ja_monitor::engine::{Monitor, MonitorConfig, MonitorStats};
use ja_monitor::features::FlowFeatures;
use ja_monitor::matcher::{FeedCache, MatchMode, PatternMatcher};
use ja_monitor::reassembly::Reassembler;
use ja_monitor::rules::{Pattern, Rule, RuleFeed, RuleOrigin, RuleSet};
use ja_monitor::streaming::{StreamingConfig, StreamingMonitor};
use ja_netsim::addr::{FiveTuple, HostAddr, HostId};
use ja_netsim::network::Network;
use ja_netsim::rng::SimRng;
use ja_netsim::segment::{Direction, SegFlags, SegmentRecord};
use ja_netsim::time::{Duration, SimTime};
use ja_netsim::trace::Trace;
use ja_websocket::handshake::UpgradeRequest;
use proptest::prelude::*;

/// Ground-truth stream content: byte at absolute offset `p`.
fn stream_byte(p: u64) -> u8 {
    (p % 251) as u8
}

/// A manually-built payload record for flow 0.
fn record(offset: u64, len: usize, t_ms: u64) -> SegmentRecord {
    SegmentRecord {
        time: SimTime::from_millis(t_ms),
        tuple: FiveTuple::new(HostAddr::internal(HostId(1)), 1, HostAddr::external(1), 2),
        flow_id: 0,
        dir: Direction::ToResponder,
        stream_offset: offset,
        payload: (offset..offset + len as u64)
            .map(stream_byte)
            .collect::<Vec<u8>>()
            .into(),
        wire_len: len as u32,
        flags: SegFlags::default(),
    }
}

proptest! {
    /// The monitor's streaming reassembler recovers exactly the bytes
    /// the trace-level (ground-truth) reassembler does, under arbitrary
    /// writes, reordering and duplication.
    #[test]
    fn reassembler_matches_ground_truth(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 1..8),
        mss in 1usize..64,
        seed in any::<u64>()) {
        let a = HostAddr::internal(HostId(1));
        let b = HostAddr::external(1);
        let mut net = Network::new().with_mss(mss);
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        let mut t = SimTime::from_millis(1);
        for w in &writes {
            t = net.send(t, f, Direction::ToResponder, w);
            t += Duration::from_millis(2);
        }
        net.close(t, f, false);
        let trace = net.into_trace();
        let mut rng = SimRng::new(seed);
        let perturbed = trace.perturb(&mut rng, 0.0, Duration::from_millis(1));
        let want = trace.reassemble(0, Direction::ToResponder);
        let mut re = Reassembler::new();
        re.feed_trace(&perturbed);
        prop_assert_eq!(&re.flows()[&0].up.data, &want);
    }

    /// Dropping records never makes the reassembler deliver bytes that
    /// were not sent (prefix property).
    #[test]
    fn loss_yields_prefix(data in proptest::collection::vec(any::<u8>(), 1..2000),
                          drop in 0.0f64..0.9,
                          seed in any::<u64>()) {
        let a = HostAddr::internal(HostId(1));
        let b = HostAddr::external(1);
        let mut net = Network::new().with_mss(32);
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        net.send(SimTime::from_millis(1), f, Direction::ToResponder, &data);
        let trace = net.into_trace();
        let mut rng = SimRng::new(seed);
        let lossy = trace.perturb(&mut rng, drop, Duration::ZERO);
        let mut re = Reassembler::new();
        re.feed_trace(&lossy);
        let got = &re.flows()[&0].up.data;
        prop_assert!(got.len() <= data.len());
        prop_assert_eq!(got.as_slice(), &data[..got.len()]);
    }

    /// Reordered *and duplicated* captures reassemble to exactly the
    /// ground-truth bytes with clean gap accounting: once everything is
    /// delivered, no stale `pending_bytes` remain.
    #[test]
    fn duplication_keeps_gap_accounting_clean(
        writes in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..200), 1..8),
        mss in 1usize..64,
        dup_mask in proptest::collection::vec(any::<bool>(), 16),
        seed in any::<u64>()) {
        let a = HostAddr::internal(HostId(1));
        let b = HostAddr::external(1);
        let mut net = Network::new().with_mss(mss);
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        let mut t = SimTime::from_millis(1);
        for w in &writes {
            t = net.send(t, f, Direction::ToResponder, w);
            t += Duration::from_millis(2);
        }
        net.close(t, f, false);
        let trace = net.into_trace();
        let want = trace.reassemble(0, Direction::ToResponder);
        let mut recs = trace.into_records();
        let dups: Vec<SegmentRecord> = recs
            .iter()
            .filter(|r| !r.payload.is_empty())
            .enumerate()
            .filter(|(i, _)| dup_mask[i % dup_mask.len()])
            .map(|(_, r)| r.clone())
            .collect();
        recs.extend(dups);
        let mut rng = SimRng::new(seed);
        let shuffled = Trace::new(recs).perturb(&mut rng, 0.0, Duration::from_millis(5));
        let mut re = Reassembler::new();
        re.feed_trace(&shuffled);
        let fb = &re.flows()[&0];
        prop_assert_eq!(&fb.up.data, &want);
        prop_assert!(!fb.up.has_gap());
        prop_assert_eq!(fb.up.pending_bytes, 0);
    }

    /// Arbitrary overlapping retransmissions (content consistent with
    /// one underlying stream, like TCP) deliver exactly the contiguous
    /// coverage prefix, and gap accounting drains once the gap fills.
    #[test]
    fn overlapping_segments_deliver_contiguous_coverage(
        offsets in proptest::collection::vec(0u64..150, 1..40)) {
        // Length is a pure function of offset, so a repeated offset is a
        // true retransmission (same bytes).
        let seg = |o: u64| (o, 1 + ((o * 7) % 40) as usize);
        let mut re = Reassembler::new();
        for (i, &o) in offsets.iter().enumerate() {
            let (off, len) = seg(o);
            re.feed(&record(off, len, i as u64));
        }
        let fb = &re.flows()[&0];
        let mut intervals: Vec<(u64, u64)> = offsets
            .iter()
            .map(|&o| {
                let (off, len) = seg(o);
                (off, off + len as u64)
            })
            .collect();
        intervals.sort_unstable();
        let mut covered = 0u64;
        for (a, b) in intervals {
            if a > covered {
                break;
            }
            covered = covered.max(b);
        }
        let expected: Vec<u8> = (0..covered).map(stream_byte).collect();
        prop_assert_eq!(&fb.up.data, &expected);
        if !fb.up.has_gap() {
            prop_assert_eq!(fb.up.pending_bytes, 0);
        }
    }

    /// Retransmitted duplicates never inflate the volumetric/rate
    /// features the exfiltration detectors read.
    #[test]
    fn duplicates_leave_features_unchanged(
        len in 1usize..1500,
        mss in 4usize..64,
        dup_mask in proptest::collection::vec(any::<bool>(), 16)) {
        let payload: Vec<u8> = (0..len as u64).map(stream_byte).collect();
        let a = HostAddr::internal(HostId(1));
        let b = HostAddr::external(1);
        let mut net = Network::new().with_mss(mss);
        let f = net.open(SimTime::ZERO, a, 1, b, 2);
        net.send(SimTime::from_millis(1), f, Direction::ToResponder, &payload);
        net.close(SimTime::from_secs(1), f, false);
        let trace = net.into_trace();
        let mut clean = Reassembler::new();
        clean.feed_trace(&trace);
        let mut recs = trace.into_records();
        let dups: Vec<SegmentRecord> = recs
            .iter()
            .filter(|r| !r.payload.is_empty())
            .enumerate()
            .filter(|(i, _)| dup_mask[i % dup_mask.len()])
            .map(|(_, r)| r.clone())
            .collect();
        recs.extend(dups);
        let mut t = Trace::new(recs);
        t.sort();
        let mut noisy = Reassembler::new();
        noisy.feed_trace(&t);
        let c = &clean.flows()[&0];
        let n = &noisy.flows()[&0];
        prop_assert_eq!(&c.up_sizes, &n.up_sizes);
        prop_assert_eq!(&c.up_times, &n.up_times);
        prop_assert_eq!(&c.up.data, &n.up.data);
    }

    /// Detectors accept arbitrary (finite) features without panicking,
    /// and alert confidences stay in [0, 1].
    #[test]
    fn detectors_total_over_feature_space(
        bytes_up in 0u64..u64::MAX / 2,
        bytes_down in 0u64..u64::MAX / 2,
        duration in 0.0f64..1e7,
        sends in 0usize..10_000,
        gap in 0.0f64..1e5,
        cv in 0.0f64..10.0,
        port in 0u16..u16::MAX,
        reset in any::<bool>()) {
        let tuple = FiveTuple::new(
            HostAddr::internal(HostId(1)),
            40000,
            HostAddr::external(1),
            port,
        );
        let up = bytes_up as f64;
        let down = bytes_down as f64;
        let ff = FlowFeatures {
            flow_id: 0,
            tuple,
            duration_secs: duration,
            bytes_up,
            bytes_down,
            asymmetry: if up + down == 0.0 { 0.0 } else { (up - down) / (up + down) },
            sends_up: sends,
            mean_gap_secs: gap,
            gap_cv: cv,
            reset,
            crosses_perimeter: true,
            start: SimTime::ZERO,
        };
        let analysis = ja_monitor::analyzers::FlowAnalysis {
            handshake: None,
            kernel_msgs: Vec::new(),
            opaque_ws_messages: 0,
            visibility: ja_monitor::analyzers::Visibility::Opaque,
            up_entropy_bits: 8.0,
        };
        let th = Thresholds::default();
        let rules = ja_monitor::rules::RuleSet::builtin()
            .compiled(ja_monitor::matcher::MatchMode::Compiled);
        let alerts = detectors::per_flow(&ff, &analysis, &rules, &th);
        for a in &alerts {
            prop_assert!((0.0..=1.0).contains(&a.confidence));
        }
        let cross = detectors::cross_flow(&[ff], &th);
        for a in &cross {
            prop_assert!((0.0..=1.0).contains(&a.confidence));
        }
    }
}

/// Substring fragments the generators below share: adversarial for an
/// automaton (prefix/suffix/overlap-heavy alphabet) plus multi-byte
/// UTF-8, so failure-link and output-propagation bugs surface.
fn arb_pattern() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        "[ab]{1,4}",
        "[ab]{1,4}",
        "[a-e]{1,10}",
        "[a-e]{1,10}",
        "[a-eé ]{1,6}",
        Just("🦀é".to_string()),
    ]
}

fn arb_haystack() -> impl Strategy<Value = String> {
    prop_oneof![
        "[ab]{0,40}",
        "[ab]{0,40}",
        "[a-e]{0,60}",
        "[a-e]{0,60}",
        "[a-fé🦀 ]{0,40}",
    ]
}

/// Everything observable about an alert, for exact (content + order)
/// sequence comparison.
type FeedAlertKey = (
    SimTime,
    AttackClass,
    ja_monitor::alerts::AlertSource,
    Option<HostAddr>,
    u64,
    String,
);

fn feed_fingerprint(alerts: &[ja_monitor::Alert]) -> Vec<FeedAlertKey> {
    alerts
        .iter()
        .map(|a| {
            (
                a.time,
                a.class,
                a.source,
                a.host,
                a.confidence.to_bits(),
                a.detail.clone(),
            )
        })
        .collect()
}

/// A flow observation for the feed-matching path: start time, visible
/// cell code per kernel message, optional upgrade target.
fn feed_flow(
    start_secs: u64,
    codes: &[String],
    url: &Option<String>,
) -> (FlowFeatures, FlowAnalysis) {
    let ff = FlowFeatures {
        flow_id: 7,
        tuple: FiveTuple::new(
            HostAddr::internal(HostId(3)),
            40_001,
            HostAddr::external(9),
            443,
        ),
        duration_secs: 5.0,
        bytes_up: 1000,
        bytes_down: 1000,
        asymmetry: 0.0,
        sends_up: 2,
        mean_gap_secs: 0.0,
        gap_cv: 0.0,
        reset: false,
        crosses_perimeter: true,
        start: SimTime::from_secs(start_secs),
    };
    let analysis = FlowAnalysis {
        handshake: url
            .as_ref()
            .map(|target| UpgradeRequest::new(target, "hub:8000", 11)),
        kernel_msgs: codes
            .iter()
            .map(|c| ParsedKernelMsg {
                msg_type: None,
                code: Some(c.clone()),
                signed: true,
                payload_len: c.len(),
            })
            .collect(),
        opaque_ws_messages: 0,
        visibility: Visibility::FullContent,
        up_entropy_bits: 4.0,
    };
    (ff, analysis)
}

proptest! {
    /// The automaton reports exactly the patterns a `str::contains`
    /// sweep reports, for arbitrary (overlapping, duplicated, empty,
    /// multi-byte) pattern vectors and haystacks — the foundation every
    /// higher equivalence result rests on.
    #[test]
    fn pattern_matcher_matches_contains_scan(
        patterns in proptest::collection::vec(arb_pattern(), 0..12),
        haystacks in proptest::collection::vec(arb_haystack(), 1..8),
    ) {
        let ac = PatternMatcher::build(&patterns);
        prop_assert_eq!(ac.pattern_count(), patterns.len());
        for hay in &haystacks {
            let want: Vec<u32> = patterns
                .iter()
                .enumerate()
                .filter(|(_, p)| hay.contains(p.as_str()))
                .map(|(i, _)| i as u32)
                .collect();
            prop_assert_eq!(ac.find(hay.as_bytes()), want, "haystack {:?} vs {:?}", hay, &patterns);
        }
    }

    /// A compiled rule set answers every plane query — code, URL,
    /// cmdline, port — with exactly the rules (same order) the naive
    /// `RuleSet` scans return, in both execution modes, for random
    /// multi-plane rule sets.
    #[test]
    fn compiled_ruleset_matches_naive_ruleset(
        specs in proptest::collection::vec((0u8..4, arb_pattern(), 0u16..8), 0..24),
        haystacks in proptest::collection::vec(arb_haystack(), 1..6),
    ) {
        let mut rs = RuleSet::new();
        for (i, (plane, text, port)) in specs.iter().enumerate() {
            let pattern = match plane {
                0 => Pattern::CodeSubstring(text.clone()),
                1 => Pattern::UrlSubstring(text.clone()),
                2 => Pattern::CmdlineSubstring(text.clone()),
                _ => Pattern::DstPort(*port),
            };
            rs.add(Rule {
                id: format!("prop-{i:03}"),
                class: AttackClass::ALL[i % AttackClass::ALL.len()],
                pattern,
                confidence: 0.5,
                origin: if i % 2 == 0 { RuleOrigin::Builtin } else { RuleOrigin::HoneypotIntel },
            });
        }
        let ids = |v: Vec<&Rule>| -> Vec<String> { v.iter().map(|r| r.id.clone()).collect() };
        for mode in [MatchMode::Compiled, MatchMode::Naive] {
            let compiled = rs.compiled(mode);
            prop_assert_eq!(compiled.len(), rs.len());
            for hay in &haystacks {
                prop_assert_eq!(ids(compiled.match_code(hay)), ids(rs.match_code(hay)));
                prop_assert_eq!(ids(compiled.match_url(hay)), ids(rs.match_url(hay)));
                prop_assert_eq!(ids(compiled.match_cmdline(hay)), ids(rs.match_cmdline(hay)));
            }
            for port in 0u16..8 {
                prop_assert_eq!(ids(compiled.match_port(port)), ids(rs.match_port(port)));
            }
        }
    }

    /// The generation-cached compiled feed path emits the identical
    /// alert sequence (content *and* order) to the per-flow locked
    /// naive walk, across random rule sets, payloads, publish schedules
    /// and flow start times — including re-publishes mid-stream, which
    /// exercise the epoch-triggered recompile.
    #[test]
    fn feed_cache_matches_naive_walk_across_publish_schedules(
        publishes in proptest::collection::vec(
            (0u64..2_000, any::<bool>(), arb_pattern()), 0..20),
        split in 0usize..20,
        queries in proptest::collection::vec(
            (0u64..2_500,
             proptest::collection::vec(arb_haystack(), 0..4),
             proptest::option::of(arb_haystack())), 1..5),
    ) {
        let feed = RuleFeed::new();
        let mut naive = FeedCache::new(feed.clone(), MatchMode::Naive);
        let mut compiled = FeedCache::new(feed.clone(), MatchMode::Compiled);
        let publish = |range: &[(u64, bool, String)], base: usize| {
            for (i, (at, is_url, text)) in range.iter().enumerate() {
                feed.publish(SimTime::from_secs(*at), Rule {
                    id: format!("hp-prop-{:03}", base + i),
                    class: AttackClass::ALL[(base + i) % AttackClass::ALL.len()],
                    pattern: if *is_url {
                        Pattern::UrlSubstring(text.clone())
                    } else {
                        Pattern::CodeSubstring(text.clone())
                    },
                    confidence: 0.75,
                    origin: RuleOrigin::HoneypotIntel,
                });
            }
        };
        let split = split.min(publishes.len());
        // First wave of rules, then queries, then more rules (an epoch
        // bump the compiled cache must notice), then the same queries:
        // stale-cache bugs and recompile bugs both surface as diffs.
        publish(&publishes[..split], 0);
        for round in 0..2 {
            for (start, codes, url) in &queries {
                let (ff, analysis) = feed_flow(*start, codes, url);
                let a = detectors::feed_rule_hits(&ff, &analysis, &mut naive);
                let b = detectors::feed_rule_hits(&ff, &analysis, &mut compiled);
                prop_assert_eq!(
                    feed_fingerprint(&a),
                    feed_fingerprint(&b),
                    "round {} start {}",
                    round,
                    start
                );
            }
            publish(&publishes[split..], split);
        }
    }
}

/// The streaming engine (eviction on) emits the identical alert set to
/// `Monitor::analyze` on the same capture — including when the capture
/// is reordered within a window smaller than the close linger — while
/// retaining far fewer flows at peak.
#[test]
fn streaming_alert_set_matches_batch_on_reordered_capture() {
    let mut net = Network::new();
    for i in 0..60u64 {
        let t0 = SimTime::from_secs(30 * i);
        let f = net.open(
            t0,
            HostAddr::internal(HostId(1 + (i % 4) as u32)),
            40_000 + i as u16,
            HostAddr::external(3 + (i % 5) as u32),
            if i % 3 == 0 { 53 } else { 443 },
        );
        net.send(
            t0 + Duration::from_millis(3),
            f,
            Direction::ToResponder,
            &vec![5u8; 64 + (i as usize % 9) * 700],
        );
        net.send(
            t0 + Duration::from_millis(7),
            f,
            Direction::ToInitiator,
            &[6u8; 90],
        );
        net.close(t0 + Duration::from_secs(9), f, i % 7 == 0);
    }
    let mut rng = SimRng::new(5);
    let trace = net
        .into_trace()
        .perturb(&mut rng, 0.0, Duration::from_millis(400));
    let m = Monitor::default();
    let (batch, batch_stats) = m.analyze(&trace);
    let mut sm = StreamingMonitor::new(
        &m,
        StreamingConfig {
            idle_timeout: None,
            close_linger: Duration::from_secs(2),
            sweep_interval: 16,
        },
    );
    for r in trace.records() {
        sm.push(r);
    }
    let (stream, stream_stats) = sm.finish();
    let key = |a: &ja_monitor::Alert| (a.time, a.class, a.detail.clone(), a.host);
    let mut kb: Vec<_> = batch.iter().map(key).collect();
    let mut ks: Vec<_> = stream.iter().map(key).collect();
    kb.sort();
    ks.sort();
    assert_eq!(kb, ks);
    assert_eq!(batch_stats.flows, stream_stats.flows);
    assert!(
        stream_stats.peak_live_flows < batch_stats.peak_live_flows / 4,
        "streaming peak {} vs batch {}",
        stream_stats.peak_live_flows,
        batch_stats.peak_live_flows
    );
}

/// One plaintext-WS notebook session per entry in `starts` (each runs a
/// cell with a distinctive hostile token and a token-bearing upgrade
/// URL), optionally one fully-encrypted (TLS) session, and one raw
/// non-WebSocket flow — the three analyzer regimes (full content,
/// ciphertext/rejected header, opaque) the incremental scanner must
/// reproduce bit for bit.
fn scan_regimes_trace(sessions: usize, with_tls: bool) -> Trace {
    regimes_network(sessions, with_tls, "print('x')")
        .0
        .into_trace()
}

/// The network behind [`scan_regimes_trace`], with the TLS session
/// running `tls_code`, plus every server's address and transport
/// secret.
fn regimes_network(
    sessions: usize,
    with_tls: bool,
    tls_code: &str,
) -> (Network, Vec<(HostAddr, Vec<u8>)>) {
    use ja_kernelsim::actions::CellScript;
    use ja_kernelsim::config::{ServerConfig, TransportMode};
    use ja_kernelsim::server::NotebookServer;
    let mut net = Network::new().with_mss(64);
    let mut scfg = ServerConfig::hardened();
    scfg.transport = TransportMode::PlainWs;
    scfg.token_in_url = true;
    let mut srv = NotebookServer::new(1, scfg, 11);
    srv.provision_user("alice", SimTime::ZERO);
    srv.start_kernel("alice", SimTime::ZERO);
    let mut servers = vec![(srv.addr, srv.transport_secret.clone())];
    for i in 0..sessions {
        let at = SimTime::from_secs(60 * (i as u64 + 1));
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
    if with_tls {
        let mut tcfg = ServerConfig::hardened();
        tcfg.transport = TransportMode::Tls;
        let mut tsrv = NotebookServer::new(2, tcfg, 12);
        tsrv.provision_user("bob", SimTime::ZERO);
        tsrv.start_kernel("bob", SimTime::ZERO);
        servers.push((tsrv.addr, tsrv.transport_secret.clone()));
        let at = SimTime::from_secs(30);
        let mut conn = tsrv.connect(&mut net, at, HostAddr::internal(HostId(150)), "bob", 0);
        let done = tsrv.run_cell(
            &mut net,
            at + Duration::from_millis(50),
            &mut conn,
            &CellScript::pure(tls_code),
        );
        conn.close(&mut net, done + Duration::from_secs(1));
    }
    // A raw non-WebSocket flow: the header search never terminates.
    let f = net.open(
        SimTime::from_secs(5),
        HostAddr::internal(HostId(9)),
        40_000,
        HostAddr::external(2),
        443,
    );
    net.send(
        SimTime::from_secs(6),
        f,
        Direction::ToResponder,
        &[0xffu8; 700],
    );
    net.close(SimTime::from_secs(7), f, false);
    (net, servers)
}

/// [`scan_regimes_trace`] with a hostile TLS session, plus the flows an
/// inspecting sensor must not decrypt needlessly: a raw stream the
/// plaintext-WS server opens to an external host (the exfiltration
/// shape) and an ASCII `GET` upstream to it that never ends its header.
/// Returns the trace and every server's inspection secret.
fn inspected_regimes_trace(sessions: usize) -> (Trace, Vec<(HostAddr, Vec<u8>)>) {
    let (mut net, servers) =
        regimes_network(sessions, true, "subprocess.Popen('/tmp/.stratum_kworkerd')");
    let server = servers[0].0;
    let exfil = net.open(
        SimTime::from_secs(8),
        server,
        41_000,
        HostAddr::external(3),
        443,
    );
    for i in 0..4u8 {
        net.send(
            SimTime::from_secs(9) + Duration::from_millis(i as u64),
            exfil,
            Direction::ToResponder,
            &[i.wrapping_mul(37) ^ 0x5a; 150],
        );
    }
    net.send(SimTime::from_secs(10), exfil, Direction::ToInitiator, b"ok");
    net.close(SimTime::from_secs(11), exfil, false);
    let stalled = net.open(
        SimTime::from_secs(12),
        HostAddr::internal(HostId(10)),
        41_001,
        server,
        8888,
    );
    net.send(
        SimTime::from_secs(13),
        stalled,
        Direction::ToResponder,
        b"GET /api/kernels HTTP/1.1\r\nHost: hub\r\nUser-Agent: probe/1.0\r\nX-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n",
    );
    net.send(
        SimTime::from_secs(14),
        stalled,
        Direction::ToInitiator,
        b"HTTP/1.1 408 Request Timeout\r\n\r\n",
    );
    net.close(SimTime::from_secs(15), stalled, false);
    (net.into_trace(), servers)
}

fn scan_hot_rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "hp-scan-0".into(),
            class: AttackClass::Cryptomining,
            pattern: Pattern::CodeSubstring(".stratum_kworkerd".into()),
            confidence: 0.9,
            origin: RuleOrigin::HoneypotIntel,
        },
        Rule {
            id: "hp-scan-1".into(),
            class: AttackClass::AccountTakeover,
            pattern: Pattern::UrlSubstring("token=".into()),
            confidence: 0.6,
            origin: RuleOrigin::HoneypotIntel,
        },
    ]
}

/// Run `records` through the production engine — one streaming engine
/// with close-based eviction — publishing the hot rules just before
/// record `publish_idx` (never when `None`), then through the
/// full-buffer reference `Monitor::analyze` on the same, by then
/// published, feed. Returns (engine, reference).
fn engine_and_reference(
    records: &[SegmentRecord],
    cfg: MonitorConfig,
    publish_idx: Option<usize>,
) -> (MonitorRun, MonitorRun) {
    let m = Monitor::new(cfg);
    let feed = m.config.intel.clone();
    let mut sm = StreamingMonitor::new(&m, StreamingConfig::close_evict());
    for (i, r) in records.iter().enumerate() {
        if publish_idx == Some(i) {
            for rule in scan_hot_rules() {
                feed.publish(r.time, rule);
            }
        }
        sm.push(r);
    }
    let engine = sm.finish();
    let reference = m.analyze(&Trace::new(records.to_vec()));
    (engine, reference)
}

type MonitorRun = (Vec<ja_monitor::Alert>, MonitorStats);

/// The engine ≡ reference contract: identical alerts (content and
/// order) and identical counts. The reference holds every flow to the
/// end, so the engine's peaks may only be lower.
fn check_engine_matches_reference(
    (engine_alerts, engine): &MonitorRun,
    (reference_alerts, reference): &MonitorRun,
) {
    prop_assert_eq!(
        feed_fingerprint(engine_alerts),
        feed_fingerprint(reference_alerts)
    );
    prop_assert_eq!(engine.segments, reference.segments);
    prop_assert_eq!(engine.flows, reference.flows);
    prop_assert_eq!(engine.bytes, reference.bytes);
    prop_assert_eq!(engine.kernel_msgs, reference.kernel_msgs);
    prop_assert_eq!(engine.full_content_flows, reference.full_content_flows);
    prop_assert_eq!(engine.framing_only_flows, reference.framing_only_flows);
    prop_assert_eq!(engine.opaque_flows, reference.opaque_flows);
    prop_assert!(
        engine.peak_live_flows <= reference.peak_live_flows,
        "engine live {} > reference {}",
        engine.peak_live_flows,
        reference.peak_live_flows
    );
    prop_assert!(
        engine.peak_retained_bytes <= reference.peak_retained_bytes,
        "engine retained {} > reference {}",
        engine.peak_retained_bytes,
        reference.peak_retained_bytes
    );
}

/// `trace`'s records with the payload records `dup_mask` selects
/// duplicated, reordered within `jitter_ms`.
fn perturbed_records(
    trace: Trace,
    dup_mask: &[bool],
    jitter_ms: u64,
    seed: u64,
) -> Vec<SegmentRecord> {
    let mut recs = trace.into_records();
    let dups: Vec<SegmentRecord> = recs
        .iter()
        .filter(|r| !r.payload.is_empty())
        .enumerate()
        .filter(|(i, _)| dup_mask[i % dup_mask.len()])
        .map(|(_, r)| r.clone())
        .collect();
    recs.extend(dups);
    let mut rng = SimRng::new(seed);
    Trace::new(recs)
        .perturb(&mut rng, 0.0, Duration::from_millis(jitter_ms))
        .into_records()
}

fn match_mode(naive: bool) -> MatchMode {
    if naive {
        MatchMode::Naive
    } else {
        MatchMode::Compiled
    }
}

proptest! {
    /// The production engine — every flow on the single-pass scanner —
    /// is bit-identical to the full-buffer reference: same alerts
    /// (content and order), same statistics, across random segment
    /// reorderings, duplicated segments, both match modes, and intel
    /// rules published mid-flow (an epoch bump between a payload's
    /// arrival and its flow's eviction forces the stored-hit
    /// revalidation path). It never retains more than the reference.
    #[test]
    fn incremental_scan_matches_eager_engine(
        sessions in 1usize..3,
        with_tls in any::<bool>(),
        jitter_ms in 0u64..50,
        dup_mask in proptest::collection::vec(any::<bool>(), 8),
        publish_frac in proptest::option::of(0.0f64..1.0),
        naive in any::<bool>(),
        seed in any::<u64>()) {
        let records = perturbed_records(scan_regimes_trace(sessions, with_tls), &dup_mask, jitter_ms, seed);
        let publish_idx = publish_frac.map(|p| (p * records.len() as f64) as usize);
        let cfg = MonitorConfig {
            match_mode: match_mode(naive),
            ..Default::default()
        };
        let (engine, reference) = engine_and_reference(&records, cfg, publish_idx);
        check_engine_matches_reference(&engine, &reference);
    }
}

/// Deterministic anchor for the equivalence property above: with the hot
/// rules published up front, the engine and the reference actually fire
/// intel alerts (the property is not vacuously comparing empty alert
/// sets), and the engine retains strictly less than the reference on
/// this plaintext-heavy trace.
#[test]
fn scan_regimes_trace_fires_alerts_in_both_modes() {
    let trace = scan_regimes_trace(2, true);
    let ((engine_alerts, engine), (reference_alerts, reference)) =
        engine_and_reference(trace.records(), MonitorConfig::default(), Some(0));
    assert!(
        reference_alerts
            .iter()
            .any(|a| a.detail.contains("hp-scan-0") || a.detail.contains("hp-scan-1")),
        "expected intel rule hits, got {:?}",
        reference_alerts
            .iter()
            .map(|a| &a.detail)
            .collect::<Vec<_>>()
    );
    assert_eq!(
        feed_fingerprint(&reference_alerts),
        feed_fingerprint(&engine_alerts)
    );
    assert!(engine.peak_retained_bytes < reference.peak_retained_bytes);
    assert!(engine.full_content_flows > 0);
    assert!(engine.opaque_flows > 0);
}

/// A monitor configuration inspecting every server in `servers`.
fn inspecting(servers: &[(HostAddr, Vec<u8>)], match_mode: MatchMode) -> MonitorConfig {
    let mut cfg = MonitorConfig {
        match_mode,
        ..Default::default()
    };
    for (addr, secret) in servers {
        cfg = cfg.with_inspection(*addr, secret.clone());
    }
    cfg
}

proptest! {
    /// Under TLS inspection of every server the engine's scanner —
    /// plaintext decided from the first upstream bytes, decryption a
    /// chunk at a time — is bit-identical to the reference's
    /// decrypt-and-reparse of whole buffers: same alerts, same
    /// statistics, across reorderings, duplicates, both match modes and
    /// a mid-flow intel publish, over a TLS session, a plaintext-WS
    /// session on an inspected host, a server-opened raw stream and an
    /// unterminated `GET` upstream. It never retains more than the
    /// reference.
    #[test]
    fn incremental_scan_matches_eager_engine_under_inspection(
        sessions in 1usize..3,
        jitter_ms in 0u64..50,
        dup_mask in proptest::collection::vec(any::<bool>(), 8),
        publish_frac in proptest::option::of(0.0f64..1.0),
        naive in any::<bool>(),
        seed in any::<u64>()) {
        let (trace, servers) = inspected_regimes_trace(sessions);
        let records = perturbed_records(trace, &dup_mask, jitter_ms, seed);
        let publish_idx = publish_frac.map(|p| (p * records.len() as f64) as usize);
        let cfg = inspecting(&servers, match_mode(naive));
        let (engine, reference) = engine_and_reference(&records, cfg, publish_idx);
        check_engine_matches_reference(&engine, &reference);
    }
}

/// Deterministic anchor for the inspected property above: the hostile
/// cell inside the TLS session is only readable through decryption,
/// and it fires the code-plane intel rule in both the engine and the
/// reference, so the property is not comparing empty alert sets.
#[test]
fn inspected_tls_cell_fires_intel_in_both_modes() {
    let (trace, servers) = inspected_regimes_trace(1);
    // Flow alerts name the client; this one opened the TLS session.
    let tls_client = HostAddr::internal(HostId(150));
    let cfg = inspecting(&servers, MatchMode::Compiled);
    let ((engine_alerts, engine), (reference_alerts, reference)) =
        engine_and_reference(trace.records(), cfg, Some(0));
    for alerts in [&reference_alerts, &engine_alerts] {
        assert!(
            alerts
                .iter()
                .any(|a| a.detail.contains("hp-scan-0") && a.host == Some(tls_client)),
            "expected the TLS cell's intel hit, got {:?}",
            alerts
                .iter()
                .map(|a| (&a.detail, a.host))
                .collect::<Vec<_>>()
        );
    }
    assert_eq!(
        feed_fingerprint(&reference_alerts),
        feed_fingerprint(&engine_alerts)
    );
    assert_eq!(reference.full_content_flows, engine.full_content_flows);
    assert_eq!(engine.full_content_flows, 2);
    assert!(engine.opaque_flows >= 3);
    assert!(engine.peak_retained_bytes < reference.peak_retained_bytes);
}

/// Kernel-message code the hostile-bytes property draws from: benign,
/// hitting a hot rule, or empty.
const HOSTILE_CODES: [&str; 3] = ["print(1)", "subprocess.Popen('/tmp/.stratum_kworkerd')", ""];

/// A well-formed kernel message carrying one of [`HOSTILE_CODES`],
/// encoded as WebSocket frames: split into 1–3 fragments, masked or not.
fn arb_kernel_frames() -> impl Strategy<Value = Vec<u8>> {
    (0..HOSTILE_CODES.len(), 1usize..4, any::<bool>()).prop_map(|(code, fragments, masked)| {
        use ja_jupyter_proto::messages::{header_json, MsgType};
        use ja_jupyter_proto::wire::WireMessage;
        let header = header_json(MsgType::ExecuteRequest, "s", "mallory", 1, 0);
        let content = format!("{{\"code\": \"{}\"}}", HOSTILE_CODES[code]);
        let wire = WireMessage::build(None, vec![], header, None, content).encode();
        ja_websocket::codec::fragment(ja_websocket::Opcode::Binary, &wire, fragments, masked)
            .iter()
            .flat_map(ja_websocket::Frame::encode)
            .collect()
    })
}

/// One unit of a hostile WebSocket body: a well-formed kernel message,
/// a frame with an arbitrary first byte, mask and payload, or junk.
fn arb_ws_unit() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        arb_kernel_frames(),
        (
            any::<u8>(),
            proptest::option::of(any::<[u8; 4]>()),
            proptest::collection::vec(any::<u8>(), 0..40)
        )
            .prop_map(|(first, mask, payload)| {
                let mask_bit = if mask.is_some() { 0x80 } else { 0 };
                let mut out = vec![first, payload.len() as u8 | mask_bit];
                if let Some(key) = mask {
                    out.extend(key);
                }
                out.extend(payload);
                out
            }),
        proptest::collection::vec(any::<u8>(), 0..64),
    ]
}

/// One direction's bytes: `head` (a valid upgrade request or 101
/// response) followed by well-formed kernel messages or by hostile
/// units, the hostile units alone, or pure junk.
fn arb_side(head: String) -> impl Strategy<Value = Vec<u8>> {
    let units = |unit| proptest::collection::vec(unit, 0..6).prop_map(|u| u.concat());
    let head_then = move |body: Vec<u8>| [head.as_bytes(), &body[..]].concat();
    prop_oneof![
        units(arb_kernel_frames().boxed()).prop_map(head_then.clone()),
        units(arb_ws_unit().boxed()).prop_map(head_then),
        units(arb_ws_unit().boxed()),
        proptest::collection::vec(any::<u8>(), 0..200),
    ]
}

/// `head`, an HTTP header block, padded with an `X-Pad` field to `len`
/// bytes, terminator included.
fn padded(head: &str, len: usize) -> Vec<u8> {
    let fields = head.strip_suffix("\r\n").expect("a header block");
    let fill = len - head.len() - "X-Pad: \r\n".len();
    format!("{fields}X-Pad: {}\r\n\r\n", "p".repeat(fill)).into_bytes()
}

/// A side that runs past the header cap: its header block padded to
/// end just inside or just past the cap, or a short header and then an
/// opaque frame longer than the cap; kernel messages follow either way.
fn arb_long_side(head: String) -> impl Strategy<Value = Vec<u8>> {
    let cap = ja_monitor::analyzers::MAX_HEADER_BYTES;
    let units = || proptest::collection::vec(arb_kernel_frames(), 0..4).prop_map(|u| u.concat());
    let long_frame =
        ja_websocket::Frame::unmasked(ja_websocket::Opcode::Binary, vec![0; cap]).encode();
    let short_head = head.clone();
    prop_oneof![
        (cap - 3..cap + 2, units())
            .prop_map(move |(len, body)| [padded(&head, len), body].concat()),
        units().prop_map(move |body| [short_head.as_bytes(), &long_frame, &body].concat()),
    ]
}

/// Send `up` and `down` over one flow, cut into chunks at `cuts_*` and
/// interleaved by `order`, with no inspection secret (`inspect` 0), a
/// secret over plaintext (1), or a secret the bytes are really
/// encrypted under (2): the production engine never panics, and its
/// output equals the full-buffer reference's.
fn scan_like_the_reference(
    (up, cuts_up): (&[u8], &[usize]),
    (down, cuts_down): (&[u8], &[usize]),
    order: &[bool],
    inspect: u8,
    publish: bool,
) {
    let client = HostAddr::internal(HostId(1));
    let server = HostAddr::internal(HostId(2));
    let secret = b"decoy-transport-secret".to_vec();
    let mut net = Network::new().with_mss(48);
    let f = net.open(SimTime::ZERO, client, 40_000, server, 8888);
    let encrypt = |dir, bytes: &[u8]| {
        let mut out = bytes.to_vec();
        if inspect == 2 {
            let seed = ja_kernelsim::server::transport_seed(&secret, f, dir);
            ja_crypto::chacha::ChaCha20::from_seed(&seed).apply(&mut out);
        }
        out
    };
    let chunks = |bytes: &[u8], cuts: &[usize]| {
        let mut at: Vec<usize> = cuts.iter().map(|c| c % (bytes.len() + 1)).collect();
        at.extend([0, bytes.len()]);
        at.sort_unstable();
        at.windows(2)
            .filter(|w| w[0] < w[1])
            .map(|w| bytes[w[0]..w[1]].to_vec())
            .collect::<Vec<_>>()
    };
    let ups = chunks(&encrypt(Direction::ToResponder, up), cuts_up);
    let downs = chunks(&encrypt(Direction::ToInitiator, down), cuts_down);
    let (mut ui, mut di) = (0, 0);
    let mut t = SimTime::from_millis(1);
    while ui < ups.len() || di < downs.len() {
        let take_up = di == downs.len() || (ui < ups.len() && order[(ui + di) % order.len()]);
        let (dir, chunk) = if take_up {
            ui += 1;
            (Direction::ToResponder, &ups[ui - 1])
        } else {
            di += 1;
            (Direction::ToInitiator, &downs[di - 1])
        };
        t = net.send(t, f, dir, chunk) + Duration::from_millis(1);
    }
    net.close(t, f, false);
    let trace = net.into_trace();
    let mut cfg = MonitorConfig::default();
    if inspect > 0 {
        cfg = cfg.with_inspection(server, secret.clone());
    }
    let m = Monitor::new(cfg);
    if publish {
        for rule in scan_hot_rules() {
            m.config.intel.publish(SimTime::ZERO, rule);
        }
    }
    let engine = m.analyze_stream(1, StreamingConfig::batch(), |sink| {
        for r in trace.records() {
            sink.accept(r.clone());
        }
    });
    let reference = m.analyze(&trace);
    check_engine_matches_reference(&engine, &reference);
}

proptest! {
    /// The scanner parses attacker-controlled bytes — decoy traffic is
    /// hostile by construction. For arbitrary bytes in both directions
    /// (a valid upgrade header plus a random tail, random WebSocket
    /// frames and well-formed kernel messages, or pure junk), cut into
    /// chunks at random boundaries and interleaved at random, with no
    /// inspection secret, a secret over plaintext, or a secret the
    /// bytes are really encrypted under: the production engine never
    /// panics, and its output equals the full-buffer reference's.
    #[test]
    fn arbitrary_flow_bytes_scan_like_the_reference(
        up in arb_side(UpgradeRequest::new("/api/kernels/k/channels?token=t0k", "hub:8888", 7).to_http()),
        down in arb_side(ja_websocket::handshake::UpgradeResponse::accept(
            &UpgradeRequest::new("/", "hub:8888", 7)).to_http()),
        cuts_up in proptest::collection::vec(any::<usize>(), 0..8),
        cuts_down in proptest::collection::vec(any::<usize>(), 0..8),
        order in proptest::collection::vec(any::<bool>(), 16),
        inspect in 0u8..3,
        publish in any::<bool>(),
    ) {
        scan_like_the_reference((&up, &cuts_up), (&down, &cuts_down), &order, inspect, publish);
    }

    /// Sides whose header or first frame runs past the header cap, cut
    /// and interleaved as above: the engine's cap, its bounded hold of
    /// an undecided inspected flow and its reading on past that hold
    /// give the reference's output.
    #[test]
    fn sides_past_the_header_cap_scan_like_the_reference(
        up in arb_long_side(UpgradeRequest::new("/api/kernels/k/channels?token=t0k", "hub:8888", 7).to_http()),
        down in arb_long_side(ja_websocket::handshake::UpgradeResponse::accept(
            &UpgradeRequest::new("/", "hub:8888", 7)).to_http()),
        cuts_up in proptest::collection::vec(any::<usize>(), 0..8),
        cuts_down in proptest::collection::vec(any::<usize>(), 0..8),
        order in proptest::collection::vec(any::<bool>(), 16),
        inspect in 0u8..3,
        publish in any::<bool>(),
    ) {
        scan_like_the_reference((&up, &cuts_up), (&down, &cuts_down), &order, inspect, publish);
    }
}
