//! Single-pass incremental flow scanning — analyze bytes as they
//! arrive, then drop them.
//!
//! The eager path ([`crate::analyzers::analyze_flow`]) retains every
//! delivered byte of a flow until eviction and only then parses and
//! scans the full buffers front to back, so peak memory tracks flow
//! *length*. [`FlowScanner`] runs the same analyzer chain — HTTP
//! upgrade → WebSocket framing → Jupyter wire → signature matching →
//! rate features — over the in-order chunks the reassembler delivers,
//! as it delivers them. A scanned flow then retains only:
//!
//! - the reorder window (out-of-order pendings, zero-copy slices),
//! - unconsumed decoder buffers (partial frame/message, pre-handshake
//!   header bytes),
//! - on a TLS-inspected flow, the delivered chunks held (zero-copy)
//!   while its plaintext attempt is undecided,
//! - parsed artifacts (kernel messages, handshake, feature
//!   accumulators) — which the eager path retains too.
//!
//! # When a flow qualifies
//!
//! Under [`crate::engine::ScanMode::Incremental`] every flow is scanned
//! here except **audit-traced flows**: hosts in `audit_trace_hosts`
//! (e.g. honeypot decoys) are captured in full for forensics, so their
//! flows keep the eager path. The decision is made once, when the
//! flow's first record arrives — never mid-stream — and so is the
//! choice of inspection secret (`inspect_secrets` of either endpoint).
//!
//! # TLS-inspected flows
//!
//! The eager rule is "parse as plaintext; if that fails and a secret
//! is granted, decrypt both directions and parse again". The
//! transport cipher is a ChaCha20 stream keyed per (secret, flow,
//! direction), so the scanner follows the same rule a chunk at a time:
//!
//! - **Undecided.** Delivered chunks are held as zero-copy
//!   [`PayloadBytes`] while the upstream is checked for the header
//!   terminator (CRLFCRLF).
//! - **Plaintext wins** when the upstream upgrade header parses: the
//!   held chunks replay through the plaintext scanner and are dropped.
//!   No keystream is ever generated.
//! - **Plaintext loses** when that header is rejected, or as soon as
//!   the upstream's first bytes differ from `"GET "` — every header
//!   [`UpgradeRequest::parse`] accepts starts so, which a ja-websocket
//!   property pins. A decrypting scanner with one [`ChaCha20`] cursor
//!   per direction then replays the held chunks and decrypts each later
//!   chunk as it arrives, into a reused scratch buffer.
//! - **Decryption stops** once the decrypted upstream is rejected as
//!   well: the flow is opaque whatever follows.
//! - A flow still **undecided at eviction** (no terminator ever
//!   arrived) replays through the decrypting scanner then, as the
//!   eager path falls back.
//!
//! The entropy feature is always taken over the raw upstream bytes.
//!
//! # Bit-identity with the eager path
//!
//! Every divergence the chunked replay could introduce is pinned to
//! the eager semantics, and the equivalence proptests drive both paths
//! over random splits/reorderings/duplicates:
//!
//! - The upstream header is buffered until the first CRLFCRLF, so the
//!   header search and UTF-8/parse validation see exactly the bytes
//!   the eager full-buffer search sees. An upstream that cannot start
//!   with `"GET "` is rejected at once, since the parse would reject it.
//! - The eager path feeds a whole side to the frame decoder in one
//!   call, so a decode error drops *every* frame of that side and
//!   counts one opaque unit. The scanner mirrors that: on the first
//!   decode error it clears the side's accumulated messages and
//!   freezes the side at exactly one opaque count.
//! - Kernel messages are emitted upstream-side first, then
//!   downstream — arrival interleaving never changes the output order.
//! - Signature hits are matched at message arrival under the intel
//!   generation current *then*, and re-validated at eviction: if the
//!   feed epoch moved since, the retained code string is rescanned
//!   under the eviction-time snapshot — exactly the snapshot the eager
//!   path would have used.

use crate::analyzers::{
    classify_visibility, find_double_crlf, observe_ws_message, FlowAnalysis, ParsedKernelMsg,
    Visibility,
};
use crate::matcher::{FeedCache, MatchMode};
use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_kernelsim::server::transport_seed;
use ja_netsim::flow::FlowId;
use ja_netsim::payload::{self, PayloadBytes};
use ja_netsim::segment::Direction;
use ja_websocket::codec::{FrameDecoder, MessageAssembler};
use ja_websocket::handshake::UpgradeRequest;

/// The bytes every upgrade request [`UpgradeRequest::parse`] accepts
/// starts with.
const UPGRADE_PREFIX: &[u8] = b"GET ";

/// Signature hits collected incrementally, with the feed generation
/// they were scanned under. Consumed by
/// [`crate::detectors::feed_rule_hits`], which re-validates the
/// generation at eviction time.
#[derive(Clone, Debug, Default)]
pub(crate) struct ScanHits {
    /// URL-plane rule indices for the handshake target, with the
    /// generation they are valid for.
    pub(crate) url: Option<(u64, Vec<u32>)>,
    /// Code-plane rule indices per kernel message (parallel to
    /// `FlowAnalysis::kernel_msgs`; `None` for messages without code).
    pub(crate) per_msg: Vec<Option<(u64, Vec<u32>)>>,
}

/// One direction's protocol position.
#[derive(Debug)]
enum SidePhase {
    /// Buffering bytes until the first CRLFCRLF (the HTTP header end).
    /// `searched` is how far the CRLFCRLF scan has advanced, so each
    /// byte is examined once across chunk arrivals.
    Header { buf: Vec<u8>, searched: usize },
    /// Header consumed; decoding WebSocket frames from the remainder.
    Ws {
        dec: FrameDecoder,
        asm: MessageAssembler,
        /// A decode error froze this side (eager drops the whole side).
        failed: bool,
    },
    /// The upstream header failed UTF-8 or upgrade-request validation:
    /// the whole flow is non-WebSocket (eager `try_parse` → `None`).
    Rejected,
}

impl Default for SidePhase {
    fn default() -> Self {
        SidePhase::Header {
            buf: Vec::new(),
            searched: 0,
        }
    }
}

/// One direction's scan state: phase machine plus the per-side message
/// list (kept separate so output order is upstream-then-downstream
/// regardless of arrival interleaving, and so a decode failure can
/// retract the side wholesale).
#[derive(Debug, Default)]
struct SideScan {
    phase: SidePhase,
    msgs: Vec<ParsedKernelMsg>,
    /// Parallel to `msgs`: incremental code-plane hits (generation,
    /// ascending rule indices), `None` when the message has no code or
    /// matching is naive-mode.
    hits: Vec<Option<(u64, Vec<u32>)>>,
    opaque: usize,
}

impl SideScan {
    /// Bytes this side is buffering (pre-handshake header bytes plus
    /// undecoded frame/message fragments).
    fn buffered(&self) -> u64 {
        match &self.phase {
            SidePhase::Header { buf, .. } => buf.len() as u64,
            SidePhase::Ws { dec, asm, .. } => (dec.buffered() + asm.buffered()) as u64,
            SidePhase::Rejected => 0,
        }
    }
}

/// Incremental analyzer for one flow. Feed the reassembler's in-order
/// chunks as they are delivered; finalize at eviction.
#[derive(Debug)]
pub(crate) struct FlowScanner {
    /// Upstream byte histogram (entropy feature) — fed every delivered
    /// raw upstream byte, mirroring the eager scan of `up.data`.
    stats: ByteStats,
    /// The protocol chain, reading whichever bytes `inspect` selects.
    proto: ProtoScan,
    inspect: Inspect,
}

/// Which bytes the protocol chain reads.
#[derive(Debug)]
enum Inspect {
    /// The flow's own bytes: no inspection secret, or the plaintext
    /// upgrade header parsed.
    Plain,
    /// Inspection secret granted, plaintext attempt undecided; the
    /// chain has read nothing yet.
    Undecided(Box<Held>),
    /// The plaintext attempt failed: the chain reads each chunk
    /// decrypted as it arrives.
    Decrypt(Box<Keystream>),
    /// Both attempts failed: nothing more to read.
    Opaque,
}

impl FlowScanner {
    /// A scanner for flow `flow`; `inspect_secret` is the server's
    /// transport secret when the sensor may decrypt the flow.
    pub(crate) fn new(flow: FlowId, inspect_secret: Option<&[u8]>) -> Self {
        let inspect = match inspect_secret {
            None => Inspect::Plain,
            Some(secret) => Inspect::Undecided(Box::new(Held {
                secret: secret.into(),
                flow,
                up: Vec::new(),
                down: Vec::new(),
                up_len: 0,
                down_len: 0,
                crlf: 0,
            })),
        };
        FlowScanner {
            stats: ByteStats::new(),
            proto: ProtoScan::default(),
            inspect,
        }
    }

    /// Feed one delivered upstream chunk. `scratch` is the decrypt
    /// buffer, reused across chunks and flows.
    pub(crate) fn feed_up(
        &mut self,
        chunk: &PayloadBytes,
        intel: &mut FeedCache,
        scratch: &mut Vec<u8>,
    ) {
        self.stats.update(chunk);
        self.read(Direction::ToResponder, chunk, intel, scratch);
    }

    /// Feed one delivered downstream chunk.
    pub(crate) fn feed_down(
        &mut self,
        chunk: &PayloadBytes,
        intel: &mut FeedCache,
        scratch: &mut Vec<u8>,
    ) {
        self.read(Direction::ToInitiator, chunk, intel, scratch);
    }

    /// Bytes the scanner itself is buffering (held chunks, or both
    /// sides' header and codec buffers). Together with the
    /// reassembler's pendings this is the flow's whole raw-byte
    /// retention.
    pub(crate) fn buffered(&self) -> u64 {
        let held = match &self.inspect {
            Inspect::Undecided(held) => held.up_len + held.down_len,
            _ => 0,
        };
        self.proto.buffered() + held as u64
    }

    /// Finalize into the same shape the eager analyzer produces, plus
    /// the incrementally-collected signature hits. A plaintext attempt
    /// still undecided falls back to decryption here, as the eager
    /// path does when the plaintext header never terminated.
    pub(crate) fn finalize(mut self, intel: &mut FeedCache) -> (FlowAnalysis, ScanHits) {
        if let Some(held) = self.take_held() {
            self.decrypt(*held, intel, &mut Vec::new());
        }
        self.proto.finalize(self.stats.shannon_bits())
    }

    fn read(
        &mut self,
        dir: Direction,
        chunk: &PayloadBytes,
        intel: &mut FeedCache,
        scratch: &mut Vec<u8>,
    ) {
        match &mut self.inspect {
            Inspect::Plain => self.proto.feed(dir, chunk, intel),
            Inspect::Decrypt(keys) => {
                keys.decrypt(dir, chunk, scratch);
                self.proto.feed(dir, scratch, intel);
                if self.proto.rejected {
                    self.inspect = Inspect::Opaque;
                }
            }
            Inspect::Opaque => {}
            Inspect::Undecided(held) => {
                if let Some(terminated) = held.hold(dir, chunk) {
                    if let Some(held) = self.take_held() {
                        self.settle(*held, terminated, intel, scratch);
                    }
                }
            }
        }
    }

    /// End the undecided state, handing back what it held.
    fn take_held(&mut self) -> Option<Box<Held>> {
        match std::mem::replace(&mut self.inspect, Inspect::Plain) {
            Inspect::Undecided(held) => Some(held),
            other => {
                self.inspect = other;
                None
            }
        }
    }

    /// Decide the plaintext attempt: replay the held chunks as
    /// plaintext when the upstream header is complete and parses, and
    /// decrypted otherwise.
    fn settle(
        &mut self,
        held: Held,
        terminated: bool,
        intel: &mut FeedCache,
        scratch: &mut Vec<u8>,
    ) {
        if terminated {
            for chunk in &held.up {
                self.proto.feed_up(chunk, intel);
            }
            if !self.proto.rejected {
                for chunk in &held.down {
                    self.proto.feed_down(chunk, intel);
                }
                return;
            }
            self.proto = ProtoScan::default();
        }
        self.decrypt(held, intel, scratch);
    }

    /// Switch to decryption: one keystream cursor per direction, the
    /// held chunks replayed through them in stream order.
    fn decrypt(&mut self, held: Held, intel: &mut FeedCache, scratch: &mut Vec<u8>) {
        let cursor = |dir| ChaCha20::from_seed(&transport_seed(&held.secret, held.flow, dir));
        self.inspect = Inspect::Decrypt(Box::new(Keystream {
            up: cursor(Direction::ToResponder),
            down: cursor(Direction::ToInitiator),
        }));
        for chunk in &held.up {
            self.read(Direction::ToResponder, chunk, intel, scratch);
        }
        for chunk in &held.down {
            self.read(Direction::ToInitiator, chunk, intel, scratch);
        }
    }
}

/// An inspected flow whose plaintext attempt is undecided: its
/// delivered chunks, held zero-copy for whichever attempt wins, and
/// how far the upstream has been checked.
#[derive(Debug)]
struct Held {
    secret: Box<[u8]>,
    flow: FlowId,
    up: Vec<PayloadBytes>,
    down: Vec<PayloadBytes>,
    up_len: usize,
    down_len: usize,
    /// Length of the CRLFCRLF prefix matched at the upstream's end.
    crlf: u8,
}

impl Held {
    /// Hold one chunk. `Some(terminated)` once the plaintext attempt
    /// is decided: `true` when the upstream header is complete and
    /// must be parsed, `false` when the upstream cannot start with
    /// `"GET "`.
    fn hold(&mut self, dir: Direction, chunk: &PayloadBytes) -> Option<bool> {
        if dir == Direction::ToInitiator {
            self.down_len += chunk.len();
            self.down.push(chunk.clone());
            return None;
        }
        let at = self.up_len;
        self.up_len += chunk.len();
        self.up.push(chunk.clone());
        if breaks_upgrade_prefix(at, chunk) {
            return Some(false);
        }
        advance_crlfcrlf(&mut self.crlf, chunk).then_some(true)
    }
}

/// The transport keystream of both directions, each a cursor at the
/// next undelivered byte.
#[derive(Debug)]
struct Keystream {
    up: ChaCha20,
    down: ChaCha20,
}

impl Keystream {
    /// Decrypt `chunk` of direction `dir` into `out`.
    fn decrypt(&mut self, dir: Direction, chunk: &[u8], out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(chunk);
        payload::count_copied(chunk.len() as u64);
        match dir {
            Direction::ToResponder => self.up.apply(out),
            Direction::ToInitiator => self.down.apply(out),
        }
    }
}

/// Whether `chunk`, found at upstream offset `at`, contradicts the
/// `"GET "` every accepted upgrade request starts with.
fn breaks_upgrade_prefix(at: usize, chunk: &[u8]) -> bool {
    let want = UPGRADE_PREFIX.get(at..).unwrap_or_default();
    let n = want.len().min(chunk.len());
    chunk[..n] != want[..n]
}

/// Advance a CRLFCRLF matcher over `chunk`: `matched` is how much of
/// the terminator ends the stream so far. `true` once it completes.
fn advance_crlfcrlf(matched: &mut u8, chunk: &[u8]) -> bool {
    for &b in chunk {
        *matched = match (*matched, b) {
            (1 | 3, b'\n') => *matched + 1,
            (2, b'\r') => 3,
            (_, b'\r') => 1,
            _ => 0,
        };
        if *matched == 4 {
            return true;
        }
    }
    false
}

/// The protocol chain over one flow's plaintext bytes: HTTP upgrade →
/// WebSocket framing → Jupyter wire → signature hits.
#[derive(Debug, Default)]
struct ProtoScan {
    up: SideScan,
    down: SideScan,
    handshake: Option<UpgradeRequest>,
    /// URL-plane hits for the handshake target (generation, indices).
    url_hits: Option<(u64, Vec<u32>)>,
    /// The upstream header was rejected — the flow is non-WebSocket.
    rejected: bool,
}

impl ProtoScan {
    fn feed(&mut self, dir: Direction, bytes: &[u8], intel: &mut FeedCache) {
        match dir {
            Direction::ToResponder => self.feed_up(bytes, intel),
            Direction::ToInitiator => self.feed_down(bytes, intel),
        }
    }

    fn feed_up(&mut self, bytes: &[u8], intel: &mut FeedCache) {
        if self.rejected {
            return;
        }
        // Split borrows: the phase machine needs `&mut self.up` while
        // header validation sets flow-level fields, so drive the up
        // side with explicit stages.
        if let SidePhase::Header { buf, searched } = &mut self.up.phase {
            if breaks_upgrade_prefix(buf.len(), bytes) {
                self.reject();
                return;
            }
            buf.extend_from_slice(bytes);
            let Some(header_end) = scan_crlfcrlf(buf, searched) else {
                return;
            };
            // Validate exactly as the eager path: UTF-8 over the header
            // (CRLFCRLF included), then upgrade-request parse. Failure
            // rejects the whole flow.
            let parsed = std::str::from_utf8(&buf[..header_end])
                .ok()
                .and_then(UpgradeRequest::parse);
            let Some(hs) = parsed else {
                self.reject();
                return;
            };
            self.url_hits = scan_url_plane(&hs.target, intel);
            self.handshake = Some(hs);
            let rest = buf[header_end..].to_vec();
            self.up.phase = SidePhase::Ws {
                dec: FrameDecoder::new(),
                asm: MessageAssembler::new(),
                failed: false,
            };
            feed_ws(&mut self.up, &rest, intel);
            return;
        }
        feed_ws(&mut self.up, bytes, intel);
    }

    fn feed_down(&mut self, bytes: &[u8], intel: &mut FeedCache) {
        if self.rejected {
            return;
        }
        if let SidePhase::Header { buf, searched } = &mut self.down.phase {
            buf.extend_from_slice(bytes);
            // The eager path applies no validation to the downstream
            // header (the 101 response) — everything after its CRLFCRLF
            // is frame data.
            let Some(header_end) = scan_crlfcrlf(buf, searched) else {
                return;
            };
            let rest = buf[header_end..].to_vec();
            self.down.phase = SidePhase::Ws {
                dec: FrameDecoder::new(),
                asm: MessageAssembler::new(),
                failed: false,
            };
            feed_ws(&mut self.down, &rest, intel);
            return;
        }
        feed_ws(&mut self.down, bytes, intel);
    }

    /// The upstream is not an upgrade request: the flow is
    /// non-WebSocket whatever follows, so neither side keeps what it
    /// buffered or decoded.
    fn reject(&mut self) {
        self.rejected = true;
        for side in [&mut self.up, &mut self.down] {
            *side = SideScan {
                phase: SidePhase::Rejected,
                ..SideScan::default()
            };
        }
    }

    fn buffered(&self) -> u64 {
        self.up.buffered() + self.down.buffered()
    }

    fn finalize(self, up_entropy_bits: f64) -> (FlowAnalysis, ScanHits) {
        // No upstream handshake ⇒ the eager `try_parse` returns None ⇒
        // everything is opaque (messages a side may have produced are
        // irrelevant because without an up-header none are produced).
        if self.rejected || self.handshake.is_none() {
            return (
                FlowAnalysis {
                    handshake: None,
                    kernel_msgs: Vec::new(),
                    opaque_ws_messages: 0,
                    visibility: Visibility::Opaque,
                    up_entropy_bits,
                },
                ScanHits::default(),
            );
        }
        let mut kernel_msgs = self.up.msgs;
        kernel_msgs.extend(self.down.msgs);
        let mut per_msg = self.up.hits;
        per_msg.extend(self.down.hits);
        let opaque_ws_messages = self.up.opaque + self.down.opaque;
        let visibility = classify_visibility(&kernel_msgs, true, opaque_ws_messages);
        (
            FlowAnalysis {
                handshake: self.handshake,
                kernel_msgs,
                opaque_ws_messages,
                visibility,
                up_entropy_bits,
            },
            ScanHits {
                url: self.url_hits,
                per_msg,
            },
        )
    }
}

/// Resume the CRLFCRLF search over `buf[*searched..]`, never
/// re-examining bytes. Returns the index just past the terminator
/// (identical to [`find_double_crlf`] on the full buffer).
fn scan_crlfcrlf(buf: &[u8], searched: &mut usize) -> Option<usize> {
    // Back up 3 bytes so a terminator straddling the previous chunk
    // boundary is seen.
    let from = searched.saturating_sub(3);
    if let Some(i) = find_double_crlf(&buf[from..]) {
        *searched = from + i;
        return Some(from + i);
    }
    *searched = buf.len();
    None
}

/// Feed raw post-handshake bytes of one side through its WebSocket
/// decoder, interpreting completed messages immediately.
fn feed_ws(side: &mut SideScan, bytes: &[u8], intel: &mut FeedCache) {
    let SidePhase::Ws { dec, asm, failed } = &mut side.phase else {
        return;
    };
    if *failed {
        return;
    }
    let frames = match dec.feed(bytes) {
        Ok(frames) => frames,
        Err(_) => {
            // The eager path feeds the whole side in one call, so an
            // error anywhere drops every frame of the side and counts
            // exactly one opaque unit. Mirror that by retracting
            // everything this side accumulated.
            *failed = true;
            side.msgs.clear();
            side.hits.clear();
            side.opaque = 1;
            return;
        }
    };
    for frame in frames {
        let Ok(Some(msg)) = asm.push(frame) else {
            continue;
        };
        let before = side.msgs.len();
        observe_ws_message(&msg, &mut side.msgs, &mut side.opaque);
        if side.msgs.len() > before {
            let hits = side.msgs[before]
                .code
                .as_deref()
                .and_then(|code| scan_code_plane(code, intel));
            side.hits.push(hits);
        }
    }
}

/// Scan a kernel message's code against the intel feed's code plane
/// under the current generation, via the resumable matcher. `None` in
/// naive mode (the naive path rescans at eviction from the feed lock).
fn scan_code_plane(code: &str, intel: &mut FeedCache) -> Option<(u64, Vec<u32>)> {
    if intel.mode() == MatchMode::Naive {
        return None;
    }
    intel.refresh();
    let (compiled, _) = intel.parts();
    let ac = compiled.code_matcher();
    let mut st = ac.begin();
    ac.feed(&mut st, code.as_bytes());
    let mut pids = Vec::new();
    ac.finish_into(&mut st, &mut pids);
    let ids = pids
        .iter()
        .map(|&pid| compiled.code_rule_index(pid))
        .collect();
    Some((intel.generation(), ids))
}

/// URL-plane counterpart of [`scan_code_plane`].
fn scan_url_plane(target: &str, intel: &mut FeedCache) -> Option<(u64, Vec<u32>)> {
    if intel.mode() == MatchMode::Naive {
        return None;
    }
    intel.refresh();
    let (compiled, _) = intel.parts();
    let ac = compiled.url_matcher();
    let mut st = ac.begin();
    ac.feed(&mut st, target.as_bytes());
    let mut pids = Vec::new();
    ac.finish_into(&mut st, &mut pids);
    let ids = pids
        .iter()
        .map(|&pid| compiled.url_rule_index(pid))
        .collect();
    Some((intel.generation(), ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzers::analyze_flow;
    use crate::reassembly::{FlowBuf, Reassembler};
    use crate::rules::RuleFeed;
    use ja_kernelsim::actions::CellScript;
    use ja_kernelsim::config::{ServerConfig, TransportMode};
    use ja_kernelsim::server::NotebookServer;
    use ja_netsim::addr::{HostAddr, HostId};
    use ja_netsim::network::Network;
    use ja_netsim::time::SimTime;

    const FLOW: FlowId = FlowId(0);

    /// One notebook session's reassembled flow and its server's
    /// transport secret.
    fn session(transport: TransportMode) -> (FlowBuf, Vec<u8>) {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = transport;
        let mut srv = NotebookServer::new(1, cfg, 11);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        let mut net = Network::new();
        let client = HostAddr::internal(HostId(200));
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client, "alice", 0);
        let script = CellScript::pure("import os; os.system('id')");
        srv.run_cell(&mut net, SimTime::from_millis(50), &mut conn, &script);
        let mut r = Reassembler::new();
        r.feed_trace(&net.into_trace());
        let buf = r.into_flows().remove(&0).expect("session flow");
        (buf, srv.transport_secret.clone())
    }

    /// A flow buffer holding exactly these two streams.
    fn flow_buf(up: &[u8], down: &[u8]) -> FlowBuf {
        let mut buf = FlowBuf::default();
        buf.up.data = up.to_vec();
        buf.down.data = down.to_vec();
        buf
    }

    fn no_intel() -> FeedCache {
        FeedCache::new(RuleFeed::new(), MatchMode::Compiled)
    }

    /// Feed `buf`'s upstream cut at `cuts`, then its downstream whole.
    fn feed(buf: &FlowBuf, secret: Option<&[u8]>, cuts: &[usize]) -> FlowScanner {
        let mut scanner = FlowScanner::new(FLOW, secret);
        let (mut intel, mut scratch) = (no_intel(), Vec::new());
        let up = PayloadBytes::from(buf.up.data.clone());
        let mut at = 0;
        for end in cuts.iter().copied().chain([up.len()]) {
            scanner.feed_up(&up.slice(at..end), &mut intel, &mut scratch);
            at = end;
        }
        let down = PayloadBytes::from(buf.down.data.clone());
        scanner.feed_down(&down, &mut intel, &mut scratch);
        scanner
    }

    /// The scanner's analysis equals the eager analyzer's.
    fn assert_matches_eager(scanner: FlowScanner, buf: &FlowBuf, secret: Option<&[u8]>) {
        let (got, _) = scanner.finalize(&mut no_intel());
        let want = analyze_flow(FLOW, buf, secret);
        assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }

    #[test]
    fn header_terminator_split_across_chunks_wins_as_plaintext() {
        let (buf, secret) = session(TransportMode::PlainWs);
        let end = find_double_crlf(&buf.up.data).expect("upgrade header");
        for cut in [end - 3, end - 2, end - 1] {
            let scanner = feed(&buf, Some(&secret), &[cut]);
            assert!(matches!(scanner.inspect, Inspect::Plain), "cut {cut}");
            assert_matches_eager(scanner, &buf, Some(&secret));
        }
        let (got, _) = feed(&buf, Some(&secret), &[end - 2]).finalize(&mut no_intel());
        assert_eq!(got.visibility, Visibility::FullContent);
    }

    #[test]
    fn fewer_than_four_bytes_then_the_rest() {
        let (plain, secret) = session(TransportMode::PlainWs);
        let mut scanner = FlowScanner::new(FLOW, Some(&secret));
        let (mut intel, mut scratch) = (no_intel(), Vec::new());
        let up = PayloadBytes::from(plain.up.data.clone());
        scanner.feed_up(&up.slice(0..2), &mut intel, &mut scratch);
        assert!(matches!(scanner.inspect, Inspect::Undecided(_)));
        assert_eq!(scanner.buffered(), 2);
        assert_matches_eager(feed(&plain, Some(&secret), &[2, 3]), &plain, Some(&secret));

        let (tls, secret) = session(TransportMode::Tls);
        for cuts in [&[1][..], &[2, 3], &[3]] {
            let scanner = feed(&tls, Some(&secret), cuts);
            assert!(matches!(scanner.inspect, Inspect::Decrypt(_)));
            assert_matches_eager(scanner, &tls, Some(&secret));
        }
        let (got, _) = feed(&tls, Some(&secret), &[2]).finalize(&mut no_intel());
        assert_eq!(got.visibility, Visibility::FullContent);
    }

    #[test]
    fn get_upstream_without_terminator_falls_back_to_decryption_at_finalize() {
        let secret = b"inspection-secret".as_slice();
        let buf = flow_buf(
            b"GET /stream HTTP/1.1\r\nHost: x\r\n",
            b"HTTP/1.1 200 OK\r\n",
        );
        let scanner = feed(&buf, Some(secret), &[4, 10]);
        assert!(matches!(scanner.inspect, Inspect::Undecided(_)));
        assert_eq!(
            scanner.buffered(),
            (buf.up.data.len() + buf.down.data.len()) as u64
        );
        assert_matches_eager(scanner, &buf, Some(secret));
        // Without a secret the same upstream is simply not WebSocket.
        assert_matches_eager(feed(&buf, None, &[4, 10]), &buf, None);
    }

    #[test]
    fn rejected_upstream_drops_both_sides() {
        let buf = flow_buf(&[0xff; 64], b"HTTP/1.1 101 Switching\r\n");
        let scanner = feed(&buf, None, &[1]);
        assert_eq!(scanner.buffered(), 0);
        assert_matches_eager(scanner, &buf, None);
    }
}
