//! Single-pass incremental flow scanning — analyze bytes as they
//! arrive, then drop them.
//!
//! The full-buffer analyzer ([`crate::analyzers::analyze_flow`])
//! needs every delivered byte of a flow retained until eviction and
//! only then parses and scans the complete buffers front to back, so
//! peak memory tracks flow *length*. [`FlowScanner`] runs the same
//! analyzer chain — HTTP upgrade → WebSocket framing → Jupyter wire →
//! rate features — over the in-order chunks the reassembler delivers,
//! as it delivers them. The scanner only reads bytes: it keeps the
//! parsed code strings and the upgrade target, and the flow's eviction
//! matches signatures against them once
//! ([`crate::detectors::feed_rule_hits`]). A scanned flow then retains
//! only:
//!
//! - the reorder window (out-of-order pendings, zero-copy slices),
//! - unconsumed decoder buffers (partial frame/message, pre-handshake
//!   header bytes),
//! - on a TLS-inspected flow, the delivered chunks held (zero-copy)
//!   while its plaintext attempt is undecided, at most
//!   [`MAX_HEADER_BYTES`] per direction, and past that the decoder
//!   buffers of a second chain reading the downstream decrypted,
//! - parsed artifacts (kernel messages, handshake, feature
//!   accumulators) — which the full-buffer path retains too.
//!
//! # When a flow qualifies
//!
//! Every flow the streaming engine sees is scanned here: plaintext,
//! TLS-inspected, opaque and honeypot-decoy flows alike. Decoy traffic
//! is hostile by construction, so the scanner must not trust a byte of
//! it. The inspection secret (`inspect_secrets` of either endpoint) is
//! chosen once, when the flow's first record arrives — never
//! mid-stream. The full-buffer path survives only as the reference
//! [`crate::engine::Monitor::analyze`], which the equivalence tests
//! check the scanner against.
//!
//! # TLS-inspected flows
//!
//! The full-buffer rule is "parse as plaintext; if that fails and a
//! secret is granted, decrypt both directions and parse again". The
//! transport cipher is a ChaCha20 stream keyed per (secret, flow,
//! direction), so the scanner follows the same rule a chunk at a time:
//!
//! - **Undecided.** Delivered chunks are held as zero-copy
//!   [`PayloadBytes`] while the upstream is checked for the header
//!   terminator (CRLFCRLF). A downstream that reaches
//!   [`MAX_HEADER_BYTES`] first is not held further: by then its header
//!   has ended or never will under either reading, so the chain reads
//!   it raw from then on, as it arrives, and a second chain reads it
//!   decrypted beside it. A downstream side reads independently of the
//!   upstream, so the winner's reading is exactly what a replay would
//!   have read, and the loser's is dropped.
//! - **Plaintext wins** when the upstream upgrade header parses: the
//!   held chunks replay through the plaintext chain and are dropped.
//!   No keystream is generated unless the downstream reached the cap
//!   first.
//! - **Plaintext loses** when that header is rejected, runs past
//!   [`MAX_HEADER_BYTES`], or as soon as the upstream's first bytes
//!   differ from `"GET "` — every header [`UpgradeRequest::parse`]
//!   accepts starts so, which a ja-websocket property pins. A
//!   decrypting chain with one [`ChaCha20`] cursor per direction (the
//!   downstream's chain and cursor, if it is already reading) then
//!   replays the held chunks and decrypts each later chunk as it
//!   arrives, into a reused scratch buffer.
//! - **Decryption stops** once the decrypted upstream is rejected as
//!   well: the flow is opaque whatever follows.
//! - A flow still **undecided at eviction** (no terminator ever
//!   arrived) replays through the decrypting scanner then, as the
//!   full-buffer path falls back.
//!
//! The entropy feature is always taken over the raw upstream bytes.
//!
//! # Bit-identity with the full-buffer path
//!
//! Every divergence the chunked replay could introduce is pinned to
//! the full-buffer semantics, and the equivalence proptests drive both
//! paths over random splits/reorderings/duplicates and arbitrary bytes:
//!
//! - The upstream header is buffered until the first CRLFCRLF, so the
//!   header search and UTF-8/parse validation see exactly the bytes
//!   the full-buffer search sees. An upstream that cannot start
//!   with `"GET "` is rejected at once, since the parse would reject it.
//! - The full-buffer path feeds a whole side to the frame decoder in one
//!   call, so a decode error drops *every* frame of that side and
//!   counts one opaque unit. The scanner mirrors that: on the first
//!   decode error it clears the side's accumulated messages and
//!   freezes the side at exactly one opaque count.
//! - Kernel messages are emitted upstream-side first, then
//!   downstream — arrival interleaving never changes the output order.

use crate::analyzers::{
    classify_visibility, find_double_crlf, observe_ws_message, FlowAnalysis, ParsedKernelMsg,
    Visibility, MAX_HEADER_BYTES,
};
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
    },
    /// This side reads nothing more: the upstream header failed UTF-8
    /// or upgrade-request validation or ran past the header cap, so the
    /// whole flow is non-WebSocket (full-buffer `try_parse` → `None`);
    /// or the downstream header ran past the cap, so that side yields
    /// no frames; or this side's frame decoder failed.
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
    /// raw upstream byte, mirroring the full-buffer scan of `up.data`.
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
                decrypted_down: None,
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
    pub(crate) fn feed_up(&mut self, chunk: &PayloadBytes, scratch: &mut Vec<u8>) {
        self.stats.update(chunk);
        self.read(Direction::ToResponder, chunk, scratch);
    }

    /// Feed one delivered downstream chunk.
    pub(crate) fn feed_down(&mut self, chunk: &PayloadBytes, scratch: &mut Vec<u8>) {
        self.read(Direction::ToInitiator, chunk, scratch);
    }

    /// Bytes the scanner itself is buffering (both sides' header and
    /// codec buffers, and while undecided the held chunks and the
    /// decrypted downstream's buffers). Together with the reassembler's
    /// pendings this is the flow's whole raw-byte retention.
    pub(crate) fn buffered(&self) -> u64 {
        let held = match &self.inspect {
            Inspect::Undecided(held) => held.buffered(),
            _ => 0,
        };
        self.proto.buffered() + held
    }

    /// Finalize into the same shape the full-buffer analyzer produces. A
    /// plaintext attempt still undecided falls back to decryption here,
    /// as the full-buffer path does when the plaintext header never
    /// terminated.
    pub(crate) fn finalize(mut self) -> FlowAnalysis {
        if let Some(held) = self.take_held() {
            self.decrypt(*held, &mut Vec::new());
        }
        self.proto.finalize(self.stats.shannon_bits())
    }

    fn read(&mut self, dir: Direction, chunk: &PayloadBytes, scratch: &mut Vec<u8>) {
        match &mut self.inspect {
            Inspect::Plain => self.proto.feed(dir, chunk),
            Inspect::Decrypt(keys) => {
                keys.decrypt(dir, chunk, scratch);
                self.proto.feed(dir, scratch);
                if self.proto.rejected {
                    self.inspect = Inspect::Opaque;
                }
            }
            Inspect::Opaque => {}
            Inspect::Undecided(held) if dir == Direction::ToInitiator => {
                for chunk in held.hold_down(chunk) {
                    self.proto.feed_down(&chunk);
                    held.read_down(&chunk, scratch);
                }
            }
            Inspect::Undecided(held) => {
                if let Some(terminated) = held.hold_up(chunk) {
                    if let Some(held) = self.take_held() {
                        self.settle(*held, terminated, scratch);
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
    fn settle(&mut self, held: Held, terminated: bool, scratch: &mut Vec<u8>) {
        if terminated {
            for chunk in &held.up {
                self.proto.feed_up(chunk);
            }
            if !self.proto.rejected {
                for chunk in &held.down {
                    self.proto.feed_down(chunk);
                }
                return;
            }
        }
        self.decrypt(held, scratch);
    }

    /// Switch to decryption: one keystream cursor per direction, the
    /// held chunks replayed through them in stream order. A downstream
    /// already read decrypted keeps its chain and cursor.
    fn decrypt(&mut self, held: Held, scratch: &mut Vec<u8>) {
        let up = held.cursor(Direction::ToResponder);
        let (down, proto) = match held.decrypted_down {
            Some(down) => *down,
            None => (held.cursor(Direction::ToInitiator), ProtoScan::default()),
        };
        self.proto = proto;
        self.inspect = Inspect::Decrypt(Box::new(Keystream { up, down }));
        for chunk in &held.up {
            self.read(Direction::ToResponder, chunk, scratch);
        }
        for chunk in &held.down {
            self.read(Direction::ToInitiator, chunk, scratch);
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
    /// Once the downstream reached [`MAX_HEADER_BYTES`]: its keystream
    /// cursor and the chain reading it decrypted.
    decrypted_down: Option<Box<(ChaCha20, ProtoScan)>>,
}

impl Held {
    /// The transport keystream of direction `dir`, from its start.
    fn cursor(&self, dir: Direction) -> ChaCha20 {
        ChaCha20::from_seed(&transport_seed(&self.secret, self.flow, dir))
    }

    /// Hold one upstream chunk. `Some(terminated)` once the plaintext
    /// attempt is decided: `true` when the upstream header is complete
    /// and must be parsed, `false` when the upstream cannot start with
    /// `"GET "` or has reached [`MAX_HEADER_BYTES`] without a
    /// terminator. So at most that many bytes are ever held.
    fn hold_up(&mut self, chunk: &PayloadBytes) -> Option<bool> {
        let at = self.up_len;
        self.up_len += chunk.len();
        self.up.push(chunk.clone());
        if breaks_upgrade_prefix(at, chunk) {
            return Some(false);
        }
        let within = &chunk[..chunk.len().min(MAX_HEADER_BYTES.saturating_sub(at))];
        if advance_crlfcrlf(&mut self.crlf, within) {
            return Some(true);
        }
        (self.up_len >= MAX_HEADER_BYTES).then_some(false)
    }

    /// Take one downstream chunk and return what both readings must
    /// read now. Chunks are held while fewer than [`MAX_HEADER_BYTES`]
    /// have arrived. Past that, each reading's downstream header has
    /// ended or never will, so reading on bounds what is buffered: all
    /// held chunks come back at once, then each chunk as it arrives.
    fn hold_down(&mut self, chunk: &PayloadBytes) -> Vec<PayloadBytes> {
        if self.decrypted_down.is_some() {
            return vec![chunk.clone()];
        }
        self.down_len += chunk.len();
        self.down.push(chunk.clone());
        if self.down_len < MAX_HEADER_BYTES {
            return Vec::new();
        }
        let key = self.cursor(Direction::ToInitiator);
        self.decrypted_down = Some(Box::new((key, ProtoScan::default())));
        self.down_len = 0;
        std::mem::take(&mut self.down)
    }

    /// Read one downstream chunk decrypted, into `scratch`, unless that
    /// reading's downstream reads nothing more.
    fn read_down(&mut self, chunk: &[u8], scratch: &mut Vec<u8>) {
        let Some(down) = self.decrypted_down.as_deref_mut() else {
            return;
        };
        let (key, proto) = down;
        if matches!(proto.down.phase, SidePhase::Rejected) {
            return;
        }
        decrypt_into(key, chunk, scratch);
        proto.feed_down(scratch);
    }

    /// Bytes held: the chunks and the decrypted downstream's buffers.
    fn buffered(&self) -> u64 {
        let decrypted = self.decrypted_down.as_ref().map_or(0, |d| d.1.buffered());
        (self.up_len + self.down_len) as u64 + decrypted
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
        let key = match dir {
            Direction::ToResponder => &mut self.up,
            Direction::ToInitiator => &mut self.down,
        };
        decrypt_into(key, chunk, out);
    }
}

/// Decrypt `chunk` with the cursor `key` into `out`.
fn decrypt_into(key: &mut ChaCha20, chunk: &[u8], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(chunk);
    payload::count_copied(chunk.len() as u64);
    key.apply(out);
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
/// WebSocket framing → Jupyter wire.
#[derive(Debug, Default)]
struct ProtoScan {
    up: SideScan,
    down: SideScan,
    handshake: Option<UpgradeRequest>,
    /// The upstream header was rejected — the flow is non-WebSocket.
    rejected: bool,
}

impl ProtoScan {
    fn feed(&mut self, dir: Direction, bytes: &[u8]) {
        match dir {
            Direction::ToResponder => self.feed_up(bytes),
            Direction::ToInitiator => self.feed_down(bytes),
        }
    }

    fn feed_up(&mut self, bytes: &[u8]) {
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
                if buf.len() >= MAX_HEADER_BYTES {
                    self.reject();
                }
                return;
            };
            // Validate exactly as the full-buffer path: UTF-8 over the header
            // (CRLFCRLF included), then upgrade-request parse. Failure
            // rejects the whole flow.
            let parsed = std::str::from_utf8(&buf[..header_end])
                .ok()
                .and_then(UpgradeRequest::parse);
            let Some(hs) = parsed else {
                self.reject();
                return;
            };
            self.handshake = Some(hs);
            let rest = buf[header_end..].to_vec();
            self.up.phase = SidePhase::Ws {
                dec: FrameDecoder::new(),
                asm: MessageAssembler::new(),
            };
            feed_ws(&mut self.up, &rest);
            return;
        }
        feed_ws(&mut self.up, bytes);
    }

    fn feed_down(&mut self, bytes: &[u8]) {
        if self.rejected {
            return;
        }
        if let SidePhase::Header { buf, searched } = &mut self.down.phase {
            buf.extend_from_slice(bytes);
            // The full-buffer path applies no validation to the downstream
            // header (the 101 response) — everything after its CRLFCRLF
            // is frame data.
            let Some(header_end) = scan_crlfcrlf(buf, searched) else {
                if buf.len() >= MAX_HEADER_BYTES {
                    self.down.phase = SidePhase::Rejected;
                }
                return;
            };
            let rest = buf[header_end..].to_vec();
            self.down.phase = SidePhase::Ws {
                dec: FrameDecoder::new(),
                asm: MessageAssembler::new(),
            };
            feed_ws(&mut self.down, &rest);
            return;
        }
        feed_ws(&mut self.down, bytes);
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

    fn finalize(self, up_entropy_bits: f64) -> FlowAnalysis {
        // No upstream handshake ⇒ the full-buffer `try_parse` returns None ⇒
        // everything is opaque (messages a side may have produced are
        // irrelevant because without an up-header none are produced).
        if self.rejected || self.handshake.is_none() {
            return FlowAnalysis {
                handshake: None,
                kernel_msgs: Vec::new(),
                opaque_ws_messages: 0,
                visibility: Visibility::Opaque,
                up_entropy_bits,
            };
        }
        let mut kernel_msgs = self.up.msgs;
        kernel_msgs.extend(self.down.msgs);
        let opaque_ws_messages = self.up.opaque + self.down.opaque;
        let visibility = classify_visibility(&kernel_msgs, true, opaque_ws_messages);
        FlowAnalysis {
            handshake: self.handshake,
            kernel_msgs,
            opaque_ws_messages,
            visibility,
            up_entropy_bits,
        }
    }
}

/// Resume the CRLFCRLF search over `buf[*searched..]`, never
/// re-examining bytes and never looking past [`MAX_HEADER_BYTES`].
/// Returns the index just past the terminator (identical to
/// [`find_double_crlf`] on the full buffer cut at the cap).
fn scan_crlfcrlf(buf: &[u8], searched: &mut usize) -> Option<usize> {
    let buf = &buf[..buf.len().min(MAX_HEADER_BYTES)];
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
fn feed_ws(side: &mut SideScan, bytes: &[u8]) {
    let SidePhase::Ws { dec, asm } = &mut side.phase else {
        return;
    };
    let msgs = &mut side.msgs;
    let opaque = &mut side.opaque;
    let fed = dec.feed_each(bytes, |frame| {
        if let Ok(Some(msg)) = asm.push(frame) {
            observe_ws_message(&msg, msgs, opaque);
        }
    });
    if fed.is_err() {
        // The full-buffer path feeds the whole side in one call, so an
        // error anywhere drops every frame of the side and counts
        // exactly one opaque unit. Mirror that by retracting
        // everything this side accumulated and releasing its buffers.
        side.phase = SidePhase::Rejected;
        side.msgs.clear();
        side.opaque = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzers::analyze_flow;
    use crate::reassembly::{FlowBuf, Reassembler};
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
        session_running(transport, "import os; os.system('id')")
    }

    /// [`session`] running the cell `code`.
    fn session_running(transport: TransportMode, code: &str) -> (FlowBuf, Vec<u8>) {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = transport;
        let mut srv = NotebookServer::new(1, cfg, 11);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        let mut net = Network::new();
        let client = HostAddr::internal(HostId(200));
        let mut conn = srv.connect(&mut net, SimTime::ZERO, client, "alice", 0);
        let script = CellScript::pure(code);
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

    /// Feed `buf`'s upstream cut at `cuts`, then its downstream whole.
    fn feed(buf: &FlowBuf, secret: Option<&[u8]>, cuts: &[usize]) -> FlowScanner {
        let mut scanner = FlowScanner::new(FLOW, secret);
        let mut scratch = Vec::new();
        let up = PayloadBytes::from(buf.up.data.clone());
        let mut at = 0;
        for end in cuts.iter().copied().chain([up.len()]) {
            scanner.feed_up(&up.slice(at..end), &mut scratch);
            at = end;
        }
        let down = PayloadBytes::from(buf.down.data.clone());
        scanner.feed_down(&down, &mut scratch);
        scanner
    }

    /// The scanner's analysis equals the eager analyzer's.
    fn assert_matches_eager(scanner: FlowScanner, buf: &FlowBuf, secret: Option<&[u8]>) {
        let got = scanner.finalize();
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
        let got = feed(&buf, Some(&secret), &[end - 2]).finalize();
        assert_eq!(got.visibility, Visibility::FullContent);
    }

    #[test]
    fn fewer_than_four_bytes_then_the_rest() {
        let (plain, secret) = session(TransportMode::PlainWs);
        let mut scanner = FlowScanner::new(FLOW, Some(&secret));
        let up = PayloadBytes::from(plain.up.data.clone());
        scanner.feed_up(&up.slice(0..2), &mut Vec::new());
        assert!(matches!(scanner.inspect, Inspect::Undecided(_)));
        assert_eq!(scanner.buffered(), 2);
        assert_matches_eager(feed(&plain, Some(&secret), &[2, 3]), &plain, Some(&secret));

        let (tls, secret) = session(TransportMode::Tls);
        for cuts in [&[1][..], &[2, 3], &[3]] {
            let scanner = feed(&tls, Some(&secret), cuts);
            assert!(matches!(scanner.inspect, Inspect::Decrypt(_)));
            assert_matches_eager(scanner, &tls, Some(&secret));
        }
        let got = feed(&tls, Some(&secret), &[2]).finalize();
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
    fn downstream_past_the_cap_before_the_upstream_is_read_not_held() {
        // The server's bytes arrive while the plaintext attempt is
        // undecided, more than the cap of them: past the cap both
        // readings read them as they arrive, and the winner's is exactly
        // what the whole-flow analysis reads.
        let code = format!("x = '{}'", "a".repeat(2 * MAX_HEADER_BYTES));
        for mode in [TransportMode::PlainWs, TransportMode::Tls] {
            let (buf, secret) = session_running(mode, &code);
            assert!(buf.down.data.len() > 2 * MAX_HEADER_BYTES);
            let mut scanner = FlowScanner::new(FLOW, Some(&secret));
            let mut scratch = Vec::new();
            let down = PayloadBytes::from(buf.down.data.clone());
            for at in (0..down.len()).step_by(997) {
                let chunk = down.slice(at..down.len().min(at + 997));
                scanner.feed_down(&chunk, &mut scratch);
                assert!(scanner.buffered() < 2 * MAX_HEADER_BYTES as u64);
            }
            let Inspect::Undecided(held) = &scanner.inspect else {
                panic!("{mode:?} decided without upstream bytes");
            };
            assert!(held.down.is_empty() && held.decrypted_down.is_some());
            let up = PayloadBytes::from(buf.up.data.clone());
            scanner.feed_up(&up, &mut scratch);
            assert!(!matches!(scanner.inspect, Inspect::Undecided(_)));
            let got = scanner.finalize();
            let want = analyze_flow(FLOW, &buf, Some(&secret));
            assert_eq!(format!("{got:?}"), format!("{want:?}"));
            assert_eq!(got.visibility, Visibility::FullContent, "{mode:?}");
        }
    }

    #[test]
    fn undecided_upstream_past_the_header_cap_is_decrypted() {
        let secret = b"inspection-secret".as_slice();
        let mut up = b"GET /".to_vec();
        up.resize(MAX_HEADER_BYTES + 1000, b'a');
        let buf = flow_buf(&up, b"HTTP/1.1 101 Switching\r\n");
        let cap = MAX_HEADER_BYTES;
        // Still undecided one byte short of the cap, decided at it.
        let scanner = feed(&flow_buf(&up[..cap - 1], b""), Some(secret), &[5]);
        assert!(matches!(scanner.inspect, Inspect::Undecided(_)));
        let scanner = feed(&buf, Some(secret), &[5, cap]);
        assert!(matches!(
            scanner.inspect,
            Inspect::Decrypt(_) | Inspect::Opaque
        ));
        assert!(scanner.buffered() < cap as u64);
        assert_matches_eager(scanner, &buf, Some(secret));
        // A terminator ending exactly at the cap still counts.
        let head = b"GET /x HTTP/1.1\r\nUpgrade: websocket\r\nSec-WebSocket-Key: k\r\nX-Pad: ";
        let mut at_cap = head.to_vec();
        at_cap.resize(cap - 4, b'X');
        at_cap.extend_from_slice(b"\r\n\r\n");
        for (len, parses) in [(cap, true), (cap + 1, false)] {
            let mut up = at_cap.clone();
            up.insert(head.len(), b'X');
            let up = if len == cap { &at_cap } else { &up };
            let buf = flow_buf(up, b"");
            for secret in [None, Some(secret)] {
                let scanner = feed(&buf, secret, &[7]);
                let got = feed(&buf, secret, &[7]).finalize();
                assert_eq!(got.handshake.is_some(), parses, "{len} bytes");
                assert_matches_eager(scanner, &buf, secret);
            }
        }
    }

    #[test]
    fn rejected_upstream_drops_both_sides() {
        let buf = flow_buf(&[0xff; 64], b"HTTP/1.1 101 Switching\r\n");
        let scanner = feed(&buf, None, &[1]);
        assert_eq!(scanner.buffered(), 0);
        assert_matches_eager(scanner, &buf, None);
    }

    #[test]
    fn failed_frame_decode_releases_the_side() {
        // A frame header with the reserved bits set fails the decoder;
        // the side keeps none of the bytes that follow it.
        let (mut buf, _) = session(TransportMode::PlainWs);
        buf.down.data.extend_from_slice(&[0xf2, 0x7e, 0x10, 0x00]);
        buf.down.data.extend_from_slice(&[0u8; 4096]);
        let scanner = feed(&buf, None, &[]);
        assert_eq!(scanner.buffered(), 0);
        assert_matches_eager(scanner, &buf, None);
    }
}
