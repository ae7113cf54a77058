//! Protocol analyzers: HTTP upgrade → WebSocket → Jupyter wire.
//!
//! Each analyzer parses exactly as far as the transport allows. The
//! chain mirrors Zeek's analyzer tree for this protocol stack (the paper
//! cites Zeek's then-new WebSocket analyzer, PR #3555): an HTTP analyzer
//! recognizes the upgrade, hands the rest of the stream to the WebSocket
//! analyzer, and a Jupyter-specific analyzer interprets message bodies.

use crate::reassembly::FlowBuf;
use ja_crypto::chacha::ChaCha20;
use ja_crypto::entropy::ByteStats;
use ja_jupyter_proto::messages::MsgType;
use ja_jupyter_proto::wire::WireView;
use ja_kernelsim::server::transport_seed;
use ja_netsim::flow::FlowId;
use ja_netsim::payload;
use ja_netsim::segment::Direction;
use ja_websocket::codec::{FrameDecoder, Message, MessageAssembler};
use ja_websocket::handshake::UpgradeRequest;

/// How deep the analyzers could see into a flow.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Visibility {
    /// Nothing parseable: ciphertext or unknown protocol.
    Opaque,
    /// WebSocket framing parsed, message bodies unreadable.
    FramingOnly,
    /// Full content: kernel messages (and code) readable.
    FullContent,
}

/// One kernel-protocol message as reconstructed by the sensor.
#[derive(Clone, Debug)]
pub struct ParsedKernelMsg {
    /// Message type from the header.
    pub msg_type: Option<MsgType>,
    /// Code carried by an execute_request, if readable.
    pub code: Option<String>,
    /// Whether the HMAC signature field was present (non-empty).
    pub signed: bool,
    /// Total payload bytes.
    pub payload_len: usize,
}

/// Full analysis result for one flow.
#[derive(Clone, Debug)]
pub struct FlowAnalysis {
    /// Parsed HTTP upgrade request, when visible.
    pub handshake: Option<UpgradeRequest>,
    /// Kernel messages recovered from the WebSocket stream.
    pub kernel_msgs: Vec<ParsedKernelMsg>,
    /// WebSocket messages that failed kernel-wire parsing (opaque
    /// bodies in E2E mode, or non-Jupyter WS traffic).
    pub opaque_ws_messages: usize,
    /// Achieved visibility.
    pub visibility: Visibility,
    /// Mean payload entropy of the upstream stream (opacity feature).
    pub up_entropy_bits: f64,
}

/// The most bytes a flow side may send before the CRLFCRLF ending its
/// HTTP header block, terminator included, as common HTTP servers cap
/// it. Header bytes are buffered until the terminator, so this bounds
/// what a flow can make the sensor hold before it speaks WebSocket.
/// Past it the upstream is not an upgrade (an inspected flow tries
/// decryption), and the downstream yields no frames.
pub const MAX_HEADER_BYTES: usize = 16 * 1024;

/// Analyze one reconstructed flow. `inspect_secret` is the per-server
/// transport secret when the sensor is authorized for TLS inspection
/// (None = purely passive).
pub fn analyze_flow(flow_id: FlowId, buf: &FlowBuf, inspect_secret: Option<&[u8]>) -> FlowAnalysis {
    let up_raw = &buf.up.data;
    let down_raw = &buf.down.data;
    // Try plaintext first; fall back to TLS inspection when keyed.
    let attempt = |up: &[u8], down: &[u8]| try_parse(up, down);
    let mut parsed = attempt(up_raw, down_raw);
    if parsed.is_none() {
        if let Some(secret) = inspect_secret {
            payload::count_copied((up_raw.len() + down_raw.len()) as u64);
            let mut up = up_raw.clone();
            ChaCha20::from_seed(&transport_seed(secret, flow_id, Direction::ToResponder))
                .apply(&mut up);
            let mut down = down_raw.clone();
            ChaCha20::from_seed(&transport_seed(secret, flow_id, Direction::ToInitiator))
                .apply(&mut down);
            parsed = attempt(&up, &down);
        }
    }
    let up_entropy_bits = ByteStats::from_bytes(up_raw).shannon_bits();
    match parsed {
        Some((handshake, kernel_msgs, opaque_ws_messages)) => {
            let visibility =
                classify_visibility(&kernel_msgs, handshake.is_some(), opaque_ws_messages);
            FlowAnalysis {
                handshake,
                kernel_msgs,
                opaque_ws_messages,
                visibility,
                up_entropy_bits,
            }
        }
        None => FlowAnalysis {
            handshake: None,
            kernel_msgs: Vec::new(),
            opaque_ws_messages: 0,
            visibility: Visibility::Opaque,
            up_entropy_bits,
        },
    }
}

/// Attempt full-stack parse of plaintext streams. Returns None when the
/// stream is not an HTTP-upgrade-led WebSocket conversation. A side's
/// header counts only when its CRLFCRLF ends within [`MAX_HEADER_BYTES`]:
/// past that the upstream is not an upgrade, and the downstream yields
/// no frames.
#[allow(clippy::type_complexity)]
fn try_parse(
    up: &[u8],
    down: &[u8],
) -> Option<(Option<UpgradeRequest>, Vec<ParsedKernelMsg>, usize)> {
    let header_end = |side: &[u8]| find_double_crlf(&side[..side.len().min(MAX_HEADER_BYTES)]);
    // The upstream must start with a parseable HTTP upgrade.
    let header_end_up = header_end(up)?;
    let head = std::str::from_utf8(&up[..header_end_up]).ok()?;
    let handshake = UpgradeRequest::parse(head)?;
    let mut kernel_msgs = Vec::new();
    let mut opaque = 0usize;
    // Client frames after the upgrade.
    parse_ws_side(&up[header_end_up..], &mut kernel_msgs, &mut opaque);
    // Server frames after its 101 response.
    if let Some(resp_end) = header_end(down) {
        parse_ws_side(&down[resp_end..], &mut kernel_msgs, &mut opaque);
    }
    Some((Some(handshake), kernel_msgs, opaque))
}

fn parse_ws_side(bytes: &[u8], out: &mut Vec<ParsedKernelMsg>, opaque: &mut usize) {
    let mut dec = FrameDecoder::new();
    let mut asm = MessageAssembler::new();
    // An error anywhere drops every message of the side.
    let (mark_msgs, mark_opaque) = (out.len(), *opaque);
    let fed = dec.feed_each(bytes, |frame| {
        if let Ok(Some(msg)) = asm.push(frame) {
            observe_ws_message(&msg, out, opaque);
        }
    });
    if fed.is_err() {
        out.truncate(mark_msgs);
        *opaque = mark_opaque + 1;
    }
}

/// Interpret one assembled WebSocket message as a kernel-protocol
/// message: push a [`ParsedKernelMsg`] when the body decodes, count it
/// opaque when it does not, skip control messages. Shared between the
/// full-buffer path above and the incremental
/// [`crate::scan::FlowScanner`] so both interpret identically.
pub(crate) fn observe_ws_message(
    msg: &Message,
    out: &mut Vec<ParsedKernelMsg>,
    opaque: &mut usize,
) {
    let body = match msg {
        Message::Binary(b) => b.as_slice(),
        Message::Text(t) => t.as_bytes(),
        _ => return,
    };
    match WireView::decode(body) {
        Ok(Some((wire, _))) => {
            let msg_type = wire.msg_type();
            let code = (msg_type == Some(MsgType::ExecuteRequest))
                .then(|| execute_code(&wire.content))
                .flatten();
            out.push(ParsedKernelMsg {
                msg_type,
                code,
                signed: !wire.signature.is_empty(),
                payload_len: wire.payload_len(),
            });
        }
        _ => *opaque += 1,
    }
}

/// The `code` of `execute_request` content. Read as a struct, so
/// duplicate keys, non-string values and malformed content give what
/// `v["code"].as_str()` gives on the parsed tree `v`.
fn execute_code(content: &str) -> Option<String> {
    #[derive(serde::Deserialize)]
    struct Code {
        code: Option<String>,
    }
    serde_json::from_str::<Code>(content).ok()?.code
}

/// Classify how deep the analyzers saw, from what a parse recovered.
/// Shared between [`analyze_flow`] and the incremental scanner.
pub(crate) fn classify_visibility(
    kernel_msgs: &[ParsedKernelMsg],
    has_handshake: bool,
    opaque_ws_messages: usize,
) -> Visibility {
    if kernel_msgs.iter().any(|m| m.msg_type.is_some()) {
        Visibility::FullContent
    } else if has_handshake || opaque_ws_messages > 0 {
        Visibility::FramingOnly
    } else {
        Visibility::Opaque
    }
}

/// Find the end of an HTTP header block (index just past CRLFCRLF).
pub(crate) fn find_double_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reassembly::Reassembler;
    use ja_kernelsim::actions::{Action, CellScript};
    use ja_kernelsim::config::{ServerConfig, TransportMode};
    use ja_kernelsim::server::NotebookServer;
    use ja_netsim::addr::{HostAddr, HostId};
    use ja_netsim::network::Network;
    use ja_netsim::time::SimTime;

    fn run_session(transport: TransportMode) -> (ja_netsim::trace::Trace, Vec<u8>) {
        let mut cfg = ServerConfig::hardened();
        cfg.transport = transport;
        cfg.token_in_url = true;
        let mut srv = NotebookServer::new(1, cfg, 11);
        srv.provision_user("alice", SimTime::ZERO);
        srv.start_kernel("alice", SimTime::ZERO);
        let mut net = Network::new();
        let mut conn = srv.connect(
            &mut net,
            SimTime::ZERO,
            HostAddr::internal(HostId(200)),
            "alice",
            0,
        );
        let script = CellScript::new(
            "import os; os.system('id')",
            vec![Action::Print {
                text: "uid=1000\n".into(),
            }],
        );
        srv.run_cell(&mut net, SimTime::from_millis(50), &mut conn, &script);
        let secret = srv.transport_secret.clone();
        (net.into_trace(), secret)
    }

    fn analyze(trace: &ja_netsim::trace::Trace, secret: Option<&[u8]>) -> FlowAnalysis {
        let mut r = Reassembler::new();
        r.feed_trace(trace);
        let fb = &r.flows()[&0];
        analyze_flow(FlowId(0), fb, secret)
    }

    #[test]
    fn plaintext_gives_full_content() {
        let (trace, _) = run_session(TransportMode::PlainWs);
        let a = analyze(&trace, None);
        assert_eq!(a.visibility, Visibility::FullContent);
        let hs = a.handshake.as_ref().expect("handshake parsed");
        assert!(hs.query_param("token").is_some());
        // The request and the five kernel responses are all readable.
        assert!(a.kernel_msgs.len() >= 6, "got {}", a.kernel_msgs.len());
        let code = a
            .kernel_msgs
            .iter()
            .find_map(|m| m.code.as_deref())
            .expect("execute_request code visible");
        assert!(code.contains("os.system"));
        assert!(a.kernel_msgs.iter().all(|m| m.signed));
    }

    #[test]
    fn tls_is_opaque_without_keys() {
        let (trace, _) = run_session(TransportMode::Tls);
        let a = analyze(&trace, None);
        assert_eq!(a.visibility, Visibility::Opaque);
        assert!(a.kernel_msgs.is_empty());
        assert!(a.up_entropy_bits > 7.0, "entropy {}", a.up_entropy_bits);
    }

    #[test]
    fn tls_with_inspection_gives_full_content() {
        let (trace, secret) = run_session(TransportMode::Tls);
        let a = analyze(&trace, Some(&secret));
        assert_eq!(a.visibility, Visibility::FullContent);
        assert!(a.kernel_msgs.iter().any(|m| m.code.is_some()));
    }

    #[test]
    fn e2e_with_inspection_gives_framing_only() {
        let (trace, secret) = run_session(TransportMode::E2eEncrypted);
        let a = analyze(&trace, Some(&secret));
        assert_eq!(a.visibility, Visibility::FramingOnly);
        assert!(a.opaque_ws_messages > 0);
        assert!(a.kernel_msgs.is_empty());
    }

    #[test]
    fn e2e_without_keys_is_opaque() {
        let (trace, _) = run_session(TransportMode::E2eEncrypted);
        let a = analyze(&trace, None);
        assert_eq!(a.visibility, Visibility::Opaque);
    }

    #[test]
    fn wrong_secret_stays_opaque() {
        let (trace, _) = run_session(TransportMode::Tls);
        let a = analyze(&trace, Some(b"not-the-secret"));
        assert_eq!(a.visibility, Visibility::Opaque);
    }

    #[test]
    fn non_ws_traffic_is_opaque() {
        // Raw attacker flow (no HTTP upgrade).
        let mut net = Network::new();
        let f = net.open(
            SimTime::ZERO,
            HostAddr::internal(HostId(1)),
            1,
            HostAddr::external(2),
            443,
        );
        net.send(
            SimTime::from_millis(1),
            f,
            ja_netsim::segment::Direction::ToResponder,
            &[0xffu8; 500],
        );
        let trace = net.into_trace();
        let a = analyze(&trace, None);
        assert_eq!(a.visibility, Visibility::Opaque);
    }

    #[test]
    fn execute_code_matches_tree_lookup() {
        let tree = |content: &str| {
            serde_json::from_str::<serde_json::Value>(content)
                .ok()
                .and_then(|v| v["code"].as_str().map(str::to_string))
        };
        let deep = |k: usize| format!(r#"{{"code":"x","d":{}{}}}"#, "[".repeat(k), "]".repeat(k));
        for content in [
            r#"{"code":"import os\nos.system('id')","silent":false}"#.to_string(),
            r#"{"code":"a","code":"b"}"#.into(),
            r#"{"code":5,"code":"b"}"#.into(),
            r#"{"c\u006fde":"escaped key"}"#.into(),
            r#"{"code":"\ud83d\ude00 \"q\" \\"}"#.into(),
            r#"{"code":"x","n":170141183460469231731687303715884105728}"#.into(),
            r#"{"code":"x","n":170141183460469231731687303715884105727}"#.into(),
            r#"{"code":null}"#.into(),
            r#"{"code":"x"} junk"#.into(),
            r#"["code"]"#.into(),
            deep(126),
            deep(127),
            deep(128),
        ] {
            assert_eq!(execute_code(&content), tree(&content), "{content}");
        }
        assert_eq!(execute_code(&deep(127)).as_deref(), Some("x"));
        assert_eq!(execute_code(&deep(128)), None);
    }

    #[test]
    fn deeply_nested_execute_content_does_not_overflow_a_shard_stack() {
        use ja_jupyter_proto::messages::header_json;
        use ja_jupyter_proto::wire::WireMessage;
        // Attacker-controlled content nested 100k arrays deep, parsed
        // on a thread with the default 2 MiB stack shard workers get:
        // the message still counts, its code is simply unreadable.
        let header = header_json(MsgType::ExecuteRequest, "s", "mallory", 1, 0);
        let wire = WireMessage::build(None, vec![], header, None, "[".repeat(100_000));
        let msg = Message::Binary(wire.encode());
        let (out, opaque) = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let (mut out, mut opaque) = (Vec::new(), 0);
                observe_ws_message(&msg, &mut out, &mut opaque);
                (out, opaque)
            })
            .expect("spawn")
            .join()
            .expect("parse thread");
        assert_eq!(opaque, 0);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].msg_type, Some(MsgType::ExecuteRequest));
        assert_eq!(out[0].code, None);
    }
}
