//! Property tests: wire framing and signing invariants under arbitrary
//! content, notebook JSON round-trips, and the direct JSON and wire
//! paths against their oracles: derived writes against the `Value`
//! writer, derived reads against reads off the parsed tree, and the
//! borrowed wire decode against a part-sequence decoder.

use ja_crypto::hmac::HmacSha256;
use ja_jupyter_proto::messages::{
    header_json, CommContent, ErrorContent, ExecuteInputContent, ExecuteReply, ExecuteRequest,
    ExecuteResultContent, ExecutionState, Header, MsgType, ReplyStatus, StatusContent,
    StreamContent,
};
use ja_jupyter_proto::nbformat::{Cell, Notebook};
use ja_jupyter_proto::wire::{WireError, WireMessage, WireView, DELIMITER};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

fn arb_cell() -> impl Strategy<Value = Cell> {
    prop_oneof![
        "[ -~]{0,200}".prop_map(|s| Cell::code(&s)),
        "[ -~]{0,200}".prop_map(|s| Cell::markdown(&s)),
    ]
}

proptest! {
    /// Any signed message round-trips through encode/decode and still
    /// verifies; any single byte flip in the four signed parts breaks
    /// verification.
    #[test]
    fn wire_sign_encode_round_trip(
        key in proptest::collection::vec(any::<u8>(), 1..64),
        content in "[ -~]{0,400}",
        ids in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..16), 0..3),
        nbuf in 0usize..3) {
        let header = header_json(MsgType::ExecuteRequest, "s", "u", 1, 2);
        let content_json = serde_json::to_string(&serde_json::json!({"code": content})).unwrap();
        let mac = HmacSha256::new(&key);
        let mut m = WireMessage::build(Some(&mac), ids, header, None, content_json);
        for i in 0..nbuf {
            m.buffers.push(vec![i as u8; 10]);
        }
        let bytes = m.encode();
        let (back, used) = WireMessage::decode(&bytes).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert!(back.verify(Some(&mac)));
        prop_assert_eq!(&back, &m);
    }

    /// Tampering with content always breaks the signature.
    #[test]
    fn wire_tamper_detected(key in proptest::collection::vec(any::<u8>(), 1..64),
                            tamper in any::<u8>()) {
        let header = header_json(MsgType::ExecuteRequest, "s", "u", 0, 0);
        let mac = HmacSha256::new(&key);
        let m = WireMessage::build(Some(&mac), vec![], header, None, "{\"code\":\"x\"}".into());
        let mut bad = m.clone();
        // Append a visible character; guaranteed to change the bytes.
        bad.content.push((0x21 + (tamper % 0x5e)) as char);
        prop_assert!(!bad.verify(Some(&mac)));
    }

    /// Decoding a prefix never panics and never yields a message.
    #[test]
    fn wire_prefix_is_incomplete(cut_frac in 0.0f64..1.0) {
        let header = header_json(MsgType::Status, "s", "u", 0, 0);
        let mac = HmacSha256::new(b"k");
        let m = WireMessage::build(Some(&mac), vec![b"id".to_vec()], header, None, "{}".into());
        let bytes = m.encode();
        let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(WireMessage::decode(&bytes[..cut]).unwrap().is_none());
    }

    /// Notebook JSON round-trips for arbitrary printable cells.
    #[test]
    fn notebook_round_trip(cells in proptest::collection::vec(arb_cell(), 0..12)) {
        let mut nb = Notebook::new();
        nb.cells = cells;
        let back = Notebook::from_json(&nb.to_json()).unwrap();
        prop_assert_eq!(back, nb);
    }
}

/// Every message type the protocol names.
const MSG_TYPES: [MsgType; 18] = [
    MsgType::ExecuteRequest,
    MsgType::ExecuteReply,
    MsgType::ExecuteInput,
    MsgType::ExecuteResult,
    MsgType::Stream,
    MsgType::Status,
    MsgType::Error,
    MsgType::KernelInfoRequest,
    MsgType::KernelInfoReply,
    MsgType::InputRequest,
    MsgType::InputReply,
    MsgType::InterruptRequest,
    MsgType::InterruptReply,
    MsgType::ShutdownRequest,
    MsgType::ShutdownReply,
    MsgType::CommOpen,
    MsgType::CommMsg,
    MsgType::CommClose,
];

/// Strings with the characters JSON must escape, and wider ones.
fn arb_text() -> impl Strategy<Value = String> {
    let special = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\u{0}'),
        Just('\u{1f}'),
        Just('\u{7f}'),
        Just('\u{1F600}'),
    ];
    collection::vec(prop_oneof![special, any::<char>(), any::<char>()], 0..24)
        .prop_map(String::from_iter)
}

fn arb_header() -> impl Strategy<Value = Header> {
    (
        (arb_text(), arb_text(), arb_text()),
        (arb_text(), 0..MSG_TYPES.len(), arb_text()),
    )
        .prop_map(|((msg_id, session, username), (date, t, version))| Header {
            msg_id,
            session,
            username,
            date,
            msg_type: MSG_TYPES[t],
            version,
        })
}

/// What the `Value` writer writes for `x`.
fn oracle<T: Serialize>(x: &T) -> String {
    let mut out = String::new();
    serde::json::write_value(&x.to_value(), &mut out, None);
    out
}

/// `x` written directly equals the oracle, and reads back to `x`.
fn check_write<T: Serialize + Deserialize + PartialEq + std::fmt::Debug>(x: T) {
    let text = serde_json::to_string(&x).unwrap();
    prop_assert_eq!(&text, &oracle(&x));
    prop_assert_eq!(serde_json::from_str::<T>(&text).unwrap(), x);
}

/// Both readings of `text` as `T` agree: the same `Ok` value, or both
/// errors.
fn check_parse<T: Deserialize + PartialEq + std::fmt::Debug>(text: &str) {
    let direct = serde_json::from_str::<T>(text).map_err(drop);
    let tree = serde_json::from_str::<serde_json::Value>(text)
        .map_err(drop)
        .and_then(|v| T::from_value(&v).map_err(drop));
    prop_assert_eq!(direct, tree, "reading {:?}", text);
}

/// Pieces that break or bend a header when spliced in.
const SPLICES: [&str; 20] = [
    "{",
    "}",
    "[",
    "]",
    "\"",
    "\\",
    ":",
    ",",
    "0",
    "null",
    " ",
    "\\u0073",
    "\\uD800",
    "\"msg_type\":",
    "\"msg_type\":\"status\",",
    "\"msg_type\":5,",
    "\"m\\u0073g_type\":\"error\",",
    "\"session\":[],",
    "_reply",
    "170141183460469231731687303715884105728",
];

/// Apply `edits` to `base`, each `(at, op, arg)`: splice in a piece,
/// delete a few characters, copy a slice elsewhere (duplicating
/// members), or overwrite a character.
fn mutate(base: &str, edits: &[(u16, u8, u16)]) -> String {
    let mut chars: Vec<char> = base.chars().collect();
    for &(at, op, arg) in edits {
        let at = at as usize % (chars.len() + 1);
        let piece = SPLICES[arg as usize % SPLICES.len()].chars();
        match op % 4 {
            0 => drop(chars.splice(at..at, piece)),
            1 => drop(chars.drain(at..(at + 1 + arg as usize % 4).min(chars.len()))),
            2 => {
                let copy = chars[at..(at + arg as usize % 48).min(chars.len())].to_vec();
                let to = (at + arg as usize) % (chars.len() + 1);
                chars.splice(to..to, copy);
            }
            _ => drop(chars.splice(at..(at + 1).min(chars.len()), piece.take(1))),
        }
    }
    chars.into_iter().collect()
}

fn arb_edits() -> impl Strategy<Value = Vec<(u16, u8, u16)>> {
    collection::vec((any::<u16>(), any::<u8>(), any::<u16>()), 0..4)
}

/// One serialized content of every kind on the wire, from `text`.
fn contents(text: &str, n: u32, flag: bool) -> [String; 8] {
    let s = || text.to_string();
    [
        serde_json::to_string(&ExecuteRequest {
            code: s(),
            store_history: flag,
            silent: !flag,
        }),
        serde_json::to_string(&ExecuteReply {
            status: [ReplyStatus::Ok, ReplyStatus::Error, ReplyStatus::Aborted][n as usize % 3],
            execution_count: n,
        }),
        serde_json::to_string(&StreamContent {
            name: s(),
            text: s(),
        }),
        serde_json::to_string(&StatusContent {
            execution_state: [
                ExecutionState::Busy,
                ExecutionState::Idle,
                ExecutionState::Starting,
            ][n as usize % 3],
        }),
        serde_json::to_string(&ExecuteInputContent {
            code: s(),
            execution_count: n,
        }),
        serde_json::to_string(&ExecuteResultContent {
            execution_count: n,
            data: s(),
        }),
        serde_json::to_string(&ErrorContent {
            ename: s(),
            evalue: s(),
        }),
        serde_json::to_string(&CommContent {
            comm_id: s(),
            data: s(),
        }),
    ]
    .map(Result::unwrap)
}

/// The length-prefixed encoding of an arbitrary part sequence.
fn frame(parts: &[Vec<u8>]) -> Vec<u8> {
    let mut out = (parts.len() as u32).to_be_bytes().to_vec();
    for p in parts {
        out.extend_from_slice(&(p.len() as u32).to_be_bytes());
        out.extend_from_slice(p);
    }
    out
}

/// The decode the wire view replaces, kept as its oracle: read every
/// part into its own buffer, then split the sequence at the first
/// delimiter and convert the dicts to text.
fn part_sequence_decode(buf: &[u8]) -> Result<Option<(WireMessage, usize)>, WireError> {
    let be32 = |at: usize| -> Option<usize> {
        Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().unwrap()) as usize)
    };
    let Some(nparts) = be32(0) else {
        return Ok(None);
    };
    if nparts > 1024 {
        return Err(WireError::BadFraming);
    }
    let mut pos = 4;
    let mut parts = Vec::new();
    for _ in 0..nparts {
        let Some(len) = be32(pos) else {
            return Ok(None);
        };
        if len > 256 * 1024 * 1024 {
            return Err(WireError::BadFraming);
        }
        pos += 4;
        let Some(part) = buf.get(pos..pos + len) else {
            return Ok(None);
        };
        parts.push(part.to_vec());
        pos += len;
    }
    let delim = parts
        .iter()
        .position(|p| p == DELIMITER)
        .ok_or(WireError::MissingDelimiter)?;
    let payload = &parts[delim + 1..];
    if payload.len() < 5 {
        return Err(WireError::TruncatedMessage);
    }
    let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
    let msg = WireMessage {
        identities: parts[..delim].to_vec(),
        signature: text(&payload[0]),
        header: text(&payload[1]),
        parent_header: text(&payload[2]),
        metadata: text(&payload[3]),
        content: text(&payload[4]),
        buffers: payload[5..].to_vec(),
    };
    Ok(Some((msg, pos)))
}

fn arb_part() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        Just(DELIMITER.to_vec()),
        collection::vec(any::<u8>(), 0..12),
        arb_text().prop_map(String::into_bytes),
        Just(b"{\"msg_type\":\"status\"}".to_vec()),
    ]
}

proptest! {
    /// Derived direct writes of the header and of every content struct
    /// on the wire are byte-identical to the `Value` writer.
    #[test]
    fn wire_types_write_like_the_value_writer(
        header in arb_header(),
        text in arb_text(),
        n in any::<u32>(),
        flag in any::<bool>()) {
        check_write(header);
        check_write(ExecuteRequest { code: text.clone(), store_history: flag, silent: !flag });
        check_write(ExecuteReply { status: ReplyStatus::Aborted, execution_count: n });
        check_write(StreamContent { name: text.clone(), text: text.clone() });
        check_write(StatusContent { execution_state: ExecutionState::Starting });
        check_write(ExecuteInputContent { code: text.clone(), execution_count: n });
        check_write(ExecuteResultContent { execution_count: n, data: text.clone() });
        check_write(ErrorContent { ename: text.clone(), evalue: text.clone() });
        check_write(CommContent { comm_id: text.clone(), data: text });
    }

    /// On mutated headers, the derived header read agrees with the
    /// read off the tree.
    #[test]
    fn header_reads_match_tree_on_mutations(header in arb_header(), edits in arb_edits()) {
        let text = mutate(&serde_json::to_string(&header).unwrap(), &edits);
        check_parse::<Header>(&text);
    }

    /// On mutated contents of every kind, each derived content read
    /// agrees with the read off the tree.
    #[test]
    fn content_reads_match_tree_on_mutations(
        text in arb_text(),
        n in any::<u32>(),
        flag in any::<bool>(),
        edits in arb_edits()) {
        for content in contents(&text, n, flag) {
            let text = mutate(&content, &edits);
            check_parse::<ExecuteRequest>(&text);
            check_parse::<ExecuteReply>(&text);
            check_parse::<StreamContent>(&text);
            check_parse::<StatusContent>(&text);
            check_parse::<ExecuteInputContent>(&text);
            check_parse::<ExecuteResultContent>(&text);
            check_parse::<ErrorContent>(&text);
            check_parse::<CommContent>(&text);
        }
    }

    /// On arbitrary bytes, framed part sequences and their truncations,
    /// the borrowed view and the owned decode both agree with the
    /// part-sequence oracle: same parts, same bytes consumed, same
    /// error. Nothing panics, and no more than the input is consumed.
    #[test]
    fn wire_view_decodes_like_the_part_sequence_oracle(
        parts in collection::vec(arb_part(), 0..10),
        raw in collection::vec(any::<u8>(), 0..64),
        cut in any::<u16>(),
        trailing in collection::vec(any::<u8>(), 0..8)) {
        let framed = frame(&parts);
        let cut = cut as usize % (framed.len() + 1);
        let mut whole = framed.clone();
        whole.extend(trailing);
        for bytes in [&whole[..], &framed[..cut], &raw[..]] {
            let want = part_sequence_decode(bytes);
            let view = WireView::decode(bytes);
            prop_assert_eq!(
                view.clone().map(|v| v.map(|(view, used)| (view.into_owned(), used))),
                want.clone()
            );
            prop_assert_eq!(WireMessage::decode(bytes), want);
            if let Ok(Some((view, used))) = view {
                prop_assert!(used <= bytes.len());
                let owned = view.clone().into_owned();
                prop_assert_eq!(view.payload_len(), owned.payload_len());
                prop_assert_eq!(view.msg_type(), owned.msg_type());
            }
        }
    }
}

/// The message type both wire views read from `header`.
fn view_msg_type(header: &str) -> Option<MsgType> {
    let owned = WireMessage::build(None, vec![], header.to_string(), None, "{}".into());
    let bytes = owned.encode();
    let (view, _) = WireView::decode(&bytes).unwrap().unwrap();
    let got = owned.msg_type();
    assert_eq!(view.msg_type(), got, "views disagree on {header:?}");
    got
}

/// The oracle: parse `header` into a [`Header`] and read its type.
fn oracle_msg_type(header: &str) -> Option<MsgType> {
    serde_json::from_str::<Header>(header)
        .ok()
        .map(|h| h.msg_type)
}

/// Values spliced over or next to header fields: strings, known and
/// unknown type names, and every non-string kind.
const VALUES: [&str; 10] = [
    "\"status\"",
    "\"execute_request\"",
    "\"no_such_type\"",
    "\"st\\u0061tus\"",
    "5",
    "null",
    "true",
    "[]",
    "{\"msg_type\":\"error\"}",
    "\"\"",
];

/// What may follow the object.
const TRAILERS: [&str; 7] = ["", " ", "\n", "x", "}", "{}", ","];

/// The header's members as `(key, value)` JSON texts, then each of
/// `ops` applied: drop a member, duplicate one (with a spliced value),
/// escape one character of a key, replace a value, or add a member
/// nested 126–130 containers deep. Written back as an object with
/// `trailer` after it.
fn restructure(header: &Header, ops: &[(u8, u8, u8)], trailer: &str) -> String {
    let json = |s: &str| serde_json::to_string(s).unwrap();
    let mut members: Vec<(String, String)> = [
        ("msg_id", json(&header.msg_id)),
        ("session", json(&header.session)),
        ("username", json(&header.username)),
        ("date", json(&header.date)),
        ("msg_type", json(header.msg_type.name())),
        ("version", json(&header.version)),
    ]
    .into_iter()
    .map(|(k, v)| (json(k), v))
    .collect();
    for &(op, a, b) in ops {
        let n = members.len().max(1);
        let i = a as usize % n;
        let value = VALUES[b as usize % VALUES.len()].to_string();
        match op % 5 {
            0 if !members.is_empty() => drop(members.remove(i)),
            1 if !members.is_empty() => {
                let key = members[i].0.clone();
                members.insert(b as usize % (members.len() + 1), (key, value));
            }
            2 if !members.is_empty() => {
                let key = &mut members[i].0;
                // Inside the quotes; every key here is plain ASCII.
                let at = 1 + b as usize % (key.len() - 2).max(1);
                if at < key.len() - 1 {
                    let c = key.as_bytes()[at];
                    key.replace_range(at..at + 1, &format!("\\u{:04x}", c));
                }
            }
            3 if !members.is_empty() => members[i].1 = value,
            _ => {
                let depth = 126 + b as usize % 5;
                let (open, close) = if a % 2 == 0 {
                    ("[", "]")
                } else {
                    ("{\"k\":", "}")
                };
                let nested = format!("{}0{}", open.repeat(depth), close.repeat(depth));
                members.insert(i % (members.len() + 1), (json("x"), nested));
            }
        }
    }
    let body: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}{trailer}", body.join(","))
}

proptest! {
    /// The header writer sessions use is byte-identical to serializing
    /// `Header::new`, for arbitrary session and user strings (quotes,
    /// backslashes, control and non-ASCII characters), every message
    /// type, and `seq`/`sim_us` anywhere in `u64`.
    #[test]
    fn header_json_equals_serialized_header_new(
        session in arb_text(),
        username in arb_text(),
        t in 0..MSG_TYPES.len(),
        seq in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()],
        sim_us in prop_oneof![Just(0u64), Just(u64::MAX), any::<u64>()]) {
        let oracle = serde_json::to_string(&Header::new(MSG_TYPES[t], &session, &username, seq, sim_us)).unwrap();
        prop_assert_eq!(header_json(MSG_TYPES[t], &session, &username, seq, sim_us), oracle);
    }

    /// The borrowed message-type read equals parsing into a `Header`,
    /// on restructured headers (missing, duplicate and escaped keys,
    /// non-string values, over-deep nesting, trailing bytes) and on
    /// those further mutated byte by byte.
    #[test]
    fn msg_type_reads_like_the_header_parse(
        header in arb_header(),
        ops in collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..4),
        trailer in 0..TRAILERS.len(),
        edits in arb_edits()) {
        let text = restructure(&header, &ops, TRAILERS[trailer]);
        for text in [text.clone(), mutate(&text, &edits)] {
            prop_assert_eq!(view_msg_type(&text), oracle_msg_type(&text), "reading {:?}", text);
        }
    }
}

#[test]
fn header_reads_on_hand_picked_headers() {
    let msg_type = |text: &str| {
        serde_json::from_str::<Header>(text)
            .ok()
            .map(|h| h.msg_type)
    };
    let good = serde_json::to_string(&Header::new(MsgType::Status, "s", "u", 1, 2)).unwrap();
    let cases = [
        good.clone(),
        // Duplicate keys: the first occurrence decides.
        good.replacen('{', "{\"msg_type\":\"error\",", 1),
        good.replacen('{', "{\"msg_type\":5,", 1),
        good.replace('}', ",\"msg_type\":5}"),
        // Escaped keys are unescaped before they match.
        good.replace("\"msg_type\"", "\"m\\u0073g_type\""),
        good.replace("\"session\"", "\"se\\u0073sion\""),
        // Non-string values and missing fields.
        good.replace("\"5.3\"", "5.3"),
        good.replace("\"version\":\"5.3\",", "")
            .replace(",\"version\":\"5.3\"", ""),
        good.replace("\"status\"", "\"no_such_type\""),
        // Numbers past i128 anywhere make the header unreadable.
        good.replace('}', ",\"x\":170141183460469231731687303715884105728}"),
        good.replace('}', ",\"x\":170141183460469231731687303715884105727}"),
        "[]".to_string(),
        String::new(),
        // Whitespace may follow the object; nothing else may.
        format!("{good} \n"),
        format!("{good}x"),
        format!("{good}{{}}"),
    ];
    for text in &cases {
        check_parse::<Header>(text);
        assert_eq!(view_msg_type(text), msg_type(text), "reading {text:?}");
    }
    assert_eq!(msg_type(&cases[0]), Some(MsgType::Status));
    assert_eq!(msg_type(&cases[1]), Some(MsgType::Error));
    assert_eq!(msg_type(&cases[4]), Some(MsgType::Status));
    assert_eq!(msg_type(&cases[3]), Some(MsgType::Status));
    assert_eq!(msg_type(&cases[9]), None);
    assert_eq!(msg_type(&cases[13]), Some(MsgType::Status));
    assert_eq!(msg_type(&cases[14]), None);
    // Depths 127, 128 and 129: past the cap nothing is readable.
    for (depth, readable) in [(127, true), (128, true), (129, false)] {
        let deep = good.replace(
            '}',
            &format!(
                ",\"x\":{}{}}}",
                "[".repeat(depth - 1),
                "]".repeat(depth - 1)
            ),
        );
        check_parse::<Header>(&deep);
        assert_eq!(msg_type(&deep).is_some(), readable, "depth {depth}");
        assert_eq!(view_msg_type(&deep), msg_type(&deep), "depth {depth}");
    }
}
