//! Property-based tests: frame and stream round-trips under arbitrary
//! payloads, masks and segmentation — the invariant a passive analyzer
//! depends on — and the upgrade-request prefix a streaming analyzer
//! decides on before the header ends.

use ja_websocket::codec::{fragment, FrameDecoder, Message, MessageAssembler};
use ja_websocket::frame::{Frame, Opcode};
use ja_websocket::handshake::UpgradeRequest;
use proptest::prelude::*;

fn arb_opcode() -> impl Strategy<Value = Opcode> {
    prop_oneof![Just(Opcode::Text), Just(Opcode::Binary)]
}

proptest! {
    /// encode → decode is the identity for any data frame.
    #[test]
    fn frame_round_trip(opcode in arb_opcode(),
                        payload in proptest::collection::vec(any::<u8>(), 0..70_000),
                        mask in proptest::option::of(any::<[u8; 4]>()),
                        fin in any::<bool>()) {
        let f = Frame { fin, opcode, mask, payload };
        let bytes = f.encode();
        let (got, used) = Frame::decode(&bytes, 1 << 20).unwrap().unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(got, f);
    }

    /// A frame stream split at arbitrary points reassembles identically.
    #[test]
    fn stream_reassembly_invariant(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..8),
        chunk in 1usize..97) {
        let frames: Vec<Frame> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Frame {
                fin: true,
                opcode: if i % 2 == 0 { Opcode::Binary } else { Opcode::Text },
                mask: (i % 3 == 0).then_some([1, 2, 3, 4]),
                payload: p.clone(),
            })
            .collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for c in wire.chunks(chunk) {
            got.extend(dec.feed(c).unwrap());
        }
        prop_assert_eq!(got, frames);
        prop_assert_eq!(dec.buffered(), 0);
    }

    /// Fragmentation at any granularity reassembles to the original
    /// message, masked or not.
    #[test]
    fn fragmentation_round_trip(payload in proptest::collection::vec(any::<u8>(), 0..4096),
                                nfrag in 1usize..12,
                                mask in any::<bool>()) {
        let frames = fragment(Opcode::Binary, &payload, nfrag, mask);
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut asm = MessageAssembler::new();
        let mut out = None;
        for f in dec.feed(&wire).unwrap() {
            if let Some(m) = asm.push(f).unwrap() {
                prop_assert!(out.is_none(), "more than one message assembled");
                out = Some(m);
            }
        }
        prop_assert_eq!(out.unwrap(), Message::Binary(payload));
    }
}

/// Request-line heads at and around `"GET "`: case, spacing, a stray
/// prefix, another method.
const HEADS: [&str; 12] = [
    "GET ", "get ", "Get ", "GET", "GET  ", " GET ", "GET\t", "GETX ", "G ET ", "POST ",
    "\r\nGET ", "",
];

/// Upgrade-request-like header text after the request-line head: an
/// arbitrary target, other header lines, the two header lines the
/// parser requires (usually both present), and arbitrary trailing text.
fn arb_header_rest() -> impl Strategy<Value = String> {
    let line = prop_oneof![
        Just("Host: hub"),
        Just("Origin: http://x"),
        Just("Connection: Upgrade"),
        Just("X-Extra: 1"),
        Just("junk"),
    ];
    let required = prop_oneof![Just([true, true]), Just([true, true]), any::<[bool; 2]>()];
    let chars = |n| collection::vec(any::<char>(), 0..n);
    (chars(12), collection::vec(line, 0..3), required, chars(6)).prop_map(
        |(target, lines, [upgrade, key], tail)| {
            let mut text = format!("{} HTTP/1.1\r\n", String::from_iter(target));
            for l in lines {
                text.push_str(l);
                text.push_str("\r\n");
            }
            if upgrade {
                text.push_str("Upgrade: websocket\r\n");
            }
            if key {
                text.push_str("Sec-WebSocket-Key: dGhlIHNhbXBsZQ==\r\n");
            }
            text.push_str("\r\n");
            text.extend(tail);
            text
        },
    )
}

proptest! {
    /// Every header text the upgrade parser accepts starts with
    /// `"GET "`. The monitor's streaming scanner rejects an upstream
    /// whose first bytes differ from it without waiting for the header
    /// terminator; if the parser ever accepts more, this fails first.
    /// Each case tries every head in [`HEADS`] on one generated rest,
    /// and one arbitrary string.
    #[test]
    fn accepted_upgrade_headers_start_with_get(
        rest in arb_header_rest(),
        raw in collection::vec(any::<char>(), 0..64).prop_map(String::from_iter)) {
        let texts = HEADS.iter().map(|head| format!("{head}{rest}")).chain([raw]);
        for text in texts {
            if UpgradeRequest::parse(&text).is_some() {
                prop_assert!(text.starts_with("GET "), "accepted {:?}", text);
            }
        }
    }
}
