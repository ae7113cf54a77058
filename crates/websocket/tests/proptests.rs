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

/// Any frame header: every opcode nibble (reserved ones included),
/// random FIN/RSV bits, and each length form (7-bit, 16-bit, 64-bit).
fn arb_frame_bytes() -> impl Strategy<Value = Vec<u8>> {
    (
        any::<u8>(),
        any::<bool>(),
        prop_oneof![Just(None::<u8>), Just(Some(126u8)), Just(Some(127u8))],
        collection::vec(any::<u8>(), 0..96),
    )
        .prop_map(|(b0, masked, long, rest)| {
            let len_byte = match long {
                Some(marker) => marker,
                None => rest.len().min(125) as u8,
            };
            let mut out = vec![b0, len_byte | if masked { 0x80 } else { 0 }];
            out.extend(rest);
            out
        })
}

proptest! {
    /// The upgrade parser reads attacker-controlled header bytes: on
    /// arbitrary text, and on arbitrary bytes after a real request
    /// line, it never panics, and what it accepts comes from its input.
    #[test]
    fn upgrade_parse_is_total_on_arbitrary_bytes(
        raw in collection::vec(any::<u8>(), 0..256),
        rest in arb_header_rest()) {
        let raw = String::from_utf8_lossy(&raw).into_owned();
        for text in [raw.clone(), format!("GET {rest}{raw}"), format!("GET {raw}{rest}")] {
            if let Some(req) = UpgradeRequest::parse(&text) {
                prop_assert!(text.contains(&req.target), "target not from {:?}", text);
                prop_assert!(text.contains(&req.key), "key not from {:?}", text);
            }
        }
    }

    /// `Frame::decode` on arbitrary bytes never panics, consumes no more
    /// than it was given and needs all of what it consumes (every
    /// shorter prefix asks for more bytes), and never yields a payload
    /// larger than `max_payload`.
    #[test]
    fn frame_decode_is_bounded_on_arbitrary_bytes(
        bytes in prop_oneof![arb_frame_bytes(), collection::vec(any::<u8>(), 0..64)],
        max_payload in prop_oneof![Just(1u64 << 20), 0u64..130]) {
        if let Ok(Some((frame, used))) = Frame::decode(&bytes, max_payload) {
            prop_assert!(used <= bytes.len());
            prop_assert!(frame.payload.len() as u64 <= max_payload);
            prop_assert_eq!(
                Frame::decode(&bytes[..used], max_payload),
                Ok(Some((frame, used)))
            );
            for cut in 0..used {
                prop_assert_eq!(Frame::decode(&bytes[..cut], max_payload), Ok(None));
            }
        }
    }

    /// Arbitrary frames fed to the decoder in arbitrary chunks, and the
    /// frames it yields pushed through a small-capped assembler: nothing
    /// panics, the decoder holds no more than it was fed, no data
    /// message or partial one exceeds the cap, and the assembler never
    /// yields more messages than frames it was pushed.
    #[test]
    fn fragmented_assembly_is_bounded_on_arbitrary_frames(
        frames in collection::vec(arb_frame_bytes(), 0..12),
        chunk in 1usize..40,
        max_message in 0usize..200) {
        let wire = frames.concat();
        let mut dec = FrameDecoder::with_max_payload(300);
        let mut asm = MessageAssembler::with_max_message(max_message);
        let (mut fed, mut pushed, mut assembled) = (0, 0, 0);
        for c in wire.chunks(chunk) {
            fed += c.len();
            let Ok(decoded) = dec.feed(c) else {
                break;
            };
            prop_assert!(dec.buffered() <= fed);
            for frame in decoded {
                pushed += 1;
                if let Ok(Some(msg)) = asm.push(frame) {
                    assembled += 1;
                    if let Message::Binary(b) = &msg {
                        prop_assert!(b.len() <= max_message);
                    }
                }
                prop_assert!(asm.buffered() <= max_message);
            }
        }
        prop_assert!(assembled <= pushed);
    }
}

/// Everything a decoder yields from `wire` fed in `chunks`-sized calls
/// to [`FrameDecoder::feed_each`], up to and including the first error,
/// and its counters and buffer after the last call.
fn decode_in_chunks(wire: &[u8], chunk: usize) -> (Vec<Frame>, Option<String>, [u64; 3]) {
    let mut dec = FrameDecoder::with_max_payload(300);
    let mut frames = Vec::new();
    let mut error = None;
    for c in wire.chunks(chunk) {
        if let Err(e) = dec.feed_each(c, |f| frames.push(f)) {
            error = Some(e.to_string());
            break;
        }
    }
    let counters = [dec.frames_decoded, dec.bytes_decoded, dec.buffered() as u64];
    (frames, error, counters)
}

proptest! {
    /// `feed_each` over any chunking of a stream of valid and invalid
    /// frames yields exactly what byte-at-a-time `feed` yields: the same
    /// frames in order, the same first error, the same counters, and the
    /// same bytes left buffered.
    #[test]
    fn feed_each_equals_byte_at_a_time_feed(
        frames in collection::vec(
            prop_oneof![
                arb_frame_bytes(),
                (collection::vec(any::<u8>(), 0..400), proptest::option::of(any::<[u8; 4]>()))
                    .prop_map(|(payload, mask)| Frame { fin: true, opcode: Opcode::Binary, mask, payload }.encode()),
            ],
            0..10),
        chunk in prop_oneof![1usize..40, Just(usize::MAX)]) {
        let wire = frames.concat();
        let mut dec = FrameDecoder::with_max_payload(300);
        let mut want = Vec::new();
        let mut want_error = None;
        for b in &wire {
            match dec.feed(std::slice::from_ref(b)) {
                Ok(fs) => want.extend(fs),
                Err(e) => {
                    want_error = Some(e.to_string());
                    break;
                }
            }
        }
        let want_counters = [dec.frames_decoded, dec.bytes_decoded, dec.buffered() as u64];
        let (got, got_error, got_counters) = decode_in_chunks(&wire, chunk.min(wire.len().max(1)));
        prop_assert_eq!(got, want);
        prop_assert_eq!(got_error, want_error.clone());
        if want_error.is_none() {
            prop_assert_eq!(got_counters, want_counters);
        } else {
            // The error falls on the same frame, so the same frames were
            // counted; the buffer holds what the failing call was given
            // from the bad frame on, which depends on the chunking.
            prop_assert_eq!(&got_counters[..2], &want_counters[..2]);
        }
    }
}
