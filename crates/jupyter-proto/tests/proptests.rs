//! Property tests: wire framing and signing invariants under arbitrary
//! content, plus notebook JSON round-trips.

use ja_crypto::hmac::HmacSha256;
use ja_jupyter_proto::messages::{Header, MsgType};
use ja_jupyter_proto::nbformat::{Cell, Notebook};
use ja_jupyter_proto::wire::WireMessage;
use proptest::prelude::*;

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
        let header = Header::new(MsgType::ExecuteRequest, "s", "u", 1, 2);
        let content_json = serde_json::to_string(&serde_json::json!({"code": content})).unwrap();
        let mac = HmacSha256::new(&key);
        let mut m = WireMessage::build(Some(&mac), ids, &header, None, content_json);
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
        let header = Header::new(MsgType::ExecuteRequest, "s", "u", 0, 0);
        let mac = HmacSha256::new(&key);
        let m = WireMessage::build(Some(&mac), vec![], &header, None, "{\"code\":\"x\"}".into());
        let mut bad = m.clone();
        // Append a visible character; guaranteed to change the bytes.
        bad.content.push((0x21 + (tamper % 0x5e)) as char);
        prop_assert!(!bad.verify(Some(&mac)));
    }

    /// Decoding a prefix never panics and never yields a message.
    #[test]
    fn wire_prefix_is_incomplete(cut_frac in 0.0f64..1.0) {
        let header = Header::new(MsgType::Status, "s", "u", 0, 0);
        let mac = HmacSha256::new(b"k");
        let m = WireMessage::build(Some(&mac), vec![b"id".to_vec()], &header, None, "{}".into());
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
