//! The kernel wire protocol: multipart messages with HMAC-SHA256 signing.
//!
//! On the real wire a message is a ZMQ multipart:
//!
//! ```text
//! [identities…] <IDS|MSG> signature header parent_header metadata content [buffers…]
//! ```
//!
//! where `signature = HMAC-SHA256(key, header ‖ parent_header ‖ metadata ‖
//! content)` over the serialized JSON bytes. Signing and verification take
//! the session's keyed [`HmacSha256`] rather than raw key bytes, so a
//! session runs the HMAC key schedule once, not once per message.
//!
//! Messages ride the `netsim` byte streams and WebSocket frames in a
//! length-prefixed encoding that stands in for ZMQ's own framing: a
//! u32-BE part count, then a u32-BE length and the bytes of each part.
//! There are two views of a message:
//!
//! - [`WireMessage`] owns its parts. Kernels and clients build, sign and
//!   encode it. [`WireMessage::encode_into`] appends the encoding to a
//!   buffer the caller owns, so a sender can put a frame header in front
//!   and transform the whole buffer in place;
//!   [`WireMessage::encoded_len`] says beforehand how long it will be,
//!   and [`WireMessage::encode`] is `encode_into` on a fresh `Vec`.
//! - [`WireView`] borrows them from the buffer it was decoded from. It is
//!   what the sensor decodes every kernel message into: each JSON part is
//!   a `&str` into the buffer, copied only where `from_utf8_lossy` must
//!   replace invalid bytes. [`WireMessage::decode`] is this decode plus
//!   [`WireView::into_owned`].
//!
//! Both views read the message type with one borrowing pass over the
//! header JSON that keeps nothing but the type; it returns exactly what
//! parsing the header into a [`Header`] and reading its
//! `msg_type` returns.

use crate::messages::{Header, MsgType};
use ja_crypto::hmac::{self, HmacSha256};
use serde::json::Tokenizer;
use serde::DeError;
use std::borrow::Cow;

/// The six fields of a header, in declaration order.
const HEADER_FIELDS: [&str; 6] = [
    "msg_id", "session", "username", "date", "msg_type", "version",
];

/// The message type of the header JSON `header`, if it parses as a
/// [`Header`]: an object (and nothing after it) whose
/// first occurrence of each of the six fields is a string, `msg_type` a
/// known type's name. A repeated field is only checked to be valid
/// JSON, like any unknown key. Nothing is allocated unless a key or
/// string value has escapes or the header is rejected.
fn msg_type_of(header: &str) -> Option<MsgType> {
    let mut tok = Tokenizer::new(header);
    if tok.peek() != Some(b'{') {
        return None;
    }
    let mut seen = [false; HEADER_FIELDS.len()];
    let mut msg_type = None;
    tok.object(|tok, key| {
        match HEADER_FIELDS.iter().position(|f| *f == key) {
            Some(i) if !seen[i] => {
                seen[i] = true;
                if tok.peek() != Some(b'"') {
                    return Err(DeError::custom("expected string"));
                }
                let value = tok.string()?;
                if HEADER_FIELDS[i] == "msg_type" {
                    msg_type = Some(
                        MsgType::from_name(&value)
                            .ok_or_else(|| DeError::custom("unknown MsgType"))?,
                    );
                }
            }
            _ => tok.skip()?,
        }
        Ok(())
    })
    .ok()?;
    tok.finish().ok()?;
    if seen.contains(&false) {
        return None;
    }
    msg_type
}

/// The ZMQ delimiter separating routing identities from the payload.
pub const DELIMITER: &[u8] = b"<IDS|MSG>";

/// A kernel-protocol message as it appears on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireMessage {
    /// ZMQ routing identities (router/dealer prefixes).
    pub identities: Vec<Vec<u8>>,
    /// Hex HMAC signature (empty when signing is disabled).
    pub signature: String,
    /// Serialized header JSON.
    pub header: String,
    /// Serialized parent header JSON (`{}` when none).
    pub parent_header: String,
    /// Serialized metadata JSON.
    pub metadata: String,
    /// Serialized content JSON.
    pub content: String,
    /// Raw binary buffers (display payloads; exfil channel).
    pub buffers: Vec<Vec<u8>>,
}

/// Errors in parsing or verifying wire messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Multipart had no `<IDS|MSG>` delimiter.
    MissingDelimiter,
    /// Fewer than the five required parts after the delimiter.
    TruncatedMessage,
    /// The HMAC signature did not verify.
    BadSignature,
    /// The byte-stream framing was malformed.
    BadFraming,
    /// Header JSON did not parse.
    BadHeader,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            WireError::MissingDelimiter => "missing <IDS|MSG> delimiter",
            WireError::TruncatedMessage => "fewer than 5 payload parts",
            WireError::BadSignature => "HMAC signature verification failed",
            WireError::BadFraming => "malformed length-prefixed framing",
            WireError::BadHeader => "header JSON did not parse",
        };
        f.write_str(s)
    }
}

impl std::error::Error for WireError {}

impl WireMessage {
    /// Build and sign a message with `mac`, a keyed [`HmacSha256`] the
    /// caller keeps for the session; it is cloned, never consumed, so the
    /// key schedule is paid once per session rather than per message.
    /// `None` ⇒ unsigned (the misconfigured deployments do this).
    ///
    /// `header` is the serialized header JSON (see
    /// [`crate::messages::header_json`]). `parent_header` is the
    /// parent's serialized header JSON (`None` ⇒ `{}`), so a kernel
    /// answering one request with several replies serializes the
    /// request header once.
    pub fn build(
        mac: Option<&HmacSha256>,
        identities: Vec<Vec<u8>>,
        header: String,
        parent_header: Option<&str>,
        content_json: String,
    ) -> Self {
        let mut msg = WireMessage {
            identities,
            signature: String::new(),
            header,
            parent_header: parent_header.unwrap_or("{}").to_string(),
            metadata: "{}".to_string(),
            content: content_json,
            buffers: Vec::new(),
        };
        if let Some(mac) = mac {
            msg.signature = ja_crypto::hex::encode(&msg.tag(mac));
        }
        msg
    }

    /// HMAC of `header ‖ parent_header ‖ metadata ‖ content` under a
    /// clone of `mac`.
    fn tag(&self, mac: &HmacSha256) -> [u8; 32] {
        let mut mac = mac.clone();
        mac.update(self.header.as_bytes())
            .update(self.parent_header.as_bytes())
            .update(self.metadata.as_bytes())
            .update(self.content.as_bytes());
        mac.finalize()
    }

    /// Verify the signature under `mac`, the receiving session's keyed
    /// [`HmacSha256`]. Unsigned messages verify only when `mac` is also
    /// `None` (i.e. signing disabled consistently).
    pub fn verify(&self, mac: Option<&HmacSha256>) -> bool {
        let Some(mac) = mac else {
            return self.signature.is_empty();
        };
        let Ok(tag) = ja_crypto::hex::decode(&self.signature) else {
            return false;
        };
        hmac::ct_eq(&self.tag(mac), &tag)
    }

    /// Parse the header JSON back into a typed [`Header`].
    pub fn parsed_header(&self) -> Result<Header, WireError> {
        serde_json::from_str(&self.header).map_err(|_| WireError::BadHeader)
    }

    /// Message type, if the header parses.
    pub fn msg_type(&self) -> Option<MsgType> {
        msg_type_of(&self.header)
    }

    /// The parts in wire order: the identities, the delimiter, the
    /// signature, the four dicts and the buffers, the exact ZMQ part
    /// sequence.
    fn parts(&self) -> impl Iterator<Item = &[u8]> {
        let dicts = [
            DELIMITER,
            self.signature.as_bytes(),
            self.header.as_bytes(),
            self.parent_header.as_bytes(),
            self.metadata.as_bytes(),
            self.content.as_bytes(),
        ];
        self.identities
            .iter()
            .map(Vec::as_slice)
            .chain(dicts)
            .chain(self.buffers.iter().map(Vec::as_slice))
    }

    /// Byte length of the length-prefixed encoding.
    pub fn encoded_len(&self) -> usize {
        4 + self.parts().map(|p| 4 + p.len()).sum::<usize>()
    }

    /// Append the length-prefixed encoding (see the module docs) to
    /// `out`: the part count, then each part's length and bytes.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.reserve(self.encoded_len());
        out.extend_from_slice(&(self.parts().count() as u32).to_be_bytes());
        for p in self.parts() {
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            out.extend_from_slice(p);
        }
    }

    /// The length-prefixed encoding in a new buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode one message from the front of `buf`; returns the message
    /// and bytes consumed, or `None` if more bytes are needed.
    pub fn decode(buf: &[u8]) -> Result<Option<(Self, usize)>, WireError> {
        Ok(WireView::decode(buf)?.map(|(view, used)| (view.into_owned(), used)))
    }

    /// Total payload bytes (for traffic accounting).
    pub fn payload_len(&self) -> usize {
        self.header.len()
            + self.parent_header.len()
            + self.metadata.len()
            + self.content.len()
            + self.buffers.iter().map(Vec::len).sum::<usize>()
    }
}

/// A kernel-protocol message borrowed from the buffer it was decoded
/// from. The fields mean what [`WireMessage`]'s do; a JSON part is
/// owned only when its bytes are not valid UTF-8 and had to be replaced.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireView<'a> {
    /// ZMQ routing identities.
    pub identities: Vec<&'a [u8]>,
    /// Hex HMAC signature (empty when signing is disabled).
    pub signature: Cow<'a, str>,
    /// Serialized header JSON.
    pub header: Cow<'a, str>,
    /// Serialized parent header JSON.
    pub parent_header: Cow<'a, str>,
    /// Serialized metadata JSON.
    pub metadata: Cow<'a, str>,
    /// Serialized content JSON.
    pub content: Cow<'a, str>,
    /// Raw binary buffers.
    pub buffers: Vec<&'a [u8]>,
}

impl<'a> WireView<'a> {
    /// Decode one message from the front of `buf`; returns the view and
    /// bytes consumed, or `None` if more bytes are needed. Framing
    /// errors and missing bytes are reported as the parts are read; a
    /// missing delimiter or fewer than five parts after it only once
    /// every part is there.
    pub fn decode(buf: &'a [u8]) -> Result<Option<(Self, usize)>, WireError> {
        let be32 = |at: usize| {
            buf.get(at..at + 4)
                .map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]) as usize)
        };
        let Some(nparts) = be32(0) else {
            return Ok(None);
        };
        if nparts > 1024 {
            return Err(WireError::BadFraming);
        }
        let mut pos = 4usize;
        let mut identities = Vec::new();
        // The signature and four dicts, once the delimiter is seen.
        let mut payload: Option<([&[u8]; 5], usize)> = None;
        let mut buffers = Vec::new();
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
            pos += len;
            match &mut payload {
                None if part == DELIMITER => payload = Some(([&[]; 5], 0)),
                None => identities.push(part),
                Some((dicts, n)) if *n < dicts.len() => {
                    dicts[*n] = part;
                    *n += 1;
                }
                Some(_) => buffers.push(part),
            }
        }
        let [signature, header, parent_header, metadata, content] = match payload {
            None => return Err(WireError::MissingDelimiter),
            Some((_, n)) if n < 5 => return Err(WireError::TruncatedMessage),
            Some((dicts, _)) => dicts.map(|part| match std::str::from_utf8(part) {
                Ok(text) => Cow::Borrowed(text),
                Err(_) => String::from_utf8_lossy(part),
            }),
        };
        let view = WireView {
            identities,
            signature,
            header,
            parent_header,
            metadata,
            content,
            buffers,
        };
        Ok(Some((view, pos)))
    }

    /// Message type, if the header parses.
    pub fn msg_type(&self) -> Option<MsgType> {
        msg_type_of(&self.header)
    }

    /// Total payload bytes, as [`WireMessage::payload_len`] counts them.
    pub fn payload_len(&self) -> usize {
        self.header.len()
            + self.parent_header.len()
            + self.metadata.len()
            + self.content.len()
            + self.buffers.iter().map(|b| b.len()).sum::<usize>()
    }

    /// Copy the view into an owned [`WireMessage`].
    pub fn into_owned(self) -> WireMessage {
        let owned = |parts: Vec<&[u8]>| parts.into_iter().map(<[u8]>::to_vec).collect();
        WireMessage {
            identities: owned(self.identities),
            signature: self.signature.into_owned(),
            header: self.header.into_owned(),
            parent_header: self.parent_header.into_owned(),
            metadata: self.metadata.into_owned(),
            content: self.content.into_owned(),
            buffers: owned(self.buffers),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{header_json, ExecuteRequest, MsgType};

    fn key() -> Vec<u8> {
        b"test-signing-key".to_vec()
    }

    /// The keyed MAC a session holds for `key` (`None` when unsigned).
    fn mac(key: &[u8]) -> Option<HmacSha256> {
        (!key.is_empty()).then(|| HmacSha256::new(key))
    }

    fn sample(key: &[u8]) -> WireMessage {
        let h = header_json(MsgType::ExecuteRequest, "sess-1", "alice", 0, 100);
        let content = serde_json::to_string(&ExecuteRequest::new("print(42)")).unwrap();
        WireMessage::build(
            mac(key).as_ref(),
            vec![b"client-7".to_vec()],
            h,
            None,
            content,
        )
    }

    #[test]
    fn build_verifies_under_same_key() {
        let m = sample(&key());
        assert!(m.verify(mac(&key()).as_ref()));
        assert!(!m.verify(mac(b"wrong-key").as_ref()));
    }

    #[test]
    fn unsigned_message_requires_unsigned_verification() {
        let m = sample(&[]);
        assert!(m.signature.is_empty());
        assert!(m.verify(mac(&[]).as_ref()));
        assert!(!m.verify(mac(&key()).as_ref()));
    }

    #[test]
    fn tampered_content_fails_verification() {
        let mut m = sample(&key());
        m.content = m.content.replace("42", "43");
        assert!(!m.verify(mac(&key()).as_ref()));
    }

    #[test]
    fn tampered_header_fails_verification() {
        let mut m = sample(&key());
        m.header = m.header.replace("alice", "mallory");
        assert!(!m.verify(mac(&key()).as_ref()));
    }

    /// The length-prefixed encoding of an arbitrary part sequence.
    fn frame(parts: &[&[u8]]) -> Vec<u8> {
        let mut out = (parts.len() as u32).to_be_bytes().to_vec();
        for p in parts {
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn parts_round_trip() {
        let m = sample(&key());
        let bytes = m.encode();
        let mut parts: Vec<&[u8]> = vec![b"client-7", DELIMITER, m.signature.as_bytes()];
        parts.extend([&m.header, &m.parent_header, &m.metadata, &m.content].map(|p| p.as_bytes()));
        assert_eq!(
            bytes,
            frame(&parts),
            "encode writes the exact ZMQ part sequence"
        );
        let (back, _) = WireMessage::decode(&bytes).unwrap().unwrap();
        assert_eq!(back, m);
        assert!(back.verify(mac(&key()).as_ref()));
    }

    #[test]
    fn missing_delimiter_rejected() {
        let bytes = frame(&[b"id", b"sig"]);
        assert_eq!(
            WireMessage::decode(&bytes),
            Err(WireError::MissingDelimiter)
        );
        assert_eq!(WireView::decode(&bytes), Err(WireError::MissingDelimiter));
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = frame(&[DELIMITER, b"sig", b"h"]);
        assert_eq!(
            WireMessage::decode(&bytes),
            Err(WireError::TruncatedMessage)
        );
        assert_eq!(WireView::decode(&bytes), Err(WireError::TruncatedMessage));
    }

    #[test]
    fn view_borrows_valid_parts_and_replaces_invalid_utf8() {
        let m = sample(&key());
        let bytes = m.encode();
        let (view, used) = WireView::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert!(matches!(view.header, Cow::Borrowed(_)));
        assert!(matches!(view.content, Cow::Borrowed(_)));
        assert_eq!(view.msg_type(), Some(MsgType::ExecuteRequest));
        assert_eq!(view.payload_len(), m.payload_len());
        assert_eq!(view.into_owned(), m);

        let bytes = frame(&[DELIMITER, b"", b"{\xff}", b"{}", b"{}", b"{}", b"\xff"]);
        let (view, _) = WireView::decode(&bytes).unwrap().unwrap();
        assert_eq!(view.header, "{\u{fffd}}");
        assert_eq!(view.buffers, vec![&b"\xff"[..]]);
        assert_eq!(view.msg_type(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut m = sample(&key());
        m.buffers.push(vec![0u8; 100]);
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.encoded_len());
        let mut appended = b"prefix".to_vec();
        m.encode_into(&mut appended);
        assert_eq!(&appended[..6], b"prefix");
        assert_eq!(&appended[6..], &bytes[..]);
        let (back, used) = WireMessage::decode(&bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, m);
    }

    #[test]
    fn decode_incremental() {
        let m = sample(&key());
        let bytes = m.encode();
        for cut in 0..bytes.len() {
            assert!(
                WireMessage::decode(&bytes[..cut]).unwrap().is_none(),
                "cut {cut}"
            );
        }
    }

    #[test]
    fn decode_two_messages_back_to_back() {
        let a = sample(&key());
        let h = header_json(MsgType::Status, "sess-1", "alice", 1, 200);
        let b = WireMessage::build(
            mac(&key()).as_ref(),
            vec![],
            h,
            None,
            "{\"execution_state\":\"busy\"}".into(),
        );
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let (first, used) = WireMessage::decode(&wire).unwrap().unwrap();
        assert_eq!(first, a);
        let (second, used2) = WireMessage::decode(&wire[used..]).unwrap().unwrap();
        assert_eq!(second, b);
        assert_eq!(used + used2, wire.len());
    }

    #[test]
    fn absurd_part_count_rejected() {
        let mut bytes = (2000u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 16]);
        assert_eq!(WireMessage::decode(&bytes), Err(WireError::BadFraming));
    }

    #[test]
    fn header_parses_back() {
        let m = sample(&key());
        assert_eq!(m.msg_type(), Some(MsgType::ExecuteRequest));
        let h = m.parsed_header().unwrap();
        assert_eq!(h.username, "alice");
    }

    #[test]
    fn signature_is_hmac_of_four_dicts() {
        // Cross-check against a manual HMAC computation.
        let m = sample(&key());
        let tag = ja_crypto::hmac::hmac_sha256_parts(
            &key(),
            &[
                m.header.as_bytes(),
                m.parent_header.as_bytes(),
                m.metadata.as_bytes(),
                m.content.as_bytes(),
            ],
        );
        assert_eq!(m.signature, ja_crypto::hex::encode(&tag));
    }

    #[test]
    fn payload_len_counts_everything() {
        let mut m = sample(&key());
        let base = m.payload_len();
        m.buffers.push(vec![1, 2, 3]);
        assert_eq!(m.payload_len(), base + 3);
    }
}
