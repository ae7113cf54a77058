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
//! session runs the HMAC key schedule once, not once per message. This
//! module reproduces that framing exactly, plus a length-prefixed byte
//! encoding standing in for ZMQ's own framing so messages can ride the
//! `netsim` byte streams and WebSocket frames.

use crate::messages::{Header, MsgType};
use ja_crypto::hmac::{self, HmacSha256};

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
    /// `parent_header` is the parent's serialized header JSON (`None` ⇒
    /// `{}`), so a kernel answering one request with several replies
    /// serializes the request header once.
    pub fn build(
        mac: Option<&HmacSha256>,
        identities: Vec<Vec<u8>>,
        header: &Header,
        parent_header: Option<&str>,
        content_json: String,
    ) -> Self {
        let mut msg = WireMessage {
            identities,
            signature: String::new(),
            header: serde_json::to_string(header).expect("header serializes"),
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
        self.parsed_header().ok().map(|h| h.msg_type)
    }

    /// The multipart view (identities, delimiter, signature, 4 dict
    /// parts, buffers) — the exact ZMQ part sequence.
    pub fn to_parts(&self) -> Vec<Vec<u8>> {
        let mut parts = self.identities.clone();
        parts.push(DELIMITER.to_vec());
        parts.push(self.signature.as_bytes().to_vec());
        parts.push(self.header.as_bytes().to_vec());
        parts.push(self.parent_header.as_bytes().to_vec());
        parts.push(self.metadata.as_bytes().to_vec());
        parts.push(self.content.as_bytes().to_vec());
        parts.extend(self.buffers.iter().cloned());
        parts
    }

    /// Rebuild from a multipart part sequence.
    pub fn from_parts(parts: Vec<Vec<u8>>) -> Result<Self, WireError> {
        let delim_idx = parts
            .iter()
            .position(|p| p == DELIMITER)
            .ok_or(WireError::MissingDelimiter)?;
        let payload = &parts[delim_idx + 1..];
        if payload.len() < 5 {
            return Err(WireError::TruncatedMessage);
        }
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        Ok(WireMessage {
            identities: parts[..delim_idx].to_vec(),
            signature: text(&payload[0]),
            header: text(&payload[1]),
            parent_header: text(&payload[2]),
            metadata: text(&payload[3]),
            content: text(&payload[4]),
            buffers: payload[5..].to_vec(),
        })
    }

    /// Serialize to a length-prefixed byte stream (u32-BE part count,
    /// then u32-BE length + bytes per part) — the stand-in for ZMQ's
    /// framing used on simulated TCP/WebSocket transports.
    pub fn encode(&self) -> Vec<u8> {
        let parts = self.to_parts();
        let mut out = Vec::with_capacity(4 + parts.iter().map(|p| 4 + p.len()).sum::<usize>());
        out.extend_from_slice(&(parts.len() as u32).to_be_bytes());
        for p in &parts {
            out.extend_from_slice(&(p.len() as u32).to_be_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    /// Decode one message from the front of `buf`; returns the message
    /// and bytes consumed, or `None` if more bytes are needed.
    pub fn decode(buf: &[u8]) -> Result<Option<(Self, usize)>, WireError> {
        if buf.len() < 4 {
            return Ok(None);
        }
        let nparts = u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        if nparts > 1024 {
            return Err(WireError::BadFraming);
        }
        let mut pos = 4usize;
        let mut parts = Vec::with_capacity(nparts);
        for _ in 0..nparts {
            if buf.len() < pos + 4 {
                return Ok(None);
            }
            let len =
                u32::from_be_bytes([buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]]) as usize;
            if len > 256 * 1024 * 1024 {
                return Err(WireError::BadFraming);
            }
            pos += 4;
            if buf.len() < pos + len {
                return Ok(None);
            }
            parts.push(buf[pos..pos + len].to_vec());
            pos += len;
        }
        Ok(Some((Self::from_parts(parts)?, pos)))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{ExecuteRequest, MsgType};

    fn key() -> Vec<u8> {
        b"test-signing-key".to_vec()
    }

    /// The keyed MAC a session holds for `key` (`None` when unsigned).
    fn mac(key: &[u8]) -> Option<HmacSha256> {
        (!key.is_empty()).then(|| HmacSha256::new(key))
    }

    fn sample(key: &[u8]) -> WireMessage {
        let h = Header::new(MsgType::ExecuteRequest, "sess-1", "alice", 0, 100);
        let content = serde_json::to_string(&ExecuteRequest::new("print(42)")).unwrap();
        WireMessage::build(
            mac(key).as_ref(),
            vec![b"client-7".to_vec()],
            &h,
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

    #[test]
    fn parts_round_trip() {
        let m = sample(&key());
        let back = WireMessage::from_parts(m.to_parts()).unwrap();
        assert_eq!(back, m);
        assert!(back.verify(mac(&key()).as_ref()));
    }

    #[test]
    fn missing_delimiter_rejected() {
        let parts = vec![b"id".to_vec(), b"sig".to_vec()];
        assert_eq!(
            WireMessage::from_parts(parts),
            Err(WireError::MissingDelimiter)
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let parts = vec![DELIMITER.to_vec(), b"sig".to_vec(), b"h".to_vec()];
        assert_eq!(
            WireMessage::from_parts(parts),
            Err(WireError::TruncatedMessage)
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let mut m = sample(&key());
        m.buffers.push(vec![0u8; 100]);
        let bytes = m.encode();
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
        let h = Header::new(MsgType::Status, "sess-1", "alice", 1, 200);
        let b = WireMessage::build(
            mac(&key()).as_ref(),
            vec![],
            &h,
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
