//! WebSocket frame model and single-frame encode/decode (RFC 6455 §5.2).

/// Frame opcodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Opcode {
    /// Continuation of a fragmented message.
    Continuation,
    /// UTF-8 text frame.
    Text,
    /// Binary frame (Jupyter's ZMQ-over-WS payloads use binary).
    Binary,
    /// Connection close control frame.
    Close,
    /// Ping control frame.
    Ping,
    /// Pong control frame.
    Pong,
}

impl Opcode {
    /// Numeric opcode value.
    pub fn to_u8(self) -> u8 {
        match self {
            Opcode::Continuation => 0x0,
            Opcode::Text => 0x1,
            Opcode::Binary => 0x2,
            Opcode::Close => 0x8,
            Opcode::Ping => 0x9,
            Opcode::Pong => 0xa,
        }
    }

    /// Parse a numeric opcode; reserved values are rejected.
    pub fn from_u8(v: u8) -> Option<Opcode> {
        match v {
            0x0 => Some(Opcode::Continuation),
            0x1 => Some(Opcode::Text),
            0x2 => Some(Opcode::Binary),
            0x8 => Some(Opcode::Close),
            0x9 => Some(Opcode::Ping),
            0xa => Some(Opcode::Pong),
            _ => None,
        }
    }

    /// Control frames (close/ping/pong) must not be fragmented and are
    /// limited to 125-byte payloads.
    pub fn is_control(self) -> bool {
        matches!(self, Opcode::Close | Opcode::Ping | Opcode::Pong)
    }
}

/// A single WebSocket frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Frame {
    /// Final fragment flag.
    pub fin: bool,
    /// Frame opcode.
    pub opcode: Opcode,
    /// Masking key (present on client→server frames).
    pub mask: Option<[u8; 4]>,
    /// Unmasked payload bytes.
    pub payload: Vec<u8>,
}

/// Errors produced while decoding a frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// A reserved opcode value was encountered.
    ReservedOpcode(u8),
    /// One of RSV1-3 was set (no extension negotiated).
    ReservedBitsSet,
    /// A control frame was fragmented or oversized.
    InvalidControlFrame,
    /// Payload length exceeded the decoder's configured maximum.
    TooLarge(u64),
    /// 64-bit length had the high bit set (forbidden by the RFC).
    BadLength,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::ReservedOpcode(op) => write!(f, "reserved opcode 0x{op:x}"),
            FrameError::ReservedBitsSet => write!(f, "RSV bits set without extension"),
            FrameError::InvalidControlFrame => write!(f, "fragmented or oversized control frame"),
            FrameError::TooLarge(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            FrameError::BadLength => write!(f, "64-bit length with high bit set"),
        }
    }
}

impl std::error::Error for FrameError {}

impl Frame {
    /// An unmasked (server→client) data/control frame.
    pub fn unmasked(opcode: Opcode, payload: Vec<u8>) -> Self {
        Frame {
            fin: true,
            opcode,
            mask: None,
            payload,
        }
    }

    /// A masked (client→server) frame with the given masking key.
    pub fn masked(opcode: Opcode, payload: Vec<u8>, key: [u8; 4]) -> Self {
        Frame {
            fin: true,
            opcode,
            mask: Some(key),
            payload,
        }
    }

    /// Byte length of the encoded frame.
    pub fn encoded_len(&self) -> usize {
        header_len(self.payload.len(), self.mask.is_some()) + self.payload.len()
    }

    /// Encode the frame to bytes (applying the mask if present).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        write_header(
            &mut out,
            self.fin,
            self.opcode,
            self.mask,
            self.payload.len(),
        );
        let start = out.len();
        out.extend_from_slice(&self.payload);
        if let Some(key) = self.mask {
            apply_mask(&mut out[start..], key);
        }
        out
    }

    /// Attempt to decode one frame from the front of `buf`.
    ///
    /// Returns `Ok(None)` if more bytes are needed, or
    /// `Ok(Some((frame, consumed)))` on success. `max_payload` bounds
    /// accepted payload sizes (DoS hygiene — the monitor enforces this
    /// just as Zeek's analyzer does).
    pub fn decode(buf: &[u8], max_payload: u64) -> Result<Option<(Frame, usize)>, FrameError> {
        if buf.len() < 2 {
            return Ok(None);
        }
        let b0 = buf[0];
        let b1 = buf[1];
        if b0 & 0x70 != 0 {
            return Err(FrameError::ReservedBitsSet);
        }
        let fin = b0 & 0x80 != 0;
        let opcode = Opcode::from_u8(b0 & 0x0f).ok_or(FrameError::ReservedOpcode(b0 & 0x0f))?;
        let masked = b1 & 0x80 != 0;
        let len7 = (b1 & 0x7f) as u64;
        let mut pos = 2usize;
        let payload_len = match len7 {
            126 => {
                if buf.len() < pos + 2 {
                    return Ok(None);
                }
                let l = u16::from_be_bytes([buf[pos], buf[pos + 1]]) as u64;
                pos += 2;
                l
            }
            127 => {
                if buf.len() < pos + 8 {
                    return Ok(None);
                }
                let mut b = [0u8; 8];
                b.copy_from_slice(&buf[pos..pos + 8]);
                let l = u64::from_be_bytes(b);
                if l & (1 << 63) != 0 {
                    return Err(FrameError::BadLength);
                }
                pos += 8;
                l
            }
            n => n,
        };
        if opcode.is_control() && (!fin || payload_len > 125) {
            return Err(FrameError::InvalidControlFrame);
        }
        if payload_len > max_payload {
            return Err(FrameError::TooLarge(payload_len));
        }
        let mask = if masked {
            if buf.len() < pos + 4 {
                return Ok(None);
            }
            let key = [buf[pos], buf[pos + 1], buf[pos + 2], buf[pos + 3]];
            pos += 4;
            Some(key)
        } else {
            None
        };
        let plen = payload_len as usize;
        if buf.len() < pos + plen {
            return Ok(None);
        }
        let mut payload = buf[pos..pos + plen].to_vec();
        if let Some(key) = mask {
            apply_mask(&mut payload, key);
        }
        Ok(Some((
            Frame {
                fin,
                opcode,
                mask,
                payload,
            },
            pos + plen,
        )))
    }
}

/// Byte length of the header of a frame carrying `payload_len` bytes:
/// two bytes, the extended length if any, and the masking key if
/// `masked`.
pub fn header_len(payload_len: usize, masked: bool) -> usize {
    let len_field = if payload_len < 126 {
        0
    } else if payload_len <= u16::MAX as usize {
        2
    } else {
        8
    };
    2 + len_field + if masked { 4 } else { 0 }
}

/// Append the header of a frame carrying `payload_len` bytes: the
/// FIN/opcode byte, the length in its shortest form and the masking
/// key. The payload goes after it, masked with [`apply_mask`] when
/// `mask` is set. [`Frame::encode`] is this plus the payload; a sender
/// that builds the payload in place writes the header first and the
/// payload straight after it, without a [`Frame`].
pub fn write_header(
    out: &mut Vec<u8>,
    fin: bool,
    opcode: Opcode,
    mask: Option<[u8; 4]>,
    payload_len: usize,
) {
    out.push((if fin { 0x80 } else { 0 }) | opcode.to_u8());
    let mask_bit = if mask.is_some() { 0x80 } else { 0 };
    if payload_len < 126 {
        out.push(mask_bit | payload_len as u8);
    } else if payload_len <= u16::MAX as usize {
        out.push(mask_bit | 126);
        out.extend_from_slice(&(payload_len as u16).to_be_bytes());
    } else {
        out.push(mask_bit | 127);
        out.extend_from_slice(&(payload_len as u64).to_be_bytes());
    }
    if let Some(key) = mask {
        out.extend_from_slice(&key);
    }
}

/// XOR `payload` with the masking key `key` repeated (RFC 6455 §5.3),
/// in place; masking twice restores the payload. Eight bytes at a time,
/// then the tail byte by byte.
pub fn apply_mask(payload: &mut [u8], key: [u8; 4]) {
    let wide = u64::from_ne_bytes([
        key[0], key[1], key[2], key[3], key[0], key[1], key[2], key[3],
    ]);
    let mut chunks = payload.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let word = u64::from_ne_bytes(chunk.try_into().expect("8-byte chunk")) ^ wide;
        chunk.copy_from_slice(&word.to_ne_bytes());
    }
    // Every whole chunk is 8 bytes, so the tail starts on key byte 0.
    for (i, b) in chunks.into_remainder().iter_mut().enumerate() {
        *b ^= key[i % 4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAX: u64 = 16 * 1024 * 1024;

    fn round_trip(frame: Frame) {
        let bytes = frame.encode();
        assert_eq!(bytes.len(), frame.encoded_len());
        let (got, used) = Frame::decode(&bytes, MAX).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(got, frame);
    }

    #[test]
    fn round_trip_small_unmasked() {
        round_trip(Frame::unmasked(Opcode::Text, b"Hello".to_vec()));
    }

    #[test]
    fn round_trip_small_masked() {
        round_trip(Frame::masked(
            Opcode::Text,
            b"Hello".to_vec(),
            [0x37, 0xfa, 0x21, 0x3d],
        ));
    }

    /// RFC 6455 §5.7 example: single-frame unmasked "Hello".
    #[test]
    fn rfc_example_unmasked_hello() {
        let f = Frame::unmasked(Opcode::Text, b"Hello".to_vec());
        assert_eq!(f.encode(), vec![0x81, 0x05, 0x48, 0x65, 0x6c, 0x6c, 0x6f]);
    }

    /// RFC 6455 §5.7 example: single-frame masked "Hello".
    #[test]
    fn rfc_example_masked_hello() {
        let f = Frame::masked(Opcode::Text, b"Hello".to_vec(), [0x37, 0xfa, 0x21, 0x3d]);
        assert_eq!(
            f.encode(),
            vec![0x81, 0x85, 0x37, 0xfa, 0x21, 0x3d, 0x7f, 0x9f, 0x4d, 0x51, 0x58]
        );
    }

    /// RFC 6455 §5.7 example: 256-byte binary → 16-bit extended length.
    #[test]
    fn rfc_example_256_bytes() {
        let f = Frame::unmasked(Opcode::Binary, vec![0u8; 256]);
        let enc = f.encode();
        assert_eq!(&enc[..4], &[0x82, 0x7E, 0x01, 0x00]);
        round_trip(f);
    }

    /// RFC 6455 §5.7 example: 64 KiB binary → 64-bit extended length.
    #[test]
    fn rfc_example_64k() {
        let f = Frame::unmasked(Opcode::Binary, vec![0u8; 65536]);
        let enc = f.encode();
        assert_eq!(
            &enc[..10],
            &[0x82, 0x7F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00]
        );
        round_trip(f);
    }

    #[test]
    fn boundary_lengths_round_trip() {
        for len in [0usize, 1, 125, 126, 127, 65535, 65536] {
            round_trip(Frame::unmasked(Opcode::Binary, vec![0xaa; len]));
            round_trip(Frame::masked(Opcode::Binary, vec![0xbb; len], [1, 2, 3, 4]));
        }
    }

    #[test]
    fn incomplete_input_returns_none() {
        let bytes = Frame::unmasked(Opcode::Text, b"Hello world".to_vec()).encode();
        for cut in 0..bytes.len() {
            assert_eq!(
                Frame::decode(&bytes[..cut], MAX).unwrap(),
                None,
                "cut {cut}"
            );
        }
    }

    #[test]
    fn reserved_opcode_rejected() {
        let bytes = vec![0x83, 0x00]; // opcode 0x3 is reserved
        assert_eq!(
            Frame::decode(&bytes, MAX),
            Err(FrameError::ReservedOpcode(3))
        );
    }

    #[test]
    fn rsv_bits_rejected() {
        let bytes = vec![0xC1, 0x00]; // RSV1 set
        assert_eq!(Frame::decode(&bytes, MAX), Err(FrameError::ReservedBitsSet));
    }

    #[test]
    fn fragmented_control_rejected() {
        let bytes = vec![0x09, 0x00]; // ping without FIN
        assert_eq!(
            Frame::decode(&bytes, MAX),
            Err(FrameError::InvalidControlFrame)
        );
    }

    #[test]
    fn oversized_control_rejected() {
        let mut f = Frame::unmasked(Opcode::Ping, vec![0u8; 126]);
        f.fin = true;
        let bytes = f.encode();
        assert_eq!(
            Frame::decode(&bytes, MAX),
            Err(FrameError::InvalidControlFrame)
        );
    }

    #[test]
    fn payload_limit_enforced() {
        let f = Frame::unmasked(Opcode::Binary, vec![0u8; 1024]);
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes, 512), Err(FrameError::TooLarge(1024)));
    }

    #[test]
    fn high_bit_length_rejected() {
        let mut bytes = vec![0x82, 0x7F];
        bytes.extend_from_slice(&(1u64 << 63).to_be_bytes());
        assert_eq!(Frame::decode(&bytes, MAX), Err(FrameError::BadLength));
    }

    #[test]
    fn apply_mask_equals_bytewise_xor() {
        let key = [0x37, 0xfa, 0x21, 0x3d];
        for len in 0..40usize {
            let plain: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(29)).collect();
            let mut masked = plain.clone();
            apply_mask(&mut masked, key);
            let want: Vec<u8> = plain
                .iter()
                .enumerate()
                .map(|(i, &b)| b ^ key[i % 4])
                .collect();
            assert_eq!(masked, want, "len {len}");
            apply_mask(&mut masked, key);
            assert_eq!(masked, plain, "len {len}");
        }
    }

    #[test]
    fn header_len_matches_write_header() {
        for len in [0usize, 125, 126, 65535, 65536] {
            for mask in [None, Some([1, 2, 3, 4])] {
                let mut out = Vec::new();
                write_header(&mut out, true, Opcode::Binary, mask, len);
                assert_eq!(out.len(), header_len(len, mask.is_some()), "len {len}");
            }
        }
    }

    #[test]
    fn trailing_bytes_not_consumed() {
        let mut bytes = Frame::unmasked(Opcode::Text, b"a".to_vec()).encode();
        let flen = bytes.len();
        bytes.extend_from_slice(b"extra");
        let (_, used) = Frame::decode(&bytes, MAX).unwrap().unwrap();
        assert_eq!(used, flen);
    }
}
