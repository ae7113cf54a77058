//! Streaming decoder and message assembler.
//!
//! [`FrameDecoder`] consumes raw bytes in arbitrary chunks — exactly what a
//! passive network analyzer sees after TCP reassembly — and yields frames.
//! Its one decode loop is [`FrameDecoder::feed_each`], which hands each
//! frame to a callback as it completes: it decodes straight from the
//! caller's bytes while nothing is buffered, and keeps (or compacts) its
//! buffer once per call rather than once per frame, so feeding a whole
//! side of a flow at once costs time linear in its length.
//! [`FrameDecoder::feed`] collects the same frames into a `Vec`.
//! [`MessageAssembler`] sits on top and reassembles fragmented messages
//! while letting interleaved control frames through, per RFC 6455 §5.4.

use crate::frame::{Frame, FrameError, Opcode};

/// Default payload cap (16 MiB), mirroring common server defaults.
pub const DEFAULT_MAX_PAYLOAD: u64 = 16 * 1024 * 1024;

/// Incremental frame decoder over a byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_payload: u64,
    /// Set once a protocol error occurs; the stream is then poisoned.
    failed: bool,
    /// Total frames decoded (analyzer statistics).
    pub frames_decoded: u64,
    /// Total payload bytes decoded.
    pub bytes_decoded: u64,
}

impl FrameDecoder {
    /// Decoder with the default payload cap.
    pub fn new() -> Self {
        FrameDecoder {
            buf: Vec::new(),
            max_payload: DEFAULT_MAX_PAYLOAD,
            failed: false,
            frames_decoded: 0,
            bytes_decoded: 0,
        }
    }

    /// Decoder with a custom payload cap.
    pub fn with_max_payload(max_payload: u64) -> Self {
        FrameDecoder {
            max_payload,
            ..Self::new()
        }
    }

    /// Bytes currently buffered awaiting a complete frame.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Whether the stream hit a protocol error.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Feed more bytes, handing every frame they complete to `on_frame`
    /// in stream order. Bytes after the last complete frame are kept for
    /// the next call. On a protocol error the frames before it have been
    /// handed over, the bytes from the bad frame on stay buffered, and
    /// the decoder is poisoned: every later call fails.
    pub fn feed_each(
        &mut self,
        data: &[u8],
        mut on_frame: impl FnMut(Frame),
    ) -> Result<(), FrameError> {
        if self.failed {
            return Err(FrameError::ReservedBitsSet); // poisoned; caller should have stopped
        }
        // With nothing buffered, decode straight from `data`; otherwise
        // from the buffer with `data` appended.
        let mut buf = std::mem::take(&mut self.buf);
        let from_buf = !buf.is_empty();
        if from_buf {
            buf.extend_from_slice(data);
        }
        let input = if from_buf { &buf[..] } else { data };
        let mut used = 0;
        let result = loop {
            match Frame::decode(&input[used..], self.max_payload) {
                Ok(Some((frame, n))) => {
                    used += n;
                    self.frames_decoded += 1;
                    self.bytes_decoded += frame.payload.len() as u64;
                    on_frame(frame);
                }
                Ok(None) => break Ok(()),
                Err(e) => {
                    self.failed = true;
                    break Err(e);
                }
            }
        };
        if from_buf {
            buf.drain(..used);
        } else {
            buf.extend_from_slice(&data[used..]);
        }
        self.buf = buf;
        result
    }

    /// Feed more bytes; returns all complete frames now available
    /// ([`FrameDecoder::feed_each`] collected into a `Vec`; on an error
    /// the frames before it are dropped with the call's result).
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<Frame>, FrameError> {
        let mut frames = Vec::new();
        self.feed_each(data, |frame| frames.push(frame))?;
        Ok(frames)
    }
}

/// A fully assembled WebSocket message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Message {
    /// Complete text message (fragments joined). Invalid UTF-8 is
    /// preserved as lossy text — the analyzer must not crash on hostile
    /// input.
    Text(String),
    /// Complete binary message (fragments joined).
    Binary(Vec<u8>),
    /// Ping with payload.
    Ping(Vec<u8>),
    /// Pong with payload.
    Pong(Vec<u8>),
    /// Close with optional (code, reason).
    Close(Option<(u16, String)>),
}

impl Message {
    /// Payload length of the message.
    pub fn len(&self) -> usize {
        match self {
            Message::Text(s) => s.len(),
            Message::Binary(b) | Message::Ping(b) | Message::Pong(b) => b.len(),
            Message::Close(Some((_, r))) => 2 + r.len(),
            Message::Close(None) => 0,
        }
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Errors from message assembly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AssemblyError {
    /// Continuation frame arrived with no message in progress.
    UnexpectedContinuation,
    /// A new data frame arrived while a fragmented message was in
    /// progress.
    InterleavedDataFrame,
    /// Total message size exceeded the limit.
    MessageTooLarge(usize),
}

impl std::fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssemblyError::UnexpectedContinuation => write!(f, "continuation without start"),
            AssemblyError::InterleavedDataFrame => {
                write!(f, "new data frame during fragmented message")
            }
            AssemblyError::MessageTooLarge(n) => write!(f, "assembled message of {n} bytes"),
        }
    }
}

impl std::error::Error for AssemblyError {}

/// Reassembles fragmented messages from a frame stream.
#[derive(Debug)]
pub struct MessageAssembler {
    partial: Option<(Opcode, Vec<u8>)>,
    max_message: usize,
    /// Completed messages count (analyzer statistics).
    pub messages_assembled: u64,
}

impl Default for MessageAssembler {
    fn default() -> Self {
        Self::new()
    }
}

impl MessageAssembler {
    /// Assembler with a 64 MiB message cap.
    pub fn new() -> Self {
        MessageAssembler {
            partial: None,
            max_message: 64 * 1024 * 1024,
            messages_assembled: 0,
        }
    }

    /// Assembler with a custom total-message cap.
    pub fn with_max_message(max_message: usize) -> Self {
        MessageAssembler {
            max_message,
            ..Self::new()
        }
    }

    /// Is a fragmented message currently in progress?
    pub fn in_progress(&self) -> bool {
        self.partial.is_some()
    }

    /// Bytes buffered for the in-progress fragmented message (0 when
    /// none). Streaming consumers count this toward per-flow retention.
    pub fn buffered(&self) -> usize {
        self.partial.as_ref().map_or(0, |(_, acc)| acc.len())
    }

    /// Push one frame; returns a completed message if one finished.
    pub fn push(&mut self, frame: Frame) -> Result<Option<Message>, AssemblyError> {
        match frame.opcode {
            Opcode::Ping => {
                self.messages_assembled += 1;
                Ok(Some(Message::Ping(frame.payload)))
            }
            Opcode::Pong => {
                self.messages_assembled += 1;
                Ok(Some(Message::Pong(frame.payload)))
            }
            Opcode::Close => {
                self.messages_assembled += 1;
                let detail = if frame.payload.len() >= 2 {
                    let code = u16::from_be_bytes([frame.payload[0], frame.payload[1]]);
                    let reason = String::from_utf8_lossy(&frame.payload[2..]).into_owned();
                    Some((code, reason))
                } else {
                    None
                };
                Ok(Some(Message::Close(detail)))
            }
            Opcode::Continuation => {
                let (op, mut acc) = self
                    .partial
                    .take()
                    .ok_or(AssemblyError::UnexpectedContinuation)?;
                acc.extend_from_slice(&frame.payload);
                if acc.len() > self.max_message {
                    return Err(AssemblyError::MessageTooLarge(acc.len()));
                }
                if frame.fin {
                    self.messages_assembled += 1;
                    return Ok(Some(Self::complete(op, acc)));
                }
                self.partial = Some((op, acc));
                Ok(None)
            }
            Opcode::Text | Opcode::Binary => {
                if self.partial.is_some() {
                    return Err(AssemblyError::InterleavedDataFrame);
                }
                if frame.payload.len() > self.max_message {
                    return Err(AssemblyError::MessageTooLarge(frame.payload.len()));
                }
                if frame.fin {
                    self.messages_assembled += 1;
                    return Ok(Some(Self::complete(frame.opcode, frame.payload)));
                }
                self.partial = Some((frame.opcode, frame.payload));
                Ok(None)
            }
        }
    }

    fn complete(op: Opcode, payload: Vec<u8>) -> Message {
        match op {
            Opcode::Text => Message::Text(String::from_utf8_lossy(&payload).into_owned()),
            _ => Message::Binary(payload),
        }
    }
}

/// The masking key [`fragment`] gives its `index`-th frame.
pub fn fragment_mask(index: usize) -> [u8; 4] {
    let k = (index as u32).wrapping_mul(0x9e3779b9).to_be_bytes();
    [k[0], k[1], k[2] ^ 0x5a, k[3] | 1]
}

/// Fragment a message payload into `n` data frames (first carries the
/// opcode, the rest are continuations). Used by tests and as the
/// reference for senders that frame in place; `mask` applies
/// client-side masking with per-frame keys from [`fragment_mask`].
pub fn fragment(opcode: Opcode, payload: &[u8], fragments: usize, mask: bool) -> Vec<Frame> {
    let fragments = fragments.max(1);
    let chunk = payload.len().div_ceil(fragments).max(1);
    let chunks: Vec<&[u8]> = if payload.is_empty() {
        vec![&[]]
    } else {
        payload.chunks(chunk).collect()
    };
    let n = chunks.len();
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, c)| Frame {
            fin: i == n - 1,
            opcode: if i == 0 { opcode } else { Opcode::Continuation },
            mask: mask.then(|| fragment_mask(i)),
            payload: c.to_vec(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decoder_handles_byte_at_a_time() {
        let frames = vec![
            Frame::unmasked(Opcode::Text, b"hello".to_vec()),
            Frame::masked(Opcode::Binary, vec![1, 2, 3], [9, 8, 7, 6]),
            Frame::unmasked(Opcode::Ping, b"hb".to_vec()),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            got.extend(dec.feed(std::slice::from_ref(b)).unwrap());
        }
        assert_eq!(got, frames);
        assert_eq!(dec.frames_decoded, 3);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn decoder_handles_multiple_frames_per_chunk() {
        let mut wire = Vec::new();
        for i in 0..10u8 {
            wire.extend_from_slice(&Frame::unmasked(Opcode::Binary, vec![i; 5]).encode());
        }
        let mut dec = FrameDecoder::new();
        let frames = dec.feed(&wire).unwrap();
        assert_eq!(frames.len(), 10);
        assert_eq!(dec.bytes_decoded, 50);
    }

    #[test]
    fn decoder_poisons_on_error() {
        let mut dec = FrameDecoder::new();
        assert!(dec.feed(&[0xC1, 0x00]).is_err()); // RSV set
        assert!(dec.is_failed());
        assert!(dec.feed(&[0x81, 0x00]).is_err());
    }

    #[test]
    fn assembler_single_frame_text() {
        let mut asm = MessageAssembler::new();
        let msg = asm
            .push(Frame::unmasked(Opcode::Text, b"hi".to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(msg, Message::Text("hi".into()));
    }

    #[test]
    fn assembler_fragmented_message() {
        let payload = b"The quick brown fox jumps over the lazy dog".to_vec();
        let frames = fragment(Opcode::Text, &payload, 5, false);
        assert_eq!(frames.len(), 5);
        assert!(frames[0].opcode == Opcode::Text && !frames[0].fin);
        assert!(frames[4].fin);
        let mut asm = MessageAssembler::new();
        let mut out = None;
        for f in frames {
            out = asm.push(f).unwrap();
        }
        assert_eq!(
            out.unwrap(),
            Message::Text(String::from_utf8(payload).unwrap())
        );
    }

    #[test]
    fn assembler_control_interleaved_with_fragments() {
        let frames = fragment(Opcode::Binary, &[7u8; 100], 2, false);
        let mut asm = MessageAssembler::new();
        assert!(asm.push(frames[0].clone()).unwrap().is_none());
        assert!(asm.in_progress());
        // Ping mid-message is legal and passes through.
        let ping = asm
            .push(Frame::unmasked(Opcode::Ping, b"p".to_vec()))
            .unwrap()
            .unwrap();
        assert_eq!(ping, Message::Ping(b"p".to_vec()));
        assert!(asm.in_progress());
        let done = asm.push(frames[1].clone()).unwrap().unwrap();
        assert_eq!(done, Message::Binary(vec![7u8; 100]));
    }

    #[test]
    fn assembler_rejects_bare_continuation() {
        let mut asm = MessageAssembler::new();
        let err = asm
            .push(Frame::unmasked(Opcode::Continuation, vec![]))
            .unwrap_err();
        assert_eq!(err, AssemblyError::UnexpectedContinuation);
    }

    #[test]
    fn assembler_rejects_interleaved_data() {
        let frames = fragment(Opcode::Text, b"abcdef", 2, false);
        let mut asm = MessageAssembler::new();
        asm.push(frames[0].clone()).unwrap();
        let err = asm
            .push(Frame::unmasked(Opcode::Text, b"x".to_vec()))
            .unwrap_err();
        assert_eq!(err, AssemblyError::InterleavedDataFrame);
    }

    #[test]
    fn assembler_enforces_message_cap() {
        let mut asm = MessageAssembler::with_max_message(10);
        let err = asm
            .push(Frame::unmasked(Opcode::Binary, vec![0; 11]))
            .unwrap_err();
        assert_eq!(err, AssemblyError::MessageTooLarge(11));
    }

    #[test]
    fn close_with_code_and_reason() {
        let mut payload = 1000u16.to_be_bytes().to_vec();
        payload.extend_from_slice(b"normal");
        let mut asm = MessageAssembler::new();
        let msg = asm
            .push(Frame::unmasked(Opcode::Close, payload))
            .unwrap()
            .unwrap();
        assert_eq!(msg, Message::Close(Some((1000, "normal".into()))));
    }

    #[test]
    fn close_without_payload() {
        let mut asm = MessageAssembler::new();
        let msg = asm
            .push(Frame::unmasked(Opcode::Close, vec![]))
            .unwrap()
            .unwrap();
        assert_eq!(msg, Message::Close(None));
    }

    #[test]
    fn fragment_empty_payload() {
        let frames = fragment(Opcode::Text, b"", 3, true);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].fin);
        assert!(frames[0].mask.is_some());
    }

    #[test]
    fn fragment_masked_round_trips_through_decoder() {
        let payload: Vec<u8> = (0u8..=255).collect();
        let frames = fragment(Opcode::Binary, &payload, 4, true);
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        let mut dec = FrameDecoder::new();
        let mut asm = MessageAssembler::new();
        let mut out = None;
        for f in dec.feed(&wire).unwrap() {
            if let Some(m) = asm.push(f).unwrap() {
                out = Some(m);
            }
        }
        assert_eq!(out.unwrap(), Message::Binary(payload));
    }

    #[test]
    fn message_len_accessors() {
        assert_eq!(Message::Text("abc".into()).len(), 3);
        assert!(Message::Close(None).is_empty());
        assert_eq!(Message::Close(Some((1000, "x".into()))).len(), 3);
    }
}
