//! Minimal hex encoding/decoding used across the workspace for digests,
//! HMAC signatures and message identifiers.

/// Encode bytes as lowercase hex.
pub fn encode(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    encode_into(bytes, &mut out);
    out
}

/// Append `bytes` to `out` as lowercase hex.
pub fn encode_into(bytes: &[u8], out: &mut String) {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    out.reserve(bytes.len() * 2);
    for &b in bytes {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0x0f) as usize] as char);
    }
}

/// Error returned by [`decode`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HexError {
    /// Input length was odd.
    OddLength,
    /// A character was not a hex digit; carries its byte offset.
    InvalidDigit(usize),
}

impl std::fmt::Display for HexError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HexError::OddLength => write!(f, "hex string has odd length"),
            HexError::InvalidDigit(i) => write!(f, "invalid hex digit at offset {i}"),
        }
    }
}

impl std::error::Error for HexError {}

fn val(c: u8, idx: usize) -> Result<u8, HexError> {
    match c {
        b'0'..=b'9' => Ok(c - b'0'),
        b'a'..=b'f' => Ok(c - b'a' + 10),
        b'A'..=b'F' => Ok(c - b'A' + 10),
        _ => Err(HexError::InvalidDigit(idx)),
    }
}

/// Decode a hex string (upper- or lowercase) into bytes.
pub fn decode(s: &str) -> Result<Vec<u8>, HexError> {
    let b = s.as_bytes();
    if b.len() % 2 != 0 {
        return Err(HexError::OddLength);
    }
    let mut out = Vec::with_capacity(b.len() / 2);
    for i in (0..b.len()).step_by(2) {
        out.push((val(b[i], i)? << 4) | val(b[i + 1], i + 1)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let data: Vec<u8> = (0u8..=255).collect();
        assert_eq!(decode(&encode(&data)).unwrap(), data);
    }

    #[test]
    fn empty() {
        assert_eq!(encode(&[]), "");
        assert_eq!(decode("").unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn known_values() {
        assert_eq!(encode(&[0xde, 0xad, 0xbe, 0xef]), "deadbeef");
        assert_eq!(decode("DEADbeef").unwrap(), vec![0xde, 0xad, 0xbe, 0xef]);
    }

    #[test]
    fn odd_length_rejected() {
        assert_eq!(decode("abc"), Err(HexError::OddLength));
    }

    #[test]
    fn invalid_digit_rejected() {
        assert_eq!(decode("0g"), Err(HexError::InvalidDigit(1)));
        assert_eq!(decode("zz"), Err(HexError::InvalidDigit(0)));
    }

    #[test]
    fn error_display() {
        assert!(HexError::OddLength.to_string().contains("odd"));
        assert!(HexError::InvalidDigit(3).to_string().contains('3'));
    }
}
