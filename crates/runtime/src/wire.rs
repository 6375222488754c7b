//! Hand-rolled compact binary encoding for the executor's wire types.
//!
//! The offline build vendors a no-op `serde` shim, so everything that
//! crosses a process boundary — task manifests, per-slot results, worker
//! frames — is encoded with this tiny explicit codec instead: fixed-width
//! little-endian integers, `f64` as raw IEEE-754 bits (so results round-trip
//! **bit-identically**), and length-prefixed byte strings. Frames on a
//! stream are `u32` length + body.

use std::io::{self, Read, Write};

/// Decoding failure: truncated buffer, bad tag, oversized frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    /// A decode error with the given message.
    pub fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

/// Frames larger than this are rejected on read — a corrupted length prefix
/// must not look like a multi-gigabyte allocation request.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// The most [`read_frame`] reserves before any body bytes arrive. Larger
/// bodies grow the buffer only as bytes are actually read, so a bare
/// length prefix cannot make a reader reserve [`MAX_FRAME_LEN`].
const FRAME_PREALLOC: usize = 64 << 10;

// --- writers (infallible; append to a Vec) -------------------------------

/// Append a `u8`.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append an `f64` as its raw bit pattern (exact round-trip).
pub fn put_f64(buf: &mut Vec<u8>, v: f64) {
    put_u64(buf, v.to_bits());
}

/// Append a length-prefixed byte string.
pub fn put_bytes(buf: &mut Vec<u8>, v: &[u8]) {
    put_u32(buf, v.len() as u32);
    buf.extend_from_slice(v);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(buf: &mut Vec<u8>, v: &str) {
    put_bytes(buf, v.as_bytes());
}

/// Append a length-prefixed `f64` vector (the observation-vector
/// convention used by portable adaptive jobs).
pub fn put_f64s(buf: &mut Vec<u8>, v: &[f64]) {
    put_u32(buf, v.len() as u32);
    for &x in v {
        put_f64(buf, x);
    }
}

// --- reader --------------------------------------------------------------

/// Cursor over an encoded buffer; every `get_*` checks bounds.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fail unless the whole buffer was consumed (catches layout drift
    /// between encoder and decoder versions).
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::new(format!(
                "{} trailing byte(s) after decode",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::new(format!(
                "need {n} byte(s), have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u8`.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| WireError::new("string field is not UTF-8"))
    }

    /// Read a length-prefixed `f64` vector.
    pub fn get_f64s(&mut self) -> Result<Vec<f64>, WireError> {
        let n = self.get_u32()? as usize;
        if self.remaining() < n.saturating_mul(8) {
            return Err(WireError::new(format!("f64 vector of {n} overruns buffer")));
        }
        (0..n).map(|_| self.get_f64()).collect()
    }
}

/// Decode a whole buffer as one length-prefixed `f64` vector (the portable
/// observation-vector convention; see [`put_f64s`]).
pub fn decode_f64s(buf: &[u8]) -> Result<Vec<f64>, WireError> {
    let mut r = Reader::new(buf);
    let v = r.get_f64s()?;
    r.finish()?;
    Ok(v)
}

// --- framing -------------------------------------------------------------

/// Write one length-prefixed frame (`u32` LE length, then the body).
///
/// Enforces the same [`MAX_FRAME_LEN`] cap readers apply: an oversized
/// body errors here, at the producer, instead of being shipped only for
/// the peer to reject it (or, past `u32::MAX`, silently truncating the
/// length prefix and corrupting the stream).
pub fn write_frame(w: &mut dyn Write, body: &[u8]) -> io::Result<()> {
    if body.len() > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                body.len()
            ),
        ));
    }
    w.write_all(&(body.len() as u32).to_le_bytes())?;
    w.write_all(body)
}

/// Read one length-prefixed frame. `Ok(None)` on clean EOF **before** the
/// length prefix; EOF mid-frame is an error (a peer died mid-write).
///
/// The body is read incrementally: a frame of up to 64 KiB costs one
/// exact allocation, and a longer one grows only with the bytes received.
pub fn read_frame(r: &mut dyn Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length prefix",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut body = Vec::with_capacity(len.min(FRAME_PREALLOC));
    Read::take(r, len as u64).read_to_end(&mut body)?;
    if body.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF inside frame body",
        ));
    }
    Ok(Some(body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u32(&mut buf, 123_456);
        put_u64(&mut buf, u64::MAX - 7);
        put_f64(&mut buf, -0.0);
        put_f64(&mut buf, f64::NAN);
        put_str(&mut buf, "grüß");
        put_bytes(&mut buf, &[1, 2, 3]);
        let mut r = Reader::new(&buf);
        assert_eq!(r.get_u8().unwrap(), 0xAB);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 7);
        // Bit-exact, sign of zero and NaN payload included.
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_f64().unwrap().to_bits(), f64::NAN.to_bits());
        assert_eq!(r.get_str().unwrap(), "grüß");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert!(r.get_u64().is_err());
        // Oversized inner length prefix.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1_000_000);
        let mut r = Reader::new(&buf);
        assert!(r.get_bytes().is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u8(&mut buf, 9);
        let mut r = Reader::new(&buf);
        let _ = r.get_u32().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn f64_vector_round_trips() {
        let v = [1.5, -0.0, f64::INFINITY, 1e-300];
        let mut buf = Vec::new();
        put_f64s(&mut buf, &v);
        let back = decode_f64s(&buf).unwrap();
        assert_eq!(back.len(), 4);
        for (a, b) in v.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn frames_round_trip_and_eof_cases() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"alpha").unwrap();
        write_frame(&mut stream, b"").unwrap();
        let mut r = &stream[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"alpha");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert!(read_frame(&mut r).unwrap().is_none());
        // EOF mid-prefix and mid-body are hard errors.
        let mut r = &stream[..2];
        assert!(read_frame(&mut r).is_err());
        let mut r = &stream[..6];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn frame_length_cap_enforced() {
        let huge = (u32::MAX - 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err());
    }

    /// Serves `data` at most `chunk` bytes per call and records the
    /// largest buffer any read asked it to fill.
    struct ChunkedReader<'a> {
        data: &'a [u8],
        chunk: usize,
        max_request: usize,
    }

    impl Read for ChunkedReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.max_request = self.max_request.max(buf.len());
            let n = buf.len().min(self.chunk).min(self.data.len());
            buf[..n].copy_from_slice(&self.data[..n]);
            self.data = &self.data[n..];
            Ok(n)
        }
    }

    #[test]
    fn multi_chunk_frames_round_trip() {
        // Bodies below, at and above the preallocation, each delivered
        // in many short reads.
        for len in [1000, FRAME_PREALLOC, 3 * FRAME_PREALLOC + 17] {
            let body: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let mut stream = Vec::new();
            write_frame(&mut stream, &body).unwrap();
            let mut r = ChunkedReader {
                data: &stream,
                chunk: 4093,
                max_request: 0,
            };
            let back = read_frame(&mut r).unwrap().unwrap();
            assert_eq!(back, body, "len {len}");
            if len <= FRAME_PREALLOC {
                // One exact allocation: the buffer never grew.
                assert_eq!(back.capacity(), len);
            }
            assert!(read_frame(&mut r).unwrap().is_none());
        }
    }

    #[test]
    fn huge_declared_length_then_eof_errors_without_reserving_it() {
        let mut stream = (MAX_FRAME_LEN as u32).to_le_bytes().to_vec();
        stream.extend_from_slice(b"only a few body bytes");
        let mut r = ChunkedReader {
            data: &stream,
            chunk: usize::MAX,
            max_request: 0,
        };
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(
            r.max_request <= FRAME_PREALLOC,
            "a read asked for {} bytes",
            r.max_request
        );
    }

    #[test]
    fn write_frame_rejects_oversized_bodies() {
        // The producer enforces the same cap the reader applies; nothing
        // (not even the length prefix) reaches the stream.
        let body = vec![0u8; MAX_FRAME_LEN + 1];
        let mut out = Vec::new();
        assert!(write_frame(&mut out, &body).is_err());
        assert!(out.is_empty());
    }
}
