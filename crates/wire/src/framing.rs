//! Length-prefixed message framing for the collector wire protocol.
//!
//! The campaign control plane ships JSON documents over TCP. Each
//! message travels as one *frame*: a 4-byte big-endian payload length
//! followed by exactly that many payload bytes. The framing layer is
//! deliberately dumb — it knows nothing about JSON — so the same
//! functions serve the push client, the collector daemon, and any
//! future tooling that wants to speak the protocol.
//!
//! A length prefix larger than [`MAX_FRAME_BYTES`] is rejected before
//! any payload is read, so a corrupt or hostile peer cannot make the
//! daemon allocate unbounded memory.

use std::io::{Read, Write};

/// Upper bound on a frame payload (64 MiB). A whole-campaign partial
/// report for a million-device shard fits comfortably; anything larger
/// is a corrupt length prefix, not a message.
pub const MAX_FRAME_BYTES: usize = 64 * 1024 * 1024;

/// A failure to read or write a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The peer closed the stream cleanly between frames.
    Closed,
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(usize),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o error: {e}"),
            FrameError::Closed => write!(f, "stream closed between frames"),
            FrameError::TooLarge(n) => {
                write!(
                    f,
                    "frame of {n} bytes exceeds the {MAX_FRAME_BYTES}-byte cap"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

/// Write one frame: 4-byte big-endian length, then the payload.
///
/// Prefix and payload go out in a single `write_all` of one buffer.
/// Two writes would put the 4-byte prefix in a segment of its own; on
/// a socket with Nagle's algorithm on, the payload then waits for the
/// peer's delayed ACK of that segment (about 40 ms on Linux) before it
/// is sent. With `TCP_NODELAY` set the single write saves a syscall and
/// a segment; it costs one copy of the payload.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(payload.len()));
    }
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one frame, returning its payload. A clean EOF *before* the
/// first length byte is [`FrameError::Closed`] (the peer is done); an
/// EOF mid-frame is an i/o error (the message was torn).
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut len = [0u8; 4];
    // Distinguish a clean close (0 bytes of the prefix read) from a torn
    // prefix.
    let mut filled = 0;
    while filled < len.len() {
        match r.read(&mut len[filled..]) {
            Ok(0) if filled == 0 => return Err(FrameError::Closed),
            Ok(0) => {
                return Err(FrameError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let n = u32::from_be_bytes(len) as usize;
    if n > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(n));
    }
    let mut payload = vec![0u8; n];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn each_frame_is_one_write_call() {
        for payload in [&b""[..], b"ack", &[0x5A; 70_000]] {
            let mut w = CountingWriter::default();
            write_frame(&mut w, payload).unwrap();
            assert_eq!(w.writes, 1, "{}-byte payload", payload.len());
            assert_eq!(w.bytes.len(), 4 + payload.len());
            assert_eq!(read_frame(&mut &w.bytes[..]).unwrap(), payload);
        }
    }

    #[test]
    fn round_trips_multiple_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 1000]).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xAB; 1000]);
        assert!(matches!(read_frame(&mut r), Err(FrameError::Closed)));
    }

    #[test]
    fn rejects_oversized_length_prefix_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut r = &buf[..];
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::TooLarge(n)) if n == u32::MAX as usize
        ));
    }

    #[test]
    fn torn_frame_is_an_io_error_not_a_close() {
        // Prefix promises 10 bytes, stream carries 3.
        let mut buf = Vec::new();
        buf.extend_from_slice(&10u32.to_be_bytes());
        buf.extend_from_slice(b"abc");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
        // And a torn *prefix* is too.
        let mut r = &buf[..2];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Io(_))));
    }

    #[test]
    fn frames_carry_json_documents_unchanged() {
        let doc = r#"{"type":"push","shard":"0/2"}"#;
        let mut buf = Vec::new();
        write_frame(&mut buf, doc.as_bytes()).unwrap();
        assert_eq!(buf.len(), 4 + doc.len());
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap(), doc.as_bytes());
    }
}
