//! The framed-I/O seam shared by both transports: one implementation of
//! "length-prefixed [`Frame`]s over a byte channel", so the stream (UDS)
//! supervisor/worker loops and the datagram fragment-reassembly path
//! cannot drift on frame handling.
//!
//! [`FramedConn`] owns the buffered reader/writer pair plus the encode
//! and scratch buffers for one Unix-domain connection — the supervisor
//! holds one per worker link, the worker holds one for its supervisor
//! link. [`parse_framed`] applies the *same* length validation and
//! checked decode to a frame that arrived as a contiguous byte blob —
//! a single datagram, or the concatenation a
//! [`Defragmenter`](crate::wire::Defragmenter) hands back.

use crate::driver::protocol_err;
use crate::wire::{Frame, MAX_FRAME_BYTES};
use bytes::BytesMut;
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::os::unix::net::UnixStream;

/// Validates a frame length prefix against the shared cap. Zero (an
/// empty frame has at least its kind byte) and anything over
/// [`MAX_FRAME_BYTES`] fail fast instead of attempting an absurd read or
/// allocation.
pub fn check_frame_len(len: usize) -> io::Result<()> {
    if len == 0 || len > MAX_FRAME_BYTES {
        return Err(protocol_err(format!("frame length {len} out of range")));
    }
    Ok(())
}

/// Decodes one full length-prefixed frame from a contiguous byte blob,
/// with the same validation the stream reader applies: a 4-byte length
/// prefix within bounds that covers the remaining bytes *exactly*. This
/// is the datagram transport's entry into the shared decoder — both for
/// single-datagram frames and for reassembled fragment payloads.
pub fn parse_framed(bytes: &[u8]) -> io::Result<Frame> {
    let Some((prefix, body)) = bytes.split_first_chunk::<4>() else {
        return Err(protocol_err(format!(
            "framed blob of {} bytes has no length prefix",
            bytes.len()
        )));
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    check_frame_len(len)?;
    if body.len() != len {
        return Err(protocol_err(format!(
            "frame length prefix {len} but {} body bytes",
            body.len()
        )));
    }
    Frame::decode(body).map_err(protocol_err)
}

/// One framed Unix-domain connection: buffered halves plus reusable
/// encode/scratch buffers. Writes are buffered — call
/// [`FramedConn::flush`] at protocol barriers.
#[derive(Debug)]
pub struct FramedConn {
    reader: BufReader<UnixStream>,
    writer: BufWriter<UnixStream>,
    enc: BytesMut,
    scratch: Vec<u8>,
}

impl FramedConn {
    /// Wraps a connected stream (cloning it for the second half).
    pub fn from_stream(stream: UnixStream) -> io::Result<FramedConn> {
        Ok(FramedConn {
            writer: BufWriter::new(stream.try_clone()?),
            reader: BufReader::new(stream),
            enc: BytesMut::new(),
            scratch: Vec::new(),
        })
    }

    /// Encodes and queues one frame; returns its wire size in bytes
    /// (length prefix included).
    pub fn send(&mut self, frame: &Frame) -> io::Result<u64> {
        self.enc.clear();
        frame.encode(&mut self.enc);
        self.writer.write_all(&self.enc)?;
        Ok(self.enc.len() as u64)
    }

    /// Queues pre-encoded frame bytes (the broadcast path encodes each
    /// mail frame once and fans the same bytes out to every link).
    pub fn send_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.writer.write_all(bytes)
    }

    /// Flushes queued writes to the socket.
    pub fn flush(&mut self) -> io::Result<()> {
        self.writer.flush()
    }

    /// Reads one frame, blocking until it is complete. The length prefix
    /// is validated by [`check_frame_len`] before the body is read.
    pub fn recv(&mut self) -> io::Result<Frame> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let len = u32::from_le_bytes(len) as usize;
        check_frame_len(len)?;
        self.scratch.clear();
        self.scratch.resize(len, 0);
        self.reader.read_exact(&mut self.scratch)?;
        Frame::decode(&self.scratch).map_err(protocol_err)
    }

    /// Wire size of the most recently received frame (prefix included).
    pub fn last_recv_bytes(&self) -> u64 {
        4 + self.scratch.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{fragment_frames, Defragmenter, WireError};
    use bytes::BufMut;

    #[test]
    fn framed_conn_roundtrips_over_a_socketpair() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut left = FramedConn::from_stream(a).unwrap();
        let mut right = FramedConn::from_stream(b).unwrap();
        let sent = left.send(&Frame::Start { round: 12 }).unwrap();
        left.send(&Frame::Shutdown).unwrap();
        left.flush().unwrap();
        assert_eq!(right.recv().unwrap(), Frame::Start { round: 12 });
        assert_eq!(right.last_recv_bytes(), sent);
        assert_eq!(right.recv().unwrap(), Frame::Shutdown);
    }

    #[test]
    fn parse_framed_matches_the_stream_reader_rules() {
        let mut enc = BytesMut::new();
        Frame::Start { round: 3 }.encode(&mut enc);
        assert_eq!(parse_framed(&enc).unwrap(), Frame::Start { round: 3 });
        // Too short for a prefix, zero length, oversized length, prefix /
        // body mismatch, and garbage bodies are all rejected.
        assert!(parse_framed(&[]).is_err());
        assert!(parse_framed(&[1, 0]).is_err());
        assert!(parse_framed(&[0, 0, 0, 0]).is_err());
        let mut evil = BytesMut::new();
        evil.put_u32_le((MAX_FRAME_BYTES + 1) as u32);
        assert!(parse_framed(&evil).is_err());
        let mut long = enc.to_vec();
        long.push(7);
        assert!(parse_framed(&long).is_err());
        let mut bad = enc.to_vec();
        let last = bad.len() - 1;
        bad.truncate(last);
        bad[0..4].copy_from_slice(&((last - 4) as u32).to_le_bytes());
        assert_eq!(
            parse_framed(&bad).unwrap_err().to_string(),
            WireError::Truncated.to_string()
        );
    }

    #[test]
    fn defragmented_bytes_parse_through_the_same_seam() {
        // The fragment path ends at parse_framed: reassembled bytes are
        // held to exactly the stream reader's rules.
        let mut enc = BytesMut::new();
        Frame::EndMail { round: 9 }.encode(&mut enc);
        let mut d = Defragmenter::new();
        let mut out = None;
        for f in fragment_frames(1, &enc, 3) {
            out = d.accept(&f).unwrap();
        }
        assert_eq!(
            parse_framed(&out.unwrap()).unwrap(),
            Frame::EndMail { round: 9 }
        );
    }
}
