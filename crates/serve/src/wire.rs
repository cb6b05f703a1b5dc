//! Length-prefixed framing over a byte stream.
//!
//! Every message — request, progress event, response — is one frame: a
//! 4-byte big-endian payload length followed by that many bytes of UTF-8
//! JSON. The prefix makes message boundaries explicit without a
//! streaming JSON tokenizer, and lets the daemon reject oversize frames
//! *before* buffering them (the declared length is checked against the
//! configured cap first).
//!
//! [`read_frame`] is drain-aware: it polls the stream with a read
//! timeout and gives up *between* frames when the drain flag rises, so
//! connection reader threads exit cleanly on SIGTERM without dropping a
//! partially received frame.
//!
//! It is also slowloris-aware: an optional **frame clock** bounds the
//! total wall-clock time to receive one frame, measured from the first
//! header byte. An idle connection that sends nothing is never timed
//! out (keepalive clients are fine); a peer that starts a frame and
//! then feeds it one byte a minute is cut off at the deadline, header
//! or body alike.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Default cap on frame payloads (1 MiB) — far above any legitimate
/// request, far below a memory-exhaustion vector.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Outcome of [`read_frame`].
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame payload.
    Frame(Vec<u8>),
    /// The peer closed the connection at a frame boundary.
    Eof,
    /// The drain flag rose while waiting between frames.
    Drained,
    /// The peer declared a payload larger than the cap. The connection
    /// is no longer in sync and must be closed after the error response.
    TooLarge {
        /// The declared payload length.
        declared: usize,
    },
    /// The frame clock expired before the whole frame arrived: the peer
    /// started a frame but fed it too slowly (slowloris). The stream is
    /// mid-frame and must be closed.
    TimedOut,
}

/// Wall-clock budget for receiving one whole frame. The clock arms on
/// the first byte received, so idle connections never expire; once
/// armed it covers the rest of the header *and* the body.
struct FrameClock {
    timeout: Option<Duration>,
    started: Option<Instant>,
}

impl FrameClock {
    fn new(timeout: Option<Duration>) -> Self {
        FrameClock {
            timeout,
            started: None,
        }
    }

    /// Arms the clock (first byte of the frame has arrived).
    fn arm(&mut self) {
        if self.timeout.is_some() && self.started.is_none() {
            self.started = Some(Instant::now());
        }
    }

    fn expired(&self) -> bool {
        match (self.timeout, self.started) {
            (Some(timeout), Some(started)) => started.elapsed() >= timeout,
            _ => false,
        }
    }
}

/// Outcome of one polled exact read.
enum PollRead {
    /// The buffer was filled.
    Done,
    /// Clean EOF before the first byte.
    CleanEof,
    /// The stop flag rose before the first byte.
    Stopped,
    /// The frame clock expired (possibly mid-buffer).
    TimedOut,
}

/// Reads exactly `buf.len()` bytes, retrying timeouts. With `stop` set
/// and zero bytes consumed so far, a timeout returns `Stopped` (clean
/// give-up at a frame boundary). The `clock` arms on the first byte and
/// bounds the whole read: an armed, expired clock returns `TimedOut`
/// even mid-buffer — that is the slowloris cutoff.
fn read_exact_polled(
    stream: &mut impl Read,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
    clock: &mut FrameClock,
) -> io::Result<PollRead> {
    let mut pos = 0;
    while pos < buf.len() {
        match stream.read(&mut buf[pos..]) {
            Ok(0) => {
                if pos == 0 {
                    return Ok(PollRead::CleanEof); // clean EOF at a boundary
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-frame",
                ));
            }
            Ok(n) => {
                pos += n;
                clock.arm();
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if clock.expired() {
                    return Ok(PollRead::TimedOut);
                }
                if pos == 0 {
                    if let Some(stop) = stop {
                        if stop.load(Ordering::Relaxed) {
                            return Ok(PollRead::Stopped);
                        }
                    }
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(PollRead::Done)
}

/// Reads one frame. `max_frame` bounds the payload; `stop` (usually the
/// server's drain flag) lets the read give up cleanly between frames —
/// pair it with a read timeout on the stream so the poll actually
/// wakes. `frame_timeout` bounds the wall-clock time from the first
/// header byte to the last body byte (`None` = unbounded); the stream
/// needs a read timeout for this too, otherwise a stalled `read` never
/// returns to check the clock.
pub fn read_frame(
    stream: &mut impl Read,
    max_frame: usize,
    stop: Option<&AtomicBool>,
    frame_timeout: Option<Duration>,
) -> io::Result<FrameRead> {
    let mut clock = FrameClock::new(frame_timeout);
    let mut header = [0u8; 4];
    match read_exact_polled(stream, &mut header, stop, &mut clock)? {
        PollRead::CleanEof => return Ok(FrameRead::Eof),
        PollRead::Stopped => return Ok(FrameRead::Drained),
        PollRead::TimedOut => return Ok(FrameRead::TimedOut),
        PollRead::Done => {}
    }
    let declared = u32::from_be_bytes(header) as usize;
    if declared > max_frame {
        return Ok(FrameRead::TooLarge { declared });
    }
    let mut payload = vec![0u8; declared];
    // Once the header is in, the frame is committed: ignore the drain
    // flag (`stop: None`) so admitted bytes are never torn — but keep
    // the frame clock running, so a slow body still times out.
    match read_exact_polled(stream, &mut payload, None, &mut clock)? {
        PollRead::Done => Ok(FrameRead::Frame(payload)),
        PollRead::TimedOut => Ok(FrameRead::TimedOut),
        _ => Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed mid-frame",
        )),
    }
}

/// Writes one frame (length prefix + payload) and flushes. The frame goes
/// out in one write, so an unbuffered `TcpStream` with `TCP_NODELAY`
/// sends it as one segment rather than a 4-byte one plus the payload.
///
/// # Errors
/// Propagates I/O errors; payloads beyond `u32::MAX` are rejected.
pub fn write_frame(stream: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame exceeds u32 length"))?;
    let mut frame = Vec::with_capacity(4 + payload.len());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.extend_from_slice(payload);
    stream.write_all(&frame)?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn frame_bytes(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, payload).expect("writes");
        out
    }

    #[test]
    fn frames_round_trip() {
        let mut wire = Vec::new();
        wire.extend(frame_bytes(b"{\"id\":1}"));
        wire.extend(frame_bytes(b""));
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME, None, None).expect("reads") {
            FrameRead::Frame(p) => assert_eq!(p, b"{\"id\":1}"),
            other => panic!("expected frame, got {other:?}"),
        }
        match read_frame(&mut cursor, DEFAULT_MAX_FRAME, None, None).expect("reads") {
            FrameRead::Frame(p) => assert!(p.is_empty()),
            other => panic!("expected empty frame, got {other:?}"),
        }
        assert!(matches!(
            read_frame(&mut cursor, DEFAULT_MAX_FRAME, None, None).expect("reads"),
            FrameRead::Eof
        ));
    }

    #[test]
    fn oversize_declaration_is_reported_not_buffered() {
        let mut wire = (10_000u32).to_be_bytes().to_vec();
        wire.extend([0u8; 8]); // only 8 bytes follow; must not matter
        let mut cursor = Cursor::new(wire);
        match read_frame(&mut cursor, 1024, None, None).expect("reads") {
            FrameRead::TooLarge { declared } => assert_eq!(declared, 10_000),
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn mid_frame_eof_is_an_error() {
        let mut wire = frame_bytes(b"abcdef");
        wire.truncate(wire.len() - 2);
        let mut cursor = Cursor::new(wire);
        let err = read_frame(&mut cursor, 1024, None, None).expect_err("torn frame");
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    /// A reader that yields a few bytes, then stalls with `WouldBlock`
    /// forever — a unit-level slowloris.
    struct Staller {
        bytes: Vec<u8>,
        pos: usize,
    }

    impl Read for Staller {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if self.pos < self.bytes.len() && !buf.is_empty() {
                buf[0] = self.bytes[self.pos];
                self.pos += 1;
                return Ok(1);
            }
            std::thread::sleep(Duration::from_millis(1));
            Err(io::Error::new(io::ErrorKind::WouldBlock, "stalled"))
        }
    }

    #[test]
    fn stalled_header_times_out() {
        let mut s = Staller {
            bytes: vec![0, 0], // two header bytes, then silence
            pos: 0,
        };
        let got = read_frame(&mut s, 1024, None, Some(Duration::from_millis(20))).expect("reads");
        assert!(matches!(got, FrameRead::TimedOut), "got {got:?}");
    }

    #[test]
    fn stalled_body_times_out() {
        let mut bytes = (6u32).to_be_bytes().to_vec();
        bytes.extend(b"abc"); // half the declared body, then silence
        let mut s = Staller { bytes, pos: 0 };
        let got = read_frame(&mut s, 1024, None, Some(Duration::from_millis(20))).expect("reads");
        assert!(matches!(got, FrameRead::TimedOut), "got {got:?}");
    }

    #[test]
    fn idle_stream_never_times_out() {
        // No bytes at all: the clock never arms, so the stop flag (not
        // the timeout) decides. With `stop` raised, the read drains.
        let mut s = Staller {
            bytes: vec![],
            pos: 0,
        };
        let stop = AtomicBool::new(true);
        let got =
            read_frame(&mut s, 1024, Some(&stop), Some(Duration::from_millis(5))).expect("reads");
        assert!(matches!(got, FrameRead::Drained), "got {got:?}");
    }
}

#[cfg(test)]
mod fuzz {
    //! Property fuzzing: the frame reader must return a `FrameRead` or
    //! an `io::Error`, never panic, on truncated or garbage streams.

    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use std::io::Cursor;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn garbage_streams_never_panic(bytes in vec(any::<u8>(), 0..128)) {
            let mut cursor = Cursor::new(bytes);
            // Drain every frame the stream claims to hold; any mix of
            // Frame/Eof/TooLarge/Err is acceptable, panicking is not.
            for _ in 0..8 {
                match read_frame(&mut cursor, 64, None, None) {
                    Ok(FrameRead::Frame(_)) => {}
                    _ => break,
                }
            }
        }

        #[test]
        fn truncations_of_valid_frames_error_cleanly(
            payload in vec(any::<u8>(), 0..48),
            cut in any::<u16>(),
        ) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).expect("writes");
            let cut = cut as usize % wire.len().max(1);
            wire.truncate(cut);
            let mut cursor = Cursor::new(wire);
            match read_frame(&mut cursor, 1024, None, None) {
                Ok(FrameRead::Frame(_)) => {
                    prop_assert!(false, "a truncated frame cannot read whole")
                }
                Ok(FrameRead::Eof) => prop_assert!(cut == 0, "EOF only at a boundary"),
                Ok(_) | Err(_) => {}
            }
        }

        #[test]
        fn whole_frames_round_trip(payload in vec(any::<u8>(), 0..48)) {
            let mut wire = Vec::new();
            write_frame(&mut wire, &payload).expect("writes");
            let mut cursor = Cursor::new(wire);
            match read_frame(&mut cursor, 1024, None, None).expect("reads") {
                FrameRead::Frame(got) => prop_assert_eq!(got, payload),
                other => prop_assert!(false, "expected frame, got {:?}", other),
            }
        }
    }
}
