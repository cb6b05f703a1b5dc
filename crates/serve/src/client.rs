//! A small blocking client for the daemon's wire protocol.
//!
//! Used by the load generator, the CI fixed-replay mode, and the
//! integration tests. One [`ServeClient`] wraps one TCP connection;
//! [`call`](ServeClient::call) sends a request frame and reads frames
//! until the matching response arrives, collecting any interleaved
//! progress events.

use std::io;
use std::net::TcpStream;
use std::time::Duration;

use lockbind_obs::Json;

use crate::wire::{read_frame, write_frame, FrameRead, DEFAULT_MAX_FRAME};

/// A response plus the progress frames that preceded it.
#[derive(Debug)]
pub struct CallOutcome {
    /// The response document.
    pub response: Json,
    /// The response frame's exact bytes (for byte-identity assertions).
    pub raw: Vec<u8>,
    /// Progress frames received before the response, in order.
    pub progress: Vec<Json>,
}

/// One blocking connection to a `lockbind-serve` daemon.
pub struct ServeClient {
    stream: TcpStream,
}

impl ServeClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7641`).
    ///
    /// # Errors
    /// Propagates connect errors.
    pub fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(ServeClient { stream })
    }

    /// Sets (or clears) the read timeout for response waits.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// Sends one request document without waiting for the response.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn send(&mut self, request: &Json) -> io::Result<()> {
        write_frame(&mut self.stream, request.render().as_bytes())
    }

    /// Reads the next frame, parsed.
    ///
    /// # Errors
    /// Fails on connection loss or a frame that is not valid JSON.
    pub fn read_event(&mut self) -> io::Result<(Json, Vec<u8>)> {
        match read_frame(&mut self.stream, DEFAULT_MAX_FRAME, None, None)? {
            FrameRead::Frame(payload) => {
                let doc = lockbind_obs::json::parse(&payload).map_err(|e| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}"))
                })?;
                Ok((doc, payload))
            }
            FrameRead::Eof => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )),
            FrameRead::Drained => unreachable!("client reads pass no stop flag"),
            FrameRead::TooLarge { declared } => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("server sent an oversize frame ({declared} bytes)"),
            )),
            FrameRead::TimedOut => unreachable!("client reads pass no frame timeout"),
        }
    }

    /// Sends `request` and blocks until the response with the same `id`
    /// arrives, collecting progress frames along the way.
    ///
    /// # Errors
    /// Propagates I/O failures; a response for a different id is a
    /// protocol error (the daemon serializes responses per connection).
    pub fn call(&mut self, request: &Json) -> io::Result<CallOutcome> {
        self.send(request)?;
        let want_id = request["id"].clone();
        let mut progress = Vec::new();
        loop {
            let (doc, raw) = self.read_event()?;
            if doc["type"].as_str() != Some("response") {
                progress.push(doc);
                continue;
            }
            let id = doc["id"].clone();
            if id != want_id && id != Json::Null {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("response id mismatch: sent {want_id:?}, got {id:?}"),
                ));
            }
            return Ok(CallOutcome {
                response: doc,
                raw,
                progress,
            });
        }
    }

    /// Sends a raw payload frame (for protocol-violation probes).
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn send_raw(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.stream, payload)
    }

    /// Writes a bare oversize *declaration* (header only): declares
    /// `declared` payload bytes but sends none, which the server must
    /// reject from the length prefix alone.
    ///
    /// # Errors
    /// Propagates write errors.
    pub fn send_oversize_declaration(&mut self, declared: u32) -> io::Result<()> {
        use std::io::Write;
        self.stream.write_all(&declared.to_be_bytes())?;
        self.stream.flush()
    }
}

/// The `status` string of a response document, or `""`.
pub fn response_status(doc: &Json) -> &str {
    doc["status"].as_str().unwrap_or("")
}

/// The `error.code` string of a response document, or `""`.
pub fn response_error_code(doc: &Json) -> &str {
    doc["error"]["code"].as_str().unwrap_or("")
}

/// A named field of the `result` object, if present.
pub fn result_field<'a>(doc: &'a Json, name: &str) -> Option<&'a Json> {
    doc["result"].get(name)
}
