//! A blocking client for the daemon's NDJSON protocol.
//!
//! One [`Client`] wraps one TCP connection; requests are answered in
//! order, so a client can be reused for any number of frames (`lab
//! submit` sends one, the load generator thousands).
//!
//! [`Client::connect`] keeps the original fire-once semantics; callers
//! that face daemons which may still be binding (CI scripts, the router's
//! health prober) use [`Client::connect_with`] — bounded connect retries
//! with exponential backoff plus an optional read timeout, so a dead
//! daemon surfaces as a clean error instead of a forever-hanging
//! `read_line`.

use crate::protocol::{FrameMeta, Request, Response};
use crate::server::write_frame;
use std::io::{BufRead, BufReader};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Connection policy for [`Client::connect_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnectOptions {
    /// Total connect attempts (at least 1).
    pub attempts: u32,
    /// Sleep before the second attempt; doubles per further attempt.
    pub initial_backoff: Duration,
    /// Per-response read timeout once connected (`None` = block forever,
    /// the v2 behaviour). A timed-out read surfaces as a request error.
    pub read_timeout: Option<Duration>,
}

impl Default for ConnectOptions {
    /// One attempt, no timeout — exactly [`Client::connect`].
    fn default() -> ConnectOptions {
        ConnectOptions {
            attempts: 1,
            initial_backoff: Duration::from_millis(50),
            read_timeout: None,
        }
    }
}

/// One connection to a running daemon.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connects to a daemon at `addr`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the connection cannot be established.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> std::io::Result<Client> {
        Client::connect_with(addr, ConnectOptions::default())
    }

    /// Connects to a daemon at `addr` under `opts`: up to `opts.attempts`
    /// connect attempts with exponential backoff between them, and
    /// `opts.read_timeout` applied to every response read on the
    /// resulting connection.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error of the *last* attempt if every attempt
    /// fails.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        opts: ConnectOptions,
    ) -> std::io::Result<Client> {
        let attempts = opts.attempts.max(1);
        let mut backoff = opts.initial_backoff;
        let mut last_error = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            match TcpStream::connect(&addr) {
                Ok(stream) => {
                    stream.set_read_timeout(opts.read_timeout)?;
                    stream.set_nodelay(true)?;
                    let writer = stream.try_clone()?;
                    return Ok(Client { reader: BufReader::new(stream), writer });
                }
                Err(error) => last_error = Some(error),
            }
        }
        Err(last_error.expect("at least one attempt ran"))
    }

    /// Changes the per-response read timeout of this connection (`None` =
    /// block forever).
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the socket rejects the option.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.reader.get_ref().set_read_timeout(timeout)
    }

    /// Sends one request frame and waits for its response frame.
    ///
    /// # Errors
    ///
    /// Returns a message if the connection drops or the response does not
    /// parse. Protocol-level failures are *not* errors: they come back as
    /// [`Response::Busy`] / [`Response::Error`] values.
    pub fn request(&mut self, request: &Request) -> Result<Response, String> {
        self.raw_request(&request.encode())
    }

    /// [`Client::request`] with request tracing: sends `trace_id` on the
    /// frame when given (the server generates a deterministic one
    /// otherwise) and returns the trace id the server echoed alongside
    /// the response.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_traced(
        &mut self,
        request: &Request,
        trace_id: Option<&str>,
    ) -> Result<(Response, Option<String>), String> {
        let line = match trace_id {
            Some(trace_id) => request.encode_with_trace(trace_id),
            None => request.encode(),
        };
        self.raw_request_traced(&line)
    }

    /// [`Client::request`] with the full v3 envelope: the frame carries
    /// the set members of `meta` (`trace_id` and/or `auth`), and the
    /// echoed trace id rides back alongside the response.
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn request_meta(
        &mut self,
        request: &Request,
        meta: &FrameMeta,
    ) -> Result<(Response, Option<String>), String> {
        self.raw_request_traced(&request.encode_with_meta(meta))
    }

    /// Sends one already-encoded line and waits for the response frame
    /// (used by tests to exercise the daemon's handling of bad frames).
    ///
    /// # Errors
    ///
    /// Same contract as [`Client::request`].
    pub fn raw_request(&mut self, line: &str) -> Result<Response, String> {
        self.raw_request_traced(line).map(|(response, _)| response)
    }

    /// [`Client::raw_request`], keeping the echoed `trace_id`.
    fn raw_request_traced(&mut self, line: &str) -> Result<(Response, Option<String>), String> {
        write_frame(&mut self.writer, line).map_err(|e| format!("cannot send request: {e}"))?;
        let mut reply = String::new();
        let read =
            self.reader.read_line(&mut reply).map_err(|e| format!("cannot read response: {e}"))?;
        if read == 0 {
            return Err("connection closed before a response arrived".to_string());
        }
        Response::decode_frame(reply.trim_end_matches('\n'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;
    use std::time::Instant;

    #[test]
    fn connect_retries_until_the_daemon_binds() {
        // Reserve a port, release it, and only bind it again after the
        // first connect attempt has already failed.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let binder = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            let listener = TcpListener::bind(addr).unwrap();
            let _conn = listener.accept().unwrap();
        });
        let opts = ConnectOptions {
            attempts: 20,
            initial_backoff: Duration::from_millis(10),
            read_timeout: None,
        };
        assert!(Client::connect_with(addr, opts).is_ok(), "retries must find the late daemon");
        binder.join().unwrap();
    }

    #[test]
    fn exhausted_retries_surface_the_last_error_after_backing_off() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let opts = ConnectOptions {
            attempts: 3,
            initial_backoff: Duration::from_millis(5),
            read_timeout: None,
        };
        let started = Instant::now();
        assert!(Client::connect_with(addr, opts).is_err());
        // Two sleeps happened: 5ms + 10ms (exponential), so at least ~15ms.
        assert!(started.elapsed() >= Duration::from_millis(15), "{:?}", started.elapsed());
    }

    #[test]
    fn read_timeout_turns_a_silent_server_into_a_clean_error() {
        // A listener that accepts but never answers.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (_conn, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_millis(500));
        });
        let opts = ConnectOptions {
            read_timeout: Some(Duration::from_millis(50)),
            ..ConnectOptions::default()
        };
        let mut client = Client::connect_with(addr, opts).unwrap();
        let error = client.request(&Request::Health).unwrap_err();
        assert!(error.contains("cannot read response"), "{error}");
        server.join().unwrap();
    }
}
