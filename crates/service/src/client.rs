//! The NDJSON client: one request line out, one response line back.
//!
//! Every in-tree caller of the wire protocol — the router's backend
//! connections, `rwr` remote subcommands, [`crate::loadgen`], the bench
//! harnesses, and [`crate::ServerHandle::shutdown`] — goes through this
//! module, so connect/timeout/line-IO behaviour is defined once.
//!
//! Timeouts are optional: `Some(t)` bounds the connect and each response
//! read by `t`; `None` connects and reads with no bound.

use crate::json::Json;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// One NDJSON connection: buffered reader + raw writer over the same
/// stream.
pub struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
}

/// Opens a connection, bounding the connect by `timeout` when given.
pub fn connect(addr: &str, timeout: Option<Duration>) -> std::io::Result<Conn> {
    let stream = match timeout {
        None => TcpStream::connect(addr)?,
        Some(timeout) => {
            let sock = addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address")
            })?;
            TcpStream::connect_timeout(&sock, timeout)?
        }
    };
    stream.set_nodelay(true).ok();
    let reader = BufReader::new(stream.try_clone()?);
    Ok(Conn { reader, stream })
}

/// Result of [`exchange_split`]: distinguishes "request never executed"
/// from "response lost after a complete request". The server executes
/// only complete lines, so a [`ExchangeError::PreWrite`] failure is always
/// safe to retry and a [`ExchangeError::PostWrite`] one may not be.
#[derive(Debug)]
pub enum ExchangeError {
    /// The request line was not fully delivered; safe to retry anywhere.
    PreWrite(std::io::Error),
    /// The request line was delivered but the response never arrived;
    /// retrying a mutation here could double-apply.
    PostWrite(std::io::Error),
}

/// One request/response round-trip on `conn` (`line` without its
/// newline), reporting which side of the write any failure fell on.
/// `timeout` bounds the response read.
pub fn exchange_split(
    conn: &mut Conn,
    line: &str,
    timeout: Option<Duration>,
) -> Result<String, ExchangeError> {
    let mut payload = Vec::with_capacity(line.len() + 1);
    payload.extend_from_slice(line.as_bytes());
    payload.push(b'\n');
    conn.stream
        .write_all(&payload)
        .and_then(|()| conn.stream.flush())
        .map_err(ExchangeError::PreWrite)?;
    conn.stream
        .set_read_timeout(timeout)
        .map_err(ExchangeError::PostWrite)?;
    let mut response = String::new();
    match conn.reader.read_line(&mut response) {
        Ok(0) => Err(ExchangeError::PostWrite(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "backend closed before responding",
        ))),
        Ok(_) => {
            while response.ends_with('\n') || response.ends_with('\r') {
                response.pop();
            }
            Ok(response)
        }
        Err(e) => Err(ExchangeError::PostWrite(e)),
    }
}

/// Round-trip for callers that don't care which side failed.
pub fn exchange_on(
    conn: &mut Conn,
    line: &str,
    timeout: Option<Duration>,
) -> std::io::Result<String> {
    exchange_split(conn, line, timeout).map_err(|e| match e {
        ExchangeError::PreWrite(e) | ExchangeError::PostWrite(e) => e,
    })
}

/// One-shot round-trip on a fresh connection.
pub fn request(addr: &str, line: &str, timeout: Option<Duration>) -> std::io::Result<String> {
    exchange_on(&mut connect(addr, timeout)?, line, timeout)
}

/// Sends `{"op":"shutdown"}` to a server or router and waits for the
/// acknowledgement.
///
/// A connection slot freed just before this call is reclaimed only once
/// the peer notices the close (the next reactor poll, or the router's
/// next read-poll), so the shutdown can race the `max_conns` cap and be
/// answered with `overloaded`. Treating that rejection as the
/// acknowledgement would leave the peer running forever — so retry until
/// the op is actually accepted (bounded; rejections arrive fast).
pub fn shutdown(addr: &str) -> std::io::Result<()> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let reply = exchange_on(&mut connect(addr, None)?, "{\"op\":\"shutdown\"}", None)
            .unwrap_or_default();
        let accepted = Json::parse(&reply)
            .ok()
            .and_then(|j| j.get("ok").and_then(Json::as_bool))
            .unwrap_or(false);
        if accepted {
            return Ok(());
        }
        if Instant::now() >= deadline {
            return Err(std::io::Error::other(format!(
                "shutdown not accepted: {reply}"
            )));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    #[test]
    fn exchange_classifies_post_write_eof_as_ambiguous() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Read the full request line, then hang up without answering.
            let mut buf = [0u8; 256];
            let mut seen = Vec::new();
            while !seen.contains(&b'\n') {
                let n = s.read(&mut buf).unwrap();
                if n == 0 {
                    break;
                }
                seen.extend_from_slice(&buf[..n]);
            }
            drop(s);
        });
        let timeout = Some(Duration::from_secs(1));
        let mut conn = connect(&addr, timeout).unwrap();
        match exchange_split(&mut conn, "{\"op\":\"ping\"}", timeout) {
            Err(ExchangeError::PostWrite(_)) => {}
            Err(ExchangeError::PreWrite(e)) => panic!("misclassified as pre-write: {e}"),
            Ok(r) => panic!("unexpected response: {r}"),
        }
        server.join().unwrap();
    }

    #[test]
    fn connect_fails_fast_against_dead_port() {
        // Bind-then-drop guarantees the port is closed; connect must fail
        // promptly instead of hanging.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let start = std::time::Instant::now();
        let r = connect(&addr, Some(Duration::from_millis(500)));
        assert!(r.is_err());
        assert!(start.elapsed() < Duration::from_secs(5));
    }
}
