//! A hand-rolled, dependency-free HTTP/1.1 sliver — just enough to
//! serve `GET` endpoints from the daemon: request-line parsing, a
//! bounded header read, and `Content-Length`/`Connection: close`
//! responses. In the same spirit as `obs`'s own JSON parser: the
//! container has no HTTP crate, and the daemon needs four read-only
//! routes, not a framework.

use std::io::{Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + headers). Anything larger
/// is rejected with `431` — the daemon only serves tiny GETs.
pub const MAX_REQUEST_BYTES: usize = 16 * 1024;

/// A parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method (`GET`, `HEAD`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
}

/// Read and parse one request head from `stream`. Returns `Ok(None)`
/// when the peer closed without sending a full request or the request
/// is malformed/oversized (the caller just drops the connection or has
/// already had an error response written), and `Err` when the read
/// itself failed — a read timeout among others.
pub fn read_request(stream: &mut TcpStream) -> std::io::Result<Option<Request>> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
        if buf.len() > MAX_REQUEST_BYTES {
            let _ = respond(stream, 431, "text/plain", "request head too large\n");
            return Ok(None);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(None),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(parse_head(&buf))
}

/// Parse a complete request head: `None` unless the request line is
/// `METHOD TARGET HTTP/1.x`.
fn parse_head(buf: &[u8]) -> Option<Request> {
    let head = String::from_utf8_lossy(buf);
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    let path = target.split('?').next().unwrap_or("/").to_string();
    Some(Request { method, path })
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Write one complete response and flush. `Connection: close` — the
/// daemon serves one response per connection, which keeps the handler
/// loop trivial and is exactly what `curl` and Prometheus scrapers do.
/// Head and body go out in one write, so a small response is one TCP
/// segment rather than a head segment and a body segment held back by
/// Nagle's algorithm.
pub fn respond(
    w: &mut impl Write,
    code: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        code,
        status_text(code),
        content_type,
        body.len()
    );
    let mut response = Vec::with_capacity(head.len() + body.len());
    response.extend_from_slice(head.as_bytes());
    response.extend_from_slice(body.as_bytes());
    w.write_all(&response)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn parses_a_get_request_and_strips_query() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /snapshot?pretty=1 HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            let mut out = String::new();
            s.read_to_string(&mut out).unwrap();
            out
        });
        let (mut stream, _) = listener.accept().unwrap();
        let req = read_request(&mut stream).unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/snapshot");
        respond(&mut stream, 200, "text/plain", "hi").unwrap();
        drop(stream);
        let out = client.join().unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Length: 2\r\n"), "{out}");
        assert!(out.ends_with("\r\n\r\nhi"), "{out}");
    }

    #[test]
    fn response_is_one_write_call() {
        /// Counts `write` calls and keeps the bytes.
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

        for body in ["", "ok\n", &"x".repeat(100_000)] {
            let mut w = CountingWriter::default();
            respond(&mut w, 200, "text/plain", body).unwrap();
            assert_eq!(w.writes, 1, "{}-byte body", body.len());
            let out = String::from_utf8(w.bytes).unwrap();
            assert!(out.contains(&format!("Content-Length: {}\r\n", body.len())));
            assert!(out.ends_with(&format!("\r\n\r\n{body}")));
        }
    }

    #[test]
    fn garbage_request_line_is_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
            let mut out = String::new();
            let _ = s.read_to_string(&mut out);
        });
        let (mut stream, _) = listener.accept().unwrap();
        assert!(read_request(&mut stream).unwrap().is_none());
        drop(stream);
        client.join().unwrap();
    }
}
