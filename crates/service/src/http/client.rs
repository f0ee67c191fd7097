//! The client side of the wire: one HTTP/1.1 connection that sends
//! requests and reads `Content-Length`-framed responses, so any number of
//! exchanges can share it. The fleet router proxies to and probes its
//! workers through it; the load generator and tests drive daemons with it.
//!
//! Reading is bounded like the server's request reader — each head line
//! at [`MAX_LINE_BYTES`], the head at [`MAX_HEAD_BYTES`], the body at
//! [`MAX_BODY_BYTES`] — and every violation is a typed [`io::Error`].

use super::{MAX_BODY_BYTES, MAX_HEAD_BYTES};
use std::borrow::Cow;
use std::io::{self, BufRead, BufReader, ErrorKind, Read};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Longest accepted response head line.
pub const MAX_LINE_BYTES: usize = 16 * 1024;

/// One framed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code from the status line.
    pub status: u16,
    /// Status line and header lines, each terminated by CRLF.
    pub head: String,
    /// Body bytes (`Content-Length` of them).
    pub body: Vec<u8>,
}

impl Response {
    /// The first value of header `name` (case-insensitive), trimmed.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.head.lines().skip(1).find_map(|line| {
            let (n, v) = line.split_once(':')?;
            n.trim().eq_ignore_ascii_case(name).then(|| v.trim())
        })
    }

    /// The body as text (invalid UTF-8 replaced).
    pub fn text(&self) -> Cow<'_, str> {
        String::from_utf8_lossy(&self.body)
    }

    /// `false` when the server announced `Connection: close`.
    pub fn keep_alive(&self) -> bool {
        !self
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// A client connection: a buffered read half over the write half.
#[derive(Debug)]
pub struct Conn {
    reader: BufReader<TcpStream>,
    stream: TcpStream,
    host: String,
}

impl Conn {
    /// Connects to the first address `addr` resolves to; `timeout` bounds
    /// the connect and every later read and write.
    ///
    /// # Errors
    ///
    /// Resolution, connect and socket-option failures.
    pub fn connect(addr: impl ToSocketAddrs, timeout: Duration) -> io::Result<Conn> {
        let addr = addr.to_socket_addrs()?.next();
        let addr = addr.ok_or_else(|| io::Error::new(ErrorKind::InvalidInput, "no address"))?;
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
            host: addr.to_string(),
        })
    }

    /// The write half, for bytes that are not a well-formed request (or a
    /// half-close).
    pub fn stream(&mut self) -> &mut TcpStream {
        &mut self.stream
    }

    /// Sends one request: `headers` are extra `Name: value` lines, and
    /// `keep_alive` picks the `Connection` header.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[&str],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<()> {
        let start = format!("{method} {path} HTTP/1.1\r\nHost: {}", self.host);
        super::write_message(&mut self.stream, &start, body, headers, keep_alive)
    }

    /// Reads one framed response; `Ok(None)` when the server closed the
    /// connection at a response boundary.
    ///
    /// # Errors
    ///
    /// EOF inside a response; an oversized head line, head or body; a
    /// non-UTF-8 head; an unreadable status line; no `Content-Length`.
    pub fn read_response(&mut self) -> io::Result<Option<Response>> {
        read_response(&mut self.reader)
    }

    /// [`Conn::send`], then [`Conn::read_response`].
    ///
    /// # Errors
    ///
    /// As both; a close before the response is `UnexpectedEof`.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        headers: &[&str],
        body: &[u8],
        keep_alive: bool,
    ) -> io::Result<Response> {
        self.send(method, path, headers, body, keep_alive)?;
        self.read_response()?
            .ok_or_else(|| io::Error::new(ErrorKind::UnexpectedEof, "closed before a response"))
    }
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg)
}

fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Option<Response>> {
    let (mut head, mut content_length) = (String::new(), None);
    loop {
        let mut raw = Vec::new();
        let limit = MAX_LINE_BYTES as u64;
        let n = reader.by_ref().take(limit).read_until(b'\n', &mut raw)?;
        if n == 0 && head.is_empty() {
            return Ok(None);
        }
        if raw.last() != Some(&b'\n') {
            return Err(match n {
                MAX_LINE_BYTES => invalid(format!("response head line over {n} bytes")),
                _ => io::Error::new(ErrorKind::UnexpectedEof, "closed mid-response"),
            });
        }
        let line = String::from_utf8(raw).map_err(|_| invalid("non-UTF-8 head".into()))?;
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if head.len() + line.len() > MAX_HEAD_BYTES {
            return Err(invalid(format!(
                "response head over {MAX_HEAD_BYTES} bytes"
            )));
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
        head.push_str(line);
        head.push_str("\r\n");
    }
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|code| code.parse().ok());
    let status = status.ok_or_else(|| invalid(format!("unreadable status line in {head:?}")))?;
    let len = content_length.ok_or_else(|| invalid("no Content-Length".into()))?;
    if len > MAX_BODY_BYTES {
        return Err(invalid(format!(
            "response body over {MAX_BODY_BYTES} bytes"
        )));
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body)?;
    Ok(Some(Response { status, head, body }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_framed_responses_back_to_back() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nX-Cache: hit\r\n\r\nok\
                    HTTP/1.1 503 Unavailable\r\ncontent-length: 0\r\nConnection: close\r\n\r\n";
        let mut reader = &raw[..];
        let first = read_response(&mut reader).unwrap().unwrap();
        assert_eq!((first.status, &first.body[..]), (200, &b"ok"[..]));
        assert_eq!(first.header("x-cache"), Some("hit"));
        assert!(first.keep_alive());
        let second = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(second.status, 503);
        assert!(!second.keep_alive());
        assert_eq!(
            read_response(&mut reader).unwrap(),
            None,
            "EOF at a boundary"
        );
    }

    #[test]
    fn truncated_or_oversized_responses_are_typed_errors() {
        let ok = "HTTP/1.1 200 OK\r\n";
        let long_line = format!("{ok}X: {}\r\n\r\n", "y".repeat(MAX_LINE_BYTES));
        let long_head = format!("{ok}{}\r\n", "X: y\r\n".repeat(MAX_HEAD_BYTES / 6 + 1));
        let huge_body = format!("{ok}Content-Length: {}\r\n\r\n", MAX_BODY_BYTES + 1);
        for (raw, kind) in [
            (format!("{ok}Content-Le"), ErrorKind::UnexpectedEof),
            (
                format!("{ok}Content-Length: 9\r\n\r\nhalf"),
                ErrorKind::UnexpectedEof,
            ),
            (format!("{ok}\r\n"), ErrorKind::InvalidData),
            ("garbage\r\n\r\n".into(), ErrorKind::InvalidData),
            (long_line, ErrorKind::InvalidData),
            (long_head, ErrorKind::InvalidData),
            (huge_body, ErrorKind::InvalidData),
        ] {
            let err = read_response(&mut raw.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), kind, "{err}");
        }
    }
}
