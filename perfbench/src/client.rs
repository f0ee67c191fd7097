//! A keep-alive HTTP/1.1 client for the benchmark's closed loops: one TCP
//! connection, requests written as prepared bytes, responses framed by
//! `Content-Length`. A connection the server announced closed (or that
//! sat idle long enough for the server to drop it) is replaced before the
//! next request.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Reconnect before reusing a connection idle for this long; the server's
/// default idle timeout is 5 s.
const MAX_IDLE: Duration = Duration::from_secs(2);

pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    addr: SocketAddr,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
    last_used: Instant,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            conn: None,
            last_used: Instant::now(),
        }
    }

    fn connect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::new(stream.try_clone()?);
        self.conn = Some((stream, reader));
        self.last_used = Instant::now();
        Ok(())
    }

    /// Makes sure a fresh-enough connection is open; called between
    /// requests, outside any timed span.
    pub fn ready(&mut self) -> io::Result<()> {
        if self.conn.is_none() || self.last_used.elapsed() > MAX_IDLE {
            self.connect()?;
        }
        Ok(())
    }

    /// Sends prepared request bytes (head and body) and reads the framed
    /// response. Any I/O or framing error drops the connection.
    pub fn send(&mut self, wire: &[u8]) -> io::Result<Response> {
        self.ready()?;
        let result = self.exchange(wire);
        self.last_used = Instant::now();
        match &result {
            Ok((_, keep)) if *keep => {}
            _ => self.conn = None,
        }
        result.map(|(resp, _)| resp)
    }

    fn exchange(&mut self, wire: &[u8]) -> io::Result<(Response, bool)> {
        let Some((stream, reader)) = self.conn.as_mut() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no connection"));
        };
        stream.write_all(wire)?;
        let mut status = 0u16;
        let mut len: Option<usize> = None;
        let mut keep = true;
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a response head",
                ));
            }
            let l = line.trim_end();
            if l.is_empty() {
                break;
            }
            if status == 0 {
                status = l
                    .split(' ')
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                continue;
            }
            if let Some((name, value)) = l.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    len = value.parse().ok();
                } else if name.eq_ignore_ascii_case("connection") {
                    keep = !value.eq_ignore_ascii_case("close");
                }
            }
        }
        let len = len.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "response without Content-Length",
            )
        })?;
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body)?;
        Ok((Response { status, body }, keep))
    }
}

/// The bytes of one `POST /v1/schedule` request carrying `body`.
pub fn post_schedule(body: &[u8], content_type: &str) -> Vec<u8> {
    let head = format!(
        "POST /v1/schedule HTTP/1.1\r\nHost: localhost\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    let mut wire = Vec::with_capacity(head.len() + body.len());
    wire.extend_from_slice(head.as_bytes());
    wire.extend_from_slice(body);
    wire
}

/// `GET /readyz` on a fresh connection; `true` on a 200.
pub fn ready(addr: SocketAddr) -> io::Result<bool> {
    let mut c = Client::new(addr);
    let resp = c.send(b"GET /readyz HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")?;
    Ok(resp.status == 200)
}
