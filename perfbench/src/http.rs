//! A minimal HTTP/1.1 client of the benchmark's own: keep-alive, pipelining
//! and incremental chunked decoding, so the load generator can time the
//! first streamed row and send on a schedule without extra threads.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One complete response.
#[derive(Debug, Clone)]
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    /// When the first body byte arrived (for NDJSON streams: when the first
    /// data row after the header line was complete).
    pub first_row: Instant,
}

impl Response {
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Renders one request onto `out`.
pub fn render_request(out: &mut Vec<u8>, method: &str, path: &str, id: &str, body: &[u8]) {
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nX-LIS-Request-Id: {id}\r\n\r\n",
        body.len()
    );
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(body);
}

#[derive(Debug)]
enum Body {
    Length(usize),
    Chunked(Chunk),
}

#[derive(Debug, Clone, Copy)]
enum Chunk {
    Size,
    Data(usize),
    DataEnd,
    Trailer,
}

/// Incremental response parser over a byte buffer.
#[derive(Debug, Default)]
struct Parser {
    status: Option<u16>,
    body_mode: Option<Body>,
    body: Vec<u8>,
    first_row: Option<Instant>,
    ndjson: bool,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Parser {
    /// Consumes what it can from `buf`; returns a response once complete.
    fn feed(&mut self, buf: &mut Vec<u8>) -> io::Result<Option<Response>> {
        let mut pos = 0usize;
        let result = self.feed_at(buf, &mut pos);
        buf.drain(..pos);
        result
    }

    fn feed_at(&mut self, buf: &[u8], pos: &mut usize) -> io::Result<Option<Response>> {
        if self.status.is_none() {
            let Some(end) = find(&buf[*pos..], b"\r\n\r\n") else {
                return Ok(None);
            };
            let head = std::str::from_utf8(&buf[*pos..*pos + end]).map_err(|_| bad("head"))?;
            let mut lines = head.split("\r\n");
            let status_line = lines.next().ok_or_else(|| bad("status line"))?;
            let status: u16 = status_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| bad("status code"))?;
            let headers: Vec<(String, String)> = lines
                .filter_map(|l| l.split_once(':'))
                .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
                .collect();
            let get = |n: &str| {
                headers
                    .iter()
                    .find(|(k, _)| k.eq_ignore_ascii_case(n))
                    .map(|(_, v)| v.clone())
            };
            let chunked = get("transfer-encoding").is_some_and(|v| v.contains("chunked"));
            self.ndjson = get("content-type").is_some_and(|v| v.contains("ndjson"));
            self.body_mode = Some(if chunked {
                Body::Chunked(Chunk::Size)
            } else {
                let len = get("content-length")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(0);
                Body::Length(len)
            });
            self.status = Some(status);
            *pos += end + 4;
        }
        loop {
            match self.body_mode.as_mut().expect("head parsed") {
                Body::Length(len) => {
                    let take = (*len - self.body.len()).min(buf.len() - *pos);
                    if take > 0 && self.first_row.is_none() {
                        self.first_row = Some(Instant::now());
                    }
                    self.body.extend_from_slice(&buf[*pos..*pos + take]);
                    *pos += take;
                    if self.body.len() == *len {
                        return Ok(Some(self.finish()));
                    }
                    return Ok(None);
                }
                Body::Chunked(state) => match *state {
                    Chunk::Data(remaining) => {
                        let take = remaining.min(buf.len() - *pos);
                        if take == 0 {
                            return Ok(None);
                        }
                        self.body.extend_from_slice(&buf[*pos..*pos + take]);
                        *pos += take;
                        *state = if take == remaining {
                            Chunk::DataEnd
                        } else {
                            Chunk::Data(remaining - take)
                        };
                        if self.first_row.is_none() {
                            let rows = self.body.iter().filter(|&&b| b == b'\n').count();
                            if !self.ndjson || rows >= 2 {
                                self.first_row = Some(Instant::now());
                            }
                        }
                    }
                    Chunk::Size | Chunk::DataEnd | Chunk::Trailer => {
                        let Some(end) = find(&buf[*pos..], b"\r\n") else {
                            return Ok(None);
                        };
                        let line = &buf[*pos..*pos + end];
                        *pos += end + 2;
                        match *state {
                            Chunk::DataEnd => *state = Chunk::Size,
                            Chunk::Trailer => {
                                if line.is_empty() {
                                    return Ok(Some(self.finish()));
                                }
                            }
                            _ => {
                                let line = std::str::from_utf8(line).map_err(|_| bad("chunk"))?;
                                let size = usize::from_str_radix(
                                    line.split(';').next().unwrap_or("").trim(),
                                    16,
                                )
                                .map_err(|_| bad("chunk size"))?;
                                *state = if size == 0 {
                                    Chunk::Trailer
                                } else {
                                    Chunk::Data(size)
                                };
                            }
                        }
                    }
                },
            }
        }
    }

    fn finish(&mut self) -> Response {
        let status = self.status.take().expect("head parsed");
        self.body_mode = None;
        let first_row = self.first_row.take().unwrap_or_else(Instant::now);
        Response {
            status,
            body: std::mem::take(&mut self.body),
            first_row,
        }
    }
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    parser: Parser,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(64 * 1024),
            parser: Parser::default(),
            out: Vec::with_capacity(64 * 1024),
        })
    }

    /// A second handle on the same connection, with buffers of its own:
    /// one thread can send while another receives.
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(Conn {
            stream: self.stream.try_clone()?,
            buf: Vec::with_capacity(64 * 1024),
            parser: Parser::default(),
            out: Vec::with_capacity(64 * 1024),
        })
    }

    /// Sends one request without waiting for its answer (pipelining).
    pub fn send(&mut self, method: &str, path: &str, id: &str, body: &[u8]) -> io::Result<()> {
        self.out.clear();
        render_request(&mut self.out, method, path, id, body);
        self.stream.write_all(&self.out)
    }

    /// Reads the next response. With `deadline`, returns `Ok(None)` once it
    /// passes with no complete response.
    pub fn recv(&mut self, deadline: Option<Instant>) -> io::Result<Option<Response>> {
        loop {
            if let Some(r) = self.parser.feed(&mut self.buf)? {
                return Ok(Some(r));
            }
            let timeout = match deadline {
                Some(d) => {
                    let now = Instant::now();
                    if d <= now {
                        return Ok(None);
                    }
                    Some((d - now).max(Duration::from_micros(50)))
                }
                None => Some(Duration::from_secs(120)),
            };
            self.stream.set_read_timeout(timeout)?;
            let mut chunk = [0u8; 64 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed")),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if deadline.is_some()
                        && matches!(
                            e.kind(),
                            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                        ) =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One blocking round trip.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        id: &str,
        body: &[u8],
    ) -> io::Result<Response> {
        self.send(method, path, id, body)?;
        self.recv(None)?
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "no response"))
    }
}

/// One-shot GET on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<Response> {
    Conn::connect(addr)?.call("GET", path, "ctl", b"")
}

/// One-shot POST on a fresh connection.
pub fn post(addr: SocketAddr, path: &str, body: &[u8]) -> io::Result<Response> {
    Conn::connect(addr)?.call("POST", path, "ctl", body)
}
