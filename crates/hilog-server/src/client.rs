//! A tiny blocking HTTP client, just enough to exercise the server from
//! tests and benchmarks without crates.io dependencies.
//!
//! A [`Connection`] keeps its socket between requests, as the server does:
//! responses are read by `Content-Length`, the socket is dropped when a
//! response says `Connection: close`, and a kept socket the server has
//! meanwhile closed (idle timeout, restart) is replaced once, transparently.
//! The free [`post`] / [`get`] are the same exchange on a connection used
//! once.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

/// Largest response body [`read_response`] will allocate for.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A completed exchange: status code and response body.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Raw response body (JSON for every route of this server).
    pub body: String,
    /// Parsed `Retry-After` header (load-shed `429` responses carry it).
    pub retry_after: Option<u64>,
    /// The server is closing the connection after this response: it said
    /// `Connection: close`, or did not answer as `HTTP/1.1`.
    pub close: bool,
}

impl ClientResponse {
    /// Parses the JSON body.
    pub fn json(&self) -> Result<serde_json::Value, serde_json::Error> {
        serde_json::from_str(&self.body)
    }
}

/// Reads one `Content-Length`-framed response and nothing past it, so the
/// reader is positioned at the next response of a kept connection.
pub fn read_response(reader: &mut impl BufRead) -> std::io::Result<ClientResponse> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    let mut parts = line.split_whitespace();
    let version = parts.next();
    let status = parts
        .next()
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| std::io::Error::other("malformed status line"))?;
    let mut close = version != Some("HTTP/1.1");
    let mut retry_after = None;
    let mut content_length = 0usize;
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .parse()
                .map_err(|_| std::io::Error::other("invalid Content-Length"))?;
        } else if name.eq_ignore_ascii_case("retry-after") {
            retry_after = value.parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            close |= value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_RESPONSE_BYTES {
        return Err(std::io::Error::other("response body over 64 MiB"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body =
        String::from_utf8(body).map_err(|_| std::io::Error::other("response body is not UTF-8"))?;
    Ok(ClientResponse {
        status,
        body,
        retry_after,
        close,
    })
}

fn connect(addr: SocketAddr) -> std::io::Result<BufReader<TcpStream>> {
    let stream = TcpStream::connect(addr)?;
    // Requests are single writes; none should wait for an ACK.
    stream.set_nodelay(true)?;
    Ok(BufReader::new(stream))
}

/// Writes the request and waits for the first byte of the response.  An
/// error here means the request was not answered at all — on a kept socket,
/// that the server had closed it — so sending it again elsewhere is safe.
fn send(reader: &mut BufReader<TcpStream>, request: &str) -> std::io::Result<()> {
    reader.get_mut().write_all(request.as_bytes())?;
    if reader.fill_buf()?.is_empty() {
        return Err(std::io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

/// A persistent client connection: any number of requests, one after the
/// other, on one socket for as long as the server keeps it.
#[derive(Debug)]
pub struct Connection {
    addr: SocketAddr,
    stream: Option<BufReader<TcpStream>>,
}

impl Connection {
    /// Connects to `addr`.
    pub fn open(addr: SocketAddr) -> std::io::Result<Connection> {
        Ok(Connection {
            addr,
            stream: Some(connect(addr)?),
        })
    }

    /// Sends `POST path` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.exchange(&format!(
            "POST {path} HTTP/1.1\r\nHost: hilog\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len(),
        ))
    }

    /// Sends `GET path`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.exchange(&format!("GET {path} HTTP/1.1\r\nHost: hilog\r\n\r\n"))
    }

    /// One request, one response.  The kept socket is tried first; if the
    /// server turns out to have closed it the request goes out once more on
    /// a fresh one.  The socket is kept afterwards unless the response says
    /// `Connection: close` (or reading it failed).
    fn exchange(&mut self, request: &str) -> std::io::Result<ClientResponse> {
        let kept = self
            .stream
            .take()
            .and_then(|mut reader| send(&mut reader, request).ok().map(|()| reader));
        let mut reader = match kept {
            Some(reader) => reader,
            None => {
                let mut reader = connect(self.addr)?;
                send(&mut reader, request)?;
                reader
            }
        };
        let response = read_response(&mut reader)?;
        if !response.close {
            self.stream = Some(reader);
        }
        Ok(response)
    }
}

/// Sends `POST path` with a JSON body on a connection of its own.
pub fn post(addr: SocketAddr, path: &str, body: &str) -> std::io::Result<ClientResponse> {
    Connection::open(addr)?.post(path, body)
}

/// Sends `GET path` on a connection of its own.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<ClientResponse> {
    Connection::open(addr)?.get(path)
}

/// Sends `POST path` but stalls between the headers and the body for
/// `stall` — the shape of a slow-client attack.  A server with a socket
/// timeout answers `408` instead of holding a connection thread; the error
/// cases (server already hung up) surface as `Err`.
pub fn post_stalled(
    addr: SocketAddr,
    path: &str,
    body: &str,
    stall: std::time::Duration,
) -> std::io::Result<ClientResponse> {
    let mut reader = connect(addr)?;
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: hilog\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len(),
    );
    reader.get_mut().write_all(head.as_bytes())?;
    std::thread::sleep(stall);
    // The server may have timed out and responded already; a failed body
    // write is then expected, and the response is still readable.
    let _ = reader.get_mut().write_all(body.as_bytes());
    read_response(&mut reader)
}
