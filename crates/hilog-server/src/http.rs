//! A deliberately minimal HTTP/1.1 layer over `std::net` — just enough to
//! frame a sequence of requests on one persistent connection and write one
//! `Content-Length`-framed response to each, so the serving layer needs no
//! crates.io dependencies.
//!
//! Connections are kept (HTTP/1.1's default) until the client asks for
//! `Connection: close`, speaks another HTTP version, goes away, or sends
//! something [`read_request`] cannot frame.  On a kept connection whatever a
//! request leaves unread is parsed as the *next* request, so framing is a
//! safety property here: every error [`read_request`] produces closes the
//! connection, bodies are delimited by exactly one agreed `Content-Length`,
//! and `Transfer-Encoding` — which this server does not implement — is
//! refused rather than skipped.

use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

/// Most bytes a request line plus headers may take; past it the request is
/// answered `431`.  The head is read before `max_body` is ever consulted, so
/// without this bound one client could grow a line buffer without limit.
const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// [`drain_then_close`] gives up after this many reads…
const DRAIN_READS: usize = 4;
/// …or as soon as one of them waits this long for the peer.
const DRAIN_READ_TIMEOUT: Duration = Duration::from_millis(50);

/// One parsed request: method, path (query strings are not split off —
/// the API routes don't use them), and body.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, …
    pub method: String,
    /// The request target, e.g. `/query`.
    pub path: String,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// The client wants the connection closed after this response: it sent
    /// `Connection: close`, or its request line is not `HTTP/1.1`.
    pub close: bool,
}

/// A response about to be written: status code plus JSON body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Response body; always serialised JSON in this server.
    pub body: String,
    /// Seconds for a `Retry-After` header (load shedding sends `1` with
    /// `429`); `None` omits the header.
    pub retry_after: Option<u64>,
}

impl Response {
    /// A `200 OK` JSON response.
    pub fn ok(body: String) -> Self {
        Response {
            status: 200,
            body,
            retry_after: None,
        }
    }

    /// An error response with a JSON `{"error": ...}` body.
    pub fn error(status: u16, message: &str) -> Self {
        let mut body = String::from("{\"error\":");
        serde::write_json_string(&mut body, message);
        body.push('}');
        Response {
            status,
            body,
            retry_after: None,
        }
    }

    /// An error response that also advertises `Retry-After: {seconds}` —
    /// the shape of the `429` shed response.
    pub fn error_retry_after(status: u16, message: &str, seconds: u64) -> Self {
        let mut response = Response::error(status, message);
        response.retry_after = Some(seconds);
        response
    }
}

fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// `true` for the error kinds a socket read/write timeout produces
/// (platforms disagree on which of the two is reported).
fn is_timeout(error: &std::io::Error) -> bool {
    matches!(
        error.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Maps a failure to read a request that has begun to the right
/// client-facing response: `408` when the socket timed out (slow-client
/// guard), `400` otherwise.
fn read_failure(what: &str, error: &std::io::Error) -> Response {
    if is_timeout(error) {
        Response::error(408, &format!("timed out reading {what}"))
    } else {
        Response::error(400, &format!("failed to read {what}: {error}"))
    }
}

/// Reads one line of the request head into `line` (cleared first) through
/// the head's byte budget.  A line that ends without its newline means the
/// budget ran out (`431`) or the peer hung up mid-head (`400`).
fn read_head_line(
    head: &mut Take<&mut BufReader<TcpStream>>,
    line: &mut String,
    what: &str,
) -> Result<(), Response> {
    line.clear();
    head.read_line(line).map_err(|e| read_failure(what, &e))?;
    if line.ends_with('\n') {
        Ok(())
    } else if head.limit() == 0 {
        Err(Response::error(
            431,
            &format!("request line and headers exceed {MAX_HEAD_BYTES} bytes"),
        ))
    } else {
        Err(Response::error(
            400,
            &format!("connection closed in the {what}"),
        ))
    }
}

/// Reads the next request from the connection's one long-lived reader, so
/// bytes of a pipelined next request that arrived with this one survive in
/// its buffer.
///
/// Returns `Ok(None)` when there is no next request: the peer closed the
/// connection, or sat idle past the socket's read timeout, *before the first
/// byte* — nothing is written into an idle socket, where a client would read
/// it as the answer to whatever it sends next.  Once a request has begun,
/// failures are `Err` with the response to write (`400` malformed, `408`
/// stalled, `413` body over `max_body`, `431` head over 16 KiB, `501`
/// `Transfer-Encoding`); each may leave request bytes unread, so the caller
/// must close the connection after writing it (see [`drain_then_close`]).
pub fn read_request(
    reader: &mut BufReader<TcpStream>,
    max_body: usize,
) -> Result<Option<Request>, Response> {
    match reader.fill_buf() {
        Ok(buffered) if !buffered.is_empty() => {}
        // EOF, an idle timeout or a reset: nobody is waiting for an answer.
        _ => return Ok(None),
    }

    let mut head = reader.by_ref().take(MAX_HEAD_BYTES);
    let mut line = String::new();
    read_head_line(&mut head, &mut line, "request line")?;
    let mut parts = line.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m.to_string(), p.to_string()),
        _ => return Err(Response::error(400, "malformed request line")),
    };
    // Persistence is HTTP/1.1's default; any other version gets one answer.
    let mut close = parts.next() != Some("HTTP/1.1");
    let mut content_length: Option<usize> = None;
    loop {
        read_head_line(&mut head, &mut line, "header")?;
        let header = line.trim_end();
        if header.is_empty() {
            break;
        }
        // `Content-Length : 5` must not pass for a header this server does
        // not know while something in front of it honours it.
        let (name, value) = match header.split_once(':') {
            Some((name, value)) if !name.is_empty() && !name.contains(char::is_whitespace) => {
                (name, value.trim())
            }
            _ => return Err(Response::error(400, "malformed header line")),
        };
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9110 §8.6: `1*DIGIT`.  `str::parse` alone also takes `+5`,
            // which a proxy in front of this server may frame differently.
            let length = Some(value)
                .filter(|digits| digits.bytes().all(|b| b.is_ascii_digit()))
                .and_then(|digits| digits.parse().ok())
                .ok_or_else(|| Response::error(400, "invalid Content-Length"))?;
            // Two lengths that disagree are two framings of one stream.
            if content_length.is_some_and(|seen| seen != length) {
                return Err(Response::error(400, "conflicting Content-Length headers"));
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(Response::error(
                501,
                "Transfer-Encoding is not supported; send Content-Length",
            ));
        } else if name.eq_ignore_ascii_case("connection") {
            close |= value
                .split(',')
                .any(|token| token.trim().eq_ignore_ascii_case("close"));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(Response::error(
            413,
            &format!("request body exceeds {max_body} bytes"),
        ));
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| read_failure("body", &e))?;
    Ok(Some(Request {
        method,
        path,
        body,
        close,
    }))
}

/// Writes one `Content-Length`-framed response.  `Connection: close` is sent
/// only when the caller is about to close; without it an HTTP/1.1 client
/// keeps the socket.  Head and body leave in **one** write: on a kept socket
/// a second small write waits out Nagle's algorithm against the peer's
/// delayed ACK (a 40 ms stall), and with `TCP_NODELAY` set — as the accept
/// loop does — it would still be a second segment and a second wake-up.
pub fn write_response(stream: &mut TcpStream, response: &Response, close: bool) {
    use std::fmt::Write as _;
    let mut message = String::with_capacity(160 + response.body.len());
    let _ = write!(
        message,
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        response.status,
        status_text(response.status),
        response.body.len(),
    );
    if let Some(seconds) = response.retry_after {
        let _ = write!(message, "Retry-After: {seconds}\r\n");
    }
    if close {
        message.push_str("Connection: close\r\n");
    }
    message.push_str("\r\n");
    message.push_str(&response.body);
    // A peer that hung up mid-write is not an error worth surfacing.
    let _ = stream.write_all(message.as_bytes());
}

/// Closes a connection after its last response.  The peer may have sent
/// bytes nobody read (the rest of a refused request, a request pipelined
/// behind `Connection: close`), and closing over them raises RST, which can
/// destroy the response just written before the client reads it; so send
/// FIN, then read and discard what arrives until the peer closes too —
/// briefly and boundedly (the shed path runs this on the accept loop) —
/// before the socket drops.
pub fn drain_then_close(mut stream: TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_READ_TIMEOUT));
    let mut sink = [0u8; 4096];
    for _ in 0..DRAIN_READS {
        match stream.read(&mut sink) {
            Ok(n) if n > 0 => {}
            _ => break,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::read_response;
    use std::net::TcpListener;

    /// A connected loopback pair: (client side, server side).
    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    /// What the server makes of `bytes` followed by the client's FIN.
    fn requests_in(bytes: &[u8], max_body: usize) -> Vec<Result<Request, u16>> {
        let (mut client, server) = pair();
        client.write_all(bytes).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut reader = BufReader::new(server);
        let mut seen = Vec::new();
        loop {
            match read_request(&mut reader, max_body) {
                Ok(Some(request)) => seen.push(Ok(request)),
                Ok(None) => return seen,
                // An error ends the connection: nothing after it is read.
                Err(response) => {
                    seen.push(Err(response.status));
                    return seen;
                }
            }
        }
    }

    fn statuses(bytes: &[u8]) -> Vec<Result<(), u16>> {
        requests_in(bytes, 64)
            .into_iter()
            .map(|r| r.map(|_| ()))
            .collect()
    }

    #[test]
    fn kept_response_is_one_framed_message_without_a_connection_header() {
        let (mut client, mut server) = pair();
        write_response(&mut server, &Response::ok("{\"a\":1}".into()), false);
        write_response(
            &mut server,
            &Response::error_retry_after(429, "later", 1),
            true,
        );
        drop(server);
        let mut raw = String::new();
        client.read_to_string(&mut raw).unwrap();
        let (kept, closing) = raw.split_at(raw.find("HTTP/1.1 429").expect("two messages"));
        assert_eq!(
            kept,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 7\r\n\r\n{\"a\":1}",
        );
        // The same bytes through the client's framing: two messages, no rest.
        let mut reader = raw.as_bytes();
        let first = read_response(&mut reader).unwrap();
        assert_eq!((first.status, first.close), (200, false));
        assert_eq!(first.body, "{\"a\":1}");
        let second = read_response(&mut reader).unwrap();
        assert_eq!((second.status, second.close), (429, true));
        assert_eq!(second.retry_after, Some(1));
        assert!(closing.contains("\r\nConnection: close\r\n"), "{closing}");
        assert!(reader.is_empty(), "bytes after the last message");
    }

    #[test]
    fn pipelined_requests_are_framed_one_by_one() {
        let seen = requests_in(
            b"POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhelloGET /stats HTTP/1.1\r\n\
              Connection: Keep-Alive, Close\r\n\r\nGET /old HTTP/1.0\r\n\r\n",
            64,
        );
        let seen: Vec<Request> = seen.into_iter().map(|r| r.expect("well-formed")).collect();
        assert_eq!(seen.len(), 3);
        assert_eq!(
            (
                seen[0].method.as_str(),
                seen[0].path.as_str(),
                seen[0].close
            ),
            ("POST", "/query", false)
        );
        assert_eq!(seen[0].body, b"hello");
        assert_eq!((seen[1].path.as_str(), seen[1].close), ("/stats", true));
        assert!(seen[1].body.is_empty());
        assert_eq!((seen[2].path.as_str(), seen[2].close), ("/old", true));
    }

    #[test]
    fn a_peer_that_sends_nothing_is_not_a_request() {
        assert!(statuses(b"").is_empty());
        // Idle past the read timeout: the same silence, not a 408.
        let (_client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut reader = BufReader::new(server);
        assert!(matches!(read_request(&mut reader, 64), Ok(None)));
    }

    #[test]
    fn a_request_that_stalls_once_begun_is_answered_408() {
        let (mut client, server) = pair();
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        client
            .write_all(b"POST /query HTTP/1.1\r\nContent-Le")
            .unwrap();
        let mut reader = BufReader::new(server);
        let status = read_request(&mut reader, 64).map_err(|r| r.status);
        assert_eq!(status.map(|_| ()), Err(408));
    }

    #[test]
    fn unframeable_requests_are_refused_by_status() {
        let long = "a".repeat(MAX_HEAD_BYTES as usize);
        for (request, expected) in [
            // The head is bounded, whichever line overruns it.
            (format!("GET /{long} HTTP/1.1\r\n\r\n"), Err(431)),
            (format!("GET / HTTP/1.1\r\nX-Pad: {long}\r\n\r\n"), Err(431)),
            // A body this server cannot delimit is never skipped over.
            (
                "POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n"
                    .into(),
                Err(501),
            ),
            (
                "POST /query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello"
                    .into(),
                Err(400),
            ),
            (
                "POST /query HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"
                    .into(),
                Ok(()),
            ),
            (
                "POST /query HTTP/1.1\r\nContent-Length: five\r\n\r\nhello".into(),
                Err(400),
            ),
            (
                "POST /query HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello".into(),
                Err(400),
            ),
            (
                "POST /query HTTP/1.1\r\nContent-Length: 65\r\n\r\n".into(),
                Err(413),
            ),
            // The peer hung up mid-head, mid-body.
            ("POST /query HTTP/1.1\r\nContent-Le".into(), Err(400)),
            (
                "POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel".into(),
                Err(400),
            ),
            ("\r\n".into(), Err(400)),
            // A header name is a token: no framing header hides behind a space.
            (
                "POST /query HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello".into(),
                Err(400),
            ),
            (
                "GET /stats HTTP/1.1\r\nno colon here\r\n\r\n".into(),
                Err(400),
            ),
        ] {
            assert_eq!(
                statuses(request.as_bytes()),
                vec![expected],
                "{}",
                &request[..request.len().min(60)]
            );
        }
    }
}
