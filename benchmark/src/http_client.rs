//! The benchmark's own HTTP/1.1 client, and the TIME_WAIT guard.
//!
//! Deliberately not `hilog_server::client`: that one belongs to the program
//! and may change with it.  This client sends no `Connection: close`, reads
//! the body by `Content-Length`, keeps the socket when the server leaves it
//! open and reconnects when the response says `Connection: close` — so a
//! server that closes after every response is measured as it is, and one
//! that learns keep-alive gains without this file being edited.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Most connections one run may open: the ephemeral port range holds 28,232
/// ports and a closed connection occupies its port pair for 60 s.
pub const MAX_CONNECTIONS_PER_RUN: u64 = 22_000;

/// Connections opened by every client of this process; a run is a process.
static RUN_CONNECTIONS: AtomicU64 = AtomicU64::new(0);

/// The guard waits until TIME_WAIT sockets plus the connections a run plans
/// to open fit under this.  The kernel's table holds 65,536, but requests
/// already slow down well before it is full: measured back to back, the
/// median request took 0.100 ms while the table held under 25,000 sockets,
/// 0.12 ms at 33,000–41,000 and 0.13–0.15 ms above.
const TW_CEILING: u64 = 24_000;
const TW_MAX_WAIT: Duration = Duration::from_secs(60);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
    /// Time spent in `connect`, when this request had to open a socket.
    pub connect: Option<Duration>,
    /// Request written → response fully read, on a connected socket.
    pub exchange: Duration,
}

#[derive(Debug)]
pub struct HttpClient {
    addr: SocketAddr,
    host: String,
    stream: Option<BufReader<TcpStream>>,
    pub connections_opened: u64,
    pub requests: u64,
}

impl HttpClient {
    pub fn new(addr: SocketAddr) -> HttpClient {
        HttpClient {
            addr,
            host: addr.to_string(),
            stream: None,
            connections_opened: 0,
            requests: 0,
        }
    }

    /// Opens a socket unless one is being kept; returns how long `connect`
    /// took when it had to.
    pub fn ensure_connected(&mut self) -> std::io::Result<Option<Duration>> {
        if self.stream.is_some() {
            return Ok(None);
        }
        if RUN_CONNECTIONS.fetch_add(1, Ordering::Relaxed) >= MAX_CONNECTIONS_PER_RUN {
            return Err(std::io::Error::other(
                "connection budget of this run is spent",
            ));
        }
        let start = Instant::now();
        let stream = TcpStream::connect(self.addr)?;
        let elapsed = start.elapsed();
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        self.connections_opened += 1;
        self.stream = Some(BufReader::new(stream));
        Ok(Some(elapsed))
    }

    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<Response> {
        self.request("POST", path, body)
    }

    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.request("GET", path, "")
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let kept = self.stream.is_some();
        let connect = self.ensure_connected()?;
        match self.exchange(method, path, body) {
            Ok(mut response) => {
                response.connect = connect;
                Ok(response)
            }
            // A kept socket may have been closed by the peer since the last
            // response; that shows as a failed write or an empty read, and
            // is retried once on a fresh connection.
            Err(_) if kept => {
                let connect = self.ensure_connected()?;
                let mut response = self.exchange(method, path, body)?;
                response.connect = connect;
                Ok(response)
            }
            Err(error) => Err(error),
        }
    }

    /// One request and its response on the connected socket (see
    /// [`Self::ensure_connected`]).  The socket is dropped when the response
    /// says `Connection: close`, and on any error.
    pub fn exchange(&mut self, method: &str, path: &str, body: &str) -> std::io::Result<Response> {
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            self.host,
            body.len()
        );
        self.requests += 1;
        let result = self.exchange_on_socket(&message);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_on_socket(&mut self, message: &str) -> std::io::Result<Response> {
        let Some(reader) = self.stream.as_mut() else {
            return Err(std::io::ErrorKind::NotConnected.into());
        };
        let start = Instant::now();
        reader.get_mut().write_all(message.as_bytes())?;
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        let mut parts = line.split_whitespace();
        let version = parts.next().unwrap_or("");
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("malformed status line `{line}`")))?;
        // HTTP/1.1 connections persist unless the response says otherwise.
        let mut close = version != "HTTP/1.1";
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value
                        .parse()
                        .map_err(|_| std::io::Error::other("invalid Content-Length"))?;
                } else if name.eq_ignore_ascii_case("connection") {
                    close = value.eq_ignore_ascii_case("close");
                }
            }
        }
        if content_length > 64 << 20 {
            return Err(std::io::Error::other("response body over 64 MiB"));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        let exchange = start.elapsed();
        if close {
            self.stream = None;
        }
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::other("response body is not UTF-8"))?;
        Ok(Response {
            status,
            body,
            connect: None,
            exchange,
        })
    }
}

/// Sockets in TIME_WAIT, from `/proc/net/sockstat`; `None` off Linux.
pub fn time_wait_sockets() -> Option<u64> {
    let text = std::fs::read_to_string("/proc/net/sockstat").ok()?;
    let line = text.lines().find(|l| l.starts_with("TCP:"))?;
    let mut words = line.split_whitespace();
    words.find(|w| *w == "tw")?;
    words.next()?.parse().ok()
}

/// What the TIME_WAIT guard saw.
#[derive(Debug, Clone, Copy)]
pub struct TimeWaitGuard {
    /// TIME_WAIT sockets when the guard was called.
    pub at_start: u64,
    pub waited_s: f64,
    /// Whether the table drained in time.  A socket leaves TIME_WAIT after
    /// 60 s, so when it did not, something else on the machine is opening
    /// connections and the window would measure the kernel's table.
    pub fits: bool,
}

/// Waits (at most a minute) until the TIME_WAIT sockets already on the
/// machine plus `planned` new connections fit under the ceiling.  The wait
/// belongs to neither set-up nor the window.
pub fn wait_for_time_wait(planned: u64) -> TimeWaitGuard {
    let at_start = time_wait_sockets().unwrap_or(0);
    let start = Instant::now();
    let mut tw = at_start;
    while tw + planned > TW_CEILING && start.elapsed() < TW_MAX_WAIT {
        std::thread::sleep(Duration::from_millis(250));
        tw = time_wait_sockets().unwrap_or(0);
    }
    TimeWaitGuard {
        at_start,
        waited_s: start.elapsed().as_secs_f64(),
        fits: tw + planned <= TW_CEILING,
    }
}
