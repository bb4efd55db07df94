//! A dependency-free HTTP/1.1 JSON transport over the typed query
//! protocol.
//!
//! [`HttpServer`] binds a `std::net::TcpListener`, accepts connections
//! on a small worker thread pool, and answers `POST /query` (or `/`)
//! requests whose body is one [`fsi_proto::RequestEnvelope`] with the
//! matching [`fsi_proto::ResponseEnvelope`] — content-length framing,
//! keep-alive by default, no external crates (consistent with the
//! workspace's vendored-stubs constraint). Every worker owns a
//! [`QueryService`] clone, so dispatch runs lock-free against the shared
//! hot-swappable indexes.
//!
//! ```text
//! POST /query HTTP/1.1
//! Content-Length: 46
//!
//! {"v":1,"body":{"Lookup":{"x":0.31,"y":0.72}}}
//! ```
//!
//! Status mapping: a request that *decodes* — even one answered with a
//! structured [`fsi_proto::ErrorBody`], like an out-of-bounds point —
//! is a successful protocol exchange and returns `200`. Only transport
//! failures map to HTTP errors: undecodable envelopes are `400`,
//! non-`POST` methods `405`, unknown paths `404`, missing
//! `Content-Length` `411`, oversized bodies `413`.
//!
//! [`HttpClient`] is the matching blocking keep-alive client, used by
//! the differential transport tests, the benchmark suite and the CI
//! smoke step.
//!
//! ## Framing
//!
//! Every HTTP message — each response, whether a `/query` answer,
//! `/metrics` or a 4xx, and each client request — leaves in exactly
//! one `write_all` of one buffer. The head and body are formatted into
//! a byte buffer owned by the connection (server) or the client and
//! reused across messages. Formatting straight onto the socket would
//! make one `write(2)` per format piece, and with `TCP_NODELAY` each
//! piece would go out as its own segment and wake the peer.
//!
//! ## Observability
//!
//! `GET /metrics` answers the Prometheus text exposition of the served
//! [`QueryService`]'s telemetry (scatter-gathered across shards),
//! extended with transport-level families: connection totals, requests
//! handled, and read/handle/write phase histograms. The same transport
//! block rides along as [`fsi_proto::HttpObsBody`] inside every
//! `Response::Metrics` answered over this server. Phase timings start
//! once a request head has arrived, so idle keep-alive wait is never
//! recorded as read time.

use crate::error::FsiError;
use fsi_obs::{Counter, Histogram, HistogramSnapshot, Recorder, Registry};
use fsi_proto::{
    decode_request, decode_response, encode_response, ErrorBody, ErrorCode, HttpObsBody,
    ProtoError, Request, Response,
};
use fsi_resil::{ReplicaSet, ResiliencePolicy};
use fsi_serve::{
    prometheus_text, QueryService, ServeError, ShardBackend, ShardDescriptor, SlotConnector,
    TransportStats,
};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Largest accepted request body. Far above any sane batch (a 100k-point
/// `LookupBatch` is ~4 MB) while bounding a malicious content-length.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;

/// Largest accepted request-line or header line. Head parsing enforces
/// this *while* receiving, so an endless unterminated line cannot grow
/// a worker's memory.
const MAX_HEAD_LINE_BYTES: usize = 8 * 1024;

/// Most headers accepted in one request head.
const MAX_HEADERS: usize = 100;

/// How often blocked I/O wakes up to check the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Content type of the Prometheus text exposition.
const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";

/// Per-worker HTTP transport telemetry, merged on scrape through the
/// server's [`Registry`]. Active connections are derived as
/// `opened - closed` (both cumulative, so the difference is exact even
/// across worker shards).
struct HttpMetrics {
    opened: Counter,
    closed: Counter,
    requests: Counter,
    read: Histogram,
    handle: Histogram,
    write: Histogram,
}

impl HttpMetrics {
    fn new() -> Self {
        Self {
            opened: Counter::new(),
            closed: Counter::new(),
            requests: Counter::new(),
            read: Histogram::new(),
            handle: Histogram::new(),
            write: Histogram::new(),
        }
    }
}

/// Nanoseconds in `d`, saturating instead of wrapping on absurd spans.
fn elapsed_nanos(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// Folds every worker shard into one wire-ready transport block.
/// Histograms are read before counters so a concurrent scrape can only
/// under-report phases relative to `requests`, never the reverse.
fn http_obs_body(registry: &Registry<HttpMetrics>) -> HttpObsBody {
    let (read, handle, write) = registry.fold(
        (
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
            HistogramSnapshot::empty(),
        ),
        |(mut r, mut h, mut w), shard| {
            r.merge(&shard.read.snapshot());
            h.merge(&shard.handle.snapshot());
            w.merge(&shard.write.snapshot());
            (r, h, w)
        },
    );
    let (opened, closed, requests) = registry.fold((0u64, 0u64, 0u64), |(o, c, q), shard| {
        (
            o + shard.opened.get(),
            c + shard.closed.get(),
            q + shard.requests.get(),
        )
    });
    HttpObsBody {
        connections: opened,
        active: opened.saturating_sub(closed),
        requests,
        read,
        handle,
        write,
    }
}

/// A running HTTP serving endpoint. Dropping it (or calling
/// [`HttpServer::shutdown`]) stops the accept loop, drains the workers
/// and joins every thread.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves
    /// `service` with 4 worker threads.
    pub fn bind(service: QueryService, addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::bind_with(service, addr, 4)
    }

    /// Binds with an explicit worker count. Each worker owns one
    /// `service` clone and one connection at a time, so `workers` is
    /// also the maximum number of concurrently served keep-alive
    /// connections; further connections queue until a worker frees up.
    pub fn bind_with(
        service: QueryService,
        addr: impl ToSocketAddrs,
        workers: usize,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = channel();
        let rx = Arc::new(Mutex::new(rx));
        let obs = Registry::new(HttpMetrics::new).recorder();

        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let stop = Arc::clone(&stop);
                let mut service = service.clone();
                // Each worker records into its own registry shard.
                let obs = obs.clone();
                std::thread::spawn(move || loop {
                    // Holding the lock only while receiving: the queue is
                    // the only shared state between workers.
                    let conn = rx.lock().unwrap_or_else(|e| e.into_inner()).recv();
                    match conn {
                        Ok(stream) => {
                            obs.opened.inc();
                            // Connection errors are that connection's
                            // problem; the worker moves on to the next.
                            let _ = serve_connection(stream, &mut service, &stop, &obs);
                            obs.closed.inc();
                        }
                        // Sender dropped: the server is shutting down.
                        Err(_) => return,
                    }
                })
            })
            .collect();

        let accept = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::Acquire) {
                        return; // drops the listener and the sender
                    }
                    if let Ok(stream) = stream {
                        if tx.send(stream).is_err() {
                            return;
                        }
                    }
                }
            })
        };

        Ok(Self {
            addr,
            stop,
            accept: Some(accept),
            workers,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, drains the workers and joins every thread.
    /// In-flight requests finish; idle keep-alive connections close
    /// within one poll interval.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Reads one `\n`-terminated line into `buf`, retrying on read timeouts
/// until data arrives, EOF, or the stop flag is raised. Returns `Ok(0)`
/// on EOF/stop, and errors once the line exceeds `max_len` — a head
/// line that long is an attack on worker memory, not a request.
fn read_line_polling(
    reader: &mut BufReader<TcpStream>,
    buf: &mut String,
    stop: &AtomicBool,
    max_len: usize,
) -> std::io::Result<usize> {
    let mut raw: Vec<u8> = Vec::new();
    loop {
        // fill_buf (not read_line) so the length cap applies *while*
        // receiving: one endless unterminated line can never grow past
        // max_len + one buffer fill.
        let (done, used) = {
            let available = match reader.fill_buf() {
                Ok(available) => available,
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    if stop.load(Ordering::Acquire) {
                        return Ok(0);
                    }
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            if available.is_empty() {
                (true, 0) // EOF
            } else if let Some(pos) = available.iter().position(|&b| b == b'\n') {
                raw.extend_from_slice(&available[..=pos]);
                (true, pos + 1)
            } else {
                raw.extend_from_slice(available);
                (false, available.len())
            }
        };
        reader.consume(used);
        if raw.len() > max_len {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("request head line exceeds {max_len} bytes"),
            ));
        }
        if done {
            break;
        }
    }
    buf.push_str(&String::from_utf8_lossy(&raw));
    Ok(raw.len())
}

/// Reads and discards exactly `len` body bytes — used to keep a
/// keep-alive connection framed after answering a request whose body is
/// irrelevant (unknown path, wrong method). Returns `false` on
/// EOF/shutdown.
fn drain_body_polling(
    reader: &mut BufReader<TcpStream>,
    mut len: usize,
    stop: &AtomicBool,
) -> std::io::Result<bool> {
    let mut sink = [0u8; 4096];
    while len > 0 {
        let want = len.min(sink.len());
        match reader.read(&mut sink[..want]) {
            Ok(0) => return Ok(false),
            Ok(n) => len -= n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// Reads exactly `len` body bytes, retrying on read timeouts.
fn read_body_polling(
    reader: &mut BufReader<TcpStream>,
    len: usize,
    stop: &AtomicBool,
) -> std::io::Result<Option<Vec<u8>>> {
    let mut body = vec![0u8; len];
    let mut read = 0;
    while read < len {
        match reader.read(&mut body[read..]) {
            Ok(0) => return Ok(None), // peer hung up mid-body
            Ok(n) => read += n,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                if stop.load(Ordering::Acquire) {
                    return Ok(None);
                }
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(Some(body))
}

/// One parsed request head.
struct Head {
    method: String,
    path: String,
    content_length: Option<usize>,
    keep_alive: bool,
}

/// Serves one connection until the peer closes, requests `Connection:
/// close`, or the server shuts down.
fn serve_connection(
    stream: TcpStream,
    service: &mut QueryService,
    stop: &AtomicBool,
    obs: &Recorder<HttpMetrics>,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(POLL_INTERVAL))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    // One response frame, cleared and reused for every answer.
    let mut frame = Vec::new();

    loop {
        let head = match read_head(&mut reader, stop)? {
            Some(head) => head,
            None => return Ok(()), // EOF or shutdown between requests
        };
        // Counted before any phase is recorded, so a concurrent scrape
        // can never see more phase samples than requests.
        obs.requests.inc();
        // The Prometheus scrape surface sits outside the JSON envelope
        // path: the service's own metrics (scatter-gathered across
        // shards) plus this transport's block, as text exposition.
        if head.method == "GET" && head.path == "/metrics" {
            let handle_started = Instant::now();
            let text = match service.dispatch(&Request::Metrics) {
                Response::Metrics { mut metrics } => {
                    metrics.http = Some(http_obs_body(obs.registry()));
                    prometheus_text(&metrics)
                }
                // Unreachable by construction — Metrics always answers
                // Metrics — but a transport must not panic on protocol
                // drift.
                other => format!("# metrics unavailable: unexpected {other:?}\n"),
            };
            obs.handle.record(elapsed_nanos(handle_started));
            let write_started = Instant::now();
            write_http(
                &mut writer,
                &mut frame,
                200,
                "OK",
                METRICS_CONTENT_TYPE,
                &text,
                head.keep_alive,
            )?;
            obs.write.record(elapsed_nanos(write_started));
            let body_len = head.content_length.unwrap_or(0);
            if !head.keep_alive || !drain_body_polling(&mut reader, body_len, stop)? {
                return Ok(());
            }
            continue;
        }
        // Transport-level validation, most specific failure first. A
        // rejected request's body must still be consumed, or the next
        // request on this keep-alive connection would be parsed from
        // the middle of the leftover body.
        let reject = if head.method != "POST" {
            Some((
                405,
                "Method Not Allowed",
                format!(
                    "method {} not supported; POST a request envelope",
                    head.method
                ),
            ))
        } else if head.path != "/" && head.path != "/query" {
            Some((
                404,
                "Not Found",
                format!("unknown path {}; POST to /query", head.path),
            ))
        } else {
            None
        };
        if let Some((status, reason, message)) = reject {
            let body_len = head.content_length.unwrap_or(0);
            // An absurd declared length is not worth draining: answer
            // and close instead (keep_alive = false framing).
            let drainable = body_len <= MAX_BODY_BYTES;
            let keep_alive = head.keep_alive && drainable;
            write_http(
                &mut writer,
                &mut frame,
                status,
                reason,
                "application/json",
                &error_wire(ErrorBody::new(
                    fsi_proto::ErrorCode::MalformedRequest,
                    message,
                )),
                keep_alive,
            )?;
            if !keep_alive || !drain_body_polling(&mut reader, body_len, stop)? {
                return Ok(());
            }
            continue;
        }
        let Some(length) = head.content_length else {
            // Without a length the connection is unframed: answer and close.
            write_http(
                &mut writer,
                &mut frame,
                411,
                "Length Required",
                "application/json",
                &error_wire(ErrorBody::new(
                    fsi_proto::ErrorCode::MalformedRequest,
                    "a Content-Length header is required",
                )),
                false,
            )?;
            return Ok(());
        };
        if length > MAX_BODY_BYTES {
            write_http(
                &mut writer,
                &mut frame,
                413,
                "Content Too Large",
                "application/json",
                &error_wire(ErrorBody::new(
                    fsi_proto::ErrorCode::MalformedRequest,
                    format!("request body of {length} bytes exceeds the {MAX_BODY_BYTES} limit"),
                )),
                false,
            )?;
            return Ok(());
        }
        let read_started = Instant::now();
        let Some(body) = read_body_polling(&mut reader, length, stop)? else {
            return Ok(());
        };
        obs.read.record(elapsed_nanos(read_started));

        let handle_started = Instant::now();
        let (status, reason, wire) = match std::str::from_utf8(&body)
            .map_err(|e| ProtoError::Json(format!("body is not UTF-8: {e}")))
            .and_then(decode_request)
        {
            Ok(request) => {
                let mut response = service.dispatch(&request);
                // Metrics answered over this transport carry its block,
                // so wire scrapers see the same picture as /metrics.
                if let Response::Metrics { metrics } = &mut response {
                    metrics.http = Some(http_obs_body(obs.registry()));
                }
                (200, "OK", encode_response(&response))
            }
            Err(e) => (400, "Bad Request", error_wire(ErrorBody::from(&e))),
        };
        obs.handle.record(elapsed_nanos(handle_started));
        let write_started = Instant::now();
        write_http(
            &mut writer,
            &mut frame,
            status,
            reason,
            "application/json",
            &wire,
            head.keep_alive,
        )?;
        obs.write.record(elapsed_nanos(write_started));
        if !head.keep_alive {
            return Ok(());
        }
    }
}

/// Reads and parses one request head (request line + headers). `None`
/// means a clean EOF / shutdown before a request started.
fn read_head(
    reader: &mut BufReader<TcpStream>,
    stop: &AtomicBool,
) -> std::io::Result<Option<Head>> {
    let mut line = String::new();
    if read_line_polling(reader, &mut line, stop, MAX_HEAD_LINE_BYTES)? == 0 {
        return Ok(None);
    }
    let mut parts = line.split_whitespace();
    let method = parts.next().unwrap_or_default().to_string();
    let path = parts.next().unwrap_or_default().to_string();
    let version = parts.next().unwrap_or("HTTP/1.1");
    // HTTP/1.1 defaults to keep-alive; HTTP/1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut content_length = None;
    for headers_seen in 0.. {
        if headers_seen > MAX_HEADERS {
            return Err(std::io::Error::new(
                ErrorKind::InvalidData,
                format!("request head exceeds {MAX_HEADERS} headers"),
            ));
        }
        let mut header = String::new();
        if read_line_polling(reader, &mut header, stop, MAX_HEAD_LINE_BYTES)? == 0 {
            return Ok(None); // EOF mid-head
        }
        let header = header.trim();
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse::<usize>().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        }
    }
    Ok(Some(Head {
        method,
        path,
        content_length,
        keep_alive,
    }))
}

/// The wire form of a transport-level error response.
fn error_wire(error: ErrorBody) -> String {
    encode_response(&Response::Error { error })
}

/// Formats `head` and `body` into `frame` (cleared first, so its
/// allocation is reused) and sends the whole message in one
/// `write_all`.
fn send_framed<W: Write>(
    writer: &mut W,
    frame: &mut Vec<u8>,
    head: std::fmt::Arguments<'_>,
    body: &str,
) -> std::io::Result<()> {
    frame.clear();
    frame.write_fmt(head)?;
    frame.extend_from_slice(body.as_bytes());
    writer.write_all(frame)?;
    writer.flush()
}

/// Writes one framed HTTP response through `frame`.
fn write_http<W: Write>(
    writer: &mut W,
    frame: &mut Vec<u8>,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    send_framed(
        writer,
        frame,
        format_args!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
            body.len()
        ),
        body,
    )
}

/// Writes one framed `POST /query` request through `frame`.
fn write_post<W: Write>(writer: &mut W, frame: &mut Vec<u8>, body: &str) -> std::io::Result<()> {
    send_framed(
        writer,
        frame,
        format_args!(
            "POST /query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        ),
        body,
    )
}

/// Writes one framed bodyless `GET` request through `frame`.
fn write_get<W: Write>(writer: &mut W, frame: &mut Vec<u8>, path: &str) -> std::io::Result<()> {
    send_framed(
        writer,
        frame,
        format_args!("GET {path} HTTP/1.1\r\n\r\n"),
        "",
    )
}

/// A blocking keep-alive client for the HTTP transport: one TCP
/// connection, one in-flight request at a time.
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The request frame, cleared and reused for every request.
    frame: Vec<u8>,
}

impl HttpClient {
    /// Connects to a running [`HttpServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Self {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
            frame: Vec::new(),
        })
    }

    /// Sends one typed request and decodes the typed response.
    ///
    /// A non-2xx status (the server could not decode the request at
    /// all) surfaces as [`FsiError::Http`]; a decoded
    /// [`Response::Error`] is returned as a normal response for the
    /// caller to match on.
    pub fn call(&mut self, request: &Request) -> Result<Response, FsiError> {
        let (status, body) = self.post(&fsi_proto::encode_request(request))?;
        if !(200..300).contains(&status) {
            return Err(FsiError::Http { status, body });
        }
        Ok(decode_response(&body)?)
    }

    /// Sends a raw body and returns `(status, response body)` without
    /// decoding — the escape hatch for protocol tests.
    pub fn post(&mut self, body: &str) -> Result<(u16, String), FsiError> {
        write_post(&mut self.writer, &mut self.frame, body)?;
        self.read_response()
    }

    /// Sends a bodyless `GET` and returns `(status, response body)` —
    /// how `/metrics` is scraped over a keep-alive connection.
    pub fn get(&mut self, path: &str) -> Result<(u16, String), FsiError> {
        write_get(&mut self.writer, &mut self.frame, path)?;
        self.read_response()
    }

    /// Reads one framed response off the connection.
    fn read_response(&mut self) -> Result<(u16, String), FsiError> {
        let mut status_line = String::new();
        if self.reader.read_line(&mut status_line)? == 0 {
            return Err(FsiError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "server closed the connection before responding",
            )));
        }
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| {
                FsiError::Io(std::io::Error::new(
                    ErrorKind::InvalidData,
                    format!("malformed status line: {status_line:?}"),
                ))
            })?;
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if self.reader.read_line(&mut header)? == 0 {
                return Err(FsiError::Io(std::io::Error::new(
                    ErrorKind::UnexpectedEof,
                    "connection closed inside the response head",
                )));
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        FsiError::Io(std::io::Error::new(
                            ErrorKind::InvalidData,
                            format!("bad content-length: {value:?}"),
                        ))
                    })?;
                }
            }
        }
        // The peer's Content-Length is a claim, not an allocation size:
        // the body grows only with the bytes that actually arrive.
        let mut body = Vec::new();
        (&mut self.reader)
            .take(content_length as u64)
            .read_to_end(&mut body)?;
        if body.len() != content_length {
            return Err(FsiError::Io(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                format!(
                    "connection closed after {} of {content_length} body bytes",
                    body.len()
                ),
            )));
        }
        let body = String::from_utf8(body).map_err(|e| {
            FsiError::Io(std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
        })?;
        Ok((status, body))
    }
}

/// One-shot convenience: connect, send one request, disconnect.
pub fn query_once(addr: impl ToSocketAddrs, request: &Request) -> Result<Response, FsiError> {
    HttpClient::connect(addr)?.call(request)
}

/// One-shot Prometheus scrape: `GET /metrics`, answering the text
/// exposition. A non-2xx status surfaces as [`FsiError::Http`].
pub fn scrape_metrics(addr: impl ToSocketAddrs) -> Result<String, FsiError> {
    let (status, body) = HttpClient::connect(addr)?.get("/metrics")?;
    if !(200..300).contains(&status) {
        return Err(FsiError::Http { status, body });
    }
    Ok(body)
}

/// A [`ShardBackend`] over a remote shard server: one keep-alive
/// [`HttpClient`] speaking the typed protocol, shared by every
/// coordinator worker behind a mutex (one in-flight request per remote
/// shard — requests to *different* shards still run in parallel, which
/// is what the two-phase rebuild fan-out needs).
///
/// A transport failure drops the dead connection and redials (once by
/// default, [`RemoteShard::with_reconnect_attempts`] to raise it)
/// before answering a structured [`ErrorCode::Internal`] error, so a
/// shard-server restart costs one failed round-trip, not a coordinator
/// restart.
pub struct RemoteShard {
    addr: String,
    client: Mutex<Option<HttpClient>>,
    reconnect_attempts: u32,
    reconnects: Counter,
    failures: Counter,
}

impl RemoteShard {
    /// Dials `addr` (`host:port`) eagerly, so topology construction
    /// surfaces an unreachable shard immediately instead of at first
    /// query.
    pub fn connect(addr: &str) -> Result<Self, ServeError> {
        let client = HttpClient::connect(addr).map_err(|e| ServeError::Remote {
            addr: addr.to_string(),
            detail: e.to_string(),
        })?;
        Ok(Self {
            addr: addr.to_string(),
            client: Mutex::new(Some(client)),
            reconnect_attempts: 1,
            reconnects: Counter::new(),
            failures: Counter::new(),
        })
    }

    /// How many fresh connections one failed round-trip may dial before
    /// giving up (default 1; clamped to at least 1). Raising it rides
    /// out servers that reap idle keep-alive connections *and* are slow
    /// to accept the replacement dial.
    pub fn with_reconnect_attempts(mut self, attempts: u32) -> Self {
        self.reconnect_attempts = attempts.max(1);
        self
    }

    /// The connector `fsi_serve::Topology::from_spec` expects: dials
    /// every `http://host:port` slot of a topology spec through
    /// [`RemoteShard::connect`].
    pub fn connector() -> impl Fn(&str) -> Result<Box<dyn ShardBackend>, ServeError> {
        |addr| Ok(Box::new(RemoteShard::connect(addr)?) as Box<dyn ShardBackend>)
    }

    /// One round-trip, redialing up to `reconnect_attempts` times on a
    /// transport failure.
    fn call(&self, request: &Request) -> Result<Response, FsiError> {
        let mut slot = self.client.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(mut client) = slot.take() {
            // A failed call means the connection is dead (server
            // restarted, idle keep-alive reaped, …): drop it and
            // redial below.
            if let Ok(response) = client.call(request) {
                *slot = Some(client);
                return Ok(response);
            }
        }
        let mut last: Option<FsiError> = None;
        for _ in 0..self.reconnect_attempts.max(1) {
            match self.redial() {
                Ok(mut client) => match client.call(request) {
                    Ok(response) => {
                        *slot = Some(client);
                        return Ok(response);
                    }
                    Err(e) => last = Some(e),
                },
                Err(e) => last = Some(e),
            }
        }
        Err(last.expect("at least one redial attempt ran"))
    }

    /// Dials a replacement connection, counting the reconnect whether
    /// or not the dial succeeds — a flapping shard shows up either way.
    fn redial(&self) -> Result<HttpClient, FsiError> {
        self.reconnects.inc();
        Ok(HttpClient::connect(self.addr.as_str())?)
    }
}

impl ShardBackend for RemoteShard {
    fn dispatch(&self, request: &Request) -> Response {
        match self.call(request) {
            Ok(response) => response,
            Err(e) => {
                self.failures.inc();
                Response::error(
                    ErrorCode::Internal,
                    format!("remote shard {}: {e}", self.addr),
                )
            }
        }
    }

    fn descriptor(&self) -> ShardDescriptor {
        ShardDescriptor {
            kind: "http",
            addr: Some(self.addr.clone()),
        }
    }

    fn generation(&self) -> u64 {
        match self.dispatch(&Request::Stats) {
            Response::Stats { stats } => stats.generations.first().copied().unwrap_or(0),
            _ => 0,
        }
    }

    fn transport_stats(&self) -> Option<TransportStats> {
        Some(TransportStats {
            reconnects: self.reconnects.get(),
            failures: self.failures.get(),
        })
    }
}

/// The resilience-aware [`SlotConnector`]: HTTP slots dial through
/// [`RemoteShard`] exactly like [`RemoteShard::connector`], and
/// `{"replicas": [...]}` slots additionally wrap their members in an
/// [`fsi_resil::ReplicaSet`] dispatching under `policy` — retries,
/// hedging, per-replica circuit breakers. Hand it to
/// [`fsi_serve::Topology::from_spec`] (or use
/// [`crate::Serving::service_over_with`]) to build a replicated
/// topology.
pub struct ResilientConnector {
    policy: ResiliencePolicy,
    reconnect_attempts: u32,
}

impl ResilientConnector {
    /// A connector building replica sets under `policy`. The policy is
    /// validated when the first replica slot is built (construction
    /// cannot fail, so an invalid policy surfaces as an
    /// `InvalidTopology` error from `Topology::from_spec`).
    pub fn new(policy: ResiliencePolicy) -> Self {
        Self {
            policy,
            reconnect_attempts: 1,
        }
    }

    /// Sets [`RemoteShard::with_reconnect_attempts`] on every HTTP
    /// member this connector dials.
    pub fn with_reconnect_attempts(mut self, attempts: u32) -> Self {
        self.reconnect_attempts = attempts.max(1);
        self
    }
}

impl SlotConnector for ResilientConnector {
    fn connect(&self, addr: &str) -> Result<Box<dyn ShardBackend>, ServeError> {
        Ok(Box::new(
            RemoteShard::connect(addr)?.with_reconnect_attempts(self.reconnect_attempts),
        ))
    }

    fn replica_set(
        &self,
        members: Vec<Box<dyn ShardBackend>>,
    ) -> Result<Box<dyn ShardBackend>, ServeError> {
        ReplicaSet::new(members, self.policy.clone())
            .map(|set| Box::new(set) as Box<dyn ShardBackend>)
            .map_err(|e| ServeError::InvalidTopology(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_geo::{Grid, Partition};
    use fsi_pipeline::ModelSnapshot;
    use fsi_proto::{ErrorCode, WirePoint};
    use fsi_serve::{FrozenIndex, QueryService};

    fn service() -> QueryService {
        let grid = Grid::unit(8).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, 0.25).unwrap();
        QueryService::from(FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap())
    }

    #[test]
    fn round_trips_every_request_kind_over_keep_alive() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap() {
            Response::Decision { decision } => assert_eq!(decision.leaf_id, 0),
            other => panic!("expected decision, got {other:?}"),
        }
        match client
            .call(&Request::LookupBatch {
                points: vec![WirePoint::new(0.1, 0.1), WirePoint::new(0.9, 0.9)],
            })
            .unwrap()
        {
            Response::Decisions { decisions } => assert_eq!(decisions.len(), 2),
            other => panic!("expected decisions, got {other:?}"),
        }
        match client
            .call(&Request::RangeQuery {
                rect: fsi_proto::WireRect::new(0.0, 0.0, 1.0, 1.0),
            })
            .unwrap()
        {
            Response::Regions { ids } => assert_eq!(ids, vec![0, 1, 2, 3]),
            other => panic!("expected regions, got {other:?}"),
        }
        match client.call(&Request::Stats).unwrap() {
            Response::Stats { stats } => assert_eq!(stats.shards, 1),
            other => panic!("expected stats, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn application_errors_are_200_with_structured_bodies() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        match client.call(&Request::Lookup { x: 9.0, y: 9.0 }).unwrap() {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::OutOfBounds),
            other => panic!("expected error, got {other:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn transport_failures_map_to_http_statuses() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        // Undecodable body → 400 with an error envelope.
        let (status, body) = client.post("this is not json").unwrap();
        assert_eq!(status, 400);
        match decode_response(&body).unwrap() {
            Response::Error { error } => assert_eq!(error.code, ErrorCode::MalformedRequest),
            other => panic!("expected error body, got {other:?}"),
        }
        // Wrong protocol version → 400 UnsupportedVersion.
        let wire = fsi_proto::encode_request(&Request::Stats).replace("\"v\":1", "\"v\":42");
        let (status, body) = client.post(&wire).unwrap();
        assert_eq!(status, 400);
        match decode_response(&body).unwrap() {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::UnsupportedVersion)
            }
            other => panic!("expected error body, got {other:?}"),
        }
        // The connection survived both failures.
        assert!(client.call(&Request::Stats).is_ok());
        server.shutdown();
    }

    #[test]
    fn wrong_method_and_path_answer_http_errors() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        write!(writer, "GET /query HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("405"), "{line}");
        server.shutdown();
    }

    /// Reads one framed response (status, body) from a raw connection.
    fn read_raw_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).unwrap();
        let status: u16 = status_line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            reader.read_line(&mut header).unwrap();
            if header.trim().is_empty() {
                break;
            }
            if let Some((name, value)) = header.trim().split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap();
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    }

    #[test]
    fn rejected_requests_with_bodies_do_not_desync_keep_alive() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let body = fsi_proto::encode_request(&Request::Stats);
        // Both rejected requests carry bodies the server must consume,
        // or the valid request behind them would be parsed mid-body.
        write!(
            writer,
            "POST /nope HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        write!(
            writer,
            "PUT /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        write!(
            writer,
            "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        writer.flush().unwrap();

        let (status, _) = read_raw_response(&mut reader);
        assert_eq!(status, 404);
        let (status, _) = read_raw_response(&mut reader);
        assert_eq!(status, 405);
        let (status, wire) = read_raw_response(&mut reader);
        assert_eq!(status, 200, "keep-alive connection desynced: {wire}");
        assert!(matches!(
            decode_response(&wire).unwrap(),
            Response::Stats { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn oversized_head_lines_close_the_connection_instead_of_growing() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // One endless header line, far past the cap: the server must
        // hang up rather than buffer it.
        let chunk = [b'a'; 4096];
        let mut reader = BufReader::new(stream);
        writer
            .write_all(b"POST /query HTTP/1.1\r\nX-Flood: ")
            .unwrap();
        let mut closed = false;
        for _ in 0..32 {
            if writer
                .write_all(&chunk)
                .and_then(|()| writer.flush())
                .is_err()
            {
                closed = true; // server reset the connection mid-flood
                break;
            }
        }
        if !closed {
            // The server closes without answering; EOF (or a reset) is
            // the expected outcome, never a response.
            let mut line = String::new();
            closed = match reader.read_line(&mut line) {
                Ok(0) | Err(_) => true,
                Ok(_) => false,
            };
        }
        assert!(closed, "server kept buffering an unbounded head line");
        server.shutdown();
    }

    #[test]
    fn remote_shard_backend_forwards_and_degrades_gracefully() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let addr = server.addr().to_string();
        let shard = RemoteShard::connect(&addr).unwrap();
        assert_eq!(
            shard.descriptor(),
            ShardDescriptor {
                kind: "http",
                addr: Some(addr.clone()),
            }
        );
        assert_eq!(shard.generation(), 1);
        match shard.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }) {
            Response::Decision { decision } => assert_eq!(decision.leaf_id, 0),
            other => panic!("expected decision, got {other:?}"),
        }
        // Once the shard server is gone, dispatch answers a structured
        // Internal error (after one reconnect attempt) and the
        // generation reads as unreachable — the coordinator keeps
        // serving its other shards.
        server.shutdown();
        match shard.dispatch(&Request::Stats) {
            Response::Error { error } => {
                assert_eq!(error.code, ErrorCode::Internal);
                assert!(error.message.contains(&addr), "{}", error.message);
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(shard.generation(), 0);
        // Dialing a dead address fails eagerly at construction.
        assert!(matches!(
            RemoteShard::connect(&addr),
            Err(ServeError::Remote { .. })
        ));
    }

    #[test]
    fn query_once_works_without_a_persistent_client() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let response = query_once(server.addr(), &Request::Stats).unwrap();
        assert!(matches!(response, Response::Stats { .. }));
        server.shutdown();
    }

    #[test]
    fn get_metrics_answers_the_text_exposition_outside_the_envelope() {
        let server = HttpServer::bind(service().with_lookup_sampling(1), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        for _ in 0..3 {
            client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap();
        }
        let text = scrape_metrics(server.addr()).unwrap();
        assert!(
            text.contains("fsi_requests_total{kind=\"lookup\"} 3"),
            "{text}"
        );
        assert!(text.contains("# TYPE fsi_request_latency_seconds summary"));
        assert!(text.contains("fsi_generation 1"));
        assert!(text.contains("fsi_http_connections_total"));
        assert!(text.contains("fsi_http_requests_total"));
        // The same keep-alive connection can scrape between envelope
        // requests without desyncing either framing.
        let (status, text) = client.get("/metrics").unwrap();
        assert_eq!(status, 200);
        assert!(text.contains("fsi_requests_total{kind=\"lookup\"} 3"));
        assert!(matches!(
            client.call(&Request::Stats).unwrap(),
            Response::Stats { .. }
        ));
        server.shutdown();
    }

    #[test]
    fn wire_metrics_responses_carry_the_http_transport_block() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let mut client = HttpClient::connect(server.addr()).unwrap();
        client.call(&Request::Lookup { x: 0.1, y: 0.1 }).unwrap();
        let Response::Metrics { metrics } = client.call(&Request::Metrics).unwrap() else {
            panic!("expected metrics");
        };
        let http = metrics.http.expect("transport block attached");
        assert!(http.connections >= 1, "{http:?}");
        assert!(http.active >= 1, "{http:?}");
        assert!(http.requests >= 2, "{http:?}");
        server.shutdown();
    }

    /// A `Write` that records every `write` call, to pin the
    /// one-write-per-message framing.
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

    #[test]
    fn every_response_leaves_in_one_write_through_a_reused_frame() {
        let mut service = service();
        let answer = encode_response(&service.dispatch(&Request::Lookup { x: 0.1, y: 0.1 }));
        let metrics = match service.dispatch(&Request::Metrics) {
            Response::Metrics { metrics } => prometheus_text(&metrics),
            other => panic!("expected metrics, got {other:?}"),
        };
        let rejected = error_wire(ErrorBody::new(
            ErrorCode::MalformedRequest,
            "unknown path /nope; POST to /query",
        ));
        // The largest message first: the later, smaller ones must fit
        // the same allocation.
        let mut frame = Vec::new();
        let cases = [
            (200, "OK", METRICS_CONTENT_TYPE, metrics.as_str(), true),
            (200, "OK", "application/json", answer.as_str(), true),
            (
                404,
                "Not Found",
                "application/json",
                rejected.as_str(),
                false,
            ),
        ];
        let mut allocation = None;
        for (status, reason, content_type, body, keep_alive) in cases {
            let mut out = CountingWriter::default();
            write_http(
                &mut out,
                &mut frame,
                status,
                reason,
                content_type,
                body,
                keep_alive,
            )
            .unwrap();
            assert_eq!(out.writes, 1, "{status} took {} writes", out.writes);
            let connection = if keep_alive { "keep-alive" } else { "close" };
            let expected = format!(
                "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
                body.len()
            );
            assert_eq!(String::from_utf8(out.bytes).unwrap(), expected);
            let now = (frame.as_ptr(), frame.capacity());
            assert_eq!(*allocation.get_or_insert(now), now, "frame reallocated");
        }
    }

    #[test]
    fn every_client_request_leaves_in_one_write() {
        let body = fsi_proto::encode_request(&Request::Lookup { x: 0.1, y: 0.1 });
        let mut frame = Vec::new();
        let mut out = CountingWriter::default();
        write_post(&mut out, &mut frame, &body).unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(
            String::from_utf8(out.bytes).unwrap(),
            format!(
                "POST /query HTTP/1.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
        );
        let mut out = CountingWriter::default();
        write_get(&mut out, &mut frame, "/metrics").unwrap();
        assert_eq!(out.writes, 1);
        assert_eq!(out.bytes, b"GET /metrics HTTP/1.1\r\n\r\n");
    }

    #[test]
    fn lookup_answers_carry_the_exact_golden_head() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let request = Request::Lookup { x: 0.1, y: 0.1 };
        let expected_body = encode_response(&service().dispatch(&request));
        let body = fsi_proto::encode_request(&request);
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .write_all(
                format!(
                    "POST /query HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                )
                .as_bytes(),
            )
            .unwrap();
        let head = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            expected_body.len()
        );
        let mut got = vec![0u8; head.len() + expected_body.len()];
        stream.read_exact(&mut got).unwrap();
        assert_eq!(
            String::from_utf8_lossy(&got[..head.len()]),
            head,
            "response head drifted"
        );
        assert_eq!(String::from_utf8_lossy(&got[head.len()..]), expected_body);
        server.shutdown();
    }

    /// Serves one canned response `raw` to the first request on a
    /// throwaway listener, then hangs up; answers what the client's
    /// `post` returned.
    fn post_against_canned(raw: &'static [u8]) -> Result<(u16, String), FsiError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Consume the whole (bodyless) request so closing is a
            // clean FIN, not a reset.
            let mut seen = Vec::new();
            let mut chunk = [0u8; 256];
            while !seen.ends_with(b"\r\n\r\n") {
                let n = stream.read(&mut chunk).unwrap();
                assert!(n > 0, "client hung up mid-request");
                seen.extend_from_slice(&chunk[..n]);
            }
            stream.write_all(raw).unwrap();
        });
        let result = HttpClient::connect(addr).unwrap().post("");
        peer.join().unwrap();
        result
    }

    #[test]
    fn hostile_content_lengths_error_instead_of_allocating() {
        let huge =
            post_against_canned(b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n");
        assert!(
            matches!(&huge, Err(FsiError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof),
            "{huge:?}"
        );
        let short = post_against_canned(b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc");
        assert!(
            matches!(&short, Err(FsiError::Io(e)) if e.kind() == ErrorKind::UnexpectedEof),
            "{short:?}"
        );
    }

    #[test]
    fn remote_shard_reports_transport_stats() {
        let server = HttpServer::bind(service(), "127.0.0.1:0").unwrap();
        let shard = RemoteShard::connect(&server.addr().to_string()).unwrap();
        shard.dispatch(&Request::Stats);
        assert_eq!(
            shard.transport_stats(),
            Some(TransportStats {
                reconnects: 0,
                failures: 0,
            })
        );
        server.shutdown();
        shard.dispatch(&Request::Stats);
        let stats = shard.transport_stats().unwrap();
        assert_eq!(stats.failures, 1, "{stats:?}");
        assert!(stats.reconnects >= 1, "{stats:?}");
    }
}
