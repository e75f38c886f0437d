//! The `/metrics`-style live endpoint: a std-only TCP server that
//! answers `GET /metrics` (and `/`) with the service's metrics body.
//!
//! Deliberately minimal (the vendored-deps constraint rules out an
//! HTTP stack): only the request line is read. A `format=prom` query
//! selects the Prometheus text exposition; anything else gets the
//! JSONL body, as an `HTTP/1.0 200` with `text/plain` — curl-able and
//! parseable line by line. Any other path answers `404`, and a request
//! line that is not `METHOD TARGET VERSION` answers `400`. The request
//! and the response each get one deadline across all their reads or
//! writes, so a client that stalls or trickles cannot hold the
//! single-threaded accept loop.

use crate::service::Service;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a connection may take to deliver its request line, across
/// all its reads.
const READ_TIMEOUT: Duration = Duration::from_millis(200);
/// How long a connection may take to accept the whole response,
/// across all its writes.
const WRITE_TIMEOUT: Duration = Duration::from_secs(1);

/// A running metrics endpoint. Dropping (or [`MetricsServer::shutdown`])
/// stops the accept loop and joins the serving thread.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serves `service`'s metrics body to each `/metrics` request from
    /// a background thread.
    pub fn spawn(service: Arc<Service>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("fcr-serve-metrics".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if stop_flag.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    serve_one(stream, &service);
                }
            })?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the serving thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(thread) = self.thread.take() else {
            return;
        };
        self.stop.store(true, Ordering::Release);
        // Unblock the accept() with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = thread.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Answers one connection: read the request line, route it, then
/// write the response. All I/O errors are ignored — a dropped scrape
/// must not disturb the service.
fn serve_one(mut stream: TcpStream, service: &Service) {
    // The request line may arrive in several reads; all of them share
    // one deadline, so a client that trickles bytes cannot stretch it.
    let deadline = Instant::now() + READ_TIMEOUT;
    let mut buf = [0u8; 1024];
    let mut n = 0;
    while n < buf.len() && !buf[..n].contains(&b'\n') {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            break;
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => n += k,
        }
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let (status, content_type, body) = match route(&request) {
        Route::Metrics => (
            "200 OK",
            "text/plain; charset=utf-8",
            service.metrics_text(),
        ),
        Route::Prometheus => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            service.metrics_prometheus(),
        ),
        Route::NotFound => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".to_string(),
        ),
        Route::BadRequest => (
            "400 Bad Request",
            "text/plain; charset=utf-8",
            "bad request\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    write_before(
        &mut stream,
        response.as_bytes(),
        Instant::now() + WRITE_TIMEOUT,
    );
}

/// Writes as much of `bytes` as the client accepts before `deadline`
/// and returns how many bytes that was. Each write may block only for
/// the time left, so a client that reads slowly is cut off at the
/// deadline as surely as one that stops.
fn write_before(stream: &mut TcpStream, bytes: &[u8], deadline: Instant) -> usize {
    let mut written = 0;
    while written < bytes.len() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_write_timeout(Some(left)).is_err() {
            break;
        }
        match stream.write(&bytes[written..]) {
            Ok(0) | Err(_) => break,
            Ok(k) => written += k,
        }
    }
    written
}

/// What a request line asks for.
#[derive(Debug, PartialEq, Eq)]
enum Route {
    /// `/metrics` or `/`: the JSONL body.
    Metrics,
    /// The same paths with `format=prom` (or `format=prometheus`) in
    /// the query: the Prometheus exposition.
    Prometheus,
    /// A well-formed request for any other path.
    NotFound,
    /// A first line that is not `METHOD TARGET HTTP/x`.
    BadRequest,
}

fn route(request: &str) -> Route {
    let line = request.lines().next().unwrap_or("");
    let mut parts = line.split_whitespace();
    let (Some(_method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Route::BadRequest;
    };
    if !version.starts_with("HTTP/") {
        return Route::BadRequest;
    }
    let (path, query) = target.split_once('?').unwrap_or((target, ""));
    if !matches!(path, "/metrics" | "/") {
        return Route::NotFound;
    }
    if query
        .split('&')
        .any(|pair| matches!(pair, "format=prom" | "format=prometheus"))
    {
        Route::Prometheus
    } else {
        Route::Metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServeConfig;
    use fcr_runtime::{Runtime, RuntimeConfig};

    /// Sends `request` on a fresh connection and returns the whole
    /// response.
    fn scrape(addr: SocketAddr, request: &[u8]) -> String {
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.write_all(request).expect("request");
        let mut response = String::new();
        conn.read_to_string(&mut response).expect("response");
        response
    }

    fn server() -> MetricsServer {
        let runtime = Arc::new(Runtime::with_config(RuntimeConfig {
            workers: 1,
            ..RuntimeConfig::default()
        }));
        let service = Arc::new(Service::new(ServeConfig::default(), runtime));
        MetricsServer::spawn(service, "127.0.0.1:0").expect("bind")
    }

    #[test]
    fn endpoint_serves_a_parseable_metrics_body() {
        let server = server();
        let addr = server.local_addr();

        let response = scrape(addr, b"GET /metrics HTTP/1.0\r\n\r\n");
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).expect("body");
        let serve_line = body.lines().next().expect("serve line");
        assert!(
            serve_line.starts_with("{\"type\":\"serve\""),
            "{serve_line}"
        );
        assert!(body.contains("\"type\":\"meta\""), "{body}");
        // Two scrapes both answer (the loop keeps serving).
        let second = scrape(addr, b"GET / HTTP/1.0\r\n\r\n");
        assert!(second.contains("\"type\":\"serve\""));

        // format=prom negotiates the Prometheus exposition instead.
        let prom = scrape(addr, b"GET /metrics?format=prom HTTP/1.0\r\n\r\n");
        assert!(
            prom.contains("Content-Type: text/plain; version=0.0.4"),
            "{prom}"
        );
        let prom_body = prom.split("\r\n\r\n").nth(1).expect("prom body");
        assert!(
            prom_body.starts_with("# TYPE fcr_serve_steps_total counter"),
            "{prom_body}"
        );
        assert!(
            prom_body.contains("fcr_serve_sessions_active 0"),
            "{prom_body}"
        );
        assert!(!prom_body.contains("\"type\":"), "{prom_body}");
        server.shutdown();
    }

    #[test]
    fn unknown_paths_answer_404_and_malformed_requests_400() {
        let server = server();
        let addr = server.local_addr();
        for request in [
            &b"GET /favicon.ico HTTP/1.1\r\n\r\n"[..],
            b"GET /metricsx?format=prom HTTP/1.0\r\n\r\n",
        ] {
            let response = scrape(addr, request);
            assert!(
                response.starts_with("HTTP/1.0 404 Not Found\r\n"),
                "{response}"
            );
            assert!(!response.contains("fcr_serve_"), "{response}");
        }
        for request in [
            &b"GET /metrics\r\n\r\n"[..],
            b"GET /metrics HTTP/1.0 extra\r\n\r\n",
            b"GET /metrics FTP/1.0\r\n\r\n",
            b"\r\n",
        ] {
            let response = scrape(addr, request);
            assert!(
                response.starts_with("HTTP/1.0 400 Bad Request\r\n"),
                "{response}"
            );
        }
        // A request line split across two writes still routes.
        let mut conn = TcpStream::connect(addr).expect("connect");
        conn.set_nodelay(true).expect("nodelay");
        conn.write_all(b"GET /met").expect("first half");
        std::thread::sleep(Duration::from_millis(20));
        conn.write_all(b"rics HTTP/1.0\r\n\r\n")
            .expect("second half");
        let mut split = String::new();
        conn.read_to_string(&mut split).expect("response");
        assert!(split.starts_with("HTTP/1.0 200 OK"), "{split}");
        // The loop still serves after the errors.
        assert!(scrape(addr, b"GET / HTTP/1.0\r\n\r\n").starts_with("HTTP/1.0 200 OK"));
        server.shutdown();
    }

    #[test]
    fn a_slow_reader_is_cut_off_at_the_response_deadline() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (mut conn, _) = listener.accept().expect("accept");
        // Reads 4 KiB every 5 ms (< 1 MB/s): every write makes some
        // progress, but the whole body would take half a minute.
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut buf = [0u8; 4096];
                while !stop.load(Ordering::Acquire)
                    && matches!(client.read(&mut buf), Ok(k) if k > 0)
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
            })
        };
        let body = vec![b'x'; 32 << 20];
        let started = Instant::now();
        let written = write_before(&mut conn, &body, started + Duration::from_millis(200));
        let took = started.elapsed();
        drop(conn);
        stop.store(true, Ordering::Release);
        reader.join().expect("reader");
        assert!(written < body.len(), "{written}");
        assert!(took < Duration::from_secs(5), "{took:?}");
    }

    #[test]
    fn routing_parses_the_request_line() {
        assert_eq!(route("GET /metrics HTTP/1.0\r\n"), Route::Metrics);
        assert_eq!(route("GET / HTTP/1.1\r\n"), Route::Metrics);
        assert_eq!(
            route("GET /metrics?format=prom HTTP/1.0\r\n"),
            Route::Prometheus
        );
        assert_eq!(
            route("GET /metrics?x=1&format=prometheus HTTP/1.1\r\n"),
            Route::Prometheus
        );
        assert_eq!(
            route("GET /metrics?format=json HTTP/1.0\r\n"),
            Route::Metrics
        );
        assert_eq!(
            route("GET /metrics?format=promx HTTP/1.0\r\n"),
            Route::Metrics
        );
        assert_eq!(route("GET /other HTTP/1.0\r\n"), Route::NotFound);
        assert_eq!(route(""), Route::BadRequest);
        assert_eq!(route("GET\r\n"), Route::BadRequest);
    }

    mod fuzz {
        use super::*;
        use proptest::prelude::*;

        /// Paths, and whether they serve the metrics body.
        const PATHS: [(&str, bool); 8] = [
            ("/metrics", true),
            ("/", true),
            ("/metricsx", false),
            ("/metrics/", false),
            ("/favicon.ico", false),
            ("//", false),
            ("/METRICS", false),
            ("metrics", false),
        ];

        /// Queries, and whether they select the Prometheus exposition.
        const QUERIES: [(&str, bool); 9] = [
            ("", false),
            ("?format=prom", true),
            ("?format=prometheus", true),
            ("?x=1&format=prom", true),
            ("?format=prom&x", true),
            ("?format=json", false),
            ("?format=promx", false),
            ("?FORMAT=prom", false),
            ("?", false),
        ];

        const METHODS: [&str; 4] = ["GET", "HEAD", "POST", "get"];
        const VERSIONS: [&str; 3] = ["HTTP/1.0", "HTTP/1.1", "HTTP/2"];
        const NOT_VERSIONS: [&str; 3] = ["FTP/1.0", "http/1.1", "HTTP"];
        /// Runs of whitespace that `split_whitespace` splits on.
        const GAPS: [&str; 4] = [" ", "  ", "\t", " \u{a0}\u{2003} "];
        const ENDS: [&str; 2] = ["\r\n", "\n"];

        /// Arbitrary bytes as the lossy text the server routes.
        fn arb_text(len: std::ops::RangeInclusive<usize>) -> impl Strategy<Value = String> {
            proptest::collection::vec(0..=255u8, len)
                .prop_map(|bytes| String::from_utf8_lossy(&bytes).into_owned())
        }

        /// A request line by shape: 0 well formed, 1 without a version,
        /// 2 with a fourth token, 3 with a version that is not HTTP's.
        /// Returns it with the route the unit tests give its shape.
        fn arb_line() -> impl Strategy<Value = (String, Route)> {
            (
                (0..4u8, 0..METHODS.len(), 0..PATHS.len(), 0..QUERIES.len()),
                (
                    0..VERSIONS.len(),
                    0..GAPS.len(),
                    0..GAPS.len(),
                    0..ENDS.len(),
                ),
                arb_text(0..=40),
            )
                .prop_map(
                    |((shape, method, path, query), (version, gap, gap2, end), rest)| {
                        let (path, serves) = PATHS[path];
                        let (query, prom) = QUERIES[query];
                        let (method, gap, gap2) = (METHODS[method], GAPS[gap], GAPS[gap2]);
                        let head = format!("{method}{gap}{path}{query}");
                        let (line, want) = match shape {
                            0 => {
                                let want = match (serves, prom) {
                                    (false, _) => Route::NotFound,
                                    (true, true) => Route::Prometheus,
                                    (true, false) => Route::Metrics,
                                };
                                (format!("{head}{gap2}{}", VERSIONS[version]), want)
                            }
                            1 => (head, Route::BadRequest),
                            2 => (
                                format!("{head}{gap2}{}{gap}extra", VERSIONS[version]),
                                Route::BadRequest,
                            ),
                            _ => (
                                format!("{head}{gap2}{}", NOT_VERSIONS[version]),
                                Route::BadRequest,
                            ),
                        };
                        // Only the first line is read: headers and junk follow.
                        (format!("{line}{}{rest}", ENDS[end]), want)
                    },
                )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Whatever a client sends, routing returns without a panic.
            #[test]
            fn any_request_text_routes_without_panicking(request in arb_text(0..=96)) {
                route(&request);
            }

            /// Generated request lines route as the unit tests above do:
            /// `/metrics` and `/` to the body, with `format=prom` or
            /// `format=prometheus` among the query's pairs to the
            /// Prometheus exposition, any other path to 404, and a line
            /// that is not `METHOD TARGET HTTP/x` to 400, whatever
            /// whitespace separates the tokens and whatever follows the
            /// line.
            #[test]
            fn generated_request_lines_route_as_the_unit_tests_do((request, want) in arb_line()) {
                prop_assert_eq!(route(&request), want, "{:?}", request);
            }
        }
    }
}
