//! A thin HTTP/1.1 gateway over the service daemon, hand-rolled on std
//! TCP like every other wire layer in this workspace.
//!
//! The gateway translates a small JSON/text surface onto the binary
//! protocol's verbs, so `curl` (and anything that speaks HTTP) can drive
//! a daemon without linking the client crate:
//!
//! | route | verb | answer |
//! |---|---|---|
//! | `GET /healthz` | — | `ok` (the daemon is accepting) |
//! | `GET /stats` | `Stats` | [`ServiceStats`] as JSON |
//! | `GET /jobs/<id>` | `Status` | `{"id","state","progress"}` JSON |
//! | `GET /jobs/<id>/result` | `Fetch` | the raw result blob bytes |
//! | `GET /jobs/<id>/trace` | `Trace` | Chrome trace-event JSON |
//! | `POST /submit` | `Submit` | `{"job","disposition"}` JSON |
//! | `GET /metrics` | — | Prometheus text exposition |
//!
//! `POST /submit` accepts either a wire-encoded
//! [`TaskManifest`](crate::exec::TaskManifest) as the request body
//! (exactly the bytes [`TaskManifest::encode_into`] produces — how a
//! programmatic client submits without the binary protocol), or, with an
//! empty body, query parameters handed to the embedding binary's
//! [`SpecParser`] (e.g. `POST /submit?spec=mm1&seed=7` in `repro`).
//!
//! `/metrics` renders the process-global histograms ([`crate::obs`]) plus
//! series pulled at scrape time: this daemon's service counters, its
//! queue depth and the fleet counters, which render even under
//! `REPRO_TELEMETRY=off`. Metrics are **per-process**:
//! engine counters recorded inside sharded worker subprocesses live in
//! those processes, so a daemon on the in-process backend shows engine
//! series and a sharded daemon shows the dispatch-side series only.
//!
//! One thread per connection, `Connection: close` on every response —
//! the gateway serves monitoring probes and CI smoke, not bulk traffic.
//! Responses never touch job scheduling; like the progress frames, the
//! gateway is observation only.

use super::{Fetched, Service};
use crate::exec::TaskManifest;
use crate::wire::Reader;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

/// Builds a [`TaskManifest`] from `POST /submit` query parameters.
///
/// The service crate knows nothing about concrete experiments, so the
/// embedding binary injects the translation — `repro serve --http`
/// supplies one that understands `spec=mm1&seed=<n>` and builds the same
/// manifest `repro submit` would.
pub type SpecParser =
    dyn Fn(&BTreeMap<String, String>) -> Result<TaskManifest, String> + Send + Sync;

/// Serve the HTTP surface on a pre-bound listener until the service
/// stops (observed on the first accept after [`Service::stop`]; poke the
/// port with a bare TCP connect to unblock a parked accept).
///
/// Each connection gets its own handler thread; handlers hold no locks
/// across I/O and a blocking `/result` fetch on one connection never
/// stalls another.
pub fn serve_http(
    service: Arc<Service>,
    listener: TcpListener,
    spec: Option<Arc<SpecParser>>,
) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("[http] accept failed: {e}");
                std::thread::sleep(std::time::Duration::from_millis(100));
                continue;
            }
        };
        if service.is_stopping() {
            return Ok(());
        }
        let service = service.clone();
        let spec = spec.clone();
        std::thread::spawn(move || {
            if let Err(e) = handle_http(&service, spec.as_deref(), stream) {
                eprintln!("[http] connection failed: {e}");
            }
        });
    }
    Ok(())
}

/// One HTTP response, rendered by [`HttpResponse::write_to`].
struct HttpResponse {
    status: u16,
    reason: &'static str,
    content_type: &'static str,
    body: Vec<u8>,
}

impl HttpResponse {
    fn ok(content_type: &'static str, body: Vec<u8>) -> Self {
        HttpResponse {
            status: 200,
            reason: "OK",
            content_type,
            body,
        }
    }

    fn error(status: u16, reason: &'static str, msg: String) -> Self {
        HttpResponse {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            body: format!("{msg}\n").into_bytes(),
        }
    }

    fn write_to(&self, out: &mut dyn Write) -> std::io::Result<()> {
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            self.status,
            self.reason,
            self.content_type,
            self.body.len()
        )?;
        out.write_all(&self.body)?;
        out.flush()
    }
}

/// Read one request (request line, headers, `Content-Length` body),
/// route it, write the response, close.
fn handle_http(
    service: &Service,
    spec: Option<&SpecParser>,
    mut stream: TcpStream,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(std::time::Duration::from_secs(10)))?;
    let (method, target, body) = match read_request(&mut stream) {
        Ok(req) => req,
        Err(resp) => return resp.write_to(&mut stream),
    };
    let response = route(service, spec, &method, &target, &body);
    response.write_to(&mut stream)
}

/// Request-line byte cap: beyond it the request is answered 431 without
/// reading further (a client streaming an endless first line must not tie
/// the handler to a 64 KB crawl).
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Whole-head (request line + headers) byte cap → 431.
const MAX_HEAD: usize = 64 * 1024;
/// Declared body byte cap → 413.
const MAX_BODY: usize = 64 * 1024 * 1024;

/// Parse one HTTP/1.1 request off the stream. Returns
/// `(method, target, body)`; the error is a fully typed response —
/// 431 for an oversized request line or header section, 413 for an
/// oversized declared body, 400 for everything malformed — so misbehaving
/// clients get told what they did instead of a silent close or a
/// catch-all 400.
fn read_request(stream: &mut TcpStream) -> Result<(String, String, Vec<u8>), HttpResponse> {
    let bad = |msg: String| HttpResponse::error(400, "Bad Request", msg);
    let too_large = |what: &str, cap: usize| {
        HttpResponse::error(
            431,
            "Request Header Fields Too Large",
            format!("{what} exceeds {cap} bytes"),
        )
    };
    // Accumulate until the blank line; headers are small, so byte-at-a-
    // time buffered reads are fine for a monitoring surface.
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    let mut in_request_line = true;
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() > MAX_HEAD {
            return Err(too_large("request head", MAX_HEAD));
        }
        if in_request_line {
            if head.ends_with(b"\r\n") {
                in_request_line = false;
            } else if head.len() > MAX_REQUEST_LINE {
                return Err(too_large("request line", MAX_REQUEST_LINE));
            }
        }
        match stream.read(&mut byte) {
            Ok(0) => return Err(bad("connection closed mid-request".into())),
            Ok(_) => head.push(byte[0]),
            Err(e) => return Err(bad(format!("request read failed: {e}"))),
        }
    }
    let head = String::from_utf8_lossy(&head);
    let mut lines = head.split("\r\n");
    // Tolerate stray whitespace around the request line (some probes pad
    // it); split_whitespace already absorbs repeated interior spaces.
    let request_line = lines.next().unwrap_or("").trim();
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_string();
    let target = parts.next().unwrap_or("").to_string();
    if method.is_empty() || target.is_empty() {
        return Err(bad(format!("malformed request line {request_line:?}")));
    }
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| bad(format!("bad content-length {value:?}")))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(HttpResponse::error(
            413,
            "Payload Too Large",
            format!("declared body of {content_length} bytes exceeds {MAX_BODY}"),
        ));
    }
    let mut body = vec![0u8; content_length];
    stream
        .read_exact(&mut body)
        .map_err(|e| bad(format!("body read failed: {e}")))?;
    Ok((method, target, body))
}

/// Split a request target into path and query parameters. No percent-
/// decoding: spec parameters are plain tokens and numbers by design.
fn split_target(target: &str) -> (&str, BTreeMap<String, String>) {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let mut params = BTreeMap::new();
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        match pair.split_once('=') {
            Some((k, v)) => params.insert(k.to_string(), v.to_string()),
            None => params.insert(pair.to_string(), String::new()),
        };
    }
    (path, params)
}

/// Dispatch one parsed request onto the service.
fn route(
    service: &Service,
    spec: Option<&SpecParser>,
    method: &str,
    target: &str,
    body: &[u8],
) -> HttpResponse {
    let (path, params) = split_target(target);
    match (method, path) {
        ("GET", "/healthz") => HttpResponse::ok("text/plain; charset=utf-8", b"ok\n".to_vec()),
        ("GET", "/stats") => HttpResponse::ok(
            "application/json",
            service.stats().render_json().into_bytes(),
        ),
        ("GET", "/metrics") => {
            // Pulled at scrape time rather than recorded: the service
            // counters, the queue depth and the process-global fleet
            // counters, so they render with recording off too.
            let counters = |prefix: &str, fields: &[(&str, u64)]| {
                fields
                    .iter()
                    .map(|(name, value)| (format!("{prefix}_{name}"), "counter", *value))
                    .collect::<Vec<_>>()
            };
            let mut extra = counters("service", &service.stats().fields());
            extra.push((
                "service_queue_depth".into(),
                "gauge",
                service.queue_depth() as u64,
            ));
            extra.extend(counters(
                "fleet",
                &crate::fleet::fleet_stats().snapshot().fields(),
            ));
            HttpResponse::ok(
                "text/plain; version=0.0.4; charset=utf-8",
                crate::obs::obs().render_prometheus(&extra).into_bytes(),
            )
        }
        ("POST", "/submit") => {
            let manifest = if body.is_empty() {
                match spec {
                    None => {
                        return HttpResponse::error(
                            400,
                            "Bad Request",
                            "empty body and no spec parser configured; POST a wire-encoded \
                             manifest body"
                                .into(),
                        )
                    }
                    Some(parse) => match parse(&params) {
                        Ok(m) => m,
                        Err(msg) => return HttpResponse::error(400, "Bad Request", msg),
                    },
                }
            } else {
                let mut r = Reader::new(body);
                match TaskManifest::decode(&mut r).and_then(|m| r.finish().map(|_| m)) {
                    Ok(m) => m,
                    Err(e) => {
                        return HttpResponse::error(
                            400,
                            "Bad Request",
                            format!("undecodable manifest body: {e}"),
                        )
                    }
                }
            };
            match service.submit(manifest) {
                Ok((job, disposition)) => HttpResponse::ok(
                    "application/json",
                    format!("{{\"job\":{},\"disposition\":\"{disposition}\"}}", job.0).into_bytes(),
                ),
                Err(msg) => HttpResponse::error(400, "Bad Request", msg),
            }
        }
        ("GET", _) if path.starts_with("/jobs/") => {
            let rest = &path["/jobs/".len()..];
            let (id, suffix) = if let Some(id) = rest.strip_suffix("/result") {
                (id, "result")
            } else if let Some(id) = rest.strip_suffix("/trace") {
                (id, "trace")
            } else {
                (rest, "")
            };
            let Ok(id) = id.parse::<u64>() else {
                return HttpResponse::error(400, "Bad Request", format!("bad job id {id:?}"));
            };
            let job = super::JobId(id);
            match suffix {
                "result" => fetch_result(service, job),
                "trace" => match service.trace_json(job) {
                    Some(json) => HttpResponse::ok("application/json", json.into_bytes()),
                    None => HttpResponse::error(404, "Not Found", format!("unknown job {id}")),
                },
                _ => match (service.status(job), service.progress(job)) {
                    (Some(state), Some(p)) => HttpResponse::ok(
                        "application/json",
                        format!(
                            "{{\"id\":{id},\"state\":\"{state}\",\"progress\":{{\"done\":{},\
                             \"total\":{},\"point\":{},\"replication\":{}}}}}",
                            p.done, p.total, p.point, p.replication
                        )
                        .into_bytes(),
                    ),
                    _ => HttpResponse::error(404, "Not Found", format!("unknown job {id}")),
                },
            }
        }
        _ => HttpResponse::error(404, "Not Found", format!("no route {method} {path}")),
    }
}

/// Block until the job is terminal and answer with the raw blob bytes
/// (the exact bytes the binary `Fetch` verb returns, so CI can byte-diff
/// a gateway fetch against a direct run).
fn fetch_result(service: &Service, job: super::JobId) -> HttpResponse {
    match service.wait(job) {
        Ok(Fetched::Result(blob)) => HttpResponse::ok("application/octet-stream", blob.to_vec()),
        Ok(Fetched::Failed(e)) => HttpResponse::error(502, "Bad Gateway", e.to_string()),
        Err(msg) => HttpResponse::error(404, "Not Found", msg),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::tests::{decode_mul, MulJob};
    use crate::exec::{Exec, JobRegistry};
    use crate::grid::Segment;
    use crate::service::{ServiceConfig, ServiceHandle};

    fn handle() -> ServiceHandle {
        let mut reg = JobRegistry::new();
        reg.register("test-mul", decode_mul);
        ServiceHandle::start(
            ServiceConfig {
                exec: Exec::in_process(1),
                cache_dir: None,
                ..Default::default()
            },
            Arc::new(reg),
        )
    }

    fn manifest(mix: u64) -> TaskManifest {
        TaskManifest::for_job(
            &MulJob { factor: 3 },
            vec![Segment {
                point: 0,
                base_rep: 0,
                count: 2,
            }],
            &|p, r| mix ^ ((p as u64) << 32) ^ r,
        )
    }

    /// Drive one raw HTTP request against a live gateway; returns
    /// `(status line, body)`.
    fn request(addr: std::net::SocketAddr, head: &str, body: &[u8]) -> (String, Vec<u8>) {
        let mut s = TcpStream::connect(addr).unwrap();
        write!(s, "{head}Content-Length: {}\r\n\r\n", body.len()).unwrap();
        s.write_all(body).unwrap();
        s.flush().unwrap();
        let mut raw = Vec::new();
        s.read_to_end(&mut raw).unwrap();
        let split = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .expect("header terminator");
        let head = String::from_utf8_lossy(&raw[..split]).to_string();
        let status = head.lines().next().unwrap_or("").to_string();
        (status, raw[split + 4..].to_vec())
    }

    #[test]
    fn gateway_round_trips_every_route() {
        let handle = handle();
        let service = handle.service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = service.clone();
        let gateway = std::thread::spawn(move || serve_http(svc, listener, None).unwrap());

        let (status, body) = request(addr, "GET /healthz HTTP/1.1\r\n", &[]);
        assert!(status.contains("200"), "{status}");
        assert_eq!(body, b"ok\n");

        // Submit a wire-encoded manifest body and read the job id back.
        let mut encoded = Vec::new();
        manifest(5).encode_into(&mut encoded);
        let (status, body) = request(addr, "POST /submit HTTP/1.1\r\n", &encoded);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.starts_with("{\"job\":"), "{text}");
        assert!(text.contains("\"disposition\":\"queued\""), "{text}");
        let id: u64 = text["{\"job\":".len()..]
            .split(',')
            .next()
            .unwrap()
            .parse()
            .unwrap();

        // The result route blocks until done and returns the exact blob.
        let (status, blob) = request(addr, &format!("GET /jobs/{id}/result HTTP/1.1\r\n"), &[]);
        assert!(status.contains("200"), "{status}");
        let direct = match service.wait(crate::service::JobId(id)).unwrap() {
            Fetched::Result(b) => b.to_vec(),
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(blob, direct, "gateway bytes == binary-protocol bytes");

        // The trace route answers valid Chrome trace JSON for any known
        // job (tracing may be off in this environment — then the event
        // list is simply empty) and 404s unknown ids.
        let (status, body) = request(addr, &format!("GET /jobs/{id}/trace HTTP/1.1\r\n"), &[]);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"traceEvents\""), "{text}");
        let (status, _) = request(addr, "GET /jobs/999/trace HTTP/1.1\r\n", &[]);
        assert!(status.contains("404"), "{status}");

        // Status JSON for a finished job pins done == total.
        let (status, body) = request(addr, &format!("GET /jobs/{id} HTTP/1.1\r\n"), &[]);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"state\":\"done\""), "{text}");
        assert!(text.contains("\"done\":2,\"total\":2"), "{text}");

        // Stats JSON covers the submission; /metrics carries the bridged
        // service series (the registry itself may be disabled under
        // REPRO_TELEMETRY=off, but extras always render).
        let (status, body) = request(addr, "GET /stats HTTP/1.1\r\n", &[]);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("\"submitted\":1"), "{text}");
        let (status, body) = request(addr, "GET /metrics HTTP/1.1\r\n", &[]);
        assert!(status.contains("200"), "{status}");
        let text = String::from_utf8(body).unwrap();
        assert!(text.contains("service_submitted 1"), "{text}");
        assert!(text.contains("fleet_restarts "), "{text}");

        // Unknowns are typed, not hangs.
        let (status, _) = request(addr, "GET /jobs/999 HTTP/1.1\r\n", &[]);
        assert!(status.contains("404"), "{status}");
        let (status, _) = request(addr, "GET /nope HTTP/1.1\r\n", &[]);
        assert!(status.contains("404"), "{status}");
        let (status, _) = request(addr, "POST /submit HTTP/1.1\r\n", b"garbage");
        assert!(status.contains("400"), "{status}");

        // Stop + poke unblocks the accept loop.
        service.stop();
        let _ = TcpStream::connect(addr);
        crate::remote::transport::join_within(gateway);
        handle.stop();
    }

    #[test]
    fn spec_parser_builds_manifests_from_query_params() {
        let handle = handle();
        let service = handle.service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let parser: Arc<SpecParser> = Arc::new(|params: &BTreeMap<String, String>| {
            match params.get("spec").map(String::as_str) {
                Some("mul") => {
                    let seed: u64 = params
                        .get("seed")
                        .and_then(|s| s.parse().ok())
                        .ok_or("seed must be an integer")?;
                    Ok(manifest(seed))
                }
                other => Err(format!("unknown spec {other:?}")),
            }
        });
        let svc = service.clone();
        let gateway = std::thread::spawn(move || serve_http(svc, listener, Some(parser)).unwrap());

        let (status, body) = request(addr, "POST /submit?spec=mul&seed=9 HTTP/1.1\r\n", &[]);
        assert!(status.contains("200"), "{status}");
        assert!(String::from_utf8(body).unwrap().contains("\"job\":"));
        let (status, body) = request(addr, "POST /submit?spec=wat HTTP/1.1\r\n", &[]);
        assert!(status.contains("400"), "{status}");
        assert!(String::from_utf8(body).unwrap().contains("unknown spec"));

        service.stop();
        let _ = TcpStream::connect(addr);
        crate::remote::transport::join_within(gateway);
        handle.stop();
    }

    /// Fire raw bytes at the gateway and return the response status line
    /// (for requests the well-formed `request` helper cannot express).
    fn raw_status(addr: std::net::SocketAddr, bytes: &[u8]) -> String {
        let mut s = TcpStream::connect(addr).unwrap();
        // Ignore write errors: the gateway may answer (and close) before
        // an oversized request finishes sending.
        let _ = s.write_all(bytes);
        let _ = s.flush();
        let _ = s.shutdown(std::net::Shutdown::Write);
        let mut out = Vec::new();
        let _ = s.read_to_end(&mut out);
        String::from_utf8_lossy(&out)
            .lines()
            .next()
            .unwrap_or("")
            .to_string()
    }

    #[test]
    fn malformed_and_oversized_requests_get_typed_statuses() {
        let handle = handle();
        let service = handle.service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc = service.clone();
        let gateway = std::thread::spawn(move || serve_http(svc, listener, None).unwrap());

        // Stray whitespace around the request line is tolerated.
        let status = raw_status(addr, b"  GET /healthz HTTP/1.1  \r\n\r\n");
        assert!(status.contains("200"), "{status}");

        // An empty request line is a plain 400.
        let status = raw_status(addr, b"\r\n\r\n");
        assert!(status.contains("400"), "{status}");

        // A request line past the cap draws 431 without waiting for the
        // head terminator.
        let mut long_line = b"GET /".to_vec();
        long_line.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 16));
        let status = raw_status(addr, &long_line);
        assert!(status.contains("431"), "{status}");

        // So does a header section past the whole-head cap.
        let mut fat_head = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
        fat_head.extend(std::iter::repeat_n(b'b', MAX_HEAD + 16));
        let status = raw_status(addr, &fat_head);
        assert!(status.contains("431"), "{status}");

        // A declared body over the cap draws 413 before any body read.
        let status = raw_status(
            addr,
            format!(
                "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )
            .as_bytes(),
        );
        assert!(status.contains("413"), "{status}");

        // And a garbled content-length stays a 400.
        let status = raw_status(
            addr,
            b"POST /submit HTTP/1.1\r\nContent-Length: wat\r\n\r\n",
        );
        assert!(status.contains("400"), "{status}");

        service.stop();
        let _ = TcpStream::connect(addr);
        crate::remote::transport::join_within(gateway);
        handle.stop();
    }

    #[test]
    fn target_splitting_and_bad_requests() {
        let (path, params) = split_target("/submit?spec=mm1&seed=7&flag");
        assert_eq!(path, "/submit");
        assert_eq!(params.get("spec").unwrap(), "mm1");
        assert_eq!(params.get("seed").unwrap(), "7");
        assert_eq!(params.get("flag").unwrap(), "");
        let (path, params) = split_target("/healthz");
        assert_eq!(path, "/healthz");
        assert!(params.is_empty());
    }
}
