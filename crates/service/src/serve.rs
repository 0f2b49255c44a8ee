//! The serving front end: a blocking worker pool over NDJSON streams.
//!
//! [`serve_stream`] reads request lines from any `BufRead`, fans them out
//! to a fixed pool of worker threads sharing one [`ServiceEngine`], and
//! writes one response line per request **in input order** (workers finish
//! out of order; a reorder buffer holds completed lines until their turn).
//!
//! [`serve_tcp`] accepts connections on a TCP listener and sniffs the
//! first line: `GET ...` connections are answered as one-shot HTTP
//! (`/metrics` Prometheus text, `/stats` JSON, `/trace/<id>` NDJSON span
//! dumps), anything else runs `serve_stream` over the connection, so
//! `nc host port < requests.ndjson` works as a remote batch interface and
//! `curl` can scrape the same port. A connection that closes without
//! sending a byte is treated as a liveness probe and not counted.
//!
//! Every line either reader takes is bounded by [`MAX_LINE_BYTES`]: a
//! longer request line is answered with an error response and skipped
//! without being buffered, and a longer first line or HTTP header closes
//! its connection, so no peer can grow a line without limit. A request
//! line that is not UTF-8 is answered with an error response too.
//!
//! When tracing is enabled ([`pipesched_trace::set_enabled`]), every
//! request records a span tree through parse → cache → tier escalation
//! and the response carries its `trace_id`.
//!
//! The vendored `crossbeam` shim has no channels, so the job queue is a
//! mutex + condvar pair from the `pipesched_check::sync` facade —
//! adequate here because each job carries milliseconds of scheduling
//! work, not nanoseconds of queue traffic. Routing through the facade
//! means a `--cfg model` build turns every queue operation into a
//! scheduling point of the deterministic model checker, so the
//! push/pop/shutdown protocol is explorable like the pool's.

use pipesched_check::sync::{Condvar, Mutex};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Read, Write};
use std::net::TcpListener;
use std::time::Instant;

use pipesched_trace::flight::{self, Outcome, Phase};

use crate::engine::ServiceEngine;
use crate::request::{error_json, parse_request, response_json};

/// Most bytes the front end reads of one line before its newline: a
/// request line, the line that picks a connection's protocol, or an HTTP
/// header. 1 MiB, far above any example request (the longest line of
/// `examples/data/serve_requests.ndjson` is 167 bytes).
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// What [`read_line_bounded`] read.
#[derive(Debug, PartialEq, Eq)]
enum Bounded {
    /// The stream ended before any byte of a line.
    End,
    /// A line's bytes, without its `\n` or `\r\n`.
    Line(Vec<u8>),
    /// A line longer than the limit.
    TooLong,
}

/// Read one line of at most `limit` bytes before its newline. Past the
/// limit the line is dropped: with `skip`, its bytes up to and including
/// the newline are consumed without being kept; without, reading stops
/// at once.
fn read_line_bounded<R: BufRead>(
    reader: &mut R,
    limit: usize,
    skip: bool,
) -> std::io::Result<Bounded> {
    let mut line = Vec::new();
    let (mut any, mut over) = (false, false);
    loop {
        let chunk = match reader.fill_buf() {
            Ok(chunk) => chunk,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        if chunk.is_empty() {
            break;
        }
        any = true;
        let end = chunk.iter().position(|&b| b == b'\n');
        let body = &chunk[..end.unwrap_or(chunk.len())];
        if !over && line.len() + body.len() > limit {
            over = true;
            line = Vec::new();
            if !skip {
                return Ok(Bounded::TooLong);
            }
        }
        if !over {
            line.extend_from_slice(body);
        }
        let used = end.map_or(chunk.len(), |i| i + 1);
        reader.consume(used);
        if end.is_some() {
            break;
        }
    }
    if over {
        return Ok(Bounded::TooLong);
    }
    if !any {
        return Ok(Bounded::End);
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(Bounded::Line(line))
}

/// Front-end configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Worker threads handling requests concurrently.
    pub workers: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { workers: 4 }
    }
}

enum Job {
    /// A request line, or why it cannot be one.
    Line {
        seq: u64,
        line: Result<String, String>,
    },
    Shutdown,
}

struct Queue {
    jobs: Mutex<Vec<Job>>,
    ready: Condvar,
}

impl Queue {
    fn new() -> Self {
        Queue {
            jobs: Mutex::new(Vec::new()),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.jobs.lock().push(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Job {
        let mut jobs = self.jobs.lock();
        loop {
            // FIFO: jobs were pushed in input order, take from the front.
            if !jobs.is_empty() {
                return jobs.remove(0);
            }
            jobs = self.ready.wait(jobs);
        }
    }
}

/// Reorder buffer: responses are written strictly in request order.
struct Reorder<W: Write> {
    out: W,
    next: u64,
    pending: BTreeMap<u64, String>,
}

impl<W: Write> Reorder<W> {
    fn emit(&mut self, seq: u64, line: String) -> std::io::Result<()> {
        self.pending.insert(seq, line);
        while let Some(line) = self.pending.remove(&self.next) {
            self.out.write_all(line.as_bytes())?;
            self.out.write_all(b"\n")?;
            self.out.flush()?;
            self.next += 1;
        }
        Ok(())
    }
}

/// Serve every NDJSON line of `input`, writing ordered responses to
/// `output`. Returns the number of requests handled (including failures).
pub fn serve_stream<R: BufRead, W: Write + Send>(
    engine: &ServiceEngine,
    mut input: R,
    output: W,
    config: &ServeConfig,
) -> std::io::Result<u64> {
    let workers = config.workers.max(1);
    let queue = Queue::new();
    let sink = Mutex::new(Reorder {
        out: output,
        next: 0,
        pending: BTreeMap::new(),
    });
    let io_error: Mutex<Option<std::io::Error>> = Mutex::new(None);
    let mut handled = 0u64;

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let (seq, line) = match queue.pop() {
                    Job::Shutdown => return,
                    Job::Line { seq, line } => (seq, line),
                };
                let rendered = handle(engine, line.as_deref().map_err(String::as_str));
                let mut sink = sink.lock();
                if let Err(e) = sink.emit(seq, rendered) {
                    io_error.lock().get_or_insert(e);
                    return;
                }
            });
        }

        let mut seq = 0u64;
        loop {
            let line = match read_line_bounded(&mut input, MAX_LINE_BYTES, true) {
                Ok(Bounded::End) => break,
                Ok(Bounded::Line(bytes)) => match String::from_utf8(bytes) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => Ok(line),
                    Err(_) => Err("request line is not valid UTF-8".to_string()),
                },
                Ok(Bounded::TooLong) => Err(format!(
                    "request line longer than {MAX_LINE_BYTES} bytes (the limit)"
                )),
                Err(e) => {
                    io_error.lock().get_or_insert(e);
                    break;
                }
            };
            queue.push(Job::Line { seq, line });
            seq += 1;
        }
        handled = seq;
        for _ in 0..workers {
            queue.push(Job::Shutdown);
        }
    });

    match io_error.into_inner() {
        Some(e) => Err(e),
        None => Ok(handled),
    }
}

/// Answer one request line, returning the rendered response line. The
/// request builds one wide event, committed once at the end: the engine's
/// request metrics derive from it, and the flight recorder keeps it when
/// on. When tracing is on, the whole request records one trace (published
/// to the in-process store, fetchable via `GET /trace/<id>`) and the
/// response carries its id. `Err` carries why a line the reader took
/// cannot be a request (too long, not UTF-8), which the error response
/// gives.
fn handle(engine: &ServiceEngine, line: Result<&str, &str>) -> String {
    let trace_id = if pipesched_trace::enabled() {
        let id = pipesched_trace::begin("request");
        (id != 0).then_some(id)
    } else {
        None
    };
    let start = Instant::now();
    flight::begin(-1);
    let parsed = {
        let _p = flight::phase(Phase::Parse, "parse");
        line.map_err(str::to_string).and_then(parse_request)
    };
    let rendered = match parsed {
        Ok(req) => 'ok: {
            flight::update(|ev| ev.req = req.id.unwrap_or(-1));
            // Optimizer admission gate: run the front-end optimizer under
            // translation validation and refuse blocks whose transcript
            // the validator rejects. The gate never substitutes the
            // optimized block — the response's order/pipes/etas must
            // index the tuples the client sent.
            let verified = if engine.config().verify_opt {
                let _p = flight::phase(Phase::Parse, "verify_opt");
                match pipesched_analyze::optimize_verified(
                    &req.block,
                    &pipesched_frontend::OptConfig::default(),
                ) {
                    Ok(_) => {
                        engine.metrics().record_opt_verified();
                        true
                    }
                    Err(rej) => {
                        flight::update(|ev| ev.raise(Outcome::AdmissionReject));
                        let codes: Vec<&str> = rej.codes().iter().map(|c| c.as_str()).collect();
                        break 'ok error_json(
                            req.id,
                            &format!(
                                "optimizer translation validation rejected the block [{}]",
                                codes.join(", ")
                            ),
                        )
                        .to_compact();
                    }
                }
            } else {
                false
            };
            let budget = req.budget(engine.config().default_nodes, start);
            let answer = engine.answer(&req.block, &req.machine, budget);
            if !answer.optimal && !answer.deadline_hit {
                flight::update(|ev| ev.raise(Outcome::BudgetExhausted));
            }
            let _p = flight::phase(Phase::Respond, "respond");
            let mut response = response_json(
                req.id,
                &answer,
                start.elapsed().as_micros() as u64,
                trace_id,
            );
            response.opt_verified = verified;
            response.to_compact()
        }
        Err(message) => {
            // Salvage the id for correlation even when the rest is bad.
            let id = line
                .ok()
                .and_then(|line| pipesched_json::parse(line).ok())
                .and_then(|d| d.get("id").and_then(pipesched_json::Json::as_i64));
            flight::update(|ev| {
                ev.req = id.unwrap_or(-1);
                ev.raise(Outcome::Error);
            });
            error_json(id, &message).to_compact()
        }
    };
    if trace_id.is_some() {
        pipesched_trace::end();
    }
    let micros = start.elapsed().as_micros() as u64;
    if let Some(ev) = flight::finish(micros, trace_id.unwrap_or(0)) {
        engine.metrics().record(&ev);
        flight::commit(ev);
    }
    rendered
}

/// Accept connections on `listener`; the first line decides the protocol.
/// `GET` lines get one-shot HTTP (`/metrics`, `/stats`, `/trace/<id>`),
/// everything else is an NDJSON stream served by `serve_stream` over the
/// shared engine. Stops after `max_conns` counted connections when given
/// (used by tests), otherwise loops until the listener errors. Empty
/// connections (port probes) are served as a no-op and **not** counted.
/// An I/O error on one connection closes that connection and is reported
/// on stderr; it does not stop the server.
pub fn serve_tcp(
    engine: &ServiceEngine,
    listener: TcpListener,
    config: &ServeConfig,
    max_conns: Option<u64>,
) -> std::io::Result<u64> {
    let mut served = 0u64;
    for conn in listener.incoming() {
        let stream = conn?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let result = match read_line_bounded(&mut reader, MAX_LINE_BYTES, false) {
            // Liveness probe: the peer connected and closed without
            // sending anything. Not a served connection.
            Ok(Bounded::End) => continue,
            Ok(Bounded::Line(line)) => serve_connection(engine, reader, stream, line, config),
            // A first line past the limit closes the connection.
            Ok(Bounded::TooLong) => Ok(()),
            Err(e) => Err(e),
        };
        // A connection's own I/O error (a reset, say) closes that
        // connection; the server goes on.
        if let Err(e) = result {
            eprintln!("; connection closed: {e}");
        }
        served += 1;
        if max_conns.is_some_and(|m| served >= m) {
            break;
        }
    }
    Ok(served)
}

/// Serve one connection whose first line, `first` (without its newline),
/// has been read.
fn serve_connection(
    engine: &ServiceEngine,
    mut reader: BufReader<std::net::TcpStream>,
    stream: std::net::TcpStream,
    mut first: Vec<u8>,
    config: &ServeConfig,
) -> std::io::Result<()> {
    if first.starts_with(b"GET ") {
        let request_line = String::from_utf8_lossy(&first);
        handle_http(
            engine,
            &mut reader,
            stream,
            &request_line,
            config.workers.max(1),
        )
    } else {
        // Connections are handled sequentially; within one connection
        // the worker pool still answers requests concurrently. The
        // sniffed first line is replayed ahead of the rest.
        first.push(b'\n');
        let input = Cursor::new(first).chain(reader);
        serve_stream(engine, input, stream, config).map(|_| ())
    }
}

/// Answer one HTTP GET on a sniffed connection and close it.
fn handle_http<R: BufRead, W: Write>(
    engine: &ServiceEngine,
    reader: &mut R,
    mut out: W,
    request_line: &str,
    workers: usize,
) -> std::io::Result<()> {
    // Drain the request headers; a GET carries no body worth reading. A
    // header past the limit closes the connection unanswered.
    loop {
        match read_line_bounded(reader, MAX_LINE_BYTES, false)? {
            Bounded::End => break,
            Bounded::Line(line) if line.is_empty() => break,
            Bounded::Line(_) => {}
            Bounded::TooLong => return Ok(()),
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = route_http(engine, path, workers);
    write!(
        out,
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    out.write_all(body.as_bytes())?;
    out.flush()
}

/// The observability routes exposed on the serving port. `workers` is the
/// front end's worker-pool size, reported by `/healthz`.
fn route_http(
    engine: &ServiceEngine,
    path: &str,
    workers: usize,
) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", engine.prometheus()),
        "/stats" => (
            "200 OK",
            "application/json",
            engine.stats_json().to_pretty() + "\n",
        ),
        "/slo" => (
            "200 OK",
            "application/json",
            crate::slo::to_json(engine.metrics()).to_pretty() + "\n",
        ),
        "/healthz" => {
            let (ok, doc) = engine.health_json(workers);
            (
                if ok {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                },
                "application/json",
                doc.to_pretty() + "\n",
            )
        }
        "/flight" => (
            "200 OK",
            "application/x-ndjson",
            flight::to_ndjson(&flight::recent(flight::DUMP_WINDOW)),
        ),
        "/flight/dumps" => {
            let dumps = flight::dumps();
            let body: String = dumps.iter().map(flight::Dump::to_ndjson).collect();
            ("200 OK", "application/x-ndjson", body)
        }
        _ => {
            if let Some(n) = path
                .strip_prefix("/flight/")
                .and_then(|n| n.parse::<usize>().ok())
            {
                return (
                    "200 OK",
                    "application/x-ndjson",
                    flight::to_ndjson(&flight::recent(n)),
                );
            }
            match path
                .strip_prefix("/trace/")
                .and_then(|id| id.parse::<u64>().ok())
                .and_then(pipesched_trace::store::get)
            {
                Some(trace) => (
                    "200 OK",
                    "application/x-ndjson",
                    pipesched_trace::render::to_ndjson(&trace),
                ),
                None => (
                    "404 Not Found",
                    "text/plain",
                    "unknown path; try /metrics, /stats, /slo, /healthz, /flight[/<n>|/dumps], or /trace/<id>\n"
                        .to_string(),
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use pipesched_json::Json;

    fn engine() -> ServiceEngine {
        ServiceEngine::new(EngineConfig::default(), 64, 4)
    }

    const REQ: &str = r#"{"id": 1, "block": "1: Load #x\n2: Mul @1, @1\n3: Store #y, @2", "machine": "paper-simulation"}"#;

    /// A request line of 2 MiB, past [`MAX_LINE_BYTES`].
    fn overlong_line() -> String {
        let mut line = String::from(r#"{"id": 7, "block": ""#);
        line.extend(std::iter::repeat_n('x', 2 << 20));
        line.push_str("\"}\n");
        line
    }

    /// The `ok` flag and id of each response line of `out`.
    fn verdicts(out: &[u8]) -> Vec<(bool, Option<i64>)> {
        std::str::from_utf8(out)
            .unwrap()
            .lines()
            .map(|line| {
                let doc = pipesched_json::parse(line).unwrap();
                let ok = doc.get("ok").and_then(Json::as_bool).unwrap();
                (ok, doc.get("id").and_then(Json::as_i64))
            })
            .collect()
    }

    #[test]
    fn an_overlong_or_non_utf8_request_line_gets_one_error_and_the_stream_goes_on() {
        let eng = engine();
        let req =
            |id: i64| (REQ.replace(r#""id": 1"#, &format!(r#""id": {id}"#)) + "\n").into_bytes();
        let long = overlong_line().into_bytes();
        let limit = MAX_LINE_BYTES.to_string();
        for (input, expected, why) in [
            (
                [long.clone(), req(1), req(2)].concat(),
                vec![(false, None), (true, Some(1)), (true, Some(2))],
                limit.as_str(),
            ),
            (
                [req(1), long, req(2)].concat(),
                vec![(true, Some(1)), (false, None), (true, Some(2))],
                limit.as_str(),
            ),
            (
                [req(1), b"{\"id\": 5, \xff}\n".to_vec(), req(2)].concat(),
                vec![(true, Some(1)), (false, None), (true, Some(2))],
                "UTF-8",
            ),
        ] {
            let mut out = Vec::new();
            let input = std::io::Cursor::new(input);
            let handled = serve_stream(&eng, input, &mut out, &ServeConfig { workers: 2 }).unwrap();
            assert_eq!(handled, 3);
            assert_eq!(verdicts(&out), expected);
            let error = std::str::from_utf8(&out)
                .unwrap()
                .lines()
                .find(|l| l.contains(r#""ok":false"#))
                .unwrap()
                .to_owned();
            assert!(error.contains(why), "{error}");
        }
    }

    #[test]
    fn bounded_reads_keep_lines_and_stop_at_the_limit() {
        let mut input = std::io::Cursor::new(b"ab\r\ncdef\nlast".to_vec());
        let read = |r: &mut std::io::Cursor<Vec<u8>>, skip| read_line_bounded(r, 3, skip).unwrap();
        assert_eq!(read(&mut input, true), Bounded::Line(b"ab".to_vec()));
        assert_eq!(read(&mut input, true), Bounded::TooLong);
        assert_eq!(read(&mut input, true), Bounded::TooLong);
        assert_eq!(read(&mut input, true), Bounded::End);
        let mut input = std::io::Cursor::new(b"abc\nabcd\nx\n".to_vec());
        assert_eq!(read(&mut input, true), Bounded::Line(b"abc".to_vec()));
        // Without skipping, reading stops before the line is consumed.
        assert_eq!(read(&mut input, false), Bounded::TooLong);
        assert_eq!(read(&mut input, true), Bounded::TooLong);
        assert_eq!(read(&mut input, true), Bounded::Line(b"x".to_vec()));
    }

    #[test]
    fn a_first_line_that_never_ends_closes_the_connection() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let eng = engine();
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_tcp(&eng, listener, &ServeConfig::default(), Some(1)));
            let mut client = TcpStream::connect(addr).unwrap();
            client
                .set_read_timeout(Some(std::time::Duration::from_secs(30)))
                .unwrap();
            // More than the limit and no newline; the server may close
            // before all of it is written.
            let chunk = vec![b'x'; 64 << 10];
            for _ in 0..(MAX_LINE_BYTES / chunk.len() + 4) {
                if client.write_all(&chunk).is_err() {
                    break;
                }
            }
            let mut reply = Vec::new();
            match client.read_to_end(&mut reply) {
                Ok(_) => assert!(reply.is_empty(), "no answer to an unended line"),
                Err(e) => assert!(
                    !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ),
                    "the connection stayed open: {e}"
                ),
            }
            assert_eq!(server.join().unwrap().unwrap(), 1);
        });
    }

    #[test]
    fn a_first_line_that_is_not_utf8_is_answered_and_the_server_goes_on() {
        use std::io::Write as _;
        use std::net::{TcpListener, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let eng = engine();
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_tcp(&eng, listener, &ServeConfig::default(), Some(2)));
            for first in [&b"\xff\xfe{}\n"[..], format!("{REQ}\n").as_bytes()] {
                let mut client = TcpStream::connect(addr).unwrap();
                client.write_all(first).unwrap();
                client.shutdown(std::net::Shutdown::Write).unwrap();
                let mut reply = String::new();
                let _ = client.read_to_string(&mut reply);
                let doc = pipesched_json::parse(reply.trim()).unwrap();
                let ok = doc.get("ok").and_then(Json::as_bool);
                assert_eq!(ok, Some(first[0] == b'{'), "{reply}");
            }
            assert_eq!(server.join().unwrap().unwrap(), 2);
        });
    }

    #[test]
    fn serves_a_stream_in_input_order() {
        let eng = engine();
        let mut input = String::new();
        for i in 0..8 {
            input.push_str(&REQ.replace(r#""id": 1"#, &format!(r#""id": {i}"#)));
            input.push('\n');
        }
        let mut out = Vec::new();
        let handled = serve_stream(
            &eng,
            input.as_bytes(),
            &mut out,
            &ServeConfig { workers: 3 },
        )
        .unwrap();
        assert_eq!(handled, 8);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 8);
        for (i, line) in lines.iter().enumerate() {
            let doc = pipesched_json::parse(line).unwrap();
            assert_eq!(doc.get("id").and_then(Json::as_i64), Some(i as i64));
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        }
        // 8 identical shapes → 1 miss, 7 validated hits.
        assert_eq!(eng.cache().hits(), 7);
        assert_eq!(
            eng.metrics()
                .requests
                .load(std::sync::atomic::Ordering::Relaxed),
            8
        );
    }

    #[test]
    fn bad_lines_get_error_responses_not_disconnects() {
        let eng = engine();
        let input = format!("{REQ}\nnot json at all\n{{\"id\": 5, \"block\": \"1: Load #x\"}}\n");
        let mut out = Vec::new();
        let handled =
            serve_stream(&eng, input.as_bytes(), &mut out, &ServeConfig::default()).unwrap();
        assert_eq!(handled, 3);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().trim().lines().collect();
        assert_eq!(lines.len(), 3);
        let second = pipesched_json::parse(lines[1]).unwrap();
        assert_eq!(second.get("ok").and_then(Json::as_bool), Some(false));
        let third = pipesched_json::parse(lines[2]).unwrap();
        assert_eq!(third.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(third.get("id").and_then(Json::as_i64), Some(5));
        assert_eq!(
            eng.metrics()
                .errors
                .load(std::sync::atomic::Ordering::Relaxed),
            2
        );
    }

    fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut text = String::new();
        stream.read_to_string(&mut text).unwrap();
        text
    }

    #[test]
    fn http_endpoints_share_the_serving_port() {
        let eng = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let eng = &eng;
            let server = scope.spawn(move || {
                serve_tcp(eng, listener, &ServeConfig { workers: 2 }, Some(3)).unwrap()
            });
            // A probe (connect + close, no bytes) must not count.
            drop(std::net::TcpStream::connect(addr).unwrap());
            // Counted connection 1: one NDJSON request.
            {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(REQ.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).unwrap();
                let doc = pipesched_json::parse(&reply).unwrap();
                assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            }
            // Counted connections 2 and 3: HTTP scrapes of the same port.
            let metrics = http_get(addr, "/metrics");
            let stats = http_get(addr, "/stats");
            assert_eq!(server.join().unwrap(), 3);

            assert!(metrics.starts_with("HTTP/1.0 200 OK\r\n"), "{metrics}");
            let body = metrics.split("\r\n\r\n").nth(1).unwrap();
            pipesched_trace::prom::validate(body).expect("exposition must parse");
            assert!(body.contains("pipesched_requests_total 1"), "{body}");
            assert!(body.contains("pipesched_cache_entries 1"), "{body}");

            let body = stats.split("\r\n\r\n").nth(1).unwrap();
            let doc = pipesched_json::parse(body).unwrap();
            assert_eq!(
                doc.get("metrics")
                    .and_then(|m| m.get("requests"))
                    .and_then(Json::as_i64),
                Some(1)
            );
            assert_eq!(
                doc.get("cache")
                    .and_then(|c| c.get("entries"))
                    .and_then(Json::as_i64),
                Some(1)
            );
        });
    }

    #[test]
    fn verify_opt_gate_accepts_and_marks_responses() {
        let eng = ServiceEngine::new(
            EngineConfig {
                verify_opt: true,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let reply = handle(&eng, Ok(REQ));
        let doc = pipesched_json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("opt_verified").and_then(Json::as_bool), Some(true));
        assert_eq!(
            eng.metrics()
                .opt_verified
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
        assert_eq!(
            eng.metrics()
                .opt_rejected
                .load(std::sync::atomic::Ordering::Relaxed),
            0
        );
        // The gate never rewrites the scheduled block: the order still
        // indexes the three tuples the client sent.
        let order = doc.get("order").unwrap();
        if let Json::Array(items) = order {
            assert_eq!(items.len(), 3);
        } else {
            panic!("order must be an array");
        }
    }

    #[test]
    fn verify_opt_off_leaves_responses_unmarked() {
        let eng = engine();
        if eng.config().verify_opt {
            // PIPESCHED_VERIFY_OPT forced the default on; nothing to test.
            return;
        }
        let reply = handle(&eng, Ok(REQ));
        let doc = pipesched_json::parse(&reply).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert!(doc.get("opt_verified").is_none());
    }

    #[test]
    fn unknown_http_path_is_a_404_not_a_crash() {
        let eng = engine();
        let (status, _, body) = route_http(&eng, "/nope", 2);
        assert_eq!(status, "404 Not Found");
        assert!(body.contains("/metrics"));
        let (status, _, _) = route_http(&eng, "/trace/notanumber", 2);
        assert_eq!(status, "404 Not Found");
        let (status, _, _) = route_http(&eng, "/trace/999999999", 2);
        assert_eq!(status, "404 Not Found");
    }

    #[test]
    fn traced_requests_expose_span_dumps() {
        let _toggle = crate::flight_test_lock();
        let eng = engine();
        pipesched_trace::set_enabled(true);
        let rendered = handle(&eng, Ok(REQ));
        pipesched_trace::set_enabled(false);
        let doc = pipesched_json::parse(&rendered).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        let trace_id = doc
            .get("trace_id")
            .and_then(Json::as_i64)
            .expect("traced response carries its trace id") as u64;
        let trace = pipesched_trace::store::get(trace_id).expect("trace was published");
        for name in ["parse", "dag_build", "canonicalize", "cache_lookup"] {
            assert!(
                trace.events.iter().any(|e| e.name == name),
                "span `{name}` missing from the request trace"
            );
        }
        // The span dump is served over HTTP.
        let (status, ct, body) = route_http(&eng, &format!("/trace/{trace_id}"), 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/x-ndjson");
        assert!(body.lines().count() > 4, "{body}");
        for line in body.lines() {
            pipesched_json::parse(line).expect("every dump line is JSON");
        }
    }

    #[test]
    fn healthz_and_slo_routes_respond() {
        let eng = engine();
        let (status, ct, body) = route_http(&eng, "/healthz", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        let doc = pipesched_json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(doc.get("workers").and_then(Json::as_i64), Some(2));
        assert_eq!(
            doc.get("schedule_selftest_ok").and_then(Json::as_bool),
            Some(true)
        );
        // A pool with no workers is not ready to serve.
        let (status, _, body) = route_http(&eng, "/healthz", 0);
        assert_eq!(status, "503 Service Unavailable");
        let doc = pipesched_json::parse(&body).unwrap();
        assert_eq!(doc.get("status").and_then(Json::as_str), Some("unready"));

        handle(&eng, Ok(REQ));
        let (status, ct, body) = route_http(&eng, "/slo", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/json");
        let doc = pipesched_json::parse(&body).unwrap();
        let objectives = match doc.get("objectives") {
            Some(Json::Array(rows)) => rows.len(),
            other => panic!("objectives must be an array, got {other:?}"),
        };
        assert_eq!(objectives, crate::slo::objectives().len());
    }

    #[test]
    fn induced_deadline_miss_freezes_a_flight_dump() {
        let _toggle = crate::flight_test_lock();
        let eng = engine();
        pipesched_trace::set_enabled(true);
        flight::set_enabled(true);
        flight::reset();
        // Five independent load/mul/store chains fight over the pipelines,
        // so the list bound cannot prove optimality and the engine must
        // search — against a deadline that expired before it started.
        let lines: Vec<String> = (0..5)
            .flat_map(|i| {
                let b = 3 * i;
                [
                    format!("{}: Load #x{i}", b + 1),
                    format!("{}: Mul @{}, @{}", b + 2, b + 1, b + 1),
                    format!("{}: Store #y{i}, @{}", b + 3, b + 2),
                ]
            })
            .collect();
        let req = format!(
            r#"{{"id": 4242, "block": "{}", "machine": "paper-simulation", "deadline_ms": 0}}"#,
            lines.join(r"\n")
        );
        let rendered = handle(&eng, Ok(&req));
        pipesched_trace::set_enabled(false);
        flight::set_enabled(false);

        let doc = pipesched_json::parse(&rendered).unwrap();
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("deadline_hit").and_then(Json::as_bool), Some(true));

        // The miss froze a dump whose trigger is the offending request's
        // wide event, carrying the span-trace id for cross-reference.
        let dumps = flight::dumps();
        let dump = dumps
            .iter()
            .find(|d| d.anomaly == flight::Anomaly::DeadlineMiss.name())
            .expect("deadline miss must freeze a flight dump");
        let trigger = dump.events.last().expect("dump captures a window");
        assert_eq!(trigger.seq, dump.trigger_seq);
        assert_eq!(trigger.req, 4242);
        assert_eq!(trigger.outcome, flight::Outcome::DeadlineMiss.name());
        assert!(trigger.trace_id != 0, "wide event links to its span trace");
        assert!(trigger.micros > 0);
        assert!(trigger.verify(), "dumped events carry valid seals");

        // Both HTTP views surface the same event.
        let (status, ct, body) = route_http(&eng, "/flight/8", 2);
        assert_eq!(status, "200 OK");
        assert_eq!(ct, "application/x-ndjson");
        assert!(body.contains("\"req\":4242"), "{body}");
        let (status, _, body) = route_http(&eng, "/flight/dumps", 2);
        assert_eq!(status, "200 OK");
        assert!(body.contains("\"anomaly\":\"deadline_miss\""), "{body}");
        assert!(body.contains("\"req\":4242"), "{body}");
        for line in body.lines() {
            pipesched_json::parse(line).expect("every dump line is JSON");
        }
    }

    /// Commit one request with the recorder on; returns its wide event,
    /// found by request id (other tests may serve concurrently).
    fn served_event(eng: &ServiceEngine, id: i64) -> flight::WideEvent {
        let _toggle = crate::flight_test_lock();
        flight::set_enabled(true);
        handle(
            eng,
            Ok(&REQ.replace(r#""id": 1"#, &format!(r#""id": {id}"#))),
        );
        flight::set_enabled(false);
        flight::recent(flight::DEFAULT_CAPACITY)
            .into_iter()
            .rev()
            .find(|ev| ev.req == id)
            .expect("the recorder kept the request's event")
    }

    #[test]
    fn one_latency_per_request() {
        let eng = engine();
        let ev = served_event(&eng, 7_331);
        let m = eng.metrics();
        assert_eq!(m.latency.count(), 1);
        assert_eq!(m.latency.sum_micros(), ev.micros);
        // The tier histogram `/slo` reads gained exactly that observation.
        let tier = crate::engine::Tier::from_name(ev.tier).expect("answered");
        let slo_hist = &m.tier_latency[tier.index()];
        assert_eq!((slo_hist.count(), slo_hist.sum_micros()), (1, ev.micros));
        let objective = crate::slo::objectives()
            .iter()
            .find(|o| o.scope == crate::slo::Scope::Tier(tier))
            .expect("every tier has an objective");
        assert_eq!(crate::slo::evaluate(*objective, m).count, 1);
    }

    #[test]
    fn phases_partition_a_proved_gated_request() {
        let eng = ServiceEngine::new(
            EngineConfig {
                prove: true,
                verify_opt: true,
                ..EngineConfig::default()
            },
            64,
            4,
        );
        let ev = served_event(&eng, 7_332);
        assert_ne!(ev.proof_digest, 0, "the answer was proved");
        let phases: u64 = ev.phases_us.iter().sum();
        assert!(phases <= ev.micros, "{:?} > {}", ev.phases_us, ev.micros);
        let frames: u64 = flight::render_flame(std::slice::from_ref(&ev))
            .lines()
            .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
            .sum();
        assert_eq!(frames, ev.micros);
    }

    #[test]
    fn tcp_round_trip() {
        let eng = engine();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            let eng = &eng;
            let server = scope.spawn(move || {
                serve_tcp(eng, listener, &ServeConfig { workers: 2 }, Some(1)).unwrap()
            });
            let client = scope.spawn(move || {
                let mut stream = std::net::TcpStream::connect(addr).unwrap();
                stream.write_all(REQ.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
                stream.shutdown(std::net::Shutdown::Write).unwrap();
                let mut reply = String::new();
                BufReader::new(stream).read_line(&mut reply).unwrap();
                reply
            });
            let reply = client.join().unwrap();
            assert_eq!(server.join().unwrap(), 1);
            let doc = pipesched_json::parse(&reply).unwrap();
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(
                doc.get("nops").and_then(Json::as_i64).map(|n| n >= 0),
                Some(true)
            );
        });
    }
}
