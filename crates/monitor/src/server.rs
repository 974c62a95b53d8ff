//! The threaded monitor HTTP server.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use qprog_exec::sync::Mutex;
use qprog_metrics::Registry;
use qprog_obs::Corpus;
use qprog_service::{CancelOutcome, QueryService, SubmitError, SubmitRequest};
use qprog_types::{QError, QResult};

use crate::dashboard::DASHBOARD_HTML;
use crate::directory::QueryDirectory;
use crate::http::{
    body_str_field, body_u64_field, read_request, write_sse_frame, write_sse_head, ReadError,
    Request, Response,
};
use crate::hub::{StreamHub, StreamNext, StreamSubscriber, DEFAULT_QUEUE_CAP};

/// Cadence of the broadcast tick that samples every *running* query. It
/// bounds how stale a watcher's fraction can be, never the time to learn
/// that a query ended: lifecycle frames are pushed at the transition.
const TICK: Duration = Duration::from_millis(25);

/// How long an SSE writer waits for a frame before emitting a keepalive
/// comment (which also detects silently-dead clients).
const STREAM_POLL: Duration = Duration::from_millis(250);

/// Terminal states a corpus run can be archived under (`/history?state=`).
const HISTORY_STATES: &[&str] = &[
    "finished",
    "cancelled",
    "deadline",
    "budget",
    "panic",
    "injected",
    "error",
    "unknown",
];

/// Tunable robustness bounds for the HTTP front end.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Per-connection socket read/write timeout: the monitor must never
    /// hold a thread hostage to a stalled client. For SSE connections
    /// this doubles as the slow-client guard — a receiver that blocks
    /// writes for this long is disconnected.
    pub io_timeout: Duration,
    /// Upper bound on concurrently-served connections. Connections past
    /// the bound are answered `503` + `Retry-After` and dropped, so a
    /// connection flood degrades into fast rejections instead of
    /// unbounded threads.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            io_timeout: Duration::from_secs(5),
            max_connections: 256,
        }
    }
}

/// A live progress monitor server.
///
/// Binds a `std::net::TcpListener` (use port `0` to let the OS pick), and
/// serves, each request on its own thread:
///
/// - `GET /` — self-contained HTML dashboard,
/// - `GET /metrics` — Prometheus text exposition of the attached registry,
/// - `GET /progress` — JSON summaries of every registered query,
/// - `GET /progress/{id}` — one query with per-operator detail,
/// - `GET /progress/{id}/stream` — server-push `text/event-stream` of one
///   query's `progress`/`health` frames, ending with its `terminal` frame,
/// - `GET /events` — the all-queries firehose stream.
///
/// With a trace corpus attached ([`set_corpus`](Self::set_corpus), or
/// `Observability::with_corpus` session-side), three more routes serve run
/// history:
///
/// - `GET /history` — archived runs with scorecards (filter with
///   `?workload=`/`?estimator=`/`?state=`/`?limit=`),
/// - `GET /history/{run}` — one run's metadata + scorecard,
/// - `GET /history/{run}/trace` — the run's raw trace JSONL.
///
/// With a query service attached ([`set_service`](Self::set_service), or
/// `ServiceRuntime` session-side), the monitor doubles as the service's
/// front door:
///
/// - `POST /submit` — accept `{"sql","tenant"[,"label","deadline_ms"]}`,
///   answer `202 {"id":N,...}` immediately (or a typed `400`/`429`/`503`),
/// - `POST /progress/{id}/cancel` — cancel a queued or running submission,
/// - `GET /service` — admission/queue/retry statistics.
///
/// Errors are structured JSON bodies (`{"error","detail"}`) with accurate
/// status codes; shed responses carry `Retry-After`.
///
/// Streamed frames are encoded once and shared across subscribers, so N
/// watchers cost O(1) encodes per frame, not O(N). Lifecycle frames leave at
/// the transition; the broadcast tick only samples queries still running.
///
/// Dropping the server (or calling [`shutdown`](Self::shutdown)) stops the
/// accept loop and joins every thread the server spawned.
pub struct MonitorServer {
    addr: SocketAddr,
    config: ServerConfig,
    /// Server start instant, for `/healthz` uptime reporting.
    started: std::time::Instant,
    directory: Arc<QueryDirectory>,
    metrics: Option<Arc<Registry>>,
    hub: Arc<StreamHub>,
    /// Attached after start (the session opens its corpus at build time,
    /// which may follow the server), hence the mutex.
    corpus: Mutex<Option<Arc<Corpus>>>,
    /// Attached after start, like the corpus: the service needs the
    /// directory (for its status observer), which needs the server.
    service: Mutex<Option<Arc<QueryService>>>,
    stop: Arc<AtomicBool>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
    tick_thread: Mutex<Option<JoinHandle<()>>>,
    connections: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl MonitorServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and start serving with default
    /// bounds. With a metrics registry attached, `/metrics` exposes it,
    /// the query directory's and stream hub's series included.
    pub fn start(addr: impl ToSocketAddrs, metrics: Option<Arc<Registry>>) -> QResult<Arc<Self>> {
        Self::start_with(addr, metrics, ServerConfig::default())
    }

    /// [`start`](Self::start) with explicit robustness bounds.
    pub fn start_with(
        addr: impl ToSocketAddrs,
        metrics: Option<Arc<Registry>>,
        config: ServerConfig,
    ) -> QResult<Arc<Self>> {
        let listener = TcpListener::bind(addr).map_err(|e| QError::plan(format!("bind: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| QError::plan(format!("local_addr: {e}")))?;
        let directory = Arc::new(QueryDirectory::new(metrics.as_deref()));
        let hub = Arc::new(StreamHub::new(metrics.as_deref()));
        directory.set_hub(Arc::clone(&hub));
        let server = Arc::new(MonitorServer {
            addr,
            config,
            started: std::time::Instant::now(),
            directory,
            metrics,
            hub,
            corpus: Mutex::new(None),
            service: Mutex::new(None),
            stop: Arc::new(AtomicBool::new(false)),
            accept_thread: Mutex::new(None),
            tick_thread: Mutex::new(None),
            connections: Arc::new(Mutex::new(Vec::new())),
        });
        let accept = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("qprog-monitor-accept".to_string())
                .spawn(move || server.accept_loop(listener))
                .map_err(|e| QError::plan(format!("spawn accept thread: {e}")))?
        };
        *server.accept_thread.lock() = Some(accept);
        let tick = {
            let server = Arc::clone(&server);
            std::thread::Builder::new()
                .name("qprog-monitor-tick".to_string())
                .spawn(move || server.broadcast_loop())
                .map_err(|e| QError::plan(format!("spawn broadcast thread: {e}")))?
        };
        *server.tick_thread.lock() = Some(tick);
        Ok(server)
    }

    /// The broadcast tick: sample every running query and fan frames out
    /// to stream subscribers until shutdown (whose `unpark` ends the wait).
    fn broadcast_loop(&self) {
        while !self.stop.load(Ordering::Acquire) {
            self.directory.tick();
            std::thread::park_timeout(TICK);
        }
    }

    /// The server-push hub stream subscribers hang off.
    pub fn hub(&self) -> &Arc<StreamHub> {
        &self.hub
    }

    /// The bound address (with the OS-assigned port when bound to `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Convenience `http://host:port` form of [`addr`](Self::addr).
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// The query directory live queries register with.
    pub fn directory(&self) -> &Arc<QueryDirectory> {
        &self.directory
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<Registry>> {
        self.metrics.as_ref()
    }

    /// Attach (or replace) the trace corpus served under `/history`.
    pub fn set_corpus(&self, corpus: Arc<Corpus>) {
        *self.corpus.lock() = Some(corpus);
    }

    /// The attached trace corpus, if any.
    pub fn corpus(&self) -> Option<Arc<Corpus>> {
        self.corpus.lock().clone()
    }

    /// Attach (or replace) the query service behind `POST /submit`,
    /// `POST /progress/{id}/cancel`, and `GET /service`.
    pub fn set_service(&self, service: Arc<QueryService>) {
        *self.service.lock() = Some(service);
    }

    /// The attached query service, if any.
    pub fn service(&self) -> Option<Arc<QueryService>> {
        self.service.lock().clone()
    }

    fn accept_loop(self: &Arc<Self>, listener: TcpListener) {
        for stream in listener.incoming() {
            if self.stop.load(Ordering::Acquire) {
                break;
            }
            let mut stream = match stream {
                Ok(s) => s,
                Err(_) => continue,
            };
            // Fault-injection site: a failing accept drops the connection
            // but must never take the accept loop down with it.
            if qprog_fault::eval("monitor/accept").is_err() {
                continue;
            }
            // Reap finished connection threads so the vec stays bounded,
            // then shed connections past the cap with a fast typed 503
            // (bounded write timeout: an unresponsive flooder must not
            // stall the accept loop either).
            let live = {
                let mut conns = self.connections.lock();
                conns.retain(|h| !h.is_finished());
                conns.len()
            };
            if live >= self.config.max_connections {
                let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
                let _ =
                    Response::error(503, "overloaded", "connection limit reached; retry shortly")
                        .with_retry_after(1)
                        .write_to(&mut stream, false);
                continue;
            }
            let server = Arc::clone(self);
            let handle = std::thread::Builder::new()
                .name("qprog-monitor-conn".to_string())
                // A panic while serving one client (route bug, poisoned
                // downstream lock) must not unwind the connection thread
                // noisily or poison shared state; swallow it and drop the
                // connection.
                .spawn(move || {
                    let _ = catch_unwind(AssertUnwindSafe(|| server.handle_connection(stream)));
                });
            if let Ok(handle) = handle {
                self.connections.lock().push(handle);
            }
        }
    }

    fn handle_connection(&self, mut stream: TcpStream) {
        // Each response and frame is one complete write: Nagle only delays it.
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.io_timeout));
        let _ = stream.set_write_timeout(Some(self.config.io_timeout));
        // Fault-injection site: simulate request-read failures (client gone
        // mid-request, interrupted socket) — the connection just drops.
        if qprog_fault::eval("monitor/read").is_err() {
            return;
        }
        let request = match read_request(&mut stream) {
            Ok(r) => r,
            Err(ReadError::BodyTooLarge) => {
                let _ = Response::error(
                    413,
                    "payload too large",
                    "request body exceeds the 256 KiB limit",
                )
                .write_to(&mut stream, false);
                return;
            }
            // Garbage (or a socket that died mid-request) gets no reply;
            // there may be nothing HTTP on the other end to read it.
            Err(ReadError::Malformed) => return,
        };
        // Streaming endpoints keep the connection open and write frames as
        // they arrive; everything else is a buffered one-shot response.
        if request.method == "GET" {
            if request.path == "/events" {
                self.serve_events(stream, &request);
                return;
            }
            if let Some(id) = request
                .path
                .strip_prefix("/progress/")
                .and_then(|rest| rest.strip_suffix("/stream"))
                .and_then(|id| id.parse::<u64>().ok())
            {
                self.serve_query_stream(stream, id);
                return;
            }
        }
        let head_only = request.method == "HEAD";
        let response = if request.method == "GET" || head_only {
            self.route(&request)
        } else if request.method == "POST" {
            self.route_post(&request)
        } else {
            Response::method_not_allowed()
        };
        let _ = response.write_to(&mut stream, head_only);
    }

    /// `GET /events`: subscribe to the firehose, open the stream, then
    /// pump frames until the client leaves or the server stops.
    ///
    /// A fresh connect opens with a `snapshot` frame of every query's
    /// current state, stamped with the hub's latest frame id so the
    /// client's `Last-Event-ID` tracking starts live. A reconnect carrying
    /// `Last-Event-ID` instead replays exactly the frames it missed when
    /// the hub's replay ring still covers the gap; when the gap is too old
    /// (or the id was never issued) it degrades to the snapshot resync.
    /// The subscription is taken *before* the replay cut, so a frame
    /// published in between is at worst duplicated (frames are
    /// snapshot-like upserts), never lost.
    fn serve_events(&self, mut stream: TcpStream, request: &Request) {
        use std::io::Write;
        let sub = self.hub.subscribe(None, DEFAULT_QUEUE_CAP);
        if write_sse_head(&mut stream).is_err() {
            self.hub.unsubscribe(&sub);
            return;
        }
        let replayed = request
            .last_event_id
            .and_then(|id| self.hub.frames_since(id));
        let opened = match replayed {
            Some(frames) => frames.iter().all(|f| {
                stream
                    .write_all(f.as_bytes())
                    .and_then(|()| stream.flush())
                    .is_ok()
            }),
            None => write_sse_frame(
                &mut stream,
                Some(self.hub.last_frame_id()),
                "snapshot",
                &self.directory.render_all(),
            )
            .is_ok(),
        };
        if !opened {
            self.hub.unsubscribe(&sub);
            return;
        }
        self.pump(&mut stream, &sub);
        self.hub.unsubscribe(&sub);
    }

    /// `GET /progress/{id}/stream`: one query's progress/health stream.
    /// The subscription is taken *before* the snapshot so a terminal frame
    /// broadcast in between is either in the snapshot or in the queue —
    /// never lost.
    fn serve_query_stream(&self, mut stream: TcpStream, id: u64) {
        let sub = self.hub.subscribe(Some(id), DEFAULT_QUEUE_CAP);
        let Some((summary, terminal, already_emitted)) = self.directory.stream_snapshot(id) else {
            self.hub.unsubscribe(&sub);
            let _ = Response::not_found(
                "no such query (finished queries unregister when their handle drops)",
            )
            .write_to(&mut stream, false);
            return;
        };
        if write_sse_head(&mut stream).is_err()
            || write_sse_frame(&mut stream, None, "progress", &summary).is_err()
        {
            self.hub.unsubscribe(&sub);
            return;
        }
        if terminal && already_emitted {
            // The broadcast predates this subscriber; synthesize the
            // terminal frame so late watchers still learn the outcome.
            let _ = write_sse_frame(&mut stream, None, "terminal", &summary);
        } else {
            self.pump(&mut stream, &sub);
        }
        self.hub.unsubscribe(&sub);
    }

    /// Forward frames from `sub` to the socket until the stream closes,
    /// the client disconnects, or the server shuts down.
    fn pump(&self, stream: &mut TcpStream, sub: &StreamSubscriber) {
        use std::io::Write;
        while !self.stop.load(Ordering::Acquire) {
            match sub.next(STREAM_POLL) {
                StreamNext::Frame(frame) => {
                    if stream
                        .write_all(frame.as_bytes())
                        .and_then(|()| stream.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                StreamNext::Timeout => {
                    // SSE comment: keeps intermediaries from idling the
                    // connection out and surfaces dead clients as errors.
                    if stream
                        .write_all(b": keepalive\n\n")
                        .and_then(|()| stream.flush())
                        .is_err()
                    {
                        return;
                    }
                }
                StreamNext::Closed => return,
            }
        }
    }

    /// Dispatch one parsed GET/HEAD request (separated from IO for
    /// testability).
    pub fn route(&self, request: &Request) -> Response {
        match request.path.as_str() {
            "/" => Response::ok("text/html; charset=utf-8", DASHBOARD_HTML),
            "/metrics" => match &self.metrics {
                Some(r) => Response::ok(qprog_metrics::expose::CONTENT_TYPE, r.render()),
                None => Response::not_found("no metrics registry attached"),
            },
            "/progress" => Response::ok(
                "application/json; charset=utf-8",
                self.directory.render_all(),
            ),
            "/service" => match self.service() {
                Some(s) => Response::ok("application/json; charset=utf-8", s.stats_json()),
                None => Response::not_found("no query service attached"),
            },
            "/healthz" => self.serve_healthz(),
            "/history" => self.serve_history(request),
            path => match path.strip_prefix("/history/") {
                Some(rest) => self.serve_history_run(rest),
                None => match path.strip_prefix("/trace/") {
                    Some(id) => self.serve_trace(id),
                    None => match path.strip_prefix("/progress/") {
                        Some(id) => match id.parse::<u64>().ok() {
                            Some(id) => match self.directory.render_query(id) {
                                Some(json) => Response::ok("application/json; charset=utf-8", json),
                                None => Response::not_found(
                                    "no such query (finished queries unregister when their \
                                     handle drops)",
                                ),
                            },
                            None => Response::bad_request("query id must be an integer"),
                        },
                        None => Response::not_found(
                            "try /, /metrics, /progress, /progress/{id}, /history, /service, \
                             /trace/{id}, or /healthz",
                        ),
                    },
                },
            },
        }
    }

    /// `GET /healthz`: liveness/readiness probe. `200` while the server
    /// is up and (if a service is attached) admitting; `503` once the
    /// service is draining or the server is stopping, so load balancers
    /// rotate traffic away before shutdown completes.
    fn serve_healthz(&self) -> Response {
        let (queue_depth, draining) = match self.service() {
            Some(s) => (s.stats().queue_depth, !s.is_admitting()),
            None => (0, false),
        };
        let stopping = self.stop.load(Ordering::Acquire);
        let unhealthy = draining || stopping;
        let body = format!(
            "{{\"status\":\"{}\",\"version\":\"{}\",\"uptime_s\":{},\"queue_depth\":{},\
             \"draining\":{}}}",
            if unhealthy { "draining" } else { "ok" },
            env!("CARGO_PKG_VERSION"),
            self.started.elapsed().as_secs(),
            queue_depth,
            unhealthy,
        );
        if unhealthy {
            Response {
                status: 503,
                content_type: "application/json; charset=utf-8",
                body,
                retry_after: Some(5),
            }
        } else {
            Response::ok("application/json; charset=utf-8", body)
        }
    }

    /// `GET /trace/{id}`: one submission's causal span tree as Chrome
    /// trace-event JSON — load it in Perfetto / `chrome://tracing`, or
    /// feed it to the dashboard's waterfall view.
    fn serve_trace(&self, rest: &str) -> Response {
        let Ok(id) = rest.parse::<u64>() else {
            return Response::bad_request("query id must be an integer");
        };
        let Some(service) = self.service() else {
            return Response::not_found("no query service attached");
        };
        match service.span_events(id) {
            Some(events) => {
                let tree = qprog_obs::SpanTree::from_events(&events, &[]);
                Response::ok("application/json; charset=utf-8", tree.to_chrome_json(id))
            }
            None => Response::not_found("no such submission (evicted or never accepted)"),
        }
    }

    /// Dispatch one parsed POST request.
    pub fn route_post(&self, request: &Request) -> Response {
        if request.path == "/submit" {
            return self.serve_submit(request);
        }
        if let Some(id) = request
            .path
            .strip_prefix("/progress/")
            .and_then(|rest| rest.strip_suffix("/cancel"))
        {
            return match id.parse::<u64>() {
                Ok(id) => self.serve_cancel(id),
                Err(_) => Response::bad_request("query id must be an integer"),
            };
        }
        Response::method_not_allowed()
    }

    /// `POST /submit`: hand the body to the attached query service and
    /// answer immediately — `202` with the query id on acceptance, or the
    /// typed rejection (`400` invalid, `429` shed + `Retry-After`, `503`
    /// draining, `500` journal failure).
    fn serve_submit(&self, request: &Request) -> Response {
        let Some(service) = self.service() else {
            return Response::not_found("no query service attached");
        };
        let Some(sql) = body_str_field(&request.body, "sql") else {
            return Response::bad_request("body must be a JSON object with a \"sql\" string field");
        };
        let Some(tenant) = body_str_field(&request.body, "tenant") else {
            return Response::bad_request(
                "body must be a JSON object with a \"tenant\" string field",
            );
        };
        let req = SubmitRequest {
            sql,
            tenant,
            label: body_str_field(&request.body, "label"),
            deadline: body_u64_field(&request.body, "deadline_ms").map(Duration::from_millis),
        };
        match service.submit(req) {
            Ok(ticket) => Response {
                status: 202,
                content_type: "application/json; charset=utf-8",
                body: format!(
                    "{{\"id\":{},\"state\":\"queued\",\"queue_depth\":{}}}",
                    ticket.id, ticket.queue_depth
                ),
                retry_after: None,
            },
            Err(SubmitError::Invalid(detail)) => Response::bad_request(&detail),
            Err(SubmitError::Rejected {
                reason,
                detail,
                retry_after,
            }) => Response::error(429, reason.label(), &detail)
                .with_retry_after(retry_after.as_secs().max(1)),
            Err(SubmitError::ShuttingDown) => {
                Response::error(503, "shutting down", "service is draining; retry later")
                    .with_retry_after(5)
            }
            Err(SubmitError::Internal(detail)) => Response::error(500, "internal", &detail),
        }
    }

    /// `POST /progress/{id}/cancel`.
    fn serve_cancel(&self, id: u64) -> Response {
        let Some(service) = self.service() else {
            return Response::not_found("no query service attached");
        };
        let state = match service.cancel(id) {
            CancelOutcome::CancelledQueued => "cancelled",
            CancelOutcome::SignalledRunning => "cancelling",
            CancelOutcome::AlreadyTerminal => "terminal",
            CancelOutcome::Unknown => {
                return Response::not_found("no such submission (evicted or never accepted)");
            }
        };
        Response::ok(
            "application/json; charset=utf-8",
            format!("{{\"id\":{id},\"state\":\"{state}\"}}"),
        )
    }

    /// `GET /history`: the corpus run list, newest last, as an array of
    /// index records (each already carries its scorecard). Filters:
    /// `?workload=`, `?estimator=`, `?state=`, `?limit=N` (newest N).
    /// Malformed filter values are a `400`, not a silently-ignored default.
    fn serve_history(&self, request: &Request) -> Response {
        let limit = match request.param("limit") {
            None => None,
            Some(v) => match v.parse::<usize>() {
                Ok(n) => Some(n),
                Err(_) => {
                    return Response::bad_request("limit must be a non-negative integer");
                }
            },
        };
        if let Some(s) = request.param("state") {
            if !HISTORY_STATES.contains(&s) {
                return Response::bad_request(
                    "state must be one of finished, cancelled, deadline, budget, panic, \
                     injected, error, unknown",
                );
            }
        }
        let Some(corpus) = self.corpus() else {
            return Response::not_found("no trace corpus attached");
        };
        let mut runs = corpus.runs();
        if let Some(w) = request.param("workload") {
            // Substring match: workloads are whole SQL texts and the query
            // string carries no percent-decoding, so exact match would make
            // any workload containing a space unfilterable.
            runs.retain(|r| r.workload.contains(w));
        }
        if let Some(e) = request.param("estimator") {
            runs.retain(|r| r.estimator == e);
        }
        if let Some(s) = request.param("state") {
            runs.retain(|r| r.state == s);
        }
        if let Some(n) = limit {
            if runs.len() > n {
                runs.drain(..runs.len() - n);
            }
        }
        let records: Vec<String> = runs.iter().map(|r| r.to_json()).collect();
        let body = format!(
            "{{\"runs\":[{}],\"diagnostics\":{}}}",
            records.join(","),
            corpus.diagnostics().len()
        );
        Response::ok("application/json; charset=utf-8", body)
    }

    /// `GET /history/{run}` (metadata + scorecard) and
    /// `GET /history/{run}/trace` (raw trace JSONL download).
    fn serve_history_run(&self, rest: &str) -> Response {
        let Some(corpus) = self.corpus() else {
            return Response::not_found("no trace corpus attached");
        };
        let (id, want_trace) = match rest.strip_suffix("/trace") {
            Some(id) => (id, true),
            None => (rest, false),
        };
        let Ok(id) = id.parse::<u64>() else {
            return Response::bad_request("run id must be an integer");
        };
        if want_trace {
            match corpus.trace_jsonl(id) {
                Ok(jsonl) => Response::ok("application/x-ndjson", jsonl),
                Err(_) => Response::not_found(
                    "no such archived run (evicted by retention or never archived)",
                ),
            }
        } else {
            match corpus.run(id) {
                Some(r) => Response::ok("application/json; charset=utf-8", r.to_json()),
                None => Response::not_found(
                    "no such archived run (evicted by retention or never archived)",
                ),
            }
        }
    }

    /// Stop accepting, then join the accept thread and every in-flight
    /// connection thread. Idempotent; also called on drop.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::AcqRel) {
            return;
        }
        // Wake stream subscribers first so SSE connection threads unblock.
        self.hub.close_all();
        // Poke the listener so the blocking accept observes the stop flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.tick_thread.lock().take() {
            // `stop` is set: the token makes its current or next wait return.
            handle.thread().unpark();
            let _ = handle.join();
        }
        let connections: Vec<_> = std::mem::take(&mut *self.connections.lock());
        for c in connections {
            let _ = c.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for MonitorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonitorServer")
            .field("addr", &self.addr)
            .field("live_queries", &self.directory.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::tests::{finished, session_entry};
    use crate::service::DirectoryObserver;
    use qprog_exec::governor::CancellationToken;
    use qprog_service::{JobExecutor, JobSpec, ServiceConfig};
    use std::io::{Read, Write};
    use std::path::{Path, PathBuf};

    /// One GET over a fresh TcpStream; returns the whole raw response.
    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// One POST with a body; returns the whole raw response.
    fn post(addr: SocketAddr, path: &str, body: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    /// Open a streaming GET and read until the server closes (or errors),
    /// tolerating the open-ended body.
    fn stream_get(addr: SocketAddr, path: &str) -> String {
        stream_get_until(addr, path, None)
    }

    /// [`stream_get`] that also stops once `until` has been read — for
    /// streams the server never closes on its own (`/events`).
    fn stream_get_until(addr: SocketAddr, path: &str, until: Option<&str>) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        while !until.is_some_and(|u| out.contains(u)) {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        out
    }

    /// Block until `n` stream subscribers are attached to the hub.
    fn await_subscribers(server: &MonitorServer, n: usize) {
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while server.hub().subscriber_count() < n {
            assert!(std::time::Instant::now() < deadline, "no subscriber");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A trivial executor for service-over-HTTP tests: every job succeeds
    /// instantly with one row.
    struct InstantExec;
    impl JobExecutor for InstantExec {
        fn execute(
            &self,
            _job: &JobSpec,
            _cancel: CancellationToken,
            _deadline: Option<Duration>,
        ) -> Result<u64, qprog_types::QError> {
            Ok(1)
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "qprog-monitor-svc-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn attach_service(
        server: &Arc<MonitorServer>,
        dir: &Path,
        cfg: ServiceConfig,
    ) -> Arc<QueryService> {
        let observer = DirectoryObserver::new(Arc::clone(server.directory()), "gnm");
        let service = QueryService::open(dir, cfg, Arc::new(InstantExec), observer, None).unwrap();
        server.set_service(Arc::clone(&service));
        service
    }

    #[test]
    fn query_stream_pushes_progress_and_always_ends_with_terminal() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let (q, publish, _) = session_entry(server.directory(), "streamed");
        let id = q.id();
        let addr = server.addr();
        publish(40, 100.0);
        let reader =
            std::thread::spawn(move || stream_get(addr, &format!("/progress/{id}/stream")));
        // Let the subscriber attach and see at least one live frame.
        std::thread::sleep(Duration::from_millis(80));
        publish(100, 100.0);
        q.set_state(finished(100));
        let out = reader.join().unwrap();
        assert!(out.starts_with("HTTP/1.1 200 OK\r\n"), "{out}");
        assert!(out.contains("Content-Type: text/event-stream"), "{out}");
        assert!(!out.contains("Content-Length"), "{out}");
        assert!(out.contains("event: progress\ndata: {\"id\":"), "{out}");
        // The stream always closes with the query's terminal frame.
        assert!(out.contains("event: terminal\n"), "{out}");
        assert!(out.contains("\"done\":true"), "{out}");
        server.shutdown();
    }

    #[test]
    fn late_stream_subscribers_still_get_a_terminal_frame() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let (q, publish, _) = session_entry(server.directory(), "late");
        publish(100, 100.0);
        // The terminal frame leaves with the reported outcome, to nobody.
        q.set_state(finished(100));
        // A subscriber arriving after the broadcast gets a synthesized one.
        let out = stream_get(server.addr(), &format!("/progress/{}/stream", q.id()));
        assert!(out.contains("event: terminal\n"), "{out}");
        assert!(out.contains("\"done\":true"), "{out}");
        server.shutdown();
    }

    #[test]
    fn events_firehose_snapshots_then_reports_unregistration() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let (q, publish, _) = session_entry(server.directory(), "fire");
        let addr = server.addr();
        let reader = std::thread::spawn(move || {
            stream_get_until(addr, "/events", Some("event: terminal\n"))
        });
        await_subscribers(&server, 1);
        publish(100, 100.0);
        // Pushed to the attached firehose by this call, not by a later tick;
        // the reader returns once it has the frame (shutdown drops what a
        // stream has not written yet).
        q.set_state(finished(100));
        let out = reader.join().unwrap();
        drop(q);
        server.shutdown();
        assert!(
            out.contains("event: snapshot\ndata: {\"queries\":["),
            "{out}"
        );
        assert!(out.contains("\"label\":\"fire\""), "{out}");
        assert!(out.contains("event: terminal\n"), "{out}");
    }

    #[test]
    fn stream_for_unknown_query_is_a_404() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let out = stream_get(server.addr(), "/progress/424242/stream");
        assert!(out.starts_with("HTTP/1.1 404"), "{out}");
        server.shutdown();
    }

    #[test]
    fn serves_dashboard_progress_and_structured_errors() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();

        let home = get(addr, "/");
        assert!(home.starts_with("HTTP/1.1 200 OK\r\n"), "{home}");
        assert!(home.contains("text/html"), "{home}");
        assert!(home.contains("<!doctype html>"), "{home}");

        let progress = get(addr, "/progress");
        assert!(progress.contains("application/json"), "{progress}");
        assert!(progress.ends_with("{\"queries\":[]}"), "{progress}");

        // Errors are structured JSON with accurate status codes.
        let missing = get(addr, "/progress/99");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
        assert!(missing.contains("{\"error\":\"not found\""), "{missing}");
        let bad_id = get(addr, "/progress/zzz");
        assert!(bad_id.starts_with("HTTP/1.1 400"), "{bad_id}");
        assert!(
            bad_id.contains("\"detail\":\"query id must be an integer\""),
            "{bad_id}"
        );
        assert!(get(addr, "/nope").starts_with("HTTP/1.1 404"));
        // no registry / service attached
        assert!(get(addr, "/metrics").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/service").starts_with("HTTP/1.1 404"));

        server.shutdown();
    }

    #[test]
    fn serves_metrics_when_registry_attached() {
        let registry = Arc::new(Registry::new());
        registry.counter("up_total", "updates", &[]).add(3);
        let server = MonitorServer::start("127.0.0.1:0", Some(Arc::clone(&registry))).unwrap();
        let text = get(server.addr(), "/metrics");
        assert!(text.contains("text/plain; version=0.0.4"), "{text}");
        assert!(text.contains("# TYPE up_total counter"), "{text}");
        assert!(text.contains("up_total 3"), "{text}");
    }

    #[test]
    fn history_routes_serve_the_attached_corpus() {
        use qprog_exec::trace::{TraceEvent, TraceEventKind};
        use qprog_obs::{Corpus, RunMeta};

        let dir =
            std::env::temp_dir().join(format!("qprog-monitor-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let events: Vec<TraceEvent> = vec![
            TraceEvent {
                seq: 0,
                at_us: 100,
                kind: TraceEventKind::ProgressSampled {
                    current: 50,
                    total: 100.0,
                    fraction: 0.5,
                    lo: f64::NAN,
                    hi: f64::NAN,
                },
            },
            TraceEvent {
                seq: 1,
                at_us: 200,
                kind: TraceEventKind::QueryFinished { rows: 100 },
            },
        ];

        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        // No corpus attached yet: the routes 404 with a hint.
        assert!(get(addr, "/history").starts_with("HTTP/1.1 404"));

        let corpus = Arc::new(Corpus::open(&dir).unwrap());
        server.set_corpus(Arc::clone(&corpus));
        corpus
            .archive(&RunMeta::new("q1", "once"), &events, &[])
            .unwrap();
        corpus
            .archive(&RunMeta::new("q2", "dne"), &events, &[])
            .unwrap();

        let list = get(addr, "/history");
        assert!(list.starts_with("HTTP/1.1 200"), "{list}");
        assert!(list.contains("\"run\":0"), "{list}");
        assert!(list.contains("\"run\":1"), "{list}");
        assert!(list.contains("\"mean_abs_err\":"), "{list}");

        // Filters narrow the list; limit keeps the newest N.
        let filtered = get(addr, "/history?workload=q2");
        assert!(filtered.contains("\"workload\":\"q2\""), "{filtered}");
        assert!(!filtered.contains("\"workload\":\"q1\""), "{filtered}");
        let limited = get(addr, "/history?limit=1");
        assert!(!limited.contains("\"run\":0"), "{limited}");
        assert!(limited.contains("\"run\":1"), "{limited}");

        let one = get(addr, "/history/0");
        assert!(one.contains("\"workload\":\"q1\""), "{one}");
        assert!(one.contains("\"state\":\"finished\""), "{one}");

        let trace = get(addr, "/history/0/trace");
        assert!(trace.contains("application/x-ndjson"), "{trace}");
        assert!(trace.contains("\"event\":\"query_finished\""), "{trace}");

        assert!(get(addr, "/history/99").starts_with("HTTP/1.1 404"));
        assert!(get(addr, "/history/zzz").starts_with("HTTP/1.1 400"));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn history_params_are_validated_not_silently_defaulted() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        // Validation runs before the corpus check: a malformed request is
        // a client error regardless of server configuration.
        let bad_limit = get(addr, "/history?limit=banana");
        assert!(bad_limit.starts_with("HTTP/1.1 400"), "{bad_limit}");
        assert!(bad_limit.contains("non-negative integer"), "{bad_limit}");
        let bad_state = get(addr, "/history?state=exploded");
        assert!(bad_state.starts_with("HTTP/1.1 400"), "{bad_state}");
        assert!(bad_state.contains("state must be one of"), "{bad_state}");
        // Valid states pass validation (then 404: no corpus attached).
        assert!(get(addr, "/history?state=finished").starts_with("HTTP/1.1 404"));
        server.shutdown();
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /progress HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
        assert!(out.contains("{\"error\":\"method not allowed\""), "{out}");
    }

    #[test]
    fn submit_over_http_runs_to_a_visible_terminal() {
        let dir = temp_dir("submit");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        // Without a service: the submit route is a structured 404.
        let none = post(addr, "/submit", "{\"sql\":\"select 1\",\"tenant\":\"t\"}");
        assert!(none.starts_with("HTTP/1.1 404"), "{none}");
        let service = attach_service(&server, &dir, ServiceConfig::default());

        let accepted = post(
            addr,
            "/submit",
            "{\"sql\":\"select 1\",\"tenant\":\"acme\"}",
        );
        assert!(accepted.starts_with("HTTP/1.1 202 Accepted"), "{accepted}");
        let body = accepted.split("\r\n\r\n").nth(1).unwrap();
        let id = body_u64_field(body, "id").expect("ticket carries the id");
        assert!(body.contains("\"state\":\"queued\""), "{body}");

        // The submission becomes visible under /progress/{id} and reaches
        // a done terminal there.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let detail = get(addr, &format!("/progress/{id}"));
            if detail.contains("\"state\":\"done\"") {
                assert!(detail.contains("\"tenant\":\"acme\""), "{detail}");
                assert!(detail.contains("\"rows\":1"), "{detail}");
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "submission never finished: {detail}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let stats = get(addr, "/service");
        assert!(stats.contains("\"admitted\":1"), "{stats}");
        service.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_accepts_surrogate_pairs_and_journals_the_text() {
        // What a default-configured client sends (`json.dumps` writes
        // non-BMP text as a surrogate pair; \b and \f are legal JSON).
        let dir = temp_dir("escapes");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let cfg = ServiceConfig {
            workers: 0, // nothing dispatches: the submission stays pending
            ..ServiceConfig::default()
        };
        let service = attach_service(&server, &dir, cfg);
        let body = "{\"sql\":\"select '\\ud83d\\ude00\\b\\f\\/' from t\",\
                    \"tenant\":\"acme\",\"label\":\"caf\\u00e9 \\uD83C\\uDFAF\"}";
        let out = post(server.addr(), "/submit", body);
        assert!(out.starts_with("HTTP/1.1 202 Accepted"), "{out}");
        service.shutdown();
        server.shutdown();
        // The accepted text survives the journal across a reopen.
        let (_, replay) = qprog_service::Journal::open(&dir).unwrap();
        assert!(replay.diagnostics.is_empty(), "{:?}", replay.diagnostics);
        assert_eq!(replay.pending.len(), 1);
        assert_eq!(replay.pending[0].sql, "select '😀\u{8}\u{c}/' from t");
        assert_eq!(replay.pending[0].label, "café 🎯");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn invalid_submissions_get_structured_400s() {
        let dir = temp_dir("invalid");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let service = attach_service(&server, &dir, ServiceConfig::default());
        for (body, hint) in [
            ("", "sql"),
            ("{\"tenant\":\"t\"}", "sql"),
            ("{\"sql\":\"select 1\"}", "tenant"),
            ("{\"sql\":\"\",\"tenant\":\"t\"}", "sql"),
            ("{\"sql\":\"select 1\",\"tenant\":\"\"}", "tenant"),
        ] {
            let out = post(addr, "/submit", body);
            assert!(out.starts_with("HTTP/1.1 400"), "{body} -> {out}");
            assert!(out.contains("{\"error\":"), "{body} -> {out}");
            assert!(out.contains(hint), "{body} -> {out}");
        }
        service.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shed_submissions_get_429_with_retry_after() {
        let dir = temp_dir("shed");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let cfg = ServiceConfig {
            admission: qprog_service::AdmissionConfig {
                max_queue_depth: 8,
                max_tenant_inflight: 1,
                retry_after: Duration::from_secs(2),
            },
            workers: 0, // nothing drains the queue
            ..ServiceConfig::default()
        };
        let service = attach_service(&server, &dir, cfg);
        let first = post(addr, "/submit", "{\"sql\":\"select 1\",\"tenant\":\"a\"}");
        assert!(first.starts_with("HTTP/1.1 202"), "{first}");
        let shed = post(addr, "/submit", "{\"sql\":\"select 1\",\"tenant\":\"a\"}");
        assert!(shed.starts_with("HTTP/1.1 429"), "{shed}");
        assert!(shed.contains("Retry-After: 2"), "{shed}");
        assert!(shed.contains("{\"error\":\"tenant_cap\""), "{shed}");
        service.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cancel_route_cancels_queued_submissions() {
        let dir = temp_dir("cancel");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let cfg = ServiceConfig {
            workers: 0, // keep it queued
            ..ServiceConfig::default()
        };
        let service = attach_service(&server, &dir, cfg);
        let accepted = post(addr, "/submit", "{\"sql\":\"select 1\",\"tenant\":\"t\"}");
        let body = accepted.split("\r\n\r\n").nth(1).unwrap();
        let id = body_u64_field(body, "id").unwrap();
        let cancelled = post(addr, &format!("/progress/{id}/cancel"), "");
        assert!(cancelled.starts_with("HTTP/1.1 200"), "{cancelled}");
        assert!(cancelled.contains("\"state\":\"cancelled\""), "{cancelled}");
        let again = post(addr, &format!("/progress/{id}/cancel"), "");
        assert!(again.contains("\"state\":\"terminal\""), "{again}");
        assert!(post(addr, "/progress/999999/cancel", "").starts_with("HTTP/1.1 404"));
        assert!(post(addr, "/progress/zzz/cancel", "").starts_with("HTTP/1.1 400"));
        service.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn healthz_reports_ok_then_draining() {
        let dir = temp_dir("healthz");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        // Healthy even with no service attached (pure monitor deployments).
        let ok = get(addr, "/healthz");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        assert!(ok.contains("\"status\":\"ok\""), "{ok}");
        assert!(ok.contains("\"version\":\""), "{ok}");
        assert!(ok.contains("\"uptime_s\":"), "{ok}");
        assert!(ok.contains("\"queue_depth\":0"), "{ok}");
        assert!(ok.contains("\"draining\":false"), "{ok}");
        let service = attach_service(&server, &dir, ServiceConfig::default());
        assert!(get(addr, "/healthz").starts_with("HTTP/1.1 200"));
        // A draining service flips the probe to 503 so load balancers
        // rotate away before shutdown completes.
        service.shutdown();
        let drained = get(addr, "/healthz");
        assert!(drained.starts_with("HTTP/1.1 503"), "{drained}");
        assert!(drained.contains("\"status\":\"draining\""), "{drained}");
        assert!(drained.contains("\"draining\":true"), "{drained}");
        assert!(drained.contains("Retry-After: 5"), "{drained}");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_route_serves_chrome_trace_json() {
        let dir = temp_dir("trace");
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        assert!(
            get(addr, "/trace/1").starts_with("HTTP/1.1 404"),
            "no service yet"
        );
        assert!(get(addr, "/trace/zzz").starts_with("HTTP/1.1 400"));
        let service = attach_service(&server, &dir, ServiceConfig::default());
        let accepted = post(addr, "/submit", "{\"sql\":\"select 1\",\"tenant\":\"t\"}");
        let body = accepted.split("\r\n\r\n").nth(1).unwrap();
        let id = body_u64_field(body, "id").unwrap();
        // Poll until the lifecycle completes and the span tree includes
        // the terminal finalize phase.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let trace = loop {
            let t = get(addr, &format!("/trace/{id}"));
            if t.contains("finalize") {
                break t;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "span tree never completed: {t}"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(trace.starts_with("HTTP/1.1 200"), "{trace}");
        assert!(trace.contains("\"traceEvents\":["), "{trace}");
        assert!(trace.contains("\"ph\":\"X\""), "{trace}");
        assert!(trace.contains("queue_wait"), "{trace}");
        assert!(trace.contains("\"pid\":"), "{trace}");
        assert!(get(addr, "/trace/424242").starts_with("HTTP/1.1 404"));
        service.shutdown();
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn events_reconnect_replays_missed_frames_or_resyncs() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let (_q, _, _) = session_entry(server.directory(), "recon");
        // Publish a few frames through the hub directly (deterministic ids).
        for i in 0..4 {
            server
                .hub()
                .publish(1, "progress", &format!("{{\"n\":{i}}}"), false);
        }
        // Reconnect claiming id 2: frames 3 and 4 replay, no snapshot.
        let shutdown_later = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                server.shutdown();
            })
        };
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /events HTTP/1.1\r\nHost: t\r\nLast-Event-ID: 2\r\n\r\n"
        )
        .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        assert!(
            out.contains("id: 3\nevent: progress\ndata: {\"n\":2}\n\n"),
            "{out}"
        );
        assert!(
            out.contains("id: 4\nevent: progress\ndata: {\"n\":3}\n\n"),
            "{out}"
        );
        assert!(
            !out.contains("event: snapshot"),
            "replay must not resync: {out}"
        );
        shutdown_later.join().unwrap();
    }

    #[test]
    fn events_reconnect_with_stale_id_falls_back_to_snapshot() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let shutdown_later = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(300));
                server.shutdown();
            })
        };
        // Id 99 was never issued (e.g. the server restarted): the stream
        // must open with a full snapshot resync instead of a replay.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "GET /events HTTP/1.1\r\nHost: t\r\nLast-Event-ID: 99\r\n\r\n"
        )
        .unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut out = String::new();
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(n) => out.push_str(&String::from_utf8_lossy(&buf[..n])),
            }
        }
        assert!(
            out.contains("event: snapshot\ndata: {\"queries\":["),
            "{out}"
        );
        shutdown_later.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(
            stream,
            "POST /submit HTTP/1.1\r\nHost: t\r\nContent-Length: 999999999\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 413"), "{out}");
        assert!(out.contains("{\"error\":\"payload too large\""), "{out}");
        server.shutdown();
    }

    /// Write raw (possibly invalid) bytes, then read whatever comes back.
    /// The assertion that matters is implicit: the server survives.
    fn raw(addr: SocketAddr, bytes: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        let _ = stream.write_all(bytes);
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
        let mut out = Vec::new();
        let _ = stream.read_to_end(&mut out);
        String::from_utf8_lossy(&out).into_owned()
    }

    #[test]
    fn malformed_requests_do_not_take_the_server_down() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        let cases: &[&[u8]] = &[
            b"",                                // connect-then-close
            b"\r\n\r\n",                        // empty request line
            b"GARBAGE\r\n\r\n",                 // no method/path split
            b"GET\r\n\r\n",                     // missing path
            b"GET /progress",                   // truncated: no header end
            b"\xff\xfe\x00\x01garbage\r\n\r\n", // non-UTF-8 noise
            b"GET /progress HTTP/1.1\r\nHeader-without-colon\r\n\r\n",
            b"GET /%zz%%% HTTP/1.1\r\n\r\n", // junk path, parses fine
            b"GET / HTTP/9.9\r\n\r\n",       // absurd version
            b"POST /submit HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort",
        ];
        for case in cases {
            // Never panics, never hangs; response may be empty or an error.
            let _ = raw(addr, case);
        }
        // A request head past MAX_HEAD_BYTES is dropped, not buffered forever.
        let mut huge = Vec::from(&b"GET / HTTP/1.1\r\n"[..]);
        huge.extend(std::iter::repeat_n(b'a', 64 * 1024));
        let _ = raw(addr, &huge);
        // The server still answers well-formed requests afterwards.
        let ok = get(addr, "/progress");
        assert!(ok.starts_with("HTTP/1.1 200"), "{ok}");
        server.shutdown();
    }

    #[test]
    fn slow_clients_cannot_hold_connection_threads_hostage() {
        // Tight bounds: 300ms socket timeout, at most 2 live connections.
        let server = MonitorServer::start_with(
            "127.0.0.1:0",
            None,
            ServerConfig {
                io_timeout: Duration::from_millis(300),
                max_connections: 2,
            },
        )
        .unwrap();
        let addr = server.addr();
        // Slowloris-style clients: open connections, trickle half a
        // request, then stall — filling the connection budget.
        let stalled: Vec<TcpStream> = (0..2)
            .map(|_| {
                let s = TcpStream::connect(addr).unwrap();
                {
                    let mut w = &s;
                    let _ = w.write_all(b"GET /progress HT");
                }
                s
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        // With the budget exhausted, the next connection is shed fast with
        // a typed 503 + Retry-After instead of queueing behind the flood.
        // (`raw` instead of `get`: a shed connection may be reset before
        // the client finishes reading.)
        let shed = raw(addr, b"GET /progress HTTP/1.1\r\nHost: t\r\n\r\n");
        assert!(shed.starts_with("HTTP/1.1 503"), "{shed}");
        assert!(shed.contains("Retry-After: 1"), "{shed}");
        assert!(shed.contains("{\"error\":\"overloaded\""), "{shed}");
        // The read timeout reclaims the stalled threads; the server then
        // recovers and serves normally again.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let out = raw(addr, b"GET /progress HTTP/1.1\r\nHost: t\r\n\r\n");
            if out.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "server never recovered from slowloris flood: {out}"
            );
            std::thread::sleep(Duration::from_millis(100));
        }
        drop(stalled);
        server.shutdown();
    }

    #[test]
    fn shutdown_is_graceful_and_idempotent() {
        let server = MonitorServer::start("127.0.0.1:0", None).unwrap();
        let addr = server.addr();
        assert!(get(addr, "/").starts_with("HTTP/1.1 200"));
        server.shutdown();
        server.shutdown();
        // The listener is gone: new connections fail or yield no response.
        let refused = match TcpStream::connect(addr) {
            Err(_) => true,
            Ok(mut s) => {
                let _ = write!(s, "GET / HTTP/1.1\r\n\r\n");
                let mut out = String::new();
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                s.read_to_string(&mut out).is_err() || out.is_empty()
            }
        };
        assert!(refused, "server still answering after shutdown");
    }
}
