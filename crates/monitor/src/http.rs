//! Minimal HTTP/1.1 plumbing for the monitor server: just enough to parse
//! `GET`/`POST` requests (with small bodies) and write well-formed
//! responses over a `std::net::TcpStream`. No external crates, no chunked
//! encoding, one request per connection (`Connection: close`). Errors are
//! structured JSON bodies (`{"error","detail"}`) so clients never have to
//! scrape prose.

use std::io::{Read, Write};

use qprog_types::json::escape;
/// Field getters for flat JSON bodies (`POST /submit` payloads, tickets,
/// SSE frames): the shared codec's, under the names clients import.
pub use qprog_types::json::{str as body_str_field, u64 as body_u64_field};

/// Cap on the request head (request line + headers) we are willing to read.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// Cap on a request body (`POST /submit` payloads — small JSON documents).
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// HTTP method, uppercase as received (`GET`, `HEAD`, `POST`, ...).
    pub method: String,
    /// Request target path, without query string.
    pub path: String,
    /// Raw query string (without the `?`); empty when the target had none.
    pub query: String,
    /// Request body (empty unless the client sent `Content-Length`).
    pub body: String,
    /// Parsed `Last-Event-ID` header, when the client sent one on an SSE
    /// reconnect (non-numeric values are ignored — the monitor only ever
    /// issues numeric frame ids).
    pub last_event_id: Option<u64>,
}

impl Request {
    /// A request with no query string (handy in tests and direct routing).
    pub fn get(path: impl Into<String>) -> Request {
        Request {
            method: "GET".to_string(),
            path: path.into(),
            query: String::new(),
            body: String::new(),
            last_event_id: None,
        }
    }

    /// A `POST` carrying `body` (tests and direct routing).
    pub fn post(path: impl Into<String>, body: impl Into<String>) -> Request {
        Request {
            method: "POST".to_string(),
            path: path.into(),
            query: String::new(),
            body: body.into(),
            last_event_id: None,
        }
    }

    /// The value of query parameter `key`, if present (`k=v` pairs split
    /// on `&`; no percent-decoding — the monitor's filter values are plain
    /// identifiers).
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .split('&')
            .filter_map(|pair| pair.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// Parse the head of an HTTP request from `text` (everything up to the
/// blank line). Returns `None` for anything that is not a plausible
/// HTTP/1.x request line. The body, if any, is read separately.
pub fn parse_request(text: &str) -> Option<Request> {
    let line = text.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?;
    let target = parts.next()?;
    let version = parts.next()?;
    if !version.starts_with("HTTP/1.") {
        return None;
    }
    // Split the query string off; filterable routes read it via
    // [`Request::param`], everything else ignores it.
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return None;
    }
    Some(Request {
        method: method.to_string(),
        path: path.to_string(),
        query: query.to_string(),
        body: String::new(),
        last_event_id: header_value(text, "last-event-id").and_then(|v| v.parse().ok()),
    })
}

/// The (trimmed) value of header `name` in a request head, if present.
fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case(name))
        .map(|(_, v)| v.trim())
}

/// `Content-Length` from a request head, if present and parseable.
fn content_length(head: &str) -> Option<usize> {
    header_value(head, "content-length").and_then(|v| v.parse().ok())
}

/// Why reading a request failed — the server maps these to status codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadError {
    /// Unparseable head, IO error, or the head exceeded its cap.
    Malformed,
    /// The declared body exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
}

/// Read a full request (head + `Content-Length` body) from `stream`.
pub fn read_request(stream: &mut impl Read) -> Result<Request, ReadError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(ReadError::Malformed);
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(ReadError::Malformed),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(ReadError::Malformed),
        }
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut req = parse_request(&head).ok_or(ReadError::Malformed)?;
    let want = content_length(&head).unwrap_or(0);
    if want > MAX_BODY_BYTES {
        return Err(ReadError::BodyTooLarge);
    }
    let mut body = buf[head_end..].to_vec();
    while body.len() < want {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(_) => return Err(ReadError::Malformed),
        }
    }
    body.truncate(want);
    req.body = String::from_utf8_lossy(&body).into_owned();
    Ok(req)
}

/// A response ready to serialize.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Content-Type header value.
    pub content_type: &'static str,
    /// Response body.
    pub body: String,
    /// `Retry-After` header in seconds (shed/drain responses).
    pub retry_after: Option<u64>,
}

impl Response {
    /// 200 with the given type and body.
    pub fn ok(content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status: 200,
            content_type,
            body: body.into(),
            retry_after: None,
        }
    }

    /// A structured JSON error: `{"error": <short>, "detail": <long>}`.
    pub fn error(status: u16, error: &str, detail: &str) -> Self {
        Response {
            status,
            content_type: "application/json",
            body: format!(
                "{{\"error\":\"{}\",\"detail\":\"{}\"}}",
                escape(error),
                escape(detail)
            ),
            retry_after: None,
        }
    }

    /// 400 with a structured body.
    pub fn bad_request(detail: &str) -> Self {
        Response::error(400, "bad request", detail)
    }

    /// 404 with a structured body.
    pub fn not_found(detail: &str) -> Self {
        Response::error(404, "not found", detail)
    }

    /// 405 for unsupported methods.
    pub fn method_not_allowed() -> Self {
        Response::error(
            405,
            "method not allowed",
            "monitor endpoints accept GET/HEAD; the service accepts POST /submit and POST /progress/{id}/cancel",
        )
    }

    /// Attach a `Retry-After` header (429/503 responses).
    pub fn with_retry_after(mut self, seconds: u64) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Error",
        }
    }

    /// Serialize head + body as one write. `head_only` omits the body (HEAD).
    pub fn write_to(&self, stream: &mut impl Write, head_only: bool) -> std::io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        );
        if let Some(secs) = self.retry_after {
            out.push_str(&format!("Retry-After: {secs}\r\n"));
        }
        out.push_str("Connection: close\r\n\r\n");
        if !head_only {
            out.push_str(&self.body);
        }
        stream.write_all(out.as_bytes())?;
        stream.flush()
    }
}

/// Write the head of a Server-Sent Events response: `200 OK`, no
/// `Content-Length` — the body is an open-ended `text/event-stream` the
/// caller keeps appending frames to until the connection closes.
pub fn write_sse_head(stream: &mut impl Write) -> std::io::Result<()> {
    stream.write_all(
        b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\n\
          Cache-Control: no-cache\r\nConnection: close\r\n\r\n",
    )?;
    stream.flush()
}

/// Write one SSE frame — `event:` + `data:` lines and the blank-line
/// terminator — as one write. `data` must be a single line (the monitor's
/// frames are compact JSON). With `id`, an `id:` line leads so the client's
/// `Last-Event-ID` tracking advances (snapshot resyncs stamp the hub's
/// current frame id).
pub fn write_sse_frame(
    stream: &mut impl Write,
    id: Option<u64>,
    event: &str,
    data: &str,
) -> std::io::Result<()> {
    let id = id.map_or(String::new(), |id| format!("id: {id}\n"));
    stream.write_all(format!("{id}event: {event}\ndata: {data}\n\n").as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_get_request_line() {
        let r = parse_request("GET /progress/7?x=1 HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/progress/7");
        assert_eq!(r.query, "x=1");
        assert_eq!(r.param("x"), Some("1"));
        assert_eq!(r.param("y"), None);
    }

    #[test]
    fn query_params_split_on_ampersands() {
        let r = parse_request("GET /history?workload=q1&state=finished HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.param("workload"), Some("q1"));
        assert_eq!(r.param("state"), Some("finished"));
        assert_eq!(r.param("estimator"), None);
        assert_eq!(Request::get("/history").param("workload"), None);
    }

    #[test]
    fn last_event_id_header_is_parsed_case_insensitively() {
        let r = parse_request("GET /events HTTP/1.1\r\nLast-Event-ID: 42\r\n\r\n").unwrap();
        assert_eq!(r.last_event_id, Some(42));
        let r = parse_request("GET /events HTTP/1.1\r\nlast-event-id:  7 \r\n\r\n").unwrap();
        assert_eq!(r.last_event_id, Some(7));
        // Absent or non-numeric: ignored, not an error.
        let r = parse_request("GET /events HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.last_event_id, None);
        let r = parse_request("GET /events HTTP/1.1\r\nLast-Event-ID: abc\r\n\r\n").unwrap();
        assert_eq!(r.last_event_id, None);
    }

    #[test]
    fn sse_frames_can_carry_ids() {
        let mut out = Vec::new();
        write_sse_frame(&mut out, Some(9), "snapshot", "{\"queries\":[]}").unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "id: 9\nevent: snapshot\ndata: {\"queries\":[]}\n\n"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_request("").is_none());
        assert!(parse_request("GET\r\n").is_none());
        assert!(parse_request("GET /x SMTP/1.0\r\n").is_none());
        assert!(parse_request("GET x HTTP/1.1\r\n").is_none());
    }

    #[test]
    fn response_serializes_with_content_length() {
        let mut out = Vec::new();
        Response::ok("text/plain; charset=utf-8", "hello")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
        assert!(text.ends_with("\r\n\r\nhello"));
    }

    #[test]
    fn head_only_omits_body() {
        let mut out = Vec::new();
        Response::ok("text/plain; charset=utf-8", "hello")
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.ends_with("\r\n\r\n"));
        assert!(text.contains("Content-Length: 5\r\n"));
    }

    #[test]
    fn errors_are_structured_json() {
        let mut out = Vec::new();
        Response::not_found("no query with id 7")
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"), "{text}");
        assert!(text.contains("Content-Type: application/json"), "{text}");
        assert!(
            text.ends_with("{\"error\":\"not found\",\"detail\":\"no query with id 7\"}"),
            "{text}"
        );
        let r = Response::error(400, "bad request", "limit must be an integer, got \"x\"");
        assert!(r.body.contains("got \\\"x\\\""), "{}", r.body);
    }

    #[test]
    fn retry_after_header_is_emitted() {
        let mut out = Vec::new();
        Response::error(429, "rejected", "tenant cap")
            .with_retry_after(3)
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("Retry-After: 3\r\n"), "{text}");
    }

    #[test]
    fn sse_head_and_frames_are_well_formed() {
        let mut out = Vec::new();
        write_sse_head(&mut out).unwrap();
        write_sse_frame(&mut out, None, "progress", "{\"id\":1}").unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(
            text.contains("Content-Type: text/event-stream\r\n"),
            "{text}"
        );
        // Streams are open-ended: no Content-Length may be promised.
        assert!(!text.contains("Content-Length"), "{text}");
        assert!(
            text.ends_with("\r\n\r\nevent: progress\ndata: {\"id\":1}\n\n"),
            "{text}"
        );
    }

    #[test]
    fn read_request_handles_split_reads() {
        struct Chunked(Vec<Vec<u8>>);
        impl Read for Chunked {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                match self.0.pop() {
                    Some(chunk) => {
                        buf[..chunk.len()].copy_from_slice(&chunk);
                        Ok(chunk.len())
                    }
                    None => Ok(0),
                }
            }
        }
        let mut stream = Chunked(vec![b"\r\n\r\n".to_vec(), b"GET / HTTP/1.1".to_vec()]);
        let r = read_request(&mut stream).unwrap();
        assert_eq!(r.path, "/");
        assert_eq!(r.body, "");
    }

    #[test]
    fn read_request_collects_post_bodies() {
        let body = "{\"sql\":\"select 1\"}";
        let raw = format!(
            "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let mut stream = raw.as_bytes();
        let r = read_request(&mut stream).unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.body, body);

        let huge = format!(
            "POST /submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        let mut stream = huge.as_bytes();
        assert_eq!(read_request(&mut stream), Err(ReadError::BodyTooLarge));
    }
}
