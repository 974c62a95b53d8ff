//! SSE fan-out overhead benchmark: what does server-push streaming cost
//! the query it is watching?
//!
//! Two identical monitored sessions run the same skew-join aggregate. The
//! baseline session has zero stream subscribers; the loaded session fans
//! every broadcast frame out to 256 in-process firehose subscribers (each
//! drained by its own thread) plus a handful of real TCP clients reading
//! `GET /events`. Because the hub encodes each frame once and clones an
//! `Arc`, the marginal cost per subscriber is a queue push — the measured
//! overhead should stay in the low single digits.
//!
//! A separate delivery phase subscribes 256 per-query streams to one query
//! and asserts every one of them receives exactly one terminal frame —
//! terminal delivery is exempt from backpressure drops by design, and the
//! bench exits non-zero if even one subscriber misses it.
//!
//! Results are written to **`BENCH_stream.json`** at the repo root. Set
//! `QPROG_STREAM_MAX_OVERHEAD_PCT` (e.g. `5`) to turn the fan-out overhead
//! into a hard gate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use qprog::prelude::*;
use qprog_bench::{banner, interleaved_min_times, ms, paper_note, write_bench_json, Scale};

/// In-process firehose subscribers on the loaded session.
const SUBSCRIBERS: usize = 256;
/// Real TCP clients reading `GET /events` on the loaded session.
const TCP_CLIENTS: usize = 4;
/// Per-query subscribers in the terminal-delivery phase.
const TERMINAL_SUBS: usize = 256;

const SQL: &str = "SELECT nation.nationkey, count(*) FROM customer \
                   JOIN nation ON customer.nationkey = nation.nationkey \
                   GROUP BY nation.nationkey";

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.register(qprog::datagen::customer_table(
        "customer", 250_000, 1.5, 300, 17,
    ))
    .expect("customer");
    c.register(qprog::datagen::nation_table("nation", 300))
        .expect("nation");
    c
}

fn monitored_session() -> Session {
    SessionBuilder::new(catalog())
        .observability(Observability::new().serve_on("127.0.0.1:0"))
        .build()
        .expect("session")
}

/// Drain a firehose subscriber until the hub closes it (frame counts are
/// side effects we do not need; keeping the queue empty is the job).
fn spawn_drainer(
    sub: Arc<qprog::monitor::StreamSubscriber>,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut frames = 0u64;
        loop {
            match sub.next(Duration::from_millis(50)) {
                StreamNext::Frame(_) => frames += 1,
                StreamNext::Timeout if stop.load(Ordering::Relaxed) => break,
                StreamNext::Timeout => {}
                StreamNext::Closed => break,
            }
        }
        frames
    })
}

/// A real SSE client: connect, issue `GET /events`, and keep reading until
/// the stop flag flips or the server hangs up.
fn spawn_tcp_client(
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
) -> std::thread::JoinHandle<u64> {
    std::thread::spawn(move || {
        let mut bytes = 0u64;
        let Ok(mut stream) = TcpStream::connect(addr) else {
            return 0;
        };
        let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
        if write!(stream, "GET /events HTTP/1.1\r\nHost: bench\r\n\r\n").is_err() {
            return 0;
        }
        let mut buf = [0u8; 4096];
        loop {
            match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => bytes += n as u64,
                Err(_) if stop.load(Ordering::Relaxed) => break,
                Err(_) => {}
            }
        }
        bytes
    })
}

fn main() {
    let scale = Scale::detect();
    banner(
        "stream_fanout",
        "SSE fan-out: query overhead with 256 stream subscribers vs none",
        scale,
    );
    let runs = if scale.full { 5 } else { 3 };

    // Baseline: monitored, streamed endpoints live, zero subscribers.
    let baseline = monitored_session();
    // Loaded: same session shape plus the full subscriber complement.
    let loaded = monitored_session();
    let server = Arc::clone(loaded.monitor().expect("monitor"));
    let stop = Arc::new(AtomicBool::new(false));
    let drainers: Vec<_> = (0..SUBSCRIBERS)
        .map(|_| spawn_drainer(server.hub().subscribe(None, 256), Arc::clone(&stop)))
        .collect();
    let tcp_clients: Vec<_> = (0..TCP_CLIENTS)
        .map(|_| spawn_tcp_client(server.addr(), Arc::clone(&stop)))
        .collect();

    println!(
        "timing {runs} interleaved runs ({SUBSCRIBERS} in-process + {TCP_CLIENTS} TCP subscribers)..."
    );
    let run_query = |session: &Session| {
        let mut h = session.query(SQL).expect("query");
        h.collect().expect("collect");
    };
    let times = interleaved_min_times(
        runs,
        vec![
            Box::new(|| run_query(&baseline)) as Box<dyn FnMut() + '_>,
            Box::new(|| run_query(&loaded)) as Box<dyn FnMut() + '_>,
        ],
    );
    let (t_base, t_loaded) = (times[0], times[1]);
    let overhead_pct = if t_base.as_secs_f64() > 0.0 {
        100.0 * (t_loaded.as_secs_f64() - t_base.as_secs_f64()) / t_base.as_secs_f64()
    } else {
        0.0
    };
    let (delivered, dropped, evicted) = (
        server.hub().delivered(),
        server.hub().dropped(),
        server.hub().evicted(),
    );

    // Terminal-delivery phase: every per-query subscriber must see exactly
    // one terminal frame, drops and backpressure notwithstanding.
    println!("checking terminal delivery across {TERMINAL_SUBS} per-query subscribers...");
    let mut h = loaded.query(SQL).expect("query");
    let id = h.query_id().expect("query id");
    let subs: Vec<_> = (0..TERMINAL_SUBS)
        .map(|_| server.hub().subscribe(Some(id), 8))
        .collect();
    h.collect().expect("collect");
    let mut dropped_terminal = 0usize;
    for sub in &subs {
        let mut terminals = 0u32;
        loop {
            match sub.next(Duration::from_secs(5)) {
                // Hub frames lead with an `id:` line.
                StreamNext::Frame(f) if f.contains("\nevent: terminal\n") => terminals += 1,
                StreamNext::Frame(_) => {}
                // Per-query streams close right after the terminal frame;
                // a timeout here means the frame never came.
                StreamNext::Timeout | StreamNext::Closed => break,
            }
        }
        if terminals != 1 {
            dropped_terminal += 1;
        }
    }
    drop(h);

    stop.store(true, Ordering::Relaxed);
    server.shutdown();
    let frames_drained: u64 = drainers.into_iter().map(|d| d.join().unwrap()).sum();
    let tcp_bytes: u64 = tcp_clients.into_iter().map(|c| c.join().unwrap()).sum();

    println!(
        "\nbaseline {} ms -> loaded {} ms  ({overhead_pct:+.2}% with {} subscribers)",
        ms(t_base),
        ms(t_loaded),
        SUBSCRIBERS + TCP_CLIENTS,
    );
    println!(
        "hub: delivered {delivered}, dropped {dropped}, evicted {evicted}; \
         drained {frames_drained} frames in-process, {tcp_bytes} bytes over TCP"
    );
    println!(
        "terminal delivery: {}/{TERMINAL_SUBS} subscribers received exactly one terminal",
        TERMINAL_SUBS - dropped_terminal,
    );

    let json = format!(
        "{{\n  \"bench\": \"stream_fanout\",\n  \"scale\": \"{}\",\n  \
         \"runs\": {runs},\n  \"subscribers\": {SUBSCRIBERS},\n  \
         \"tcp_clients\": {TCP_CLIENTS},\n  \
         \"baseline_ms\": {:.3},\n  \"loaded_ms\": {:.3},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \
         \"delivered\": {delivered},\n  \"dropped\": {dropped},\n  \
         \"evicted\": {evicted},\n  \"frames_drained\": {frames_drained},\n  \
         \"tcp_bytes\": {tcp_bytes},\n  \
         \"terminal_subs\": {TERMINAL_SUBS},\n  \
         \"dropped_terminal\": {dropped_terminal}\n}}\n",
        if scale.full { "full" } else { "quick" },
        t_base.as_secs_f64() * 1e3,
        t_loaded.as_secs_f64() * 1e3,
    );
    write_bench_json("BENCH_stream.json", &json);

    paper_note(&[
        "streaming is this reproduction's extension: the paper reports its \
         estimators cost <2% of query time; server-push must not undo that",
        "expect: one encode per broadcast frame regardless of subscriber \
         count — fan-out is an Arc clone and a bounded queue push",
        "expect: zero dropped terminal frames (terminals bypass the cap)",
    ]);

    if dropped_terminal > 0 {
        eprintln!("FAIL: {dropped_terminal} subscribers missed their terminal frame");
        std::process::exit(1);
    }
    if let Ok(bound) = std::env::var("QPROG_STREAM_MAX_OVERHEAD_PCT") {
        let bound: f64 = bound.parse().expect("QPROG_STREAM_MAX_OVERHEAD_PCT");
        if overhead_pct > bound {
            eprintln!("FAIL: fan-out overhead {overhead_pct:.2}% above bound {bound:.2}%");
            std::process::exit(1);
        }
        println!("overhead gate: {overhead_pct:.2}% <= {bound:.2}% — ok");
    }
}
