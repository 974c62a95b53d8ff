//! The server-push broadcast hub: one encoded SSE frame per publication,
//! fanned out to every subscriber.
//!
//! Polling `/progress/{id}` costs O(N) renders per tick for N clients; the
//! hub inverts that. The publisher (a thread making a lifecycle transition, or
//! the tick sampling a running query) encodes the summary **once** and pushes
//! the `Arc<String>` frame into every subscriber's bounded queue: N clients
//! cost N queue pushes, not N renders. Subscribers are the server's `GET
//! /progress/{id}/stream` and `GET /events` connections (and bench drains).
//!
//! Backpressure policy: each subscriber owns a bounded queue. When it is
//! full, **non-terminal** frames are dropped (progress is snapshot-like:
//! the next frame supersedes the lost one) and counted; a subscriber that
//! accumulates more than a full queue's worth of drops is evicted (closed)
//! — it was never going to catch up. **Terminal** frames are exempt from
//! both: they are force-pushed past the cap and never dropped, so every
//! surviving subscriber learns how a query ended. A per-query subscriber is
//! closed (drain-then-deliver semantics) right after its terminal frame is
//! queued.
//!
//! Reconnect support: every published frame carries a monotonically
//! increasing `id:` line, and the hub keeps the last [`REPLAY_RING_CAP`]
//! frames in a replay ring. A client reconnecting with `Last-Event-ID`
//! gets the frames it missed ([`frames_since`](StreamHub::frames_since))
//! when the ring still covers the gap, and a full snapshot resync when it
//! does not.
//!
//! Self-observability: the hub counts delivered/dropped frames and
//! evictions once, in the `qprog_stream_events_{delivered,dropped}_total`
//! and `qprog_stream_evictions_total` counters, and keeps the
//! `qprog_stream_subscribers` gauge: in the attached metrics registry, or
//! in a private one when none is attached.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use qprog_metrics::{Counter, Gauge, Registry};

/// Default per-subscriber queue bound (frames). At the monitor's tick
/// cadence this is multiple seconds of buffered progress — a reader that
/// falls further behind is not keeping up.
pub const DEFAULT_QUEUE_CAP: usize = 256;

/// How many recently-published frames the hub retains for
/// `Last-Event-ID` reconnect replay.
pub const REPLAY_RING_CAP: usize = 512;

/// What [`StreamSubscriber::next`] yielded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamNext {
    /// One SSE frame, ready to write verbatim.
    Frame(Arc<String>),
    /// Nothing arrived within the timeout (emit a keepalive, check stop
    /// flags, and wait again).
    Timeout,
    /// The stream ended: queue drained and the subscriber was closed
    /// (terminal frame delivered, eviction, or hub shutdown).
    Closed,
}

#[derive(Debug, Default)]
struct SubState {
    queue: VecDeque<Arc<String>>,
    closed: bool,
    dropped: u64,
}

/// One subscriber's bounded frame queue. Obtain via
/// [`StreamHub::subscribe`]; frames arrive in publication order.
#[derive(Debug)]
pub struct StreamSubscriber {
    id: u64,
    /// `Some(query_id)` = per-query stream; `None` = all-queries firehose.
    filter: Option<u64>,
    cap: usize,
    state: Mutex<SubState>,
    cv: Condvar,
}

impl StreamSubscriber {
    fn lock(&self) -> MutexGuard<'_, SubState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Pop the next frame, waiting up to `timeout`. Queued frames are
    /// always drained before `Closed` is reported.
    pub fn next(&self, timeout: Duration) -> StreamNext {
        let mut st = self.lock();
        loop {
            if let Some(frame) = st.queue.pop_front() {
                return StreamNext::Frame(frame);
            }
            if st.closed {
                return StreamNext::Closed;
            }
            let (guard, result) = self
                .cv
                .wait_timeout(st, timeout)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
            if result.timed_out() {
                if let Some(frame) = st.queue.pop_front() {
                    return StreamNext::Frame(frame);
                }
                return if st.closed {
                    StreamNext::Closed
                } else {
                    StreamNext::Timeout
                };
            }
        }
    }

    /// Frames this subscriber lost to its queue bound.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// Whether the subscriber has been closed (it may still have queued
    /// frames to drain).
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

/// The broadcast hub; see the module docs.
pub struct StreamHub {
    subscribers: Mutex<Vec<Arc<StreamSubscriber>>>,
    next_id: AtomicU64,
    /// Frame ids issued so far (ids start at 1; 0 = none issued).
    frame_seq: AtomicU64,
    /// The last [`REPLAY_RING_CAP`] published frames, oldest first, for
    /// `Last-Event-ID` reconnect replay.
    replay: Mutex<VecDeque<(u64, Arc<String>)>>,
    live: Arc<Gauge>,
    delivered: Arc<Counter>,
    dropped: Arc<Counter>,
    evicted: Arc<Counter>,
}

impl std::fmt::Debug for StreamHub {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamHub")
            .field("subscribers", &self.subscriber_count())
            .field("delivered", &self.delivered())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl StreamHub {
    /// A hub counting into the `qprog_stream_*` gauge and counters of
    /// `metrics`, or of a private registry when it is `None`.
    pub fn new(metrics: Option<&Registry>) -> Self {
        let private = Registry::new();
        let r = metrics.unwrap_or(&private);
        StreamHub {
            subscribers: Mutex::new(Vec::new()),
            next_id: AtomicU64::new(1),
            frame_seq: AtomicU64::new(0),
            replay: Mutex::new(VecDeque::with_capacity(REPLAY_RING_CAP)),
            live: r.gauge(
                "qprog_stream_subscribers",
                "Live SSE stream subscribers",
                &[],
            ),
            delivered: r.counter(
                "qprog_stream_events_delivered_total",
                "SSE frames enqueued to stream subscribers",
                &[],
            ),
            dropped: r.counter(
                "qprog_stream_events_dropped_total",
                "Non-terminal SSE frames dropped at full subscriber queues",
                &[],
            ),
            evicted: r.counter(
                "qprog_stream_evictions_total",
                "Subscribers evicted for falling too far behind",
                &[],
            ),
        }
    }

    fn subs(&self) -> MutexGuard<'_, Vec<Arc<StreamSubscriber>>> {
        self.subscribers.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Register a subscriber: `filter = Some(id)` for one query's stream,
    /// `None` for the firehose. `cap` bounds the queue
    /// ([`DEFAULT_QUEUE_CAP`] is the server's choice).
    pub fn subscribe(&self, filter: Option<u64>, cap: usize) -> Arc<StreamSubscriber> {
        let sub = Arc::new(StreamSubscriber {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            filter,
            cap: cap.max(1),
            state: Mutex::new(SubState::default()),
            cv: Condvar::new(),
        });
        let mut subs = self.subs();
        subs.push(Arc::clone(&sub));
        self.live.set(subs.len() as f64);
        sub
    }

    /// Remove a subscriber (normally: its connection closed).
    pub fn unsubscribe(&self, sub: &StreamSubscriber) {
        let mut subs = self.subs();
        subs.retain(|s| s.id != sub.id);
        self.live.set(subs.len() as f64);
        {
            let mut st = sub.lock();
            st.closed = true;
        }
        sub.cv.notify_all();
    }

    /// Current subscriber count.
    pub fn subscriber_count(&self) -> usize {
        self.subs().len()
    }

    /// Whether any subscriber would receive a frame for `query_id` —
    /// publishers skip encoding entirely when nobody is listening.
    pub fn wants(&self, query_id: u64) -> bool {
        self.subs()
            .iter()
            .any(|s| s.filter.is_none_or(|f| f == query_id))
    }

    /// The id of the most recently published frame (0 = none yet).
    pub fn last_frame_id(&self) -> u64 {
        self.frame_seq.load(Ordering::Acquire)
    }

    /// Frames published after `last_id`, for `Last-Event-ID` reconnects.
    ///
    /// - `Some(frames)` — the ring still covers everything after
    ///   `last_id`; replaying `frames` (possibly empty) makes the client
    ///   whole.
    /// - `None` — the gap is older than the ring (or `last_id` was never
    ///   issued); the caller must fall back to a full snapshot resync.
    pub fn frames_since(&self, last_id: u64) -> Option<Vec<Arc<String>>> {
        let newest = self.last_frame_id();
        if last_id > newest {
            // The client claims frames we never issued (e.g. a server
            // restart reset the sequence): resync.
            return None;
        }
        if last_id == newest {
            return Some(Vec::new());
        }
        let ring = self.replay.lock().unwrap_or_else(|p| p.into_inner());
        match ring.front() {
            // Continuity: the ring's oldest entry must be no newer than
            // the first missed frame, or frames were already evicted.
            Some(&(oldest, _)) if oldest <= last_id + 1 => Some(
                ring.iter()
                    .filter(|(id, _)| *id > last_id)
                    .map(|(_, f)| Arc::clone(f))
                    .collect(),
            ),
            _ => None,
        }
    }

    /// Encode and fan one frame out. The frame is encoded once (with a
    /// fresh monotonic `id:` line) and recorded in the replay ring; every
    /// matching subscriber gets an `Arc` clone. `terminal` frames bypass
    /// the queue bound and close per-query subscribers after delivery.
    pub fn publish(&self, query_id: u64, event: &str, data: &str, terminal: bool) {
        let id = self.frame_seq.fetch_add(1, Ordering::AcqRel) + 1;
        let frame = Arc::new(format!("id: {id}\nevent: {event}\ndata: {data}\n\n"));
        {
            let mut ring = self.replay.lock().unwrap_or_else(|p| p.into_inner());
            if ring.len() >= REPLAY_RING_CAP {
                ring.pop_front();
            }
            ring.push_back((id, Arc::clone(&frame)));
        }
        let subs = self.subs();
        let matching = subs
            .iter()
            .filter(|s| s.filter.is_none_or(|f| f == query_id));
        let mut any_closed = false;
        let mut delivered = 0;
        for sub in matching {
            let frame = &frame;
            let mut st = sub.lock();
            if st.closed {
                any_closed = true;
                continue;
            }
            if !terminal && st.queue.len() >= sub.cap {
                st.dropped += 1;
                self.dropped.inc();
                // A subscriber that has lost a full queue's worth of
                // frames is never catching up: evict it.
                if st.dropped > sub.cap as u64 {
                    st.closed = true;
                    any_closed = true;
                    self.evicted.inc();
                    sub.cv.notify_all();
                }
                continue;
            }
            st.queue.push_back(Arc::clone(frame));
            delivered += 1;
            if terminal && sub.filter == Some(query_id) {
                // The query's story is over; close after the drain.
                st.closed = true;
                any_closed = true;
            }
            drop(st);
            sub.cv.notify_all();
        }
        drop(subs);
        self.delivered.add(delivered);
        if any_closed {
            self.reap();
        }
    }

    /// Drop closed subscribers from the fan-out list (readers still drain
    /// their queues through their own `Arc`).
    fn reap(&self) {
        let mut subs = self.subs();
        subs.retain(|s| !s.lock().closed);
        self.live.set(subs.len() as f64);
    }

    /// Close every subscriber filtered on `query_id` (the query
    /// unregistered; its terminal frame, if any, is already queued).
    pub fn close_query(&self, query_id: u64) {
        let mut subs = self.subs();
        for sub in subs.iter() {
            if sub.filter == Some(query_id) {
                sub.lock().closed = true;
                sub.cv.notify_all();
            }
        }
        subs.retain(|s| !s.lock().closed);
        self.live.set(subs.len() as f64);
    }

    /// Close every subscriber (server shutdown). Queued frames still
    /// drain; waiting readers wake immediately.
    pub fn close_all(&self) {
        let mut subs = self.subs();
        for sub in subs.drain(..) {
            sub.lock().closed = true;
            sub.cv.notify_all();
        }
        self.live.set(0.0);
    }

    /// Frames enqueued across all subscribers so far.
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Non-terminal frames dropped at full queues so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    /// Subscribers evicted for falling behind so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_millis(50);

    fn frame_text(n: StreamNext) -> String {
        match n {
            StreamNext::Frame(f) => f.as_ref().clone(),
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn frames_fan_out_in_order_to_matching_subscribers() {
        let hub = StreamHub::new(None);
        let firehose = hub.subscribe(None, 8);
        let q1 = hub.subscribe(Some(1), 8);
        let q2 = hub.subscribe(Some(2), 8);
        assert_eq!(hub.subscriber_count(), 3);
        hub.publish(1, "progress", "{\"id\":1}", false);
        hub.publish(2, "progress", "{\"id\":2}", false);
        assert_eq!(
            frame_text(firehose.next(T)),
            "id: 1\nevent: progress\ndata: {\"id\":1}\n\n"
        );
        assert_eq!(
            frame_text(firehose.next(T)),
            "id: 2\nevent: progress\ndata: {\"id\":2}\n\n"
        );
        assert!(frame_text(q1.next(T)).contains("\"id\":1"));
        assert_eq!(q1.next(Duration::from_millis(1)), StreamNext::Timeout);
        assert!(frame_text(q2.next(T)).contains("\"id\":2"));
        assert_eq!(hub.delivered(), 4);
        assert_eq!(hub.dropped(), 0);
    }

    #[test]
    fn terminal_frames_bypass_the_cap_and_close_per_query_streams() {
        let hub = StreamHub::new(None);
        let sub = hub.subscribe(Some(7), 4);
        for i in 0..6 {
            hub.publish(7, "progress", &format!("{{\"n\":{i}}}"), false);
        }
        // Queue bound held: 2 progress frames dropped (below the eviction
        // threshold of a full queue's worth)...
        assert_eq!(sub.dropped(), 2);
        assert_eq!(hub.evicted(), 0);
        // ...but the terminal frame is force-pushed past the full queue.
        hub.publish(7, "terminal", "{\"done\":true}", true);
        let mut got = Vec::new();
        loop {
            match sub.next(T) {
                StreamNext::Frame(f) => got.push(f.as_ref().clone()),
                StreamNext::Closed => break,
                StreamNext::Timeout => panic!("stream should have closed"),
            }
        }
        assert_eq!(got.len(), 5, "{got:?}");
        assert!(got[4].contains("\nevent: terminal\n"), "{got:?}");
        assert!(got[4].starts_with("id: "), "{got:?}");
        // Drain-then-close: the subscriber is gone from the fan-out list.
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn hopeless_subscribers_are_evicted() {
        let hub = StreamHub::new(None);
        let slow = hub.subscribe(None, 2);
        let fast = hub.subscribe(None, 1024);
        // 2 queued + cap (2) tolerated drops + 1 → eviction.
        for i in 0..6 {
            hub.publish(1, "progress", &format!("{{\"n\":{i}}}"), false);
        }
        assert_eq!(hub.evicted(), 1);
        assert!(slow.is_closed());
        assert_eq!(hub.subscriber_count(), 1);
        // The evicted reader still drains what it had, then sees Closed.
        assert!(matches!(slow.next(T), StreamNext::Frame(_)));
        assert!(matches!(slow.next(T), StreamNext::Frame(_)));
        assert_eq!(slow.next(T), StreamNext::Closed);
        // The fast subscriber got everything.
        for _ in 0..6 {
            assert!(matches!(fast.next(T), StreamNext::Frame(_)));
        }
    }

    #[test]
    fn replay_ring_serves_missed_frames_by_last_event_id() {
        let hub = StreamHub::new(None);
        // Keep one firehose subscriber so frames keep flowing while the
        // "reconnecting" client is away.
        let _live = hub.subscribe(None, 64);
        for i in 0..5 {
            hub.publish(1, "progress", &format!("{{\"n\":{i}}}"), false);
        }
        assert_eq!(hub.last_frame_id(), 5);
        // Saw everything: nothing to replay.
        assert_eq!(hub.frames_since(5).unwrap().len(), 0);
        // Missed the last two: exactly those come back, in order.
        let missed = hub.frames_since(3).unwrap();
        assert_eq!(missed.len(), 2);
        assert!(missed[0].starts_with("id: 4\n"), "{missed:?}");
        assert!(missed[1].starts_with("id: 5\n"), "{missed:?}");
        // A never-issued id (stale client from a previous server life)
        // forces a snapshot resync.
        assert!(hub.frames_since(99).is_none());
    }

    #[test]
    fn replay_gaps_older_than_the_ring_force_a_resync() {
        let hub = StreamHub::new(None);
        let _live = hub.subscribe(None, 4);
        for i in 0..(REPLAY_RING_CAP as u64 + 10) {
            hub.publish(1, "progress", &format!("{{\"n\":{i}}}"), false);
        }
        // The oldest retained frame is id 11; a client at id 5 has an
        // unrecoverable gap.
        assert!(hub.frames_since(5).is_none());
        // But a client within the ring window still replays.
        let tail = hub.frames_since(REPLAY_RING_CAP as u64 + 8).unwrap();
        assert_eq!(tail.len(), 2);
    }

    #[test]
    fn close_all_wakes_waiting_readers() {
        let hub = Arc::new(StreamHub::new(None));
        let sub = hub.subscribe(None, 8);
        let hub2 = Arc::clone(&hub);
        let waker = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            hub2.close_all();
        });
        // A long wait returns Closed promptly once the hub shuts down.
        assert_eq!(sub.next(Duration::from_secs(30)), StreamNext::Closed);
        waker.join().unwrap();
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn metrics_track_subscribers_and_flow() {
        let registry = Registry::new();
        let hub = StreamHub::new(Some(&registry));
        let gauge = registry.gauge("qprog_stream_subscribers", "", &[]);
        let sub = hub.subscribe(None, 2);
        assert_eq!(gauge.get(), 1.0);
        for i in 0..3 {
            hub.publish(1, "progress", &format!("{i}"), false);
        }
        hub.unsubscribe(&sub);
        assert_eq!(gauge.get(), 0.0);
        // A capacity-1 subscriber loses a second queue's worth and is
        // evicted: every count is the registry's series, read back.
        let slow = hub.subscribe(None, 1);
        for i in 0..4 {
            hub.publish(1, "progress", &format!("{i}"), false);
        }
        assert!(slow.is_closed());
        let series = |name: &str| registry.counter(name, "", &[]).get();
        assert_eq!((hub.delivered(), hub.dropped(), hub.evicted()), (3, 3, 1));
        assert_eq!(
            (hub.delivered(), hub.dropped(), hub.evicted()),
            (
                series("qprog_stream_events_delivered_total"),
                series("qprog_stream_events_dropped_total"),
                series("qprog_stream_evictions_total"),
            )
        );
        let text = registry.render();
        assert!(
            text.contains("qprog_stream_events_delivered_total 3"),
            "{text}"
        );
        assert!(
            text.contains("qprog_stream_events_dropped_total 3"),
            "{text}"
        );
        assert!(text.contains("qprog_stream_evictions_total 1"), "{text}");
    }
}
