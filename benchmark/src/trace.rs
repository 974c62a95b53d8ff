//! The benchmark's own in-memory span recorder.
//!
//! Spans are recorded around every call the benchmark makes into a layer
//! (nothing inside the program is touched), kept in memory, and written
//! once at the end as Chrome trace-event JSON. A layer's *self time* is its
//! span minus the part its child spans cover; per query the self times on
//! the layer track must add up to the end-to-end time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::Summary;

/// Track 0 carries the layer spans that tile a query; other tracks carry
/// detail (operator phases read from the program's trace port) that is
/// shown in Perfetto but never counted into self times.
pub const LAYER_TRACK: u32 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The query (request) this span belongs to.
    pub query: u32,
    /// Index of the causing span, `None` for a query's root.
    pub parent: Option<usize>,
    pub track: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder::default()
    }

    pub fn us(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn add(
        &mut self,
        name: impl Into<String>,
        query: u32,
        parent: Option<usize>,
        track: u32,
        start_us: f64,
        end_us: f64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            query,
            parent,
            track,
            start_us,
            end_us: end_us.max(start_us),
        });
        self.spans.len() - 1
    }

    /// Layer-track child of `parent` that starts where the previous child
    /// ended (or at the parent's start) and lasts `dur_us`, clamped into
    /// the parent. Used for server-side durations that arrive without
    /// timestamps on the client's clock.
    pub fn add_sequential(&mut self, name: &str, parent: usize, dur_us: f64) -> usize {
        let (query, p_start, p_end) = {
            let p = &self.spans[parent];
            (p.query, p.start_us, p.end_us)
        };
        // Children are recorded after their parent.
        let start = self.spans[parent + 1..]
            .iter()
            .filter(|s| s.parent == Some(parent) && s.track == LAYER_TRACK)
            .map(|s| s.end_us)
            .fold(p_start, f64::max);
        let end = (start + dur_us.max(0.0)).min(p_end);
        self.add(
            name,
            query,
            Some(parent),
            LAYER_TRACK,
            start.min(p_end),
            end,
        )
    }

    /// Fill what is left of `parent` after its last child with a span
    /// named `name`, so the remainder has a name of its own.
    pub fn add_remainder(&mut self, name: &str, parent: usize) -> usize {
        self.add_sequential(name, parent, f64::INFINITY)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: duration minus layer-track children.
    fn self_times(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::dur_us).collect();
        for s in &self.spans {
            if let (Some(p), LAYER_TRACK) = (s.parent, s.track) {
                own[p] -= s.dur_us();
            }
        }
        own
    }

    /// Per span name on the layer track: summary of self times in µs.
    pub fn self_time_table(&self) -> Vec<(String, Summary, f64)> {
        let own = self.self_times();
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            if s.track == LAYER_TRACK {
                by_name.entry(&s.name).or_default().push(*t);
            }
        }
        by_name
            .into_iter()
            .map(|(name, v)| {
                let total = v.iter().sum();
                (name.to_string(), Summary::of(&v), total)
            })
            .collect()
    }

    /// Worst relative gap, over queries, between the summed layer self
    /// times and the root span (the end-to-end time). Negative self times
    /// (children overrunning a parent) count at their absolute value, so
    /// overlap cannot cancel a gap.
    pub fn worst_reconcile_gap(&self) -> f64 {
        let own = self.self_times();
        let mut sums: BTreeMap<u32, (f64, f64)> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(&own) {
            if s.track != LAYER_TRACK {
                continue;
            }
            let e = sums.entry(s.query).or_insert((0.0, 0.0));
            e.0 += t.abs();
            if s.parent.is_none() {
                e.1 += s.dur_us();
            }
        }
        sums.values()
            .filter(|(_, root)| *root > 0.0)
            .map(|(sum, root)| (sum - root).abs() / root)
            .fold(0.0, f64::max)
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto): one process
    /// per query, one thread per track.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":{},\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or("bench"),
                s.start_us,
                s.dur_us(),
                s.query,
                s.track,
            );
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_tile_the_root() {
        let mut r = Recorder::new();
        let root = r.add("query", 1, None, LAYER_TRACK, 0.0, 100.0);
        r.add("plan.build", 1, Some(root), LAYER_TRACK, 0.0, 10.0);
        let run = r.add("exec.run", 1, Some(root), LAYER_TRACK, 12.0, 100.0);
        // Detail on another track never enters the sums.
        r.add("phase probe", 1, Some(run), 3, 20.0, 90.0);
        assert_eq!(r.worst_reconcile_gap(), 0.0);
        let table = r.self_time_table();
        let own = |n: &str| table.iter().find(|(name, ..)| name == n).unwrap().2;
        assert_eq!(own("query"), 2.0);
        assert_eq!(own("exec.run"), 88.0);
        assert!(table.iter().all(|(n, ..)| n != "phase probe"));
    }

    #[test]
    fn sequential_children_clamp_and_remainder_fills() {
        let mut r = Recorder::new();
        let root = r.add("query", 7, None, LAYER_TRACK, 0.0, 50.0);
        r.add_sequential("service.exec", root, 20.0);
        r.add_sequential("service.finalize", root, 40.0); // clamped to 30
        let rest = r.add_remainder("monitor.deliver_wait", root);
        assert_eq!(r.spans()[2].end_us, 50.0);
        assert_eq!(r.spans()[rest].dur_us(), 0.0);
        assert_eq!(r.worst_reconcile_gap(), 0.0);
    }

    #[test]
    fn overrunning_children_show_as_a_gap() {
        let mut r = Recorder::new();
        let root = r.add("query", 1, None, LAYER_TRACK, 0.0, 10.0);
        r.add("a", 1, Some(root), LAYER_TRACK, 0.0, 8.0);
        r.add("b", 1, Some(root), LAYER_TRACK, 4.0, 10.0);
        assert!(r.worst_reconcile_gap() > 0.5);
    }

    #[test]
    fn chrome_export_is_json() {
        let mut r = Recorder::new();
        let root = r.add("query", 1, None, LAYER_TRACK, 0.0, 5.0);
        r.add("exec.run", 1, Some(root), LAYER_TRACK, 1.0, 4.0);
        let doc = crate::json::Json::parse(&r.to_chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_array().unwrap().len(), 2);
    }
}
